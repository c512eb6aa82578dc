//! The event queue every event-driven scheduling loop runs on.
//!
//! Under the DVQ model decisions fall at arbitrary rational instants, so
//! an event loop must order exact times. In any concrete run, though,
//! those instants usually live on a known grid (see [`crate::qtime`]):
//! then the heap can order `i64` tick counts instead of cross-multiplying
//! `i128` rationals on every sift.
//!
//! [`EventQueue`] owns both representations and picks per run:
//!
//! * **tick mode** — a heap of `u128` keys, each packing a [`QTime`] tick
//!   count (sign-flipped into the high 64 bits) over an event code (the
//!   low 64), so a sift step is one wide-integer compare;
//! * **exact mode** — a heap of `(Rat, code)` pairs.
//!
//! A queue built with a [`QScale`] starts in tick mode. The first instant
//! it is asked to form that the scale cannot represent — a cost off the
//! grid, or a tick count past `i64` — switches it to exact mode for good:
//! every queued key converts losslessly (a tick count *is* a rational)
//! and the instant is formed exactly. Nothing is rounded and nothing is
//! redrawn, so a loop's schedule and event stream never depend on where,
//! or whether, the switch happens.
//!
//! Loops never see the switch. They hold instants as opaque
//! [`EventTime`]s and form new ones through the queue ([`EventQueue::int`],
//! [`EventQueue::at`], [`EventQueue::after`], [`EventQueue::ready_at`]),
//! and an [`EventTime`] formed before a switch stays valid after it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::qtime::{QScale, QTime};
use crate::rational::Rat;

/// A queued event. At one instant every `Proc` pops before every
/// `Activate`, each ascending by id — the order that makes simultaneous
/// batches drain deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// Processor `k` reaches a decision point: its quantum completes
    /// (DVQ) or its next quantum boundary arrives (staggered).
    Proc(u32),
    /// Subtask (offline) or task chain head (online) `id` becomes ready.
    Activate(u32),
}

impl Event {
    /// The 64-bit code the heaps order by: `Proc` codes (`< 2^32`) sort
    /// before `Activate` codes (`2^32 | id`), so code order is the derived
    /// order above.
    #[inline]
    fn code(self) -> u64 {
        match self {
            Event::Proc(k) => u64::from(k),
            Event::Activate(id) => (1 << 32) | u64::from(id),
        }
    }

    #[inline]
    fn from_code(code: u64) -> Event {
        let id = code as u32;
        if code >> 32 == 0 {
            Event::Proc(id)
        } else {
            Event::Activate(id)
        }
    }
}

/// An instant formed by an [`EventQueue`]: a tick count at the queue's
/// scale while the queue is in tick mode, an exact rational after.
///
/// Read its value with [`EventQueue::rat`]. Equality is of the
/// representation: equal values are equal instants, but a tick time from
/// before a switch never equals an exact time from after it. Like
/// [`QTime`], an `EventTime` belongs to the queue that formed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventTime(Repr);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Repr {
    Ticks(QTime),
    Exact(Rat),
}

/// Order-preserving lift of an `i64` into `u64` (flip the sign bit).
const SIGN: u64 = 1 << 63;

/// Packs `(t, ev)` into one tick-heap key ordered by time, then event.
#[inline]
fn pack(t: QTime, ev: Event) -> u128 {
    (u128::from((t.ticks() as u64) ^ SIGN) << 64) | u128::from(ev.code())
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u128) -> (QTime, Event) {
    let ticks = (((key >> 64) as u64) ^ SIGN) as i64;
    (QTime::from_ticks(ticks), Event::from_code(key as u64))
}

/// A min-queue of [`Event`]s by instant, in tick mode until an instant
/// falls off its scale, in exact mode from then on (see the module docs).
#[derive(Clone, Debug)]
pub struct EventQueue {
    scale: QScale,
    exact: bool,
    ticks: BinaryHeap<Reverse<u128>>,
    rats: BinaryHeap<Reverse<(Rat, u64)>>,
}

impl EventQueue {
    /// An empty queue in tick mode at `scale`, or in exact mode from the
    /// start when `scale` is `None`.
    #[must_use]
    pub fn new(scale: Option<QScale>) -> EventQueue {
        EventQueue {
            scale: scale.unwrap_or(QScale::new(1)),
            exact: scale.is_none(),
            ticks: BinaryHeap::new(),
            rats: BinaryHeap::new(),
        }
    }

    /// `true` once the queue runs on exact rationals.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Switches to exact mode, converting every queued key losslessly.
    fn migrate(&mut self) {
        if self.exact {
            return;
        }
        self.exact = true;
        let scale = self.scale;
        self.rats.extend(
            std::mem::take(&mut self.ticks)
                .into_iter()
                .map(|Reverse(k)| {
                    let (t, ev) = unpack(k);
                    Reverse((scale.to_rat(t), ev.code()))
                }),
        );
    }

    /// `t`'s tick count, if the queue is in tick mode (where every time it
    /// forms is a tick count).
    #[inline]
    fn ticks_of(&self, t: EventTime) -> Option<QTime> {
        match t.0 {
            Repr::Ticks(q) if !self.exact => Some(q),
            _ => None,
        }
    }

    /// Forms an instant: in tick mode as `tick()` if that is representable;
    /// otherwise (switching to exact mode first) as `exact()`.
    #[inline]
    fn form(
        &mut self,
        tick: impl FnOnce(&Self) -> Option<QTime>,
        exact: impl FnOnce(&Self) -> Rat,
    ) -> EventTime {
        if !self.exact {
            if let Some(q) = tick(self) {
                return EventTime(Repr::Ticks(q));
            }
        }
        self.form_exact(exact)
    }

    /// The exact arm of [`Self::form`], kept out of line so the inlined
    /// tick arm stays small in the loops.
    #[inline(never)]
    fn form_exact(&mut self, exact: impl FnOnce(&Self) -> Rat) -> EventTime {
        self.migrate();
        EventTime(Repr::Exact(exact(self)))
    }

    /// The exact value of `t`.
    #[must_use]
    #[inline]
    pub fn rat(&self, t: EventTime) -> Rat {
        match t.0 {
            Repr::Ticks(q) => self.scale.to_rat(q),
            Repr::Exact(r) => r,
        }
    }

    /// The integral instant `n` (quanta).
    #[inline]
    pub fn int(&mut self, n: i64) -> EventTime {
        self.form(|s| s.scale.int(n), |_| Rat::int(n))
    }

    /// The instant `t`.
    #[inline]
    pub fn at(&mut self, t: Rat) -> EventTime {
        self.form(|s| s.scale.from_rat(t), |_| t)
    }

    /// `t + c`: a quantum of cost `c` started at `t` completes here.
    #[inline]
    pub fn after(&mut self, t: EventTime, c: Rat) -> EventTime {
        self.form(
            |s| s.ticks_of(t)?.checked_add(s.scale.from_rat(c)?),
            |s| s.rat(t) + c,
        )
    }

    /// `max(eligible, t)`: a successor eligible at `eligible` whose
    /// predecessor completes at `t` becomes ready here.
    #[inline]
    pub fn ready_at(&mut self, eligible: i64, t: EventTime) -> EventTime {
        self.form(
            |s| Some(s.scale.int(eligible)?.max(s.ticks_of(t)?)),
            |s| Rat::int(eligible).max(s.rat(t)),
        )
    }

    /// Queues `ev` at `t`.
    #[inline]
    pub fn push(&mut self, t: EventTime, ev: Event) {
        match self.ticks_of(t) {
            Some(q) => self.ticks.push(Reverse(pack(q, ev))),
            None => self.push_exact(t, ev),
        }
    }

    /// The exact arm of [`Self::push`], out of line like
    /// [`Self::form_exact`].
    #[inline(never)]
    fn push_exact(&mut self, t: EventTime, ev: Event) {
        self.migrate();
        let r = self.rat(t);
        self.rats.push(Reverse((r, ev.code())));
    }

    /// The earliest event and its instant, without removing it.
    #[must_use]
    #[inline]
    pub fn peek(&self) -> Option<(EventTime, Event)> {
        if self.exact {
            let &Reverse((r, code)) = self.rats.peek()?;
            Some((EventTime(Repr::Exact(r)), Event::from_code(code)))
        } else {
            let &Reverse(k) = self.ticks.peek()?;
            let (q, ev) = unpack(k);
            Some((EventTime(Repr::Ticks(q)), ev))
        }
    }

    /// Removes and returns the earliest event if it falls at `t`.
    #[inline]
    pub fn pop_at(&mut self, t: EventTime) -> Option<Event> {
        if let Some(q) = self.ticks_of(t) {
            let &Reverse(k) = self.ticks.peek()?;
            let (head, ev) = unpack(k);
            if head != q {
                return None;
            }
            self.ticks.pop();
            return Some(ev);
        }
        self.pop_exact_at(t)
    }

    /// The exact-mode arm of [`Self::pop_at`], out of line like
    /// [`Self::form_exact`]. `t` may be a tick time formed before the
    /// switch.
    #[inline(never)]
    fn pop_exact_at(&mut self, t: EventTime) -> Option<Event> {
        let r = self.rat(t);
        let &Reverse((head, code)) = self.rats.peek()?;
        if head != r {
            return None;
        }
        self.rats.pop();
        Some(Event::from_code(code))
    }
}
