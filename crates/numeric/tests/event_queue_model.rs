//! Model-based properties for [`EventQueue`], the event heap of every
//! event-driven scheduling loop.
//!
//! The reference is a plain exact heap, `BinaryHeap<Reverse<(Rat, u64)>>`,
//! keyed by each event's exact instant and its code (`Proc(k)` is `k`,
//! `Activate(id)` is `2^32 | id`). Arbitrary interleavings of pushes and
//! pops, with instants on and off the queue's grid and near the `i64`
//! tick limit, must pop the same events at the same instants as the
//! reference, wherever the queue switches from ticks to exact rationals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pfair_numeric::{Event, EventQueue, EventTime, QScale, Rat};
use proptest::prelude::*;

fn code(ev: Event) -> u64 {
    match ev {
        Event::Proc(k) => u64::from(k),
        Event::Activate(id) => (1 << 32) | u64::from(id),
    }
}

/// One step of an interleaving. Times are picked from the ones formed so
/// far by index (modulo their count).
#[derive(Clone, Debug)]
enum Op {
    /// Push at the integral instant `base + n`.
    Int(i64, Event),
    /// Push at the instant `base + num/den`.
    At(i64, i64, Event),
    /// Push at `t + num/den` for a formed `t`.
    After(usize, i64, i64, Event),
    /// Push at `max(base + n, t)` for a formed `t`.
    ReadyAt(i64, usize, Event),
    /// Pop the earliest event.
    Pop,
    /// Pop the earliest event only if it falls at a formed `t`.
    PopAt(usize),
}

/// Denominators on the scale-12 grid (1–12) and off it (5, 7, 17).
const DENS: [i64; 9] = [1, 2, 3, 4, 6, 12, 5, 7, 17];

/// Decodes one drawn tuple into an [`Op`]: `kind` picks the variant, `den`
/// indexes [`DENS`], and `num` folds into `1..=den`.
fn op() -> impl Strategy<Value = Op> {
    (
        0u8..7,
        0i64..6,
        0usize..1000,
        0usize..DENS.len(),
        0i64..17,
        (0u8..2, 0u32..4),
    )
        .prop_map(|(kind, n, i, den, num, (act, id))| {
            let den = DENS[den];
            let num = 1 + num % den;
            let ev = if act == 1 {
                Event::Activate(id)
            } else {
                Event::Proc(id)
            };
            match kind {
                0 => Op::Int(n, ev),
                1 => Op::At(n * den + num, den, ev),
                2 => Op::After(i, num, den, ev),
                3 => Op::ReadyAt(n, i, ev),
                4 | 5 => Op::Pop,
                _ => Op::PopAt(i),
            }
        })
}

/// Replays `ops` on a queue at scale 12 and on the reference heap,
/// asserting identical pops, exact instant values, and that the queue
/// stays in tick mode exactly as long as every instant it formed fits the
/// grid.
fn check(base: i64, ops: &[Op]) -> Result<(), TestCaseError> {
    let scale = QScale::new(12);
    let mut q = EventQueue::new(Some(scale));
    let mut reference: BinaryHeap<Reverse<(Rat, u64)>> = BinaryHeap::new();
    let start = q.int(base);
    let mut formed: Vec<(EventTime, Rat)> = vec![(start, Rat::int(base))];
    let mut off_grid = scale.from_rat(Rat::int(base)).is_none();
    let b = Rat::int(base);
    for op in ops {
        let pick = |i: usize| formed[i % formed.len()];
        let pushed = match *op {
            Op::Int(n, ev) => Some((q.int(base + n), b + Rat::int(n), ev)),
            Op::At(num, den, ev) => {
                let r = b + Rat::new(num, den);
                Some((q.at(r), r, ev))
            }
            Op::After(i, num, den, ev) => {
                let (t, r) = pick(i);
                let c = Rat::new(num, den);
                Some((q.after(t, c), r + c, ev))
            }
            Op::ReadyAt(n, i, ev) => {
                let (t, r) = pick(i);
                Some((q.ready_at(base + n, t), (b + Rat::int(n)).max(r), ev))
            }
            Op::Pop => {
                let want = reference.pop().map(|Reverse(k)| k);
                let got = q.peek().map(|(t, ev)| {
                    prop_assert_eq!(q.pop_at(t), Some(ev));
                    Ok((q.rat(t), code(ev)))
                });
                prop_assert_eq!(got.transpose()?, want);
                None
            }
            Op::PopAt(i) => {
                let (t, r) = pick(i);
                let want = match reference.peek() {
                    Some(&Reverse((head, c))) if head == r => {
                        reference.pop();
                        Some(c)
                    }
                    _ => None,
                };
                prop_assert_eq!(q.pop_at(t).map(code), want);
                None
            }
        };
        if let Some((t, r, ev)) = pushed {
            prop_assert_eq!(q.rat(t), r, "formed instant must be exact");
            off_grid |= scale.from_rat(r).is_none();
            q.push(t, ev);
            reference.push(Reverse((r, code(ev))));
            formed.push((t, r));
        }
        prop_assert_eq!(
            q.is_exact(),
            off_grid,
            "switch exactly at the first off-grid instant"
        );
    }
    while let Some(Reverse(want)) = reference.pop() {
        let (t, ev) = q
            .peek()
            .expect("queue holds as many events as the reference");
        prop_assert_eq!(q.pop_at(t), Some(ev));
        prop_assert_eq!((q.rat(t), code(ev)), want);
    }
    prop_assert!(q.peek().is_none());
    Ok(())
}

proptest! {
    /// Small instants: the switch, if any, comes from an off-grid cost.
    #[test]
    fn prop_pops_match_reference_heap(ops in proptest::collection::vec(op(), 1..80)) {
        check(0, &ops)?;
    }

    /// Instants straddling the last quantum `i64` ticks hold at scale 12:
    /// the switch can also come from overflow.
    #[test]
    fn prop_pops_match_reference_heap_near_tick_overflow(
        slack in 0i64..8,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        check(i64::MAX / 12 - slack, &ops)?;
    }
}

#[test]
fn exact_queue_is_the_identity() {
    let mut q = EventQueue::new(None);
    assert!(q.is_exact());
    let t = q.int(3);
    assert_eq!(q.rat(t), Rat::int(3));
    let c = Rat::new(7, 8);
    let done = q.after(t, c);
    assert_eq!(q.rat(done), Rat::int(3) + c);
    let late = q.ready_at(4, done);
    assert_eq!(q.rat(late), Rat::int(4));
    let early = q.ready_at(2, done);
    assert_eq!(q.rat(early), Rat::int(3) + c);
    let at = q.at(c);
    assert_eq!(q.rat(at), c);
}

#[test]
fn tick_queue_agrees_with_exact_on_grid() {
    let mut q = EventQueue::new(Some(QScale::new(24)));
    let t = q.int(5);
    let stepped = q.after(t, Rat::new(7, 8));
    assert_eq!(q.rat(stepped), Rat::int(5) + Rat::new(7, 8));
    let next = q.after(t, Rat::ONE);
    assert_eq!(q.rat(next), Rat::int(6), "one quantum");
    let ready = q.ready_at(6, stepped);
    assert_eq!(q.rat(ready), Rat::int(6));
    assert!(!q.is_exact(), "every instant so far is on the 24-grid");
}

#[test]
fn off_grid_cost_switches_instead_of_rounding() {
    let mut q = EventQueue::new(Some(QScale::new(24)));
    let t = q.int(5);
    q.push(t, Event::Proc(1));
    let done = q.after(t, Rat::new(1, 7));
    assert!(q.is_exact(), "1/7 is off the 24-grid");
    assert_eq!(
        q.rat(done),
        Rat::int(5) + Rat::new(1, 7),
        "exact, not rounded"
    );
    // The tick time formed before the switch still names its instant.
    q.push(done, Event::Activate(0));
    assert_eq!(q.pop_at(t), Some(Event::Proc(1)));
    assert_eq!(q.pop_at(t), None);
    assert_eq!(q.pop_at(done), Some(Event::Activate(0)));
}

#[test]
fn tick_overflow_switches_instead_of_failing() {
    let mut q = EventQueue::new(Some(QScale::new(720_720)));
    let far = q.int(i64::MAX / 2);
    assert!(q.is_exact(), "i64::MAX / 2 quanta overflow i64 ticks");
    assert_eq!(q.rat(far), Rat::int(i64::MAX / 2));
}

#[test]
fn same_instant_pops_processors_first_each_ascending() {
    let mut q = EventQueue::new(Some(QScale::new(2)));
    let t = q.at(Rat::new(1, 2));
    for ev in [
        Event::Activate(0),
        Event::Proc(3),
        Event::Activate(7),
        Event::Proc(1),
    ] {
        q.push(t, ev);
    }
    let order: Vec<Event> = std::iter::from_fn(|| q.pop_at(t)).collect();
    assert_eq!(
        order,
        [
            Event::Proc(1),
            Event::Proc(3),
            Event::Activate(0),
            Event::Activate(7)
        ]
    );
}
