//! The staggered model of Holman & Anderson (RTAS 2004).
//!
//! A "slight variant of the SFQ model" designed to reduce bus contention on
//! symmetric multiprocessors: processor `k`'s quantum boundaries are offset
//! by a *fixed* `k/M`, so quantum starting points are "distributed on
//! different processors uniformly over the interval of each quantum". All
//! quanta are still uniform in size (one unit) and the system is still
//! non-work-conserving: a subtask that yields early leaves the rest of its
//! quantum unused, exactly as under SFQ.
//!
//! The model sits between SFQ and DVQ: decisions are desynchronized across
//! processors (like DVQ) but at *fixed* per-processor times with
//! *fixed-size* quanta (like SFQ). The waste/reclamation experiment (E5)
//! runs all three side by side.
//!
//! Like the DVQ loop, this driver is generic over a
//! `TimeDomain`: when the cost model hints its denominator grid, event
//! times run as `QTime` ticks at `lcm(hint, m)` (boundaries live on the
//! `1/m` grid) and bail out losslessly to exact [`Rat`]s on the first cost
//! the scale cannot represent — see the `dvq` module docs for the
//! bail-out contract.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pfair_core::priority::PriorityOrder;
use pfair_numeric::{checked_lcm, Rat, Time};
use pfair_obs::{Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::emit::{flush_due, flush_ends, PendingEnd};
use crate::schedule::{Placement, QuantumModel, Schedule};
use crate::tdomain::{event_span, tick_scale, ExactTimes, TickTimes, TimeDomain};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Processor `k` reached one of its quantum boundaries.
    Boundary(u32),
    /// A subtask became ready.
    Activate(SubtaskRef),
}

/// Hard liveness check at the end of each batch: with nothing ready and no
/// activation in flight, the boundary events would respin forever without
/// placing anything — a lost-event bug this driver must surface loudly
/// (also in release builds) rather than hang on.
fn check_liveness(
    now: Time,
    ready_len: usize,
    pending_activates: usize,
    placed: usize,
    total: usize,
) {
    assert!(
        ready_len > 0 || pending_activates > 0 || placed >= total,
        "staggered driver stuck at {now}: nothing is ready, no activation is \
         pending, yet only {placed}/{total} subtasks are placed (lost \
         readiness: broken predecessor chain or eligible time?)"
    );
}

/// The loop state, generic over the time representation so a tick-tier run
/// can hand its whole progress to the exact tier on a bail. Quantum-end
/// bookkeeping (`pending_ends`) stays in exact `Rat`s in both tiers: it is
/// only read by emission, never by the event heap.
struct StagState<T: Copy + Ord> {
    events: BinaryHeap<Reverse<(T, Event)>>,
    pending_activates: usize,
    ready: Vec<SubtaskRef>,
    placements: Vec<Placement>,
    placed: usize,
    pending_ends: Vec<PendingEnd>,
}

/// A fast-tier abort mid-batch: the instant, the boundaries not yet served
/// (descending, so `pop()` resumes in ascending processor order), idle
/// processors counted so far, the dispatch whose cost was already drawn
/// (never redrawn — RNG streams stay identical), and the migrated state.
struct StagBail {
    now: Rat,
    rest: Vec<u32>,
    idle: u32,
    pending: Option<(SubtaskRef, Rat)>,
    state: StagState<Time>,
}

/// The initial loop state in domain `dom`: every chain head activates at
/// its eligibility time; processor `k`'s first boundary is at `k/m`.
fn seed_stag<D: TimeDomain>(dom: &D, sys: &TaskSystem, m: u32) -> StagState<D::T> {
    let mut events = BinaryHeap::new();
    let mut pending_activates = 0usize;
    for task in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            let e = sys.subtask(head).eligible;
            let t = dom
                .int(e)
                .expect("seed eligibility is within the pre-checked event span");
            events.push(Reverse((t, Event::Activate(head))));
            pending_activates += 1;
        }
    }
    for k in 0..m {
        let b = dom
            .from_rat(Rat::new(i64::from(k), i64::from(m)))
            .expect("stagger offsets are on the pre-checked 1/m grid");
        events.push(Reverse((b, Event::Boundary(k))));
    }
    StagState {
        events,
        pending_activates,
        ready: Vec::with_capacity(sys.num_tasks()),
        placements: Vec::with_capacity(sys.num_subtasks()),
        placed: 0,
        pending_ends: Vec::new(),
    }
}

/// Lossless state conversion to the exact tier (`to_rat` is total).
fn migrate_stag<D: TimeDomain>(dom: &D, s: &mut StagState<D::T>) -> StagState<Time> {
    StagState {
        events: s
            .events
            .drain()
            .map(|Reverse((t, ev))| Reverse((dom.to_rat(t), ev)))
            .collect(),
        pending_activates: s.pending_activates,
        ready: std::mem::take(&mut s.ready),
        placements: std::mem::take(&mut s.placements),
        placed: s.placed,
        pending_ends: std::mem::take(&mut s.pending_ends),
    }
}

/// A bail-out's mid-batch position: the batch instant, the not-yet-served
/// boundary processors (descending), the idle count so far, and the
/// pending dispatch whose cost was already drawn.
type StagResume = (Rat, Vec<u32>, u32, Option<(SubtaskRef, Rat)>);

/// The borrows one staggered run needs, bundled so the tick and exact
/// tiers can take them in turn.
struct StagLoop<'a, D: TimeDomain, O: Observer> {
    dom: &'a D,
    sys: &'a TaskSystem,
    m: u32,
    order: &'a dyn PriorityOrder,
    cost: &'a mut dyn CostModel,
    obs: &'a mut O,
}

impl<D: TimeDomain, O: Observer> StagLoop<'_, D, O> {
    /// Runs the event loop to completion in this tier's arithmetic, or
    /// bails with the exact-tier state. `resume` re-enters a batch a
    /// previous tier abandoned: its `Tick` and due ends were already
    /// emitted, and the first dispatch reuses the carried-over cost.
    fn run_stag_tier(
        &mut self,
        mut s: StagState<D::T>,
        resume: Option<StagResume>,
    ) -> Result<Schedule, Box<StagBail>> {
        let total = self.sys.num_subtasks();
        // This instant's boundary-crossing processors, reused across slots
        // (descending, served by `pop()`).
        let mut boundaries: Vec<u32> = Vec::with_capacity(self.m as usize);
        if let Some((now_r, rest, idle, pending)) = resume {
            let now = self
                .dom
                .from_rat(now_r)
                .expect("a bail instant is representable in the resuming domain");
            boundaries = rest;
            self.serve_boundaries(&mut s, now, &mut boundaries, idle, pending)?;
            check_liveness(now_r, s.ready.len(), s.pending_activates, s.placed, total);
        }
        while s.placed < total {
            let Some(&Reverse((now, _))) = s.events.peek() else {
                // Boundary events re-arm themselves while work remains, so
                // the queue can only drain if this driver lost one — abort
                // loudly (also in release builds) rather than looping
                // forever on `placed < total`.
                panic!(
                    "staggered event queue drained with only {placed}/{total} subtasks \
                     placed: a Boundary/Activate event was lost",
                    placed = s.placed
                );
            };
            let now_r = self.dom.to_rat(now);
            if O::ENABLED {
                flush_due(self.sys, &mut s.pending_ends, now_r, self.obs);
                self.obs.on_event(&SchedEvent::Tick { at: now_r });
            }
            boundaries.clear();
            while let Some(&Reverse((t, ev))) = s.events.peek() {
                if t != now {
                    break;
                }
                s.events.pop();
                match ev {
                    Event::Boundary(k) => boundaries.push(k),
                    Event::Activate(st) => {
                        s.pending_activates -= 1;
                        if O::ENABLED {
                            let sub = self.sys.subtask(st);
                            let cause = if self.dom.int(sub.eligible) == Some(now) {
                                ReadyCause::Eligibility
                            } else {
                                ReadyCause::Predecessor
                            };
                            self.obs.on_event(&SchedEvent::Ready {
                                id: sub.id,
                                at: now_r,
                                cause,
                            });
                        }
                        s.ready.push(st);
                    }
                }
            }
            // Descending, so `pop()` serves processors in ascending order.
            boundaries.sort_unstable_by(|a, b| b.cmp(a));
            self.serve_boundaries(&mut s, now, &mut boundaries, 0, None)?;
            check_liveness(now_r, s.ready.len(), s.pending_activates, s.placed, total);
        }

        if O::ENABLED {
            flush_ends(self.sys, &mut s.pending_ends, self.obs);
        }

        Ok(Schedule::new(
            self.sys,
            QuantumModel::Staggered,
            self.m,
            s.placements,
        ))
    }

    /// Serves every boundary crossing at `now` in ascending processor
    /// order, then announces residual idleness. Honors the bail-out
    /// contract: each dispatch runs its fallible time conversions *before*
    /// any side effect, so an unrepresentable value aborts with the batch
    /// cleanly splittable (served boundaries are done, the rest carry
    /// over).
    fn serve_boundaries(
        &mut self,
        s: &mut StagState<D::T>,
        now: D::T,
        boundaries: &mut Vec<u32>,
        mut idle_procs: u32,
        mut carried: Option<(SubtaskRef, Rat)>,
    ) -> Result<(), Box<StagBail>> {
        let now_r = self.dom.to_rat(now);
        // Every served boundary re-arms at `now + 1` (and every placement
        // holds until then), so convert it once up front.
        let Some(next_b) = self.dom.add_one(now) else {
            return Err(Box::new(StagBail {
                now: now_r,
                rest: std::mem::take(boundaries),
                idle: idle_procs,
                pending: carried,
                state: migrate_stag(self.dom, s),
            }));
        };
        while let Some(&proc) = boundaries.last() {
            let pick = match carried.take() {
                Some(p) => Some(p),
                None => s
                    .ready
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| self.order.cmp(self.sys, a, b))
                    .map(|(pos, _)| pos)
                    .map(|pos| {
                        let st = s.ready.swap_remove(pos);
                        (st, checked_cost(self.cost.cost(self.sys, st), st))
                    }),
            };
            if let Some((st, c)) = pick {
                // Fallible conversion first: the successor's activation
                // instant `max(eligible, now + c)` is the only event this
                // dispatch pushes at a cost-dependent time.
                let conv = match self.sys.subtask(st).succ {
                    None => Some(None),
                    Some(succ) => self
                        .dom
                        .int(self.sys.subtask(succ).eligible)
                        .and_then(|e| self.dom.add_cost(now, c).map(|done| (e, done)))
                        .map(|(e, done)| Some((succ, e.max(done)))),
                };
                let Some(succ_at) = conv else {
                    return Err(Box::new(StagBail {
                        now: now_r,
                        rest: std::mem::take(boundaries),
                        idle: idle_procs,
                        pending: Some((st, c)),
                        state: migrate_stag(self.dom, s),
                    }));
                };
                boundaries.pop();
                let hold = now_r + Rat::ONE;
                s.placements.push(Placement {
                    st,
                    proc,
                    start: now_r,
                    cost: c,
                    holds_until: hold,
                });
                s.placed += 1;
                if O::ENABLED {
                    let sub = self.sys.subtask(st);
                    self.obs.on_event(&SchedEvent::QuantumStart {
                        id: sub.id,
                        proc,
                        start: now_r,
                        cost: c,
                        holds_until: hold,
                        deadline: sub.deadline,
                        bbit: sub.bbit,
                        group_deadline: sub.group_deadline,
                    });
                    s.pending_ends.push((now_r + c, proc, st, Rat::ONE - c));
                }
                if let Some((succ, at)) = succ_at {
                    s.events.push(Reverse((at, Event::Activate(succ))));
                    s.pending_activates += 1;
                }
            } else {
                boundaries.pop();
                idle_procs += 1;
            }
            // The processor re-examines the world at its next boundary
            // whether or not it scheduled anything.
            if s.placed < self.sys.num_subtasks() {
                s.events.push(Reverse((next_b, Event::Boundary(proc))));
            }
        }
        if O::ENABLED && idle_procs > 0 {
            self.obs.on_event(&SchedEvent::Idle {
                at: now_r,
                procs: idle_procs,
            });
        }
        Ok(())
    }
}

/// Simulates `sys` on `m` processors under the staggered-quantum model:
/// the driver behind [`Engine::Staggered`](crate::Engine::Staggered).
///
/// Processor `k` makes scheduling decisions at times `k/m, k/m + 1, …` and
/// holds whatever it schedules until its next boundary. Every emission
/// site is gated by the compile-time `O::ENABLED`. Picks the time tier like the DVQ driver: tick arithmetic at scale
/// `lcm(hint, m)` when available, exact rationals otherwise — migrating
/// tick → exact mid-run on the first unrepresentable value.
pub(crate) fn simulate_staggered<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    // Boundaries live on the 1/m grid, so fold m into the hint.
    let hint = cost
        .denominator_hint()
        .and_then(|d| checked_lcm(d, i64::from(m)));
    let scale = event_span(sys).and_then(|span| tick_scale(hint, span));
    let bail = if let Some(scale) = scale {
        let dom = TickTimes { scale };
        let state = seed_stag(&dom, sys, m);
        let mut fast = StagLoop {
            dom: &dom,
            sys,
            m,
            order,
            cost,
            obs,
        };
        match fast.run_stag_tier(state, None) {
            Ok(sched) => return sched,
            Err(bail) => Some(*bail),
        }
    } else {
        None
    };
    let dom = ExactTimes;
    let (state, resume) = match bail {
        Some(StagBail {
            now,
            rest,
            idle,
            pending,
            state,
        }) => (state, Some((now, rest, idle, pending))),
        None => (seed_stag(&dom, sys, m), None),
    };
    let mut exact = StagLoop {
        dom: &dom,
        sys,
        m,
        order,
        cost,
        obs,
    };
    match exact.run_stag_tier(state, resume) {
        Ok(sched) => sched,
        Err(_) => unreachable!("the exact time domain never bails"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_obs::NoopObserver;
    use pfair_taskmodel::release;

    use crate::cost::{ExactOnly, FullQuantum, ScaledCost};

    #[test]
    fn boundaries_are_staggered() {
        let sys = release::periodic(&[(1, 2), (1, 2), (1, 2), (1, 2)], 8);
        let sched = simulate_staggered(&sys, 4, &Pd2, &mut FullQuantum, &mut NoopObserver);
        for p in sched.placements() {
            // Every start time on processor k is ≡ k/4 (mod 1).
            assert_eq!(
                p.start.fract(),
                Rat::new(i64::from(p.proc), 4),
                "proc {} start {}",
                p.proc,
                p.start
            );
        }
    }

    #[test]
    fn non_work_conserving_waste() {
        let sys = release::periodic(&[(1, 1), (1, 1)], 4);
        let mut half = ScaledCost(Rat::new(1, 2));
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut half, &mut NoopObserver);
        for p in sched.placements() {
            assert_eq!(p.waste(), Rat::new(1, 2));
        }
    }

    #[test]
    fn single_processor_matches_sfq_timing() {
        // With m = 1 the stagger offset is 0 and boundaries are integral:
        // identical decisions to SFQ.
        let sys = release::periodic(&[(3, 4), (1, 2)], 8);
        let stag = simulate_staggered(&sys, 1, &Pd2, &mut FullQuantum, &mut NoopObserver);
        let sfq = crate::sfq::simulate_sfq(&sys, 1, &Pd2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(stag.start(st), sfq.start(st));
        }
    }

    #[test]
    fn respects_eligibility_at_fractional_boundaries() {
        // Processor 1 (boundary at 1/2) must not run a subtask eligible at
        // time 1 before time 1; its first chance is 3/2.
        let sys = release::periodic(&[(1, 2)], 4);
        // Subtask 2 of wt 1/2 has r = e = 2.
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum, &mut NoopObserver);
        for (st, s) in sys.iter_refs() {
            assert!(sched.start(st) >= Rat::int(s.eligible));
        }
    }

    #[test]
    fn all_subtasks_eventually_run() {
        let sys = release::periodic(&[(1, 3), (2, 5), (1, 2)], 30);
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum, &mut NoopObserver);
        assert_eq!(sched.placements().len(), sys.num_subtasks());
    }

    #[test]
    fn tick_times_match_exact_times() {
        // The same workload down both tiers: ScaledCost hints its
        // denominator (tick fast path at lcm(den, m)); ExactOnly withholds
        // it. Schedules must be identical, placement for placement.
        let sys = release::periodic(&[(1, 3), (2, 5), (1, 2)], 30);
        let costs = ScaledCost(Rat::new(3, 4));
        let fast = simulate_staggered(&sys, 3, &Pd2, &mut costs.clone(), &mut NoopObserver);
        let mut inner = costs;
        let exact =
            simulate_staggered(&sys, 3, &Pd2, &mut ExactOnly(&mut inner), &mut NoopObserver);
        assert_eq!(fast.placements(), exact.placements());
    }

    /// Lies about its grid: hints denominator 2 but emits a cost with
    /// denominator 7 on the `trip`-th draw, forcing a mid-batch bail.
    struct WrongHint {
        draws: usize,
        trip: usize,
    }

    impl CostModel for WrongHint {
        fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
            self.draws += 1;
            if self.draws == self.trip {
                Rat::new(2, 7)
            } else {
                Rat::new(1, 2)
            }
        }

        fn denominator_hint(&self) -> Option<i64> {
            Some(2)
        }
    }

    #[test]
    fn mid_run_migration_is_invisible() {
        // A wrong denominator hint costs performance only: the run bails
        // to exact arithmetic at the first off-grid cost and the schedule
        // is identical to an all-exact run of the same model.
        let sys = release::periodic(&[(1, 2), (1, 3), (2, 5)], 30);
        for trip in [1usize, 2, 5, 11] {
            let a = simulate_staggered(
                &sys,
                2,
                &Pd2,
                &mut WrongHint { draws: 0, trip },
                &mut NoopObserver,
            );
            let mut inner = WrongHint { draws: 0, trip };
            let b =
                simulate_staggered(&sys, 2, &Pd2, &mut ExactOnly(&mut inner), &mut NoopObserver);
            assert_eq!(a.placements(), b.placements(), "trip = {trip}");
        }
    }

    #[test]
    fn stuck_scheduler_panics_with_diagnostics() {
        // The liveness check must fire — with a diagnosable message — on
        // the state a lost Activate event would leave behind: nothing
        // ready, nothing pending, subtasks unplaced. (The public API cannot
        // reach this state precisely because the check guards every batch.)
        let err = std::panic::catch_unwind(|| {
            check_liveness(Rat::new(7, 2), 0, 0, 3, 5);
        })
        .expect_err("stuck state must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("stuck at 7/2"), "got: {msg}");
        assert!(msg.contains("3/5 subtasks"), "got: {msg}");
    }

    #[test]
    fn liveness_check_accepts_live_states() {
        // Ready work, a pending activation, or completion each keep the
        // driver alive; idle gaps between releases must not trip it.
        check_liveness(Rat::int(4), 1, 0, 3, 5);
        check_liveness(Rat::int(4), 0, 2, 3, 5);
        check_liveness(Rat::int(4), 0, 0, 5, 5);
        // End-to-end: a release gap (subtasks at r = 0 and r = 6) makes
        // every intermediate batch boundary-only; the run must still
        // complete rather than being misdiagnosed as stuck.
        let sys = release::periodic(&[(1, 6)], 12);
        let sched = simulate_staggered(&sys, 2, &Pd2, &mut FullQuantum, &mut NoopObserver);
        assert_eq!(sched.placements().len(), 2);
        let starts: Vec<i64> = sched.placements().iter().map(|p| p.start.floor()).collect();
        assert_eq!(starts, vec![0, 6]);
    }
}
