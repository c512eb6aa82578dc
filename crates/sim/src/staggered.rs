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
//! Like the DVQ loop, this driver keeps its events in a
//! [`pfair_numeric::EventQueue`] (`Proc(k)` is processor `k`'s quantum
//! boundary): when the cost model hints its denominator grid, event times
//! run as ticks at `lcm(hint, m)` (boundaries live on the `1/m` grid) and
//! switch losslessly to exact [`Rat`]s on the first instant that scale
//! cannot represent — see the `dvq` module docs.

use pfair_core::priority::PriorityOrder;
use pfair_numeric::{Event, EventQueue, QScale, Rat, Time};
use pfair_obs::{Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::emit::{flush_due, flush_ends, PendingEnd};
use crate::schedule::{Placement, QuantumModel, Schedule};

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

/// Simulates `sys` on `m` processors under the staggered-quantum model:
/// the driver behind [`Engine::Staggered`](crate::Engine::Staggered).
///
/// Processor `k` makes scheduling decisions at times `k/m, k/m + 1, …` and
/// holds whatever it schedules until its next boundary. Every emission
/// site is gated by the compile-time `O::ENABLED`.
pub(crate) fn simulate_staggered<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    let total = sys.num_subtasks();
    let scale = cost
        .denominator_hint()
        .and_then(|d| QScale::lcm_of([d, i64::from(m)]));
    let mut events = EventQueue::new(scale);
    // Every chain head activates at its eligibility time; processor `k`'s
    // first boundary is at `k/m`.
    let mut pending_activates = 0usize;
    for task in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            let at = events.int(sys.subtask(head).eligible);
            events.push(at, Event::Activate(head.0));
            pending_activates += 1;
        }
    }
    for k in 0..m {
        let at = events.at(Rat::new(i64::from(k), i64::from(m)));
        events.push(at, Event::Proc(k));
    }
    let mut ready: Vec<SubtaskRef> = Vec::with_capacity(sys.num_tasks());
    let mut placements: Vec<Placement> = Vec::with_capacity(total);
    // Quantum ends not yet announced (written only when observed).
    let mut pending_ends: Vec<PendingEnd> = Vec::new();
    // This instant's boundary-crossing processors, reused across slots
    // (descending, served by `pop()`).
    let mut boundaries: Vec<u32> = Vec::with_capacity(m as usize);

    while placements.len() < total {
        let Some((now, _)) = events.peek() else {
            // Boundary events re-arm themselves while work remains, so the
            // queue can only drain if this driver lost one — abort loudly
            // (also in release builds) rather than looping forever.
            panic!(
                "staggered event queue drained with only {placed}/{total} subtasks \
                 placed: a Boundary/Activate event was lost",
                placed = placements.len()
            );
        };
        let now_r = events.rat(now);
        if O::ENABLED {
            flush_due(sys, &mut pending_ends, now_r, obs);
            obs.on_event(&SchedEvent::Tick { at: now_r });
        }
        while let Some(ev) = events.pop_at(now) {
            match ev {
                Event::Proc(k) => boundaries.push(k),
                Event::Activate(id) => {
                    let st = SubtaskRef(id);
                    pending_activates -= 1;
                    if O::ENABLED {
                        let sub = sys.subtask(st);
                        let cause = if now_r == Rat::int(sub.eligible) {
                            ReadyCause::Eligibility
                        } else {
                            ReadyCause::Predecessor
                        };
                        obs.on_event(&SchedEvent::Ready {
                            id: sub.id,
                            at: now_r,
                            cause,
                        });
                    }
                    ready.push(st);
                }
            }
        }
        // Descending, so `pop()` serves processors in ascending order.
        boundaries.sort_unstable_by(|a, b| b.cmp(a));
        // Every served boundary re-arms at `now + 1`, and every placement
        // holds until then.
        let next_b = events.after(now, Rat::ONE);
        let hold = now_r + Rat::ONE;
        let mut idle_procs = 0u32;
        while let Some(proc) = boundaries.pop() {
            let best = ready
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| order.cmp(sys, a, b))
                .map(|(pos, _)| pos);
            if let Some(pos) = best {
                let st = ready.swap_remove(pos);
                let c = checked_cost(cost.cost(sys, st), st);
                placements.push(Placement {
                    st,
                    proc,
                    start: now_r,
                    cost: c,
                    holds_until: hold,
                });
                if O::ENABLED {
                    let sub = sys.subtask(st);
                    obs.on_event(&SchedEvent::QuantumStart {
                        id: sub.id,
                        proc,
                        start: now_r,
                        cost: c,
                        holds_until: hold,
                        deadline: sub.deadline,
                        bbit: sub.bbit,
                        group_deadline: sub.group_deadline,
                    });
                    pending_ends.push((now_r + c, proc, st, Rat::ONE - c));
                }
                // The successor activates at `max(eligible, now + c)`.
                if let Some(succ) = sys.subtask(st).succ {
                    let done = events.after(now, c);
                    let at = events.ready_at(sys.subtask(succ).eligible, done);
                    events.push(at, Event::Activate(succ.0));
                    pending_activates += 1;
                }
            } else {
                idle_procs += 1;
            }
            // The processor re-examines the world at its next boundary
            // whether or not it scheduled anything.
            if placements.len() < total {
                events.push(next_b, Event::Proc(proc));
            }
        }
        if O::ENABLED && idle_procs > 0 {
            obs.on_event(&SchedEvent::Idle {
                at: now_r,
                procs: idle_procs,
            });
        }
        check_liveness(
            now_r,
            ready.len(),
            pending_activates,
            placements.len(),
            total,
        );
    }

    if O::ENABLED {
        flush_ends(sys, &mut pending_ends, obs);
    }

    Schedule::new(sys, QuantumModel::Staggered, m, placements)
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
