//! Schedule validity checks.
//!
//! Two notions, deliberately separated:
//!
//! * [`check_structural`] — invariants every model must respect, tardy or
//!   not: a processor runs one subtask at a time; a subtask never starts
//!   before its eligibility time or before its predecessor completes (no
//!   intra-task parallelism, §2); under SFQ, at most `M` subtasks per slot
//!   and integral commencement times.
//! * [`check_window_containment`] — the classical Pfair validity criterion
//!   ("each subtask must be scheduled within its window", §2): every
//!   subtask completes by its pseudo-deadline. PD² under SFQ satisfies it
//!   for every feasible system; DVQ schedules may violate it by design —
//!   that violation, bounded by one quantum, is the paper's subject.

use core::fmt;

use pfair_numeric::{Rat, Time};
use pfair_sim::{Placement, QuantumModel, Schedule};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

/// A violated schedule invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidityError {
    /// A subtask was placed on a processor outside `0..m`.
    ProcessorOutOfRange {
        /// The subtask.
        st: SubtaskRef,
        /// The processor it was placed on.
        proc: u32,
    },
    /// Two quanta overlap on one processor.
    ProcessorOverlap {
        /// The processor.
        proc: u32,
        /// Earlier subtask.
        first: SubtaskRef,
        /// Overlapping later subtask.
        second: SubtaskRef,
    },
    /// A subtask commenced before its eligibility time.
    BeforeEligibility {
        /// The subtask.
        st: SubtaskRef,
        /// Its commencement time.
        start: Time,
        /// Its eligibility time.
        eligible: i64,
    },
    /// A subtask commenced before its predecessor completed.
    BeforePredecessor {
        /// The subtask.
        st: SubtaskRef,
        /// Its commencement time.
        start: Time,
        /// Predecessor completion time.
        pred_completion: Time,
    },
    /// An SFQ/staggered schedule placed more than `M` subtasks in one slot.
    TooManyInSlot {
        /// The slot.
        slot: i64,
        /// How many were found.
        count: usize,
    },
    /// An SFQ schedule contains a non-integral commencement time.
    NonIntegralStart {
        /// The subtask.
        st: SubtaskRef,
        /// Its commencement time.
        start: Time,
    },
    /// A subtask completed after its pseudo-deadline (window containment).
    DeadlineMiss {
        /// The subtask.
        st: SubtaskRef,
        /// Its completion time.
        completion: Time,
        /// Its pseudo-deadline.
        deadline: i64,
    },
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::ProcessorOutOfRange { st, proc } => {
                write!(
                    f,
                    "{st:?} placed on processor {proc}, outside the schedule's processors"
                )
            }
            ValidityError::ProcessorOverlap {
                proc,
                first,
                second,
            } => {
                write!(f, "processor {proc}: {first:?} and {second:?} overlap")
            }
            ValidityError::BeforeEligibility {
                st,
                start,
                eligible,
            } => {
                write!(f, "{st:?} starts at {start} before eligibility {eligible}")
            }
            ValidityError::BeforePredecessor {
                st,
                start,
                pred_completion,
            } => write!(
                f,
                "{st:?} starts at {start} before predecessor completes at {pred_completion}"
            ),
            ValidityError::TooManyInSlot { slot, count } => {
                write!(f, "slot {slot}: {count} subtasks exceed processor count")
            }
            ValidityError::NonIntegralStart { st, start } => {
                write!(
                    f,
                    "{st:?} starts at non-integral {start} in an SFQ schedule"
                )
            }
            ValidityError::DeadlineMiss {
                st,
                completion,
                deadline,
            } => write!(
                f,
                "{st:?} completes at {completion} after deadline {deadline}"
            ),
        }
    }
}

impl std::error::Error for ValidityError {}

/// Checks the structural invariants; returns every violation found.
#[must_use]
pub fn check_structural(sys: &TaskSystem, sched: &Schedule) -> Vec<ValidityError> {
    let mut errors = Vec::new();

    // Per-processor exclusivity in one pass over the start-sorted
    // placements, remembering the last quantum seen on each processor.
    // Overlaps are reported grouped by processor (ascending), in time order
    // within each: the stable sort keeps the pass's time order.
    let mut last: Vec<Option<&Placement>> = vec![None; sched.m() as usize];
    let mut overlaps = Vec::new();
    for p in sched.placements() {
        let Some(prev) = last.get_mut(p.proc as usize) else {
            errors.push(ValidityError::ProcessorOutOfRange {
                st: p.st,
                proc: p.proc,
            });
            continue;
        };
        if let Some(q) = *prev {
            if p.start < q.holds_until.max(q.completion()) {
                overlaps.push((p.proc, q.st, p.st));
            }
        }
        *prev = Some(p);
    }
    overlaps.sort_by_key(|&(proc, _, _)| proc);
    errors.extend(overlaps.into_iter().map(|(proc, first, second)| {
        ValidityError::ProcessorOverlap {
            proc,
            first,
            second,
        }
    }));

    for (st, s) in sys.iter_refs() {
        let start = sched.start(st);
        if start < Rat::int(s.eligible) {
            errors.push(ValidityError::BeforeEligibility {
                st,
                start,
                eligible: s.eligible,
            });
        }
        if let Some(pred) = s.pred {
            let pc = sched.completion(pred);
            if start < pc {
                errors.push(ValidityError::BeforePredecessor {
                    st,
                    start,
                    pred_completion: pc,
                });
            }
        }
    }

    if sched.model() == QuantumModel::Sfq {
        // ≤ M per slot (placements have unit holds, so count by start
        // slot). Placements are sorted by start, so each slot's placements
        // are one run and the runs come in ascending slot order.
        let mut over = Vec::new();
        for run in sched
            .placements()
            .chunk_by(|a, b| a.start.floor() == b.start.floor())
        {
            for p in run.iter().filter(|p| !p.start.is_integer()) {
                errors.push(ValidityError::NonIntegralStart {
                    st: p.st,
                    start: p.start,
                });
            }
            if run.len() > sched.m() as usize {
                over.push(ValidityError::TooManyInSlot {
                    slot: run[0].start.floor(),
                    count: run.len(),
                });
            }
        }
        errors.extend(over);
    }

    errors
}

/// Checks the classical Pfair validity criterion: every subtask completes
/// by its pseudo-deadline. Returns the violations (deadline misses).
#[must_use]
pub fn check_window_containment(sys: &TaskSystem, sched: &Schedule) -> Vec<ValidityError> {
    let mut errors = Vec::new();
    for (st, s) in sys.iter_refs() {
        let completion = sched.completion(st);
        if completion > Rat::int(s.deadline) {
            errors.push(ValidityError::DeadlineMiss {
                st,
                completion,
                deadline: s.deadline,
            });
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::{Epdf, Pd2};
    use pfair_sim::{
        run, simulate_dvq, simulate_sfq, Engine, FixedCosts, FullQuantum, NoopObserver,
    };
    use pfair_taskmodel::{release, TaskId};

    fn fig2_system() -> TaskSystem {
        release::periodic_named(
            &[
                ("A", 1, 6),
                ("B", 1, 6),
                ("C", 1, 6),
                ("D", 1, 2),
                ("E", 1, 2),
                ("F", 1, 2),
            ],
            6,
        )
    }

    #[test]
    fn sfq_pd2_fully_valid() {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        assert!(check_structural(&sys, &sched).is_empty());
        assert!(check_window_containment(&sys, &sched).is_empty());
    }

    #[test]
    fn dvq_structurally_valid_but_misses() {
        let sys = fig2_system();
        let delta = Rat::new(1, 8);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        assert!(check_structural(&sys, &sched).is_empty());
        let misses = check_window_containment(&sys, &sched);
        assert_eq!(misses.len(), 1);
        assert!(matches!(misses[0], ValidityError::DeadlineMiss { .. }));
    }

    #[test]
    fn staggered_structurally_valid() {
        let sys = fig2_system();
        let sched = run(
            Engine::Staggered(&Pd2),
            &sys,
            2,
            &mut FullQuantum,
            &mut NoopObserver,
        );
        assert!(check_structural(&sys, &sched).is_empty());
    }

    #[test]
    fn epdf_on_two_processors_meets_deadlines_here() {
        // EPDF is optimal on ≤ 2 processors (Anderson & Srinivasan); this
        // instance is on 2.
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Epdf, &mut FullQuantum);
        assert!(check_window_containment(&sys, &sched).is_empty());
    }

    /// The Fig. 2 subtasks placed by hand on two processors, one slot per
    /// entry of `slots` with the processor from `procs`, full quanta:
    /// slots 0 and 5 hold three subtasks each, processor 1 is doubled in
    /// slot 0 and processor 0 in slot 5.
    fn overfull_sfq_schedule(sys: &TaskSystem) -> Schedule {
        let slots = [0, 0, 0, 1, 2, 2, 3, 3, 4, 5, 5, 5];
        let procs = [1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1];
        let placements = sys
            .iter_refs()
            .zip(slots.iter().zip(&procs))
            .map(|((st, _), (&slot, &proc))| Placement {
                st,
                proc,
                start: Rat::int(slot),
                cost: Rat::ONE,
                holds_until: Rat::int(slot + 1),
            })
            .collect();
        Schedule::new(sys, QuantumModel::Sfq, 2, placements)
    }

    #[test]
    fn too_many_in_slot_errors_come_back_in_slot_order() {
        let sys = fig2_system();
        let sched = overfull_sfq_schedule(&sys);
        let over: Vec<_> = check_structural(&sys, &sched)
            .into_iter()
            .filter(|e| matches!(e, ValidityError::TooManyInSlot { .. }))
            .collect();
        assert_eq!(
            over,
            vec![
                ValidityError::TooManyInSlot { slot: 0, count: 3 },
                ValidityError::TooManyInSlot { slot: 5, count: 3 },
            ]
        );
    }

    #[test]
    fn overlaps_grouped_by_processor_in_time_order() {
        let sys = fig2_system();
        let sched = overfull_sfq_schedule(&sys);
        let overlaps: Vec<_> = check_structural(&sys, &sched)
            .into_iter()
            .filter(|e| matches!(e, ValidityError::ProcessorOverlap { .. }))
            .collect();
        // The per-processor scan the single pass replaces.
        let mut want = Vec::new();
        for proc in 0..sched.m() {
            let on_proc: Vec<_> = sched.on_processor(proc).collect();
            for pair in on_proc.windows(2) {
                if pair[1].start < pair[0].holds_until.max(pair[0].completion()) {
                    want.push(ValidityError::ProcessorOverlap {
                        proc,
                        first: pair[0].st,
                        second: pair[1].st,
                    });
                }
            }
        }
        // Processor 0's overlap (slot 5) precedes processor 1's (slot 0).
        assert_eq!(overlaps.len(), 2);
        assert!(matches!(
            overlaps[0],
            ValidityError::ProcessorOverlap { proc: 0, .. }
        ));
        assert_eq!(overlaps, want);
    }

    #[test]
    fn placements_off_the_processor_range_are_reported() {
        // A valid PD²-SFQ schedule moved onto processor 7 of 2: every
        // placement is out of range, and nothing else is wrong with it.
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let moved = sched
            .placements()
            .iter()
            .map(|p| Placement { proc: 7, ..*p })
            .collect();
        let moved = Schedule::new(&sys, QuantumModel::Sfq, 2, moved);
        let errors = check_structural(&sys, &moved);
        assert_eq!(errors.len(), sys.num_subtasks());
        for (e, p) in errors.iter().zip(moved.placements()) {
            assert_eq!(*e, ValidityError::ProcessorOutOfRange { st: p.st, proc: 7 });
        }
        let msg = errors[0].to_string();
        assert!(msg.contains("processor 7"), "{msg}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidityError::DeadlineMiss {
            st: SubtaskRef(3),
            completion: Rat::new(9, 2),
            deadline: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("st#3") && msg.contains("9/2") && msg.contains('4'));
    }
}
