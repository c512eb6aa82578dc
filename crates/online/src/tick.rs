//! A tick-driven online scheduler — the SFQ model as an OS kernel would
//! host it.
//!
//! Where [`crate::OnlineDvq`] is event-driven (the DVQ model),
//! [`OnlineSfq`] matches the classical integration: a periodic timer
//! interrupt fires at every slot boundary, the kernel calls
//! [`OnlineSfq::tick`], and the scheduler answers with the ≤ M subtasks to
//! run for the next quantum. Early completions within the slot are simply
//! not reported — the SFQ model holds each processor to the boundary, so
//! the scheduler needs no mid-slot upcalls at all (that simplicity is
//! exactly what the paper's §1 trades against the wasted yield tails).
//!
//! Dispatch order within a tick is PD² via the same [`Pd2Key`] heap as the
//! DVQ scheduler; equivalence with the offline SFQ simulator is asserted
//! in this module's tests.
//!
//! The ready set is maintained *incrementally*: each task with queued work
//! has exactly one entry in either the priority-ordered `ready` heap or
//! the time-ordered `pending` heap (armed at the first slot where both its
//! eligibility and predecessor gates open). A tick drains due `pending`
//! entries and pops ≤ M from `ready` — `O((M + arrivals) log n)` per slot
//! instead of the previous `O(n)` rescan of every registered task.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pfair_core::key::Pd2Key;
use pfair_numeric::Rat;
use pfair_obs::{NoopObserver, Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::window;
use pfair_taskmodel::{SubtaskId, TaskId, Weight};

use crate::scheduler::OnlineError;

/// A subtask handed out by [`OnlineSfq::tick`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TickAssignment {
    /// The task.
    pub task: TaskId,
    /// The subtask index.
    pub index: u64,
    /// Processor (decision order, `0..M`).
    pub proc: u32,
    /// The subtask's pseudo-deadline.
    pub deadline: i64,
}

#[derive(Clone, Debug)]
struct SubSpec {
    index: u64,
    eligible: i64,
    deadline: i64,
    key: Pd2Key,
}

#[derive(Clone, Debug)]
struct TaskState {
    weight: Weight,
    jobs: u64,
    last_release: Option<i64>,
    queue: VecDeque<SubSpec>,
    /// Slot in which the task's most recent subtask ran (`None` if idle);
    /// the successor is ready from the *next* slot on.
    running_slot: Option<i64>,
}

/// Tick-driven online SFQ scheduler (PD² priorities).
#[derive(Debug)]
pub struct OnlineSfq {
    m: u32,
    /// The next slot boundary [`Self::tick`] expects.
    next_slot: i64,
    tasks: Vec<TaskState>,
    /// Heads whose gates are open, by PD² priority. Invariant: every task
    /// with a nonempty queue has exactly one entry in `ready` ∪ `pending`.
    ready: BinaryHeap<Reverse<(Pd2Key, u32)>>,
    /// Heads gated until a future slot: `(first open slot, task)`.
    pending: BinaryHeap<Reverse<(i64, u32)>>,
}

impl OnlineSfq {
    /// A scheduler over `m ≥ 1` processors; the first tick is slot 0.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: u32) -> OnlineSfq {
        assert!(m >= 1, "need at least one processor");
        OnlineSfq {
            m,
            next_slot: 0,
            tasks: Vec::new(),
            ready: BinaryHeap::new(),
            pending: BinaryHeap::new(),
        }
    }

    /// Registers a task.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskState {
            weight,
            jobs: 0,
            last_release: None,
            queue: VecDeque::new(),
            running_slot: None,
        });
        id
    }

    /// The next slot boundary `tick` will serve.
    #[must_use]
    pub fn next_slot(&self) -> i64 {
        self.next_slot
    }

    /// Submits the next job of `task`, released at slot `at` (sporadic
    /// separation enforced; must not precede the next tick).
    ///
    /// # Errors
    /// [`OnlineError`] on separation/past/unknown-task violations.
    pub fn submit_job(&mut self, task: TaskId, at: i64) -> Result<(), OnlineError> {
        self.submit_job_observed(task, at, &mut NoopObserver)
    }

    /// [`Self::submit_job`] with a streaming [`Observer`] attached: emits a
    /// [`SchedEvent::Released`] for every subtask the job contributes.
    ///
    /// # Errors
    /// [`OnlineError`] on separation/past/unknown-task violations.
    pub fn submit_job_observed<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        obs: &mut O,
    ) -> Result<(), OnlineError> {
        let state = self
            .tasks
            .get_mut(task.idx())
            .ok_or(OnlineError::UnknownTask)?;
        if let Some(prev) = state.last_release {
            let earliest = prev + state.weight.p();
            if at < earliest {
                return Err(OnlineError::TooEarly {
                    earliest,
                    requested: at,
                });
            }
        }
        if at < self.next_slot {
            return Err(OnlineError::InThePast {
                now: pfair_numeric::Rat::int(self.next_slot),
                requested: at,
            });
        }
        let w = state.weight;
        let theta = at - i64::try_from(state.jobs).expect("job count") * w.p();
        let first = state.jobs * w.e() as u64 + 1;
        let was_empty = state.queue.is_empty();
        for index in first..first + w.e() as u64 {
            let r = theta + window::release(w, index);
            if O::ENABLED {
                obs.on_event(&SchedEvent::Released {
                    id: SubtaskId { task, index },
                    at: r,
                });
            }
            state.queue.push_back(SubSpec {
                index,
                eligible: r,
                deadline: theta + window::deadline(w, index),
                key: Pd2Key::of(w, SubtaskId { task, index }, index, theta),
            });
        }
        state.jobs += 1;
        state.last_release = Some(at);
        if was_empty {
            // The task rejoins the ready graph: arm its new head at the
            // first slot where both gates open. (The predecessor gate is
            // vacuous here — submission can't predate `next_slot`, which
            // is already past any prior `running_slot` — but keeping it
            // makes the invariant locally checkable.)
            let head = state.queue.front().expect("job contributes subtasks");
            let open = head
                .eligible
                .max(state.running_slot.map_or(i64::MIN, |s| s + 1));
            self.pending.push(Reverse((open, task.0)));
        }
        Ok(())
    }

    /// The timer interrupt: decides slot `self.next_slot()` and returns
    /// the ≤ M subtasks to run, in decision (processor) order.
    pub fn tick(&mut self) -> Vec<TickAssignment> {
        self.tick_observed(&mut NoopObserver)
    }

    /// [`Self::tick`] with a streaming [`Observer`] attached. With
    /// [`NoopObserver`] this monomorphizes to exactly [`Self::tick`]'s code
    /// (every emission site is gated by the compile-time `O::ENABLED`).
    /// Each dispatched quantum's end and deadline verdict are emitted
    /// within the same tick — under the SFQ model the quantum provably
    /// holds its processor to the boundary at `t + 1`, so nothing about it
    /// remains unknown at decision time.
    pub fn tick_observed<O: Observer>(&mut self, obs: &mut O) -> Vec<TickAssignment> {
        let t = self.next_slot;
        self.next_slot += 1;
        if O::ENABLED {
            obs.on_event(&SchedEvent::Tick { at: Rat::int(t) });
        }
        // Open the gates that reach this slot: due `pending` heads move to
        // the `ready` heap. The heap orders `(slot, task)`, so at a given
        // slot tasks surface in ascending id — the same announcement order
        // the previous full rescan produced.
        while let Some(&Reverse((open, task_raw))) = self.pending.peek() {
            if open > t {
                break;
            }
            self.pending.pop();
            let head = self.tasks[task_raw as usize]
                .queue
                .front()
                .expect("pending task has a queued head");
            if O::ENABLED {
                // First slot at which both gates open: eligibility if that
                // is the binding one, otherwise the predecessor's boundary.
                let cause = if t == head.eligible {
                    ReadyCause::Eligibility
                } else {
                    ReadyCause::Predecessor
                };
                obs.on_event(&SchedEvent::Ready {
                    id: head.key.id,
                    at: Rat::int(t),
                    cause,
                });
            }
            self.ready.push(Reverse((head.key, task_raw)));
        }
        let mut out = Vec::new();
        for proc in 0..self.m {
            let Some(Reverse((_, task_raw))) = self.ready.pop() else {
                break;
            };
            let state = &mut self.tasks[task_raw as usize];
            let spec = state.queue.pop_front().expect("head present");
            state.running_slot = Some(t);
            // Re-arm the successor (if any): eligible and past this
            // quantum's boundary.
            let rearm = state.queue.front().map(|next| next.eligible.max(t + 1));
            if let Some(open) = rearm {
                self.pending.push(Reverse((open, task_raw)));
            }
            if O::ENABLED {
                obs.on_event(&SchedEvent::QuantumStart {
                    id: spec.key.id,
                    proc,
                    start: Rat::int(t),
                    cost: Rat::ONE,
                    holds_until: Rat::int(t + 1),
                    deadline: spec.deadline,
                    bbit: spec.key.bbit,
                    group_deadline: spec.key.group_deadline,
                });
            }
            out.push(TickAssignment {
                task: TaskId(task_raw),
                index: spec.index,
                proc,
                deadline: spec.deadline,
            });
        }
        if O::ENABLED {
            let idle = self.m - out.len() as u32;
            if idle > 0 {
                obs.on_event(&SchedEvent::Idle {
                    at: Rat::int(t),
                    procs: idle,
                });
            }
            // Quantum ends at the boundary t + 1, before the next Tick.
            for a in &out {
                let id = SubtaskId {
                    task: a.task,
                    index: a.index,
                };
                let completion = Rat::int(t + 1);
                obs.on_event(&SchedEvent::QuantumEnd {
                    id,
                    proc: a.proc,
                    completion,
                    deadline: a.deadline,
                    waste: Rat::ZERO,
                });
                if completion > Rat::int(a.deadline) {
                    obs.on_event(&SchedEvent::DeadlineMiss {
                        id,
                        completion,
                        deadline: a.deadline,
                        tardiness: completion - Rat::int(a.deadline),
                    });
                } else {
                    obs.on_event(&SchedEvent::DeadlineHit {
                        id,
                        completion,
                        deadline: a.deadline,
                    });
                }
            }
        }
        out
    }

    /// `true` iff no submitted work remains.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.tasks.iter().all(|t| t.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_numeric::Rat;
    use pfair_sim::{simulate_sfq, FullQuantum};
    use pfair_taskmodel::TaskSystemBuilder;

    /// Drive both the tick scheduler and the offline SFQ simulator on the
    /// same periodic workload; their decisions must match slot for slot.
    #[test]
    fn tick_matches_offline_sfq() {
        let weights = [
            Weight::new(1, 6),
            Weight::new(1, 6),
            Weight::new(1, 6),
            Weight::new(1, 2),
            Weight::new(1, 2),
            Weight::new(1, 2),
        ];
        let jobs = 2u64;

        let mut s = OnlineSfq::new(2);
        let ids: Vec<TaskId> = weights.iter().map(|&w| s.add_task(w)).collect();
        for (&t, &w) in ids.iter().zip(&weights) {
            for j in 0..jobs {
                s.submit_job(t, j as i64 * w.p()).unwrap();
            }
        }

        let mut b = TaskSystemBuilder::new();
        for &w in &weights {
            let t = b.add_task(w);
            for i in 1..=jobs * w.e() as u64 {
                b.push(t, i, 0, None).unwrap();
            }
        }
        let sys = b.build();
        let offline = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);

        let mut ticked = 0usize;
        while !s.is_idle() {
            let slot = s.next_slot();
            for a in s.tick() {
                let st = sys
                    .find(SubtaskId {
                        task: a.task,
                        index: a.index,
                    })
                    .unwrap();
                assert_eq!(
                    offline.start(st),
                    Rat::int(slot),
                    "T{}_{}",
                    a.task.0,
                    a.index
                );
                assert_eq!(offline.placement(st).proc, a.proc);
                ticked += 1;
            }
        }
        assert_eq!(ticked, sys.num_subtasks());
    }

    #[test]
    fn deadlines_met_at_full_utilization() {
        let mut s = OnlineSfq::new(2);
        let ids: Vec<(TaskId, Weight)> = [(1i64, 2i64); 4]
            .iter()
            .map(|&(e, p)| {
                let w = Weight::new(e, p);
                (s.add_task(w), w)
            })
            .collect();
        for j in 0..10i64 {
            for &(t, w) in &ids {
                s.submit_job(t, j * w.p()).unwrap();
            }
        }
        while !s.is_idle() {
            let slot = s.next_slot();
            for a in s.tick() {
                // Running in slot t completes at t + 1 ≤ deadline.
                assert!(slot < a.deadline, "{a:?} late at slot {slot}");
            }
        }
    }

    #[test]
    fn empty_ticks_are_fine() {
        let mut s = OnlineSfq::new(2);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 3).unwrap();
        assert!(s.tick().is_empty()); // slot 0
        assert!(s.tick().is_empty()); // slot 1
        assert!(s.tick().is_empty()); // slot 2
        let a = s.tick(); // slot 3
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].index, 1);
    }

    #[test]
    fn submission_rules_enforced() {
        let mut s = OnlineSfq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        assert!(matches!(
            s.submit_job(t, 1),
            Err(OnlineError::TooEarly { .. })
        ));
        let _ = s.tick();
        let _ = s.tick();
        let _ = s.tick(); // next slot is now 3
        assert!(matches!(
            s.submit_job(t, 2), // separation OK (≥ 0 + 2), but in the past
            Err(OnlineError::InThePast { .. })
        ));
    }
}
