//! The deterministic dispatch core behind the delegation lock.
//!
//! [`DispatchCore`] is the single-threaded heart of the runtime: whichever
//! worker holds the combiner role drains the request slots and drives it.
//! It is a thin wrapper around the online PD²-DVQ kernel,
//! [`pfair_online::OnlineDvq`], run under the request's [`Mode`]:
//!
//! * **[`Mode::Deterministic`]** queues completions and gates each on its
//!   worker's report ([`DispatchCore::mark_done`]), stalling
//!   ([`Status::Stalled`]) until it arrives. Events are handled in exactly
//!   `OnlineDvq`'s order whatever the thread interleaving — a logical-time
//!   barrier — so the schedule is bit-identical to the single-threaded
//!   reference (proof obligation (a)).
//! * **[`Mode::FreeRunning`]** applies completions as workers deliver them
//!   ([`DispatchCore::complete_unordered`]) at `max(now, completion)`. The
//!   schedule depends on the interleaving; each run is proven by replaying
//!   its event stream through the conformance bank (proof obligation (b)).
//!
//! The wrapper adds the report gate, a cross-check of every submission
//! against its [`TaskSystem`], the seeded jitter costs, the event recorder,
//! and two planted faults: a stale key supplied at submission and a
//! recorder that tears dispatch batches.
//!
//! This module is the *deterministic half* of the crate: it must contain no
//! wall-clock, thread, or entropy use at all (`pfair-lint`'s
//! `no-nondeterminism` rule covers `crates/runtime` with no allows in this
//! file). Everything nondeterministic lives in [`crate::exec`] behind
//! justified allows.

use pfair_core::key::{Pd2Key, SubtaskKey};
use pfair_numeric::Time;
use pfair_obs::{Observer, SchedEvent};
use pfair_online::{Mode, OnlineAssignment, OnlineDvq};
use pfair_taskmodel::{window, SubtaskRef, TaskId, TaskSystem};

use crate::jitter::{quantum_cost, JitterRegime};

/// A planted concurrency fault, for proving the replay harness is
/// load-bearing. `FaultPlan::None` is the production configuration; the
/// other variants are the mutants `crates/conformance` catalogues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// No fault: correct runtime.
    None,
    /// The dispatch batch is published torn: every entry after the first
    /// in a multi-assignment batch is recorded with the *previous* entry's
    /// processor, as a racing reader of a non-atomic batch would see it.
    /// Execution itself stays correct — only the event stream tears.
    TornDispatchBatch,
    /// The combiner loses the first completion request it drains: the
    /// classic lost-wakeup, leaving the dispatch core waiting forever for
    /// a quantum that already finished.
    LostWakeupCombiner,
    /// Ready subtasks are keyed from the previous subtask's key (a stale
    /// read), silently reordering PD² dispatch.
    StaleKeyCacheRead,
}

/// A request published into a delegation-lock slot.
#[derive(Clone, Copy, Debug)]
pub enum Request {
    /// A job arrival: release the next job of `task` at time `at`.
    Submit {
        /// The task.
        task: TaskId,
        /// The (integral) release time.
        at: i64,
    },
    /// All arrivals are in; event processing may begin.
    Begin,
    /// Worker `proc` finished executing its current quantum (a completion
    /// when the full quantum was used, a δ-yield when it finished early).
    Done {
        /// The reporting processor.
        proc: u32,
    },
}

/// What [`DispatchCore::advance`] ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Every released subtask has been dispatched and logically completed.
    Done,
    /// Deterministic mode: the next logical event is a completion whose
    /// worker has not physically reported yet.
    Stalled,
    /// Free-running mode: nothing to do until a worker reports done.
    Idle,
}

/// The dispatch state machine the combiner drives.
#[derive(Debug)]
pub struct DispatchCore {
    sys: TaskSystem,
    kernel: OnlineDvq,
    fault: FaultPlan,
    seed: u64,
    regime: JitterRegime,
    started: bool,
    /// Deterministic mode: has the worker physically reported the quantum
    /// in flight on this processor?
    reported: Vec<bool>,
    /// Log entries already handed out by [`Self::take_assignments`].
    taken: usize,
    obs: Recorder,
}

impl DispatchCore {
    /// A core over `m ≥ 1` virtual processors for `sys`, whose subtasks
    /// must cover exactly the jobs later submitted. Costs are drawn from
    /// [`quantum_cost`] with `(seed, regime)`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(
        sys: TaskSystem,
        m: u32,
        seed: u64,
        regime: JitterRegime,
        mode: Mode,
        fault: FaultPlan,
    ) -> DispatchCore {
        let mut kernel = OnlineDvq::new(m).in_mode(mode);
        for t in sys.tasks() {
            kernel.add_task(t.weight);
        }
        DispatchCore {
            sys,
            kernel,
            fault,
            seed,
            regime,
            started: false,
            reported: vec![false; m as usize],
            taken: 0,
            obs: Recorder {
                events: Vec::new(),
                tear: fault == FaultPlan::TornDispatchBatch,
                prev_proc: None,
            },
        }
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.kernel.mode()
    }

    /// The number of virtual processors.
    #[must_use]
    pub fn num_procs(&self) -> u32 {
        self.kernel.num_processors()
    }

    /// Submits the next job of `task`, released at `at` — the `Submit`
    /// request handler. Every subtask the kernel derives is cross-checked
    /// against the owned [`TaskSystem`], so replay judges the schedule
    /// against exactly the windows it was dispatched by.
    ///
    /// # Panics
    /// The driver controls submissions, so violations (sporadic separation,
    /// submission after [`Self::begin`], a job the system never released)
    /// are bugs and panic with the broken invariant.
    pub fn submit(&mut self, task: TaskId, at: i64) {
        assert!(
            !self.started,
            "all arrivals must be published before Begin (T{} at {at})",
            task.0
        );
        let (sys, fault) = (&self.sys, self.fault);
        let mut key = |id, fresh| {
            let st = sys
                .find(id)
                .unwrap_or_else(|| panic!("{id:?} submitted but not in the system"));
            let s = sys.subtask(st);
            assert!(
                Pd2Key::of_subtask(sys, st) == fresh
                    && s.eligible == s.theta + window::release(sys.task(id.task).weight, id.index),
                "system subtask {id:?} disagrees with the submission plan (theta {})",
                s.theta
            );
            dispatch_key(sys, fault, st)
        };
        self.kernel
            .submit_job_keyed(task, at, &mut key, &mut self.obs)
            .unwrap_or_else(|e| panic!("T{} at {at}: {e}", task.0));
    }

    /// The `Begin` request handler: arrivals are complete, event
    /// processing may start. Before this, [`Self::advance`] refuses to run
    /// so that partially-published arrival batches can never dispatch —
    /// the same "all submissions precede the run" contract `OnlineDvq`
    /// callers follow.
    pub fn begin(&mut self) {
        self.started = true;
    }

    /// Deterministic mode: worker `proc` physically finished its quantum.
    pub fn mark_done(&mut self, proc: u32) {
        assert!(
            self.mode() == Mode::Deterministic,
            "mark_done is the deterministic-mode completion path"
        );
        assert!(
            self.kernel.in_flight(proc).is_some(),
            "processor {proc} reported done while idle"
        );
        self.reported[proc as usize] = true;
    }

    /// The logical completion time of the quantum in flight on `proc` —
    /// the combiner sorts a batch of `Done`s by this before applying them
    /// in free-running mode, so physical timing only reorders across
    /// batches, never within one.
    #[must_use]
    pub fn completion_of(&self, proc: u32) -> Time {
        self.kernel
            .in_flight(proc)
            .expect("queried completion of an idle processor")
    }

    /// Free-running mode: apply worker `proc`'s completion now, at logical
    /// time `max(now, completion)` — see
    /// [`OnlineDvq::complete_observed`].
    pub fn complete_unordered(&mut self, proc: u32) {
        let (seed, regime) = (self.seed, self.regime);
        self.kernel.complete_observed(
            proc,
            &mut |task, index| quantum_cost(seed, regime, task, index),
            &mut self.obs,
        );
    }

    /// Processes logical events until input is needed: a physical
    /// completion (both modes) or, deterministic mode, the specific worker
    /// the next completion waits on. Dispatch decisions land in the
    /// pending-assignment buffer ([`Self::take_assignments`]).
    pub fn advance(&mut self) -> Status {
        if !self.started {
            return Status::Idle;
        }
        let (seed, regime, reported) = (self.seed, self.regime, &mut self.reported);
        let waiting = self.kernel.advance_observed(
            &mut |proc| std::mem::take(&mut reported[proc as usize]),
            &mut |task, index| quantum_cost(seed, regime, task, index),
            &mut self.obs,
        );
        if waiting && self.mode() == Mode::Deterministic {
            Status::Stalled
        } else if (0..self.num_procs()).any(|p| self.kernel.in_flight(p).is_some()) {
            Status::Idle
        } else {
            Status::Done
        }
    }

    /// Assignments dispatched since the last call, in dispatch order; the
    /// combiner delivers them to worker mailboxes.
    pub fn take_assignments(&mut self) -> Vec<OnlineAssignment> {
        let fresh = self.kernel.full_log()[self.taken..].to_vec();
        self.taken += fresh.len();
        fresh
    }

    /// Consumes the core: the full dispatch log and the recorded event
    /// stream.
    #[must_use]
    pub fn into_parts(self) -> (Vec<OnlineAssignment>, Vec<SchedEvent>) {
        (self.kernel.full_log().to_vec(), self.obs.events)
    }
}

/// The key subtask `st` is dispatched by. The
/// [`FaultPlan::StaleKeyCacheRead`] mutant serves the *previous*
/// subtask's key — the value a racing reader would see before the slot
/// for this subtask lands.
fn dispatch_key(sys: &TaskSystem, fault: FaultPlan, st: SubtaskRef) -> Pd2Key {
    match (fault, sys.subtask(st).pred) {
        (FaultPlan::StaleKeyCacheRead, Some(pred)) => Pd2Key::of_subtask(sys, pred),
        _ => Pd2Key::of_subtask(sys, st),
    }
}

/// The core's event recorder. Under [`FaultPlan::TornDispatchBatch`] it
/// records every `QuantumStart` after the first of one dispatch batch
/// (the starts between two `Tick`s) with the previous start's processor;
/// the kernel's execution and log stay correct.
#[derive(Debug)]
struct Recorder {
    events: Vec<SchedEvent>,
    tear: bool,
    prev_proc: Option<u32>,
}

impl Observer for Recorder {
    fn on_event(&mut self, ev: &SchedEvent) {
        let mut ev = ev.clone();
        match &mut ev {
            SchedEvent::Tick { .. } => self.prev_proc = None,
            SchedEvent::QuantumStart { proc, .. } if self.tear => {
                if let Some(prev) = self.prev_proc.replace(*proc) {
                    *proc = prev;
                }
            }
            _ => {}
        }
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_obs::RecordingObserver;
    use pfair_taskmodel::{SubtaskId, TaskSystemBuilder, Weight};

    /// A periodic system plus its submission plan: every task releases
    /// `jobs` back-to-back jobs from time 0.
    fn periodic(weights: &[(i64, i64)], jobs: u64) -> (TaskSystem, Vec<(TaskId, i64)>) {
        let mut b = TaskSystemBuilder::new();
        let ids: Vec<TaskId> = weights
            .iter()
            .map(|&(e, p)| b.add_task(Weight::new(e, p)))
            .collect();
        let mut plan = Vec::new();
        for (t, &(e, p)) in ids.iter().zip(weights) {
            for j in 0..jobs {
                let ji = i64::try_from(j).expect("job count");
                plan.push((*t, ji * p));
                for index in j * u64::try_from(e).expect("e > 0") + 1
                    ..=(j + 1) * u64::try_from(e).expect("e > 0")
                {
                    b.push(*t, index, 0, None).expect("valid periodic release");
                }
            }
        }
        plan.sort_by_key(|&(t, at)| (at, t));
        (b.build(), plan)
    }

    /// Drives the core synchronously: whenever it stalls or idles, the
    /// earliest-completing in-flight quantum reports done.
    fn drive(mut core: DispatchCore) -> (Vec<OnlineAssignment>, Vec<SchedEvent>) {
        core.begin();
        while core.advance() != Status::Done {
            let proc = earliest_in_flight(&core);
            match core.mode() {
                Mode::Deterministic => core.mark_done(proc),
                Mode::FreeRunning => core.complete_unordered(proc),
            }
            core.take_assignments();
        }
        core.into_parts()
    }

    fn earliest_in_flight(core: &DispatchCore) -> u32 {
        (0..core.num_procs())
            .filter(|&p| core.kernel.in_flight(p).is_some())
            .min_by_key(|&p| (core.completion_of(p), p))
            .expect("a waiting core has in-flight work")
    }

    fn reference(
        sys: &TaskSystem,
        plan: &[(TaskId, i64)],
        m: u32,
        seed: u64,
        regime: JitterRegime,
    ) -> (Vec<OnlineAssignment>, Vec<SchedEvent>) {
        let mut obs = RecordingObserver::new();
        let mut s = OnlineDvq::new(m);
        for t in sys.tasks() {
            s.add_task(t.weight);
        }
        for &(t, at) in plan {
            s.submit_job_observed(t, at, &mut obs).expect("valid plan");
        }
        let log = s.run_until_idle_observed(
            &mut |task, index| quantum_cost(seed, regime, task, index),
            &mut obs,
        );
        (log, obs.into_events())
    }

    #[test]
    fn deterministic_mode_is_bit_identical_to_online_dvq() {
        for seed in 0..8u64 {
            let (sys, plan) = periodic(&[(1, 2), (1, 3), (2, 5), (1, 6)], 3);
            let mut core = DispatchCore::new(
                sys.clone(),
                2,
                seed,
                JitterRegime::Adversarial,
                Mode::Deterministic,
                FaultPlan::None,
            );
            for &(t, at) in &plan {
                core.submit(t, at);
            }
            let (log, events) = drive(core);
            let (ref_log, ref_events) = reference(&sys, &plan, 2, seed, JitterRegime::Adversarial);
            assert_eq!(log, ref_log, "schedule diverged at seed {seed}");
            assert_eq!(events, ref_events, "event stream diverged at seed {seed}");
        }
    }

    #[test]
    fn free_running_in_logical_order_matches_the_reference_schedule() {
        // When completions are applied in logical order (as `drive` does),
        // free-running mode reduces to the deterministic schedule.
        let (sys, plan) = periodic(&[(1, 2), (1, 3), (1, 6)], 2);
        let mut core = DispatchCore::new(
            sys.clone(),
            2,
            11,
            JitterRegime::Mild,
            Mode::FreeRunning,
            FaultPlan::None,
        );
        for &(t, at) in &plan {
            core.submit(t, at);
        }
        let (log, _) = drive(core);
        let (ref_log, _) = reference(&sys, &plan, 2, 11, JitterRegime::Mild);
        assert_eq!(log, ref_log);
    }

    #[test]
    fn free_running_tolerates_late_completion_reports() {
        // Two quanta in flight; the one that logically completes *second*
        // reports first. The late processor idles the gap; both quanta and
        // all successors still dispatch, and time never goes backwards.
        let (sys, plan) = periodic(&[(1, 2), (1, 2)], 2);
        let mut core = DispatchCore::new(
            sys,
            2,
            3,
            JitterRegime::Adversarial,
            Mode::FreeRunning,
            FaultPlan::None,
        );
        for &(t, at) in &plan {
            core.submit(t, at);
        }
        core.begin();
        assert_eq!(core.advance(), Status::Idle);
        core.take_assignments();
        let (a, b) = (core.completion_of(0), core.completion_of(1));
        let (late, early) = if a >= b { (0u32, 1u32) } else { (1, 0) };
        core.complete_unordered(late); // out of logical order
        core.complete_unordered(early);
        while core.advance() != Status::Done {
            core.complete_unordered(earliest_in_flight(&core));
            core.take_assignments();
        }
        let (log, _) = core.into_parts();
        assert_eq!(log.len(), 4, "both jobs of both tasks dispatched");
        for w in log.windows(2) {
            assert!(w[0].start <= w[1].start, "dispatch log left time order");
        }
    }

    #[test]
    fn stale_keycache_fault_serves_the_predecessors_slot() {
        let (sys, _) = periodic(&[(2, 5)], 1);
        let a1 = sys
            .find(SubtaskId {
                task: TaskId(0),
                index: 1,
            })
            .expect("T0_1 exists");
        let a2 = sys
            .find(SubtaskId {
                task: TaskId(0),
                index: 2,
            })
            .expect("T0_2 exists");
        let key = |st| Pd2Key::of_subtask(&sys, st);
        let stale = |st| dispatch_key(&sys, FaultPlan::StaleKeyCacheRead, st);
        assert_eq!(dispatch_key(&sys, FaultPlan::None, a2), key(a2));
        assert_eq!(
            stale(a2),
            key(a1),
            "the stale read serves the predecessor's slot"
        );
        assert_ne!(
            stale(a2),
            key(a2),
            "weight 2/5 gives T0_1 and T0_2 distinct keys, so the tear is visible"
        );
        // Chain heads have no predecessor: the stale read is invisible there.
        assert_eq!(stale(a1), key(a1));
    }

    #[test]
    fn torn_batch_fault_tears_the_event_stream_but_not_the_log() {
        // Three tasks ready at once on three processors: a multi-entry
        // dispatch batch, so the tear has something to tear.
        let (sys, plan) = periodic(&[(1, 2), (1, 2), (1, 2)], 1);
        let run = |fault| {
            let mut core = DispatchCore::new(
                sys.clone(),
                3,
                0,
                JitterRegime::None,
                Mode::Deterministic,
                fault,
            );
            for &(t, at) in &plan {
                core.submit(t, at);
            }
            drive(core)
        };
        let (clean_log, clean_events) = run(FaultPlan::None);
        let (torn_log, torn_events) = run(FaultPlan::TornDispatchBatch);
        assert_eq!(clean_log, torn_log, "execution itself stays correct");
        assert_ne!(clean_events, torn_events, "the recorded stream tears");
        let procs = |events: &[SchedEvent]| -> Vec<u32> {
            events
                .iter()
                .filter_map(|e| match e {
                    SchedEvent::QuantumStart { proc, .. } => Some(*proc),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(procs(&clean_events), vec![0, 1, 2]);
        assert_eq!(procs(&torn_events), vec![0, 0, 1], "torn publication");
    }

    #[test]
    fn advance_refuses_to_run_before_begin() {
        let (sys, plan) = periodic(&[(1, 2)], 1);
        let mut core = DispatchCore::new(
            sys,
            1,
            0,
            JitterRegime::None,
            Mode::Deterministic,
            FaultPlan::None,
        );
        for &(t, at) in &plan {
            core.submit(t, at);
        }
        assert_eq!(core.advance(), Status::Idle);
        assert!(core.take_assignments().is_empty());
    }
}
