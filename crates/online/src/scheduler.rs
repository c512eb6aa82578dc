//! The online PD²-DVQ kernel.
//!
//! [`OnlineDvq`] accepts **sporadic job arrivals** at runtime and plays
//! the DVQ model forward: at every instant a processor frees (a quantum
//! completes — possibly early) or a subtask becomes eligible, the
//! highest-PD²-priority ready subtask is dispatched, chosen in
//! `O(log n)` from a binary heap of [`Pd2Key`]s. Semantics are exactly
//! those of `pfair_sim::simulate_dvq` — the cross-check tests drive both
//! on identical workloads and require identical schedules.
//!
//! The loop handles one event at a time: the first event of an instant
//! opens a *batch* (its [`SchedEvent::Tick`]), and the batch closes — one
//! ascending-processor PD² dispatch pass — when the next event lies later.
//! The [`Mode`] fixes when a completion is handled: queued like any event
//! ([`Mode::Deterministic`], which `pfair-runtime` also gates on worker
//! reports), or when the caller reports it ([`Mode::FreeRunning`]).
//!
//! # Usage
//!
//! ```
//! use pfair_numeric::Rat;
//! use pfair_online::OnlineDvq;
//! use pfair_taskmodel::Weight;
//!
//! let mut sched = OnlineDvq::new(2);
//! let video = sched.add_task(Weight::new(1, 2));
//! let audio = sched.add_task(Weight::new(1, 6));
//! sched.submit_job(video, 0).unwrap();
//! sched.submit_job(audio, 0).unwrap();
//! sched.submit_job(video, 2).unwrap(); // sporadic: ≥ previous + period
//! let log = sched.run_until_idle(&mut |_task, _index| Rat::ONE);
//! assert_eq!(log.len(), 3); // three quantum-length subtasks dispatched
//! assert!(log.iter().all(|a| a.start + a.cost <= Rat::int(a.deadline)));
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pfair_core::key::Pd2Key;
use pfair_numeric::{QScale, QTime, Rat, Time};
use pfair_obs::{NoopObserver, Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::window;
use pfair_taskmodel::{SubtaskId, TaskId, Weight};

/// A dispatched quantum, as reported by the scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnlineAssignment {
    /// The task.
    pub task: TaskId,
    /// The subtask index within the task.
    pub index: u64,
    /// Processor the quantum runs on.
    pub proc: u32,
    /// Commencement time.
    pub start: Time,
    /// Actual cost (from the caller's cost source).
    pub cost: Rat,
    /// The subtask's pseudo-deadline (for the caller's tardiness
    /// accounting).
    pub deadline: i64,
}

/// Errors from job submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineError {
    /// Job release precedes the previous job's release plus the period
    /// (sporadic separation violated).
    TooEarly {
        /// Earliest admissible release.
        earliest: i64,
        /// Requested release.
        requested: i64,
    },
    /// Job release lies in the scheduler's past.
    InThePast {
        /// Current scheduler time.
        now: Time,
        /// Requested release.
        requested: i64,
    },
    /// Unknown task id.
    UnknownTask,
}

impl core::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OnlineError::TooEarly {
                earliest,
                requested,
            } => write!(
                f,
                "sporadic separation violated: job released at {requested}, earliest {earliest}"
            ),
            OnlineError::InThePast { now, requested } => {
                write!(f, "job released at {requested} but scheduler time is {now}")
            }
            OnlineError::UnknownTask => f.write_str("unknown task id"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// When the kernel handles a quantum's completion; `pfair-runtime`
/// selects it per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Completions are queued events, handled in logical order (the
    /// runtime's logical-time barrier). The plain `OnlineDvq` policy.
    Deterministic,
    /// Completions are applied when reported, at `max(now, completion)`;
    /// in the runtime the schedule depends on thread timing and is
    /// checked by replay.
    FreeRunning,
}

/// One not-yet-dispatched subtask of a task's chain.
#[derive(Clone, Copy, Debug)]
struct SubSpec {
    index: u64,
    eligible: i64,
    deadline: i64,
    key: Pd2Key,
}

#[derive(Clone, Debug)]
struct TaskState {
    weight: Weight,
    /// Jobs submitted so far.
    jobs: u64,
    /// Release time of the most recent job.
    last_release: Option<i64>,
    /// Subtasks awaiting dispatch, in chain order (the head stays here
    /// while it is ready).
    queue: VecDeque<SubSpec>,
    /// Completion time of the task's most recently completed subtask.
    pred_completion: Time,
    /// `true` while a subtask of this task is ready or running (the chain
    /// head must not be armed twice).
    chain_busy: bool,
    /// `true` while the chain head's activation event is pending.
    head_armed: bool,
}

/// Queued events. At equal instants completions come first, then
/// activations, each by processor / task id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// The quantum on this processor completes (queued completions only).
    ProcFree(u32),
    /// A task's chain head becomes ready.
    Activate(TaskId),
}

/// The quantum currently occupying a processor:
/// `(subtask, completion, deadline)`.
type RunningQuantum = (SubtaskId, Time, i64);

/// Default tick resolution of the event queue's fast mode:
/// `lcm(1..13)`, the workload generators' cost grid.
const DEFAULT_RESOLUTION: i64 = 720_720;

/// An event instant: the exact time plus, when the queue is in tick
/// mode, its native tick count (so the next peek at the same count skips
/// the conversion).
#[derive(Clone, Copy, Debug)]
struct Instant {
    ticks: Option<QTime>,
    at: Time,
}

/// The scheduler's event heap, in one of two arithmetic modes — the
/// online analogue of `pfair-sim`'s two-tier time domains.
///
/// `Ticks` keys the heap by [`QTime`] counts at a fixed [`QScale`]: every
/// heap comparison is a single `i64` compare. The first time (any cost,
/// eligibility, or completion the scale cannot represent) pushes the queue
/// permanently into `Exact` mode, converting every queued event losslessly
/// — a tick count *is* a rational — so schedules never depend on the mode.
#[derive(Debug)]
enum EventQueue {
    Ticks {
        scale: QScale,
        heap: BinaryHeap<Reverse<(QTime, Ev)>>,
    },
    Exact(BinaryHeap<Reverse<(Time, Ev)>>),
}

impl EventQueue {
    /// The next event and its instant. An event at the tick count of
    /// `last` (the instant peeked before) reuses its exact time instead of
    /// converting again.
    fn peek(&self, last: Option<Instant>) -> Option<(Instant, Ev)> {
        match self {
            EventQueue::Ticks { scale, heap } => heap.peek().map(|&Reverse((t, ev))| {
                let at = match last {
                    Some(b) if b.ticks == Some(t) => b.at,
                    _ => scale.to_rat(t),
                };
                let ticks = Some(t);
                (Instant { ticks, at }, ev)
            }),
            EventQueue::Exact(heap) => heap
                .peek()
                .map(|&Reverse((at, ev))| (Instant { ticks: None, at }, ev)),
        }
    }

    fn pop(&mut self) -> Option<Ev> {
        match self {
            EventQueue::Ticks { heap, .. } => heap.pop().map(|Reverse((_, ev))| ev),
            EventQueue::Exact(heap) => heap.pop().map(|Reverse((_, ev))| ev),
        }
    }

    fn push(&mut self, at: Time, ev: Ev) {
        if let EventQueue::Ticks { scale, heap } = self {
            if let Some(qt) = scale.from_rat(at) {
                heap.push(Reverse((qt, ev)));
                return;
            }
            // Off the grid: convert the queue to exact mode, losslessly.
            let scale = *scale;
            let exact = std::mem::take(heap)
                .into_iter()
                .map(|Reverse((t, ev))| Reverse((scale.to_rat(t), ev)))
                .collect();
            *self = EventQueue::Exact(exact);
        }
        let EventQueue::Exact(heap) = self else {
            unreachable!("an off-grid push leaves the queue in exact mode")
        };
        heap.push(Reverse((at, ev)));
    }
}

/// An online, heap-based PD² scheduler for the DVQ model.
#[derive(Debug)]
pub struct OnlineDvq {
    m: u32,
    mode: Mode,
    now: Time,
    tasks: Vec<TaskState>,
    /// Ready chain heads (still first in their task's queue), min-keyed
    /// by PD² priority.
    ready: BinaryHeap<Reverse<(Pd2Key, u32)>>, // (key, task id)
    events: EventQueue,
    /// The instant whose events are being handled, until its dispatch
    /// pass runs.
    batch: Option<Time>,
    free: Vec<u32>,
    /// Per-processor in-flight quantum. Maintained unconditionally so
    /// observed and unobserved `run_until` calls can be interleaved.
    running: Vec<Option<RunningQuantum>>,
    log: Vec<OnlineAssignment>,
}

impl OnlineDvq {
    /// A scheduler over `m ≥ 1` processors, starting at time 0, its event
    /// queue at the workload cost grid's tick resolution (`lcm(1..13)`
    /// ticks per quantum; see [`Self::with_resolution`]).
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: u32) -> OnlineDvq {
        OnlineDvq::with_resolution(m, DEFAULT_RESOLUTION)
    }

    /// [`Self::new`] with an explicit tick resolution for the event
    /// queue's fast mode: event times are kept as integer counts of
    /// `1/ticks_per_quantum` quanta while every cost, eligibility, and
    /// completion lands on that grid, and migrate losslessly to exact
    /// rationals the first time one does not. The resolution never affects
    /// the schedule — only how much of the run enjoys integer heap
    /// comparisons.
    ///
    /// # Panics
    /// Panics if `m == 0` or `ticks_per_quantum < 1`.
    #[must_use]
    pub fn with_resolution(m: u32, ticks_per_quantum: i64) -> OnlineDvq {
        assert!(m >= 1, "need at least one processor");
        OnlineDvq {
            m,
            mode: Mode::Deterministic,
            now: Rat::ZERO,
            tasks: Vec::new(),
            ready: BinaryHeap::new(),
            events: EventQueue::Ticks {
                scale: QScale::new(ticks_per_quantum),
                heap: BinaryHeap::new(),
            },
            batch: None,
            free: (0..m).collect(),
            running: vec![None; m as usize],
            log: Vec::new(),
        }
    }

    /// The scheduler under completion policy `mode` (default
    /// [`Mode::Deterministic`]). A [`Mode::FreeRunning`] scheduler is
    /// driven by [`Self::advance_observed`] and [`Self::complete_observed`].
    ///
    /// # Panics
    /// Panics if a quantum was already dispatched.
    #[must_use]
    pub fn in_mode(mut self, mode: Mode) -> OnlineDvq {
        assert!(self.log.is_empty(), "the mode is fixed before dispatch");
        self.mode = mode;
        self
    }

    /// The completion policy.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Registers a task; returns its id. Tasks may be added at any time.
    pub fn add_task(&mut self, weight: Weight) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskState {
            weight,
            jobs: 0,
            last_release: None,
            queue: VecDeque::new(),
            pred_completion: Rat::ZERO,
            chain_busy: false,
            head_armed: false,
        });
        id
    }

    /// Current scheduler time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Processor count.
    #[must_use]
    pub fn num_processors(&self) -> u32 {
        self.m
    }

    /// The logical completion time of the quantum in flight on `proc`,
    /// if any.
    #[must_use]
    pub fn in_flight(&self, proc: u32) -> Option<Time> {
        self.running[proc as usize].map(|(_, completion, _)| completion)
    }

    /// Submits the next job of `task`, released at integral time `at`.
    ///
    /// Sporadic semantics: `at` must be at least the previous job's
    /// release plus the task's period, and must not lie in the past.
    ///
    /// # Errors
    /// [`OnlineError`] on separation/past/unknown-task violations.
    pub fn submit_job(&mut self, task: TaskId, at: i64) -> Result<(), OnlineError> {
        self.submit_job_observed(task, at, &mut NoopObserver)
    }

    /// [`Self::submit_job`] with a streaming [`Observer`] attached: emits a
    /// [`SchedEvent::Released`] for every subtask the job contributes
    /// (release events are input-side and exempt from the stream's time
    /// ordering).
    ///
    /// # Errors
    /// [`OnlineError`] on separation/past/unknown-task violations.
    pub fn submit_job_observed<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        obs: &mut O,
    ) -> Result<(), OnlineError> {
        self.submit_job_keyed(task, at, &mut |_, key| key, obs)
    }

    /// [`Self::submit_job_observed`] where `key(id, fresh)` maps each
    /// subtask's PD² key to the one the ready queue orders it by — a hook
    /// for cross-checking subtasks or planting a stale-key fault.
    ///
    /// # Errors
    /// [`OnlineError`] on separation/past/unknown-task violations.
    pub fn submit_job_keyed<O: Observer>(
        &mut self,
        task: TaskId,
        at: i64,
        key: &mut dyn FnMut(SubtaskId, Pd2Key) -> Pd2Key,
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
        if Rat::int(at) < self.now {
            return Err(OnlineError::InThePast {
                now: self.now,
                requested: at,
            });
        }
        let w = state.weight;
        let j = state.jobs; // 0-based job counter
        let theta = at - i64::try_from(j).expect("job count") * w.p();
        let first = j * w.e() as u64 + 1;
        for index in first..first + w.e() as u64 {
            let id = SubtaskId { task, index };
            let r = theta + window::release(w, index);
            let spec = SubSpec {
                index,
                eligible: r,
                deadline: theta + window::deadline(w, index),
                key: key(id, Pd2Key::of(w, id, index, theta)),
            };
            if O::ENABLED {
                obs.on_event(&SchedEvent::Released { id, at: r });
            }
            state.queue.push_back(spec);
        }
        state.jobs += 1;
        state.last_release = Some(at);
        self.arm_head(task);
        Ok(())
    }

    /// Arms the chain head's activation event if the task has pending work
    /// and nothing of it is ready/running.
    fn arm_head(&mut self, task: TaskId) {
        let state = &mut self.tasks[task.idx()];
        if state.chain_busy || state.head_armed {
            return;
        }
        let Some(head) = state.queue.front() else {
            return;
        };
        let act = Rat::int(head.eligible).max(state.pred_completion);
        state.head_armed = true;
        self.events.push(act, Ev::Activate(task));
    }

    /// Processes events up to (and including) `horizon`, dispatching with
    /// costs from `cost` (each must lie in `(0, 1]`). Returns the
    /// assignments made during this call, in dispatch order.
    pub fn run_until(
        &mut self,
        horizon: Time,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
    ) -> Vec<OnlineAssignment> {
        self.run_until_observed(horizon, cost, &mut NoopObserver)
    }

    /// [`Self::run_until`] with a streaming [`Observer`] attached. With
    /// [`NoopObserver`] this monomorphizes to exactly [`Self::run_until`]'s
    /// code (every emission site is gated by the compile-time
    /// `O::ENABLED`). Quanta still in flight at `horizon` announce their
    /// [`SchedEvent::QuantumEnd`] in whichever later call processes their
    /// completion.
    pub fn run_until_observed<O: Observer>(
        &mut self,
        horizon: Time,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> Vec<OnlineAssignment> {
        let log_start = self.log.len();
        self.drain(|s, at, _| s.batch.is_none() && at > horizon, cost, obs);
        if self.now < horizon {
            self.now = horizon;
        }
        self.log[log_start..].to_vec()
    }

    /// Runs until every submitted job has completed; returns the
    /// assignments made during this call.
    pub fn run_until_idle(
        &mut self,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
    ) -> Vec<OnlineAssignment> {
        self.run_until_idle_observed(cost, &mut NoopObserver)
    }

    /// [`Self::run_until_idle`] with a streaming [`Observer`] attached.
    /// Because the system drains completely, every dispatched quantum's
    /// [`SchedEvent::QuantumEnd`] (and deadline verdict) is emitted before
    /// this returns.
    pub fn run_until_idle_observed<O: Observer>(
        &mut self,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> Vec<OnlineAssignment> {
        // Events only exist while work is pending, so an unbounded horizon
        // terminates exactly when the system drains.
        self.run_until_observed(Rat::int(i64::MAX / 2), cost, obs)
    }

    /// Handles events until one needs an undelivered completion (returns
    /// `true`) or the queue empties (`false`). [`Mode::Deterministic`]: a
    /// completion on `proc` waits for `reported(proc)`, asked once, right
    /// before it would be handled. [`Mode::FreeRunning`]: stops before any
    /// event at or after an in-flight quantum's completion.
    pub fn advance_observed<O: Observer>(
        &mut self,
        reported: &mut dyn FnMut(u32) -> bool,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> bool {
        let stop = |s: &OnlineDvq, at, ev| match (s.mode, ev) {
            (Mode::FreeRunning, _) => s.running.iter().flatten().any(|&(_, c, _)| c <= at),
            (Mode::Deterministic, Ev::ProcFree(proc)) => !reported(proc),
            (Mode::Deterministic, Ev::Activate(_)) => false,
        };
        self.drain(stop, cost, obs)
    }

    /// [`Mode::FreeRunning`]: applies the reported completion on `proc`,
    /// after the queued events that logically precede it, at
    /// `max(now, completion)`. A late report (time already moved past it)
    /// leaves the processor idle over the gap: capacity loss, never an
    /// invalid placement.
    ///
    /// # Panics
    /// Panics in [`Mode::Deterministic`] or if `proc` is idle.
    pub fn complete_observed<O: Observer>(
        &mut self,
        proc: u32,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) {
        assert!(
            self.mode == Mode::FreeRunning,
            "reported completions are the free-running completion path"
        );
        let completion = self
            .in_flight(proc)
            .expect("processor reported done while idle");
        if completion > self.now {
            self.drain(|_, at, _| at >= completion, cost, obs);
        }
        self.open_batch(self.now.max(completion), obs);
        self.finish(proc, obs);
    }

    /// Every assignment made since construction.
    #[must_use]
    pub fn full_log(&self) -> &[OnlineAssignment] {
        &self.log
    }

    /// The kernel loop, one queued event at a time: a batch at an earlier
    /// instant than the next event is closed first; then `stop` may end
    /// the loop before the event (`true`), or it joins the batch at its
    /// instant and is handled. `false` once the queue and batch are empty.
    fn drain<O: Observer>(
        &mut self,
        mut stop: impl FnMut(&OnlineDvq, Time, Ev) -> bool,
        cost: &mut dyn FnMut(TaskId, u64) -> Rat,
        obs: &mut O,
    ) -> bool {
        let mut last = None;
        loop {
            let Some((next, ev)) = self.events.peek(last) else {
                if self.batch.is_none() {
                    return false;
                }
                self.close_batch(cost, obs);
                continue;
            };
            last = Some(next);
            let mut at = next.at;
            if self.mode == Mode::FreeRunning && at < self.now {
                // A late report moved time past this activation.
                at = self.now;
            }
            if self.batch.is_some_and(|b| b != at) {
                self.close_batch(cost, obs);
                continue;
            }
            if stop(self, at, ev) {
                return true;
            }
            self.open_batch(at, obs);
            match self.events.pop().expect("peeked event still queued") {
                Ev::ProcFree(proc) => self.finish(proc, obs),
                Ev::Activate(task) => self.activate(task, obs),
            }
        }
    }

    /// Opens a batch at `at` (emitting its `Tick`) unless one is open
    /// there already.
    fn open_batch<O: Observer>(&mut self, at: Time, obs: &mut O) {
        if self.batch.is_some() {
            return;
        }
        self.batch = Some(at);
        self.now = at;
        if O::ENABLED {
            obs.on_event(&SchedEvent::Tick { at });
        }
    }

    /// Frees `proc` after its quantum: deadline verdict, freeing, and
    /// re-arming the task's chain.
    fn finish<O: Observer>(&mut self, proc: u32, obs: &mut O) {
        let (id, completion, deadline) = self.running[proc as usize]
            .take()
            .expect("a freed processor was running a quantum");
        if O::ENABLED {
            obs.on_event(&SchedEvent::QuantumEnd {
                id,
                proc,
                completion,
                deadline,
                waste: Rat::ZERO,
            });
            let d = Rat::int(deadline);
            if completion > d {
                obs.on_event(&SchedEvent::DeadlineMiss {
                    id,
                    completion,
                    deadline,
                    tardiness: completion - d,
                });
            } else {
                obs.on_event(&SchedEvent::DeadlineHit {
                    id,
                    completion,
                    deadline,
                });
            }
        }
        self.free.push(proc);
        self.tasks[id.task.idx()].chain_busy = false;
        self.arm_head(id.task);
    }

    /// Moves the task's chain head to the ready queue.
    fn activate<O: Observer>(&mut self, task: TaskId, obs: &mut O) {
        let state = &mut self.tasks[task.idx()];
        state.head_armed = false;
        if state.chain_busy {
            return; // stale arm (job submitted while running)
        }
        let Some(spec) = state.queue.front() else {
            return;
        };
        state.chain_busy = true;
        if O::ENABLED {
            let cause = if self.now == Rat::int(spec.eligible) {
                ReadyCause::Eligibility
            } else {
                ReadyCause::Predecessor
            };
            obs.on_event(&SchedEvent::Ready {
                id: SubtaskId {
                    task,
                    index: spec.index,
                },
                at: self.now,
                cause,
            });
        }
        self.ready.push(Reverse((spec.key, task.0)));
    }

    /// Closes the open batch: the PD² dispatch pass, handing free
    /// processors (lowest index first) to ready subtasks in priority
    /// order.
    fn close_batch<O: Observer>(&mut self, cost: &mut dyn FnMut(TaskId, u64) -> Rat, obs: &mut O) {
        let Some(batch) = self.batch.take() else {
            return;
        };
        // Descending, so `pop()` hands out the lowest index first.
        self.free.sort_unstable_by(|a, b| b.cmp(a));
        while !self.free.is_empty() && !self.ready.is_empty() {
            let Reverse((_, task_raw)) = self.ready.pop().expect("nonempty");
            let task = TaskId(task_raw);
            let spec = self.tasks[task.idx()]
                .queue
                .pop_front()
                .expect("a ready task heads its queue");
            let proc = self.free.pop().expect("free nonempty");
            let c = cost(task, spec.index);
            assert!(
                c.is_positive() && c <= Rat::ONE,
                "cost source produced {c} for T{}_{}; must be in (0, 1]",
                task.0,
                spec.index
            );
            let completion = self.now + c;
            let id = SubtaskId {
                task,
                index: spec.index,
            };
            if O::ENABLED {
                obs.on_event(&SchedEvent::QuantumStart {
                    id,
                    proc,
                    start: self.now,
                    cost: c,
                    holds_until: completion,
                    deadline: spec.deadline,
                    bbit: spec.key.bbit,
                    group_deadline: spec.key.group_deadline,
                });
            }
            self.running[proc as usize] = Some((id, completion, spec.deadline));
            self.log.push(OnlineAssignment {
                task,
                index: spec.index,
                proc,
                start: self.now,
                cost: c,
                deadline: spec.deadline,
            });
            self.tasks[task.idx()].pred_completion = completion;
            if self.mode == Mode::Deterministic {
                self.events.push(completion, Ev::ProcFree(proc));
            }
        }
        if O::ENABLED && !self.free.is_empty() {
            obs.on_event(&SchedEvent::Idle {
                at: batch,
                procs: self.free.len() as u32,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cost() -> impl FnMut(TaskId, u64) -> Rat {
        |_, _| Rat::ONE
    }

    #[test]
    fn dispatches_in_pd2_order() {
        let mut s = OnlineDvq::new(1);
        let light = s.add_task(Weight::new(1, 6));
        let heavy = s.add_task(Weight::new(1, 2));
        s.submit_job(light, 0).unwrap();
        s.submit_job(heavy, 0).unwrap();
        let log = s.run_until_idle(&mut unit_cost());
        // Heavy (d = 2) dispatches before light (d = 6).
        assert_eq!(log[0].task, heavy);
        assert_eq!(log[1].task, light);
    }

    #[test]
    fn sporadic_separation_enforced() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        assert!(matches!(
            s.submit_job(t, 1),
            Err(OnlineError::TooEarly { earliest: 2, .. })
        ));
        s.submit_job(t, 5).unwrap(); // late is fine (sporadic)
    }

    #[test]
    fn rejects_past_submissions_and_unknown_tasks() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let _ = s.run_until(Rat::int(4), &mut unit_cost());
        assert!(matches!(
            s.submit_job(t, 3),
            Err(OnlineError::InThePast { .. })
        ));
        assert!(matches!(
            s.submit_job(TaskId(9), 10),
            Err(OnlineError::UnknownTask)
        ));
    }

    #[test]
    fn early_yield_starts_next_quantum_immediately() {
        let mut s = OnlineDvq::new(1);
        let a = s.add_task(Weight::new(1, 2));
        let b = s.add_task(Weight::new(1, 6));
        s.submit_job(a, 0).unwrap();
        s.submit_job(b, 0).unwrap();
        let half = Rat::new(1, 2);
        let log = s.run_until_idle(&mut |_, _| half);
        assert_eq!(log[0].start, Rat::ZERO);
        // Work conservation: B starts the moment A's quantum completes.
        assert_eq!(log[1].start, half);
    }

    #[test]
    fn incremental_run_until() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let first = s.run_until(Rat::int(1), &mut unit_cost());
        assert_eq!(first.len(), 1);
        // Submit the next job mid-flight and continue.
        s.submit_job(t, 2).unwrap();
        let second = s.run_until_idle(&mut unit_cost());
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].start, Rat::int(2));
        assert_eq!(s.full_log().len(), 2);
    }

    #[test]
    fn run_until_does_not_cross_the_horizon() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        s.submit_job(t, 2).unwrap();
        s.submit_job(t, 4).unwrap();
        // Horizon 3: only the jobs released at 0 and 2 dispatch.
        let log = s.run_until(Rat::int(3), &mut unit_cost());
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|a| a.start <= Rat::int(3)));
        assert_eq!(s.now(), Rat::int(3));
        // The rest dispatches later.
        let rest = s.run_until_idle(&mut unit_cost());
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].start, Rat::int(4));
    }

    #[test]
    fn cost_source_validated() {
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        s.submit_job(t, 0).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_until_idle(&mut |_, _| Rat::int(2))
        }));
        assert!(result.is_err(), "cost 2 must be rejected");
    }

    #[test]
    fn num_processors_accessor() {
        assert_eq!(OnlineDvq::new(5).num_processors(), 5);
    }

    #[test]
    fn coarse_resolution_migrates_without_changing_the_schedule() {
        // Resolution 2 cannot represent cost 1/3: the queue migrates to
        // exact mode mid-run. The log must match both the default (GRID)
        // resolution — which represents 1/3 natively — and resolution 1,
        // which migrates on the very first fractional completion.
        let runs: Vec<Vec<OnlineAssignment>> = [720_720i64, 2, 1]
            .iter()
            .map(|&res| {
                let mut s = OnlineDvq::with_resolution(2, res);
                let a = s.add_task(Weight::new(1, 2));
                let b = s.add_task(Weight::new(1, 3));
                let c = s.add_task(Weight::new(2, 5));
                for (t, p) in [(a, 2), (b, 3), (c, 5)] {
                    for j in 0..4 {
                        s.submit_job(t, j * p).unwrap();
                    }
                }
                s.run_until_idle(&mut |task, _| {
                    if task == b {
                        Rat::new(1, 3)
                    } else {
                        Rat::new(1, 2)
                    }
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn off_grid_eligibility_migrates_cleanly() {
        // An eligibility far past i64 ticks at the default scale forces
        // the queue exact on submission; dispatch must still be correct.
        let mut s = OnlineDvq::new(1);
        let t = s.add_task(Weight::new(1, 2));
        let far = i64::MAX / 720_720 + 10; // unrepresentable as ticks
        s.submit_job(t, far).unwrap();
        let log = s.run_until_idle(&mut unit_cost());
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].start, Rat::int(far));
    }

    #[test]
    fn batch_assignments_use_ascending_processors() {
        // Three subtasks ready at t = 0 on three processors: dispatch
        // order (PD² priority) must map to processors 0, 1, 2.
        let mut s = OnlineDvq::new(3);
        for _ in 0..3 {
            let t = s.add_task(Weight::new(1, 2));
            s.submit_job(t, 0).unwrap();
        }
        let log = s.run_until_idle(&mut unit_cost());
        let procs: Vec<u32> = log
            .iter()
            .filter(|a| a.start == Rat::ZERO)
            .map(|a| a.proc)
            .collect();
        assert_eq!(procs, vec![0, 1, 2]);
    }

    #[test]
    fn deadlines_met_on_feasible_periodic_load() {
        // Full utilization on 2 processors, strictly periodic arrivals.
        let mut s = OnlineDvq::new(2);
        let tasks: Vec<(TaskId, Weight)> = [(1i64, 2i64), (1, 2), (1, 2), (1, 2)]
            .iter()
            .map(|&(e, p)| {
                let w = Weight::new(e, p);
                (s.add_task(w), w)
            })
            .collect();
        for j in 0..8 {
            for &(t, w) in &tasks {
                s.submit_job(t, j * w.p()).unwrap();
            }
        }
        let log = s.run_until_idle(&mut unit_cost());
        assert_eq!(log.len(), 4 * 8);
        for a in &log {
            assert!(a.start + a.cost <= Rat::int(a.deadline), "{a:?}");
        }
    }
}
