//! The multi-threaded execution harness: real workers around the
//! deterministic core.
//!
//! [`execute`] spawns `M` worker threads, one per virtual processor.
//! Each worker blocks on a private mailbox until the dispatch core
//! assigns it a quantum, *burns CPU* proportional to the quantum's
//! jittered cost (`spin_work` — no wall clock, so the amount of work is
//! reproducible even though its duration is not), and then publishes a
//! [`Request::Done`] into its slot of the [`DelegationLock`]. Whichever
//! thread wins the combiner election drains the batch and drives the
//! [`DispatchCore`] — scheduling work rides along with worker threads;
//! there is no dedicated scheduler thread.
//!
//! The driver thread publishes every job arrival, then [`Request::Begin`],
//! then acts as a pure watchdog: a progress counter ticks on every
//! combining round, and if it stops moving for
//! [`RuntimeConfig::stall_timeout`] the driver declares the run stalled,
//! raises the shutdown flag, and wakes every mailbox so workers exit.
//! A correct runtime never stalls; the
//! [`FaultPlan::LostWakeupCombiner`](crate::FaultPlan)
//! mutant exists to prove the watchdog and the downstream
//! replay-completeness check are load-bearing.
//!
//! This module is the *nondeterministic half* of the crate: it is allowed
//! wall-clock timeouts and threads (with justified `pfair-lint` allows),
//! but every scheduling decision it produces comes out of the
//! deterministic core and is checked by replay.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use pfair_obs::SchedEvent;
use pfair_online::{Mode, OnlineAssignment};
use pfair_taskmodel::{TaskId, TaskSystem};

use crate::core::{DispatchCore, FaultPlan, Request, Status};
use crate::jitter::JitterRegime;
use crate::lock::DelegationLock;

/// Configuration for one [`execute`] run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads / virtual processors.
    pub m: u32,
    /// Seed for the per-quantum jitter draw.
    pub seed: u64,
    /// How much execution-time variation workers inject.
    pub regime: JitterRegime,
    /// Deterministic (bit-identical to `OnlineDvq`) or free-running
    /// (physical completion order, checked by replay).
    pub mode: Mode,
    /// Planted concurrency fault, [`FaultPlan::None`] for production.
    pub fault: FaultPlan,
    /// Busy-work iterations per full quantum; each quantum burns
    /// `cost × spin` iterations. Zero makes quanta near-instant (still
    /// correct — completion *order* is what the modes govern).
    pub spin: u64,
    /// How long the watchdog waits without combiner progress before
    /// declaring the run stalled.
    pub stall_timeout: Duration,
}

impl RuntimeConfig {
    /// A sensible default for `m` workers: mild jitter, free-running,
    /// no fault, light spin, 10 s watchdog.
    #[must_use]
    pub fn new(m: u32) -> RuntimeConfig {
        RuntimeConfig {
            m,
            seed: 0,
            regime: JitterRegime::Mild,
            mode: Mode::FreeRunning,
            fault: FaultPlan::None,
            spin: 10_000,
            stall_timeout: Duration::from_secs(10),
        }
    }
}

/// The artifacts of one [`execute`] run.
#[derive(Debug)]
pub struct RuntimeRun {
    /// Every dispatch decision, in dispatch order — comparable against
    /// `OnlineDvq`'s log in deterministic mode.
    pub log: Vec<OnlineAssignment>,
    /// The recorded event stream, replayable through
    /// `pfair_sim::replay_events` into the conformance bank.
    pub events: Vec<SchedEvent>,
    /// Whether the watchdog had to kill the run (a correct runtime never
    /// stalls; planted lost-wakeup mutants do).
    pub stalled: bool,
}

/// One worker's mailbox: assignments the combiner has dispatched to its
/// processor, plus the condvar it sleeps on.
struct Mailbox {
    inbox: Mutex<VecDeque<OnlineAssignment>>,
    bell: Condvar,
}

/// Shared combiner-progress beat for the watchdog: the counter advances
/// on every combining round that applied at least one request.
struct Progress {
    rounds: Mutex<u64>,
    beat: Condvar,
}

/// Everything the combiner closure needs besides the core itself.
struct Shared {
    mailboxes: Vec<Mailbox>,
    progress: Progress,
    shutdown: AtomicBool,
    /// `LostWakeupCombiner`: arms exactly one dropped `Done`.
    lose_one: AtomicBool,
}

impl Shared {
    fn wake_everyone(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            // Taking the inbox lock orders the flag before any `wait`:
            // a worker that checked `shutdown` false is inside `wait`
            // (lock released) and receives this notification.
            let _guard = mb.inbox.lock();
            mb.bell.notify_all();
        }
        let _guard = self.progress.rounds.lock();
        self.progress.beat.notify_all();
    }
}

/// Burns CPU proportional to `cost` (in quanta) scaled by `spin`
/// iterations per full quantum. Pure arithmetic — no clocks — so the
/// *amount* of work is a deterministic function of the inputs.
fn spin_work(cost: pfair_numeric::Rat, spin: u64) {
    let iters_wide = cost.num() * i128::from(spin) / cost.den();
    let iters = u64::try_from(iters_wide).expect("cost in (0,1] keeps iterations within spin");
    let mut acc = 0u64;
    for i in 0..iters {
        acc = black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(acc);
}

/// The combining function: applies one drained request batch to the core
/// and distributes fresh assignments to worker mailboxes.
fn combine(core: &mut DispatchCore, batch: Vec<Request>, shared: &Shared) {
    let had_requests = !batch.is_empty();
    let mut dones: Vec<u32> = Vec::new();
    for req in batch {
        match req {
            Request::Submit { task, at } => core.submit(task, at),
            Request::Begin => core.begin(),
            Request::Done { proc } => {
                if shared.lose_one.swap(false, Ordering::SeqCst) {
                    // Planted lost wakeup: the combiner drains the request
                    // and forgets it. The quantum never logically
                    // completes; the watchdog eventually kills the run and
                    // the truncated stream fails replay-completeness.
                    continue;
                }
                dones.push(proc);
            }
        }
    }
    match core.mode() {
        Mode::Deterministic => {
            // Physical arrival order is irrelevant: completions are
            // *marked* and the core consumes them in logical order,
            // stalling on workers as needed.
            for proc in dones {
                core.mark_done(proc);
            }
        }
        Mode::FreeRunning => {
            // Within one batch, apply in logical-completion order so a
            // single drain cannot invert logically-ordered frees; across
            // batches, physical timing rules.
            dones.sort_by_key(|&proc| (core.completion_of(proc), proc));
            for proc in dones {
                core.complete_unordered(proc);
            }
        }
    }
    let status = core.advance();
    for assignment in core.take_assignments() {
        let mb = &shared.mailboxes[usize::try_from(assignment.proc).expect("proc fits usize")];
        mb.inbox.lock().push_back(assignment);
        mb.bell.notify_one();
    }
    if status == Status::Done {
        shared.wake_everyone();
    }
    if had_requests {
        let mut rounds = shared.progress.rounds.lock();
        *rounds += 1;
        shared.progress.beat.notify_all();
    }
}

/// One worker thread: wait for an assignment, burn the quantum, report
/// done, repeat until shutdown.
fn worker_loop(
    proc: u32,
    lock: &DelegationLock<DispatchCore, Request>,
    shared: &Shared,
    spin: u64,
) {
    let apply = |core: &mut DispatchCore, batch: Vec<Request>| combine(core, batch, shared);
    let mb = &shared.mailboxes[usize::try_from(proc).expect("proc fits usize")];
    loop {
        let assignment = {
            let mut inbox = mb.inbox.lock();
            loop {
                if let Some(a) = inbox.pop_front() {
                    break a;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                mb.bell.wait(&mut inbox);
            }
        };
        spin_work(assignment.cost, spin);
        lock.publish(
            usize::try_from(proc).expect("proc fits usize"),
            Request::Done { proc },
            apply,
        );
    }
}

/// Runs `sys` for real: `cfg.m` worker threads execute every submitted
/// job's quanta with injected jitter, delegating scheduling to a
/// flat-combined [`DispatchCore`]. `jobs` lists `(task, release)` pairs,
/// already sorted by the caller's intended submission order (release
/// times must respect each task's sporadic separation).
///
/// # Panics
/// Panics on an invalid submission plan (unknown task, separation
/// violation) or if a worker thread panics.
#[must_use]
pub fn execute(sys: &TaskSystem, jobs: &[(TaskId, i64)], cfg: &RuntimeConfig) -> RuntimeRun {
    let core = DispatchCore::new(
        sys.clone(),
        cfg.m,
        cfg.seed,
        cfg.regime,
        cfg.mode,
        cfg.fault,
    );
    let lock: DelegationLock<DispatchCore, Request> =
        DelegationLock::new(core, usize::try_from(cfg.m).expect("m fits usize") + 1);
    let shared = Shared {
        mailboxes: (0..cfg.m)
            .map(|_| Mailbox {
                inbox: Mutex::new(VecDeque::new()),
                bell: Condvar::new(),
            })
            .collect(),
        progress: Progress {
            rounds: Mutex::new(0),
            beat: Condvar::new(),
        },
        shutdown: AtomicBool::new(false),
        lose_one: AtomicBool::new(cfg.fault == FaultPlan::LostWakeupCombiner),
    };
    let apply = |core: &mut DispatchCore, batch: Vec<Request>| combine(core, batch, &shared);
    let driver_slot = usize::try_from(cfg.m).expect("m fits usize");
    let mut stalled = false;

    // pfair-lint: allow(no-nondeterminism): the one thread-spawn site of the runtime; every scheduling decision the workers race toward comes out of the deterministic DispatchCore and is proven by replay (free-running) or bit-equality (deterministic mode).
    crossbeam::scope(|s| {
        for proc in 0..cfg.m {
            let lock = &lock;
            let shared = &shared;
            s.spawn(move |_| worker_loop(proc, lock, shared, cfg.spin));
        }
        for &(task, at) in jobs {
            lock.publish(driver_slot, Request::Submit { task, at }, apply);
        }
        lock.publish(driver_slot, Request::Begin, apply);
        // Watchdog: progress must keep beating until shutdown.
        let mut rounds = shared.progress.rounds.lock();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let seen = *rounds;
            let res = shared
                .progress
                .beat
                .wait_for(&mut rounds, cfg.stall_timeout);
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if res.timed_out() && *rounds == seen {
                // No combining round completed a request for a full
                // timeout: a quantum's completion was lost. Kill the run;
                // the truncated event stream will fail replay.
                stalled = true;
                drop(rounds);
                shared.wake_everyone();
                break;
            }
        }
    })
    .expect("worker panicked");

    let (log, events) = lock.into_inner().into_parts();
    RuntimeRun {
        log,
        events,
        stalled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_numeric::Rat;
    use pfair_online::OnlineDvq;
    use pfair_taskmodel::{TaskSystemBuilder, Weight};

    use crate::jitter::quantum_cost;

    fn periodic(weights: &[(i64, i64)], jobs: u64) -> (TaskSystem, Vec<(TaskId, i64)>) {
        let mut b = TaskSystemBuilder::new();
        let ids: Vec<TaskId> = weights
            .iter()
            .map(|&(e, p)| b.add_task(Weight::new(e, p)))
            .collect();
        let mut plan = Vec::new();
        for (t, &(e, p)) in ids.iter().zip(weights) {
            let e_u = u64::try_from(e).expect("e > 0");
            for j in 0..jobs {
                plan.push((*t, i64::try_from(j).expect("job count") * p));
                for index in j * e_u + 1..=(j + 1) * e_u {
                    b.push(*t, index, 0, None).expect("valid periodic release");
                }
            }
        }
        plan.sort_by_key(|&(t, at)| (at, t));
        (b.build(), plan)
    }

    fn reference_log(
        sys: &TaskSystem,
        plan: &[(TaskId, i64)],
        m: u32,
        seed: u64,
        regime: JitterRegime,
    ) -> Vec<OnlineAssignment> {
        let mut s = OnlineDvq::new(m);
        for t in sys.tasks() {
            s.add_task(t.weight);
        }
        for &(t, at) in plan {
            s.submit_job(t, at).expect("valid plan");
        }
        s.run_until_idle(&mut |task, index| quantum_cost(seed, regime, task, index))
    }

    #[test]
    fn deterministic_execution_matches_online_dvq_across_thread_counts() {
        let (sys, plan) = periodic(&[(1, 2), (1, 3), (2, 5)], 3);
        for m in [1, 2, 4] {
            let expected = reference_log(&sys, &plan, m, 42, JitterRegime::Adversarial);
            let mut cfg = RuntimeConfig::new(m);
            cfg.seed = 42;
            cfg.regime = JitterRegime::Adversarial;
            cfg.mode = Mode::Deterministic;
            let run = execute(&sys, &plan, &cfg);
            assert!(!run.stalled, "correct runtime must not stall (m = {m})");
            assert_eq!(run.log, expected, "m = {m} diverged from OnlineDvq");
        }
    }

    #[test]
    fn free_running_schedules_every_quantum() {
        let (sys, plan) = periodic(&[(1, 2), (1, 4), (1, 4)], 4);
        let mut cfg = RuntimeConfig::new(2);
        cfg.seed = 9;
        cfg.regime = JitterRegime::Mild;
        let run = execute(&sys, &plan, &cfg);
        assert!(!run.stalled);
        assert_eq!(
            run.log.len(),
            sys.num_subtasks(),
            "every subtask dispatched"
        );
        let starts: Vec<Rat> = run.log.iter().map(|a| a.start).collect();
        for w in starts.windows(2) {
            assert!(w[0] <= w[1], "dispatch log left time order");
        }
    }

    #[test]
    fn lost_wakeup_mutant_stalls_and_truncates_the_log() {
        let (sys, plan) = periodic(&[(1, 2), (1, 2)], 2);
        let mut cfg = RuntimeConfig::new(2);
        cfg.fault = FaultPlan::LostWakeupCombiner;
        cfg.stall_timeout = Duration::from_millis(200);
        let run = execute(&sys, &plan, &cfg);
        assert!(run.stalled, "the lost wakeup must trip the watchdog");
        assert!(
            run.log.len() < sys.num_subtasks(),
            "the lost quantum's successors must be missing from the log"
        );
    }

    #[test]
    fn zero_spin_still_schedules_correctly() {
        let (sys, plan) = periodic(&[(2, 3), (1, 3)], 2);
        let expected = reference_log(&sys, &plan, 2, 5, JitterRegime::Mild);
        let mut cfg = RuntimeConfig::new(2);
        cfg.seed = 5;
        cfg.regime = JitterRegime::Mild;
        cfg.mode = Mode::Deterministic;
        cfg.spin = 0;
        let run = execute(&sys, &plan, &cfg);
        assert!(!run.stalled);
        assert_eq!(run.log, expected);
    }
}
