//! Isolated layer calls for the traced run.
//!
//! Each probe calls one layer's public function on this seed's inputs a
//! few times, outside any op, and reports the median. The probes are the
//! same on every workload, so each per-layer metric means one thing
//! wherever it is printed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pfair_analysis::{check_structural, tardiness_stats};
use pfair_conformance::{
    bank, check_one, check_runtime_run, generate_case, run_and_check, runtime_bank, Case,
    GenConfig, RuntimeCase, REFERENCE,
};
use pfair_core::{KeyCache, Pd2, Pd2Key};
use pfair_obs::{MetricsObserver, NoopObserver};
use pfair_online::OnlineDvq;
use pfair_runtime::{
    execute, quantum_cost, DelegationLock, DispatchCore, FaultPlan, JitterRegime, Mode,
    RuntimeConfig, Status,
};
use pfair_sim::{replay_events, simulate_dvq, simulate_dvq_observed, simulate_sfq};
use pfair_taskmodel::{TaskSystemBuilder, Weight};

use crate::inputs::{rt_long_case, serve_case, sim_input, RT_M, SIM_SHAPE};
use crate::trace::{Tracer, NO_OP};
use crate::workloads::{fuzz_base, median, rt_long_config, serve_config, serve_seed, SERVE_POOL};

/// Repetitions of each timed simulator and runtime call.
const SIM_REPS: usize = 3;
const RT_REPS: usize = 5;
/// `rt-serve`-distribution runs whose failures the probe counts.
const SERVE_RUNS: u64 = 3000;
/// Requests per publisher in the delegation-lock probe.
const LOCK_REQUESTS: u64 = 20_000;
/// Round trips in the mailbox probe.
const MAILBOX_TRIPS: u64 = 20_000;
/// `execute` calls per repetition of the spawn/join probe.
const SPAWN_RUNS: u32 = 500;
/// Campaign cases in the per-invariant probe.
const FUZZ_CASES: u64 = 400;
/// Campaign seeds on which the BF engine was seen to panic ("interval
/// over-committed") although the case is feasible; `fuzz` reaches them.
pub const KNOWN_BF_PANICS: [u64; 3] = [8_589_983_844, 450_971_569_269, 463_856_482_873];
/// Wall time of `execute` calls the CPU/wall probe averages over.
const CPU_WINDOW: Duration = Duration::from_millis(500);

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Times `f` inside a probe span; returns its result and nanoseconds.
fn timed<R>(
    tr: &mut Tracer,
    layer: &'static str,
    detail: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    tr.span(layer, detail, NO_OP, |_| {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_nanos() as f64)
    })
}

/// The names [`run`] reports, in order.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = [
        "core.keycache_build_ms",
        "sim.dvq_ns_per_quantum",
        "sim.sfq_ns_per_quantum",
        "obs.noop_ratio",
        "obs.metrics_ratio",
        "analysis.tardiness_ns_per_quantum",
        "analysis.structural_ns_per_quantum",
        "sim.dvq_max_tardiness_q",
        "sim.sfq_max_tardiness_q",
        "runtime.execute_ns_per_quantum",
        "runtime.core_pass_ns_per_quantum",
        "runtime.threading_ns_per_quantum",
        "runtime.cpu_per_wall",
        "online.dvq_ns_per_quantum",
        "conformance.replay_ns_per_quantum",
        "runtime.replay_max_tardiness_q",
    ]
    .map(String::from)
    .into();
    v.extend(
        runtime_bank()
            .iter()
            .map(|i| format!("runtime.failures.{}", i.name)),
    );
    v.extend(
        [
            "runtime.serve_failures",
            "runtime.lock_ns_per_request",
            "runtime.mailbox_rtt_ns",
            "runtime.spawn_join_us",
            "conformance.gen_us_per_case",
        ]
        .map(String::from),
    );
    for inv in bank() {
        v.push(format!("conformance.inv.{}.us_per_case", inv.name()));
        v.push(format!("conformance.inv.{}.skipped", inv.name()));
    }
    v.push("conformance.bf_known_failures".into());
    v
}

pub fn run(seed: u64, tr: &mut Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    sim_probes(seed, tr, &mut out);
    runtime_probes(seed, tr, &mut out);
    out.push((
        "runtime.serve_failures".into(),
        serve_probe(seed, tr),
        "count",
    ));
    out.push(("runtime.lock_ns_per_request".into(), lock_probe(tr), "ns"));
    out.push(("runtime.mailbox_rtt_ns".into(), mailbox_probe(tr), "ns"));
    out.push(("runtime.spawn_join_us".into(), spawn_probe(tr), "us"));
    conformance_probes(seed, tr, &mut out);
    out
}

fn sim_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let input = sim_input(seed, SIM_SHAPE);
    let (sys, m) = (&input.sys, input.m);
    let n = input.quanta() as f64;
    let (mut keys, mut dvq, mut noop, mut metrics, mut sfq, mut structural, mut tardy) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut maxima = (0.0f64, 0.0f64);
    for _ in 0..SIM_REPS {
        keys.push(
            timed(tr, "core.keycache_build", "", || {
                KeyCache::<Pd2Key>::build(sys)
            })
            .1,
        );
        let (d, t) = timed(tr, "sim.dvq", "", || {
            simulate_dvq(sys, m, &Pd2, &mut input.costs())
        });
        dvq.push(t);
        noop.push(
            timed(tr, "obs.noop", "", || {
                simulate_dvq_observed(sys, m, &Pd2, &mut input.costs(), &mut NoopObserver)
            })
            .1,
        );
        metrics.push(
            timed(tr, "obs.metrics", "", || {
                simulate_dvq_observed(
                    sys,
                    m,
                    &Pd2,
                    &mut input.costs(),
                    &mut MetricsObserver::new(m),
                )
            })
            .1,
        );
        let (s, t) = timed(tr, "sim.sfq", "", || {
            simulate_sfq(sys, m, &Pd2, &mut input.costs())
        });
        sfq.push(t);
        structural.push(timed(tr, "analysis.structural", "", || check_structural(sys, &d)).1);
        let (stats, t) = timed(tr, "analysis.tardiness", "", || tardiness_stats(sys, &d));
        tardy.push(t);
        maxima = (
            maxima.0.max(stats.max.to_f64()),
            maxima.1.max(tardiness_stats(sys, &s).max.to_f64()),
        );
    }
    let dvq_med = median(dvq);
    out.extend([
        ("core.keycache_build_ms".into(), median(keys) / 1e6, "ms"),
        ("sim.dvq_ns_per_quantum".into(), dvq_med / n, "ns"),
        ("sim.sfq_ns_per_quantum".into(), median(sfq) / n, "ns"),
        ("obs.noop_ratio".into(), median(noop) / dvq_med, "ratio"),
        (
            "obs.metrics_ratio".into(),
            median(metrics) / dvq_med,
            "ratio",
        ),
        (
            "analysis.tardiness_ns_per_quantum".into(),
            median(tardy) / n,
            "ns",
        ),
        (
            "analysis.structural_ns_per_quantum".into(),
            median(structural) / n,
            "ns",
        ),
        ("sim.dvq_max_tardiness_q".into(), maxima.0, "quanta"),
        ("sim.sfq_max_tardiness_q".into(), maxima.1, "quanta"),
    ]);
}

/// Drives a deterministic-mode [`DispatchCore`] on one thread through
/// the same request sequence the combiner applies, every worker reporting
/// done at once; returns the quanta dispatched.
pub fn drive_core(case: &RuntimeCase, seed: u64) -> u64 {
    let mut core = DispatchCore::new(
        case.sys.clone(),
        RT_M,
        seed,
        JitterRegime::Mild,
        Mode::Deterministic,
        FaultPlan::None,
    );
    for &(task, at) in &case.jobs {
        core.submit(task, at);
    }
    core.begin();
    let mut running = Vec::new();
    let mut dispatched = 0;
    loop {
        let status = core.advance();
        for a in core.take_assignments() {
            running.push(a.proc);
            dispatched += 1;
        }
        if status == Status::Done {
            return dispatched;
        }
        assert!(
            !running.is_empty(),
            "the core waits with no quantum in flight"
        );
        for proc in running.drain(..) {
            core.mark_done(proc);
        }
    }
}

/// The single-threaded `OnlineDvq` reference on the same plan and cost
/// draws; returns the quanta dispatched.
pub fn online_dvq(case: &RuntimeCase, seed: u64) -> u64 {
    let mut dvq = OnlineDvq::new(RT_M);
    for t in case.sys.tasks() {
        dvq.add_task(t.weight);
    }
    for &(task, at) in &case.jobs {
        dvq.submit_job(task, at)
            .expect("the benchmark's plans respect sporadic separation");
    }
    let log =
        dvq.run_until_idle(&mut |task, index| quantum_cost(seed, JitterRegime::Mild, task, index));
    log.len() as u64
}

fn runtime_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let case = rt_long_case(seed);
    let cfg = rt_long_config(seed);
    let n = case.sys.num_subtasks() as f64;
    let (mut exec, mut replay, mut core, mut online) = (vec![], vec![], vec![], vec![]);
    let mut fired = vec![0u64; runtime_bank().len()];
    let mut replay_max = 0.0f64;
    for _ in 0..RT_REPS {
        let (run, t) = timed(tr, "runtime.execute", "", || {
            execute(&case.sys, &case.jobs, &cfg)
        });
        exec.push(t);
        let (verdict, t) = timed(tr, "conformance.replay", "", || {
            check_runtime_run(&case, &cfg, &run)
        });
        replay.push(t);
        if let Err(f) = verdict {
            let i = runtime_bank()
                .iter()
                .position(|inv| inv.name == f.invariant)
                .expect("failures name a bank invariant");
            fired[i] += 1;
        }
        if let Ok(sched) = replay_events(&case.sys, RT_M, &run.events) {
            replay_max = replay_max.max(tardiness_stats(&case.sys, &sched).max.to_f64());
        }
        core.push(timed(tr, "runtime.core_pass", "", || drive_core(&case, seed)).1);
        online.push(timed(tr, "online.dvq", "", || online_dvq(&case, seed)).1);
    }
    // Process CPU over wall time while `execute` runs back to back.
    let (cpu0, t0) = (crate::host::process_cpu_s(), Instant::now());
    while t0.elapsed() < CPU_WINDOW {
        tr.span("runtime.execute", "", NO_OP, |_| {
            execute(&case.sys, &case.jobs, &cfg)
        });
    }
    let cpu_per_wall = (crate::host::process_cpu_s() - cpu0) / t0.elapsed().as_secs_f64();

    let (exec, core) = (median(exec) / n, median(core) / n);
    out.extend([
        ("runtime.execute_ns_per_quantum".into(), exec, "ns"),
        ("runtime.core_pass_ns_per_quantum".into(), core, "ns"),
        ("runtime.threading_ns_per_quantum".into(), exec - core, "ns"),
        ("runtime.cpu_per_wall".into(), cpu_per_wall, "ratio"),
        ("online.dvq_ns_per_quantum".into(), median(online) / n, "ns"),
        (
            "conformance.replay_ns_per_quantum".into(),
            median(replay) / n,
            "ns",
        ),
        (
            "runtime.replay_max_tardiness_q".into(),
            replay_max,
            "quanta",
        ),
    ]);
    for (inv, count) in runtime_bank().iter().zip(fired) {
        out.push((
            format!("runtime.failures.{}", inv.name),
            count as f64,
            "count",
        ));
    }
}

/// Failed runs among [`SERVE_RUNS`] `rt-serve` ops (free and
/// deterministic alternating, regimes cycling), replay-checked.
fn serve_probe(seed: u64, tr: &mut Tracer) -> f64 {
    let mut by_law: std::collections::BTreeMap<&str, u64> = Default::default();
    tr.span("runtime.serve", "", NO_OP, |_| {
        for k in 0..SERVE_RUNS {
            let case_seed = serve_seed(seed, k % SERVE_POOL);
            let cfg = serve_config(case_seed, k);
            if let Err(f) = run_and_check(&serve_case(case_seed, RT_M), &cfg) {
                *by_law.entry(f.invariant).or_default() += 1;
            }
        }
    });
    println!("# rt-serve probe: {SERVE_RUNS} runs, failures by invariant: {by_law:?}");
    by_law.values().sum::<u64>() as f64
}

/// `DelegationLock::publish` from `RT_M` threads with a trivial apply.
fn lock_probe(tr: &mut Tracer) -> f64 {
    let publishers = RT_M as usize;
    let per_request = (0..3)
        .map(|_| {
            timed(tr, "runtime.lock", "", || {
                let lock: DelegationLock<u64, u64> = DelegationLock::new(0, publishers);
                let apply = |state: &mut u64, batch: Vec<u64>| {
                    for req in batch {
                        *state = state.wrapping_add(req);
                    }
                };
                std::thread::scope(|s| {
                    for slot in 0..publishers {
                        let lock = &lock;
                        s.spawn(move || {
                            for i in 0..LOCK_REQUESTS {
                                lock.publish(slot, i, apply);
                            }
                        });
                    }
                });
                std::hint::black_box(lock.into_inner())
            })
            .1 / (LOCK_REQUESTS as f64 * publishers as f64)
        })
        .collect();
    median(per_request)
}

/// A worker mailbox: the `parking_lot` mutex-guarded queue plus condvar
/// the runtime hands assignments through.
#[derive(Default)]
struct Mailbox {
    inbox: Mutex<VecDeque<u64>>,
    bell: Condvar,
}

impl Mailbox {
    fn send(&self, v: u64) {
        self.inbox.lock().push_back(v);
        self.bell.notify_one();
    }

    fn recv(&self) -> u64 {
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(v) = inbox.pop_front() {
                return v;
            }
            self.bell.wait(&mut inbox);
        }
    }
}

/// Round trip of one value through two mailboxes between two threads.
fn mailbox_probe(tr: &mut Tracer) -> f64 {
    let per_trip = (0..3)
        .map(|_| {
            let (ping, pong) = (Mailbox::default(), Mailbox::default());
            timed(tr, "runtime.mailbox", "", || {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for _ in 0..MAILBOX_TRIPS {
                            pong.send(ping.recv() + 1);
                        }
                    });
                    for i in 0..MAILBOX_TRIPS {
                        ping.send(i);
                        assert_eq!(pong.recv(), i + 1, "mailbox reply out of order");
                    }
                });
            })
            .1 / MAILBOX_TRIPS as f64
        })
        .collect();
    median(per_trip)
}

/// `execute` on a fixed one-quantum case: thread spawn, one dispatch,
/// join.
fn spawn_probe(tr: &mut Tracer) -> f64 {
    let mut b = TaskSystemBuilder::new();
    let task = b.add_task(Weight::new(1, 2));
    b.push(task, 1, 0, None).expect("a first subtask is valid");
    let sys = b.build();
    let jobs = [(task, 0)];
    let mut cfg = RuntimeConfig::new(RT_M);
    cfg.spin = 0;
    let per_run = (0..3)
        .map(|_| {
            timed(tr, "runtime.spawn_join", "", || {
                for _ in 0..SPAWN_RUNS {
                    std::hint::black_box(execute(&sys, &jobs, &cfg));
                }
            })
            .1 / f64::from(SPAWN_RUNS)
                / 1e3
        })
        .collect();
    median(per_run)
}

fn conformance_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let gen = GenConfig::default();
    let base = fuzz_base(seed);
    let mut gen_ns = 0.0;
    let mut inv_ns = vec![0.0f64; bank().len()];
    let mut skipped = vec![0u64; bank().len()];
    for k in 0..FUZZ_CASES {
        let (case, t) = timed(tr, "conformance.gen", "", || {
            Case::build(generate_case(&gen, base + k)).expect("generated cases build")
        });
        gen_ns += t;
        assert!(case.is_feasible(), "generated cases are feasible");
        for (i, inv) in bank().iter().enumerate() {
            if !inv.applies(&case) {
                skipped[i] += 1;
                continue;
            }
            let name = inv.name();
            inv_ns[i] += timed(tr, "conformance.inv", name, || {
                check_one(name, &case, &REFERENCE)
            })
            .1;
        }
    }
    let cases = FUZZ_CASES as f64;
    out.push((
        "conformance.gen_us_per_case".into(),
        gen_ns / cases / 1e3,
        "us",
    ));
    for (i, inv) in bank().iter().enumerate() {
        out.push((
            format!("conformance.inv.{}.us_per_case", inv.name()),
            inv_ns[i] / cases / 1e3,
            "us",
        ));
        out.push((
            format!("conformance.inv.{}.skipped", inv.name()),
            skipped[i] as f64,
            "count",
        ));
    }
    let bf_failures = KNOWN_BF_PANICS
        .iter()
        .filter(|&&s| {
            let case = Case::build(generate_case(&gen, s)).expect("generated cases build");
            timed(tr, "conformance.inv", "bf-boundary-conservation", || {
                check_one("bf-boundary-conservation", &case, &REFERENCE)
            })
            .0
            .is_err()
        })
        .count();
    out.push((
        "conformance.bf_known_failures".into(),
        bf_failures as f64,
        "count",
    ));
}
