//! The four workloads: their inputs, set-up and closed-loop phases.
//!
//! Every workload is a closed loop: one client starts the next op only
//! after the previous one finished (`fuzz` and `fuzz-no-bf` run one such
//! client per core, as `run_campaign` does).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pfair_conformance::{GenConfig, RuntimeCase};
use pfair_runtime::{JitterRegime, Mode, RuntimeConfig};

use crate::inputs::{rt_long_case, serve_case, sim_input, SimInput, RT_M, SIM_SHAPE};
use crate::ops::{fuzz_op, fuzz_op_split, fuzz_quanta, rt_op, sim_op, OpResult, BF_INVARIANTS};
use crate::trace::{merge, Span, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimDvq,
    RtLong,
    RtServe,
    Fuzz,
    /// `fuzz` without the invariants that call the BF engine.
    FuzzNoBf,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SimDvq,
        Workload::RtLong,
        Workload::RtServe,
        Workload::Fuzz,
        Workload::FuzzNoBf,
    ];

    /// The workloads `BENCHMARK.json` gates on. `rt-long` and `rt-serve`
    /// still run by name, but their run-to-run spread on a shared 2-vCPU
    /// host exceeds any allowed bound; `fuzz` still runs by name, but the
    /// BF engine panics on about one of its cases in 10⁶ (see `NOTES.md`).
    /// Their layers are measured by the traced run's probes instead.
    pub const GATED: [Workload; 2] = [Workload::SimDvq, Workload::FuzzNoBf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimDvq => "sim-dvq",
            Workload::RtLong => "rt-long",
            Workload::RtServe => "rt-serve",
            Workload::Fuzz => "fuzz",
            Workload::FuzzNoBf => "fuzz-no-bf",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether each op checks one conformance campaign case.
    pub fn is_campaign(self) -> bool {
        matches!(self, Workload::Fuzz | Workload::FuzzNoBf)
    }

    /// Threads the workload keeps busy: the clients, or the runtime's
    /// worker threads.
    pub fn workers(self) -> usize {
        match self {
            Workload::SimDvq => 1,
            Workload::RtLong | Workload::RtServe => RT_M as usize,
            Workload::Fuzz | Workload::FuzzNoBf => crate::host::cores(),
        }
    }

    /// Set-up repetitions (the median is reported) and warm-up ops per
    /// set-up.
    fn setup_shape(self) -> (usize, u64) {
        match self {
            Workload::SimDvq => (3, 1),
            Workload::RtLong => (5, 2),
            Workload::RtServe => (5, 200),
            Workload::Fuzz | Workload::FuzzNoBf => (5, 1000),
        }
    }
}

/// Distinct `rt-serve` cases per run; ops cycle through them.
pub const SERVE_POOL: u64 = 4096;
/// Distinct `sim-dvq` systems per run; ops cycle through them.
pub const SIM_POOL: u64 = 16;

/// First campaign seed of a run: seeds `base + k` for op `k`.
pub fn fuzz_base(seed: u64) -> u64 {
    seed.wrapping_mul(1 << 32)
}

/// `rt-long`'s configuration: free-running (the default), mild jitter,
/// no spin, so the dispatch machinery is what gets timed.
pub fn rt_long_config(seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(RT_M);
    cfg.seed = seed;
    cfg.regime = JitterRegime::Mild;
    cfg.mode = Mode::FreeRunning;
    cfg.spin = 0;
    cfg
}

/// `rt-serve`'s configuration for op `k` on the case of `case_seed`: runs
/// alternate free-running and deterministic, and the jitter regime
/// cycles none, mild, adversarial.
pub fn serve_config(case_seed: u64, k: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(RT_M);
    cfg.seed = case_seed;
    cfg.mode = if k.is_multiple_of(2) {
        Mode::FreeRunning
    } else {
        Mode::Deterministic
    };
    cfg.regime = [
        JitterRegime::None,
        JitterRegime::Mild,
        JitterRegime::Adversarial,
    ][(k % 3) as usize];
    cfg.spin = 0;
    cfg
}

/// Seed of case `i` of a run's `rt-serve` pool.
pub fn serve_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SERVE_POOL).wrapping_add(i)
}

pub enum Inputs {
    /// `sim-dvq`'s system seeds. Each op regenerates its system just
    /// before it starts, untimed, so one system is resident at a time.
    Sim(Vec<u64>),
    RtLong(RuntimeCase, RuntimeConfig),
    RtServe(Vec<RuntimeCase>),
    /// The campaign's size knobs and the bank invariants left out.
    Fuzz(GenConfig, &'static [&'static str]),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::SimDvq => Inputs::Sim(
                (0..SIM_POOL)
                    .map(|i| seed.wrapping_mul(SIM_POOL).wrapping_add(i))
                    .collect(),
            ),
            Workload::RtLong => Inputs::RtLong(rt_long_case(seed), rt_long_config(seed)),
            Workload::RtServe => Inputs::RtServe(
                (0..SERVE_POOL)
                    .map(|i| serve_case(serve_seed(seed, i), RT_M))
                    .collect(),
            ),
            Workload::Fuzz => Inputs::Fuzz(GenConfig::default(), &[]),
            Workload::FuzzNoBf => Inputs::Fuzz(GenConfig::default(), &BF_INVARIANTS),
        }
    }
}

pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub inputs: Inputs,
}

/// What a set-up measured: medians of the total and of input generation,
/// and the peak RSS through the first set-up.
pub struct Setup {
    pub total_s: f64,
    pub gen_ms: f64,
    pub rss_mb: f64,
    pub reps: usize,
}

impl Bench {
    /// Generates the inputs and runs the warm-up ops, several times; the
    /// bench of the last repetition is kept.
    pub fn setup(workload: Workload, seed: u64) -> (Bench, Setup, u64) {
        let (reps, warm) = workload.setup_shape();
        let (mut totals, mut gens, mut rss_mb) = (Vec::new(), Vec::new(), None);
        let mut bench = None;
        for _ in 0..reps {
            drop(bench.take());
            let t0 = Instant::now();
            let b = Bench {
                workload,
                seed,
                inputs: Inputs::generate(workload, seed),
            };
            drop(b.prepare(0));
            gens.push(t0.elapsed().as_secs_f64() * 1e3);
            b.run(0, Duration::ZERO, Some(warm), false);
            totals.push(t0.elapsed().as_secs_f64());
            bench = Some(b);
            // The first set-up of a fresh process makes the same
            // allocations every time; later ones inherit its fragmentation.
            rss_mb.get_or_insert_with(crate::host::peak_rss_mb);
        }
        let setup = Setup {
            total_s: median(totals),
            gen_ms: median(gens),
            rss_mb: rss_mb.expect("at least one set-up"),
            reps,
        };
        (bench.expect("at least one set-up"), setup, warm)
    }

    /// The input op `k` needs generated before it starts.
    fn prepare(&self, k: u64) -> Option<SimInput> {
        match &self.inputs {
            Inputs::Sim(seeds) => Some(sim_input(seeds[(k % SIM_POOL) as usize], SIM_SHAPE)),
            _ => None,
        }
    }

    /// Op `k` of a serial workload.
    fn op(&self, k: u64, input: Option<&SimInput>, tr: &mut Tracer) -> OpResult {
        match &self.inputs {
            Inputs::Sim(_) => sim_op(input.expect("prepared before the op"), tr, k),
            Inputs::RtLong(case, cfg) => rt_op(case, cfg, tr, k),
            Inputs::RtServe(pool) => {
                let i = k % SERVE_POOL;
                rt_op(
                    &pool[i as usize],
                    &serve_config(serve_seed(self.seed, i), k),
                    tr,
                    k,
                )
            }
            Inputs::Fuzz(..) => unreachable!("fuzz ops run on the campaign threads"),
        }
    }

    /// How to replay op `k` alone.
    pub fn replay_hint(&self, k: u64) -> String {
        let w = self.workload.name();
        match self.workload {
            Workload::SimDvq => format!("{w} seed {} system {}", self.seed, k % SIM_POOL),
            Workload::RtLong => format!("{w} seed {}", self.seed),
            Workload::RtServe => {
                let cfg = serve_config(serve_seed(self.seed, k % SERVE_POOL), k);
                format!(
                    "{w} seed {} case {} ({:?}, {:?})",
                    self.seed,
                    k % SERVE_POOL,
                    cfg.mode,
                    cfg.regime
                )
            }
            Workload::Fuzz | Workload::FuzzNoBf => format!(
                "pfairsim fuzz --seed {} --trials 1",
                fuzz_base(self.seed) + k
            ),
        }
    }

    /// Runs ops `first, first + 1, …` as a closed loop until `budget` has
    /// passed (at least one op), or exactly `count` ops when given.
    pub fn run(&self, first: u64, budget: Duration, count: Option<u64>, traced: bool) -> Phase {
        let clients = match self.inputs {
            Inputs::Fuzz(..) => self.workload.workers(),
            _ => 1,
        };
        let next = AtomicU64::new(first);
        let epoch = Instant::now();
        let deadline = epoch + budget;
        let window_ns = (budget.as_nanos() as u64 / WINDOWS as u64).max(1);
        let results: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = Client::new(traced, epoch, window_ns);
                        loop {
                            let k = next.fetch_add(1, Ordering::SeqCst);
                            let done = match count {
                                Some(n) => k >= first + n,
                                None => k > first && Instant::now() >= deadline,
                            };
                            if done {
                                return c;
                            }
                            c.run_op(self, k);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked outside an op"))
                .collect()
        });
        Phase::merge(results, clients)
    }
}

/// Each timed phase is cut into this many equal windows of wall time;
/// the end-to-end metrics are medians over windows, so a host episode
/// covering less than half of a run cannot move them.
pub const WINDOWS: usize = 20;

/// The ops that ended in one window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub quanta: u64,
    /// Summed op time.
    pub busy_ns: u64,
    /// Op durations, saturating at ~4.3 s (u32 keeps the record small
    /// next to the workload's own memory).
    pub durations_ns: Vec<u32>,
}

/// One closed-loop client's records.
struct Client {
    tracer: Tracer,
    epoch: Instant,
    window_ns: u64,
    windows: Vec<Window>,
    next_op: u64,
    failures: Vec<(u64, String)>,
    digests: BTreeMap<u64, u64>,
    inconsistent: u64,
    skipped: Vec<u64>,
}

impl Client {
    fn new(traced: bool, epoch: Instant, window_ns: u64) -> Client {
        Client {
            tracer: if traced {
                Tracer::on(epoch)
            } else {
                Tracer::off()
            },
            epoch,
            window_ns,
            windows: vec![Window::default(); WINDOWS],
            next_op: 0,
            failures: Vec::new(),
            digests: BTreeMap::new(),
            inconsistent: 0,
            skipped: vec![0; pfair_conformance::bank().len()],
        }
    }

    fn window_of(&self, ns: u64) -> usize {
        usize::try_from(ns / self.window_ns).map_or(WINDOWS - 1, |i| i.min(WINDOWS - 1))
    }

    fn run_op(&mut self, bench: &Bench, k: u64) {
        let name = bench.workload.name();
        let traced = self.tracer.enabled();
        let input = bench.prepare(k);
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| match &bench.inputs {
            Inputs::Fuzz(gen, leave_out) if traced || !leave_out.is_empty() => {
                let (tr, skipped) = (&mut self.tracer, &mut self.skipped);
                tr.span("op", name, k, |tr| {
                    fuzz_op_split(gen, fuzz_base(bench.seed) + k, leave_out, tr, k, skipped)
                })
            }
            Inputs::Fuzz(gen, _) => fuzz_op(gen, fuzz_base(bench.seed) + k),
            _ => self
                .tracer
                .span("op", name, k, |tr| bench.op(k, input.as_ref(), tr)),
        }));
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut r = r.unwrap_or_else(|_| {
            self.tracer.recover();
            OpResult {
                quanta: 0,
                failure: Some("panic".to_owned()),
                digest: None,
            }
        });
        if let (Inputs::Fuzz(gen, _), false) = (&bench.inputs, traced) {
            // Outside the timed op: the metrics divide by op time only.
            r.quanta = fuzz_quanta(gen, fuzz_base(bench.seed) + k);
        }
        let end_w = self.window_of(end_ns);
        let w = &mut self.windows[end_w];
        w.quanta += r.quanta;
        w.busy_ns += dur_ns;
        w.durations_ns
            .push(u32::try_from(dur_ns).unwrap_or(u32::MAX));
        self.next_op = self.next_op.max(k + 1);
        if let Some(f) = r.failure {
            self.failures.push((k, f));
        }
        if let (Some(d), Inputs::Sim(_)) = (r.digest, &bench.inputs) {
            // The same system must always yield the same schedules.
            if *self.digests.entry(k % SIM_POOL).or_insert(d) != d {
                self.inconsistent += 1;
            }
        }
    }
}

/// What one closed-loop phase measured.
pub struct Phase {
    /// Concurrent clients (op time per wall second).
    pub clients: usize,
    pub windows: Vec<Window>,
    /// One past the highest op run.
    pub next_op: u64,
    /// `(op, law)` of every failed op, in op order.
    pub failures: Vec<(u64, String)>,
    /// Repeated inputs whose deterministic output changed.
    pub inconsistent: u64,
    pub spans: Vec<Span>,
    /// Cases each bank invariant gated out (traced campaign runs only).
    pub skipped: Vec<u64>,
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

impl Phase {
    fn merge(clients: Vec<Client>, n_clients: usize) -> Phase {
        let mut p = Phase {
            clients: n_clients,
            windows: vec![Window::default(); WINDOWS],
            next_op: 0,
            failures: Vec::new(),
            inconsistent: 0,
            spans: Vec::new(),
            skipped: vec![0; pfair_conformance::bank().len()],
        };
        let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
        let mut span_lists = Vec::new();
        for c in clients {
            for (into, w) in p.windows.iter_mut().zip(c.windows) {
                into.quanta += w.quanta;
                into.busy_ns += w.busy_ns;
                into.durations_ns.extend(w.durations_ns);
            }
            p.next_op = p.next_op.max(c.next_op);
            p.failures.extend(c.failures);
            p.inconsistent += c.inconsistent;
            for (i, d) in c.digests {
                if *digests.entry(i).or_insert(d) != d {
                    p.inconsistent += 1;
                }
            }
            for (a, b) in p.skipped.iter_mut().zip(c.skipped) {
                *a += b;
            }
            span_lists.push(c.tracer.into_spans());
        }
        for w in &mut p.windows {
            w.durations_ns.sort_unstable();
        }
        p.failures.sort();
        p.spans = merge(span_lists);
        p
    }

    pub fn attempted(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.durations_ns.len() as u64)
            .sum()
    }

    pub fn quanta(&self) -> u64 {
        self.windows.iter().map(|w| w.quanta).sum()
    }

    /// Summed op time (busy time of every client).
    pub fn op_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.busy_ns).sum()
    }

    /// Median over the windows that saw an op of `f(window)`.
    pub fn windowed(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(
            self.windows
                .iter()
                .filter(|w| !w.durations_ns.is_empty())
                .map(f)
                .collect(),
        )
    }

    /// Work per second of op time in each window, times the clients.
    pub fn per_s(&self, work: impl Fn(&Window) -> u64) -> f64 {
        let clients = self.clients as f64;
        self.windowed(|w| work(w) as f64 * clients / (w.busy_ns.max(1) as f64 / 1e9))
    }

    /// Failures per law, in name order.
    pub fn by_law(&self) -> BTreeMap<&str, u64> {
        let mut m = BTreeMap::new();
        for (_, law) in &self.failures {
            *m.entry(law.as_str()).or_default() += 1;
        }
        m
    }
}

/// Nearest-rank percentile of sorted durations, in milliseconds.
pub fn percentile_ms(sorted_ns: &[u32], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    f64::from(sorted_ns[rank - 1]) / 1e6
}
