//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-dvq|rt-long|rt-serve|fuzz|fuzz-no-bf --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets up, runs the workload's closed loop for `S`
//! seconds with tracing off, checks every op's output, and prints the
//! end-to-end metrics. With `--trace 1` it runs the loop for `S/2`
//! seconds untraced and `S/2` seconds traced, then the isolated layer
//! probes, writes every span to `perfbench/traces/`, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `NOTES.md` says
//! why each workload and metric exists.

mod host;
mod inputs;
mod ops;
mod probes;
mod rng;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::Path;
use std::time::{Duration, Instant};

use trace::{LayerTable, Tracer};
use workloads::{percentile_ms, Bench, Phase, Workload, WINDOWS};

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("quanta_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, in order.
pub fn per_layer_names() -> Vec<String> {
    let mut v = vec!["workload.gen_ms".to_owned()];
    v.extend(probes::names());
    v.extend(
        [
            "failed_share",
            "trace.layer_coverage",
            "trace.traced_over_untraced",
        ]
        .map(String::from),
    );
    v
}

/// Spans written per traced run; the rest are aggregated only.
const SPAN_FILE_CAP: usize = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload sim-dvq|rt-long|rt-serve|fuzz|fuzz-no-bf --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// Which end-to-end metric a per-layer metric should move, on which
/// workload (the map `NOTES.md` explains).
fn moves(name: &str) -> &'static str {
    let table: &[(&str, &str)] = &[
        ("workload.gen_ms", "setup_s, all workloads"),
        ("core.keycache_build_ms", "quanta_per_s on sim-dvq"),
        ("sim.dvq_max", "quality: must be <= 1 (Theorem 3)"),
        ("sim.sfq_max", "quality: must be 0 (PD2 optimal under SFQ)"),
        (
            "sim.",
            "quanta_per_s on sim-dvq; no change on rt-long, rt-serve",
        ),
        ("obs.", "nothing: probes cost nothing when off"),
        ("analysis.", "quanta_per_s on sim-dvq"),
        (
            "runtime.mailbox",
            "quanta_per_s on rt-long, op_p50_ms on rt-serve",
        ),
        (
            "runtime.spawn_join",
            "op_p50_ms and quanta_per_s on rt-serve; no change on rt-long",
        ),
        ("runtime.cpu_per_wall", "explains quanta_per_s on rt-long"),
        (
            "runtime.replay_max",
            "quality: Theorem 3 on replayed rt-long runs",
        ),
        (
            "runtime.failures.",
            "quality: failed rt-long probe runs by invariant",
        ),
        (
            "runtime.serve_failures",
            "quality: failed runs of 3000 rt-serve-style probe runs",
        ),
        ("runtime.", "quanta_per_s on rt-long"),
        (
            "online.",
            "cases_per_s on fuzz-no-bf and fuzz (online-offline-equivalence), \
             det half of rt-serve",
        ),
        ("conformance.replay", "quanta_per_s on rt-long and rt-serve"),
        (
            "conformance.inv.bf-",
            "cases_per_s on fuzz; fuzz-no-bf leaves it out",
        ),
        (
            "conformance.inv.predictability.",
            "cases_per_s on fuzz; fuzz-no-bf leaves it out",
        ),
        ("conformance.inv.", "cases_per_s on fuzz-no-bf and fuzz"),
        ("conformance.gen", "cases_per_s on fuzz-no-bf and fuzz"),
        (
            "conformance.bf_known_failures",
            "quality: recorded BF-panic campaign seeds that still fail; 0 once BF is fixed",
        ),
        ("failed_share", "failed ops of this run over attempted"),
        ("trace.layer_coverage", "layer self time over op time"),
        (
            "trace.traced_over_untraced",
            "tracing overhead: traced over untraced op throughput",
        ),
    ];
    table
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("?", |(_, m)| m)
}

/// Quanta (cases for the campaign workloads) per second of summed op time.
fn op_throughput(w: Workload, p: &Phase) -> f64 {
    let work = if w.is_campaign() {
        p.attempted()
    } else {
        p.quanta()
    };
    work as f64 / (p.op_ns().max(1) as f64 / 1e9)
}

fn print_failures(bench: &Bench, p: &Phase) {
    let attempted = p.attempted();
    let failed = p.failures.len() as u64;
    println!(
        "# failed_share = {} ({failed} of {attempted} ops) by invariant: {:?}",
        trace::ratio(failed, attempted),
        p.by_law()
    );
    for (k, law) in p.failures.iter().take(10) {
        println!("#   op {k} broke {law}; replay: {}", bench.replay_hint(*k));
    }
    if p.failures.len() > 10 {
        println!("#   … and {} more failed ops", p.failures.len() - 10);
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    // A panicking op is a counted failure; one line, no backtrace, so
    // symbolizing it never costs the run time or memory.
    std::panic::set_hook(Box::new(|info| eprintln!("# op panicked: {info}")));
    let w = args.workload;
    let cores = host::cores();
    let workers = w.workers();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: available_parallelism={cores} workers={workers}{} profile={} rev={}",
        if workers > cores {
            " OVERSUBSCRIBED (more workers than cores: not a scaling point)"
        } else {
            " (workers <= cores)"
        },
        host::build_profile(),
        host::git_revision(Path::new("."))
    );

    if !Workload::GATED.contains(&w) {
        println!(
            "# {} is not gated by BENCHMARK.json (NOTES.md says why)",
            w.name()
        );
    }
    let (bench, setup, warm) = Bench::setup(w, args.seed);
    println!(
        "# setup: median of {} = {:.4} s (input generation {:.3} ms, {warm} warm-up ops)",
        setup.reps, setup.total_s, setup.gen_ms
    );
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        traced(&bench, &setup, warm, budget);
    } else {
        untraced(&bench, &setup, warm, budget);
    }
}

fn untraced(bench: &Bench, setup: &workloads::Setup, warm: u64, budget: Duration) {
    let p = bench.run(warm, budget, None, false);
    let n = p.attempted();
    print_failures(bench, &p);
    println!(
        "# per window ({} windows of {:.1} s): ops {:?}",
        WINDOWS,
        budget.as_secs_f64() / WINDOWS as f64,
        p.windows
            .iter()
            .map(|w| w.durations_ns.len())
            .collect::<Vec<_>>()
    );
    println!(
        "#   quanta/s {:?}",
        p.windows
            .iter()
            .map(|w| (w.quanta as f64 * p.clients as f64 / (w.busy_ns.max(1) as f64 / 1e9)).round())
            .collect::<Vec<_>>()
    );
    let values = [
        setup.total_s,
        p.per_s(|w| w.quanta),
        p.per_s(|w| w.durations_ns.len() as u64),
        p.windowed(|w| percentile_ms(&w.durations_ns, 0.50)),
        p.windowed(|w| percentile_ms(&w.durations_ns, 0.99)),
        setup.rss_mb,
    ];
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
        .collect();
    for (name, v, unit) in &metrics {
        println!("# {name} = {v} {unit}");
    }
    println!(
        "{}",
        json(p.inconsistent == 0, n, p.failures.len() as u64, &metrics)
    );
}

fn traced(bench: &Bench, setup: &workloads::Setup, warm: u64, budget: Duration) {
    let w = bench.workload;
    let a = bench.run(warm, budget / 2, None, false);
    let mut b = bench.run(a.next_op, budget / 2, None, true);
    let table = LayerTable::of(&b.spans);
    let overhead = op_throughput(w, &b) / op_throughput(w, &a);
    println!(
        "# phase untraced: {} ops; phase traced: {} ops",
        a.attempted(),
        b.attempted()
    );
    println!("# layer self time in traced ops (share of op time):");
    for (name, (count, ns)) in &table.layers {
        println!(
            "#   {name:<48} {:>12.3} ms  {:>6.2}%  {count} spans",
            *ns as f64 / 1e6,
            100.0 * trace::ratio(*ns, table.op_ns)
        );
    }

    let t0 = Instant::now();
    let mut probe_tracer = Tracer::on(t0);
    let probes = probes::run(bench.seed, &mut probe_tracer);
    println!("# layer probes took {:.2} s", t0.elapsed().as_secs_f64());

    // Probe spans follow the op spans, on their own time origin.
    let all = trace::merge(vec![
        std::mem::take(&mut b.spans),
        probe_tracer.into_spans(),
    ]);
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", w.name(), bench.seed));
    match trace::write_jsonl(&out, &all, SPAN_FILE_CAP) {
        Ok(n) => println!("# wrote {n} of {} spans to {}", all.len(), out.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", out.display()),
    }

    let attempted = a.attempted() + b.attempted();
    let failed = (a.failures.len() + b.failures.len()) as u64;
    print_failures(bench, &a);
    print_failures(bench, &b);
    let mut metrics: Vec<(String, f64, &str)> =
        vec![("workload.gen_ms".into(), setup.gen_ms, "ms")];
    metrics.extend(probes);
    metrics.extend([
        (
            "failed_share".into(),
            trace::ratio(failed, attempted),
            "share",
        ),
        ("trace.layer_coverage".into(), table.coverage(), "ratio"),
        ("trace.traced_over_untraced".into(), overhead, "ratio"),
    ]);
    assert_eq!(
        metrics.iter().map(|m| m.0.clone()).collect::<Vec<_>>(),
        per_layer_names(),
        "the traced run prints exactly the per-layer metrics BENCHMARK.json names"
    );
    for (name, v, unit) in &metrics {
        println!("# {name} = {v} {unit}  -> {}", moves(name));
    }
    if let workloads::Inputs::Fuzz(_, leave_out) = &bench.inputs {
        println!("# invariants left out of every op: {leave_out:?}");
        println!(
            "# invariants gated out in traced ops: {:?}",
            pfair_conformance::bank()
                .iter()
                .map(|i| i.name())
                .zip(&b.skipped)
                .collect::<Vec<_>>()
        );
    }
    println!(
        "{}",
        json(
            a.inconsistent + b.inconsistent == 0,
            attempted,
            failed,
            &metrics
        )
    );
}
