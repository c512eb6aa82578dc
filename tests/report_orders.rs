//! The runtime's dispatch core under fixed worker report orders, driven
//! on one thread.
//!
//! Real threads make the order in which workers report their quanta
//! nondeterministic. These tests fix it instead:
//!
//! * **Deterministic mode, shuffled reports.** Whenever the core waits, a
//!   seeded random subset of the in-flight workers reports, in random
//!   order — often before the stall that needs the report. The
//!   logical-time barrier must still reproduce `OnlineDvq` bit for bit,
//!   and the run must pass the whole replay bank.
//! * **Free-running mode, latest completion first.** The in-flight
//!   quantum that completes *last* always reports first, the most
//!   adversarial fixed order — one report per wait, or every in-flight
//!   worker at once. The logs and event streams are pinned in
//!   `tests/golden/free_running.snapshot`, late reports and the capacity
//!   they cost included. A change that alters free-running semantics on
//!   purpose (such as a fix for its Theorem 3 failures) updates the
//!   snapshot by re-running with `PFAIR_BLESS_GOLDEN=1`.

use std::fmt::Write as _;

use pfair::conformance::{check_runtime_run, generate_runtime_case};
use pfair::prelude::*;
use pfair::runtime::Status;
use rand::{rngs::StdRng, Rng, SeedableRng};

const SNAPSHOT: &str = "tests/golden/free_running.snapshot";

const WORKERS: [u32; 3] = [1, 2, 4];
const REGIMES: [JitterRegime; 3] = [
    JitterRegime::None,
    JitterRegime::Mild,
    JitterRegime::Adversarial,
];

/// Runs `case` single-threaded: submits every job, then, whenever the
/// core waits, lets `report` pick which in-flight workers report (it
/// removes them from the list it is given) and delivers them in the
/// returned order. A processor must never be handed a new quantum before
/// its worker reported the last one.
fn drive(
    m: u32,
    seed: u64,
    regime: JitterRegime,
    mode: Mode,
    report: &mut dyn FnMut(&DispatchCore, &mut Vec<u32>) -> Vec<u32>,
) -> RuntimeRun {
    let case = generate_runtime_case(seed, m);
    let mut core = DispatchCore::new(case.sys, m, seed, regime, mode, FaultPlan::None);
    for &(task, at) in &case.jobs {
        core.submit(task, at);
    }
    core.begin();
    let mut in_flight: Vec<u32> = Vec::new();
    loop {
        let status = core.advance();
        for a in core.take_assignments() {
            assert!(
                !in_flight.contains(&a.proc),
                "processor {} got a new quantum before reporting its last",
                a.proc
            );
            in_flight.push(a.proc);
        }
        if status == Status::Done {
            break;
        }
        for proc in report(&core, &mut in_flight) {
            match mode {
                Mode::Deterministic => core.mark_done(proc),
                Mode::FreeRunning => core.complete_unordered(proc),
            }
        }
    }
    let (log, events) = core.into_parts();
    RuntimeRun {
        log,
        events,
        stalled: false,
    }
}

#[test]
fn deterministic_mode_matches_online_dvq_under_shuffled_reports() {
    for m in WORKERS {
        for regime in REGIMES {
            for seed in 0..50u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
                let mut shuffled = |_: &DispatchCore, in_flight: &mut Vec<u32>| {
                    let k = rng.gen_range(1..=in_flight.len());
                    (0..k)
                        .map(|_| in_flight.swap_remove(rng.gen_range(0..in_flight.len())))
                        .collect()
                };
                let run = drive(m, seed, regime, Mode::Deterministic, &mut shuffled);
                let mut cfg = RuntimeConfig::new(m);
                cfg.seed = seed;
                cfg.regime = regime;
                cfg.mode = Mode::Deterministic;
                let case = generate_runtime_case(seed, m);
                if let Err(f) = check_runtime_run(&case, &cfg, &run) {
                    panic!(
                        "workers={m} regime={regime:?} seed={seed}: {} fired: {}",
                        f.invariant, f.detail
                    );
                }
            }
        }
    }
}

/// Free-running, the in-flight quanta reporting latest completion first
/// (highest processor on ties): only the latest one per wait, or all of
/// them at once.
fn latest_first(m: u32, seed: u64, regime: JitterRegime, all: bool) -> RuntimeRun {
    let mut latest = |core: &DispatchCore, in_flight: &mut Vec<u32>| {
        in_flight.sort_by_key(|&p| (core.completion_of(p), p));
        let keep = if all { 0 } else { in_flight.len() - 1 };
        in_flight.split_off(keep).into_iter().rev().collect()
    };
    drive(m, seed, regime, Mode::FreeRunning, &mut latest)
}

fn render() -> String {
    let mut out = String::new();
    for seed in [3u64, 7, 11] {
        for m in WORKERS {
            for regime in REGIMES {
                for all in [false, true] {
                    let run = latest_first(m, seed, regime, all);
                    let reports = if all { "all" } else { "one" };
                    writeln!(
                        out,
                        "# seed {seed} workers {m} regime {regime:?} reports {reports}"
                    )
                    .expect("string write");
                    for a in &run.log {
                        writeln!(out, "log {a:?}").expect("string write");
                    }
                    for e in &run.events {
                        writeln!(out, "ev {e:?}").expect("string write");
                    }
                }
            }
        }
    }
    out
}

#[test]
fn free_running_reproduces_the_pinned_latest_first_runs() {
    let got = render();
    let path = format!("{}/{SNAPSHOT}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("PFAIR_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the golden snapshot");
    }
    let want = std::fs::read_to_string(&path).expect("read the golden snapshot");
    if let Some((i, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("{SNAPSHOT} line {}: got `{g}`, want `{w}`", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{SNAPSHOT}: line count differs"
    );
}
