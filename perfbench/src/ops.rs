//! One op of each workload, with its output checks.
//!
//! Every call into a layer sits in a span. A check that fails names the
//! law it broke; the op still counts its quanta, and the run goes on.

use pfair_analysis::{check_structural, tardiness_stats};
use pfair_conformance::{
    bank, check_one, check_runtime_run, check_seed, generate_case, Case, GenConfig, RuntimeCase,
    REFERENCE,
};
use pfair_core::Pd2;
use pfair_numeric::Rat;
use pfair_runtime::{execute, RuntimeConfig};
use pfair_sim::{simulate_dvq, simulate_sfq, Schedule};

use crate::inputs::SimInput;
use crate::trace::Tracer;

/// What one op did.
#[derive(Debug)]
pub struct OpResult {
    /// Quanta the op scheduled, whether or not its checks passed.
    pub quanta: u64,
    /// The first law the op's output broke.
    pub failure: Option<String>,
    /// A digest of the op's deterministic output, where it has one.
    pub digest: Option<u64>,
}

/// The laws a `sim-dvq` op checks, in checking order.
const SIM_LAWS: [&str; 4] = [
    "sim-placement",
    "sim-structural",
    "dvq-tardiness",
    "sfq-tardiness",
];

/// Simulates `input` under PD²-DVQ and PD²-SFQ and checks both schedules.
pub fn sim_op(input: &SimInput, tr: &mut Tracer, op: u64) -> OpResult {
    let (m, sys) = (input.m, &input.sys);
    let dvq = tr.span("sim.dvq", "", op, |_| {
        simulate_dvq(sys, m, &Pd2, &mut input.costs())
    });
    let sfq = tr.span("sim.sfq", "", op, |_| {
        simulate_sfq(sys, m, &Pd2, &mut input.costs())
    });
    let (failure, digest) = check_sim(input, &dvq, &sfq, tr, op);
    OpResult {
        quanta: 2 * input.quanta(),
        failure: failure.map(str::to_owned),
        digest: Some(digest),
    }
}

/// Checks a DVQ and an SFQ schedule of `input`: every subtask placed once
/// with its drawn cost, structural validity, DVQ tardiness ≤ 1 quantum
/// (Theorem 3) and SFQ tardiness 0 (PD² optimality). Every check runs;
/// the first broken law is returned with a digest of both schedules.
pub fn check_sim(
    input: &SimInput,
    dvq: &Schedule,
    sfq: &Schedule,
    tr: &mut Tracer,
    op: u64,
) -> (Option<&'static str>, u64) {
    let sys = &input.sys;
    let (placed, digest) = tr.span("check.placement", "", op, |_| {
        let mut ok = true;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for sched in [dvq, sfq] {
            ok &= sched.placements().len() == sys.num_subtasks();
            for pl in sched.placements() {
                ok &= pl.cost == input.cost_of(pl.st);
                for word in [
                    u64::from(pl.st.0),
                    u64::from(pl.proc),
                    pl.start.num() as u64,
                    pl.start.den() as u64,
                ] {
                    h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        (ok, h)
    });
    let structural = tr.span("analysis.structural", "", op, |_| {
        check_structural(sys, dvq).is_empty() && check_structural(sys, sfq).is_empty()
    });
    let (dvq_max, sfq_max) = tr.span("analysis.tardiness", "", op, |_| {
        (tardiness_stats(sys, dvq).max, tardiness_stats(sys, sfq).max)
    });
    let verdicts = [
        placed,
        structural,
        dvq_max <= Rat::ONE,
        sfq_max == Rat::ZERO,
    ];
    let failure = SIM_LAWS
        .iter()
        .zip(verdicts)
        .find(|(_, ok)| !ok)
        .map(|(law, _)| *law);
    (failure, digest)
}

/// Executes `case` on real worker threads and replay-checks the run
/// against the five-invariant runtime bank (which includes `OnlineDvq`
/// bit-equality for deterministic runs).
pub fn rt_op(case: &RuntimeCase, cfg: &RuntimeConfig, tr: &mut Tracer, op: u64) -> OpResult {
    let run = tr.span("runtime.execute", "", op, |_| {
        execute(&case.sys, &case.jobs, cfg)
    });
    let verdict = tr.span("conformance.replay", "", op, |_| {
        check_runtime_run(case, cfg, &run)
    });
    OpResult {
        quanta: run.log.len() as u64,
        failure: verdict.err().map(|f| f.invariant.to_owned()),
        digest: None,
    }
}

/// The bank invariants that call the BF engine. The engine panics on
/// about one campaign case in 10⁶ (a known defect, `NOTES.md`), so the
/// gated `fuzz-no-bf` workload leaves these out; `fuzz` runs them all.
pub const BF_INVARIANTS: [&str; 2] = ["bf-boundary-conservation", "predictability"];

/// One campaign case, exactly as `run_campaign` checks it (minus
/// shrinking). Its quanta are counted after the timed phase.
pub fn fuzz_op(gen: &GenConfig, seed: u64) -> OpResult {
    OpResult {
        quanta: 0,
        failure: check_seed(gen, seed, &REFERENCE).err().map(|v| v.invariant),
        digest: None,
    }
}

/// The subtasks of the campaign case for `seed`: the quanta one schedule
/// of it places.
pub fn fuzz_quanta(gen: &GenConfig, seed: u64) -> u64 {
    generate_case(gen, seed).num_subtasks() as u64
}

/// [`fuzz_op`] split at its layer boundaries: case generation, then each
/// bank invariant not named in `leave_out` through `check_one`, stopping
/// at the first failure as `check_case` does. `skipped[i]` counts cases
/// invariant `i` gated out.
pub fn fuzz_op_split(
    gen: &GenConfig,
    seed: u64,
    leave_out: &[&str],
    tr: &mut Tracer,
    op: u64,
    skipped: &mut [u64],
) -> OpResult {
    let case = tr.span("conformance.gen", "", op, |_| {
        Case::build(generate_case(gen, seed))
            .ok()
            .filter(Case::is_feasible)
    });
    let Some(case) = case else {
        return OpResult {
            quanta: 0,
            failure: Some("case-build".to_owned()),
            digest: None,
        };
    };
    let mut failure = None;
    for (i, inv) in bank().iter().enumerate() {
        let name = inv.name();
        if leave_out.contains(&name) {
            continue;
        }
        if !inv.applies(&case) {
            skipped[i] += 1;
            continue;
        }
        if let Err(f) = tr.span("conformance.inv", name, op, |_| {
            check_one(name, &case, &REFERENCE)
        }) {
            failure = Some(f.invariant.to_owned());
            break;
        }
    }
    OpResult {
        quanta: case.sys.num_subtasks() as u64,
        failure,
        digest: None,
    }
}
