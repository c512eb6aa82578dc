//! The benchmark's own guarantees: seeded inputs repeat exactly,
//! deterministic outputs repeat exactly, planted faults count as failed
//! ops, and `BENCHMARK.json` names exactly the metrics the runs print.

use std::time::Duration;

use pfair_conformance::GenConfig;
use pfair_core::Pd2;
use pfair_numeric::Rat;
use pfair_runtime::{execute, FaultPlan, Mode};
use pfair_sim::{simulate_dvq, simulate_sfq, Placement, QuantumModel, Schedule};

use crate::inputs::{rt_long_case, serve_case, sim_input, SimShape, RT_M};
use crate::ops::{check_sim, fuzz_op, fuzz_op_split, rt_op, sim_op, BF_INVARIANTS};
use crate::probes::KNOWN_BF_PANICS;
use crate::trace::{LayerTable, Tracer};
use crate::workloads::serve_config;

/// A `sim-dvq`-shaped system small enough for a debug-build test.
const SMALL: SimShape = SimShape {
    m: 8,
    max_period: 20,
    horizon: 200,
};

#[test]
fn the_same_seed_yields_identical_inputs() {
    for seed in [0, 1, 0xdead_beef] {
        let (a, b) = (sim_input(seed, SMALL), sim_input(seed, SMALL));
        assert_eq!(a.sys, b.sys);
        assert_eq!(a.yields, b.yields);
        let (a, b) = (rt_long_case(seed), rt_long_case(seed));
        assert_eq!((&a.sys, &a.jobs), (&b.sys, &b.jobs));
        let (a, b) = (serve_case(seed, RT_M), serve_case(seed, RT_M));
        assert_eq!((&a.sys, &a.jobs), (&b.sys, &b.jobs));
    }
    assert_ne!(sim_input(1, SMALL).sys, sim_input(2, SMALL).sys);
    assert_ne!(rt_long_case(1).sys, rt_long_case(2).sys);
}

#[test]
fn inputs_have_the_promised_shape() {
    for seed in 0..4 {
        let sim = sim_input(seed, SMALL);
        assert_eq!(sim.sys.utilization(), Rat::int(i64::from(SMALL.m)));
        assert!(sim
            .sys
            .tasks()
            .iter()
            .all(|t| t.weight.p() <= SMALL.max_period));
        let long = rt_long_case(seed);
        assert_eq!(long.sys.utilization(), Rat::int(i64::from(RT_M)));
        assert!(
            long.sys.num_subtasks() >= 10_000,
            "rt-long runs at least 10^4 quanta"
        );
        let serve = serve_case(seed, RT_M);
        assert!(serve.sys.utilization() <= Rat::new(3 * i64::from(RT_M), 4));
        assert!((2..=5).contains(&serve.sys.num_tasks()) || serve.sys.num_tasks() == 1);
    }
}

#[test]
fn deterministic_outputs_repeat_exactly() {
    let input = sim_input(3, SMALL);
    let a = sim_op(&input, &mut Tracer::off(), 0);
    let b = sim_op(&input, &mut Tracer::off(), 1);
    assert_eq!(a.failure, None, "a clean system passes every sim check");
    assert_eq!(
        a.digest, b.digest,
        "the same system yields the same schedules"
    );

    for k in 0..8 {
        let case = serve_case(k, RT_M);
        let mut cfg = serve_config(k, 1);
        assert_eq!(cfg.mode, Mode::Deterministic);
        cfg.spin = 100;
        let (x, y) = (
            execute(&case.sys, &case.jobs, &cfg),
            execute(&case.sys, &case.jobs, &cfg),
        );
        assert_eq!(x.log, y.log, "deterministic-mode logs repeat");
        assert_eq!(x.events, y.events);
    }

    let gen = GenConfig::default();
    for seed in 0..40 {
        assert_eq!(
            fuzz_op(&gen, seed).failure,
            fuzz_op(&gen, seed).failure,
            "campaign verdicts repeat"
        );
    }
}

#[test]
fn the_split_campaign_op_is_check_seed_less_what_it_leaves_out() {
    let gen = GenConfig::default();
    let mut skipped = vec![0; pfair_conformance::bank().len()];
    for seed in (0..40).chain(KNOWN_BF_PANICS) {
        let whole = fuzz_op_split(&gen, seed, &[], &mut Tracer::off(), 0, &mut skipped);
        assert_eq!(whole.failure, fuzz_op(&gen, seed).failure);
        let no_bf = fuzz_op_split(
            &gen,
            seed,
            &BF_INVARIANTS,
            &mut Tracer::off(),
            0,
            &mut skipped,
        );
        assert!(no_bf
            .failure
            .as_deref()
            .is_none_or(|law| !BF_INVARIANTS.contains(&law)));
        if whole.failure.is_none() {
            assert_eq!(no_bf.failure, None, "leaving laws out never adds a failure");
        }
    }
}

#[test]
fn a_placement_moved_past_deadline_plus_one_is_a_failure() {
    let input = sim_input(5, SMALL);
    let (sys, m) = (&input.sys, input.m);
    let dvq = simulate_dvq(sys, m, &Pd2, &mut input.costs());
    let sfq = simulate_sfq(sys, m, &Pd2, &mut input.costs());
    assert_eq!(check_sim(&input, &dvq, &sfq, &mut Tracer::off(), 0).0, None);

    // Move the last subtask of task 0 after every other quantum, past
    // its deadline + 1: nothing overlaps, only tardiness breaks.
    let last = sys
        .task_subtask_refs(sys.tasks()[0].id)
        .last()
        .expect("task 0 releases subtasks");
    let late = dvq.makespan().max(Rat::int(sys.subtask(last).deadline + 1));
    let moved: Vec<Placement> = dvq
        .placements()
        .iter()
        .map(|pl| {
            let mut pl = pl.clone();
            if pl.st == last {
                pl.holds_until = late + pl.cost;
                pl.start = late;
            }
            pl
        })
        .collect();
    let planted = Schedule::new(sys, QuantumModel::Dvq, m, moved);
    let (failure, _) = check_sim(&input, &planted, &sfq, &mut Tracer::off(), 0);
    assert_eq!(failure, Some("dvq-tardiness"));
}

#[test]
fn every_runtime_fault_plan_is_a_failed_op() {
    for fault in [
        FaultPlan::TornDispatchBatch,
        FaultPlan::LostWakeupCombiner,
        FaultPlan::StaleKeyCacheRead,
    ] {
        let caught = (0..300u64).find_map(|seed| {
            let case = serve_case(seed, RT_M);
            let mut cfg = serve_config(seed, 0);
            cfg.fault = fault;
            cfg.mode = if fault == FaultPlan::StaleKeyCacheRead {
                Mode::Deterministic
            } else {
                Mode::FreeRunning
            };
            cfg.stall_timeout = Duration::from_millis(200);
            cfg.spin = 100;
            rt_op(&case, &cfg, &mut Tracer::off(), seed).failure
        });
        assert!(caught.is_some(), "{fault:?} never counted as a failed op");
    }
}

#[test]
fn self_time_subtracts_child_spans() {
    let mut tr = Tracer::on(std::time::Instant::now());
    tr.span("op", "x", 0, |tr| {
        tr.span("a", "", 0, |_| std::thread::sleep(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(2));
    });
    let table = LayerTable::of(&tr.into_spans());
    let (_, a_ns) = table.layers["a"];
    let (_, op_self) = table.layers["op.x"];
    assert!(a_ns >= 5_000_000 && op_self >= 2_000_000 && op_self < a_ns);
    assert_eq!(table.layer_ns, a_ns);
    assert!(table.coverage() > 0.5 && table.coverage() < 1.0);
}

/// `"name": "…"` entries of one array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            let s = s.trim_start().trim_start_matches('"');
            s[..s.find('"').expect("the name closes")].to_owned()
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let e2e: Vec<String> = crate::END_TO_END
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    assert_eq!(names_in(&json, "per_layer"), crate::per_layer_names());
    let workloads: Vec<String> = crate::workloads::Workload::GATED
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}
