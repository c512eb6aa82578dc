//! Mutation ("planted bug") tests for the differential conformance
//! harness: every deliberately broken engine in the roster must be caught
//! by a seeded campaign, its counterexample must shrink to a handful of
//! tasks on at most two processors, and the shrunk spec must replay the
//! same violation deterministically. A clean campaign against the
//! reference engines must pass — deterministically, whatever the thread
//! count.

use pfair::conformance::{
    mutants, run_campaign, CampaignConfig, Case, CaseSpec, GenConfig, REFERENCE,
};

/// Seed shared by the planted-bug campaigns (arbitrary but fixed: the
/// suite asserts detection *within* the first 1000 seeds, so the seed is
/// part of the contract).
const BASE_SEED: u64 = 0xC0FFEE;

fn mutant_campaign(trials: usize) -> CampaignConfig {
    CampaignConfig {
        trials,
        base_seed: BASE_SEED,
        threads: 2,
        gen: GenConfig::default(),
        time_limit: None,
        shrink: true,
        stop_on_first: true,
    }
}

#[test]
fn every_planted_mutant_is_caught_and_shrunk() {
    let roster = mutants();
    assert!(roster.len() >= 13, "mutation suite needs ≥ 13 planted bugs");
    for mutant in &roster {
        let outcome = run_campaign(&mutant_campaign(1000), &mutant.engines);
        let v = outcome.violations.first().unwrap_or_else(|| {
            panic!(
                "mutant {:?} ({}) survived a 1000-case campaign",
                mutant.name, mutant.description
            )
        });
        assert_ne!(v.invariant, "case-build", "mutant {:?}", mutant.name);
        let shrunk = v
            .shrunk
            .as_ref()
            .unwrap_or_else(|| panic!("mutant {:?}: no shrunk repro", mutant.name));
        assert!(
            shrunk.tasks.len() <= 4,
            "mutant {:?}: shrunk repro has {} tasks (> 4): {shrunk:?}",
            mutant.name,
            shrunk.tasks.len()
        );
        assert!(
            shrunk.m <= 2,
            "mutant {:?}: shrunk repro needs M = {} (> 2): {shrunk:?}",
            mutant.name,
            shrunk.m
        );
        // The shrunk spec must still witness the same violation when
        // rebuilt from scratch (i.e. the artifact is self-contained).
        let case = Case::build(shrunk.clone()).expect("shrunk spec rebuilds");
        let refail = pfair::conformance::check_one(&v.invariant, &case, &mutant.engines);
        assert!(
            refail.is_err(),
            "mutant {:?}: shrunk repro no longer fails {:?}",
            mutant.name,
            v.invariant
        );
        // And the violation replays from the seed alone.
        let replay = run_campaign(
            &CampaignConfig {
                trials: 1,
                base_seed: v.seed,
                threads: 1,
                ..mutant_campaign(1)
            },
            &mutant.engines,
        );
        assert_eq!(
            replay.violations.len(),
            1,
            "mutant {:?}: seed {} does not replay",
            mutant.name,
            v.seed
        );
        assert_eq!(replay.violations[0].invariant, v.invariant);
    }
}

/// The observability mutant must be caught by the streaming-vs-post-hoc
/// invariant specifically (not by an accidental side effect elsewhere):
/// dropping blocking events detected at non-integral dispatch times leaves
/// every schedule untouched, so only the differential observer check can
/// see it.
#[test]
fn observer_mutant_caught_by_streaming_invariant() {
    let roster = mutants();
    let mutant = roster
        .iter()
        .find(|m| m.name == "obs-drops-fractional-blocking")
        .expect("observer mutant is planted");
    let outcome = run_campaign(&mutant_campaign(1000), &mutant.engines);
    let v = outcome
        .violations
        .first()
        .expect("observer mutant survived a 1000-case campaign");
    assert_eq!(v.invariant, "streaming-posthoc-agreement");
}

/// The engine-family mutants must be caught by their family's own
/// invariant: no other check in the bank even invokes the BF or flow
/// engines before the family invariant runs, so a detection elsewhere
/// would mean the roof is leaning on an accident.
#[test]
fn family_mutants_caught_by_family_invariants() {
    let roster = mutants();
    for (name, want) in [
        ("bf-optional-by-id", "bf-boundary-conservation"),
        ("bf-mandatory-only", "bf-boundary-conservation"),
        ("flow-overfull-slot", "flow-solution-validity"),
        ("flow-window-slip", "flow-solution-validity"),
    ] {
        let mutant = roster
            .iter()
            .find(|m| m.name == name)
            .expect("family mutant is planted");
        let outcome = run_campaign(&mutant_campaign(1000), &mutant.engines);
        let v = outcome
            .violations
            .first()
            .unwrap_or_else(|| panic!("mutant {name} survived a 1000-case campaign"));
        assert_eq!(
            v.invariant, want,
            "mutant {name} caught by the wrong invariant"
        );
    }
}

#[test]
fn clean_campaign_is_deterministic_across_thread_counts() {
    let base = CampaignConfig {
        trials: 5000,
        base_seed: 1,
        threads: 1,
        gen: GenConfig::default(),
        time_limit: None,
        shrink: false,
        stop_on_first: false,
    };
    let serial = run_campaign(&base, &REFERENCE);
    assert!(
        serial.clean(),
        "reference engines violated an invariant: {:?}",
        serial.violations
    );
    assert_eq!(serial.trials_run, base.trials);
    for threads in [2, 4] {
        let par = run_campaign(&CampaignConfig { threads, ..base }, &REFERENCE);
        assert!(par.clean(), "threads={threads}: {:?}", par.violations);
        assert_eq!(par.trials_run, serial.trials_run, "threads={threads}");
    }
}

/// The predictability invariant (#13) deliberately excludes DVQ, because
/// DVQ's anomalies are *real*, not a harness artifact: the paper's own
/// Fig. 2 is a counterexample. Under worst-case (full) quanta PD²-DVQ
/// meets every deadline; let A₁ and F₁ finish δ early and F₂ completes at
/// 5 − δ — strictly *later* than its full-cost completion at 4. Shrinking
/// execution costs delayed a completion, violating Cucu-Grosjean
/// predictability. This test pins that counterexample so nobody "fixes"
/// the invariant by widening it to DVQ; EXPERIMENTS.md E13 documents it.
#[test]
fn dvq_predictability_counterexample_fig2() {
    use pfair::prelude::*;
    let sys = release::periodic_named(
        &[
            ("A", 1, 6),
            ("B", 1, 6),
            ("C", 1, 6),
            ("D", 1, 2),
            ("E", 1, 2),
            ("F", 1, 2),
        ],
        6,
    );
    let delta = Rat::new(1, 4);
    let worst = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
    let mut yields = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let actual = simulate_dvq(&sys, 2, &Pd2, &mut yields);

    let f2 = sys
        .find(SubtaskId {
            task: TaskId(5),
            index: 2,
        })
        .unwrap();
    let worst_done = worst.placement(f2).holds_until;
    let actual_done = actual.placement(f2).holds_until;
    assert_eq!(worst_done, Rat::int(4), "full quanta: F₂ makes d = 4");
    assert_eq!(actual_done, Rat::int(5) - delta);
    assert!(
        actual_done > worst_done,
        "the anomaly: smaller costs, later completion"
    );

    // Contrast: the slot engines the invariant does cover are predictable
    // on the same scenario — identical placements under either cost model.
    let check = |a: &Schedule, b: &Schedule| {
        for task in sys.tasks() {
            for st in sys.task_subtask_refs(task.id) {
                assert_eq!(a.placement(st).start, b.placement(st).start);
                assert_eq!(a.placement(st).proc, b.placement(st).proc);
            }
        }
    };
    let mut yields2 = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    check(
        &simulate_sfq(&sys, 2, &Pd2, &mut yields2),
        &simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum),
    );
    let mut yields3 = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    check(
        &run(Engine::Bf, &sys, 2, &mut yields3, &mut NoopObserver),
        &run(Engine::Bf, &sys, 2, &mut FullQuantum, &mut NoopObserver),
    );
    let mut yields4 = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    check(
        &run(Engine::Flow, &sys, 2, &mut yields4, &mut NoopObserver),
        &run(Engine::Flow, &sys, 2, &mut FullQuantum, &mut NoopObserver),
    );
}

/// The fuzz generator also finds DVQ anomalies on its own: within the
/// first few hundred seeds there is a generated case whose DVQ schedule
/// under the case's (reduced) costs finishes some subtask strictly later
/// than the same engine under worst-case full quanta. The seed below is
/// pinned so the counterexample stays reproducible; if generation ever
/// changes, re-run the scan and update both this test and EXPERIMENTS.md.
#[test]
fn fuzz_generator_finds_dvq_anomalies() {
    use pfair::prelude::*;
    let cfg = GenConfig::default();
    let mut witness = None;
    for seed in 1..=500u64 {
        let spec = pfair::conformance::generate_case(&cfg, seed);
        if spec.costs.is_empty() {
            continue;
        }
        let Ok(case) = Case::build(spec) else {
            continue;
        };
        let worst = simulate_dvq(&case.sys, case.spec.m, &Pd2, &mut FullQuantum);
        let actual = simulate_dvq(&case.sys, case.spec.m, &Pd2, &mut case.cost_model());
        let anomaly = case.sys.tasks().iter().any(|task| {
            case.sys
                .task_subtask_refs(task.id)
                .any(|st| actual.placement(st).holds_until > worst.placement(st).holds_until)
        });
        if anomaly {
            witness = Some(seed);
            break;
        }
    }
    let seed = witness.expect("no DVQ anomaly in 500 seeds — update EXPERIMENTS.md E13");
    assert_eq!(
        seed, DVQ_ANOMALY_SEED,
        "first anomalous seed moved; update EXPERIMENTS.md E13 and this pin"
    );
}

/// The first generator seed exhibiting a DVQ predictability anomaly
/// (documented in EXPERIMENTS.md E13).
const DVQ_ANOMALY_SEED: u64 = 12;

#[test]
fn violation_artifacts_round_trip_as_json() {
    // Take any mutant's shrunk repro and make sure the serde_json artifact
    // a campaign would emit parses back into the same spec.
    let mutant = &mutants()[0];
    let outcome = run_campaign(&mutant_campaign(1000), &mutant.engines);
    let v = outcome.violations.first().expect("mutant detected");
    let shrunk = v.shrunk.as_ref().expect("shrunk");
    let json = serde_json::to_string(shrunk).expect("serialize");
    let back: CaseSpec = serde_json::from_str(&json).expect("parse");
    assert_eq!(&back, shrunk);
}
