//! Failure injection: the library must *reject* malformed inputs loudly
//! rather than simulate garbage.
//!
//! Covers, through the public API: model-constraint violations
//! (Eqns (5), (6), GIS ordering), invalid weights, cost models emitting
//! values outside `(0, 1]`, invalid shifts, and detection of overload.

use pfair::prelude::*;

#[test]
fn builder_rejects_every_model_violation() {
    let mut b = TaskSystemBuilder::new();
    let t = b.add_task(Weight::new(1, 2));

    // Index 0.
    assert!(matches!(
        b.push(t, 0, 0, None),
        Err(ModelError::ZeroIndex { .. })
    ));
    // Eligibility after release (Eq. 6).
    assert!(matches!(
        b.push(t, 1, 0, Some(5)),
        Err(ModelError::EligibilityAfterRelease { .. })
    ));
    b.push(t, 2, 1, None).unwrap();
    // Reordered / duplicate index.
    assert!(matches!(
        b.push(t, 2, 1, None),
        Err(ModelError::NonIncreasingIndex { .. })
    ));
    assert!(matches!(
        b.push(t, 1, 1, None),
        Err(ModelError::NonIncreasingIndex { .. })
    ));
    // Decreasing offset (Eq. 5 / GIS separation).
    assert!(matches!(
        b.push(t, 3, 0, None),
        Err(ModelError::DecreasingOffset { .. })
    ));
    // Unknown task id.
    assert!(matches!(
        b.push(TaskId(42), 1, 0, None),
        Err(ModelError::UnknownTask { .. })
    ));
    // Errors are rendered usefully.
    let msg = b.push(t, 3, 0, None).unwrap_err().to_string();
    assert!(msg.contains("Eq. 5"), "got: {msg}");
}

#[test]
fn invalid_weights_rejected() {
    for (e, p) in [(0i64, 4i64), (5, 4), (-1, 4), (1, 0), (1, -3)] {
        assert!(Weight::checked(e, p).is_err(), "{e}/{p} accepted");
    }
}

#[test]
fn structured_release_propagates_errors() {
    use pfair::taskmodel::release::{structured, ReleaseSpec};
    // Invalid weight in a spec.
    assert!(structured(&[ReleaseSpec::periodic("X", 9, 4)], 8).is_err());
    // Non-monotone delays violate Eq. (5).
    let bad = ReleaseSpec {
        name: "X",
        e: 1,
        p: 2,
        delays: &[(2, 3), (3, 1)],
        drops: &[],
        early: 0,
    };
    assert!(structured(&[bad], 20).is_err());
}

#[test]
fn cost_model_outside_unit_interval_panics() {
    struct Broken(Rat);
    impl CostModel for Broken {
        fn cost(&mut self, _: &TaskSystem, _: SubtaskRef) -> Rat {
            self.0
        }
    }
    let sys = release::periodic(&[(1, 2)], 4);
    for bad in [Rat::ZERO, Rat::new(-1, 2), Rat::new(3, 2)] {
        let result = std::panic::catch_unwind(|| {
            let _ = simulate_dvq(&sys, 1, &Pd2, &mut Broken(bad));
        });
        assert!(result.is_err(), "cost {bad} accepted");
    }
}

#[test]
fn zero_processors_rejected() {
    let sys = release::periodic(&[(1, 2)], 4);
    for f in [
        (|s: &TaskSystem| {
            let _ = simulate_sfq(s, 0, &Pd2, &mut FullQuantum);
        }) as fn(&TaskSystem),
        (|s: &TaskSystem| {
            let _ = simulate_dvq(s, 0, &Pd2, &mut FullQuantum);
        }) as fn(&TaskSystem),
        (|s: &TaskSystem| {
            let _ = run(
                Engine::Staggered(&Pd2),
                s,
                0,
                &mut FullQuantum,
                &mut NoopObserver,
            );
        }) as fn(&TaskSystem),
    ] {
        assert!(std::panic::catch_unwind(|| f(&sys)).is_err());
    }
}

#[test]
fn invalid_shift_rejected() {
    let sys = release::periodic(&[(1, 2)], 4);
    // Eligibility shifted past release.
    assert!(std::panic::catch_unwind(|| sys.shifted(0, 1)).is_err());
    // Window shifted before time 0.
    assert!(std::panic::catch_unwind(|| sys.shifted(-1, -1)).is_err());
}

#[test]
fn overload_is_detected_not_hidden() {
    // The simulators never deadlock or drop subtasks on overload: they
    // place everything and the analyzers report the damage.
    let sys = release::periodic(&[(1, 1), (1, 1), (1, 1)], 6);
    assert!(!sys.is_feasible(2));
    let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
    assert_eq!(sched.placements().len(), sys.num_subtasks());
    let t = tardiness_stats(&sys, &sched);
    assert!(t.max.is_positive());
    // Structural invariants hold even when overloaded.
    assert!(check_structural(&sys, &sched).is_empty());
}

#[test]
fn trace_bundle_rejects_corrupt_json() {
    assert!(TraceBundle::from_json("{\"nonsense\": true}").is_err());
    assert!(TraceBundle::from_json("not json at all").is_err());
}
