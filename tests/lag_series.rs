//! `lag_series` pinned to the definition: on the SFQ and DVQ schedules of
//! a few hundred campaign-generated cases, with the cases' own cost models
//! (GRID-resolution draws among them), every entry of the one-pass series
//! equals the single-slot `total_lag`, by exact rational equality, and
//! `max_lag_over_slots` is the maximum of the series through the horizon.
//! The series runs a few slots past the horizon, where tardy DVQ quanta
//! are still in flight.

use pfair::analysis::{lag_series, max_lag_over_slots, total_lag};
use pfair::conformance::{generate_case, Case, GenConfig};
use pfair::prelude::*;

/// Campaign seeds swept.
const CASES: u64 = 300;

/// Slots evaluated beyond the horizon.
const PAST_HORIZON: i64 = 3;

#[test]
fn lag_series_is_total_lag_at_every_slot() {
    let mut saw_beyond_i64 = false;
    for seed in 0..CASES {
        let spec = generate_case(&GenConfig::default(), seed);
        let m = spec.m;
        let case = Case::build(spec).expect("generated spec builds");
        let sys = &case.sys;
        let h = sys.horizon();
        let last = h + PAST_HORIZON;
        let schedules = [
            ("sfq", simulate_sfq(sys, m, &Pd2, &mut case.cost_model())),
            ("dvq", simulate_dvq(sys, m, &Pd2, &mut case.cost_model())),
        ];
        for (label, sched) in &schedules {
            let series = lag_series(sys, sched, last);
            assert_eq!(
                series.len(),
                usize::try_from(last + 1).unwrap(),
                "seed {seed} / {label}: series covers slots 0..={last}"
            );
            for (t, &l) in (0..).zip(&series) {
                assert_eq!(
                    l,
                    total_lag(sys, sched, Rat::int(t)),
                    "seed {seed} / {label}: LAG at slot {t}"
                );
                saw_beyond_i64 |= l.den() > i128::from(i64::MAX);
            }
            let through_h = &series[..=usize::try_from(h).unwrap()];
            assert_eq!(
                max_lag_over_slots(sys, sched, h),
                through_h.iter().copied().max().unwrap(),
                "seed {seed} / {label}: max LAG over [0, {h}]"
            );
        }
    }
    assert!(
        saw_beyond_i64,
        "no case produced a lag denominator beyond i64 — the sweep lost its GRID witness"
    );
}

#[test]
fn lag_series_before_slot_zero_is_empty() {
    let spec = generate_case(&GenConfig::default(), 0);
    let m = spec.m;
    let case = Case::build(spec).expect("generated spec builds");
    let sched = simulate_sfq(&case.sys, m, &Pd2, &mut case.cost_model());
    assert!(lag_series(&case.sys, &sched, -1).is_empty());
    assert_eq!(max_lag_over_slots(&case.sys, &sched, -1), Rat::ZERO);
}
