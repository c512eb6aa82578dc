//! Differential equivalence of the streaming observers and the post-hoc
//! analyses: over hundreds of seeded random task systems (periodic,
//! sporadic, intra-sporadic and GIS releases alike), under every
//! [`Engine`] variant and several actual-cost regimes, the metrics produced
//! *during* the run by [`LagObserver`], [`MetricsObserver`] and
//! [`BlockingObserver`] must agree — by exact rational equality, never a
//! tolerance — with `pfair-analysis` recomputing the same quantities from
//! the finished [`Schedule`], and attaching them must not change the
//! schedule an unobserved run produces.
//!
//! The broad sweeps run small-denominator (≤ 8) cost regimes; a dedicated
//! regression drives the GRID-resolution (denominator 720720) cost model
//! whose lag sums exceeded the old i64-backed `Rat` outright — the
//! i128-backed `Rat` now carries them exactly, so the same rational
//! equality holds with no representability carve-out anywhere.

use pfair::analysis::{max_lag_over_slots, tardiness_histogram, total_lag};
use pfair::conformance::{generate_case, Case, GenConfig};
use pfair::obs::DEFAULT_BUCKETS;
use pfair::prelude::*;

/// Seeded systems per engine sweep. Together with three cost regimes each
/// this crosses well over the 500-system floor the suite promises.
const SYSTEMS: u64 = 600;

/// The actual-cost regimes each system runs under. All denominators are
/// ≤ 8, keeping exact lag arithmetic far from `Rat` overflow.
fn regimes(seed: u64) -> Vec<(&'static str, Box<dyn CostModel>)> {
    vec![
        ("full-quantum", Box::new(FullQuantum)),
        ("scaled-5/8", Box::new(ScaledCost(Rat::new(5, 8)))),
        (
            "adversarial-1/8",
            Box::new(AdversarialYield::new(
                Rat::new(1, 8),
                60,
                seed ^ 0x0b5e_711e,
            )),
        ),
    ]
}

fn system_for(seed: u64) -> (TaskSystem, u32) {
    let spec = generate_case(&GenConfig::default(), seed);
    let m = spec.m;
    (Case::build(spec).expect("generated spec builds").sys, m)
}

/// Checks every streaming-vs-post-hoc relation for one finished run.
fn assert_run_agrees(
    ctx: &str,
    sys: &TaskSystem,
    sched: &Schedule,
    mut lag: LagObserver,
    metrics: &MetricsObserver,
    yardstick: &dyn PriorityOrder,
    records: Vec<BlockingRecord>,
) {
    let h = sys.horizon();
    lag.finish(h);
    assert_eq!(
        lag.series().len(),
        usize::try_from(h + 1).unwrap(),
        "{ctx}: lag series covers slots 0..={h}"
    );
    for &(t, l) in lag.series() {
        assert_eq!(
            l,
            total_lag(sys, sched, Rat::int(t)),
            "{ctx}: streaming LAG at slot {t}"
        );
    }
    assert_eq!(
        lag.max_lag(),
        max_lag_over_slots(sys, sched, h),
        "{ctx}: streaming max LAG"
    );

    let stats = tardiness_stats(sys, sched);
    assert_eq!(
        metrics.deadline_misses(),
        stats.misses as u64,
        "{ctx}: miss count"
    );
    assert_eq!(
        metrics.total_tardiness(),
        stats.total,
        "{ctx}: total tardiness"
    );
    assert_eq!(metrics.max_tardiness(), stats.max, "{ctx}: max tardiness");
    assert_eq!(
        metrics.worst(),
        stats.worst.map(|st| sys.subtask(st).id),
        "{ctx}: worst subtask"
    );
    let want_hist = tardiness_histogram(sys, sched, DEFAULT_BUCKETS);
    let got_hist: Vec<usize> = metrics.histogram().iter().map(|&c| c as usize).collect();
    assert_eq!(got_hist, want_hist, "{ctx}: tardiness histogram");

    {
        let posthoc = detect_blocking(sys, sched, yardstick);
        assert_eq!(
            records.len(),
            posthoc.len(),
            "{ctx}: inversion count (streaming victims {:?}, post-hoc {:?})",
            records.iter().map(|r| r.victim).collect::<Vec<_>>(),
            posthoc.iter().map(|e| e.victim).collect::<Vec<_>>(),
        );
        for (r, e) in records.iter().zip(&posthoc) {
            assert_eq!(r.victim, e.victim, "{ctx}: inversion victim");
            assert_eq!(r.ready_at, e.ready_at, "{ctx}: ready time");
            assert_eq!(r.scheduled_at, e.scheduled_at, "{ctx}: dispatch time");
            assert!(
                matches!(
                    (r.kind, e.kind),
                    (InversionKind::Eligibility, BlockingKind::Eligibility)
                        | (InversionKind::Predecessor, BlockingKind::Predecessor)
                ),
                "{ctx}: inversion kind {:?} vs {:?}",
                r.kind,
                e.kind
            );
            assert_eq!(r.blockers, e.blockers, "{ctx}: blocker set");
        }
    }
}

/// Regression for the former `Rat` overflow: on the generator's
/// GRID-resolution (720720) cost grid, DVQ lag terms `(t − start)/cost`
/// have near-coprime reduced denominators around `GRID · cost_numerator`,
/// and per-slot sums over a few straddling quanta exceed `i64` — the
/// i64-backed `Rat` panicked here, and the conformance invariant carried a
/// `den ≤ 32` carve-out to dodge it. The i128-backed `Rat` must carry the
/// full comparison exactly, and the sweep must actually visit beyond-i64
/// denominators (else this test guards nothing).
#[test]
fn grid_resolution_lag_agrees_exactly_beyond_i64() {
    let mut saw_beyond_i64 = false;
    for seed in 0..60u64 {
        let (sys, m) = system_for(seed);
        let mut cost = UniformCost::new(Rat::new(1, 4), seed ^ 0x9e37);
        let mut lag = LagObserver::new(&sys);
        let sched = simulate_dvq_observed(&sys, m, &Pd2, &mut cost, &mut lag);
        let h = sys.horizon();
        lag.finish(h);
        for &(t, l) in lag.series() {
            assert_eq!(
                l,
                total_lag(&sys, &sched, Rat::int(t)),
                "seed {seed}: streaming LAG at slot {t}"
            );
            saw_beyond_i64 |= l.den() > i128::from(i64::MAX);
        }
        assert_eq!(
            lag.max_lag(),
            max_lag_over_slots(&sys, &sched, h),
            "seed {seed}: streaming max LAG"
        );
    }
    assert!(
        saw_beyond_i64,
        "sweep never produced a lag denominator beyond i64 — the regression lost its witness"
    );
}

/// Runs each engine on the sweep's systems under every cost regime
/// (seeded with the system seed xor `salt`), observed and unobserved, and
/// checks the two schedules are equal and the streamed metrics agree with
/// the post-hoc analysis. BF runs only on boundary-periodic systems;
/// returns how many systems it ran on.
fn assert_engines_stream_posthoc(engines: &[(&str, Engine<'_>)], salt: u64) -> usize {
    let mut bf_systems = 0;
    for seed in 0..SYSTEMS {
        let (sys, m) = system_for(seed);
        for &(name, engine) in engines {
            if matches!(engine, Engine::Bf) {
                if !is_boundary_periodic(&sys) {
                    continue;
                }
                bf_systems += 1;
            }
            let yardstick = engine.order().unwrap_or(&Pd2);
            for ((regime, mut cost), (_, mut plain_cost)) in
                regimes(seed ^ salt).into_iter().zip(regimes(seed ^ salt))
            {
                let mut obs = (
                    LagObserver::new(&sys),
                    (
                        MetricsObserver::new(m),
                        BlockingObserver::new(&sys, yardstick),
                    ),
                );
                let sched = run(engine, &sys, m, cost.as_mut(), &mut obs);
                let ctx = format!("seed {seed} / {name} / {regime}");
                let plain = run(engine, &sys, m, plain_cost.as_mut(), &mut NoopObserver);
                assert_eq!(
                    (sched.model(), sched.m(), sched.placements()),
                    (plain.model(), plain.m(), plain.placements()),
                    "{ctx}: observed and unobserved schedules differ"
                );
                let (lag, (metrics, blocking)) = obs;
                let (records, _) = blocking.into_parts();
                assert_run_agrees(&ctx, &sys, &sched, lag, &metrics, yardstick, records);
            }
        }
    }
    bf_systems
}

/// The quantum-boundary engines: SFQ, its affine variant, PD^B under both
/// linearizations, and the staggered model.
#[test]
fn sfq_streaming_observers_match_posthoc_analysis() {
    assert_engines_stream_posthoc(
        &[
            ("sfq", Engine::Sfq(&Pd2)),
            ("sfq-affine", Engine::SfqAffine(&Pd2)),
            ("pdb-max", Engine::Pdb(PdbLinearization::MaxBlocking)),
            ("pdb-min", Engine::Pdb(PdbLinearization::MinBlocking)),
            ("staggered", Engine::Staggered(&Pd2)),
        ],
        0,
    );
}

#[test]
fn dvq_streaming_observers_match_posthoc_analysis() {
    assert_engines_stream_posthoc(&[("dvq", Engine::Dvq(&Pd2))], 0xd5c0);
}

/// The order-free engines, measured against PD².
#[test]
fn bf_and_flow_streaming_observers_match_posthoc_analysis() {
    let bf_systems =
        assert_engines_stream_posthoc(&[("bf", Engine::Bf), ("flow", Engine::Flow)], 0);
    assert!(
        bf_systems > 0,
        "no generated system was synchronous periodic: BF went unchecked"
    );
}
