//! Keyed dispatch must be invisible: the simulators' precomputed-key fast
//! paths (`pfair_core::key`) have to reproduce the comparator paths
//! schedule-for-schedule — same subtasks, same processors, same (rational)
//! start times — on the paper's golden traces and on random GIS systems.
//! `ComparatorOnly` forces the fallback path for the same order, so each
//! test literally runs both implementations and diffs the placements.

use pfair::prelude::*;
use pfair::workload::{random_weights, releasegen};
use proptest::prelude::*;

/// The task set of Figs. 2 and 6 (A–C at weight 1/6, D–F at 1/2, M = 2).
fn fig2_system() -> TaskSystem {
    release::periodic_named(
        &[
            ("A", 1, 6),
            ("B", 1, 6),
            ("C", 1, 6),
            ("D", 1, 2),
            ("E", 1, 2),
            ("F", 1, 2),
        ],
        6,
    )
}

/// The reconstructed predecessor-blocking instance of Fig. 3 (M = 3).
fn fig3_system() -> TaskSystem {
    use pfair::taskmodel::release::{structured, ReleaseSpec};
    structured(
        &[
            ReleaseSpec::periodic("A", 1, 84),
            ReleaseSpec {
                name: "B",
                e: 1,
                p: 3,
                delays: &[],
                drops: &[],
                early: 1,
            },
            ReleaseSpec::periodic("C", 1, 2),
            ReleaseSpec::periodic("D", 2, 3),
            ReleaseSpec::periodic("E", 2, 3),
            ReleaseSpec::periodic("F", 3, 4),
        ],
        6,
    )
    .unwrap()
}

/// Fig. 2(b)'s cost model: A_1 and F_1 yield δ = 1/4 early.
fn fig2b_costs() -> FixedCosts {
    let delta = Rat::new(1, 4);
    FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta)
}

/// Fig. 3's cost model: E_2 and F_3 yield δ = 1/4 early.
fn fig3_costs() -> FixedCosts {
    let delta = Rat::new(1, 4);
    FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta)
        .with(TaskId(5), 3, Rat::ONE - delta)
}

/// Asserts the keyed (default) and comparator (forced) runs of both
/// simulators coincide placement-for-placement for `order` on `sys`.
fn assert_keyed_matches_comparator(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    mk_cost: &dyn Fn() -> FixedCosts,
) {
    let fallback = ComparatorOnly(order);
    assert_eq!(fallback.key_dispatch(), KeyDispatch::Comparator);

    let keyed_dvq = simulate_dvq(sys, m, order, &mut mk_cost());
    let comp_dvq = simulate_dvq(sys, m, &fallback, &mut mk_cost());
    assert_same_schedule(sys, &keyed_dvq, &comp_dvq, order.name(), "DVQ");

    let keyed_sfq = simulate_sfq(sys, m, order, &mut mk_cost());
    let comp_sfq = simulate_sfq(sys, m, &fallback, &mut mk_cost());
    assert_same_schedule(sys, &keyed_sfq, &comp_sfq, order.name(), "SFQ");
}

fn assert_same_schedule(
    sys: &TaskSystem,
    keyed: &Schedule,
    comparator: &Schedule,
    order: &str,
    model: &str,
) {
    assert_eq!(
        keyed.placements().len(),
        comparator.placements().len(),
        "{order}/{model}: placement counts differ"
    );
    for (a, b) in keyed.placements().iter().zip(comparator.placements()) {
        assert_eq!(
            (a.st, a.proc, a.start, a.cost, a.holds_until),
            (b.st, b.proc, b.start, b.cost, b.holds_until),
            "{order}/{model}: {:?} diverges",
            sys.subtask(a.st).id
        );
    }
}

#[test]
fn fig2_golden_traces_identical_under_keyed_dispatch() {
    let sys = fig2_system();
    for alg in [Algorithm::Epdf, Algorithm::Pd2, Algorithm::Pd] {
        assert_keyed_matches_comparator(&sys, 2, alg.order(), &|| FixedCosts::new(Rat::ONE));
        assert_keyed_matches_comparator(&sys, 2, alg.order(), &fig2b_costs);
    }
}

#[test]
fn fig2b_keyed_dvq_reproduces_the_paper_trace() {
    // Belt and braces on top of tests/figures.rs: the keyed default path
    // hits the exact Fig. 2(b) numbers, including F_2's 1 − δ miss.
    let sys = fig2_system();
    let sched = simulate_dvq(&sys, 2, &Pd2, &mut fig2b_costs());
    let delta = Rat::new(1, 4);
    let b1 = sys
        .find(SubtaskId {
            task: TaskId(1),
            index: 1,
        })
        .unwrap();
    assert_eq!(sched.start(b1), Rat::int(2) - delta);
    let stats = tardiness_stats(&sys, &sched);
    assert_eq!(stats.max, Rat::ONE - delta);
}

#[test]
fn fig3_golden_traces_identical_under_keyed_dispatch() {
    let sys = fig3_system();
    for alg in [Algorithm::Epdf, Algorithm::Pd2, Algorithm::Pd] {
        assert_keyed_matches_comparator(&sys, 3, alg.order(), &fig3_costs);
    }
    // The predecessor-blocking event survives the keyed path.
    let sched = simulate_dvq(&sys, 3, &Pd2, &mut fig3_costs());
    let b2 = sys
        .find(SubtaskId {
            task: TaskId(1),
            index: 2,
        })
        .unwrap();
    let events = detect_blocking(&sys, &sched, &Pd2);
    let ev = events.iter().find(|e| e.victim == b2).expect("B_2 blocked");
    assert_eq!(ev.kind, BlockingKind::Predecessor);
}

#[test]
fn fig6_shifted_system_identical_under_keyed_dispatch() {
    // Fig. 6(b): the right-shifted τ of the Fig. 2 set; PD² keyed vs
    // comparator, and the containment result itself.
    let tau = fig2_system().shifted(1, 1);
    assert_keyed_matches_comparator(&tau, 2, &Pd2, &|| FixedCosts::new(Rat::ONE));
    let sched = simulate_sfq(&tau, 2, &Pd2, &mut FullQuantum);
    assert!(check_window_containment(&tau, &sched).is_empty());
}

/// Asserts the integer-tick fast path (taken when the cost model hints its
/// denominator grid) and the exact-rational path ([`ExactOnly`] withholds
/// the hint) produce identical schedules under both event-driven models.
fn assert_tick_matches_exact(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    mk_cost: &dyn Fn() -> FixedCosts,
) {
    let mut fast_cost = mk_cost();
    assert!(
        fast_cost.denominator_hint().is_some(),
        "cost model must hint for the tick path to engage"
    );
    let fast_dvq = simulate_dvq(sys, m, order, &mut fast_cost);
    let exact_dvq = simulate_dvq(sys, m, order, &mut ExactOnly(&mut mk_cost()));
    assert_same_schedule(
        sys,
        &fast_dvq,
        &exact_dvq,
        order.name(),
        "DVQ tick-vs-exact",
    );

    let fast_stag = simulate_staggered(sys, m, order, &mut mk_cost());
    let exact_stag = simulate_staggered(sys, m, order, &mut ExactOnly(&mut mk_cost()));
    assert_same_schedule(
        sys,
        &fast_stag,
        &exact_stag,
        order.name(),
        "staggered tick-vs-exact",
    );
}

#[test]
fn fig2_tick_path_matches_exact_path() {
    let sys = fig2_system();
    for alg in [Algorithm::Epdf, Algorithm::Pd2, Algorithm::Pd] {
        assert_tick_matches_exact(&sys, 2, alg.order(), &|| FixedCosts::new(Rat::ONE));
        assert_tick_matches_exact(&sys, 2, alg.order(), &fig2b_costs);
    }
}

#[test]
fn fig3_tick_path_matches_exact_path() {
    let sys = fig3_system();
    for alg in [Algorithm::Epdf, Algorithm::Pd2, Algorithm::Pd] {
        assert_tick_matches_exact(&sys, 3, alg.order(), &fig3_costs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// KeyCache pairwise ordering matches each comparator on random GIS
    /// systems (random weights, IS delays, dropped subtasks, early
    /// releases).
    #[test]
    fn prop_keycache_matches_comparators_on_random_gis(seed in 0u64..10_000) {
        let ws = random_weights(&TaskGenConfig::full(4, 6), seed);
        let sys = releasegen::generate(&ws, &ReleaseConfig::gis(12), seed);
        prop_assume!(sys.num_subtasks() >= 2);
        let pd2 = KeyCache::<Pd2Key>::build(&sys);
        let epdf = KeyCache::<EpdfKey>::build(&sys);
        let pd = KeyCache::<PdKey>::build(&sys);
        for (a, _) in sys.iter_refs() {
            for (b, _) in sys.iter_refs() {
                prop_assert_eq!(pd2.key(a).cmp(&pd2.key(b)), Pd2.cmp(&sys, a, b));
                prop_assert_eq!(epdf.key(a).cmp(&epdf.key(b)), Epdf.cmp(&sys, a, b));
                prop_assert_eq!(pd.key(a).cmp(&pd.key(b)), Pd.cmp(&sys, a, b));
            }
        }
    }

    /// Keyed and comparator schedules coincide on random GIS systems under
    /// early-yield costs, for all three keyed orders and both simulators.
    #[test]
    fn prop_keyed_schedules_match_on_random_gis(seed in 0u64..10_000) {
        let ws = random_weights(&TaskGenConfig::full(3, 5), seed);
        let sys = releasegen::generate(&ws, &ReleaseConfig::gis(10), seed);
        prop_assume!(sys.num_subtasks() >= 2);
        for alg in [Algorithm::Epdf, Algorithm::Pd2, Algorithm::Pd] {
            let order = alg.order();
            let fallback = ComparatorOnly(order);
            // A deterministic early-yield pattern keyed off the subtask id.
            let mk = || {
                let mut c = FixedCosts::new(Rat::ONE);
                for (_, s) in sys.iter_refs() {
                    if (s.id.index + u64::from(s.id.task.0)) % 3 == 0 {
                        c = c.with(s.id.task, s.id.index, Rat::new(3, 4));
                    }
                }
                c
            };
            let kd = simulate_dvq(&sys, 3, order, &mut mk());
            let cd = simulate_dvq(&sys, 3, &fallback, &mut mk());
            prop_assert_eq!(kd.placements().len(), cd.placements().len());
            for (a, b) in kd.placements().iter().zip(cd.placements()) {
                prop_assert_eq!(
                    (a.st, a.proc, a.start, a.cost),
                    (b.st, b.proc, b.start, b.cost)
                );
            }
            let ks = simulate_sfq(&sys, 3, order, &mut mk());
            let cs = simulate_sfq(&sys, 3, &fallback, &mut mk());
            for (a, b) in ks.placements().iter().zip(cs.placements()) {
                prop_assert_eq!((a.st, a.proc, a.start), (b.st, b.proc, b.start));
            }
        }
    }

    /// The integer-tick fast path is invisible on random GIS systems: with
    /// the hint engaged and withheld (`ExactOnly`), DVQ and staggered
    /// schedules coincide for all three keyed orders.
    #[test]
    fn prop_tick_path_matches_exact_on_random_gis(seed in 0u64..10_000) {
        let ws = random_weights(&TaskGenConfig::full(3, 5), seed);
        let sys = releasegen::generate(&ws, &ReleaseConfig::gis(10), seed);
        prop_assume!(sys.num_subtasks() >= 2);
        let mk = || {
            let mut c = FixedCosts::new(Rat::ONE);
            for (_, s) in sys.iter_refs() {
                match (s.id.index + u64::from(s.id.task.0)) % 4 {
                    0 => c = c.with(s.id.task, s.id.index, Rat::new(3, 4)),
                    2 => c = c.with(s.id.task, s.id.index, Rat::new(5, 6)),
                    _ => {}
                }
            }
            c
        };
        for alg in [Algorithm::Epdf, Algorithm::Pd2, Algorithm::Pd] {
            let order = alg.order();
            let fd = simulate_dvq(&sys, 3, order, &mut mk());
            let ed = simulate_dvq(&sys, 3, order, &mut ExactOnly(&mut mk()));
            prop_assert_eq!(fd.placements(), ed.placements());
            let fs = simulate_staggered(&sys, 3, order, &mut mk());
            let es = simulate_staggered(&sys, 3, order, &mut ExactOnly(&mut mk()));
            prop_assert_eq!(fs.placements(), es.placements());
        }
    }
}
