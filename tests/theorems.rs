//! Statistical validation of the paper's theorems over randomized
//! workloads (experiments E1–E4 and E6 of DESIGN.md).
//!
//! Each test sweeps randomly generated *feasible* GIS task systems through
//! the relevant simulator and asserts the theorem's bound on every trial.
//! The heavy-duty sweeps (more processors, more trials) live in the bench
//! harness; these are the always-on regression versions.

use pfair::prelude::*;
use pfair::workload::experiment::CostKind;

/// The paper's worst-case PD^B engine.
const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

fn cfg(
    m: u32,
    model: ModelKind,
    cost: CostKind,
    release: ReleaseConfig,
    trials: usize,
    base_seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        m,
        algorithm: pfair::core::Algorithm::Pd2,
        model,
        taskgen: TaskGenConfig {
            target_util: Rat::int(i64::from(m)),
            max_period: 12,
            dist: WeightDist::Uniform,
            fill_exact: true,
        },
        release,
        cost,
        trials,
        base_seed,
    }
}

const THREADS: usize = 4;

// ------------------------------------------------------------ Theorem 3
// PD² under the DVQ model: tardiness ≤ one quantum for every feasible GIS
// system.

#[test]
fn thm3_dvq_pd2_tardiness_at_most_one_uniform_costs() {
    for m in [2u32, 4, 8] {
        let c = cfg(
            m,
            ModelKind::Dvq,
            CostKind::Uniform {
                min: Rat::new(1, 4),
            },
            ReleaseConfig::periodic(24),
            30,
            7_000 + u64::from(m),
        );
        let sweep = run_sweep(&c, THREADS);
        assert!(
            sweep.max_tardiness() <= Rat::ONE,
            "m = {m}: max tardiness {} exceeds one quantum",
            sweep.max_tardiness()
        );
    }
}

#[test]
fn thm3_dvq_pd2_tardiness_at_most_one_adversarial_costs() {
    // Near-boundary yields (1 − δ) maximize the blocking windows.
    for m in [2u32, 4] {
        let c = cfg(
            m,
            ModelKind::Dvq,
            CostKind::Adversarial {
                delta: Rat::new(1, 128),
                yield_percent: 70,
            },
            ReleaseConfig::periodic(24),
            30,
            11_000 + u64::from(m),
        );
        let sweep = run_sweep(&c, THREADS);
        assert!(sweep.max_tardiness() <= Rat::ONE, "m = {m}");
        // The adversarial regime does produce inversions — the bound is
        // not holding vacuously.
        assert!(sweep.total_blocking_events() > 0);
    }
}

#[test]
fn thm3_dvq_pd2_tardiness_at_most_one_gis_releases() {
    // The theorem covers every feasible GIS system: delays + drops + a
    // bimodal heavy/light mix.
    let mut c = cfg(
        4,
        ModelKind::Dvq,
        CostKind::Bimodal {
            full_percent: 60,
            low: Rat::new(1, 3),
        },
        ReleaseConfig {
            kind: ReleaseKind::Gis,
            horizon: 24,
            delay_percent: 15,
            drop_percent: 10,
            early: 0,
            max_join: 0,
        },
        40,
        23_000,
    );
    c.taskgen.dist = WeightDist::Bimodal { heavy_percent: 40 };
    let sweep = run_sweep(&c, THREADS);
    assert!(sweep.max_tardiness() <= Rat::ONE);
}

#[test]
fn thm3_bound_not_vacuous_misses_do_occur() {
    // The DVQ model genuinely misses deadlines under PD² (that is why the
    // theorem is interesting): across an adversarial sweep at full
    // utilization, at least one trial must show positive tardiness.
    let c = cfg(
        2,
        ModelKind::Dvq,
        CostKind::Adversarial {
            delta: Rat::new(1, 128),
            yield_percent: 80,
        },
        ReleaseConfig::periodic(24),
        40,
        31_000,
    );
    let sweep = run_sweep(&c, THREADS);
    assert!(sweep.total_misses() > 0, "expected some DVQ misses");
    assert!(sweep.max_tardiness() <= Rat::ONE);
    assert!(sweep.max_tardiness().is_positive());
}

#[test]
fn thm3_holds_with_dynamic_joins() {
    // Tasks joining at staggered times (dynamic task arrival, expressed
    // as initial IS offsets) stay within the bound.
    let c = cfg(
        4,
        ModelKind::Dvq,
        CostKind::Adversarial {
            delta: Rat::new(1, 64),
            yield_percent: 60,
        },
        ReleaseConfig {
            kind: ReleaseKind::IntraSporadic,
            horizon: 28,
            delay_percent: 10,
            drop_percent: 0,
            early: 0,
            max_join: 8,
        },
        30,
        37_000,
    );
    let sweep = run_sweep(&c, THREADS);
    assert!(sweep.max_tardiness() <= Rat::ONE);
}

// ------------------------------------------------------------ Theorem 2
// PD^B under the SFQ model: tardiness ≤ one quantum.

#[test]
fn thm2_pdb_tardiness_at_most_one() {
    for m in [2u32, 4, 8] {
        let c = cfg(
            m,
            ModelKind::SfqPdb,
            CostKind::Full,
            ReleaseConfig::periodic(24),
            30,
            43_000 + u64::from(m),
        );
        let sweep = run_sweep(&c, THREADS);
        assert!(
            sweep.max_tardiness() <= Rat::ONE,
            "m = {m}: PD^B exceeded one quantum"
        );
    }
}

#[test]
fn thm2_pdb_bound_is_attained() {
    // Fig. 6(a): the bound is tight — the Fig. 2 set attains exactly one
    // quantum of tardiness under PD^B.
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
    let sched = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
    assert_eq!(tardiness_stats(&sys, &sched).max, Rat::ONE);
}

// ------------------------------------------------ E3: PD² SFQ optimality

#[test]
fn pd2_optimal_under_sfq_periodic() {
    for m in [2u32, 4, 8] {
        let c = cfg(
            m,
            ModelKind::Sfq,
            CostKind::Full,
            ReleaseConfig::periodic(24),
            30,
            59_000 + u64::from(m),
        );
        let sweep = run_sweep(&c, THREADS);
        assert_eq!(
            sweep.max_tardiness(),
            Rat::ZERO,
            "m = {m}: PD² missed a deadline under SFQ"
        );
        assert_eq!(sweep.total_blocking_events(), 0);
    }
}

#[test]
fn pd2_optimal_under_sfq_gis() {
    let c = cfg(
        4,
        ModelKind::Sfq,
        CostKind::Full,
        ReleaseConfig {
            kind: ReleaseKind::Gis,
            horizon: 24,
            delay_percent: 15,
            drop_percent: 10,
            early: 0,
            max_join: 0,
        },
        40,
        61_000,
    );
    let sweep = run_sweep(&c, THREADS);
    assert_eq!(sweep.max_tardiness(), Rat::ZERO);
}

#[test]
fn pf_and_pd_also_optimal_under_sfq() {
    for alg in [pfair::core::Algorithm::Pf, pfair::core::Algorithm::Pd] {
        let mut c = cfg(
            4,
            ModelKind::Sfq,
            CostKind::Full,
            ReleaseConfig::periodic(20),
            20,
            67_000,
        );
        c.algorithm = alg;
        let sweep = run_sweep(&c, THREADS);
        assert_eq!(sweep.max_tardiness(), Rat::ZERO, "{alg} missed under SFQ");
    }
}

// --------------------------- E4: suboptimal algorithms worsen by ≤ 1 only

#[test]
fn epdf_dvq_at_most_one_quantum_worse_than_sfq() {
    // "tardiness bounds guaranteed by previously-proposed suboptimal Pfair
    // algorithms are worsened by at most one quantum": per trial, compare
    // EPDF's max tardiness under DVQ against the same system under SFQ.
    for m in [4u32, 8] {
        for trial in 0..15u64 {
            let base = cfg(
                m,
                ModelKind::Sfq,
                CostKind::Full,
                ReleaseConfig::periodic(20),
                1,
                71_000 + trial * 131 + u64::from(m),
            );
            let seed = base.base_seed;
            let sys = pfair::workload::experiment::make_system(&base, seed);
            let sfq = simulate_sfq(&sys, m, &Epdf, &mut FullQuantum);
            let mut adv = AdversarialYield::new(Rat::new(1, 128), 70, seed);
            let dvq = simulate_dvq(&sys, m, &Epdf, &mut adv);
            let t_sfq = tardiness_stats(&sys, &sfq).max;
            let t_dvq = tardiness_stats(&sys, &dvq).max;
            assert!(
                t_dvq <= t_sfq + Rat::ONE,
                "m = {m} seed {seed}: EPDF DVQ {t_dvq} vs SFQ {t_sfq}"
            );
        }
    }
}

// ------------------------------------------------------- E6: tightness

#[test]
fn tightness_tardiness_approaches_one() {
    // The Fig. 2 family shows max tardiness 1 − δ for every δ > 0, so the
    // Theorem 3 bound of one quantum is tight.
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
    let mut last = Rat::ZERO;
    for den in [4i64, 16, 256, 65_536] {
        let delta = Rat::new(1, den);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let max = tardiness_stats(&sys, &sched).max;
        assert_eq!(max, Rat::ONE - delta);
        assert!(max > last);
        last = max;
    }
}

// ------------------------------------- structural sanity on every model

#[test]
fn all_models_produce_structurally_valid_schedules() {
    for model in [
        ModelKind::Sfq,
        ModelKind::Dvq,
        ModelKind::Staggered,
        ModelKind::SfqPdb,
    ] {
        let c = cfg(
            3,
            model,
            CostKind::Uniform {
                min: Rat::new(1, 2),
            },
            ReleaseConfig::gis(20),
            10,
            83_000,
        );
        for k in 0..c.trials as u64 {
            let seed = c.base_seed + k;
            let sys = pfair::workload::experiment::make_system(&c, seed);
            let mut cost = UniformCost::new(Rat::new(1, 2), seed);
            let sched = pfair::workload::experiment::simulate(&c, &sys, &mut cost);
            let errors = check_structural(&sys, &sched);
            assert!(errors.is_empty(), "{model}: {errors:?}");
        }
    }
}
