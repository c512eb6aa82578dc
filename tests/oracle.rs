//! Cross-validation of the max-flow schedulability oracle against the
//! PD² simulator — two independent implementations of §2's feasibility
//! claim that must agree.

use std::collections::HashMap;

use pfair::analysis::schedulability::{flow_schedulable, WindowMode};
use pfair::prelude::*;
use pfair::workload::{random_weights, releasegen};

/// The paper's worst-case PD^B engine.
const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

fn random_feasible(m: u32, seed: u64, horizon: i64) -> TaskSystem {
    let ws = random_weights(&TaskGenConfig::full(m, 10), seed);
    releasegen::generate(&ws, &ReleaseConfig::periodic(horizon), seed)
}

#[test]
fn oracle_and_pd2_agree_on_feasible_systems() {
    for m in [2u32, 3, 4] {
        for seed in 0..12u64 {
            let sys = random_feasible(m, 10_000 + seed, 20);
            let fs = flow_schedulable(&sys, m, WindowMode::PfWindow);
            assert!(
                fs.schedulable,
                "m={m} seed={seed}: oracle rejected a feasible system"
            );
            let sched = simulate_sfq(&sys, m, &Pd2, &mut FullQuantum);
            assert!(
                check_window_containment(&sys, &sched).is_empty(),
                "m={m} seed={seed}: PD² missed on an oracle-accepted system"
            );
        }
    }
}

#[test]
fn oracle_witness_is_a_valid_windowed_schedule() {
    for seed in 0..8u64 {
        let sys = random_feasible(3, 20_000 + seed, 16);
        let fs = flow_schedulable(&sys, 3, WindowMode::PfWindow);
        assert!(fs.schedulable);
        let mut per_slot: HashMap<i64, usize> = HashMap::new();
        let mut per_task_slot: HashMap<(u32, i64), usize> = HashMap::new();
        assert_eq!(fs.assignment.len(), sys.num_subtasks());
        for (st, t) in &fs.assignment {
            let s = sys.subtask(*st);
            assert!(s.release <= *t && *t < s.deadline);
            *per_slot.entry(*t).or_default() += 1;
            *per_task_slot.entry((s.id.task.0, *t)).or_default() += 1;
        }
        assert!(per_slot.values().all(|&k| k <= 3));
        assert!(per_task_slot.values().all(|&k| k == 1));
    }
}

#[test]
fn oracle_rejects_overload_where_pd2_misses() {
    // util = m + 1/2 on m processors: infeasible; both the oracle and the
    // simulator must flag it (on a horizon long enough for the overload to
    // bite).
    for m in [1u32, 2, 3] {
        let mut weights: Vec<(i64, i64)> = vec![(1, 1); m as usize];
        weights.push((1, 2));
        let sys = release::periodic(&weights, 8);
        assert!(sys.utilization() > Rat::int(i64::from(m)));
        let fs = flow_schedulable(&sys, m, WindowMode::PfWindow);
        assert!(!fs.schedulable, "m={m}");
        let sched = simulate_sfq(&sys, m, &Pd2, &mut FullQuantum);
        assert!(!check_window_containment(&sys, &sched).is_empty(), "m={m}");
    }
}

#[test]
fn oracle_accepts_every_k_compliant_system() {
    // The Lemma 6 walk, revalidated by the independent oracle (IS-window
    // mode: k-compliant systems are early-released).
    let sys_b = release::periodic_named(
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
    let sched_b = run(PDB, &sys_b, 2, &mut FullQuantum, &mut NoopObserver);
    let order = ranks(&sched_b);
    for k in 0..=sys_b.num_subtasks() {
        let tau_k = k_compliant_system(&sys_b, &order, k);
        assert!(
            flow_schedulable(&tau_k, 2, WindowMode::PfWindow).schedulable,
            "τ^{k} rejected by oracle"
        );
    }
}

#[test]
fn oracle_handles_gis_drops_and_delays() {
    for seed in 0..8u64 {
        let ws = random_weights(&TaskGenConfig::full(3, 10), 30_000 + seed);
        let sys = releasegen::generate(
            &ws,
            &ReleaseConfig {
                kind: ReleaseKind::Gis,
                horizon: 20,
                delay_percent: 20,
                drop_percent: 10,
                early: 0,
                max_join: 0,
            },
            seed,
        );
        assert!(
            flow_schedulable(&sys, 3, WindowMode::PfWindow).schedulable,
            "seed={seed}"
        );
    }
}
