//! Cross-check: the online heap-based scheduler must produce *exactly*
//! the schedule of the offline DVQ simulator on identical workloads.
//!
//! The two implementations share the window formulas and the event queue
//! (`pfair_numeric::EventQueue`) and nothing else — the offline simulator
//! pops the deadline-bucketed `BucketReady` queue of precomputed keys, the
//! online one a binary heap of `Pd2Key`s it derives per submitted job — so
//! agreement here certifies both the key encodings and the event-loop
//! semantics.
//!
//! Costs come in two regimes. On the generators' 720 720 grid neither
//! side's queue ever leaves tick mode. With some costs `k/17`, off that
//! grid, the online queue switches to exact rationals mid-run while the
//! offline run stays in ticks (`FixedCosts` hints a grid including 17) or
//! is exact from the start (`ExactOnly`); all must agree.

use std::collections::HashMap;

use pfair::prelude::*;
use pfair::workload::{random_weights, UniformCost};

/// Submits one periodic job stream per task and runs the online scheduler
/// with costs drawn from the same per-subtask map as the offline run.
fn run_online(
    weights: &[Weight],
    jobs_per_task: u64,
    costs: &HashMap<(u32, u64), Rat>,
    m: u32,
) -> Vec<OnlineAssignment> {
    let mut s = OnlineDvq::new(m);
    let ids: Vec<TaskId> = weights.iter().map(|&w| s.add_task(w)).collect();
    for (&t, &w) in ids.iter().zip(weights) {
        for j in 0..jobs_per_task {
            s.submit_job(t, j as i64 * w.p()).unwrap();
        }
    }
    s.run_until_idle(&mut |task, index| costs.get(&(task.0, index)).copied().unwrap_or(Rat::ONE))
}

/// Builds the equivalent offline system (periodic, same job count).
fn offline_system(weights: &[Weight], jobs_per_task: u64) -> TaskSystem {
    let mut b = TaskSystemBuilder::new();
    for &w in weights {
        let t = b.add_task(w);
        for i in 1..=jobs_per_task * w.e() as u64 {
            b.push(t, i, 0, None).unwrap();
        }
    }
    b.build()
}

/// Per-subtask costs: on the 720 720 grid, or with every fourth subtask
/// costing `k/17` instead.
#[derive(Clone, Copy, Debug)]
enum Costs {
    Grid,
    OffGrid,
}

fn check_equivalence(weights: &[Weight], jobs: u64, m: u32, seed: u64) {
    for costs in [Costs::Grid, Costs::OffGrid] {
        check_equivalence_with(weights, jobs, m, seed, costs);
    }
}

fn check_equivalence_with(weights: &[Weight], jobs: u64, m: u32, seed: u64, costs: Costs) {
    let sys = offline_system(weights, jobs);
    // Draw per-subtask costs once, deterministically.
    let mut draw = UniformCost::new(Rat::new(1, 3), seed);
    let mut cost_map: HashMap<(u32, u64), Rat> = HashMap::new();
    for (k, (st, s)) in sys.iter_refs().enumerate() {
        let mut c = draw.cost(&sys, st);
        if matches!(costs, Costs::OffGrid) && k % 4 == 1 {
            c = Rat::new(1 + (seed as i64 + k as i64) % 16, 17);
        }
        cost_map.insert((s.id.task.0, s.id.index), c);
    }
    let mut offline_costs = FixedCosts::new(Rat::ONE);
    for (&(task, index), &c) in &cost_map {
        offline_costs.set(
            SubtaskId {
                task: TaskId(task),
                index,
            },
            c,
        );
    }

    let online = run_online(weights, jobs, &cost_map, m);
    assert_eq!(online.len(), sys.num_subtasks(), "assignment counts differ");
    let ticked = simulate_dvq(&sys, m, &Pd2, &mut offline_costs.clone());
    let exact = simulate_dvq(&sys, m, &Pd2, &mut ExactOnly(&mut offline_costs));
    for (offline, tier) in [(ticked, "FixedCosts"), (exact, "ExactOnly")] {
        check_log(&sys, &online, &offline, seed, costs, tier);
    }
}

fn check_log(
    sys: &TaskSystem,
    online: &[OnlineAssignment],
    offline: &Schedule,
    seed: u64,
    costs: Costs,
    tier: &str,
) {
    for a in online {
        let st = sys
            .find(SubtaskId {
                task: a.task,
                index: a.index,
            })
            .expect("subtask exists offline");
        assert_eq!(
            a.start,
            offline.start(st),
            "start of T{}_{} differs (seed {seed}, {costs:?} costs, {tier})",
            a.task.0,
            a.index
        );
        assert_eq!(
            a.proc,
            offline.placement(st).proc,
            "processor of T{}_{} differs (seed {seed}, {costs:?} costs, {tier})",
            a.task.0,
            a.index
        );
        assert_eq!(a.deadline, sys.subtask(st).deadline);
    }
}

#[test]
fn online_matches_offline_on_fig2_set() {
    let weights: Vec<Weight> = [(1i64, 6i64), (1, 6), (1, 6), (1, 2), (1, 2), (1, 2)]
        .iter()
        .map(|&(e, p)| Weight::new(e, p))
        .collect();
    for seed in 0..5 {
        check_equivalence(&weights, 2, 2, seed);
    }
}

#[test]
fn online_matches_offline_on_random_systems() {
    for m in [2u32, 3, 4] {
        for seed in 0..6u64 {
            let ws = random_weights(&TaskGenConfig::full(m, 8), 60_000 + seed);
            check_equivalence(&ws, 2, m, seed);
        }
    }
}

#[test]
fn online_bound_holds_on_sporadic_arrivals() {
    // Sporadic (late) arrivals with early yields: Theorem 3's bound must
    // hold for the online scheduler directly.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut s = OnlineDvq::new(3);
    let weights = [
        Weight::new(1, 2),
        Weight::new(2, 3),
        Weight::new(3, 4),
        Weight::new(1, 3),
        Weight::new(1, 4),
    ];
    let ids: Vec<TaskId> = weights.iter().map(|&w| s.add_task(w)).collect();
    for (&t, &w) in ids.iter().zip(&weights) {
        let mut at = rng.gen_range(0..3);
        for _ in 0..5 {
            s.submit_job(t, at).unwrap();
            at += w.p() + rng.gen_range(0..3i64); // sporadic slack
        }
    }
    let delta = Rat::new(1, 64);
    let log = s.run_until_idle(&mut |_, _| {
        if rng.gen_bool(0.6) {
            Rat::ONE - delta
        } else {
            Rat::ONE
        }
    });
    let expected: u64 = weights.iter().map(|w| 5 * w.e() as u64).sum();
    assert_eq!(log.len() as u64, expected); // Σ jobs × e per task
    let mut max_tard = Rat::ZERO;
    for a in &log {
        let t = (a.start + a.cost - Rat::int(a.deadline)).max(Rat::ZERO);
        max_tard = max_tard.max(t);
    }
    assert!(max_tard <= Rat::ONE, "online tardiness {max_tard}");
}
