//! Property-based cross-crate tests: the paper's bounds and the
//! simulators' structural invariants, under proptest-generated workloads.
//!
//! These complement `tests/theorems.rs` (fixed sweeps) by letting proptest
//! explore the input space — weights, release perturbations, cost
//! patterns — and shrink any counterexample it finds.

use proptest::collection::vec;
use proptest::prelude::*;

use pfair::prelude::*;
use pfair::workload::releasegen;

/// The paper's worst-case PD^B engine.
const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

/// Strategy: a feasible weight set for `m` processors (weights e/p with
/// p ≤ 8, total ≤ m).
fn weight_set(m: i64) -> impl Strategy<Value = Vec<Weight>> {
    vec((1i64..=8, 1i64..=8), 1..12).prop_map(move |pairs| {
        let mut total = Rat::ZERO;
        let mut out = Vec::new();
        for (a, b) in pairs {
            let (e, p) = if a <= b { (a, b) } else { (b, a) };
            let w = Weight::new(e, p);
            if total + w.as_rat() <= Rat::int(m) {
                total += w.as_rat();
                out.push(w);
            }
        }
        if out.is_empty() {
            out.push(Weight::new(1, 2));
        }
        out
    })
}

fn periodic_system(weights: &[Weight], horizon: i64) -> TaskSystem {
    let pairs: Vec<(i64, i64)> = weights.iter().map(|w| (w.e(), w.p())).collect();
    release::periodic(&pairs, horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PD² under SFQ misses nothing on any feasible periodic system.
    #[test]
    fn prop_pd2_sfq_optimal(ws in weight_set(3)) {
        let sys = periodic_system(&ws, 16);
        prop_assume!(sys.num_subtasks() > 0);
        let sched = simulate_sfq(&sys, 3, &Pd2, &mut FullQuantum);
        prop_assert!(check_window_containment(&sys, &sched).is_empty());
        prop_assert!(check_structural(&sys, &sched).is_empty());
    }

    /// Theorem 3 as a property: PD² under DVQ has tardiness ≤ 1 on any
    /// feasible system under any (seeded) cost pattern.
    #[test]
    fn prop_pd2_dvq_tardiness_at_most_one(ws in weight_set(3), seed in 0u64..1_000_000, min_num in 1i64..8) {
        let sys = periodic_system(&ws, 16);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(min_num, 8), seed);
        let sched = simulate_dvq(&sys, 3, &Pd2, &mut cost);
        let stats = tardiness_stats(&sys, &sched);
        prop_assert!(stats.max <= Rat::ONE, "tardiness {}", stats.max);
        prop_assert!(check_structural(&sys, &sched).is_empty());
    }

    /// Theorem 2 as a property: PD^B has tardiness ≤ 1.
    #[test]
    fn prop_pdb_tardiness_at_most_one(ws in weight_set(3)) {
        let sys = periodic_system(&ws, 16);
        prop_assume!(sys.num_subtasks() > 0);
        let sched = run(PDB, &sys, 3, &mut FullQuantum, &mut NoopObserver);
        let stats = tardiness_stats(&sys, &sched);
        prop_assert!(stats.max <= Rat::ONE, "tardiness {}", stats.max);
    }

    /// The staggered model is structurally sound and its quantum starts
    /// honour the fixed per-processor offsets.
    #[test]
    fn prop_staggered_structure(ws in weight_set(2), seed in 0u64..100_000) {
        let sys = periodic_system(&ws, 12);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(1, 2), seed);
        let sched = run(Engine::Staggered(&Pd2), &sys, 2, &mut cost, &mut NoopObserver);
        prop_assert!(check_structural(&sys, &sched).is_empty());
        for p in sched.placements() {
            prop_assert_eq!(p.start.fract(), Rat::new(i64::from(p.proc), 2));
        }
    }

    /// DVQ work conservation: whenever a subtask waits past its ready
    /// time, every processor is busy at the moment it became ready.
    #[test]
    fn prop_dvq_work_conserving(ws in weight_set(2), seed in 0u64..100_000) {
        let sys = periodic_system(&ws, 12);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(1, 2), seed);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut cost);
        for (st, s) in sys.iter_refs() {
            let ready = match s.pred {
                Some(p) => sched.completion(p).max(Rat::int(s.eligible)),
                None => Rat::int(s.eligible),
            };
            let start = sched.start(st);
            if start > ready {
                // Every processor busy at `ready` (strictly covering it).
                let busy = sched
                    .placements()
                    .iter()
                    .filter(|p| p.start <= ready && p.completion() > ready)
                    .count();
                prop_assert_eq!(busy, 2, "{:?} waited while a processor idled", s.id);
            }
        }
    }

    /// The DVQ completion of every subtask is never later than its SFQ
    /// completion... is NOT a theorem (inversions can delay subtasks), but
    /// the total work and busy time agree across models.
    #[test]
    fn prop_models_agree_on_total_work(ws in weight_set(2), seed in 0u64..100_000) {
        let sys = periodic_system(&ws, 12);
        prop_assume!(sys.num_subtasks() > 0);
        let mk = || UniformCost::new(Rat::new(1, 2), seed);
        let sfq = waste_stats(&simulate_sfq(&sys, 2, &Pd2, &mut mk()));
        let dvq = waste_stats(&simulate_dvq(&sys, 2, &Pd2, &mut mk()));
        let stag = waste_stats(&run(Engine::Staggered(&Pd2), &sys, 2, &mut mk(), &mut NoopObserver));
        prop_assert_eq!(sfq.busy, dvq.busy);
        prop_assert_eq!(sfq.busy, stag.busy);
        // DVQ reclaims all yield tails.
        prop_assert_eq!(dvq.wasted, Rat::ZERO);
    }

    /// Full costs collapse DVQ onto SFQ decisions.
    #[test]
    fn prop_full_costs_dvq_equals_sfq(ws in weight_set(3)) {
        let sys = periodic_system(&ws, 12);
        prop_assume!(sys.num_subtasks() > 0);
        let dvq = simulate_dvq(&sys, 3, &Pd2, &mut FullQuantum);
        let sfq = simulate_sfq(&sys, 3, &Pd2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            prop_assert_eq!(dvq.start(st), sfq.start(st));
        }
    }

    /// The Aligned/Olapped/Free classification is exhaustive and the S_B
    /// postponement never moves a quantum by a full slot or more.
    #[test]
    fn prop_classification_exhaustive(ws in weight_set(2), seed in 0u64..100_000) {
        let sys = periodic_system(&ws, 12);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(1, 4), seed);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut cost);
        let classes = classify_subtasks(&sched);
        prop_assert_eq!(classes.len(), sys.num_subtasks());
        for (st, postponed) in postpone_charged(&sched) {
            let shift = postponed - sched.start(st);
            prop_assert!(!shift.is_negative() && shift < Rat::ONE);
        }
    }

    /// Right-shifting windows preserves feasibility and utilization.
    #[test]
    fn prop_shift_preserves_feasibility(ws in weight_set(3), k in 1i64..4) {
        let sys = periodic_system(&ws, 12);
        let shifted = sys.shifted(k, k);
        prop_assert_eq!(shifted.utilization(), sys.utilization());
        prop_assert_eq!(shifted.num_subtasks(), sys.num_subtasks());
        prop_assert_eq!(shifted.is_feasible(3), sys.is_feasible(3));
    }

    /// EPDF never beats PD² by more than ties on two processors (both are
    /// optimal there), i.e. EPDF also meets every deadline on M = 2.
    #[test]
    fn prop_epdf_optimal_on_two_processors(ws in weight_set(2)) {
        let sys = periodic_system(&ws, 16);
        prop_assume!(sys.num_subtasks() > 0);
        let sched = simulate_sfq(&sys, 2, &Epdf, &mut FullQuantum);
        prop_assert!(check_window_containment(&sys, &sched).is_empty());
    }

    /// Every priority order is a genuine total order: antisymmetric and
    /// transitive on random subtask triples (sorting correctness depends
    /// on this).
    #[test]
    fn prop_priority_orders_transitive(ws in weight_set(3), idx in proptest::collection::vec(0usize..64, 3)) {
        use pfair::core::{Algorithm, Pd2NoBBit, Pd2NoGroupDeadline};
        let sys = periodic_system(&ws, 16);
        let n = sys.num_subtasks();
        prop_assume!(n >= 3);
        let pick = |k: usize| SubtaskRef((idx[k] % n) as u32);
        let (a, b, c) = (pick(0), pick(1), pick(2));
        let mut orders: Vec<&dyn PriorityOrder> = vec![&Pd2NoBBit, &Pd2NoGroupDeadline];
        for alg in Algorithm::all() {
            orders.push(alg.order());
        }
        for ord in orders {
            let ab = ord.cmp(&sys, a, b);
            let ba = ord.cmp(&sys, b, a);
            prop_assert_eq!(ab, ba.reverse(), "{} antisymmetry", ord.name());
            let bc = ord.cmp(&sys, b, c);
            let ac = ord.cmp(&sys, a, c);
            if ab == bc && ab != std::cmp::Ordering::Equal {
                prop_assert_eq!(ac, ab, "{} transitivity", ord.name());
            }
            if a != b {
                prop_assert_ne!(ab, std::cmp::Ordering::Equal, "{} totality", ord.name());
            }
        }
    }

    /// Lemma 4 / Theorem 1's mechanism: the tardiness of a DVQ schedule is
    /// at most the ceiling of the worst tardiness of its Charged subtasks
    /// under the S_B postponement.
    #[test]
    fn prop_lemma4_postponement_bounds_tardiness(ws in weight_set(3), seed in 0u64..100_000) {
        let sys = periodic_system(&ws, 14);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(1, 2), seed);
        let dvq = simulate_dvq(&sys, 3, &Pd2, &mut cost);
        let dvq_max = tardiness_stats(&sys, &dvq).max;
        // Tardiness of each Charged subtask in the postponed schedule S_B
        // (same actual costs, commencements moved to ⌈S(T_i)⌉).
        let mut sb_max = Rat::ZERO;
        for (st, postponed) in postpone_charged(&dvq) {
            let s = sys.subtask(st);
            let completion = postponed + dvq.placement(st).cost;
            sb_max = sb_max.max((completion - Rat::int(s.deadline)).max(Rat::ZERO));
        }
        prop_assert!(dvq_max <= Rat::int(sb_max.ceil()),
            "DVQ max {dvq_max} exceeds ⌈S_B max⌉ = {}", sb_max.ceil());
    }

    /// Lemma 5's shape: the S_B postponement never stacks more than M
    /// Charged commencements into one slot, and preserves per-task order.
    #[test]
    fn prop_postponement_respects_capacity(ws in weight_set(2), seed in 0u64..100_000) {
        let sys = periodic_system(&ws, 14);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(1, 2), seed);
        let dvq = simulate_dvq(&sys, 2, &Pd2, &mut cost);
        let postponed = postpone_charged(&dvq);
        let mut per_slot: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
        let mut per_task_last: std::collections::HashMap<u32, Rat> = std::collections::HashMap::new();
        for (st, start) in &postponed {
            *per_slot.entry(start.floor()).or_default() += 1;
            let task = sys.subtask(*st).id.task.0;
            if let Some(prev) = per_task_last.get(&task) {
                prop_assert!(start >= prev, "per-task order broken");
            }
            per_task_last.insert(task, *start);
        }
        for (&slot, &k) in &per_slot {
            prop_assert!(k <= 2, "slot {slot} holds {k} > M postponed commencements");
        }
    }

    /// Theorem 3 over proptest-driven **GIS** systems (delays + drops +
    /// joins), not just periodic ones.
    #[test]
    fn prop_pd2_dvq_bound_on_gis(ws in weight_set(3), seed in 0u64..100_000,
                                 delay in 0u8..30, drop in 0u8..20, join in 0i64..6) {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::Gis,
            horizon: 14,
            delay_percent: delay,
            drop_percent: drop,
            early: 0,
            max_join: join,
        };
        let sys = releasegen::generate(&ws, &cfg, seed);
        prop_assume!(sys.num_subtasks() > 0);
        let mut cost = UniformCost::new(Rat::new(1, 2), seed);
        let sched = simulate_dvq(&sys, 3, &Pd2, &mut cost);
        prop_assert!(tardiness_stats(&sys, &sched).max <= Rat::ONE);
        prop_assert!(check_structural(&sys, &sched).is_empty());
    }

    /// PD² optimality over proptest-driven GIS systems under SFQ.
    #[test]
    fn prop_pd2_sfq_optimal_on_gis(ws in weight_set(3), seed in 0u64..100_000,
                                   delay in 0u8..30, drop in 0u8..20) {
        let cfg = ReleaseConfig {
            kind: ReleaseKind::Gis,
            horizon: 14,
            delay_percent: delay,
            drop_percent: drop,
            early: 0,
            max_join: 0,
        };
        let sys = releasegen::generate(&ws, &cfg, seed);
        prop_assume!(sys.num_subtasks() > 0);
        let sched = simulate_sfq(&sys, 3, &Pd2, &mut FullQuantum);
        prop_assert!(check_window_containment(&sys, &sched).is_empty());
    }

    /// Demand-bound analysis never produces a witness on a feasible
    /// system, and any witness it does produce is confirmed infeasible by
    /// the exact oracle.
    #[test]
    fn prop_demand_consistent_with_oracle(ws in weight_set(3), extra in 0usize..3) {
        use pfair::analysis::schedulability::{flow_schedulable, WindowMode};
        // Sometimes overload deliberately by adding weight-1 tasks.
        let mut pairs: Vec<(i64, i64)> = ws.iter().map(|w| (w.e(), w.p())).collect();
        for _ in 0..extra {
            pairs.push((1, 1));
        }
        let sys = release::periodic(&pairs, 10);
        prop_assume!(sys.num_subtasks() > 0);
        let witness = find_overload(&sys, 3);
        let exact = flow_schedulable(&sys, 3, WindowMode::PfWindow).schedulable;
        if let Some(w) = witness {
            prop_assert!(w.demand > w.supply);
            prop_assert!(!exact, "witness {w:?} on an oracle-accepted system");
        }
        if sys.is_feasible(3) {
            prop_assert!(witness.is_none());
        }
    }

    /// The max-flow oracle accepts every feasible periodic system and its
    /// witness respects windows (cross-check against the simulator's
    /// input universe rather than fixed seeds).
    #[test]
    fn prop_oracle_accepts_feasible(ws in weight_set(3)) {
        use pfair::analysis::schedulability::{flow_schedulable, WindowMode};
        let sys = periodic_system(&ws, 14);
        prop_assume!(sys.num_subtasks() > 0);
        let fs = flow_schedulable(&sys, 3, WindowMode::PfWindow);
        prop_assert!(fs.schedulable);
        for (st, t) in &fs.assignment {
            let s = sys.subtask(*st);
            prop_assert!(s.release <= *t && *t < s.deadline);
        }
    }
}
