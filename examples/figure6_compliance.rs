//! Reproduces Fig. 6: the k-compliance construction behind Theorem 2.
//!
//! (a) A PD^B schedule for τ^B (the Fig. 2 task set) in which F_2 misses
//!     its deadline by exactly one quantum;
//! (b) the PD² schedule of τ — every IS-window right-shifted one slot —
//!     which meets every (shifted) deadline;
//! (c) the k-compliant intermediate systems: eligibility times are
//!     restored one subtask at a time in PD^B rank order, and each τ^k
//!     remains schedulable with no misses.
//!
//! ```text
//! cargo run --example figure6_compliance
//! ```

use pfair::prelude::*;

/// The paper's worst-case PD^B engine.
const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

fn main() {
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

    // (a) PD^B schedule S_B with its one-quantum miss.
    let sched_b = run(PDB, &sys_b, 2, &mut FullQuantum, &mut NoopObserver);
    println!("== Fig. 6(a): PD^B schedule S_B for τ^B ==");
    print!(
        "{}",
        render_gantt(
            &sys_b,
            &sched_b,
            &GanttOptions {
                resolution: 2,
                horizon: 6
            }
        )
    );
    let stats = tardiness_stats(&sys_b, &sched_b);
    println!(
        "max tardiness: {} ({:?})\n",
        stats.max,
        sys_b.subtask(stats.worst.expect("F_2 misses")).id
    );
    let order = ranks(&sched_b);
    println!(
        "PD^B ranks: {}\n",
        order
            .iter()
            .map(|&st| format!("{:?}", sys_b.subtask(st).id))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // (b) τ = right-shift of τ^B by one slot: PD² meets everything.
    let tau = sys_b.shifted(1, 1);
    let sched_tau = simulate_sfq(&tau, 2, &Pd2, &mut FullQuantum);
    println!("== Fig. 6(b): PD² schedule for the right-shifted τ ==");
    print!(
        "{}",
        render_gantt(
            &tau,
            &sched_tau,
            &GanttOptions {
                resolution: 2,
                horizon: 7
            }
        )
    );
    assert!(check_window_containment(&tau, &sched_tau).is_empty());
    println!("all (shifted) deadlines met\n");

    // (c) Walk k-compliance: τ^0 = τ up to τ^n; each is feasible and PD²
    //     schedules it without misses (the empirical content of Lemma 6).
    println!("== Fig. 6(c): k-compliance walk ==");
    for k in 0..=sys_b.num_subtasks() {
        let tau_k = k_compliant_system(&sys_b, &order, k);
        let sched = simulate_sfq(&tau_k, 2, &Pd2, &mut FullQuantum);
        let misses = check_window_containment(&tau_k, &sched).len();
        let restored = order[..k]
            .iter()
            .map(|&st| format!("{:?}", sys_b.subtask(st).id))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  τ^{k:<2} eligibility restored for [{restored}] → misses: {misses}");
        assert_eq!(misses, 0, "τ^{k} must remain schedulable");
    }
    println!(
        "\nEvery τ^k is schedulable: viewed against τ^B's original \
              deadlines, PD^B is at most one quantum late (Theorem 2)."
    );
}
