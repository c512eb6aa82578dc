//! The k-compliance construction of §3.3 (Theorem 2's proof machinery).
//!
//! To show PD^B's tardiness is at most one quantum, the paper right-shifts
//! every IS-window of the task system `τ^B` by one slot (yielding `τ`,
//! which PD² schedules with no misses) and then walks eligibility times
//! back down one subtask at a time, in the order (**rank**) in which PD^B
//! scheduled them:
//!
//! * `τ^k` is *k-compliant* to `τ^B` when windows are the shifted ones and
//!   exactly the `k` lowest-rank subtasks have their original eligibility
//!   times (the rest are shifted too);
//! * Lemma 6 shows a valid schedule exists for each `τ^k`, by induction.
//!
//! This module implements the constructions — [`ranks`] from a PD^B
//! schedule, [`k_compliant_system`] for any `k` — so tests can walk the
//! induction empirically: every `τ^k` is a feasible GIS system, and PD²
//! (optimal) schedules it with zero misses, which is the validity the
//! lemma needs at each step.

use pfair_sim::Schedule;
use pfair_taskmodel::{SubtaskRef, TaskSystem, TaskSystemBuilder};

/// The scheduling order of a (slot-based) schedule: subtasks sorted by
/// commencement time, ties by processor index (the order in which the
/// slot's scheduling decisions were made).
///
/// `result[i]` is the subtask of rank `i + 1` (ranks are 1-based in the
/// paper).
#[must_use]
pub fn ranks(sched: &Schedule) -> Vec<SubtaskRef> {
    // Placements are already sorted by (start, proc).
    sched.placements().iter().map(|p| p.st).collect()
}

/// Builds the task system `τ^k`: windows right-shifted by one slot
/// relative to `sys_b`, with the eligibility of the `k` lowest-rank
/// subtasks left *unshifted* (i.e. decreased back by one).
///
/// `rank_order` must be the output of [`ranks`] on a schedule of `sys_b`.
///
/// # Panics
/// Panics if `rank_order` does not cover `sys_b`'s subtasks, or `k`
/// exceeds their number.
#[must_use]
pub fn k_compliant_system(sys_b: &TaskSystem, rank_order: &[SubtaskRef], k: usize) -> TaskSystem {
    assert_eq!(
        rank_order.len(),
        sys_b.num_subtasks(),
        "rank order must cover every subtask"
    );
    assert!(k <= rank_order.len());
    let mut keep_eligibility = vec![false; sys_b.num_subtasks()];
    for &st in &rank_order[..k] {
        keep_eligibility[st.idx()] = true;
    }

    let mut b = TaskSystemBuilder::new();
    for task in sys_b.tasks() {
        let t = b.add_named_task(task.weight, task.name.clone());
        for st in sys_b.task_subtask_refs(task.id) {
            let s = sys_b.subtask(st);
            let eligible = if keep_eligibility[st.idx()] {
                s.eligible
            } else {
                s.eligible + 1
            };
            b.push(t, s.id.index, s.theta + 1, Some(eligible))
                .expect("shifted system satisfies the model constraints");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::pdb::PdbLinearization;
    use pfair_core::Pd2;
    use pfair_numeric::Rat;
    use pfair_sim::{run, simulate_sfq, Engine, FullQuantum, NoopObserver};
    use pfair_taskmodel::release;

    use crate::tardiness::tardiness_stats;
    use crate::validity::{check_structural, check_window_containment};

    /// The paper's worst-case PD^B engine.
    const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

    fn fig6_system() -> TaskSystem {
        // Fig. 6: "three tasks of weight 1/6 each and three other tasks of
        // weight 1/2 each" — the Fig. 2 set.
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

    #[test]
    fn ranks_cover_all_subtasks_in_schedule_order() {
        let sys = fig6_system();
        let sched = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
        let order = ranks(&sched);
        assert_eq!(order.len(), sys.num_subtasks());
        // Ranks are nondecreasing in start time.
        for w in order.windows(2) {
            assert!(sched.start(w[0]) <= sched.start(w[1]));
        }
    }

    #[test]
    fn zero_compliant_is_plain_right_shift() {
        let sys = fig6_system();
        let sched = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
        let order = ranks(&sched);
        let tau0 = k_compliant_system(&sys, &order, 0);
        let shifted = sys.shifted(1, 1);
        assert_eq!(tau0, shifted);
    }

    #[test]
    fn full_compliance_keeps_all_eligibilities() {
        let sys = fig6_system();
        let sched = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
        let order = ranks(&sched);
        let n = sys.num_subtasks();
        let taun = k_compliant_system(&sys, &order, n);
        for (a, b) in sys.subtasks().iter().zip(taun.subtasks()) {
            assert_eq!(b.eligible, a.eligible);
            assert_eq!(b.release, a.release + 1);
            assert_eq!(b.deadline, a.deadline + 1);
        }
    }

    #[test]
    fn every_k_compliant_system_is_schedulable_by_pd2() {
        // The empirical walk of Lemma 6's induction: every τ^k is a
        // feasible GIS system, and PD² (optimal under SFQ) schedules it
        // with zero misses.
        let sys = fig6_system();
        let sched_b = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
        // Fig. 6(a): F_2 misses by exactly one quantum under PD^B.
        let stats_b = tardiness_stats(&sys, &sched_b);
        assert_eq!(stats_b.max, Rat::ONE);
        let order = ranks(&sched_b);
        for k in 0..=sys.num_subtasks() {
            let tau_k = k_compliant_system(&sys, &order, k);
            assert!(tau_k.is_feasible(2));
            let sched = simulate_sfq(&tau_k, 2, &Pd2, &mut FullQuantum);
            assert!(
                check_structural(&tau_k, &sched).is_empty(),
                "k = {k}: structural violation"
            );
            assert!(
                check_window_containment(&tau_k, &sched).is_empty(),
                "k = {k}: deadline miss"
            );
        }
    }
}
