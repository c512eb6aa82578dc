//! Reproduces the predecessor-blocking scenario of Fig. 3 on a concrete
//! six-task, three-processor instance (reconstructed; the paper's figure
//! fixes the phenomenon and several window positions but not every
//! weight — see EXPERIMENTS.md, row F3).
//!
//! Insets: (a) E_2 and F_3 yield early in slot 2 → B_2 is
//! predecessor-blocked at t = 3 by A_1; (b) no early yields → no
//! inversion at all; (c) B_1 also yields early → B_2 runs sooner and D_3
//! is eligibility-blocked instead.
//!
//! ```text
//! cargo run --example figure3_blocking
//! ```

use pfair::prelude::*;
use pfair::taskmodel::release::{structured, ReleaseSpec};

/// The paper's worst-case PD^B engine.
const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

fn fig3_system() -> TaskSystem {
    structured(
        &[
            ReleaseSpec::periodic("A", 1, 84),
            ReleaseSpec {
                name: "B",
                e: 1,
                p: 3,
                delays: &[],
                drops: &[],
                early: 1, // e(B_2) = 2 < 3: predecessor blocking possible
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

fn show(sys: &TaskSystem, label: &str, sched: &Schedule) {
    println!("== {label} ==");
    print!(
        "{}",
        render_gantt(
            sys,
            sched,
            &GanttOptions {
                resolution: 4,
                horizon: 7
            }
        )
    );
    let events = detect_blocking(sys, sched, &Pd2);
    if events.is_empty() {
        println!("no priority inversions\n");
    } else {
        for ev in &events {
            println!(
                "  {:?}: {:?} ready at {}, scheduled at {} (blocked {} by {})",
                ev.kind,
                sys.subtask(ev.victim).id,
                ev.ready_at,
                ev.scheduled_at,
                ev.duration(),
                ev.blockers
                    .iter()
                    .map(|&b| format!("{:?}", sys.subtask(b).id))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        println!();
    }
}

fn main() {
    let sys = fig3_system();
    println!(
        "utilization {} on M = 3 (feasible: {})\n",
        sys.utilization(),
        sys.is_feasible(3)
    );
    let delta = Rat::new(1, 4);

    // (a) E_2 and F_3 yield early: B_2 predecessor-blocked by A_1 at t=3.
    let mut costs_a = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta)
        .with(TaskId(5), 3, Rat::ONE - delta);
    show(
        &sys,
        "Fig. 3(a): E_2, F_3 yield early — predecessor blocking",
        &simulate_dvq(&sys, 3, &Pd2, &mut costs_a),
    );

    // (b) No early yields: no inversion.
    show(
        &sys,
        "Fig. 3(b): full quanta — no blocking",
        &simulate_dvq(&sys, 3, &Pd2, &mut FullQuantum),
    );

    // (c) B_1 yields early too: D_3 is eligibility-blocked instead.
    let mut costs_c = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta)
        .with(TaskId(5), 3, Rat::ONE - delta)
        .with(TaskId(1), 1, Rat::ONE - delta);
    show(
        &sys,
        "Fig. 3(c): B_1 yields early too — eligibility blocking shifts to D_3",
        &simulate_dvq(&sys, 3, &Pd2, &mut costs_c),
    );

    // (d) The same system under PD^B (SFQ): the EB/PB/DB partition at
    //     work. Render and report tardiness.
    let pdb = run(PDB, &sys, 3, &mut FullQuantum, &mut NoopObserver);
    show(&sys, "Fig. 3(d): PD^B in the SFQ model", &pdb);
    let t = tardiness_stats(&sys, &pdb);
    println!("PD^B max tardiness: {} (Theorem 2 bound: 1)", t.max);
    assert!(t.max <= Rat::ONE);
}
