//! Reproduces Fig. 2: the same task set under (a) the SFQ model, (b) the
//! DVQ model with δ-early yields, and (c) the PD^B algorithm — the SFQ
//! schedule that the DVQ allocations reduce to in the limit δ → 0.
//!
//! ```text
//! cargo run --example figure2_models [delta-denominator]
//! ```

use pfair::prelude::*;

/// The paper's worst-case PD^B engine.
const PDB: Engine<'static> = Engine::Pdb(PdbLinearization::MaxBlocking);

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

fn report(sys: &TaskSystem, label: &str, sched: &Schedule, res: u32) {
    println!("== {label} ==");
    print!(
        "{}",
        render_gantt(
            sys,
            sched,
            &GanttOptions {
                resolution: res,
                horizon: 6
            }
        )
    );
    let t = tardiness_stats(sys, sched);
    match t.worst {
        Some(w) => println!(
            "max tardiness {} ({:?} completes at {}, deadline {})\n",
            t.max,
            sys.subtask(w).id,
            sched.completion(w),
            sys.subtask(w).deadline
        ),
        None => println!("all deadlines met\n"),
    }
}

fn main() {
    let den: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let delta = Rat::new(1, den.max(2));
    let sys = fig2_system();

    // (a) SFQ, PD²: optimal.
    let sfq = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
    report(&sys, "Fig. 2(a): SFQ model under PD²", &sfq, 4);

    // (b) DVQ, PD²: A_1 and F_1 execute for 1 − δ only; B_1 and C_1 start
    //     new quanta at 2 − δ, blocking D_2 and E_2 at time 2.
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
    report(
        &sys,
        &format!("Fig. 2(b): DVQ model under PD², δ = {delta}"),
        &dvq,
        den.min(16) as u32,
    );

    // (c) PD^B in the SFQ model: the δ → 0 limit of (b) — allocations not
    //     commencing on a boundary postpone to the next one.
    let pdb = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
    report(
        &sys,
        "Fig. 2(c): PD^B in the SFQ model (δ → 0 limit)",
        &pdb,
        4,
    );

    // Verify the limit correspondence subtask by subtask.
    println!("δ → 0 reduction check (⌈DVQ start⌉ == PD^B slot):");
    let mut all_match = true;
    for (st, s) in sys.iter_refs() {
        let ok = Rat::int(dvq.start(st).ceil()) == pdb.start(st);
        all_match &= ok;
        println!(
            "  {:?}: DVQ start {:>6}  →  PD^B slot {}  {}",
            s.id,
            dvq.start(st).to_string(),
            pdb.start(st),
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    assert!(all_match);
}
