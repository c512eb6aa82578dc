//! Bench F1–F6: regenerates every figure of the paper (asserting the
//! golden facts) and measures the cost of producing each one.
//!
//! Run with `cargo bench -p pfair-bench --bench figures`.

use criterion::{criterion_group, criterion_main, Criterion};
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

fn fig2_costs(delta: Rat) -> FixedCosts {
    FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta)
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(20);

    // F1: window computation for the Fig. 1 task.
    {
        let sys = release::periodic(&[(3, 4)], 8);
        let s1 = &sys.task_subtasks(TaskId(0))[0];
        assert_eq!((s1.release, s1.deadline, s1.group_deadline), (0, 2, 4));
        println!("F1 ok: wt 3/4 windows [0,2) [1,3) [2,4), group deadline 4");
        g.bench_function("F1_windows_wt_3_4", |b| {
            b.iter(|| release::periodic(std::hint::black_box(&[(3, 4)]), 8))
        });
    }

    // F2(a): SFQ PD² schedule — zero tardiness.
    {
        let sys = fig2_system();
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        assert_eq!(tardiness_stats(&sys, &sched).max, Rat::ZERO);
        println!("F2a ok: SFQ/PD2 tardiness 0");
        g.bench_function("F2a_sfq_pd2", |b| {
            b.iter(|| simulate_sfq(std::hint::black_box(&sys), 2, &Pd2, &mut FullQuantum))
        });
    }

    // F2(b): DVQ PD² with δ yields — tardiness exactly 1 − δ.
    {
        let sys = fig2_system();
        let delta = Rat::new(1, 64);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut fig2_costs(delta));
        assert_eq!(tardiness_stats(&sys, &sched).max, Rat::ONE - delta);
        println!("F2b ok: DVQ/PD2 tardiness 1-δ = {}", Rat::ONE - delta);
        g.bench_function("F2b_dvq_pd2_delta", |b| {
            b.iter(|| simulate_dvq(std::hint::black_box(&sys), 2, &Pd2, &mut fig2_costs(delta)))
        });
    }

    // F2(c)/F6(a): PD^B — tardiness exactly one quantum.
    {
        let sys = fig2_system();
        let sched = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
        assert_eq!(tardiness_stats(&sys, &sched).max, Rat::ONE);
        println!("F2c/F6a ok: PD^B tardiness exactly 1");
        g.bench_function("F2c_sfq_pdb", |b| {
            b.iter(|| {
                run(
                    PDB,
                    std::hint::black_box(&sys),
                    2,
                    &mut FullQuantum,
                    &mut NoopObserver,
                )
            })
        });
    }

    // F3: the predecessor-blocking reconstruction.
    {
        use pfair::taskmodel::release::{structured, ReleaseSpec};
        let sys = structured(
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
        .unwrap();
        let delta = Rat::new(1, 4);
        let mk = || {
            FixedCosts::new(Rat::ONE)
                .with(TaskId(4), 2, Rat::ONE - delta)
                .with(TaskId(5), 3, Rat::ONE - delta)
        };
        let sched = simulate_dvq(&sys, 3, &Pd2, &mut mk());
        let events = detect_blocking(&sys, &sched, &Pd2);
        assert!(events.iter().any(|e| e.kind == BlockingKind::Predecessor));
        println!("F3 ok: predecessor blocking observed");
        g.bench_function("F3_predecessor_blocking", |b| {
            b.iter(|| {
                let sched = simulate_dvq(std::hint::black_box(&sys), 3, &Pd2, &mut mk());
                detect_blocking(&sys, &sched, &Pd2)
            })
        });
    }

    // F4: classification of the DVQ schedule.
    {
        let sys = fig2_system();
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut fig2_costs(Rat::new(1, 4)));
        let classes = classify_subtasks(&sched);
        assert!(classes.iter().any(|&(_, c)| c == SubtaskClass::Olapped));
        println!("F4 ok: Aligned/Olapped/Free classification");
        g.bench_function("F4_classify", |b| {
            b.iter(|| classify_subtasks(std::hint::black_box(&sched)))
        });
    }

    // F6(b,c): right shift + k-compliance walk.
    {
        let sys = fig2_system();
        let sched_b = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
        let order = ranks(&sched_b);
        for k in 0..=sys.num_subtasks() {
            let tau_k = k_compliant_system(&sys, &order, k);
            let s = simulate_sfq(&tau_k, 2, &Pd2, &mut FullQuantum);
            assert!(check_window_containment(&tau_k, &s).is_empty());
        }
        println!("F6bc ok: every τ^k schedulable under PD²");
        g.bench_function("F6_k_compliance_walk", |b| {
            b.iter(|| {
                for k in 0..=sys.num_subtasks() {
                    let tau_k = k_compliant_system(&sys, &order, k);
                    std::hint::black_box(simulate_sfq(&tau_k, 2, &Pd2, &mut FullQuantum));
                }
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
