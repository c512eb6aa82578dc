//! Microbenchmarks of the hot substrate: exact rational arithmetic, the
//! Pfair window formulas, priority comparisons, and the event queue of
//! the DVQ simulator.
//!
//! These quantify where the DVQ engine's extra cost (vs slot-driven SFQ)
//! comes from: rational reductions at every event and the per-decision
//! ready-set scan.
//!
//! Run with `cargo bench -p pfair-bench --bench micro`.

use criterion::{criterion_group, criterion_main, Criterion};
use pfair::prelude::*;
use pfair::taskmodel::window;

/// `Rat` arithmetic per operand class: each class takes a different arm
/// of the word fast path (integer operand, equal denominators, mixed
/// word-sized denominators), and `wide` — one operand with a lag-scale
/// denominator beyond `i64` — takes the `i128` fallback, so its cost
/// stays visible.
fn bench_rational(c: &mut Criterion) {
    let mut g = c.benchmark_group("rational");
    let classes = [
        ("int", Rat::new(355, 113), Rat::int(7)),
        ("equal_den", Rat::new(523, 1000), Rat::new(997, 1000)),
        ("word", Rat::new(355, 113), Rat::new(1_000_003, 720_720)),
        (
            "wide",
            Rat::new_i128(31_415_926_535_897_932_384, 102_866_050_206_919_878_280),
            Rat::new(1_000_003, 720_720),
        ),
    ];
    for (class, a, b) in classes {
        g.bench_function(format!("add/{class}"), |bch| {
            bch.iter(|| std::hint::black_box(a) + std::hint::black_box(b))
        });
        g.bench_function(format!("mul/{class}"), |bch| {
            bch.iter(|| std::hint::black_box(a) * std::hint::black_box(b))
        });
        g.bench_function(format!("cmp/{class}"), |bch| {
            bch.iter(|| std::hint::black_box(a).cmp(&std::hint::black_box(b)))
        });
    }
    let a = Rat::new(355, 113);
    g.bench_function("floor", |bch| bch.iter(|| std::hint::black_box(a).floor()));
    g.finish();
}

fn bench_windows(c: &mut Criterion) {
    let mut g = c.benchmark_group("windows");
    let w = Weight::new(7, 12);
    g.bench_function("release_deadline", |bch| {
        bch.iter(|| {
            let i = std::hint::black_box(12_345u64);
            (window::release(w, i), window::deadline(w, i))
        })
    });
    g.bench_function("group_deadline_closed_form", |bch| {
        bch.iter(|| {
            window::group_deadline(
                std::hint::black_box(Weight::new(11, 12)),
                std::hint::black_box(12_345),
            )
        })
    });
    g.bench_function("group_deadline_cascade_oracle", |bch| {
        bch.iter(|| {
            window::group_deadline_by_cascade(
                std::hint::black_box(Weight::new(11, 12)),
                std::hint::black_box(12_345),
            )
        })
    });
    g.finish();
}

fn bench_priority(c: &mut Criterion) {
    let mut g = c.benchmark_group("priority_cmp");
    let sys = release::periodic(&[(7, 8), (3, 4), (1, 2), (2, 3), (1, 6), (5, 6)], 24);
    let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(r, _)| r).collect();
    for alg in pfair::core::Algorithm::all() {
        let ord = alg.order();
        g.bench_function(alg.to_string(), |bch| {
            bch.iter(|| {
                let mut acc = 0usize;
                for &a in &refs {
                    for &b in &refs {
                        if ord.cmp(&sys, a, b) == std::cmp::Ordering::Less {
                            acc += 1;
                        }
                    }
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_sort_ready_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("ready_set");
    let sys = release::periodic(
        &[
            (7, 8),
            (3, 4),
            (1, 2),
            (2, 3),
            (1, 6),
            (5, 6),
            (1, 3),
            (5, 12),
        ],
        48,
    );
    let refs: Vec<SubtaskRef> = sys.iter_refs().map(|(r, _)| r).collect();
    g.bench_function("sort_by_pd2", |bch| {
        bch.iter(|| {
            let mut v = refs.clone();
            pfair::core::priority::sort_by_priority(&Pd2, &sys, &mut v);
            v
        })
    });
    g.bench_function("min_by_pd2", |bch| {
        bch.iter(|| refs.iter().copied().min_by(|&a, &b| Pd2.cmp(&sys, a, b)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rational,
    bench_windows,
    bench_priority,
    bench_sort_ready_set
);
criterion_main!(benches);
