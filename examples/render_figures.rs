//! Renders the paper's figures as SVG files under `figures/`.
//!
//! ```text
//! cargo run --example render_figures [out-dir]
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

fn main() -> std::io::Result<()> {
    let out = std::env::args().nth(1).unwrap_or_else(|| "figures".into());
    std::fs::create_dir_all(&out)?;
    let sys = fig2_system();
    let opts = SvgOptions {
        horizon: 6,
        ..SvgOptions::default()
    };

    // Fig. 2(a): SFQ under PD².
    let sfq = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
    std::fs::write(
        format!("{out}/fig2a_sfq_pd2.svg"),
        render_svg(&sys, &sfq, &opts),
    )?;

    // Fig. 2(b): DVQ with δ = 1/4 yields on A_1 and F_1.
    let delta = Rat::new(1, 4);
    let mut costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(0), 1, Rat::ONE - delta)
        .with(TaskId(5), 1, Rat::ONE - delta);
    let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
    std::fs::write(
        format!("{out}/fig2b_dvq_pd2.svg"),
        render_svg(&sys, &dvq, &opts),
    )?;

    // Fig. 2(c) / Fig. 6(a): PD^B.
    let pdb = run(PDB, &sys, 2, &mut FullQuantum, &mut NoopObserver);
    std::fs::write(
        format!("{out}/fig2c_pdb.svg"),
        render_svg(&sys, &pdb, &opts),
    )?;

    // Fig. 6(b): the right-shifted system under PD².
    let tau = sys.shifted(1, 1);
    let shifted = simulate_sfq(&tau, 2, &Pd2, &mut FullQuantum);
    std::fs::write(
        format!("{out}/fig6b_shifted_pd2.svg"),
        render_svg(
            &tau,
            &shifted,
            &SvgOptions {
                horizon: 7,
                ..SvgOptions::default()
            },
        ),
    )?;

    // Fig. 3(a): the predecessor-blocking instance.
    use pfair::taskmodel::release::{structured, ReleaseSpec};
    let f3 = structured(
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
    let mut f3costs = FixedCosts::new(Rat::ONE)
        .with(TaskId(4), 2, Rat::ONE - delta)
        .with(TaskId(5), 3, Rat::ONE - delta);
    let f3sched = simulate_dvq(&f3, 3, &Pd2, &mut f3costs);
    std::fs::write(
        format!("{out}/fig3a_predecessor_blocking.svg"),
        render_svg(
            &f3,
            &f3sched,
            &SvgOptions {
                horizon: 7,
                ..SvgOptions::default()
            },
        ),
    )?;

    println!("wrote 5 SVG figures to {out}/");
    Ok(())
}
