//! A guided tour: the paper, section by section, as API calls.
//!
//! Each subsection below quotes the paper's claim and demonstrates it with
//! a compiling, asserting example (all run as doctests). Read this module
//! top to bottom to learn both the paper and the library.
//!
//! # §2 — the task model
//!
//! *"Each task T is broken into a potentially infinite sequence of
//! quantum-length subtasks … `r(T_i) = ⌊(i−1)/wt(T)⌋ ∧ d(T_i) =
//! ⌈i/wt(T)⌉`."*
//!
//! ```
//! use pfair::prelude::*;
//! use pfair::taskmodel::window;
//!
//! let w = Weight::new(3, 4); // Fig. 1(a)
//! assert_eq!((window::release(w, 1), window::deadline(w, 1)), (0, 2));
//! assert_eq!((window::release(w, 2), window::deadline(w, 2)), (1, 3));
//! assert_eq!((window::release(w, 3), window::deadline(w, 3)), (2, 4));
//! ```
//!
//! *"A correct schedule … exists for a GIS task system τ on M processors
//! iff its total utilization is at most M."*
//!
//! ```
//! use pfair::prelude::*;
//! use pfair::analysis::schedulability::{flow_schedulable, WindowMode};
//!
//! let sys = release::periodic(&[(1, 2), (1, 2), (1, 1)], 8);
//! assert!(sys.is_feasible(2));                    // Σwt = 2 ≤ 2
//! assert!(flow_schedulable(&sys, 2, WindowMode::PfWindow).schedulable);
//! assert!(!flow_schedulable(&sys, 1, WindowMode::PfWindow).schedulable);
//! ```
//!
//! # §2 — optimal scheduling under SFQ
//!
//! *"At present, three optimal Pfair scheduling algorithms — PF, PD, and
//! PD² — … are known."*
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys = release::periodic(&[(3, 4), (2, 3), (5, 12), (1, 2), (1, 6)], 24);
//! assert_eq!(sys.utilization(), Rat::new(5, 2));
//! for alg in pfair::core::Algorithm::all() {
//!     let sched = simulate_sfq(&sys, 3, alg.order(), &mut FullQuantum);
//!     let misses = check_window_containment(&sys, &sched).len();
//!     match alg {
//!         pfair::core::Algorithm::Epdf => {} // suboptimal in general
//!         _ => assert_eq!(misses, 0, "{alg} is optimal"),
//!     }
//! }
//! ```
//!
//! # §3 — the DVQ model and its priority inversions
//!
//! *"Allowing a new quantum to begin at time 2 − δ … leads to B₁ and C₁
//! being scheduled … Therefore, at time 2, D₂ and E₂ are blocked by
//! lower-priority subtasks."* (Fig. 2(b))
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys = release::periodic_named(
//!     &[("A", 1, 6), ("B", 1, 6), ("C", 1, 6),
//!       ("D", 1, 2), ("E", 1, 2), ("F", 1, 2)], 6);
//! let delta = Rat::new(1, 4);
//! let mut costs = FixedCosts::new(Rat::ONE)
//!     .with(TaskId(0), 1, Rat::ONE - delta)
//!     .with(TaskId(5), 1, Rat::ONE - delta);
//! let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
//!
//! // B₁ grabs a processor at 2 − δ…
//! let b1 = sys.find(SubtaskId { task: TaskId(1), index: 1 }).unwrap();
//! assert_eq!(dvq.start(b1), Rat::int(2) - delta);
//! // …and D₂ (higher priority, eligible at 2) is blocked:
//! let events = detect_blocking(&sys, &dvq, &Pd2);
//! assert!(events.iter().any(|e| e.kind == BlockingKind::Eligibility));
//! ```
//!
//! # §3 — Theorem 3, and its tightness
//!
//! *"Deadlines are missed by at most the maximum size of one quantum
//! only … the fact that deadlines are known to be missed under the DVQ
//! model implies that our result is tight."*
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys = release::periodic_named(
//!     &[("A", 1, 6), ("B", 1, 6), ("C", 1, 6),
//!       ("D", 1, 2), ("E", 1, 2), ("F", 1, 2)], 6);
//! for den in [4i64, 64, 4096] {
//!     let delta = Rat::new(1, den);
//!     let mut costs = FixedCosts::new(Rat::ONE)
//!         .with(TaskId(0), 1, Rat::ONE - delta)
//!         .with(TaskId(5), 1, Rat::ONE - delta);
//!     let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
//!     // Max tardiness is exactly 1 − δ: bounded by, and approaching, 1.
//!     assert_eq!(tardiness_stats(&sys, &dvq).max, Rat::ONE - delta);
//! }
//! ```
//!
//! # §3.1 — PD^B, the worst case at slot boundaries
//!
//! *"We consider allocations in the DVQ model … in the limit δ → 0, and
//! thus reduce them to allocations that conform to the SFQ model."*
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys = release::periodic_named(
//!     &[("A", 1, 6), ("B", 1, 6), ("C", 1, 6),
//!       ("D", 1, 2), ("E", 1, 2), ("F", 1, 2)], 6);
//! let delta = Rat::new(1, 1024);
//! let mut costs = FixedCosts::new(Rat::ONE)
//!     .with(TaskId(0), 1, Rat::ONE - delta)
//!     .with(TaskId(5), 1, Rat::ONE - delta);
//! let dvq = simulate_dvq(&sys, 2, &Pd2, &mut costs);
//! let pd_b = Engine::Pdb(PdbLinearization::MaxBlocking);
//! let pdb = run(pd_b, &sys, 2, &mut FullQuantum, &mut NoopObserver);
//! // Every DVQ allocation postpones to exactly PD^B's slot:
//! for (st, _) in sys.iter_refs() {
//!     assert_eq!(Rat::int(dvq.start(st).ceil()), pdb.start(st));
//! }
//! // And PD^B attains the Theorem 2 bound exactly:
//! assert_eq!(tardiness_stats(&sys, &pdb).max, Rat::ONE);
//! ```
//!
//! # §3.2 — Aligned / Olapped / Free
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys = release::periodic(&[(1, 2), (1, 2)], 4);
//! let mut half = ScaledCost(Rat::new(1, 2));
//! let dvq = simulate_dvq(&sys, 1, &Pd2, &mut half);
//! let classes = classify_subtasks(&dvq);
//! // Quanta starting on boundaries are Aligned; a short quantum run
//! // mid-slot that ends by the boundary is Free.
//! assert!(classes.iter().any(|&(_, c)| c == SubtaskClass::Aligned));
//! assert!(classes.iter().any(|&(_, c)| c == SubtaskClass::Free));
//! // Lemma 3: the S_B postponement never moves anything earlier.
//! for (st, postponed) in postpone_charged(&dvq) {
//!     assert!(postponed >= dvq.start(st));
//! }
//! ```
//!
//! # §3.3 — the k-compliance ladder
//!
//! *"We systematically convert S to S_B by decreasing the eligibility time
//! of exactly one subtask at a time … and showing that the intermediate
//! schedules in this process remain valid."*
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys_b = release::periodic_named(
//!     &[("A", 1, 6), ("B", 1, 6), ("C", 1, 6),
//!       ("D", 1, 2), ("E", 1, 2), ("F", 1, 2)], 6);
//! let pd_b = Engine::Pdb(PdbLinearization::MaxBlocking);
//! let order = ranks(&run(pd_b, &sys_b, 2, &mut FullQuantum, &mut NoopObserver));
//! for k in 0..=sys_b.num_subtasks() {
//!     let tau_k = k_compliant_system(&sys_b, &order, k);
//!     let sched = simulate_sfq(&tau_k, 2, &Pd2, &mut FullQuantum);
//!     assert!(check_window_containment(&tau_k, &sched).is_empty());
//! }
//! ```
//!
//! # §1 — the motivation, measured
//!
//! *"When a job completes before the next quantum boundary, the rest of
//! that quantum … is wasted."*
//!
//! ```
//! use pfair::prelude::*;
//!
//! let sys = release::periodic(&[(1, 2), (1, 2), (1, 2), (1, 2)], 8);
//! let mk = || ScaledCost(Rat::new(3, 4));
//! let sfq = waste_stats(&simulate_sfq(&sys, 2, &Pd2, &mut mk()));
//! let dvq = waste_stats(&simulate_dvq(&sys, 2, &Pd2, &mut mk()));
//! assert!(sfq.wasted.is_positive());   // SFQ strands every yield tail
//! assert!(dvq.wasted.is_zero());       // DVQ reclaims all of it
//! assert!(dvq.makespan <= sfq.makespan);
//! ```
