//! Multiprocessor schedule simulators for the three quantum models the
//! paper discusses.
//!
//! * [`sfq`] — the **SFQ model** (synchronized, fixed-size quanta): all
//!   processors make scheduling decisions at integral slot boundaries; a
//!   subtask that yields early leaves the rest of its quantum unused
//!   (non-work-conserving). Drives any [`pfair_core::PriorityOrder`] or the
//!   paper's PD^B procedure.
//! * [`dvq`] — the **DVQ model** (desynchronized, variable-size quanta):
//!   event-driven; a processor whose subtask completes at any rational time
//!   immediately begins a new quantum with the highest-priority *ready*
//!   subtask (work-conserving). This is where the paper's priority
//!   inversions arise.
//! * [`staggered`] — the staggered model of Holman & Anderson: fixed-size
//!   quanta whose boundaries on processor `k` are offset by `k/M`;
//!   synchronized but not aligned, still non-work-conserving.
//!
//! Two further engine *families* compete with the Pfair variants under the
//! same conformance roof (both slot-based, replayed through one shared
//! slot-table driver, `slotplay`):
//!
//! * [`bf`] — **Boundary-Fair** scheduling (Zhu/Mossé/Melhem, DP-Fair):
//!   allocation decisions only at period boundaries, McNaughton wrap-around
//!   layout in between. Meets every *job* deadline on feasible periodic
//!   systems while making far fewer scheduling decisions than any per-slot
//!   Pfair scheduler — at the price of ignoring Pfair subtask windows.
//! * [`flow`] — **flow-network** scheduling (Cho & Easwaran): per-slot
//!   allocations extracted from a saturating Dinic max flow over the
//!   PF-window network, patched incrementally task by task. Window-valid
//!   and zero-tardiness on feasible systems.
//!
//! # One entry point
//!
//! An [`Engine`] value names the family (`Sfq`, `SfqAffine`, `Pdb`, `Dvq`,
//! `Staggered`, `Bf`, `Flow`) and the priority order it dispatches by;
//! [`run`]`(engine, sys, m, cost, observer)` drives it. An unobserved run
//! passes [`NoopObserver`]. [`simulate_sfq`], [`simulate_dvq`]
//! and [`simulate_dvq_observed`] are shorthands for the paper's two models;
//! [`simulate_sfq_pdb_instrumented`] adds PD^B's per-slot partition
//! statistics, and [`replay_events`] rebuilds a schedule from a recorded
//! event stream.
//!
//! Every engine consumes a [`pfair_taskmodel::TaskSystem`] plus a
//! [`cost::CostModel`] assigning each subtask its *actual*
//! execution cost `c(T_i) ∈ (0, 1]`, and produces a [`Schedule`] — the
//! record of every placement, from which `pfair-analysis` computes
//! tardiness, validity, blocking events, and waste.
//!
//! # Determinism
//!
//! Every simulator is deterministic given its inputs: ties inside priority
//! orders are pinned by `(task, index)`, processors are assigned in
//! ascending index order, and simultaneous events are drained in one batch
//! before any assignment. Reproducing the paper's figures depends on this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bf;
pub mod cost;
pub mod dvq;
mod emit;
mod engine;
pub mod flow;
pub mod schedule;
pub mod sfq;
mod slotplay;
pub mod staggered;

pub use bf::{bf_boundaries, is_boundary_periodic};
pub use cost::{CostModel, ExactOnly, FixedCosts, FullQuantum, ScaledCost};
pub use dvq::{simulate_dvq, simulate_dvq_observed};
pub use engine::{run, Engine};
/// The observer an unobserved [`run`] passes, re-exported so callers need
/// no direct `pfair-obs` dependency.
pub use pfair_obs::NoopObserver;
pub use schedule::{Placement, QuantumModel, Schedule};
pub use sfq::{simulate_sfq, simulate_sfq_pdb_instrumented, PdbSlotStats};
pub use slotplay::replay_events;
