//! An **online** PD² scheduler for the DVQ model.
//!
//! The simulators in `pfair-sim` consume a fully pre-generated
//! [`pfair_taskmodel::TaskSystem`] — the right shape for reproducing the
//! paper's figures and sweeps. A deployment, however, sees its workload
//! *online*: sporadic jobs arrive at runtime, the scheduler must decide
//! "what runs now" in sub-linear time, and nothing about the future is
//! known. This crate provides that embedding:
//!
//! * [`tick::OnlineSfq`] — the SFQ counterpart as a kernel would host
//!   it: a `tick()` per slot boundary returns the ≤ M subtasks to run;
//! * [`scheduler::OnlineDvq`] — the event loop of the DVQ model
//!   ("a new quantum begins immediately" when a subtask yields), driven by
//!   sporadic job submissions and a caller-supplied cost source, emitting
//!   the resulting quantum assignments. It is the one online PD²-DVQ
//!   kernel: `pfair-runtime`'s dispatch core drives it under a
//!   completion [`Mode`].
//!
//! Both schedulers keep their ready subtasks in a binary heap of
//! [`pfair_core::key::Pd2Key`]s — PD² priority as a static, totally
//! ordered key, proven equivalent to the comparator in `pfair-core` — so
//! dispatch is `O(log n)` instead of an `O(n)` scan.
//!
//! Both schedulers also come in `*_observed` variants that stream
//! [`pfair_obs::SchedEvent`]s to a [`pfair_obs::Observer`] — see
//! [`OnlineDvq::run_until_observed`] and [`OnlineSfq::tick_observed`]. The
//! unobserved entry points delegate with [`pfair_obs::NoopObserver`] and
//! compile to the same code.
//!
//! The headline guarantee carries over unchanged: as long as the submitted
//! workload is feasible (`Σ wt ≤ M`, job separations ≥ periods), every
//! subtask completes within one quantum of its Pfair pseudo-deadline
//! (Theorem 3) — asserted in this crate's tests and cross-checked against
//! the offline simulator on identical workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;
pub mod tick;

pub use scheduler::{Mode, OnlineAssignment, OnlineDvq, OnlineError};
pub use tick::{OnlineSfq, TickAssignment};
