//! Real multi-core PD²-DVQ execution.
//!
//! Everything below `crates/runtime` in the workspace *simulates* the
//! paper's desynchronized-quantum model; this crate *runs* it. `M` worker
//! threads each own a virtual processor and actually burn CPU for every
//! quantum they execute, with seeded per-quantum jitter ([`jitter`]) so
//! δ-yields — the early completions that desynchronize quantum boundaries
//! (§2 of the paper) — happen for real. Scheduling decisions are
//! centralized through a flat-combining delegation lock ([`lock`]):
//! workers publish yield/arrival/completion requests into per-worker
//! slots, and whichever worker holds the combiner role drains the batch
//! into the dispatch core ([`core`]): the online PD²-DVQ kernel,
//! [`pfair_online::OnlineDvq`], behind a completion gate.
//!
//! Correctness is *proven per run*, two ways ([`exec`]), one per
//! completion [`Mode`]:
//!
//! * **Deterministic mode** imposes a logical-time barrier on completions,
//!   making the schedule bit-identical to the single-threaded
//!   `OnlineDvq` reference regardless of thread timing.
//! * **Free-running mode** lets physical timing order completions; the
//!   recorded event stream is then replayed through
//!   `pfair_sim::replay_events` into the conformance bank, which checks
//!   DVQ structural validity, allocation conservation, and the paper's
//!   Theorem 3 tardiness bound on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod exec;
pub mod jitter;
pub mod lock;

pub use crate::core::{DispatchCore, FaultPlan, Request, Status};
pub use crate::exec::{execute, RuntimeConfig, RuntimeRun};
pub use crate::jitter::{quantum_cost, JitterRegime};
pub use crate::lock::DelegationLock;
pub use pfair_online::Mode;
