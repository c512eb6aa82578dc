//! Exact numeric foundations for Pfair scheduling simulation.
//!
//! Under the **DVQ model** (desynchronized, variable-sized quanta) of
//! Devi & Anderson (IPPS 2005), scheduling decisions occur at *non-integral*
//! times: a subtask that yields `δ` before the end of its quantum frees its
//! processor at a time like `2 − δ`, and the chain of subsequent decisions
//! produces arbitrary rational event times. Reproducing the paper's
//! boundary-sensitive scenarios (e.g. a processor freeing "just before" an
//! eligibility boundary) with floating point would be fragile: the whole
//! analysis turns on exact comparisons such as `t < 2` vs `t = 2`.
//!
//! This crate therefore provides:
//!
//! * [`Rat`] — an exact, always-reduced rational number backed by `i128`
//!   numerator/denominator, computing in machine words while every
//!   component fits `i64` and with gcd-factored checked `i128` arithmetic
//!   otherwise (a diagnostic panic only when even the *reduced* result
//!   overflows, which lag sums on the 720720 cost grid never do);
//! * [`Time`] — a transparent alias of [`Rat`] used for points on the real
//!   time line, with slot helpers ([`slot_of`], [`is_slot_boundary`]);
//! * [`QScale`] / [`QTime`] — the overflow-checked fixed-point fast path
//!   for runs whose event times stay on a known rational grid: times as
//!   `i64` tick counts that compare in one instruction, with every
//!   conversion exact-or-`None` so callers fall back to [`Rat`] instead of
//!   ever rounding (see the [`qtime`] module docs for the contract);
//! * [`EventQueue`] — the event heap of every event-driven scheduling
//!   loop: tick keys at a [`QScale`] until an instant falls off the grid,
//!   then exact [`Rat`] keys, switching itself losslessly (see [`queue`]);
//! * integer helpers ([`gcd`], [`lcm`], [`checked_lcm`], [`floor_div`],
//!   [`ceil_div`]) used by the Pfair window formulas
//!   `r(T_i) = ⌊(i−1)p/e⌋`, `d(T_i) = ⌈ip/e⌉`.
//!
//! The quantum size is normalized to `1` throughout the workspace, matching
//! the paper's convention ("we henceforth assume that the quantum size is
//! one time unit").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod int;
pub mod qtime;
pub mod quantum;
pub mod queue;
pub mod rational;
pub mod time;

pub use int::{ceil_div, checked_lcm, floor_div, gcd, gcd_i128, lcm};
pub use qtime::{QScale, QTime};
pub use quantum::QuantumScale;
pub use queue::{Event, EventQueue, EventTime};
pub use rational::Rat;
pub use time::{is_slot_boundary, slot_of, Time};
