//! The engine surface: one [`Engine`] value naming a simulator family and
//! one [`run`] that drives it with any [`Observer`] attached. An unobserved
//! run is `run(engine, …, &mut NoopObserver)`, which monomorphizes to the
//! family's plain code path (every emission site is gated by the
//! compile-time `O::ENABLED`).
//!
//! [`NoopObserver`]: pfair_obs::NoopObserver

use pfair_core::pdb::PdbLinearization;
use pfair_core::priority::PriorityOrder;
use pfair_obs::Observer;
use pfair_taskmodel::TaskSystem;

use crate::cost::CostModel;
use crate::schedule::Schedule;
use crate::sfq::{simulate_sfq_with, AffinityMode, SfqPolicy};
use crate::{bf, dvq, flow, staggered};

/// A simulator family, with the priority order it dispatches by where it
/// has one.
#[derive(Clone, Copy, Debug)]
pub enum Engine<'a> {
    /// The SFQ model (synchronized fixed quanta) under a priority order;
    /// picked subtasks go to processors in decision order.
    Sfq(&'a dyn PriorityOrder),
    /// [`Engine::Sfq`] with sticky processor affinity: a task keeps the
    /// processor it last ran on when free. Same slots, fewer migrations.
    SfqAffine(&'a dyn PriorityOrder),
    /// The SFQ model under the paper's PD^B procedure (§3.1, Table 1) with
    /// the given resolution of the table's two-way ties (the paper's worst
    /// case is [`PdbLinearization::MaxBlocking`]).
    Pdb(PdbLinearization),
    /// The DVQ model (desynchronized variable quanta) under a priority
    /// order.
    Dvq(&'a dyn PriorityOrder),
    /// The staggered model: fixed quanta whose boundaries on processor `k`
    /// are offset by `k/M`.
    Staggered(&'a dyn PriorityOrder),
    /// Boundary-Fair. Panics unless the system is synchronous periodic
    /// ([`crate::is_boundary_periodic`]).
    Bf,
    /// Per-slot allocations extracted from a max flow over the PF-window
    /// network.
    Flow,
}

impl<'a> Engine<'a> {
    /// The priority order driving the run; `None` for PD^B, BF and flow,
    /// whose selection procedures are built in.
    #[must_use]
    pub fn order(self) -> Option<&'a dyn PriorityOrder> {
        match self {
            Engine::Sfq(order)
            | Engine::SfqAffine(order)
            | Engine::Dvq(order)
            | Engine::Staggered(order) => Some(order),
            Engine::Pdb(_) | Engine::Bf | Engine::Flow => None,
        }
    }
}

/// Simulates `sys` on `m` processors under `engine`, streaming every
/// scheduling event to `obs`. Runs until every released subtask has been
/// scheduled and completed.
#[must_use]
pub fn run<O: Observer>(
    engine: Engine<'_>,
    sys: &TaskSystem,
    m: u32,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    // The three SFQ variants share one slot driver.
    let (policy, affinity) = match engine {
        Engine::Sfq(order) => (SfqPolicy::Priority(order), AffinityMode::ByDecision),
        Engine::SfqAffine(order) => (SfqPolicy::Priority(order), AffinityMode::Sticky),
        Engine::Pdb(lin) => (SfqPolicy::PdB(lin), AffinityMode::ByDecision),
        Engine::Dvq(order) => return dvq::simulate_dvq_observed(sys, m, order, cost, obs),
        Engine::Staggered(order) => return staggered::simulate_staggered(sys, m, order, cost, obs),
        Engine::Bf => return bf::simulate_bf(sys, m, cost, obs),
        Engine::Flow => return flow::simulate_flow(sys, m, cost, obs),
    };
    simulate_sfq_with(sys, m, policy, affinity, cost, None, obs)
}
