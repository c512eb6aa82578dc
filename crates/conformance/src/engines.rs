//! The engine set a campaign exercises.
//!
//! An [`Engines`] value bundles the priority orders and simulator slots
//! the invariant bank calls. The default, [`REFERENCE`], is the production
//! PD² stack, every slot filled from [`pfair_sim::run`]; mutation tests
//! substitute deliberately broken components to prove the bank detects
//! them.

use pfair_core::pdb::PdbLinearization;
use pfair_core::priority::PriorityOrder;
use pfair_core::Pd2;
use pfair_numeric::Rat;
use pfair_obs::{BlockingObserver, BlockingRecord, LagObserver, NoopObserver};
use pfair_sim::{
    run, simulate_dvq, simulate_dvq_observed, simulate_sfq, CostModel, Engine, Schedule,
};
use pfair_taskmodel::TaskSystem;

/// A priority-ordered simulator entry point (SFQ / DVQ / staggered shape).
pub type SimFn = fn(&TaskSystem, u32, &dyn PriorityOrder, &mut dyn CostModel) -> Schedule;

/// A PD^B simulator entry point (the selection procedure is built in).
pub type PdbFn = fn(&TaskSystem, u32, &mut dyn CostModel) -> Schedule;

/// A DVQ run with a streaming blocking detector attached: the schedule
/// plus the inversion records the stream produced, sorted by victim.
pub type ObservedDvqFn =
    fn(&TaskSystem, u32, &dyn PriorityOrder, &mut dyn CostModel) -> (Schedule, Vec<BlockingRecord>);

/// An observed run of an engine with a streaming LAG accountant attached:
/// the schedule plus the streamed per-slot series `(t, LAG(τ, t))` through
/// the system horizon and its maximum.
pub type LagProbeFn =
    fn(&TaskSystem, u32, Engine<'_>, &mut dyn CostModel) -> (Schedule, Vec<(i64, Rat)>, Rat);

/// The engines and priority orders one campaign checks against each other.
#[derive(Clone, Copy, Debug)]
pub struct Engines {
    /// Name shown in violation reports (`"reference"` or a mutant name).
    pub name: &'static str,
    /// Order driving the keyed-heap dispatch path.
    pub keyed_order: &'static dyn PriorityOrder,
    /// Order driving the comparator-scan dispatch path (wrapped in
    /// [`pfair_core::priority::ComparatorOnly`] by the invariants).
    pub comparator_order: &'static dyn PriorityOrder,
    /// Order used for SFQ runs whose tardiness the theorems bound.
    pub sfq_order: &'static dyn PriorityOrder,
    /// SFQ simulator.
    pub sfq: SimFn,
    /// DVQ simulator.
    pub dvq: SimFn,
    /// Staggered-quantum simulator.
    pub staggered: SimFn,
    /// SFQ/PD^B simulator.
    pub pdb: PdbFn,
    /// Boundary-Fair simulator (invariants call it only on synchronous
    /// periodic cases — the class BF is defined on).
    pub bf: PdbFn,
    /// Flow-network simulator.
    pub flow: PdbFn,
    /// DVQ simulator with the streaming blocking detector attached.
    pub streaming_blocking: ObservedDvqFn,
    /// Observed run with the streaming LAG accountant attached.
    pub lag_probe: LagProbeFn,
}

/// The production streaming hook: the real observed DVQ driver with a
/// [`BlockingObserver`] listening.
fn dvq_streaming_blocking(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> (Schedule, Vec<BlockingRecord>) {
    let mut obs = BlockingObserver::new(sys, order);
    let sched = simulate_dvq_observed(sys, m, order, cost, &mut obs);
    let (records, _) = obs.into_parts();
    (sched, records)
}

/// The production lag probe: the real engine with a [`LagObserver`]
/// listening, finished through the system horizon.
fn streaming_lag_probe(
    sys: &TaskSystem,
    m: u32,
    engine: Engine<'_>,
    cost: &mut dyn CostModel,
) -> (Schedule, Vec<(i64, Rat)>, Rat) {
    let mut lag = LagObserver::new(sys);
    let sched = run(engine, sys, m, cost, &mut lag);
    lag.finish(sys.horizon());
    let max = lag.max_lag();
    (sched, lag.series().to_vec(), max)
}

/// The production engine set: PD² everywhere, the real simulators.
pub const REFERENCE: Engines = Engines {
    name: "reference",
    keyed_order: &Pd2,
    comparator_order: &Pd2,
    sfq_order: &Pd2,
    sfq: simulate_sfq,
    dvq: simulate_dvq,
    staggered: |sys, m, order, cost| run(Engine::Staggered(order), sys, m, cost, &mut NoopObserver),
    pdb: |sys, m, cost| {
        let pdb = Engine::Pdb(PdbLinearization::MaxBlocking);
        run(pdb, sys, m, cost, &mut NoopObserver)
    },
    bf: |sys, m, cost| run(Engine::Bf, sys, m, cost, &mut NoopObserver),
    flow: |sys, m, cost| run(Engine::Flow, sys, m, cost, &mut NoopObserver),
    streaming_blocking: dvq_streaming_blocking,
    lag_probe: streaming_lag_probe,
};
