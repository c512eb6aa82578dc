//! The DVQ model: desynchronized, variable-sized quanta (§3).
//!
//! The DVQ model is the work-conserving relaxation of SFQ: "if a task
//! yields before executing for a full quantum, then a new quantum begins on
//! the associated processor immediately". Scheduling decisions therefore
//! happen at arbitrary rational times, independently per processor, and the
//! paper's two priority inversions arise naturally:
//!
//! * a processor freeing at `t − δ` is handed to a lower-priority subtask
//!   because the higher-priority one only becomes eligible at `t`
//!   (*eligibility blocking*);
//! * a subtask whose predecessor runs up to `t` watches an early-freed
//!   processor go to lower-priority work, and at `t` loses its
//!   predecessor's processor to a newly-eligible subtask
//!   (*predecessor blocking*).
//!
//! # Mechanics
//!
//! Event-driven simulation over exact rational times:
//!
//! * `Activate(st)` events fire when a subtask becomes *ready* — at
//!   `max(e(T_i), completion of predecessor)`;
//! * `Proc(k)` events fire when processor `k`'s quantum completes.
//!
//! All events at the same instant are drained before any assignment; then
//! free processors (ascending index) are matched with ready subtasks in
//! priority order. A subtask scheduled at time `τ` with actual cost `c`
//! completes at `τ + c` and its processor is immediately reusable — no
//! holds, no waste.
//!
//! # Event times
//!
//! The loop keeps its events in a [`pfair_numeric::EventQueue`]. When the
//! cost model publishes a denominator hint
//! ([`crate::cost::CostModel::denominator_hint`]), event times start as
//! `i64` tick counts at that scale: heap comparisons are single integer
//! compares and rational arithmetic leaves the hot path. The first instant
//! off the hinted grid (or past `i64` ticks) switches the queue to exact
//! [`Rat`]s, losslessly — a tick count *is* a rational — so nothing is
//! redrawn and schedules and observer streams are identical whether or
//! where the switch happens (see `tick_times_match_exact_times`,
//! `mid_run_migration_is_invisible` and `tests/keyed_equivalence.rs`).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use pfair_core::key::{EpdfKey, KeyCache, KeyDispatch, Pd2Key, PdKey, SubtaskKey};
use pfair_core::priority::PriorityOrder;
use pfair_numeric::{Event, EventQueue, QScale, Rat};
use pfair_obs::{NoopObserver, Observer, ReadyCause, SchedEvent};
use pfair_taskmodel::{SubtaskRef, TaskSystem};

use crate::cost::{checked_cost, CostModel};
use crate::emit::{emit_end, flush_ends};
use crate::schedule::{Placement, QuantumModel, Schedule};

/// The ready set of the DVQ loop: push activated subtasks, pop the
/// highest-priority one. Two implementations share the event loop — a
/// deadline-bucketed queue over precomputed keys (the default whenever the
/// order registers a key type) and a linear comparator scan (the fallback
/// for orders without one). Both pop in the same total order, so the
/// produced schedules are identical; the tests pin that down on the
/// paper's golden traces.
trait ReadySet {
    fn push(&mut self, st: SubtaskRef);
    fn pop_best(&mut self) -> Option<SubtaskRef>;
    fn is_empty(&self) -> bool;
}

/// Hard cap on the number of deadline buckets: beyond this, the far tail
/// shares the last bucket (clamping is *correct* because in-bucket order
/// uses the full key, whose leading stage is the deadline — the tail
/// bucket just degrades toward a plain binary heap).
const MAX_BUCKETS: usize = 1 << 16;

/// Ready set over precomputed keys, bucketed by the keys' leading
/// comparison stage (the integer θ-adjusted pseudo-deadline).
///
/// Every priority order in `pfair-core` compares deadlines first
/// ([`SubtaskKey::deadline`]), so the bucket index alone decides most pops;
/// the remaining stages (b-bit, group deadline, weight, id) are evaluated
/// only on bucket collisions, via a per-bucket binary heap. Keys are
/// computed once in the [`KeyCache`] slab and copied inline into the
/// bucket entries, so sift comparisons read contiguous bucket memory
/// instead of chasing the slab on every step.
struct BucketReady<K: SubtaskKey> {
    cache: KeyCache<K>,
    buckets: Vec<Vec<(K, SubtaskRef)>>,
    /// Deadline of bucket 0.
    base: i64,
    /// First bucket that may be nonempty (monotone within a pop run;
    /// rewound by pushes of earlier deadlines).
    cursor: usize,
    len: usize,
}

impl<K: SubtaskKey> BucketReady<K> {
    fn new(sys: &TaskSystem) -> BucketReady<K> {
        let cache: KeyCache<K> = KeyCache::build(sys);
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (st, _) in sys.iter_refs() {
            let d = cache.key(st).deadline();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        let width = if lo > hi {
            1 // no subtasks; keep one bucket so indexing stays total
        } else {
            let span = i128::from(hi) - i128::from(lo) + 1;
            usize::try_from(span)
                .unwrap_or(MAX_BUCKETS)
                .min(MAX_BUCKETS)
        };
        BucketReady {
            cache,
            buckets: vec![Vec::new(); width],
            base: if lo > hi { 0 } else { lo },
            cursor: 0,
            len: 0,
        }
    }

    fn bucket_index(&self, d: i64) -> usize {
        let off = i128::from(d) - i128::from(self.base);
        usize::try_from(off)
            .expect("deadline below the bucket base: key cache and task system disagree")
            .min(self.buckets.len() - 1)
    }
}

impl<K: SubtaskKey> ReadySet for BucketReady<K> {
    #[inline]
    fn push(&mut self, st: SubtaskRef) {
        let key = self.cache.key(st);
        let idx = self.bucket_index(key.deadline());
        if idx < self.cursor {
            self.cursor = idx;
        }
        heap_push(&mut self.buckets[idx], key, st);
        self.len += 1;
    }

    fn pop_best(&mut self) -> Option<SubtaskRef> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        self.len -= 1;
        Some(heap_pop(&mut self.buckets[self.cursor]))
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Sift-up push into a min-heap of inline-keyed entries.
fn heap_push<K: SubtaskKey>(bucket: &mut Vec<(K, SubtaskRef)>, key: K, st: SubtaskRef) {
    bucket.push((key, st));
    let mut i = bucket.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if bucket[i].0 < bucket[parent].0 {
            bucket.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Sift-down pop of the key-minimal entry; callers guarantee nonempty.
fn heap_pop<K: SubtaskKey>(bucket: &mut Vec<(K, SubtaskRef)>) -> SubtaskRef {
    let last = bucket.len() - 1;
    bucket.swap(0, last);
    let (_, best) = bucket.pop().expect("heap_pop on an empty bucket");
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        if l >= bucket.len() {
            break;
        }
        let child = if r < bucket.len() && bucket[r].0 < bucket[l].0 {
            r
        } else {
            l
        };
        if bucket[child].0 < bucket[i].0 {
            bucket.swap(i, child);
            i = child;
        } else {
            break;
        }
    }
    best
}

/// O(n)-per-pop ready set calling the comparator (for orders with no
/// registered key type, e.g. PF or the ablations).
struct ComparatorReady<'a> {
    sys: &'a TaskSystem,
    order: &'a dyn PriorityOrder,
    items: Vec<SubtaskRef>,
}

impl ReadySet for ComparatorReady<'_> {
    fn push(&mut self, st: SubtaskRef) {
        self.items.push(st);
    }

    fn pop_best(&mut self) -> Option<SubtaskRef> {
        let (best_pos, _) = self
            .items
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| self.order.cmp(self.sys, a, b))?;
        let best = self.items.swap_remove(best_pos);
        // The keyed path breaks every tie by subtask id (the keys' last
        // stage); a comparator that leaves ties unresolved would silently
        // pop in scan order instead and diverge from it. Surface that here
        // rather than in a downstream schedule diff.
        debug_assert!(
            self.items
                .iter()
                .all(|&o| self.order.cmp(self.sys, best, o) != Ordering::Equal),
            "comparator {} left a tie unresolved at pop ({best:?} ties another ready \
             subtask): ComparatorReady needs a total order — pin ties by subtask id",
            self.order.name()
        );
        Some(best)
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Simulates `sys` on `m` processors under the DVQ model with priority
/// order `order` (the paper analyzes PD²-DVQ; any order is accepted so the
/// EPDF comparison of experiment E4 reuses this driver).
///
/// Dispatches on [`PriorityOrder::key_dispatch`]: orders with a
/// precomputed-key type (EPDF, PD², PD) run the event loop over a
/// deadline-bucketed key queue; others fall back to the comparator scan.
/// The schedule is identical either way.
///
/// Runs until every released subtask has been scheduled and completed.
/// Shorthand for `run(Engine::Dvq(order), sys, m, cost, &mut NoopObserver)`.
#[must_use]
pub fn simulate_dvq(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    simulate_dvq_observed(sys, m, order, cost, &mut NoopObserver)
}

/// [`simulate_dvq`] with a streaming [`Observer`] attached: the driver
/// behind [`Engine::Dvq`](crate::Engine::Dvq). With [`NoopObserver`] this
/// monomorphizes to exactly [`simulate_dvq`]'s code (every emission site is
/// gated by the compile-time `O::ENABLED`).
#[must_use]
pub fn simulate_dvq_observed<O: Observer>(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    match order.key_dispatch() {
        KeyDispatch::Pd2 => run_dvq(sys, m, BucketReady::<Pd2Key>::new(sys), cost, obs),
        KeyDispatch::Epdf => run_dvq(sys, m, BucketReady::<EpdfKey>::new(sys), cost, obs),
        KeyDispatch::Pd => run_dvq(sys, m, BucketReady::<PdKey>::new(sys), cost, obs),
        KeyDispatch::Comparator => {
            let ready = ComparatorReady {
                sys,
                order,
                items: Vec::with_capacity(sys.num_tasks()),
            };
            run_dvq(sys, m, ready, cost, obs)
        }
    }
}

/// The DVQ event loop, generic over the ready-set implementation. Event
/// times run as ticks at the cost model's denominator hint while every
/// instant lands on that grid; the [`EventQueue`] switches itself to exact
/// rationals on the first one that does not.
fn run_dvq<R: ReadySet, O: Observer>(
    sys: &TaskSystem,
    m: u32,
    mut ready: R,
    cost: &mut dyn CostModel,
    obs: &mut O,
) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    let total = sys.num_subtasks();
    let mut events = EventQueue::new(cost.denominator_hint().and_then(|d| QScale::lcm_of([d])));
    // Every chain head activates at its eligibility time; every processor
    // is free at time 0.
    for task in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            let at = events.int(sys.subtask(head).eligible);
            events.push(at, Event::Activate(head.0));
        }
    }
    let zero = events.int(0);
    for k in 0..m {
        events.push(zero, Event::Proc(k));
    }
    // Free processors as a min-heap, so `pop()` serves the lowest index
    // first (the documented assignment order) in O(log M).
    let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::with_capacity(m as usize);
    // Observability state: the in-flight quantum on each processor
    // `(subtask, completion)`, for `QuantumEnd` emission when it frees.
    // Written only when the observer is enabled.
    let mut running: Vec<Option<(SubtaskRef, Rat)>> = vec![None; m as usize];
    let mut placements: Vec<Placement> = Vec::with_capacity(total);

    while placements.len() < total {
        let Some((now, _)) = events.peek() else {
            // Every unplaced subtask owes the queue either an Activate or
            // the processor event that will trigger one, so an empty queue
            // here is a lost-event bug in this driver — abort loudly (also
            // in release builds) rather than looping forever.
            panic!(
                "DVQ event queue drained with only {placed}/{total} subtasks placed: \
                 an Activate/Proc event was lost (broken successor chain?)",
                placed = placements.len()
            );
        };
        // The rational value of `now` is only needed once something is
        // emitted at this instant; pure-drain batches skip the conversion.
        let mut now_r: Option<Rat> = None;
        if O::ENABLED {
            obs.on_event(&SchedEvent::Tick {
                at: *now_r.get_or_insert_with(|| events.rat(now)),
            });
        }
        // Drain the batch at `now`. The event order (processors ascending,
        // then activations) makes the emitted stream deterministic too.
        while let Some(ev) = events.pop_at(now) {
            match ev {
                Event::Proc(k) => {
                    if O::ENABLED {
                        if let Some((st, completion)) = running[k as usize].take() {
                            emit_end(sys, st, k, completion, Rat::ZERO, obs);
                        }
                    }
                    free.push(Reverse(k));
                }
                Event::Activate(id) => {
                    let st = SubtaskRef(id);
                    if O::ENABLED {
                        let sub = sys.subtask(st);
                        let at = *now_r.get_or_insert_with(|| events.rat(now));
                        let cause = if at == Rat::int(sub.eligible) {
                            ReadyCause::Eligibility
                        } else {
                            ReadyCause::Predecessor
                        };
                        obs.on_event(&SchedEvent::Ready {
                            id: sub.id,
                            at,
                            cause,
                        });
                    }
                    ready.push(st);
                }
            }
        }
        // Assign free processors to ready subtasks in priority order.
        while !free.is_empty() && !ready.is_empty() {
            let st = ready.pop_best().expect("ready nonempty");
            let c = checked_cost(cost.cost(sys, st), st);
            let start = *now_r.get_or_insert_with(|| events.rat(now));
            let completion = events.after(now, c);
            let holds_until = events.rat(completion);
            let Reverse(proc) = free.pop().expect("free nonempty in the assignment loop");
            placements.push(Placement {
                st,
                proc,
                start,
                cost: c,
                holds_until,
            });
            if O::ENABLED {
                let sub = sys.subtask(st);
                obs.on_event(&SchedEvent::QuantumStart {
                    id: sub.id,
                    proc,
                    start,
                    cost: c,
                    holds_until,
                    deadline: sub.deadline,
                    bbit: sub.bbit,
                    group_deadline: sub.group_deadline,
                });
                running[proc as usize] = Some((st, holds_until));
            }
            events.push(completion, Event::Proc(proc));
            // The successor becomes ready once both eligible and its
            // predecessor (this subtask) has completed.
            if let Some(succ) = sys.subtask(st).succ {
                let at = events.ready_at(sys.subtask(succ).eligible, completion);
                events.push(at, Event::Activate(succ.0));
            }
        }
        if O::ENABLED && !free.is_empty() {
            obs.on_event(&SchedEvent::Idle {
                at: *now_r.get_or_insert_with(|| events.rat(now)),
                procs: free.len() as u32,
            });
        }
    }

    if O::ENABLED {
        // Quanta still in flight when the last subtask was placed:
        // announce their ends in completion order.
        let mut pending: Vec<crate::emit::PendingEnd> = running
            .iter_mut()
            .enumerate()
            .filter_map(|(k, slot)| {
                slot.take()
                    .map(|(st, completion)| (completion, k as u32, st, Rat::ZERO))
            })
            .collect();
        flush_ends(sys, &mut pending, obs);
    }

    Schedule::new(sys, QuantumModel::Dvq, m, placements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::{ComparatorOnly, Pd2};
    use pfair_numeric::{Rat, Time};
    use pfair_taskmodel::{release, SubtaskId, TaskId};

    use crate::cost::{ExactOnly, FixedCosts, FullQuantum};

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

    fn find(sys: &TaskSystem, task: u32, index: u64) -> SubtaskRef {
        sys.find(SubtaskId {
            task: TaskId(task),
            index,
        })
        .unwrap()
    }

    #[test]
    fn full_costs_reduce_to_sfq() {
        // With c = 1 everywhere, all completions are integral and DVQ
        // makes exactly the slot-boundary decisions of SFQ.
        let sys = fig2_system();
        let dvq = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        let sfq = crate::sfq::simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(dvq.start(st), sfq.start(st), "{st:?}");
        }
    }

    #[test]
    fn fig2b_dvq_schedule_with_delta_yields() {
        // Fig. 2(b): A_1 and F_1 (scheduled at t = 1) execute for 1 − δ
        // only; both processors immediately start new quanta at 2 − δ and
        // are assigned to B_1 and C_1, blocking D_2 and E_2 at time 2.
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta) // A_1
            .with(TaskId(5), 1, Rat::ONE - delta); // F_1
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);

        let two_minus = Rat::int(2) - delta;
        assert_eq!(sched.start(find(&sys, 1, 1)), two_minus); // B_1
        assert_eq!(sched.start(find(&sys, 2, 1)), two_minus); // C_1
                                                              // D_2, E_2 blocked until 3 − δ; they still meet d = 4.
        let three_minus = Rat::int(3) - delta;
        assert_eq!(sched.start(find(&sys, 3, 2)), three_minus);
        assert_eq!(sched.start(find(&sys, 4, 2)), three_minus);
        assert!(sched.completion(find(&sys, 3, 2)) <= Rat::int(4));
        // F_2 runs at 4 − δ and completes at 5 − δ: it misses its deadline
        // (4) by 1 − δ — tardiness strictly below one quantum (Theorem 3).
        let f2 = find(&sys, 5, 2);
        assert_eq!(sched.start(f2), Rat::int(4) - delta);
        assert_eq!(sched.completion(f2), Rat::int(5) - delta);
        assert_eq!(sys.subtask(f2).deadline, 4);
        let tardiness = sched.completion(f2) - Rat::int(4);
        assert!(tardiness.is_positive() && tardiness < Rat::ONE);
    }

    #[test]
    fn tardiness_approaches_one_as_delta_shrinks() {
        // Tightness (E6): as δ → 0 the F_2 miss approaches a full quantum.
        let sys = fig2_system();
        for den in [10i64, 100, 10_000, 1_000_000] {
            let delta = Rat::new(1, den);
            let mut costs = FixedCosts::new(Rat::ONE)
                .with(TaskId(0), 1, Rat::ONE - delta)
                .with(TaskId(5), 1, Rat::ONE - delta);
            let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
            let f2 = find(&sys, 5, 2);
            let tardiness = sched.completion(f2) - Rat::int(4);
            assert_eq!(tardiness, Rat::ONE - delta);
        }
    }

    #[test]
    fn work_conserving_no_holds() {
        let sys = fig2_system();
        let mut costs = FixedCosts::new(Rat::new(9, 10));
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        for p in sched.placements() {
            assert_eq!(p.waste(), Rat::ZERO);
            assert_eq!(p.holds_until, p.completion());
        }
    }

    #[test]
    fn intra_task_sequential() {
        // A subtask never starts before its predecessor completes.
        let sys = release::periodic(&[(3, 4), (1, 2)], 12);
        let mut costs = FixedCosts::new(Rat::new(1, 2));
        let sched = simulate_dvq(&sys, 1, &Pd2, &mut costs);
        for (st, s) in sys.iter_refs() {
            if let Some(pred) = s.pred {
                assert!(sched.start(st) >= sched.completion(pred));
            }
            // And never before its eligibility time.
            assert!(sched.start(st) >= Rat::int(s.eligible));
        }
    }

    #[test]
    fn single_processor_serializes() {
        let sys = release::periodic(&[(1, 2), (1, 2)], 4);
        let sched = simulate_dvq(&sys, 1, &Pd2, &mut FullQuantum);
        let mut busy: Vec<(Time, Time)> = sched
            .placements()
            .iter()
            .map(|p| (p.start, p.completion()))
            .collect();
        busy.sort();
        for w in busy.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap on one processor");
        }
    }

    #[test]
    fn processors_assigned_in_ascending_index_order() {
        // Regression for the free-list order: within one batch, the k-th
        // pick by priority lands on the k-th smallest free processor index.
        let sys = release::periodic(&[(1, 2); 6], 4);
        let sched = simulate_dvq(&sys, 3, &Pd2, &mut FullQuantum);
        let mut batches: std::collections::BTreeMap<Time, Vec<(SubtaskRef, u32)>> =
            std::collections::BTreeMap::new();
        for p in sched.placements() {
            batches.entry(p.start).or_default().push((p.st, p.proc));
        }
        let cache: KeyCache<Pd2Key> = KeyCache::build(&sys);
        for (start, mut batch) in batches {
            // Priority order within the batch is the order the loop popped;
            // the processors handed out must ascend with it.
            batch.sort_by_key(|&(st, _)| cache.key(st));
            let procs: Vec<u32> = batch.iter().map(|&(_, proc)| proc).collect();
            let mut sorted = procs.clone();
            sorted.sort_unstable();
            assert_eq!(procs, sorted, "batch at {start:?} assigned out of order");
        }
    }

    #[test]
    fn duplicate_key_ties_pop_identically_keyed_and_comparator() {
        // Same-weight tasks tie on every key stage except the id; both
        // ready-set implementations must break those ties identically
        // (satellite for the ComparatorReady tie assertion).
        let sys = release::periodic(&[(1, 2); 5], 8);
        let mut a = BucketReady::<Pd2Key>::new(&sys);
        let mut b = ComparatorReady {
            sys: &sys,
            order: &Pd2,
            items: Vec::new(),
        };
        for (st, _) in sys.iter_refs() {
            a.push(st);
            b.push(st);
        }
        while !a.is_empty() {
            assert_eq!(a.pop_best(), b.pop_best());
        }
        assert!(b.is_empty() && b.pop_best().is_none() && a.pop_best().is_none());

        // And end to end: the full schedules agree placement for placement.
        let keyed = simulate_dvq(&sys, 2, &Pd2, &mut FullQuantum);
        let scanned = simulate_dvq(&sys, 2, &ComparatorOnly(&Pd2), &mut FullQuantum);
        for (st, _) in sys.iter_refs() {
            assert_eq!(keyed.placement(st).start, scanned.placement(st).start);
            assert_eq!(keyed.placement(st).proc, scanned.placement(st).proc);
        }
    }

    #[test]
    fn tick_times_match_exact_times() {
        // The same workload down both tiers: FixedCosts publishes a
        // denominator hint (tick fast path); ExactOnly withholds it (exact
        // path). Schedules must be identical, placement for placement.
        let sys = fig2_system();
        let delta = Rat::new(1, 4);
        let costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        assert_eq!(costs.denominator_hint(), Some(4), "fast path armed");
        let fast = simulate_dvq(&sys, 2, &Pd2, &mut costs.clone());
        let mut inner = costs;
        let exact = simulate_dvq(&sys, 2, &Pd2, &mut ExactOnly(&mut inner));
        assert_eq!(fast.placements(), exact.placements());
    }

    /// Lies about its grid: hints denominator 2 but emits a cost with
    /// denominator 3 on the `trip`-th draw — forcing a mid-batch bail from
    /// the tick tier to the exact tier.
    struct WrongHint {
        draws: usize,
        trip: usize,
    }

    impl CostModel for WrongHint {
        fn cost(&mut self, _sys: &TaskSystem, _st: SubtaskRef) -> Rat {
            self.draws += 1;
            if self.draws == self.trip {
                Rat::new(1, 3)
            } else {
                Rat::new(1, 2)
            }
        }

        fn denominator_hint(&self) -> Option<i64> {
            Some(2)
        }
    }

    /// Records every emission, for stream-identity checks.
    struct Record(Vec<SchedEvent>);

    impl Observer for Record {
        fn on_event(&mut self, ev: &SchedEvent) {
            self.0.push(ev.clone());
        }
    }

    #[test]
    fn mid_run_migration_is_invisible() {
        // A wrong denominator hint must cost performance only: the run
        // bails to exact arithmetic at the first off-grid cost, and both
        // the schedule and the observed event stream are identical to an
        // all-exact run of the same model.
        let sys = release::periodic(&[(1, 2), (1, 3), (2, 5), (3, 4)], 30);
        for trip in [1usize, 3, 7, 20] {
            let mut migrating = Record(Vec::new());
            let a = simulate_dvq_observed(
                &sys,
                2,
                &Pd2,
                &mut WrongHint { draws: 0, trip },
                &mut migrating,
            );
            let mut all_exact = Record(Vec::new());
            let mut inner = WrongHint { draws: 0, trip };
            let b =
                simulate_dvq_observed(&sys, 2, &Pd2, &mut ExactOnly(&mut inner), &mut all_exact);
            assert_eq!(a.placements(), b.placements(), "trip = {trip}");
            assert_eq!(migrating.0, all_exact.0, "trip = {trip}");
        }
    }

    use proptest::prelude::*;

    /// Pops both ready sets dry, asserting they agree pop for pop.
    fn drain_and_compare(bucket: &mut BucketReady<Pd2Key>, scan: &mut ComparatorReady<'_>) {
        while !bucket.is_empty() {
            assert_eq!(bucket.pop_best(), scan.pop_best());
        }
        assert!(scan.is_empty());
        assert!(bucket.pop_best().is_none() && scan.pop_best().is_none());
    }

    proptest! {
        /// Arbitrary push/pop interleavings agree with the comparator scan.
        /// Pushes arrive latest-deadline first, so a push after a pop run
        /// lands *before* the monotone cursor and must rewind it — the
        /// regression surface of the bucketed queue's one mutable
        /// shortcut.
        #[test]
        fn prop_bucket_interleaving_matches_comparator(
            raw in proptest::collection::vec((1i64..=6, 1i64..=6), 1..4),
            ops in proptest::collection::vec(0u8..2, 1..60),
        ) {
            let weights: Vec<(i64, i64)> =
                raw.iter().map(|&(a, p)| (a.min(p), p)).collect();
            let sys = release::periodic(&weights, 12);
            let mut bucket = BucketReady::<Pd2Key>::new(&sys);
            let mut scan = ComparatorReady {
                sys: &sys,
                order: &Pd2,
                items: Vec::new(),
            };
            let mut pending: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
            pending.sort_by_key(|&st| sys.subtask(st).deadline); // pop() yields latest first
            for &op in &ops {
                if op == 1 {
                    if let Some(st) = pending.pop() {
                        bucket.push(st);
                        scan.push(st);
                    }
                } else {
                    prop_assert_eq!(bucket.pop_best(), scan.pop_best());
                }
            }
            for st in pending {
                bucket.push(st);
                scan.push(st);
            }
            drain_and_compare(&mut bucket, &mut scan);
        }

        /// A bucket table squeezed to an arbitrary tiny width (the
        /// MAX_BUCKETS clamp in miniature: every deadline past the end
        /// shares the tail bucket) still pops in exactly the comparator
        /// order, because in-bucket order uses the full key.
        #[test]
        fn prop_clamped_width_still_pops_in_order(
            raw in proptest::collection::vec((1i64..=6, 1i64..=6), 1..4),
            width in 1usize..4,
        ) {
            let weights: Vec<(i64, i64)> =
                raw.iter().map(|&(a, p)| (a.min(p), p)).collect();
            let sys = release::periodic(&weights, 12);
            let mut bucket = BucketReady::<Pd2Key>::new(&sys);
            bucket.buckets = vec![Vec::new(); width];
            bucket.cursor = 0;
            let mut scan = ComparatorReady {
                sys: &sys,
                order: &Pd2,
                items: Vec::new(),
            };
            for (st, _) in sys.iter_refs() {
                bucket.push(st);
                scan.push(st);
            }
            drain_and_compare(&mut bucket, &mut scan);
        }

        /// Adversarial deadline collisions: many identical-weight tasks tie
        /// on every key stage except the id, piling into the same buckets.
        /// The in-bucket heap must still break every tie exactly as the
        /// comparator does.
        #[test]
        fn prop_deadline_collisions_tie_break_identically(
            count in 1usize..16,
            p in 1i64..=4,
            ops in proptest::collection::vec(0u8..2, 1..48),
        ) {
            let weights = vec![(1, p); count];
            let sys = release::periodic(&weights, 2 * p);
            let mut bucket = BucketReady::<Pd2Key>::new(&sys);
            let mut scan = ComparatorReady {
                sys: &sys,
                order: &Pd2,
                items: Vec::new(),
            };
            let mut pending: Vec<SubtaskRef> = sys.iter_refs().map(|(st, _)| st).collect();
            pending.reverse(); // push ascending subtask ids
            for &op in &ops {
                if op == 1 {
                    if let Some(st) = pending.pop() {
                        bucket.push(st);
                        scan.push(st);
                    }
                } else {
                    prop_assert_eq!(bucket.pop_best(), scan.pop_best());
                }
            }
            for st in pending {
                bucket.push(st);
                scan.push(st);
            }
            drain_and_compare(&mut bucket, &mut scan);
        }
    }

    #[test]
    fn bucket_width_clamps_at_max_buckets() {
        // A deadline span wider than MAX_BUCKETS must clamp the table and
        // still pop correctly (the far tail shares the last bucket).
        let sys = release::periodic(&[(1, 2), (1, 1 << 17)], 12); // span ≫ MAX_BUCKETS
        let ready = BucketReady::<Pd2Key>::new(&sys);
        assert_eq!(ready.buckets.len(), MAX_BUCKETS);
        let mut ready = ready;
        let mut scan = ComparatorReady {
            sys: &sys,
            order: &Pd2,
            items: Vec::new(),
        };
        for (st, _) in sys.iter_refs() {
            ready.push(st);
            scan.push(st);
        }
        drain_and_compare(&mut ready, &mut scan);
    }

    #[test]
    fn far_deadlines_share_the_clamped_tail_bucket() {
        // Deadline spans past MAX_BUCKETS clamp into the last bucket; the
        // full-key in-bucket order keeps pops correct regardless.
        let sys = release::periodic(&[(1, 2), (1, 2)], 4);
        let mut ready = BucketReady::<Pd2Key>::new(&sys);
        // Force a tiny bucket table so every push collides in the tail.
        ready.buckets = vec![Vec::new(); 1];
        ready.cursor = 0;
        let mut scan = ComparatorReady {
            sys: &sys,
            order: &Pd2,
            items: Vec::new(),
        };
        for (st, _) in sys.iter_refs() {
            ready.push(st);
            scan.push(st);
        }
        while !ready.is_empty() {
            assert_eq!(ready.pop_best(), scan.pop_best());
        }
    }
}
