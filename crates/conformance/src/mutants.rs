//! Planted-bug engines ("mutants") for validating the harness itself.
//!
//! A fuzzing harness that never fires is indistinguishable from one that
//! cannot fire. Each mutant here swaps exactly one deliberately broken
//! component into the reference engine set — an inverted tie-break, a
//! dropped rule stage, a driver that ignores a precondition — and the
//! mutation test suite asserts that a seeded campaign catches every one
//! and shrinks its counterexample to a handful of tasks on ≤ 2
//! processors.

use core::cmp::Ordering;

use pfair_core::pdb;
use pfair_core::priority::PriorityOrder;
use pfair_core::{Pd2, Pd2NoGroupDeadline};
use pfair_maxflow::{EdgeId, FlowNetwork};
use pfair_numeric::{Rat, Time};
use pfair_obs::{BlockingObserver, BlockingRecord};
use pfair_sim::cost::checked_cost;
use pfair_sim::{
    simulate_dvq, simulate_dvq_observed, simulate_sfq, CostModel, Placement, QuantumModel, Schedule,
};
use pfair_taskmodel::{SubtaskRef, TaskId, TaskSystem};

use crate::engines::{Engines, ProbeSim, REFERENCE};

/// One deliberately broken engine set.
#[derive(Clone, Copy, Debug)]
pub struct Mutant {
    /// Mutant name (doubles as [`Engines::name`]).
    pub name: &'static str,
    /// What was broken, in one sentence.
    pub description: &'static str,
    /// The reference engines with the broken component swapped in.
    pub engines: Engines,
}

/// The full mutant roster.
#[must_use]
pub fn mutants() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "inverted-b-bit",
            description: "PD² with the b-bit tie-break inverted (b = 0 wins instead of b = 1)",
            engines: Engines {
                name: "inverted-b-bit",
                comparator_order: &InvertedBBit,
                ..REFERENCE
            },
        },
        Mutant {
            name: "no-group-deadline",
            description: "PD² missing the group-deadline tie-break stage",
            engines: Engines {
                name: "no-group-deadline",
                comparator_order: &Pd2NoGroupDeadline,
                ..REFERENCE
            },
        },
        Mutant {
            name: "no-id-tie-break",
            description: "PD² without the deterministic final tie-break (residual ties left to container order)",
            engines: Engines {
                name: "no-id-tie-break",
                comparator_order: &NoIdTieBreak,
                ..REFERENCE
            },
        },
        Mutant {
            name: "latest-deadline-first",
            description: "priority order inverted outright: latest deadline first",
            engines: Engines {
                name: "latest-deadline-first",
                sfq_order: &LatestDeadlineFirst,
                ..REFERENCE
            },
        },
        Mutant {
            name: "pdb-eb-before-db",
            description: "PD^B selection that prefers EB over DB in the first M − p decisions",
            engines: Engines {
                name: "pdb-eb-before-db",
                pdb: simulate_pdb_eb_first,
                ..REFERENCE
            },
        },
        Mutant {
            name: "dvq-eager-successor",
            description: "DVQ that activates successors at predecessor start, ignoring completion",
            engines: Engines {
                name: "dvq-eager-successor",
                dvq: simulate_dvq_eager,
                ..REFERENCE
            },
        },
        Mutant {
            name: "bf-optional-by-id",
            description: "Boundary-Fair that grants optional units in task-id order instead of largest-remainder urgency",
            engines: Engines {
                name: "bf-optional-by-id",
                bf: simulate_bf_optional_by_id,
                ..REFERENCE
            },
        },
        Mutant {
            name: "bf-mandatory-only",
            description: "Boundary-Fair that never grants optional units (mandatory floor only)",
            engines: Engines {
                name: "bf-mandatory-only",
                bf: simulate_bf_mandatory_only,
                ..REFERENCE
            },
        },
        Mutant {
            name: "flow-overfull-slot",
            description: "flow engine whose slot → sink edges carry capacity m + 1 instead of m",
            engines: Engines {
                name: "flow-overfull-slot",
                flow: simulate_flow_overfull,
                ..REFERENCE
            },
        },
        Mutant {
            name: "flow-window-slip",
            description: "flow engine whose subtask windows extend one slot past the deadline (deadline inclusive instead of exclusive)",
            engines: Engines {
                name: "flow-window-slip",
                flow: simulate_flow_window_slip,
                ..REFERENCE
            },
        },
        Mutant {
            name: "dvq-cost-blind",
            description: "DVQ that ignores the cost model and bills every quantum as full",
            engines: Engines {
                name: "dvq-cost-blind",
                dvq: simulate_dvq_cost_blind,
                ..REFERENCE
            },
        },
        Mutant {
            name: "obs-drops-fractional-blocking",
            description: "streaming blocking detector that silently drops inversions dispatched at non-integral times",
            engines: Engines {
                name: "obs-drops-fractional-blocking",
                streaming_blocking: streaming_blocking_integral_only,
                ..REFERENCE
            },
        },
        Mutant {
            name: "rat-wraps-on-overflow",
            description: "lag accountant whose rational arithmetic silently wraps at i64 instead of widening to i128",
            engines: Engines {
                name: "rat-wraps-on-overflow",
                lag_probe: wrapping_lag_probe,
                ..REFERENCE
            },
        },
    ]
}

/// PD² with the b-bit comparison inverted: among equal deadlines, `b = 0`
/// is preferred over `b = 1`.
#[derive(Debug)]
struct InvertedBBit;

impl PriorityOrder for InvertedBBit {
    fn name(&self) -> &'static str {
        "PD2-inverted-b"
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        let x = sys.subtask(a);
        let y = sys.subtask(b);
        x.deadline
            .cmp(&y.deadline)
            .then_with(|| x.bbit.cmp(&y.bbit))
            .then_with(|| {
                if x.bbit && y.bbit {
                    y.group_deadline.cmp(&x.group_deadline)
                } else {
                    Ordering::Equal
                }
            })
    }
}

/// PD²'s strict relation with residual ties left unresolved — the paper's
/// "broken arbitrarily" taken literally, so the comparator scan and the
/// keyed heap disagree whenever a tie survives.
#[derive(Debug)]
struct NoIdTieBreak;

impl PriorityOrder for NoIdTieBreak {
    fn name(&self) -> &'static str {
        "PD2-no-id-tie"
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        Pd2.cmp_strict(sys, a, b)
    }

    fn cmp(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        self.cmp_strict(sys, a, b)
    }
}

/// The outright wrong order: latest deadline first.
#[derive(Debug)]
struct LatestDeadlineFirst;

impl PriorityOrder for LatestDeadlineFirst {
    fn name(&self) -> &'static str {
        "latest-deadline-first"
    }

    fn cmp_strict(&self, sys: &TaskSystem, a: SubtaskRef, b: SubtaskRef) -> Ordering {
        let x = sys.subtask(a);
        let y = sys.subtask(b);
        y.deadline.cmp(&x.deadline)
    }
}

/// [`pdb::select_slot`] with the planted bug: in the first `M − p`
/// decisions, EB is taken before DB whenever both are nonempty (the
/// reference resolves DB-vs-EB per its linearization; always preferring EB
/// lets a lower-priority eligibility-blocked subtask jump a deadline-based
/// one that Table 1 ranks strictly higher at every decision index).
fn select_slot_eb_first(sys: &TaskSystem, m: usize, part: &pdb::Partition) -> Vec<SubtaskRef> {
    let p = part.p().min(m);
    let mut eb = part.eb.as_slice();
    let mut pb = part.pb.as_slice();
    let mut db = part.db.as_slice();
    let mut picked = Vec::with_capacity(m.min(part.len()));

    while picked.len() < m - p {
        let take_db = match (db.first(), eb.first()) {
            (Some(_), None) => true,
            (None, Some(_)) | (Some(_), Some(_)) => false,
            (None, None) => {
                if let Some((&head, rest)) = pb.split_first() {
                    picked.push(head);
                    pb = rest;
                    continue;
                }
                return picked;
            }
        };
        if take_db {
            let (&head, rest) = db.split_first().expect("checked");
            picked.push(head);
            db = rest;
        } else {
            let (&head, rest) = eb.split_first().expect("checked");
            picked.push(head);
            eb = rest;
        }
    }

    while picked.len() < m {
        let candidates = [db.first(), eb.first(), pb.first()];
        let best = candidates
            .into_iter()
            .flatten()
            .copied()
            .min_by(|&a, &b| Pd2.cmp(sys, a, b));
        let Some(best) = best else { break };
        if db.first() == Some(&best) {
            db = &db[1..];
        } else if eb.first() == Some(&best) {
            eb = &eb[1..];
        } else {
            pb = &pb[1..];
        }
        picked.push(best);
    }
    picked
}

/// SFQ/PD^B driver wired to [`select_slot_eb_first`].
fn simulate_pdb_eb_first(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    assert!(m >= 1, "need at least one processor");
    let total = sys.num_subtasks();
    let mut placements = Vec::with_capacity(total);
    let mut slot_of: Vec<Option<i64>> = vec![None; total];
    let mut cursor: Vec<(u32, u32)> = (0..sys.num_tasks())
        .map(|k| sys.task_span(TaskId(k as u32)))
        .collect();
    let mut placed = 0usize;
    let mut t = 0i64;
    let mut ready: Vec<SubtaskRef> = Vec::with_capacity(sys.num_tasks());

    while placed < total {
        ready.clear();
        let mut next_interesting = i64::MAX;
        for &(cur, hi) in &cursor {
            if cur >= hi {
                continue;
            }
            let st = SubtaskRef(cur);
            let s = sys.subtask(st);
            let pred_done_at = match s.pred {
                None => i64::MIN,
                Some(p) => slot_of[p.idx()].expect("cursor implies pred scheduled") + 1,
            };
            let ready_at = s.eligible.max(pred_done_at);
            if ready_at <= t {
                ready.push(st);
            } else {
                next_interesting = next_interesting.min(ready_at);
            }
        }
        if ready.is_empty() {
            assert!(next_interesting < i64::MAX, "mutant PD^B driver stuck");
            assert!(next_interesting > t, "mutant PD^B driver stuck");
            t = next_interesting;
            continue;
        }
        let readiness: Vec<pdb::Ready> = ready
            .iter()
            .map(|&st| pdb::Ready {
                st,
                pred_holds_until_t: sys
                    .subtask(st)
                    .pred
                    .is_some_and(|p| slot_of[p.idx()] == Some(t - 1)),
            })
            .collect();
        let part = pdb::classify(sys, t, &readiness);
        let picked = select_slot_eb_first(sys, m as usize, &part);
        for (k, &st) in picked.iter().enumerate() {
            let c = checked_cost(cost.cost(sys, st), st);
            placements.push(Placement {
                st,
                proc: k as u32,
                start: Rat::int(t),
                cost: c,
                holds_until: Rat::int(t + 1),
            });
            slot_of[st.idx()] = Some(t);
            cursor[sys.subtask(st).id.task.idx()].0 += 1;
            placed += 1;
        }
        t += 1;
    }
    Schedule::new(sys, QuantumModel::Sfq, m, placements)
}

/// DVQ driver with the planted bug: a successor activates at
/// `max(eligible, predecessor start)` instead of
/// `max(eligible, predecessor completion)` — intra-task precedence is
/// ignored whenever a processor is free early enough.
fn simulate_dvq_eager(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> Schedule {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Event {
        ProcFree(u32),
        Activate(SubtaskRef),
    }

    assert!(m >= 1, "need at least one processor");
    let total = sys.num_subtasks();
    let mut placements = Vec::with_capacity(total);
    let mut events: BinaryHeap<Reverse<(Time, Event)>> = BinaryHeap::new();
    for task in sys.tasks() {
        if let Some(head) = sys.task_subtask_refs(task.id).next() {
            let e = sys.subtask(head).eligible;
            events.push(Reverse((Time::int(e), Event::Activate(head))));
        }
    }
    for k in 0..m {
        events.push(Reverse((Time::ZERO, Event::ProcFree(k))));
    }

    let mut free: Vec<u32> = Vec::with_capacity(m as usize);
    let mut ready: Vec<SubtaskRef> = Vec::new();
    let mut placed = 0usize;

    while placed < total {
        let Some(&Reverse((now, _))) = events.peek() else {
            panic!("mutant DVQ event queue drained with {placed}/{total} placed");
        };
        while let Some(&Reverse((t, ev))) = events.peek() {
            if t != now {
                break;
            }
            events.pop();
            match ev {
                Event::ProcFree(k) => free.push(k),
                Event::Activate(st) => ready.push(st),
            }
        }
        free.sort_unstable();

        while !free.is_empty() && !ready.is_empty() {
            let (best, _) = ready
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| order.cmp(sys, a, b))
                .expect("ready nonempty");
            let st = ready.swap_remove(best);
            let proc = free.remove(0);
            let c = checked_cost(cost.cost(sys, st), st);
            let completion = now + c;
            placements.push(Placement {
                st,
                proc,
                start: now,
                cost: c,
                holds_until: completion,
            });
            placed += 1;
            events.push(Reverse((completion, Event::ProcFree(proc))));
            if let Some(succ) = sys.subtask(st).succ {
                // BUG: gates on the predecessor's *start*, not completion.
                let act = Time::int(sys.subtask(succ).eligible).max(now);
                events.push(Reverse((act, Event::Activate(succ))));
            }
        }
    }
    Schedule::new(sys, QuantumModel::Dvq, m, placements)
}

/// Streaming blocking hook with the planted bug: inversions whose victim
/// was dispatched at a non-integral time are silently dropped — exactly
/// the fractional-time events that distinguish DVQ from SFQ, so a purely
/// slot-aligned test diet would never notice.
fn streaming_blocking_integral_only(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
) -> (Schedule, Vec<BlockingRecord>) {
    let mut obs = BlockingObserver::new(sys, order);
    let sched = simulate_dvq_observed(sys, m, order, cost, &mut obs);
    let (mut records, _) = obs.into_parts();
    records.retain(|r| r.scheduled_at.den() == 1);
    (sched, records)
}

/// An i64-backed rational that silently wraps on overflow — the
/// arithmetic bug the full-range streaming-vs-post-hoc lag comparison
/// exists to catch. The classic naive implementation: no i128
/// intermediates, no gcd reduction, no checks. Numerators and
/// denominators just multiply and wrap, so it agrees exactly with
/// [`Rat`] while every product fits i64 and corrupts silently once a
/// GRID-resolution (720720) cost denominator enters a lag sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WrapRat {
    num: i64,
    den: i64,
}

impl WrapRat {
    fn int(v: i64) -> WrapRat {
        WrapRat { num: v, den: 1 }
    }

    fn from_rat(r: Rat) -> WrapRat {
        WrapRat {
            num: r.num() as i64, // pfair-lint: allow(no-lossy-cast): the planted truncation is the point of this mutant.
            den: r.den() as i64, // pfair-lint: allow(no-lossy-cast): ditto — the mutant must stay in wrapping i64.
        }
    }

    fn add(self, o: WrapRat) -> WrapRat {
        WrapRat {
            num: self
                .num
                .wrapping_mul(o.den)
                .wrapping_add(o.num.wrapping_mul(self.den)),
            den: self.den.wrapping_mul(o.den),
        }
    }

    fn sub(self, o: WrapRat) -> WrapRat {
        self.add(WrapRat {
            num: o.num.wrapping_neg(),
            den: o.den,
        })
    }

    fn div(self, o: WrapRat) -> WrapRat {
        WrapRat {
            num: self.num.wrapping_mul(o.den),
            den: self.den.wrapping_mul(o.num),
        }
    }

    fn to_rat(self) -> Rat {
        Rat::new(self.num, if self.den == 0 { 1 } else { self.den })
    }
}

/// `LAG(τ, t)` recomputed in [`WrapRat`] arithmetic — the same fluid
/// formulas as `pfair_analysis::total_lag`, minus the overflow safety.
fn wrap_total_lag(sys: &TaskSystem, sched: &Schedule, t: i64) -> WrapRat {
    let t_rat = Rat::int(t);
    let mut total = WrapRat::int(0);
    for task in sys.tasks() {
        for s in sys.task_subtasks(task.id) {
            if t <= s.release {
                break;
            }
            if t >= s.deadline {
                total = total.add(WrapRat::int(1));
            } else {
                total = total
                    .add(WrapRat::int(t - s.release).div(WrapRat::int(s.deadline - s.release)));
            }
        }
        for st in sys.task_subtask_refs(task.id) {
            let p = sched.placement(st);
            if t_rat >= p.completion() {
                total = total.sub(WrapRat::int(1));
            } else if t_rat > p.start {
                total =
                    total.sub(WrapRat::from_rat(t_rat - p.start).div(WrapRat::from_rat(p.cost)));
            }
        }
    }
    total
}

/// Lag probe with the planted bug: the schedule is the real one, but the
/// per-slot LAG series is accounted in [`WrapRat`], whose i64 arithmetic
/// wraps silently where the widened [`Rat`] reduces or panics.
fn wrapping_lag_probe(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    cost: &mut dyn CostModel,
    sim: ProbeSim,
) -> (Schedule, Vec<(i64, Rat)>, Rat) {
    let sched = match sim {
        ProbeSim::Sfq => simulate_sfq(sys, m, order, cost),
        ProbeSim::Dvq => simulate_dvq(sys, m, order, cost),
    };
    let series: Vec<(i64, Rat)> = (0..=sys.horizon())
        .map(|t| (t, wrap_total_lag(sys, &sched, t).to_rat()))
        .collect();
    let max = series.iter().map(|&(_, l)| l).max().unwrap_or(Rat::ZERO);
    (sched, series, max)
}

/// DVQ driver with the planted bug: the caller's cost model is discarded
/// and every quantum is billed as full.
fn simulate_dvq_cost_blind(
    sys: &TaskSystem,
    m: u32,
    order: &dyn PriorityOrder,
    _cost: &mut dyn CostModel,
) -> Schedule {
    simulate_dvq(sys, m, order, &mut pfair_sim::FullQuantum)
}

/// Which optional-unit policy a Boundary-Fair mutant runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BfOptionalPolicy {
    /// BUG: grant optional units in plain task-id order, discarding the
    /// largest-remainder / next-own-boundary urgency.
    ByIdOrder,
    /// BUG: never grant optional units at all.
    Never,
}

/// The Boundary-Fair chassis both BF mutants share: boundaries, exact
/// fluid pending work, mandatory floors and McNaughton wrap-around exactly
/// as the reference, with the optional-unit stage swapped for `policy`.
/// Overruns are clamped instead of asserted so the broken allocation flows
/// through to the schedule, where the conservation invariant can see it.
fn bf_mutant_schedule(
    sys: &TaskSystem,
    m: u32,
    cost: &mut dyn CostModel,
    policy: BfOptionalPolicy,
) -> Schedule {
    let n_tasks = sys.num_tasks();
    let mut bounds = vec![0i64];
    for task in sys.tasks() {
        let n = sys.task_subtasks(task.id).len() as i64;
        if n == 0 {
            continue;
        }
        let (e, p) = (task.weight.e(), task.weight.p());
        let jobs = (n + e - 1) / e;
        bounds.extend((1..=jobs).map(|k| k * p));
    }
    bounds.sort_unstable();
    bounds.dedup();

    let mut alloc = vec![0i64; n_tasks];
    let mut cursor: Vec<u32> = (0..n_tasks)
        .map(|k| {
            sys.task_span(TaskId(u32::try_from(k).expect("task count fits u32")))
                .0
        })
        .collect();
    let mut placements = Vec::with_capacity(sys.num_subtasks());
    let mut a = vec![0i64; n_tasks];
    let mut cands: Vec<(Rat, i64, usize)> = Vec::new();
    for w in bounds.windows(2) {
        let (b, b2) = (w[0], w[1]);
        let len = b2 - b;
        a.iter_mut().for_each(|x| *x = 0);
        cands.clear();
        let mut used = 0i64;
        for (k, task) in sys.tasks().iter().enumerate() {
            let n = sys.task_subtasks(task.id).len() as i64;
            if alloc[k] >= n {
                continue;
            }
            let fluid = (task.weight.as_rat() * Rat::int(b2)).min(Rat::int(n));
            let pw = fluid - Rat::int(alloc[k]);
            if !pw.is_positive() {
                continue;
            }
            let mand = pw.floor().min(len);
            a[k] = mand;
            used += mand;
            let frac = pw - Rat::int(pw.floor());
            if frac.is_positive() && mand < len {
                let next_own = (b / task.weight.p() + 1) * task.weight.p();
                cands.push((frac, next_own, k));
            }
        }
        let spare = (i64::from(m) * len - used).max(0);
        match policy {
            BfOptionalPolicy::ByIdOrder => cands.sort_unstable_by_key(|c| c.2),
            BfOptionalPolicy::Never => cands.clear(),
        }
        for &(_, _, k) in cands
            .iter()
            .take(usize::try_from(spare).expect("spare is nonnegative"))
        {
            a[k] += 1;
        }

        let mut tape = 0i64;
        for k in 0..n_tasks {
            if a[k] == 0 {
                continue;
            }
            let mut mine: Vec<(i64, u32)> = (0..a[k])
                .map(|j| {
                    let cell = tape + j;
                    (
                        b + cell % len,
                        u32::try_from(cell / len).expect("strip index fits u32"),
                    )
                })
                .collect();
            tape += a[k];
            mine.sort_unstable();
            for (slot, proc) in mine {
                let st = SubtaskRef(cursor[k]);
                cursor[k] += 1;
                alloc[k] += 1;
                let c = checked_cost(cost.cost(sys, st), st);
                placements.push(Placement {
                    st,
                    proc,
                    start: Rat::int(slot),
                    cost: c,
                    holds_until: Rat::int(slot + 1),
                });
            }
        }
    }
    Schedule::new(sys, QuantumModel::Bf, m, placements)
}

/// BF with optional units granted by task id instead of urgency.
fn simulate_bf_optional_by_id(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    bf_mutant_schedule(sys, m, cost, BfOptionalPolicy::ByIdOrder)
}

/// BF that never grants optional units.
fn simulate_bf_mandatory_only(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    bf_mutant_schedule(sys, m, cost, BfOptionalPolicy::Never)
}

/// Which capacity bug a flow mutant plants in the PF-window network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlowBug {
    /// BUG: slot → sink edges carry `m + 1`, so a slot can overfill.
    OverfullSlot,
    /// BUG: window edges extend through the deadline slot (inclusive), so
    /// a subtask can land one slot late.
    WindowSlip,
}

/// The flow-network chassis both flow mutants share: the same
/// deterministic PF-window network as the reference engine, built in one
/// pass and solved with a single Dinic run, with `bug` planted. The
/// extraction skips the reference's per-slot capacity assert so the
/// broken solution flows through to the schedule.
fn flow_mutant_schedule(
    sys: &TaskSystem,
    m: u32,
    cost: &mut dyn CostModel,
    bug: FlowBug,
) -> Schedule {
    let n = sys.num_subtasks();
    if n == 0 {
        return Schedule::new(sys, QuantumModel::Flow, m, Vec::new());
    }
    let slip = i64::from(bug == FlowBug::WindowSlip);
    let horizon = sys.max_deadline() + slip;
    let slot_cap = i64::from(m) + i64::from(bug == FlowBug::OverfullSlot);

    let n_tasks = sys.num_tasks();
    let mut ts_base = vec![0usize; n_tasks];
    let mut task_lo = vec![0i64; n_tasks];
    let mut task_hi = vec![0i64; n_tasks];
    let mut next = 1 + n;
    for (k, task) in sys.tasks().iter().enumerate() {
        let subs = sys.task_subtasks(task.id);
        ts_base[k] = next;
        if subs.is_empty() {
            continue;
        }
        task_lo[k] = subs.iter().map(|s| s.release).min().expect("nonempty");
        task_hi[k] = subs.iter().map(|s| s.deadline).max().expect("nonempty") + slip;
        next += usize::try_from(task_hi[k] - task_lo[k]).expect("window span fits usize");
    }
    let slot_base = next;
    let horizon_len = usize::try_from(horizon).expect("horizon fits usize");
    let sink = slot_base + horizon_len;
    let mut net = FlowNetwork::new(sink + 1);

    for t in 0..horizon_len {
        net.add_edge(slot_base + t, sink, slot_cap);
    }
    let mut window_edges: Vec<(EdgeId, SubtaskRef, i64)> = Vec::new();
    for (k, task) in sys.tasks().iter().enumerate() {
        for st in sys.task_subtask_refs(task.id) {
            let s = sys.subtask(st);
            net.add_edge(0, 1 + st.idx(), 1);
            for slot in s.release..s.deadline + slip {
                let ts = ts_base[k] + usize::try_from(slot - task_lo[k]).expect("in range");
                let eid = net.add_edge(1 + st.idx(), ts, 1);
                window_edges.push((eid, st, slot));
            }
        }
        for slot in task_lo[k]..task_hi[k] {
            let ts = ts_base[k] + usize::try_from(slot - task_lo[k]).expect("in range");
            let slot_idx = usize::try_from(slot).expect("in range");
            net.add_edge(ts, slot_base + slot_idx, 1);
        }
    }
    let saturated = net.max_flow(0, sink);
    assert!(
        saturated == i64::try_from(n).expect("subtask count fits i64"),
        "flow mutant: max flow {saturated} < {n} subtasks"
    );

    let mut slot_of: Vec<Option<i64>> = vec![None; n];
    for &(eid, st, slot) in &window_edges {
        if net.flow(eid) == 1 {
            slot_of[st.idx()] = Some(slot);
        }
    }
    let mut by_slot: Vec<(i64, SubtaskRef)> = slot_of
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let i_u32 = u32::try_from(i).expect("subtask count fits u32");
            (
                s.expect("saturation places every subtask"),
                SubtaskRef(i_u32),
            )
        })
        .collect();
    by_slot.sort_unstable();
    let mut placements = Vec::with_capacity(n);
    let mut i = 0;
    while i < by_slot.len() {
        let slot = by_slot[i].0;
        let run = by_slot[i..].iter().take_while(|x| x.0 == slot).count();
        for (proc, &(_, st)) in by_slot[i..i + run].iter().enumerate() {
            let c = checked_cost(cost.cost(sys, st), st);
            placements.push(Placement {
                st,
                proc: u32::try_from(proc).expect("proc fits u32"),
                start: Rat::int(slot),
                cost: c,
                holds_until: Rat::int(slot + 1),
            });
        }
        i += run;
    }
    Schedule::new(sys, QuantumModel::Flow, m, placements)
}

/// Flow engine with per-slot capacity `m + 1`.
fn simulate_flow_overfull(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    flow_mutant_schedule(sys, m, cost, FlowBug::OverfullSlot)
}

/// Flow engine whose windows include the deadline slot.
fn simulate_flow_window_slip(sys: &TaskSystem, m: u32, cost: &mut dyn CostModel) -> Schedule {
    flow_mutant_schedule(sys, m, cost, FlowBug::WindowSlip)
}

/// One deliberately planted concurrency bug in the real runtime.
///
/// Unlike [`Mutant`], which swaps a broken *engine* into the differential
/// harness, a runtime mutant arms a [`FaultPlan`](pfair_runtime::FaultPlan) inside `pfair-runtime`
/// itself — a torn dispatch batch, a lost combiner wakeup, a stale key
/// read — and the replay bank
/// ([`crate::runtime::runtime_bank`]) must catch the damage in the
/// recorded artifacts of a real multi-threaded run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeMutant {
    /// Mutant name.
    pub name: &'static str,
    /// What was broken, in one sentence.
    pub description: &'static str,
    /// The fault to arm in [`pfair_runtime::RuntimeConfig::fault`].
    pub fault: pfair_runtime::FaultPlan,
    /// The execution mode under which the bug is observable.
    pub mode: pfair_runtime::Mode,
    /// The bank invariant expected to fire first on a catching seed.
    pub expect: &'static str,
}

/// The concurrency-mutant roster: each fault is caught by a *different*
/// invariant of the replay bank, which is what proves the bank's checks
/// are independent rather than one law firing for everything.
#[must_use]
pub fn runtime_mutants() -> Vec<RuntimeMutant> {
    use pfair_runtime::{FaultPlan, Mode};
    vec![
        RuntimeMutant {
            name: "torn-dispatch-batch",
            description: "the combiner records stale processor ids for all but the \
                          first entry of a multi-assignment dispatch batch, as if the \
                          batch were published non-atomically; delivery stays correct, \
                          so only the recorded stream is torn",
            fault: FaultPlan::TornDispatchBatch,
            mode: Mode::FreeRunning,
            expect: "replay-structural",
        },
        RuntimeMutant {
            name: "lost-wakeup-combiner",
            description: "the combiner drops the first completion it drains, the \
                          classic lost-wakeup: the worker already published and will \
                          never re-notify, so the run stalls and the watchdog \
                          truncates the log",
            fault: FaultPlan::LostWakeupCombiner,
            mode: Mode::FreeRunning,
            expect: "replay-completeness",
        },
        RuntimeMutant {
            name: "stale-keycache-read",
            description: "dispatch is keyed by the predecessor's key for any \
                          subtask that has one, a stale-read race: every quantum still \
                          executes and replays cleanly, but priorities shift and the \
                          schedule silently diverges from the reference",
            fault: FaultPlan::StaleKeyCacheRead,
            mode: Mode::Deterministic,
            expect: "determinism-equality",
        },
    ]
}
