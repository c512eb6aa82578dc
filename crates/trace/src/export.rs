//! Machine-readable trace bundles.
//!
//! A [`TraceBundle`] packages a task system, its schedule, and headline
//! statistics into one serde-serializable value; [`TraceBundle::to_json`]
//! emits it for downstream tooling (plotting, regression archives).
//! [`events_to_jsonl`] is the streaming counterpart: it renders a captured
//! [`pfair_obs::SchedEvent`] stream as newline-delimited JSON, one event
//! per line (the format `pfairsim run --events <path>` writes).

use pfair_numeric::Rat;
use pfair_obs::{JsonlObserver, Observer, SchedEvent};
use pfair_sim::{QuantumModel, Schedule};
use pfair_taskmodel::TaskSystem;
use serde::{Deserialize, Serialize};

/// A self-contained export of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceBundle {
    /// The simulated task system.
    pub system: TaskSystem,
    /// The resulting schedule.
    pub schedule: Schedule,
    /// Quantum model (duplicated from the schedule for easy filtering).
    pub model: QuantumModel,
    /// Maximum subtask tardiness.
    pub max_tardiness: Rat,
    /// Number of deadline misses.
    pub misses: usize,
}

/// Builds a [`TraceBundle`] from a run.
#[must_use]
pub fn trace_bundle(sys: &TaskSystem, sched: &Schedule) -> TraceBundle {
    let mut max_tardiness = Rat::ZERO;
    let mut misses = 0usize;
    for (st, s) in sys.iter_refs() {
        let t = (sched.completion(st) - Rat::int(s.deadline)).max(Rat::ZERO);
        if t.is_positive() {
            misses += 1;
            max_tardiness = max_tardiness.max(t);
        }
    }
    TraceBundle {
        system: sys.clone(),
        schedule: sched.clone(),
        model: sched.model(),
        max_tardiness,
        misses,
    }
}

impl TraceBundle {
    /// Serializes to pretty-printed JSON.
    ///
    /// # Panics
    /// Panics if serialization fails (all field types are
    /// infallibly serializable).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("TraceBundle serializes infallibly")
    }

    /// Parses a bundle back from JSON.
    ///
    /// # Errors
    /// Any `serde_json` parse error.
    pub fn from_json(s: &str) -> Result<TraceBundle, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Renders an event stream as newline-delimited JSON (one externally
/// tagged object per line, e.g. `{"Tick":{"at":[3,1]}}`), by replaying it
/// through a [`JsonlObserver`]. To export a live run, attach a
/// [`JsonlObserver`] to a simulator run instead:
///
/// ```
/// use pfair_core::Pd2;
/// use pfair_obs::JsonlObserver;
/// use pfair_sim::{run, Engine, FullQuantum};
/// use pfair_taskmodel::release;
///
/// let sys = release::periodic(&[(1, 2)], 2);
/// let mut jsonl = JsonlObserver::new();
/// let _ = run(Engine::Sfq(&Pd2), &sys, 1, &mut FullQuantum, &mut jsonl);
/// assert!(jsonl.to_jsonl().starts_with("{\"Tick\":{\"at\":[0,1]}}\n"));
/// ```
#[must_use]
pub fn events_to_jsonl(events: &[SchedEvent]) -> String {
    let mut obs = JsonlObserver::new();
    for ev in events {
        obs.on_event(ev);
    }
    obs.to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::Pd2;
    use pfair_sim::{run, simulate_dvq, simulate_sfq, Engine, FixedCosts, FullQuantum};
    use pfair_taskmodel::{release, TaskId};

    #[test]
    fn round_trip_json() {
        let sys = release::periodic(&[(1, 2), (3, 4)], 8);
        let sched = simulate_sfq(&sys, 2, &Pd2, &mut FullQuantum);
        let bundle = trace_bundle(&sys, &sched);
        assert_eq!(bundle.max_tardiness, Rat::ZERO);
        assert_eq!(bundle.misses, 0);
        let json = bundle.to_json();
        let back = TraceBundle::from_json(&json).unwrap();
        assert_eq!(back.system, bundle.system);
        assert_eq!(back.misses, 0);
        assert_eq!(back.schedule.placements().len(), sched.placements().len());
    }

    #[test]
    fn records_misses() {
        let sys = release::periodic_named(
            &[
                ("A", 1, 6),
                ("B", 1, 6),
                ("C", 1, 6),
                ("D", 1, 2),
                ("E", 1, 2),
                ("F", 1, 2),
            ],
            6,
        );
        let delta = Rat::new(1, 4);
        let mut costs = FixedCosts::new(Rat::ONE)
            .with(TaskId(0), 1, Rat::ONE - delta)
            .with(TaskId(5), 1, Rat::ONE - delta);
        let sched = simulate_dvq(&sys, 2, &Pd2, &mut costs);
        let bundle = trace_bundle(&sys, &sched);
        assert_eq!(bundle.misses, 1);
        assert_eq!(bundle.max_tardiness, Rat::ONE - delta);
        assert_eq!(bundle.model, QuantumModel::Dvq);
        assert!(bundle.to_json().contains("\"misses\": 1"));
    }

    #[test]
    fn jsonl_matches_live_capture() {
        // Replaying a recorded event list must produce the same document a
        // live JsonlObserver would have written.
        let sys = release::periodic(&[(1, 2), (1, 3)], 6);
        let mut live = JsonlObserver::new();
        let _ = run(Engine::Sfq(&Pd2), &sys, 1, &mut FullQuantum, &mut live);
        let recorded: Vec<SchedEvent> = {
            // Re-run, collecting the raw events this time.
            struct Collect(Vec<SchedEvent>);
            impl Observer for Collect {
                fn on_event(&mut self, ev: &SchedEvent) {
                    self.0.push(ev.clone());
                }
            }
            let mut c = Collect(Vec::new());
            let _ = run(Engine::Sfq(&Pd2), &sys, 1, &mut FullQuantum, &mut c);
            c.0
        };
        assert!(!recorded.is_empty());
        assert_eq!(events_to_jsonl(&recorded), live.to_jsonl());
        // One JSON object per line, each externally tagged.
        for line in live.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
