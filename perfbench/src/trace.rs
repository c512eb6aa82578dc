//! Spans around every call the benchmark makes into a layer.
//!
//! A span records its layer name, start, end, the span that caused it and
//! the op it belongs to. Spans stay in memory and are written out once,
//! when the run ends. A disabled tracer records nothing and costs one
//! branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op id of spans recorded outside any op (the isolated layer probes).
pub const NO_OP: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer, e.g. `sim.dvq`; `op` for the span around a whole op.
    pub layer: &'static str,
    /// Refinement of the layer (an invariant name), or `""`.
    pub detail: &'static str,
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn name(&self) -> String {
        if self.detail.is_empty() {
            self.layer.to_owned()
        } else {
            format!("{}.{}", self.layer, self.detail)
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer; `epoch` is shared by every tracer of a run so
    /// spans from different threads sit on one time axis.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        detail: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            detail,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        r
    }

    /// Closes every span left open by a panic that unwound through them.
    pub fn recover(&mut self) {
        let now = self.now_ns();
        for idx in self.stack.drain(..) {
            self.spans[idx as usize].end_ns = now;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = u32::try_from(all.len()).expect("fewer than 2^32 spans");
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the time its child spans
/// cover. Children of one span never overlap (one thread, one stack).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-layer totals of op spans: `(spans, self ns)` by span name.
#[derive(Debug, Default)]
pub struct LayerTable {
    pub layers: BTreeMap<String, (u64, u64)>,
    /// Total duration of the `op` spans.
    pub op_ns: u64,
    /// Summed self time of every span below an op.
    pub layer_ns: u64,
}

impl LayerTable {
    pub fn of(spans: &[Span]) -> LayerTable {
        let selfs = self_times(spans);
        let mut t = LayerTable::default();
        for (s, self_ns) in spans.iter().zip(selfs) {
            if s.op == NO_OP {
                continue;
            }
            if s.parent.is_none() {
                t.op_ns += s.dur_ns();
            } else {
                t.layer_ns += self_ns;
            }
            let e = t.layers.entry(s.name()).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        t
    }

    /// Measured layer time over op time.
    pub fn coverage(&self) -> f64 {
        ratio(self.layer_ns, self.op_ns)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Writes at most `cap` spans as JSON lines; returns how many it wrote.
pub fn write_jsonl(path: &Path, spans: &[Span], cap: usize) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = spans.len().min(cap);
    for (i, s) in spans.iter().take(n).enumerate() {
        let op = if s.op == NO_OP {
            "null".to_owned()
        } else {
            s.op.to_string()
        };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(n)
}
