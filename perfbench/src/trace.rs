//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer: its name, start and end (ns since
//! the tracer was created), the span that caused it, the job it belongs to
//! (shared by all of that job's children) and the recording thread. Spans
//! stay in memory until the run ends and are then written to one JSON file.
//! With tracing off no `Tracer` exists and nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub job: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id for a span whose children are recorded before it ends.
    pub fn reserve(&self) -> SpanId {
        // Relaxed: the id only has to be unique, it publishes no data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        job: u32,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            job,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking job")
            .push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, name, parent, job, start, end);
        id
    }

    /// Moves every span recorded so far out of the tracer, sorted by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span recorder poisoned by a panicking job"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Runs `f` inside a span named `name` when tracing is on; the span's id is
/// passed to `f` so its children can name their parent.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    job: u32,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(tr) => {
            let id = tr.reserve();
            let start = Instant::now();
            let out = f(Some(id));
            tr.record_as(id, name, parent, job, start, Instant::now());
            out
        }
    }
}

/// Per-name totals: `(calls, total seconds, self seconds)`. A span's self
/// time is its duration minus the part of it its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_cover: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_cover.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = child_cover.get(&s.id).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64 * 1e-9;
        e.2 += s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Renders spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id, sp.job, sp.name, sp.start_ns, sp.end_ns
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push(']');
    s.push('\n');
    s
}
