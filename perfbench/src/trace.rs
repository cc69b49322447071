//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(id, parent, op, name, start, end, outcome)`; spans of one
//! op share the op id. They stay in memory during the window and are
//! written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ea_core::{Failure, Instance, Solution, SolveCtx, Solver};

use crate::stats::self_time;

/// One recorded span (times in ns since the tracer's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub start: u64,
    pub end: u64,
    /// `"ok"`, `"fail"`, `"cap"`, … — what the call returned.
    pub outcome: &'static str,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The span sink, shared by every thread that records.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (so children can name their parent before the
    /// parent closes).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a closed span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Times `f` as a span named `name`; `f` gets the span's own id and
    /// returns its result plus the outcome label.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        op: u64,
        name: &str,
        f: impl FnOnce(u64) -> (R, &'static str),
    ) -> R {
        let id = self.id();
        let start = self.now();
        let (r, outcome) = f(id);
        let end = self.now();
        self.record(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start,
            end,
            outcome,
        });
        r
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Writes spans as JSON lines, each with its self time.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"outcome\":\"{}\"}}",
            s.id, s.op, s.name, s.start, s.end, s.outcome
        )?;
    }
    out.flush()
}

/// Self time of every span (duration minus the union of its children).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            self_time(
                s.start,
                s.end,
                children.get(&s.id).map_or(&[], Vec::as_slice),
            )
        })
        .collect()
}

/// A [`Solver`] that records a span around each `solve` of the solver it
/// wraps. It keeps the inner name, so a portfolio of wrapped solvers mixes
/// the same per-solver seeds and returns the same energies.
pub struct TracedSolver {
    pub inner: Arc<dyn Solver>,
    pub tracer: Arc<Tracer>,
    pub parent: u64,
    pub op: u64,
}

impl Solver for TracedSolver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(&self, inst: &Instance, ctx: &SolveCtx) -> Result<Solution, Failure> {
        let name = format!("solve.{}", self.inner.name());
        self.tracer.span(Some(self.parent), self.op, &name, |_| {
            let r = self.inner.solve(inst, ctx);
            let outcome = match &r {
                Ok(_) => "ok",
                Err(Failure::NoValidMapping(_)) => "fail",
                Err(Failure::TooExpensive(_)) => "budget",
            };
            (r, outcome)
        })
    }
}
