//! In-memory span recorder for traced runs.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the libraries' public functions (nothing inside the libraries is
//! instrumented). They stay in memory and are written out once, when the
//! run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    /// What was timed, e.g. `sim.Connection::run_until bare`.
    name: String,
    /// The enclosing span, if any.
    parent: Option<SpanId>,
    /// Which iteration (or ledger pass) the span belongs to.
    iteration: u32,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    end_ns: u64,
}

/// Thread-safe span store; job spans close on pool worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a traced call panicked while recording")
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: impl Into<String>, parent: Option<SpanId>, iteration: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.into(),
            parent,
            iteration,
            start_ns,
            end_ns: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&self, id: SpanId) -> Duration {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        let span = &mut spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Runs `f` inside a span, returning its result and the span's length.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        iteration: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, iteration);
        let out = f();
        (out, self.close(id))
    }

    /// The spans as a JSON array, one object per line, each with its self
    /// time: its duration minus the part of it that its children cover
    /// (children running concurrently on pool workers overlap, so the
    /// covered part is the union of their intervals, not their sum).
    pub fn to_json(&self) -> String {
        let spans = self.lock().clone();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = String::from("[\n");
        for (id, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_ns(&mut children[id]);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": {:?}, \"parent\": {parent}, \"iteration\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.iteration,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(covered),
            );
            out.push_str(if id + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            total += end - from;
            reach = end;
        }
    }
    total
}
