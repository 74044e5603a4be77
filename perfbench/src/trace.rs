//! In-memory spans recorded by the benchmark around each call into a
//! layer, and the self-time ledger computed from them.
//!
//! A span has a name, a start and end on one process-wide clock, the id of
//! the span that caused it, the run id of the simulation run it belongs to
//! (`0` outside runs) and the worker thread it ran on. Spans are kept in
//! memory while the workload runs and written out once, when it ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval around a layer call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process, never 0.
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// Simulation run this span belongs to (0 = not inside a run).
    pub run: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the process clock's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process clock's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One JSON object per span, for the spans file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"run\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.id, self.parent, self.run, self.thread, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Nanoseconds since the first call in this process (a monotonic clock
/// shared by every thread, so spans from pool workers line up).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let e = EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUM: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUM.with(|n| *n)
}

/// Span recorder for one thread of work. A disabled tracer runs the
/// wrapped closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer whose spans hang under `parent` (0 for roots) and
    /// carry run id `run`.
    pub fn on(parent: u64, run: u64) -> Tracer {
        Tracer {
            enabled: true,
            run,
            stack: vec![parent],
            spans: Vec::with_capacity(256),
        }
    }

    /// A tracer in the same mode as `self`, for work handed to another
    /// thread: its spans hang under this tracer's innermost open span.
    pub fn child(&self, run: u64) -> Tracer {
        if self.enabled {
            Tracer::on(self.current(), run)
        } else {
            Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Id of the innermost open span (0 when none).
    pub fn current(&self) -> u64 {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = next_id();
        let parent = self.current();
        let start_ns = now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = now_ns();
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            thread: thread_number(),
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Hand over every recorded span.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Children that ran in parallel on other
/// threads count once where they overlap. Keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Summed self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += own[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            thread: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0,100) with children [10,30) and [50,60); grandchild
        // [12,20) under the first child.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 2, "leaf", 12, 20),
            span(4, 1, "b", 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 10);
        assert_eq!(own[&2], 20 - 8);
        assert_eq!(own[&3], 8);
        assert_eq!(own[&4], 10);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn parallel_children_count_once_where_they_overlap() {
        // A pool span [0,100) with two workers' runs [0,60) and [10,90):
        // their union covers [0,90), so the pool's own time is the 10 ns
        // tail in which no run was active.
        let spans = vec![
            span(1, 0, "exec.map", 0, 100),
            span(2, 1, "sim.job", 0, 60),
            span(3, 1, "sim.job", 10, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 10);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["sim.job"], 60 + 80);
        assert_eq!(by_name["exec.map"], 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![span(1, 0, "p", 10, 20), span(2, 1, "c", 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::on(0, 7);
        let worker_spans = t.span("outer", |t| {
            t.span("inner", |_| ());
            let mut w = t.child(8);
            w.span("worker", |_| ());
            w.take()
        });
        let mut spans = t.take();
        spans.extend(worker_spans);
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let worker = spans.iter().find(|s| s.name == "worker").expect("worker");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(worker.parent, outer.id);
        assert_eq!((outer.run, worker.run), (7, 8));

        let mut off = Tracer::off();
        assert!(!off.span("x", |t| t.child(1).enabled()));
        assert!(off.take().is_empty());
    }
}
