//! Outside-in span recorder.
//!
//! Nothing inside the crates is instrumented: a span here wraps one
//! call from the benchmark into a layer's *public* function. Spans stay
//! in memory while a workload runs and are written out when it ends.
//! A disabled tracer records nothing, so the untraced pass — the only
//! source of end-to-end metrics — pays one branch per call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. `parent` is 0 for the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost open span of the calling thread, to hand to
    /// [`Tracer::adopt`] on a thread it spawns.
    pub fn current(&self) -> u32 {
        CURRENT.with(Cell::get)
    }

    /// Makes `parent` the open span of the calling thread, so spans a
    /// client thread records hang under the span that spawned it.
    pub fn adopt(&self, parent: u32) {
        CURRENT.with(|c| c.set(parent));
    }

    /// Runs `f` inside a span named `name`, child of the thread's open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(parent));
        self.spans
            .lock()
            .expect("no span is recorded while another panics")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span is recorded while another panics"),
        )
    }
}

/// A span's self time is its duration minus the part of that interval
/// its children cover (children on other threads may overlap each
/// other, so the cover is an interval union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut table: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        let covered = children.get_mut(&s.id).map_or(0, |intervals| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_ns += duration;
        row.self_ns += duration - covered;
    }
    table
}

/// The spans as a JSON array of
/// `{id, parent, workload, name, start_ns, end_ns}` objects.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            // Two overlapping children on different threads, one
            // running past the parent's end.
            span(2, 1, "child", 10, 50),
            span(3, 1, "child", 40, 120),
        ];
        let table = self_times(&spans);
        assert_eq!(table["root"].self_ns, 10);
        assert_eq!(table["child"].self_ns, 40 + 80);
        assert_eq!(table["child"].calls, 2);
    }

    #[test]
    fn spans_nest_per_thread_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || tracer.span("inner", || ()));
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!((outer.parent, inner.parent), (0, outer.id));

        let off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.take_spans().is_empty());
    }
}
