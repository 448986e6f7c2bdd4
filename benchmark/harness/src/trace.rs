//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is one call: name, start, end, the span that caused it, the
//! root it belongs to (one root per burst or per control-plane cycle) and
//! how many items (packets, flow_mods) it handled. Every span feeds a
//! per-name aggregate; the raw spans of the first [`RETAINED_ROOTS`] roots
//! are kept as well and written out, which bounds the file and the memory
//! the tracer itself touches while the twin runs.

use std::fmt::Write as _;
use std::time::Instant;

/// Roots whose raw spans are retained for the trace file.
pub const RETAINED_ROOTS: u32 = 256;

#[derive(Clone, Copy)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    retained_idx: Option<usize>,
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    root: u32,
    items: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span of the run.
#[derive(Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub items: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    aggregates: Vec<(&'static str, Aggregate)>,
    roots: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
pub struct Entered(bool);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            spans: Vec::new(),
            aggregates: Vec::new(),
            roots: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whatever span is open now (a root if none is).
    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.on {
            return Entered(false);
        }
        if self.stack.is_empty() {
            self.roots += 1;
        }
        let retained_idx = (self.roots <= RETAINED_ROOTS).then(|| {
            let parent = self.stack.last().and_then(|o| o.retained_idx);
            self.spans.push(Span {
                name,
                parent,
                root: self.roots,
                items: 0,
                start_ns: 0,
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            retained_idx,
        });
        Entered(true)
    }

    /// Closes the innermost span, crediting it with `items`.
    pub fn exit(&mut self, entered: Entered, items: u64) {
        if !entered.0 {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let total = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        if let Some(idx) = open.retained_idx {
            let span = &mut self.spans[idx];
            span.items = items;
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        let pos = match self.aggregates.iter().position(|(n, _)| *n == open.name) {
            Some(pos) => pos,
            None => {
                self.aggregates.push((open.name, Aggregate::default()));
                self.aggregates.len() - 1
            }
        };
        let agg = &mut self.aggregates[pos].1;
        agg.count += 1;
        agg.items += items;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(open.child_ns);
    }

    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Total time of `name` per item of `per`, in nanoseconds (0 when
    /// either never ran).
    pub fn ns_per(&self, name: &str, items: u64) -> f64 {
        if items == 0 {
            return 0.0;
        }
        self.aggregate(name).total_ns as f64 / items as f64
    }

    /// Share of the root spans' time that named child spans account for.
    pub fn attributed_share(&self, root: &str) -> f64 {
        let root = self.aggregate(root);
        if root.total_ns == 0 {
            return 0.0;
        }
        1.0 - root.self_ns as f64 / root.total_ns as f64
    }

    /// The trace as JSON: the per-name aggregate over all spans, then the
    /// retained raw spans.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"roots\":{},\"retained_roots\":{},\"aggregate\":[",
            self.roots,
            self.roots.min(RETAINED_ROOTS)
        );
        for (i, (name, a)) in self.aggregates.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"items\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.items, a.total_ns, a.self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"root\":{},\"items\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.root, s.items, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
