//! In-memory spans recorded around the benchmark's calls into the
//! program, and the arithmetic that turns them into a layer ledger.
//!
//! Spans are kept in a `Vec` while the run is timed and written out
//! once, at the end. A span's *self time* is its duration minus the
//! part of its interval that its child spans cover; summing self time
//! per layer therefore never counts nested work twice.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The span open when this one began, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `vision.detect`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. Spans nest by call order: a span
/// begun while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans` (which must be one
/// tracer's spans, so ids are indices): duration minus the union of
/// its children's intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(calls, total self time in ns)`.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Total self time, in ns, of every span whose layer (the name up to
/// the first `.`) is in `layers`.
pub fn layer_self_ns(ledger: &BTreeMap<&'static str, (u64, u64)>, layers: &[&str]) -> u64 {
    ledger
        .iter()
        .filter(|(name, _)| layers.contains(&name.split('.').next().unwrap_or(name)))
        .map(|(_, &(_, ns))| ns)
        .sum()
}

/// End-to-end CPU per camera input not accounted for by any replayed
/// layer: `cpu_ms_per_input - layer_self_ns / inputs`, in ms. Negative
/// when the single-threaded replay spends more than the live run did.
pub fn unattributed_ms_per_input(cpu_ms_per_input: f64, layer_self_ns: u64, inputs: usize) -> f64 {
    cpu_ms_per_input - layer_self_ns as f64 / 1e6 / inputs.max(1) as f64
}

/// Writes span groups to `path` as JSON lines, creating its directory:
/// per group one header object, then one `[id, parent, name, start,
/// end]` array per span (times in ns from the group's epoch).
pub fn write_spans(path: &Path, run: &str, groups: &[(&str, &[Span])]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (group, spans) in groups {
        writeln!(
            out,
            "{{\"run\":\"{run}\",\"group\":\"{group}\",\"spans\":{},\"fields\":[\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\"]}}",
            spans.len()
        )?;
        for s in *spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "[{},{parent},\"{}\",{},{}]",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "core.frame", 0, 100),
            // Two overlapping children cover 10..50 once, not twice.
            span(1, Some(0), "vision.detect", 10, 40),
            span(2, Some(0), "vision.recognize", 30, 50),
            // A child running past its parent is clipped to it.
            span(3, Some(0), "emotion.mlp", 90, 120),
            // A grandchild only reduces its own parent.
            span(4, Some(1), "vision.inner", 15, 25),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 30 - 10, 20, 30, 10]);
    }

    #[test]
    fn properly_nested_self_times_sum_to_the_root() {
        let spans = vec![
            span(0, None, "core.finish", 0, 100),
            span(1, Some(0), "video.parse", 5, 45),
            span(2, Some(1), "video.inner", 10, 20),
            span(3, Some(0), "analysis.smooth", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn ledger_groups_by_name_and_layer() {
        let spans = vec![
            span(0, None, "replay", 0, 1_000),
            span(1, Some(0), "vision.detect", 0, 100),
            span(2, Some(0), "vision.detect", 100, 250),
            span(3, Some(0), "emotion.lbp", 250, 300),
            span(4, Some(0), "analysis.fuse", 300, 320),
        ];
        let l = ledger(&spans);
        assert_eq!(l["vision.detect"], (2, 250));
        assert_eq!(l["replay"], (1, 1_000 - 320));
        assert_eq!(layer_self_ns(&l, &["vision", "emotion"]), 300);
        assert_eq!(layer_self_ns(&l, &["analysis"]), 20);
    }

    #[test]
    fn unattributed_is_cpu_minus_replayed_layers_per_input() {
        // 4 inputs, 2.0 ms of CPU each; layers replay 6 ms in total.
        let u = unattributed_ms_per_input(2.0, 6_000_000, 4);
        assert!((u - 0.5).abs() < 1e-12);
        // A replay slower than the run gives a negative residual.
        assert!(unattributed_ms_per_input(1.0, 8_000_000, 4) < 0.0);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("core.push");
        let v = t.time("core.inner", || 7);
        t.end(outer);
        t.time("core.poll", || ());
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
