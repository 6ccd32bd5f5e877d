//! In-memory span recording for the traced pass.
//!
//! Every span is one call into a layer, timed from the benchmark's own
//! code: a name whose prefix before the first `.` is the layer (crate),
//! start and end relative to the tracer's origin, the enclosing span,
//! and the request (test index) it served. Spans stay in memory while
//! the pass runs and are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// Records nested spans in call order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Time and call count of one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct NameTotals {
    /// Calls recorded under the name.
    pub count: u64,
    /// Summed duration of those calls, in seconds.
    pub total_s: f64,
    /// `total_s` minus the time their child spans cover.
    pub self_s: f64,
}

impl NameTotals {
    /// Mean duration per call in microseconds (0 when never called).
    pub fn us_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s * 1e6 / self.count as f64
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name` for request `request`. Spans
    /// opened by `f` through the tracer it receives become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        result
    }

    /// Per-name totals, with self time net of direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            entry.count += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(children) as f64 * 1e-9;
        }
        totals
    }

    /// Summed duration of the top-level spans, in seconds: the time the
    /// pass spent inside some named layer call.
    pub fn root_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as tab-separated lines:
    /// `index name start_ns end_ns parent request` (`parent` is `-` for
    /// a top-level span).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}
