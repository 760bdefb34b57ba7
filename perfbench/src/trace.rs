//! In-memory spans for the traced replay: name, start, end, parent and
//! request id, recorded around each call into a layer and written out when
//! the run ends. A disabled tracer records nothing, so the same replay code
//! gives the untraced baseline the tracing overhead is measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started span: its slot, or nothing when tracing is off.
#[must_use]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let slot = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: "",
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.stack.push(slot);
        Open(Some(slot))
    }

    /// Close a span, naming it now: the name may depend on what the call
    /// did (a predict that missed the fit cache is `predict.cold`).
    pub fn end(&mut self, open: Open, name: &'static str) {
        let Some(slot) = open.0 else { return };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(slot), "spans must nest");
        let span = &mut self.spans[slot as usize];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            by.entry(span.name).or_default().push(ns);
        }
        for values in by.values_mut() {
            values.sort_unstable();
        }
        by
    }

    /// Per request, the summed self time of all its spans: with a
    /// sequential replay every span lies on the request's blocking path.
    pub fn blocking_path_ns(&self) -> Vec<u64> {
        let mut by: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *by.entry(span.request).or_default() += ns;
        }
        let mut totals: Vec<u64> = by.into_values().collect();
        totals.sort_unstable();
        totals
    }

    /// The self-time table: per span name, count, median and mean self
    /// time, and share of all self time.
    pub fn table(&self) -> String {
        let by = self.self_by_name();
        let total: u64 = by.values().flatten().sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "p50 self us", "mean self us", "share"
        );
        for (name, values) in &by {
            let sum: u64 = values.iter().sum();
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
                name,
                values.len(),
                values[values.len() / 2] as f64 / 1e3,
                sum as f64 / values.len() as f64 / 1e3,
                100.0 * sum as f64 / total.max(1) as f64,
            );
        }
        out
    }

    /// Every span as one JSON array, for the dump written at exit.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_request(3);
        let outer = t.begin();
        let inner = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, "inner");
        t.end(outer, "outer");
        let selfs = t.self_times_ns();
        assert!(selfs[1] >= 2_000_000);
        assert!(selfs[0] < t.spans[0].dur_ns());
        assert_eq!(t.blocking_path_ns(), vec![t.spans[0].dur_ns()]);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].request, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin();
        t.end(open, "x");
        assert!(t.spans.is_empty());
    }
}
