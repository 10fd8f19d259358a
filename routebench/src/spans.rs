//! The traced run's span recorder: every layer call the benchmark makes
//! is wrapped in a span (name, start, end, parent span, request id),
//! kept in memory, and written out as JSON lines when the run ends. A
//! layer's self time is its span's duration minus the part covered by its
//! child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records nested spans when enabled; a disabled recorder only runs the
/// wrapped closures.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Wall duration of the span recorded at `index` (0 when disabled).
    pub fn duration_ns(&self, index: usize) -> f64 {
        self.spans
            .get(index)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64)
    }

    /// Self time of every span, grouped by name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            out.entry(span.name)
                .or_default()
                .push(total.saturating_sub(children) as f64);
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 1, |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = rec.self_times();
        let outer = times["outer"][0];
        let inner = times["inner"][0];
        assert!(inner >= 5e6, "inner {inner}");
        assert!(outer >= 2e6 && outer < inner, "outer {outer} inner {inner}");
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.to_jsonl().lines().count(), 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", 0, |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
