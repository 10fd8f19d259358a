//! Dependency-free tracing primitives shared by the whole workspace:
//! per-request **trace IDs**, **zero-cost-when-disabled spans** over the
//! monotonic clock, a thread-safe **bounded ring** of finished request
//! traces, and a **structured slow-request log** (text or JSONL) for
//! stderr.
//!
//! The crate sits below everything else — it depends on `std` only (not
//! even `sabre_json`), so any layer from the core search loop to the
//! HTTP reactor can record spans without a dependency cycle. JSON output
//! is hand-rendered from flat key/value pairs; the serving layer
//! re-exposes the same traces through its own JSON stack.
//!
//! # Zero-cost discipline
//!
//! Every API is usable on a hot path with tracing disabled:
//!
//! - [`SpanClock::start`] on a disabled clock is a branch returning
//!   [`Span::DISABLED`] — no clock read, no allocation.
//! - [`TraceRing::push`] on a zero-capacity ring returns before taking
//!   the lock.
//! - [`SlowLog::record`] with a zero threshold never renders anything.
//!
//! The routing hot loop's bit-identity contract is preserved by
//! construction: a disabled span never touches the values the search
//! computes, only (optionally) the clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Trace IDs
// ---------------------------------------------------------------------------

/// Upper bound on an accepted trace ID's length. Client-supplied
/// `X-Request-Id` values longer than this are replaced with a generated
/// ID rather than truncated (a truncated ID would silently alias).
pub const MAX_TRACE_ID_LEN: usize = 64;

/// Process-wide counter mixed into every generated ID so two requests
/// accepted in the same clock tick still get distinct IDs.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Generates a fresh 16-hex-digit trace ID: wall-clock nanoseconds mixed
/// with a process-wide counter through a SplitMix64 finalizer. IDs are
/// unique within a process and collide across processes only with
/// birthday-bound probability on 64 bits.
pub fn next_trace_id() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let count = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut z = nanos ^ count.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // SplitMix64 finalizer: full avalanche so consecutive inputs do not
    // produce visually-adjacent IDs.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    format!("{z:016x}")
}

/// Whether a client-supplied trace ID is acceptable: 1 to
/// [`MAX_TRACE_ID_LEN`] characters, each ASCII alphanumeric or one of
/// `.`, `_`, `-`. Anything else (empty, oversized, spaces, control
/// bytes, non-ASCII) is rejected so IDs embed safely in headers, logs,
/// and JSON without escaping surprises.
pub fn is_valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_TRACE_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A handle that decides, once, whether spans are being recorded. Copy
/// it into a hot loop and call [`SpanClock::start`] at phase boundaries:
/// when disabled the call is a branch on an immediate — no clock read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanClock {
    enabled: bool,
}

impl SpanClock {
    /// A clock that never records: every span it starts is
    /// [`Span::DISABLED`].
    pub const OFF: SpanClock = SpanClock { enabled: false };
    /// A recording clock.
    pub const ON: SpanClock = SpanClock { enabled: true };

    /// `ON` when `enabled`, `OFF` otherwise.
    pub fn new(enabled: bool) -> SpanClock {
        if enabled {
            SpanClock::ON
        } else {
            SpanClock::OFF
        }
    }

    /// Whether spans started from this clock record time.
    pub fn is_enabled(self) -> bool {
        self.enabled
    }

    /// Starts a span at the current monotonic instant — or returns the
    /// disabled span without touching the clock.
    #[inline]
    pub fn start(self) -> Span {
        if self.enabled {
            Span(Some(Instant::now()))
        } else {
            Span::DISABLED
        }
    }
}

/// One in-flight span: either a monotonic start instant or nothing.
/// `Copy`, two words, no allocation.
#[derive(Clone, Copy, Debug)]
pub struct Span(Option<Instant>);

impl Span {
    /// The span a disabled [`SpanClock`] hands out: `elapsed_ns` is 0.
    pub const DISABLED: Span = Span(None);

    /// Starts a live span unconditionally.
    #[inline]
    pub fn now() -> Span {
        Span(Some(Instant::now()))
    }

    /// Nanoseconds since the span started (saturated to `u64`), or 0
    /// for a disabled span.
    #[inline]
    pub fn elapsed_ns(self) -> u64 {
        match self.0 {
            Some(started) => u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }
}

/// Milliseconds since the Unix epoch — the wall-clock stamp finished
/// traces carry so log lines order across processes.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Finished request traces
// ---------------------------------------------------------------------------

/// What a request's stages note about it on the way through: the ordered
/// phase durations, the device it routed against, and outcome
/// annotations. The reactor notes its own stages into the request's
/// [`RequestTrace::notes`]; a worker fills a fresh `TraceNotes` and the
/// reactor folds it in with one [`TraceNotes::merge`]. Names are
/// `'static` so noting a phase or an annotation never allocates for the
/// name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceNotes {
    /// Ordered `(phase, nanoseconds)` pairs. Phases are disjoint slices
    /// of the request's `total_ns`; instantaneous events may appear with a
    /// 0 duration.
    pub phases: Vec<(&'static str, u64)>,
    /// Device id the request routed against, when it reached a routing
    /// handler (`None` for non-routing endpoints and early rejections).
    pub device: Option<String>,
    /// Ordered `(name, value)` outcome annotations — quality counters
    /// such as inserted SWAPs or depth overhead, distinct from the
    /// duration-valued phases.
    pub annotations: Vec<(&'static str, u64)>,
}

impl TraceNotes {
    /// Appends what a later stage noted: its phases and annotations
    /// follow these, and its device stamp, if any, replaces this one.
    pub fn merge(&mut self, later: TraceNotes) {
        self.phases.extend(later.phases);
        if later.device.is_some() {
            self.device = later.device;
        }
        self.annotations.extend(later.annotations);
    }
}

/// One finished request: identity, outcome, total wall time, and the
/// notes its stages took — the named phase durations that decompose it,
/// its device and its outcome annotations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's trace ID (generated at accept or supplied by the
    /// client via `X-Request-Id`).
    pub id: String,
    /// HTTP method.
    pub method: String,
    /// Request target: path plus query, exactly as received.
    pub target: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock completion stamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// End-to-end wall time in nanoseconds (first byte read to last
    /// byte written).
    pub total_ns: u64,
    /// Phases, device and annotations.
    pub notes: TraceNotes,
}

impl RequestTrace {
    /// Renders the trace as one flat JSON object (one JSONL log line).
    pub fn to_json_line(&self) -> String {
        let notes = &self.notes;
        let mut out = String::with_capacity(128 + notes.phases.len() * 24);
        out.push_str("{\"trace_id\":");
        push_json_string(&mut out, &self.id);
        out.push_str(",\"method\":");
        push_json_string(&mut out, &self.method);
        out.push_str(",\"target\":");
        push_json_string(&mut out, &self.target);
        let _ = write!(
            out,
            ",\"status\":{},\"unix_ms\":{},\"total_ns\":{}",
            self.status, self.unix_ms, self.total_ns
        );
        if let Some(device) = &notes.device {
            out.push_str(",\"device\":");
            push_json_string(&mut out, device);
        }
        for (name, value) in &notes.annotations {
            out.push(',');
            push_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str(",\"phases\":{");
        for (i, (phase, ns)) in notes.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, phase);
            let _ = write!(out, ":{ns}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the trace as one human-oriented text log line.
    pub fn to_text_line(&self) -> String {
        let mut out = format!(
            "trace_id={} method={} target={} status={} total_ms={:.3}",
            self.id,
            self.method,
            self.target,
            self.status,
            self.total_ns as f64 / 1e6
        );
        let notes = &self.notes;
        if let Some(device) = &notes.device {
            let _ = write!(out, " device={device}");
        }
        for (name, value) in &notes.annotations {
            let _ = write!(out, " {name}={value}");
        }
        for (phase, ns) in &notes.phases {
            let _ = write!(out, " {}_ms={:.3}", phase, *ns as f64 / 1e6);
        }
        out
    }
}

/// Appends `value` as a JSON string literal (quotes included), escaping
/// per RFC 8259: `"` and `\`, the short escapes, and `\u00XX` for
/// remaining control bytes.
fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Bounded trace ring
// ---------------------------------------------------------------------------

/// Thread-safe bounded ring of the most recent finished traces. Pushing
/// past capacity drops the oldest entry; a zero-capacity ring is the
/// disabled configuration and never takes its lock on push. Traces are
/// `Arc`-held so a snapshot stays valid while newer requests rotate the
/// ring underneath it.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<RequestTrace>>>,
}

impl TraceRing {
    /// A ring keeping the last `capacity` traces (0 disables recording).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a finished trace, evicting the oldest entry when full.
    /// No-op (no lock) on a zero-capacity ring.
    pub fn push(&self, trace: RequestTrace) {
        if self.capacity == 0 {
            return;
        }
        let trace = Arc::new(trace);
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, **newest first**.
    pub fn snapshot(&self) -> Vec<Arc<RequestTrace>> {
        self.lock().iter().rev().cloned().collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the deque, recovering it if a thread panicked while holding
    /// it. No critical section can leave it inconsistent: a push is one
    /// `pop_front` and one `push_back`, a read clones `Arc`s, and none
    /// runs foreign code, so a panic under the lock finds the deque
    /// either before or after a whole step.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Arc<RequestTrace>>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Slow-request log
// ---------------------------------------------------------------------------

/// Wire format of the slow-request log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// `key=value` text lines.
    Text,
    /// One flat JSON object per line (JSONL).
    Json,
}

impl FromStr for LogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<LogFormat, String> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format `{other}` (expected text|json)")),
        }
    }
}

/// Structured slow-request logger: requests whose total wall time
/// reaches `threshold_ms` are rendered (text or JSONL) and written to
/// stderr. A zero threshold disables logging entirely.
#[derive(Debug)]
pub struct SlowLog {
    format: LogFormat,
    threshold_ms: u64,
}

impl SlowLog {
    /// A logger emitting `format` lines for requests at or above
    /// `threshold_ms` total wall time (0 = never log).
    pub fn new(format: LogFormat, threshold_ms: u64) -> SlowLog {
        SlowLog {
            format,
            threshold_ms,
        }
    }

    /// Whether `trace` crosses the slow threshold.
    pub fn is_slow(&self, trace: &RequestTrace) -> bool {
        self.threshold_ms > 0 && trace.total_ns >= self.threshold_ms.saturating_mul(1_000_000)
    }

    /// The log line this trace would produce (format applied, no
    /// trailing newline). Rendering is split from writing so tests can
    /// pin the format without capturing stderr.
    pub fn render(&self, trace: &RequestTrace) -> String {
        match self.format {
            LogFormat::Text => format!("slow_request {}", trace.to_text_line()),
            LogFormat::Json => {
                let line = trace.to_json_line();
                // Tag the record kind without re-rendering: the line is
                // a flat object, so splice the field in after `{`.
                let mut out = String::with_capacity(line.len() + 24);
                out.push_str("{\"event\":\"slow_request\",");
                out.push_str(&line[1..]);
                out
            }
        }
    }

    /// Logs `trace` to stderr if it is slow; returns whether a line was
    /// written.
    pub fn record(&self, trace: &RequestTrace) -> bool {
        if !self.is_slow(trace) {
            return false;
        }
        eprintln!("{}", self.render(trace));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RequestTrace {
        RequestTrace {
            id: "abc123".to_string(),
            method: "POST".to_string(),
            target: "/route?profile=true".to_string(),
            status: 200,
            unix_ms: 1_700_000_000_000,
            total_ns: 5_000_000,
            notes: TraceNotes {
                phases: vec![
                    ("read", 1_000_000),
                    ("route", 3_500_000),
                    ("write", 500_000),
                ],
                ..TraceNotes::default()
            },
        }
    }

    #[test]
    fn generated_ids_are_valid_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(is_valid_trace_id(id), "{id}");
        }
    }

    #[test]
    fn trace_id_validation_rejects_junk() {
        assert!(is_valid_trace_id("req-1.2_3"));
        assert!(is_valid_trace_id(&"a".repeat(MAX_TRACE_ID_LEN)));
        assert!(!is_valid_trace_id(""));
        assert!(!is_valid_trace_id(&"a".repeat(MAX_TRACE_ID_LEN + 1)));
        assert!(!is_valid_trace_id("has space"));
        assert!(!is_valid_trace_id("newline\n"));
        assert!(!is_valid_trace_id("non-ascii-é"));
        assert!(!is_valid_trace_id("quote\"inject"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let span = SpanClock::OFF.start();
        let live = SpanClock::new(true).start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(span.elapsed_ns(), 0);
        assert!(live.elapsed_ns() > 0);
    }

    #[test]
    fn live_spans_measure_monotonic_time() {
        let span = SpanClock::ON.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(span.elapsed_ns() >= 1_000_000);
    }

    #[test]
    fn ring_keeps_newest_first_and_bounded() {
        let ring = TraceRing::new(3);
        for i in 0..5u16 {
            let mut t = sample_trace();
            t.status = 200 + i;
            ring.push(t);
        }
        let snap = ring.snapshot();
        assert_eq!(ring.len(), 3);
        let statuses: Vec<u16> = snap.iter().map(|t| t.status).collect();
        assert_eq!(statuses, vec![204, 203, 202], "newest first");
    }

    #[test]
    fn a_poisoned_ring_keeps_recording() {
        let ring = TraceRing::new(2);
        let traced = |status: u16| RequestTrace {
            status,
            ..sample_trace()
        };
        ring.push(traced(200));
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = ring.ring.lock().unwrap();
                panic!("poison the trace ring");
            })
            .join()
        });
        assert!(poisoner.is_err() && ring.ring.is_poisoned());
        ring.push(traced(201));
        ring.push(traced(202));
        let statuses: Vec<u16> = ring.snapshot().iter().map(|t| t.status).collect();
        assert_eq!(statuses, vec![202, 201], "newest first, still bounded");
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn zero_capacity_ring_is_disabled() {
        let ring = TraceRing::new(0);
        ring.push(sample_trace());
        assert!(ring.is_empty());
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn json_line_is_flat_and_escaped() {
        let mut trace = sample_trace();
        trace.target = "/route?q=\"x\\y\"\n".to_string();
        let line = trace.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"target\":\"/route?q=\\\"x\\\\y\\\"\\n\""));
        assert!(line.contains("\"phases\":{\"read\":1000000,\"route\":3500000,\"write\":500000}"));
        assert!(!line.contains('\n'), "JSONL lines must stay on one line");
    }

    #[test]
    fn slow_log_applies_threshold_and_format() {
        let trace = sample_trace(); // 5 ms total
        let slow = SlowLog::new(LogFormat::Json, 5);
        assert!(slow.is_slow(&trace));
        let line = slow.render(&trace);
        assert!(line.starts_with("{\"event\":\"slow_request\",\"trace_id\":\"abc123\""));
        let fast = SlowLog::new(LogFormat::Json, 6);
        assert!(!fast.is_slow(&trace));
        let off = SlowLog::new(LogFormat::Text, 0);
        assert!(!off.record(&trace));
        let text = SlowLog::new(LogFormat::Text, 1).render(&trace);
        assert!(text.starts_with("slow_request trace_id=abc123 method=POST"));
        assert!(text.contains("route_ms=3.500"));
    }

    #[test]
    fn device_and_annotations_render_in_both_formats() {
        let mut trace = sample_trace();
        trace.notes.device = Some("tokyo20".to_string());
        trace.notes.annotations = vec![("swaps", 7), ("depth_overhead", 12)];
        let json = trace.to_json_line();
        assert!(json.contains("\"device\":\"tokyo20\""));
        assert!(json.contains(",\"swaps\":7,\"depth_overhead\":12,\"phases\":{"));
        let text = trace.to_text_line();
        assert!(text.contains(" device=tokyo20 swaps=7 depth_overhead=12 "));
        // A slow-request line carries the quality outcome too.
        let line = SlowLog::new(LogFormat::Text, 1).render(&trace);
        assert!(line.contains("device=tokyo20") && line.contains("swaps=7"));
        // Absent fields render nothing (no "device=" stub).
        let bare = sample_trace();
        assert!(!bare.to_json_line().contains("device"));
        assert!(!bare.to_text_line().contains("device"));
    }

    #[test]
    fn log_format_parses() {
        assert_eq!("text".parse::<LogFormat>().unwrap(), LogFormat::Text);
        assert_eq!("json".parse::<LogFormat>().unwrap(), LogFormat::Json);
        assert!("yaml".parse::<LogFormat>().is_err());
    }

    #[test]
    fn merge_appends_later_notes_and_keeps_a_device_stamp() {
        let mut notes = TraceNotes {
            phases: vec![("read", 1), ("parse", 2)],
            device: Some("tokyo20".to_string()),
            annotations: vec![("swaps", 3)],
        };
        notes.merge(TraceNotes {
            phases: vec![("queue_wait", 4)],
            annotations: vec![("depth_overhead", 5)],
            ..TraceNotes::default()
        });
        assert_eq!(notes.phases, [("read", 1), ("parse", 2), ("queue_wait", 4)]);
        assert_eq!(
            notes.device.as_deref(),
            Some("tokyo20"),
            "no stamp keeps it"
        );
        assert_eq!(notes.annotations, [("swaps", 3), ("depth_overhead", 5)]);
        notes.merge(TraceNotes {
            device: Some("qx5".to_string()),
            ..TraceNotes::default()
        });
        assert_eq!(notes.device.as_deref(), Some("qx5"), "a later stamp wins");
    }
}
