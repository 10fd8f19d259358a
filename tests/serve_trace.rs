//! End-to-end observability suite for `sabre-serve`: request tracing,
//! the routing-phase profiler, and the Prometheus exposition format.
//!
//! Pins this PR's acceptance criteria over real loopback HTTP:
//! - every response carries an `X-Request-Id`, echoed verbatim when the
//!   client supplies a valid one and replaced when it does not;
//! - `POST /route?profile=true` returns a `profile` object whose phase
//!   durations are positive and sum to the reported hot-loop time,
//!   bounded by the request's wall time;
//! - `GET /debug/traces` retains the request (newest first, bounded by
//!   `trace_capacity`) with every serving phase recorded;
//! - routing through the server — profiled or not — stays byte-identical
//!   to a direct `SabreRouter` call with the same seed;
//! - `GET /metrics` is well-formed Prometheus text line-by-line: legal
//!   metric names, `# TYPE` before samples, monotone histogram buckets.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

mod common;
use common::{get_json, http, http_with_headers, post_json};

use sabre::{SabreConfig, SabreRouter};
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_qasm::to_qasm;
use sabre_serve::{start, ServeConfig, ServerHandle};
use sabre_topology::devices;
use sabre_trace::is_valid_trace_id;

/// Phases the reactor records for every worker-executed request.
const SERVING_PHASES: [&str; 7] = [
    "read",
    "parse",
    "admission",
    "queue_wait",
    "route",
    "serialize",
    "write",
];

fn server(config: ServeConfig) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("start loopback server")
}

fn register(addr: SocketAddr, id: &str, builtin: &str) {
    let (status, _) = post_json(
        addr,
        "/devices",
        &JsonValue::object([("id", id.into()), ("builtin", builtin.into())]),
    );
    assert_eq!(status, 201, "registering {builtin}");
}

/// Deterministic CX workload (same generator family as `serve_http.rs`).
fn workload(n: u32, rounds: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for r in 0..rounds {
        let a = (r * 7 + 3) % n;
        let b = (r * 5 + 1) % n;
        if a != b {
            c.cx(Qubit(a), Qubit(b));
        }
    }
    c
}

fn route_body(device: &str, circuit: &Circuit, seed: u64) -> String {
    JsonValue::object([
        ("device", device.into()),
        (
            "circuit",
            JsonValue::object([("qasm", to_qasm(circuit).into())]),
        ),
        (
            "config",
            JsonValue::object([("seed", seed.into()), ("num_restarts", 1u64.into())]),
        ),
    ])
    .to_compact()
}

fn phase_map(trace: &JsonValue) -> HashMap<String, u64> {
    match trace.get("phases").expect("trace has phases") {
        JsonValue::Object(fields) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().expect("phase duration is u64")))
            .collect(),
        other => panic!("phases is not an object: {other}"),
    }
}

/// Finds the `/debug/traces` entry with `trace_id == id`.
fn find_trace(addr: SocketAddr, id: &str) -> JsonValue {
    let (status, body) = get_json(addr, "/debug/traces");
    assert_eq!(status, 200);
    body.get("traces")
        .and_then(JsonValue::as_array)
        .expect("traces array")
        .iter()
        .find(|t| t.get("trace_id").and_then(JsonValue::as_str) == Some(id))
        .unwrap_or_else(|| panic!("trace {id} not retained: {body}"))
        .clone()
}

#[test]
fn profiled_route_echoes_trace_id_and_reports_phases() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");

    let circuit = workload(12, 80);
    let started = std::time::Instant::now();
    let (status, headers, text) = http(
        addr,
        "POST",
        "/route?profile=true",
        Some(&route_body("tokyo", &circuit, 7)),
    );
    let wall_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(status, 200, "{text}");
    let id = headers
        .get("x-request-id")
        .expect("response carries X-Request-Id");
    assert!(is_valid_trace_id(id), "generated id is well-formed: {id}");

    // The profile rides the result: positive phase durations that sum to
    // the reported hot-loop total, all inside the request's wall time.
    let body = JsonValue::parse(&text).expect("JSON response");
    let profile = body
        .get("result")
        .and_then(|r| r.get("profile"))
        .unwrap_or_else(|| panic!("profiled route returns a profile: {body}"));
    let field = |name: &str| {
        profile
            .get(name)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("profile field {name}: {profile}"))
    };
    assert!(field("traversals") > 0);
    assert!(field("search_steps") > 0);
    assert!(
        field("clean_steps") <= field("search_steps"),
        "clean steps are a subset of search steps: {profile}"
    );
    assert!(field("candidates_scored") > 0);
    assert!(field("scoring_ns") > 0, "scoring ran: {profile}");
    let hot_loop = field("hot_loop_ns");
    assert!(hot_loop > 0);
    assert_eq!(
        field("front_ns") + field("extended_set_ns") + field("scoring_ns"),
        hot_loop,
        "phase durations sum to the hot-loop total"
    );
    assert!(
        hot_loop <= wall_ns,
        "hot loop ({hot_loop}ns) is bounded by request wall time ({wall_ns}ns)"
    );
    let steps: Vec<u64> = profile
        .get("per_traversal_steps")
        .and_then(JsonValue::as_array)
        .expect("per-traversal steps")
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(steps.len() as u64, field("traversals"));
    assert_eq!(steps.iter().sum::<u64>(), field("search_steps"));

    // The debug ring retained the request with every serving phase.
    let trace = find_trace(addr, id);
    assert_eq!(
        trace.get("target").and_then(JsonValue::as_str),
        Some("/route?profile=true")
    );
    assert_eq!(trace.get("status").and_then(JsonValue::as_u64), Some(200));
    let phases = phase_map(&trace);
    for phase in SERVING_PHASES {
        assert!(phases.contains_key(phase), "phase {phase} missing: {trace}");
    }
    assert!(phases["route"] > 0, "routing took measurable time");
    let total = trace
        .get("total_ns")
        .and_then(JsonValue::as_u64)
        .expect("total_ns");
    assert!(total > 0);
    assert!(
        phases.values().sum::<u64>() <= total,
        "phases are disjoint slices of the total: {trace}"
    );
}

#[test]
fn client_supplied_request_id_is_echoed_or_replaced() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");
    let body = route_body("tokyo", &workload(8, 30), 1);

    // A valid client ID is echoed verbatim and lands in the debug ring.
    let supplied = "client-req_42.A";
    let (status, headers, _) = http_with_headers(
        addr,
        "POST",
        "/route",
        &[("X-Request-Id", supplied)],
        Some(&body),
    );
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("x-request-id").map(String::as_str),
        Some(supplied)
    );
    let trace = find_trace(addr, supplied);
    assert_eq!(
        trace.get("method").and_then(JsonValue::as_str),
        Some("POST")
    );

    // Invalid IDs (bad charset, oversized) are replaced with a generated
    // one — never echoed, never truncated.
    let oversized = "a".repeat(65);
    for junk in ["bad!id", "semi;colon", oversized.as_str()] {
        let (status, headers, _) = http_with_headers(
            addr,
            "POST",
            "/route",
            &[("X-Request-Id", junk)],
            Some(&body),
        );
        assert_eq!(status, 200);
        let echoed = headers.get("x-request-id").expect("id present");
        assert_ne!(echoed.as_str(), junk, "invalid id `{junk}` is replaced");
        assert!(is_valid_trace_id(echoed));
    }
}

#[test]
fn debug_traces_ring_is_bounded_and_newest_first() {
    let handle = server(ServeConfig {
        trace_capacity: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    for path in ["/healthz?n=1", "/healthz?n=2", "/healthz?n=3"] {
        let (status, _, _) = http(addr, "GET", path, None);
        assert_eq!(status, 200);
    }
    let (status, body) = get_json(addr, "/debug/traces");
    assert_eq!(status, 200);
    assert_eq!(body.get("capacity").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(body.get("count").and_then(JsonValue::as_u64), Some(2));
    let targets: Vec<&str> = body
        .get("traces")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|t| t.get("target").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(
        targets,
        vec!["/healthz?n=3", "/healthz?n=2"],
        "newest first, oldest evicted"
    );
}

#[test]
fn zero_trace_capacity_disables_retention() {
    let handle = server(ServeConfig {
        trace_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let (status, _, _) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, body) = get_json(addr, "/debug/traces");
    assert_eq!(status, 200);
    assert_eq!(body.get("count").and_then(JsonValue::as_u64), Some(0));
    assert!(body
        .get("traces")
        .and_then(JsonValue::as_array)
        .unwrap()
        .is_empty());
}

#[test]
fn profiling_never_changes_the_routed_artifact() {
    // Acceptance: with profiling off the served output is byte-identical
    // to the direct engine; with profiling on the routed artifact is the
    // same bytes again, plus a profile.
    let handle = server(ServeConfig {
        plan_cache_capacity: 0, // exercise the full search on every call
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");
    let circuit = workload(14, 120);
    let seed = 2019;

    let direct = SabreRouter::new(
        devices::ibm_q20_tokyo().graph().clone(),
        SabreConfig {
            seed,
            num_restarts: 1,
            ..SabreConfig::default()
        },
    )
    .expect("build router")
    .route(&circuit)
    .expect("direct route");

    let body = route_body("tokyo", &circuit, seed);
    let (status, _, off_text) = http(addr, "POST", "/route", Some(&body));
    assert_eq!(status, 200);
    let (status, _, on_text) = http(addr, "POST", "/route?profile=true", Some(&body));
    assert_eq!(status, 200);

    let off = JsonValue::parse(&off_text).unwrap();
    let on = JsonValue::parse(&on_text).unwrap();
    let best = |v: &JsonValue| v.get("result").unwrap().get("best").unwrap().clone();
    assert_eq!(
        best(&off),
        direct.best.to_json(),
        "profile-off serving is byte-identical to the direct engine"
    );
    assert_eq!(
        best(&on),
        direct.best.to_json(),
        "profiling does not perturb the routed artifact"
    );
    assert!(off.get("result").unwrap().get("profile").is_none());
    assert!(on.get("result").unwrap().get("profile").is_some());
}

/// Line-by-line Prometheus exposition check: after serving a profiled
/// route, `/metrics` must parse as legal text — names in the allowed
/// charset, `# TYPE` declared before any sample of a family, histogram
/// buckets cumulative with `+Inf` last.
#[test]
fn metrics_exposition_is_well_formed() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");
    let (status, _, _) = http(
        addr,
        "POST",
        "/route?profile=true",
        Some(&route_body("tokyo", &workload(10, 60), 3)),
    );
    assert_eq!(status, 200);

    let (status, _, text) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);

    fn is_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    /// Base family name of a sample: `_bucket`/`_sum`/`_count` suffixes
    /// belong to the histogram family they decorate.
    fn family(name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                return base;
            }
        }
        name
    }

    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashSet<String> = HashSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    // (family, label-set minus le) -> (last le bound, last cumulative count)
    let mut buckets: HashMap<(String, String), (f64, u64)> = HashMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword: {line}"
            );
            let name = parts
                .next()
                .unwrap_or_else(|| panic!("bare comment: {line}"));
            assert!(is_name(name), "illegal metric name in comment: {line}");
            let payload = parts
                .next()
                .unwrap_or_else(|| panic!("empty {keyword}: {line}"));
            // Exactly one HELP per family, and it comes before the TYPE.
            if keyword == "HELP" {
                assert!(helped.insert(name.to_string()), "duplicate HELP for {name}");
                assert!(!typed.contains(name), "HELP after TYPE for {name}");
            } else {
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&payload),
                    "illegal TYPE: {line}"
                );
                assert!(
                    helped.contains(name),
                    "TYPE without a HELP before it: {line}"
                );
                assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
                types.insert(name.to_string(), payload.to_string());
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample without value: {line}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line}"));
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated label set: {line}"));
                (n, labels)
            }
            None => (name_and_labels, ""),
        };
        assert!(is_name(name), "illegal metric name: {line}");
        let base = family(name);
        assert!(
            typed.contains(base) || typed.contains(name),
            "sample before its TYPE line: {line}"
        );
        for label in labels.split(',').filter(|l| !l.is_empty()) {
            let (k, v) = label
                .split_once('=')
                .unwrap_or_else(|| panic!("malformed label: {line}"));
            assert!(is_name(k), "illegal label name: {line}");
            assert!(
                v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                "unquoted label value: {line}"
            );
        }
        // Histogram bucket discipline: within one family + label set,
        // `le` ascends and the cumulative count never decreases.
        if name.ends_with("_bucket") {
            assert_eq!(
                types.get(base).map(String::as_str),
                Some("histogram"),
                "_bucket outside a histogram: {line}"
            );
            let mut le = None;
            let mut others = Vec::new();
            for label in labels.split(',').filter(|l| !l.is_empty()) {
                let (k, v) = label.split_once('=').unwrap();
                let v = v.trim_matches('"');
                if k == "le" {
                    le = Some(if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse::<f64>()
                            .unwrap_or_else(|_| panic!("bad le bound: {line}"))
                    });
                } else {
                    others.push(label);
                }
            }
            let le = le.unwrap_or_else(|| panic!("bucket without le: {line}"));
            let count: u64 = value.parse().unwrap();
            let key = (base.to_string(), others.join(","));
            if let Some(&(prev_le, prev_count)) = buckets.get(&key) {
                assert!(le > prev_le, "le bounds not ascending: {line}");
                assert!(count >= prev_count, "bucket counts not cumulative: {line}");
            }
            buckets.insert(key, (le, count));
        }
    }

    assert_eq!(helped, typed, "every HELP needs a TYPE");
    // Every histogram family's label sets terminate at +Inf.
    for ((family, labels), (last_le, _)) in &buckets {
        assert!(
            last_le.is_infinite(),
            "histogram {family}{{{labels}}} does not end at +Inf"
        );
    }
    // The profiled route populated the labeled phase family.
    let phase_sets: HashSet<&String> = buckets
        .keys()
        .filter(|(f, _)| f == "sabre_serve_route_phase_ns")
        .map(|(_, labels)| labels)
        .collect();
    for phase in ["front", "extended_set", "scoring"] {
        let want = format!("phase=\"{phase}\"");
        assert!(
            phase_sets.iter().any(|l| l.contains(&want)),
            "route_phase_ns missing {want}: {phase_sets:?}"
        );
    }
}

/// The `/debug/traces` shape of one request: status, device stamp,
/// annotation keys in order, and phase names in order.
#[derive(Debug, PartialEq)]
struct TraceShape {
    status: u64,
    device: Option<String>,
    annotations: Vec<String>,
    phases: Vec<String>,
}

fn trace_shape(trace: &JsonValue) -> TraceShape {
    const FIXED: [&str; 8] = [
        "trace_id", "method", "target", "status", "unix_ms", "total_ns", "device", "phases",
    ];
    let JsonValue::Object(fields) = trace else {
        panic!("trace is not an object: {trace}");
    };
    let JsonValue::Object(phases) = trace.get("phases").expect("trace has phases") else {
        panic!("phases is not an object: {trace}");
    };
    TraceShape {
        status: trace.get("status").and_then(JsonValue::as_u64).unwrap(),
        device: trace
            .get("device")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        annotations: fields
            .iter()
            .map(|(k, _)| k.clone())
            .filter(|k| !FIXED.contains(&k.as_str()))
            .collect(),
        phases: phases.iter().map(|(k, _)| k.clone()).collect(),
    }
}

/// Pins which phases (in order), device stamp and annotations each kind
/// of request leaves in the trace ring: a plan-cache miss, the hit that
/// follows it, a batch, a sharded miss and the sharded hit that follows
/// it, and a body that fails to parse.
#[test]
fn each_request_kind_leaves_its_trace_shape() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");
    register(addr, "tokyo-b", "tokyo20");
    let circuit = workload(8, 30);
    let qasm = || JsonValue::object([("qasm", to_qasm(&circuit).into())]);
    let route = route_body("tokyo", &circuit, 5);
    let batch = JsonValue::object([
        ("device", "tokyo".into()),
        ("circuits", JsonValue::array([qasm(), qasm()])),
    ])
    .to_compact();
    let sharded = JsonValue::object([
        (
            "devices",
            JsonValue::array(["tokyo".into(), "tokyo-b".into()]),
        ),
        ("circuit", qasm()),
        ("config", JsonValue::object([("trials", 1u64.into())])),
    ])
    .to_compact();
    let shape =
        |status: u64, device: Option<&str>, annotations: &[&str], phases: &[&str]| TraceShape {
            status,
            device: device.map(str::to_string),
            annotations: annotations.iter().map(|s| s.to_string()).collect(),
            phases: phases.iter().map(|s| s.to_string()).collect(),
        };
    let quality = ["swaps", "depth_overhead"];
    let queued = ["read", "parse", "admission", "queue_wait", "write"];
    let miss = [
        "read",
        "parse",
        "plan_cache",
        "admission",
        "queue_wait",
        "route",
        "serialize",
        "write",
    ];
    let hit = [
        "read",
        "parse",
        "plan_cache",
        "rebind",
        "serialize",
        "write",
    ];
    let sharded_quality = ["swaps", "cut_gates"];
    let cases = [
        (
            "miss",
            "/route",
            route.as_str(),
            shape(200, Some("tokyo"), &quality, &miss),
        ),
        (
            "hit",
            "/route",
            route.as_str(),
            shape(200, Some("tokyo"), &quality, &hit),
        ),
        (
            "batch",
            "/transpile_batch",
            batch.as_str(),
            shape(200, Some("tokyo"), &["swaps"], &queued),
        ),
        (
            "sharded-miss",
            "/route_sharded",
            sharded.as_str(),
            shape(200, None, &sharded_quality, &miss),
        ),
        (
            "sharded-hit",
            "/route_sharded",
            sharded.as_str(),
            shape(200, None, &sharded_quality, &hit),
        ),
        (
            "bad-json",
            "/route",
            "{not json",
            shape(400, None, &[], &["read", "write"]),
        ),
    ];
    for (id, path, body, expected) in cases {
        let (status, _, text) =
            http_with_headers(addr, "POST", path, &[("X-Request-Id", id)], Some(body));
        assert_eq!(u64::from(status), expected.status, "{id}: {text}");
        let trace = find_trace(addr, id);
        assert_eq!(trace_shape(&trace), expected, "{id}: {trace}");
    }

    // Requests the HTTP parser rejects never reach a handler (and their
    // own `X-Request-Id` is never read), yet each is answered under the
    // ID minted at accept and leaves a trace with empty method and target.
    let rejected = [
        ("malformed head", "NOT-HTTP\r\n\r\n".to_string(), 400),
        (
            "oversized body",
            "POST /route HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".to_string(),
            413,
        ),
    ];
    for (what, bytes, status) in rejected {
        let (got, id) = raw_exchange(addr, &bytes);
        assert_eq!(got, status, "{what}");
        let id = id.unwrap_or_else(|| panic!("{what}: answer carries X-Request-Id"));
        let trace = find_trace(addr, &id);
        assert_eq!(
            trace_shape(&trace),
            shape(status.into(), None, &[], &["read", "write"]),
            "{what}: {trace}"
        );
        for field in ["method", "target"] {
            assert_eq!(
                trace.get(field).and_then(JsonValue::as_str),
                Some(""),
                "{what}: {trace}"
            );
        }
    }
}

/// Writes `bytes` on a fresh connection, half-closes it (ending the
/// server's post-error linger drain), and returns the response status
/// and its `X-Request-Id`.
fn raw_exchange(addr: SocketAddr, bytes: &str) -> (u16, Option<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(bytes.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let head = raw.split("\r\n\r\n").next().unwrap_or_default();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let id = head
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("x-request-id"))
        .map(|(_, value)| value.trim().to_string());
    (status, id)
}

/// A trace's `unix_ms` is its completion stamp: no earlier than the
/// moment the request was sent plus its total wall time, no later than
/// the moment its response was read. A stamp taken at parse would land
/// a route's duration too early.
#[test]
fn trace_unix_ms_is_the_completion_stamp() {
    let handle = server(ServeConfig::default());
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");
    let now_ms = || {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_millis() as u64
    };
    let body = route_body("tokyo", &workload(20, 4000), 3);
    let sent_ms = now_ms();
    let (status, _, text) = http_with_headers(
        addr,
        "POST",
        "/route?profile=true",
        &[("X-Request-Id", "stamp")],
        Some(&body),
    );
    let received_ms = now_ms();
    assert_eq!(status, 200, "{text}");
    let trace = find_trace(addr, "stamp");
    let field = |name: &str| trace.get(name).and_then(JsonValue::as_u64).unwrap();
    let (unix_ms, total_ns) = (field("unix_ms"), field("total_ns"));
    let read_ns = phase_map(&trace)["read"];
    assert!(
        total_ns - read_ns >= 3_000_000,
        "the request must outlast its parse by more than the clock's slack: {trace}"
    );
    assert!(
        unix_ms + 1 >= sent_ms + total_ns / 1_000_000,
        "stamped before completion: sent at {sent_ms}, {trace}"
    );
    assert!(
        unix_ms <= received_ms,
        "stamped after the response was read: {trace}"
    );
}
