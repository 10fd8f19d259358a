//! End-to-end loopback tests for `sabre-serve`: a real server on an
//! ephemeral port, real `TcpStream` clients, full HTTP round trips.
//!
//! These pin the PR's acceptance criteria:
//! - concurrent `/route` requests on a shared `DeviceCache` are
//!   **byte-identical** to direct `route_batch` calls for the same seeds;
//! - a full queue answers `503` with a `Retry-After` header;
//! - `POST /devices/{id}/noise` changes subsequent routing output without
//!   a restart;
//! - graceful shutdown drains every admitted job;
//! - HTTP/1.1 keep-alive serves multiple requests per connection, bounded
//!   by `max_requests_per_connection`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

mod common;
use common::{get_json, http, post_json};

use sabre::{SabreConfig, SabreRouter};
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_qasm::to_qasm;
use sabre_serve::{start, ServeConfig, ServerHandle, MAX_DEVICES, MAX_FLEETS};
use sabre_topology::devices;
use sabre_topology::noise::NoiseModel;

/// Registers a builtin device and asserts success.
fn register(addr: SocketAddr, id: &str, builtin: &str) {
    let (status, _) = post_json(
        addr,
        "/devices",
        &JsonValue::object([("id", id.into()), ("builtin", builtin.into())]),
    );
    assert_eq!(status, 201, "registering {builtin}");
}

/// Deterministic pseudo-random CX workload (same generator family as the
/// core crate's tests).
fn workload(n: u32, rounds: u32, stride: (u32, u32)) -> Circuit {
    let mut c = Circuit::new(n);
    for r in 0..rounds {
        let a = (r * stride.0 + 3) % n;
        let b = (r * stride.1 + 1) % n;
        if a != b {
            c.cx(Qubit(a), Qubit(b));
        }
    }
    c
}

/// `/route` request body for `circuit` on `device` with explicit config.
fn route_body(device: &str, circuit: &Circuit, config: &[(&str, JsonValue)]) -> JsonValue {
    JsonValue::object([
        ("device", device.into()),
        (
            "circuit",
            JsonValue::object([("qasm", to_qasm(circuit).into())]),
        ),
        (
            "config",
            JsonValue::object(config.iter().map(|(k, v)| (*k, v.clone()))),
        ),
    ])
}

/// Asserts a 200 `/route` response is byte-identical to a direct routing
/// result: same `best` JSON (layouts, counters, depth) and same physical
/// circuit QASM.
fn assert_matches_direct(response: &JsonValue, direct: &sabre::SabreResult) {
    assert_eq!(
        response.get("result").unwrap().get("best").unwrap(),
        &direct.best.to_json(),
        "routed artifact must be byte-identical to the direct call"
    );
    assert_eq!(
        response.get("physical_qasm").unwrap().as_str().unwrap(),
        to_qasm(&direct.best.physical),
    );
}

fn server(config: ServeConfig) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("start loopback server")
}

/// Polls `/healthz` until the queue reaches `depth` (or panics after 30s).
fn wait_for_queue_depth(addr: SocketAddr, depth: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, health) = get_json(addr, "/healthz");
        assert_eq!(status, 200);
        if health.get("queue_depth").unwrap().as_usize() == Some(depth) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "queue never reached depth {depth}: {health}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// Polls `/metrics` until `name` reaches `target` (or panics after 30s).
fn wait_for_metric(addr: SocketAddr, name: &str, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, text) = http(addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        let value: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .parse()
            .unwrap();
        if value >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {value}, wanted {target}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_routes_are_byte_identical_to_direct_route_batch() {
    let handle = server(ServeConfig {
        workers: 4,
        // The plan-cache key deliberately ignores `seed` (any cached plan
        // is a valid routing of the structure), but this test pins strict
        // per-request seed sensitivity — so it runs with the cache off.
        plan_cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");

    let circuits: Vec<Circuit> = (0..6).map(|i| workload(12, 60 + 15 * i, (5, 7))).collect();
    let graph = devices::ibm_q20_tokyo().graph().clone();
    let config = SabreConfig::default();
    let router = SabreRouter::new(graph.clone(), config).unwrap();
    let direct = router.route_batch(&circuits);

    // All six requests in flight at once, against the shared DeviceCache.
    let clients: Vec<_> = circuits
        .iter()
        .map(|circuit| {
            let body = route_body("tokyo", circuit, &[("seed", config.seed.into())]);
            thread::spawn(move || post_json(addr, "/route", &body))
        })
        .collect();
    for (client, direct) in clients.into_iter().zip(&direct) {
        let (status, response) = client.join().unwrap();
        assert_eq!(status, 200, "{response}");
        assert_matches_direct(&response, direct.as_ref().unwrap());
        assert_eq!(response.get("noise_aware").unwrap().as_bool(), Some(false));
    }

    // Distinct per-request seeds match distinct direct routers.
    for seed in [7u64, 4242] {
        let (status, response) = post_json(
            addr,
            "/route",
            &route_body("tokyo", &circuits[0], &[("seed", seed.into())]),
        );
        assert_eq!(status, 200);
        let direct = SabreRouter::new(graph.clone(), SabreConfig { seed, ..config })
            .unwrap()
            .route(&circuits[0])
            .unwrap();
        assert_matches_direct(&response, &direct);
    }
    handle.shutdown();
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    // A frozen pool (workers = 0) makes backpressure deterministic: jobs
    // are admitted but never popped.
    let handle = server(ServeConfig {
        workers: 0,
        queue_capacity: 2,
        retry_after_secs: 7,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "line", "linear:4");

    let body = route_body("line", &workload(4, 10, (3, 2)), &[("trials", 1u64.into())]);
    let blocked: Vec<_> = (0..2)
        .map(|_| {
            let body = body.clone();
            thread::spawn(move || post_json(addr, "/route", &body))
        })
        .collect();
    wait_for_queue_depth(addr, 2);

    // Third request: queue full → immediate 503 + Retry-After.
    let (status, headers, text) = http(addr, "POST", "/route", Some(&body.to_compact()));
    assert_eq!(status, 503);
    assert_eq!(headers.get("retry-after").map(String::as_str), Some("7"));
    let error = JsonValue::parse(&text).unwrap();
    assert!(
        error
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("full"),
        "{text}"
    );

    // Aborting fails the two admitted jobs with 503 too — no client hangs.
    handle.shutdown_now();
    for client in blocked {
        let (status, response) = client.join().unwrap();
        assert_eq!(status, 503);
        assert!(response
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("shutting down"));
    }
}

#[test]
fn graceful_shutdown_drains_admitted_jobs() {
    let handle = server(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");

    // One heavy circuit occupies the single worker while the rest queue.
    let circuits: Vec<Circuit> = std::iter::once(workload(16, 800, (5, 7)))
        .chain((0..4).map(|i| workload(10, 40 + 10 * i, (3, 5))))
        .collect();
    let config = SabreConfig::default();
    let router = SabreRouter::new(devices::ibm_q20_tokyo().graph().clone(), config).unwrap();
    let direct = router.route_batch(&circuits);

    let clients: Vec<_> = circuits
        .iter()
        .map(|circuit| {
            let body = route_body("tokyo", circuit, &[("seed", config.seed.into())]);
            thread::spawn(move || post_json(addr, "/route", &body))
        })
        .collect();
    // Wait until all five jobs are *admitted* (accepted into the queue).
    // Shutting down earlier would race a straggler client against the
    // closing queue; once admitted, the drain guarantee owns them.
    wait_for_metric(
        addr,
        "sabre_serve_jobs_admitted_total",
        circuits.len() as u64,
    );

    // Graceful: every admitted job still gets its real, correct response.
    handle.shutdown();
    for (client, direct) in clients.into_iter().zip(&direct) {
        let (status, response) = client.join().unwrap();
        assert_eq!(status, 200, "drained job must succeed: {response}");
        assert_matches_direct(&response, direct.as_ref().unwrap());
    }
}

#[test]
fn noise_refresh_changes_routing_without_restart() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "ring", "ring:6");
    let graph = devices::ring(6).graph().clone();

    let mut circuit = Circuit::new(6);
    for _ in 0..3 {
        circuit.cx(Qubit(0), Qubit(3));
        circuit.cx(Qubit(1), Qubit(4));
        circuit.cx(Qubit(2), Qubit(5));
    }
    let config = [
        ("trials", JsonValue::from(1u64)),
        ("num_traversals", 1u64.into()),
        ("probe_budget", 0u64.into()),
    ];
    let sabre_config = SabreConfig {
        num_restarts: 1,
        num_traversals: 1,
        embedding_probe_budget: 0,
        ..SabreConfig::default()
    };

    let (status, before) = post_json(addr, "/route", &route_body("ring", &circuit, &config));
    assert_eq!(status, 200);
    let direct_before = SabreRouter::new(graph.clone(), sabre_config)
        .unwrap()
        .route(&circuit)
        .unwrap();
    assert_matches_direct(&before, &direct_before);

    // New calibration: one side of the ring becomes terrible.
    let noise_spec = JsonValue::object([
        ("two_qubit_error", 0.001.into()),
        ("single_qubit_error", 0.0001.into()),
        (
            "edges",
            JsonValue::array([
                JsonValue::array([0u64.into(), 1u64.into(), 0.4.into()]),
                JsonValue::array([1u64.into(), 2u64.into(), 0.4.into()]),
                JsonValue::array([2u64.into(), 3u64.into(), 0.4.into()]),
            ]),
        ),
    ]);
    let (status, refreshed) = post_json(addr, "/devices/ring/noise", &noise_spec);
    assert_eq!(status, 200, "{refreshed}");
    assert!(refreshed
        .get("noise_fingerprint")
        .unwrap()
        .as_u64()
        .is_some());

    // Same request, same process — different routing.
    let (status, after) = post_json(addr, "/route", &route_body("ring", &circuit, &config));
    assert_eq!(status, 200);
    assert_eq!(after.get("noise_aware").unwrap().as_bool(), Some(true));
    assert_ne!(
        before.get("result").unwrap().get("best").unwrap(),
        after.get("result").unwrap().get("best").unwrap(),
        "the refreshed calibration must change the routing output"
    );

    // And it matches the direct noise-aware router bit for bit.
    let noise = NoiseModel::uniform(&graph, 0.001, 0.0001)
        .with_edge_error(Qubit(0), Qubit(1), 0.4)
        .with_edge_error(Qubit(1), Qubit(2), 0.4)
        .with_edge_error(Qubit(2), Qubit(3), 0.4);
    let direct_after = SabreRouter::with_noise(graph.clone(), sabre_config, &noise)
        .unwrap()
        .route(&circuit)
        .unwrap();
    assert_matches_direct(&after, &direct_after);

    // Per-request opt-out returns to hop-based routing.
    let mut body = route_body("ring", &circuit, &config);
    if let JsonValue::Object(pairs) = &mut body {
        pairs.push(("ignore_noise".into(), true.into()));
    }
    let (status, hops) = post_json(addr, "/route", &body);
    assert_eq!(status, 200);
    assert_eq!(
        hops.get("result").unwrap().get("best").unwrap(),
        before.get("result").unwrap().get("best").unwrap(),
    );
    handle.shutdown();
}

#[test]
fn registries_refuse_new_ids_past_their_caps_but_still_replace() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let error = |response: &JsonValue| response.get("error").unwrap().as_str().unwrap().to_string();
    for i in 0..MAX_DEVICES {
        register(addr, &format!("d{i}"), "linear:3");
    }
    // The device cache's graph counters: a refused id must not warm it.
    let graph_counters = || {
        let (_, _, text) = http(addr, "GET", "/metrics", None);
        let counters: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("sabre_serve_cache_graph_"))
            .map(str::to_string)
            .collect();
        assert_eq!(counters.len(), 2, "{text}");
        counters
    };
    let before = graph_counters();
    let device = |id: &str, builtin: &str| {
        JsonValue::object([("id", id.into()), ("builtin", builtin.into())])
    };
    let (status, response) = post_json(addr, "/devices", &device("one-too-many", "ring:5"));
    assert_eq!(status, 409, "{response}");
    assert!(
        error(&response).contains(&format!("{MAX_DEVICES} ids")),
        "{response}"
    );
    let err = handle
        .register_device("preloaded", devices::ring(6).graph())
        .unwrap_err();
    assert!(err.contains(&format!("{MAX_DEVICES} ids")), "{err}");
    assert_eq!(graph_counters(), before, "a refused id warmed the cache");
    let (status, response) = post_json(addr, "/devices", &device("d0", "linear:3"));
    assert_eq!(status, 200, "re-registering replaces: {response}");
    handle
        .register_device("d1", devices::ring(3).graph())
        .expect("preload replaces an existing id");
    // Both registration paths apply the same id rule, ahead of the cap.
    for bad in [String::new(), "a/b".to_string(), "x".repeat(129)] {
        let (status, response) = post_json(addr, "/devices", &device(&bad, "linear:3"));
        assert_eq!(status, 400, "id {bad:?}: {response}");
        let err = handle
            .register_device(&bad, devices::linear(3).graph())
            .unwrap_err();
        assert!(err.contains("`/`"), "id {bad:?}: {err}");
    }

    let fleet = |id: &str| {
        JsonValue::object([
            ("id", id.into()),
            ("devices", JsonValue::array(["d0".into()])),
        ])
    };
    for i in 0..MAX_FLEETS {
        let (status, response) = post_json(addr, "/fleets", &fleet(&format!("f{i}")));
        assert_eq!(status, 201, "{response}");
    }
    let (status, response) = post_json(addr, "/fleets", &fleet("one-too-many"));
    assert_eq!(status, 409, "{response}");
    assert!(
        error(&response).contains(&format!("{MAX_FLEETS} ids")),
        "{response}"
    );
    let (status, response) = post_json(addr, "/fleets", &fleet("f0"));
    assert_eq!(status, 200, "{response}");
    handle.shutdown();
}

#[test]
fn api_validation_and_partial_success_batches() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "line", "linear:4");

    // Path/method errors.
    let (status, _, _) = http(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "DELETE", "/route", None);
    assert_eq!(status, 405);

    // Body errors.
    let (status, _, text) = http(addr, "POST", "/route", Some("{not json"));
    assert_eq!(status, 400, "{text}");
    let (status, response) = post_json(
        addr,
        "/route",
        &route_body("ghost", &workload(3, 4, (2, 1)), &[]),
    );
    assert_eq!(status, 404);
    assert!(response
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("register"));
    let (status, response) = post_json(
        addr,
        "/route",
        &JsonValue::object([
            ("device", "line".into()),
            ("circuit", JsonValue::object([("qasm", "not qasm".into())])),
        ]),
    );
    assert_eq!(status, 400);
    assert!(response
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("OpenQASM"));
    let (status, response) = post_json(
        addr,
        "/route",
        &route_body("line", &workload(3, 4, (2, 1)), &[("tirals", 3u64.into())]),
    );
    assert_eq!(status, 400);
    assert!(response
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("tirals"));

    // Partial-success batch: the oversized slot fails, the others route.
    let circuits = JsonValue::array([
        JsonValue::object([("qasm", to_qasm(&workload(4, 12, (3, 2))).into())]),
        JsonValue::object([("qasm", to_qasm(&workload(6, 12, (3, 2))).into())]),
        JsonValue::object([("qasm", to_qasm(&workload(3, 6, (2, 1))).into())]),
    ]);
    let (status, response) = post_json(
        addr,
        "/transpile_batch",
        &JsonValue::object([("device", "line".into()), ("circuits", circuits)]),
    );
    assert_eq!(status, 200, "{response}");
    assert_eq!(response.get("succeeded").unwrap().as_usize(), Some(2));
    assert_eq!(response.get("failed").unwrap().as_usize(), Some(1));
    let outcomes = response.get("outcomes").unwrap().as_array().unwrap();
    assert!(outcomes[0]
        .get("ok")
        .unwrap()
        .get("swaps_inserted")
        .is_some());
    assert!(outcomes[1]
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("qubits"));
    assert!(outcomes[2].get("ok").is_some());

    // Re-registration replaces (200), first registration created (201).
    let reg = JsonValue::object([("id", "line".into()), ("builtin", "linear:4".into())]);
    let (status, _) = post_json(addr, "/devices", &reg);
    assert_eq!(status, 200);
    let (status, listed) = get_json(addr, "/devices");
    assert_eq!(status, 200);
    let devices = listed.get("devices").unwrap().as_array().unwrap();
    assert_eq!(devices.len(), 1);
    assert_eq!(devices[0].get("id").unwrap().as_str(), Some("line"));

    handle.shutdown();
}

/// Sends one request on an already-open stream and reads exactly one
/// response (keep-alive aware: reads the body by `Content-Length`
/// instead of waiting for EOF). Returns status, headers, body.
fn keep_alive_round_trip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, String) {
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: loopback\r\n");
    if let Some(body) = body {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    stream.write_all(request.as_bytes()).unwrap();

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a complete response head");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(raw[..header_end].to_vec()).unwrap();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: HashMap<String, String> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .get("content-length")
        .expect("Content-Length header")
        .parse()
        .unwrap();
    let mut body = raw[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(body.len(), content_length, "no stray bytes past the body");
    (status, headers, String::from_utf8(body).unwrap())
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "line", "linear:4");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();

    // Three requests — health probe, a real routing job, another probe —
    // all over the same TCP connection.
    let (status, headers, _) = keep_alive_round_trip(&mut stream, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("connection").map(String::as_str),
        Some("keep-alive")
    );

    let body = route_body("line", &workload(4, 10, (3, 2)), &[("trials", 1u64.into())]);
    let (status, headers, text) =
        keep_alive_round_trip(&mut stream, "POST", "/route", Some(&body.to_compact()));
    assert_eq!(status, 200, "{text}");
    assert_eq!(
        headers.get("connection").map(String::as_str),
        Some("keep-alive")
    );
    let response = JsonValue::parse(&text).unwrap();
    assert!(response.get("result").is_some());

    let (status, _, _) = keep_alive_round_trip(&mut stream, "GET", "/healthz", None);
    assert_eq!(status, 200);

    // An explicit `Connection: close` is honored: response says close
    // and the server hangs up.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    let text = String::from_utf8(rest).unwrap();
    assert!(text.contains("Connection: close"), "{text}");

    drop(stream);
    handle.shutdown();
}

#[test]
fn keep_alive_is_bounded_by_the_per_connection_cap() {
    let handle = server(ServeConfig {
        workers: 1,
        max_requests_per_connection: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let (status, headers, _) = keep_alive_round_trip(&mut stream, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("connection").map(String::as_str),
        Some("keep-alive")
    );
    // Request #2 hits the cap: the server answers but announces close.
    let (status, headers, _) = keep_alive_round_trip(&mut stream, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
    // The connection really is gone: a third request gets EOF.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: loopback\r\n\r\n")
        .unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after the cap");

    drop(stream);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Two pipelined requests in one write; both answered, in order.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let first = text.find("HTTP/1.1 200").expect("first response");
    let second = text[first + 1..]
        .find("HTTP/1.1 200")
        .expect("second response");
    assert!(text.contains("\"status\":\"ok\""), "healthz answered");
    assert!(
        text[first + second..].contains("sabre_serve_requests_total"),
        "metrics answered second"
    );
    handle.shutdown();
}

#[test]
fn oversized_bodies_get_413() {
    let handle = server(ServeConfig {
        workers: 1,
        max_body_bytes: 200,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let big = "x".repeat(1000);
    let (status, _, text) = http(addr, "POST", "/route", Some(&big));
    assert_eq!(status, 413, "{text}");
    handle.shutdown();
}

#[test]
fn metrics_expose_per_step_routing_telemetry() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "line", "linear:4");

    let (_, _, before) = http(addr, "GET", "/metrics", None);
    assert!(before.contains("sabre_serve_routing_steps_total 0"));

    // cx(0,3) on a 4-line needs SWAPs, so search steps are guaranteed.
    let mut circuit = Circuit::new(4);
    circuit.cx(Qubit(0), Qubit(3));
    let (status, response) = post_json(
        addr,
        "/route",
        &route_body("line", &circuit, &[("trials", 1u64.into())]),
    );
    assert_eq!(status, 200);
    let steps = response
        .get("result")
        .unwrap()
        .get("total_search_steps")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(steps >= 1);

    let (status, _, after) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let metric = |name: &str| -> u64 {
        after
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("metric {name} missing:\n{after}"))
            .parse()
            .unwrap()
    };
    assert_eq!(metric("sabre_serve_routing_steps_total"), steps);
    assert!(metric("sabre_serve_routing_ns_total") > 0);
    assert!(metric("sabre_serve_last_route_ns_per_step") > 0);
    assert!(metric("sabre_serve_avg_route_ns_per_step") > 0);
    assert_eq!(metric("sabre_serve_jobs_completed_total"), 1);
    assert_eq!(metric("sabre_serve_queue_depth"), 0);
    assert!(after.contains("sabre_serve_requests_total{endpoint=\"route\"} 1"));
    assert!(after.contains("sabre_serve_cache_graph_hits_total"));
    // Reactor + admission telemetry. This very request is being served
    // over an open connection, so the gauge is live.
    assert!(metric("sabre_serve_open_connections") >= 1);
    assert!(metric("sabre_serve_max_connections") >= 1);
    for reason in ["read_deadline", "write_deadline", "idle"] {
        assert!(
            after.contains(&format!(
                "sabre_serve_connections_reaped_total{{reason=\"{reason}\"}}"
            )),
            "missing reap reason {reason}:\n{after}"
        );
    }
    for kind in ["queue_full", "rate_limited", "predicted_slo", "table_full"] {
        assert!(
            after.contains(&format!(
                "sabre_serve_admission_rejections_total{{kind=\"{kind}\"}}"
            )),
            "missing rejection kind {kind}:\n{after}"
        );
    }
    // The priced /route above observed its predicted wait.
    assert!(metric("sabre_serve_admission_predicted_wait_ms_count") >= 1);
    assert!(after.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"+Inf\"}"));
    // Plan-cache telemetry: the first submission of this structure was a
    // lookup miss, then the routed plan was cached.
    assert_eq!(metric("sabre_serve_plan_cache_misses_total"), 1);
    assert_eq!(metric("sabre_serve_plan_cache_hits_total"), 0);
    assert_eq!(metric("sabre_serve_plan_cache_entries"), 1);
    assert!(metric("sabre_serve_plan_cache_approx_bytes") > 0);
    assert_eq!(metric("sabre_serve_plan_cache_evictions_total"), 0);
    assert_eq!(metric("sabre_serve_rebind_ns_count"), 0);

    // Resubmitting the same structure with different angles is a hit:
    // answered inline (no new job), zero search steps, rebind observed.
    let mut rebound = Circuit::new(4);
    rebound.cx(Qubit(0), Qubit(3));
    rebound.rz(Qubit(1), 0.625);
    // Different structure (extra rz) — still a miss. Then resubmit the
    // *original* structure, which must hit.
    let (status, _) = post_json(
        addr,
        "/route",
        &route_body("line", &rebound, &[("trials", 1u64.into())]),
    );
    assert_eq!(status, 200);
    let (status, hit) = post_json(
        addr,
        "/route",
        &route_body("line", &circuit, &[("trials", 1u64.into())]),
    );
    assert_eq!(status, 200);
    assert_eq!(hit.get("plan_cache").unwrap().as_str(), Some("hit"));
    assert_eq!(
        hit.get("result")
            .unwrap()
            .get("total_search_steps")
            .unwrap()
            .as_u64(),
        Some(0),
        "a plan-cache hit must run zero search steps"
    );
    let (_, _, third) = http(addr, "GET", "/metrics", None);
    let metric = |name: &str| -> u64 {
        third
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("metric {name} missing:\n{third}"))
            .parse()
            .unwrap()
    };
    assert_eq!(metric("sabre_serve_plan_cache_hits_total"), 1);
    assert_eq!(metric("sabre_serve_plan_cache_misses_total"), 2);
    assert_eq!(metric("sabre_serve_plan_cache_entries"), 2);
    assert_eq!(metric("sabre_serve_plan_cache_inline_hits_total"), 1);
    assert_eq!(metric("sabre_serve_rebind_ns_count"), 1);
    // The hit bypassed the queue: still exactly two worker jobs ran.
    assert_eq!(metric("sabre_serve_jobs_completed_total"), 2);

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("workers").unwrap().as_usize(), Some(1));
    handle.shutdown();
}

#[test]
fn plan_cache_hit_rebinds_fresh_parameters_bit_identically() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    register(addr, "tokyo", "tokyo20");
    let graph = devices::ibm_q20_tokyo().graph().clone();

    // A VQA-shaped ansatz: parameterized rotation layers between a fixed
    // entangler. Every submission below shares this structure; only the
    // angles move.
    let ansatz = |theta: f64| {
        let mut c = Circuit::new(8);
        for layer in 0..3 {
            for q in 0..8u32 {
                c.rz(Qubit(q), theta * f64::from(layer * 8 + q + 1));
            }
            for q in 0..7u32 {
                c.cx(Qubit(q), Qubit(q + 1));
            }
            c.cx(Qubit(0), Qubit(7));
        }
        c
    };

    let (status, first) = post_json(addr, "/route", &route_body("tokyo", &ansatz(0.3), &[]));
    assert_eq!(status, 200, "{first}");
    assert_eq!(first.get("plan_cache").unwrap().as_str(), Some("miss"));

    let (status, second) = post_json(addr, "/route", &route_body("tokyo", &ansatz(1.7), &[]));
    assert_eq!(status, 200, "{second}");
    assert_eq!(second.get("plan_cache").unwrap().as_str(), Some("hit"));
    assert_eq!(
        second
            .get("result")
            .unwrap()
            .get("total_search_steps")
            .unwrap()
            .as_u64(),
        Some(0),
        "a hit is served by re-binding, not by searching"
    );

    // The rebound answer is byte-identical to what a fresh route of the
    // re-parameterized circuit would have produced (routing decisions
    // never read gate parameters).
    let direct = SabreRouter::new(graph, SabreConfig::default())
        .unwrap()
        .route(&ansatz(1.7))
        .unwrap();
    assert_matches_direct(&second, &direct);
    handle.shutdown();
}

/// Kilo-qubit registration regression: `grid:40x40` (1600 qubits) clears
/// the raised cap, registers through the sparse distance engine (the
/// response advertises `"distance": "sparse"`, meaning no `O(N²)` matrix
/// was allocated during cache warm-up), registers fast, and then serves
/// a routing request. A small device must keep reporting `"dense"`.
#[test]
fn kilo_qubit_registration_uses_the_sparse_engine() {
    let handle = server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let start = Instant::now();
    let (status, response) = post_json(
        addr,
        "/devices",
        &JsonValue::object([("id", "kilo".into()), ("builtin", "grid:40x40".into())]),
    );
    assert_eq!(status, 201, "{response}");
    assert_eq!(response.get("num_qubits").unwrap().as_u64(), Some(1600));
    assert_eq!(response.get("distance").unwrap().as_str(), Some("sparse"));
    // Dense preprocessing at this size is an O(N³) sweep over a 20 MB
    // matrix pair — seconds of work. The sparse path is O(N + E).
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "kilo-qubit registration took {:?}",
        start.elapsed()
    );

    register(addr, "small", "tokyo20");
    let (status, listing) = get_json(addr, "/devices");
    assert_eq!(status, 200);
    let devices = listing.get("devices").unwrap().as_array().unwrap();
    let engine_of = |id: &str| {
        devices
            .iter()
            .find(|d| d.get("id").and_then(JsonValue::as_str) == Some(id))
            .and_then(|d| d.get("distance"))
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    assert_eq!(engine_of("kilo").as_deref(), Some("sparse"));
    assert_eq!(engine_of("small").as_deref(), Some("dense"));

    // The registered kilo-qubit device actually routes.
    let (status, response) = post_json(
        addr,
        "/route",
        &route_body(
            "kilo",
            &workload(64, 120, (5, 7)),
            &[("num_restarts", 1u64.into())],
        ),
    );
    assert_eq!(status, 200, "{response}");
    assert!(
        response.get("result").and_then(|r| r.get("best")).is_some(),
        "{response}"
    );
    handle.shutdown();
}
