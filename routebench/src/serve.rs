//! The serving workload, `serve_vqa_mix`: an in-process `sabre_serve` on
//! an ephemeral loopback port, driven by a closed loop of keep-alive
//! connections (one client thread each) with a seeded variational mix:
//! plan-cache hits (re-parameterized ansatz structures), fresh-structure
//! misses, `/transpile_batch` parameter sweeps and `/route_sharded`
//! requests on a two-Tokyo fleet. Also the serving half of the library
//! workloads' traced run, and the `/debug/traces` phase aggregation.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use sabre::{
    transpile_batch_cached, DeviceCache, PlanQuality, SabreConfig, SabreRouter, TranspileOptions,
};
use sabre_benchgen::random;
use sabre_circuit::Circuit;
use sabre_json::JsonValue;
use sabre_serve::{start, ServeConfig, ServerHandle};
use sabre_shard::{route_sharded, Fleet, ShardConfig};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph};

use crate::http::{Client, Reply};
use crate::inputs::{
    ansatz, batch_body, calibration, derive, reparameterized, rng, route_body, sharded_body,
};
use crate::{check, stats, Quality, Samples, Tally};

/// The assumed client model, per mille of requests; the remainder are
/// plan-cache hits. No traffic record backs these shares or the sweep
/// width: they are assumptions (README.md says which metrics they set).
const MISS_PER_MILLE: u32 = 60;
const BATCH_PER_MILLE: u32 = 40;
const SHARDED_PER_MILLE: u32 = 40;
/// Circuits per `/transpile_batch` parameter sweep.
const BATCH_WIDTH: usize = 8;
/// Requests per connection in one closed-loop round (`corpus_s`).
const ROUND_REQUESTS: usize = 50;
/// One request in this many is kept for the post-run library comparison.
const KEEP_ONE_IN: u32 = 40;
const KEEP_PER_CONNECTION: usize = 48;
/// Rounds of the mix sent on one connection during set-up, untimed.
const WARM_ROUNDS: usize = 6;
/// The warm-up's request stream; timed connections use streams 0, 1, ….
const WARM_STREAM: u64 = 1 << 20;
/// Fixed-shape miss circuits routed in set-up for the quality sums.
const QUALITY_PROBES: u64 = 128;
/// Trace-ring capacity of the traced server.
const TRACE_CAPACITY: usize = 1 << 16;
const FLEET: [&str; 2] = ["tokyo-a", "tokyo-b"];

/// A device as the server knows it.
pub struct ServedDevice {
    pub id: String,
    pub builtin: String,
    pub graph: CouplingGraph,
    /// Calibrated model registered with the server (routing is then
    /// noise-aware); `None` routes on hop distances.
    pub noise: Option<(u64, NoiseModel)>,
}

impl ServedDevice {
    fn calibrated(id: &str, builtin: &str, graph: CouplingGraph) -> Self {
        let noise = calibration(id, &graph);
        ServedDevice {
            id: id.into(),
            builtin: builtin.into(),
            graph,
            noise: Some(noise),
        }
    }

    fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref().map(|(_, n)| n)
    }
}

/// The fleet the server builds for a `/route_sharded` request naming
/// `members`.
fn fleet_of<'a>(members: impl IntoIterator<Item = &'a ServedDevice>) -> Fleet {
    let mut fleet = Fleet::new();
    for d in members {
        match d.noise() {
            Some(noise) => fleet.register_with_noise(&d.id, d.graph.clone(), noise.clone()),
            None => fleet.register(&d.id, d.graph.clone()),
        }
        .expect("fresh member ids");
    }
    fleet
}

fn shard_config(sabre: SabreConfig) -> ShardConfig {
    ShardConfig {
        sabre,
        ..ShardConfig::default()
    }
}

/// Boots a server sized to the machine and registers `devices`.
pub fn boot(
    workers: usize,
    traced: bool,
    config: SabreConfig,
    devices: &[ServedDevice],
    tally: &mut Tally,
) -> ServerHandle {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        max_body_bytes: 32 << 20,
        max_requests_per_connection: 1 << 30,
        idle_timeout_ms: 600_000,
        trace_capacity: if traced { TRACE_CAPACITY } else { 0 },
        default_config: config,
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral loopback port");
    let mut client = Client::new(handle.addr());
    for d in devices {
        let body = JsonValue::object([
            ("id", d.id.as_str().into()),
            ("builtin", d.builtin.as_str().into()),
        ]);
        tally.record(expect_ok(client.send(
            "POST",
            "/devices",
            &body.to_compact(),
            "register",
        )));
        if let Some((seed, _)) = &d.noise {
            let spec = JsonValue::object([(
                "calibrated",
                JsonValue::object([
                    ("base", 0.01.into()),
                    ("spread", 4.0.into()),
                    ("seed", (*seed).into()),
                ]),
            )]);
            let path = format!("/devices/{}/noise", d.id);
            tally.record(expect_ok(client.send(
                "POST",
                &path,
                &spec.to_compact(),
                "noise",
            )));
        }
    }
    handle
}

fn expect_ok(reply: Result<Reply, String>) -> Result<(), String> {
    let reply = reply?;
    if (200..300).contains(&reply.status) {
        Ok(())
    } else {
        Err(format!("HTTP {}: {}", reply.status, reply.body))
    }
}

/// Sends one request; returns the client-observed latency (until the last
/// response byte arrived) and the raw reply.
fn send(
    client: &mut Client,
    path: &str,
    body: &str,
    id: &str,
) -> (Duration, Result<Reply, String>) {
    let sent = Instant::now();
    let reply = client.send("POST", path, body, id);
    (sent.elapsed(), reply)
}

/// A reply's body as JSON, if the status is 200.
fn parsed(path: &str, reply: Result<Reply, String>) -> Result<JsonValue, String> {
    let reply = reply?;
    if reply.status != 200 {
        return Err(format!("{path}: HTTP {}: {}", reply.status, reply.body));
    }
    JsonValue::parse(&reply.body).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn call(
    client: &mut Client,
    path: &str,
    body: &str,
    id: &str,
) -> (Duration, Result<JsonValue, String>) {
    let (latency, reply) = send(client, path, body, id);
    (latency, parsed(path, reply))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Batch,
    Sharded,
}

/// The mix's fixed inputs, all drawn from the workload seed.
pub struct Mix {
    seed: u64,
    pub config: SabreConfig,
    pub devices: Vec<ServedDevice>,
    /// `(device index, structure)`: routed once in set-up, then hit.
    pub hits: Vec<(usize, Circuit)>,
    /// Sweep structures on `tokyo-a`.
    pub batches: Vec<Circuit>,
    /// Circuits wider than one Tokyo, routed across the fleet.
    pub sharded: Vec<Circuit>,
    /// Fixed-shape fresh structures on `tokyo-a`, routed as misses in
    /// set-up: with the structures above they make the quality sums.
    pub probes: Vec<Circuit>,
    pub fleet: Fleet,
}

pub fn mix(seed: u64) -> Mix {
    let tokyo = devices::ibm_q20_tokyo().graph().clone();
    let grid = devices::grid(10, 10).graph().clone();
    let devices = vec![
        ServedDevice::calibrated(FLEET[0], "tokyo20", tokyo.clone()),
        ServedDevice::calibrated(FLEET[1], "tokyo20", tokyo),
        ServedDevice::calibrated("grid10", "grid:10x10", grid),
    ];
    let hits = [
        (0, 10, 4),
        (0, 14, 3),
        (0, 16, 5),
        (2, 24, 3),
        (2, 36, 2),
        (2, 48, 2),
    ]
    .into_iter()
    .enumerate()
    .map(|(k, (device, qubits, layers))| {
        let name = format!("ansatz{k}");
        (device, ansatz(&name, qubits, layers, derive(seed, &name)))
    })
    .collect();
    let batches = [(8, 3), (12, 2)]
        .into_iter()
        .enumerate()
        .map(|(k, (qubits, layers))| {
            let name = format!("sweep{k}");
            ansatz(&name, qubits, layers, derive(seed, &name))
        })
        .collect();
    let sharded = [(30, 300), (34, 240)]
        .into_iter()
        .enumerate()
        .map(|(k, (qubits, gates))| {
            random::random_circuit(qubits, gates, 0.8, derive(seed, &format!("wide{k}")))
        })
        .collect();
    let probes = (0..QUALITY_PROBES)
        .map(|k| random::random_circuit(12, 160, 0.7, derive(seed, &format!("probe{k}"))))
        .collect();
    let fleet = fleet_of(&devices[..2]);
    Mix {
        seed,
        config: SabreConfig {
            seed: derive(seed, "serve-router"),
            ..SabreConfig::paper()
        },
        devices,
        hits,
        batches,
        sharded,
        probes,
        fleet,
    }
}

/// The library's plan for one sharded structure, cut angles removed, and
/// its quality. Routing never reads gate parameters, so every
/// re-parameterization of the structure must be served exactly these.
pub struct ShardedReference {
    plan: JsonValue,
    quality: JsonValue,
}

fn sharded_reference(
    circuit: &Circuit,
    fleet: &Fleet,
    config: SabreConfig,
    cache: &DeviceCache,
) -> Result<ShardedReference, String> {
    let plan =
        route_sharded(circuit, fleet, &shard_config(config), cache).map_err(|e| e.to_string())?;
    plan.verify(circuit, fleet).map_err(|e| e.to_string())?;
    Ok(ShardedReference {
        plan: check::without_cut_angles(&plan.to_json()),
        quality: plan.quality(circuit, fleet).to_json(),
    })
}

/// The references of `circuits`; one the library cannot produce is a
/// failure, and its `Null` stand-in fails every comparison after it.
fn sharded_references<'a>(
    circuits: impl IntoIterator<Item = (&'a Circuit, &'a Fleet)>,
    config: SabreConfig,
    tally: &mut Tally,
) -> Vec<ShardedReference> {
    let cache = DeviceCache::new();
    circuits
        .into_iter()
        .map(|(circuit, fleet)| {
            sharded_reference(circuit, fleet, config, &cache).unwrap_or_else(|e| {
                tally.record(Err(format!("library sharded route: {e}")));
                ShardedReference {
                    plan: JsonValue::Null,
                    quality: JsonValue::Null,
                }
            })
        })
        .collect()
}

/// One generated request.
struct Request {
    kind: Kind,
    device: usize,
    /// The sharded structure this request re-parameterizes.
    base: usize,
    circuits: Vec<Circuit>,
    id: String,
    path: &'static str,
    body: String,
}

/// One connection's seeded request stream.
struct Stream {
    stream: u64,
    rng: StdRng,
    n: u64,
}

impl Stream {
    fn new(seed: u64, stream: u64) -> Self {
        Stream {
            stream,
            rng: rng(derive(seed, &format!("mix{stream}"))),
            n: 0,
        }
    }

    fn next(&mut self, mix: &Mix) -> Request {
        let rng = &mut self.rng;
        let roll = rng.gen_range(0u32..1000);
        let mut base = 0;
        let (kind, device, circuits) = if roll < MISS_PER_MILLE {
            let qubits = rng.gen_range(8u32..=14);
            let gates = rng.gen_range(100usize..=220);
            let seed = derive(mix.seed, &format!("miss{}-{}", self.stream, self.n));
            let c = random::random_circuit(qubits, gates, 0.7, seed);
            (Kind::Miss, 0, vec![c])
        } else if roll < MISS_PER_MILLE + BATCH_PER_MILLE {
            let structure = &mix.batches[rng.gen_range(0..mix.batches.len())];
            let sweep = (0..BATCH_WIDTH)
                .map(|_| reparameterized(structure, rng))
                .collect();
            (Kind::Batch, 0, sweep)
        } else if roll < MISS_PER_MILLE + BATCH_PER_MILLE + SHARDED_PER_MILLE {
            base = rng.gen_range(0..mix.sharded.len());
            (
                Kind::Sharded,
                0,
                vec![reparameterized(&mix.sharded[base], rng)],
            )
        } else {
            let (device, structure) = &mix.hits[rng.gen_range(0..mix.hits.len())];
            (Kind::Hit, *device, vec![reparameterized(structure, rng)])
        };
        let id = format!("c{}-{}", self.stream, self.n);
        self.n += 1;
        let device_id = &mix.devices[device].id;
        let (path, body) = match kind {
            Kind::Hit | Kind::Miss => ("/route", route_body(device_id, &circuits[0])),
            Kind::Batch => ("/transpile_batch", batch_body(device_id, &circuits)),
            Kind::Sharded => ("/route_sharded", sharded_body(&FLEET, &circuits[0])),
        };
        Request {
            kind,
            device,
            base,
            circuits,
            id,
            path,
            body,
        }
    }
}

/// A request kept for the post-run comparison with the library.
struct Kept {
    kind: Kind,
    device: usize,
    circuits: Vec<Circuit>,
    body: JsonValue,
}

#[derive(Default)]
pub struct ConnOut {
    pub samples: Samples,
    pub tally: Tally,
    kept: Vec<Kept>,
    /// `(request id, client-observed latency ns)`, traced runs only.
    pub client_ns: Vec<(String, u64)>,
}

impl ConnOut {
    fn merge(&mut self, other: ConnOut) {
        self.samples.merge(other.samples);
        self.tally.merge(other.tally);
        self.kept.extend(other.kept);
        self.client_ns.extend(other.client_ns);
    }

    /// Checks one reply and files its latency; `keep` picks the replies
    /// kept for the library comparison.
    fn settle(
        &mut self,
        mix: &Mix,
        references: &[ShardedReference],
        request: Request,
        (latency, reply): (Duration, Result<Reply, String>),
        keep: &mut StdRng,
        traced: bool,
    ) {
        let Request {
            kind,
            device,
            base,
            circuits,
            id,
            path,
            ..
        } = request;
        let reference = (kind == Kind::Sharded).then(|| &references[base]);
        let checked = parsed(path, reply).and_then(|json| {
            check_reply(
                kind,
                &circuits,
                &mix.devices[device].graph,
                reference,
                &json,
            )?;
            Ok(json)
        });
        let json = match checked {
            Ok(json) => json,
            Err(e) => return self.tally.record(Err(format!("{path} {id}: {e}"))),
        };
        self.tally.record(Ok(()));
        let ms = latency.as_secs_f64() * 1e3;
        match kind {
            Kind::Hit => self.samples.hit.push(ms),
            Kind::Miss => self.samples.miss.push(ms),
            Kind::Batch => self.samples.batch.push(ms),
            Kind::Sharded => self.samples.sharded.push(ms),
        }
        if traced {
            self.client_ns.push((id, latency.as_nanos() as u64));
        }
        if keep.gen_range(0u32..KEEP_ONE_IN) == 0 && self.kept.len() < KEEP_PER_CONNECTION {
            self.kept.push(Kept {
                kind,
                device,
                circuits,
                body: json,
            });
        }
    }
}

/// The closed loop: one client thread per stream, all sending rounds of
/// `ROUND_REQUESTS` requests in lockstep until `deadline` or `max_rounds`.
/// Only a round's sending is timed (`corpus_s`, `req_per_s`, latencies):
/// its requests are generated before it and its replies checked after it,
/// while no connection sends, so the checker's CPU neither competes with
/// the server nor sits inside a figure.
fn closed_loop(
    mix: &Mix,
    references: &[ShardedReference],
    addr: SocketAddr,
    streams: Range<u64>,
    deadline: Instant,
    max_rounds: usize,
    traced: bool,
) -> ConnOut {
    let lead = streams.start;
    let connections = streams.clone().count();
    let barrier = Barrier::new(connections);
    let stop = AtomicBool::new(false);
    let mut total = ConnOut::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = streams
            .map(|stream| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut out = ConnOut::default();
                    let mut client = Client::new(addr);
                    let mut requests = Stream::new(mix.seed, stream);
                    let mut keep = rng(derive(mix.seed, &format!("keep{stream}")));
                    for round in 0.. {
                        let batch: Vec<Request> =
                            (0..ROUND_REQUESTS).map(|_| requests.next(mix)).collect();
                        // The lead decides; the barrier publishes its verdict.
                        if stream == lead {
                            let done = round >= max_rounds || Instant::now() >= deadline;
                            stop.store(done, Ordering::Relaxed);
                        }
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let begun = Instant::now();
                        let replies: Vec<_> = batch
                            .iter()
                            .map(|r| send(&mut client, r.path, &r.body, &r.id))
                            .collect();
                        barrier.wait();
                        if stream == lead {
                            out.samples.corpus.push(begun.elapsed().as_secs_f64());
                        }
                        out.samples.ops += replies.len() as u64;
                        for (request, reply) in batch.into_iter().zip(replies) {
                            out.settle(mix, references, request, reply, &mut keep, traced);
                        }
                    }
                    out
                })
            })
            .collect();
        for client in clients {
            total.merge(client.join().expect("client threads do not panic"));
        }
    });
    total.samples.ops_per_corpus = connections * ROUND_REQUESTS;
    total
}

/// The check of every response: status, cache path, and an independent
/// replay (a coupling check for optimized batch output; for sharded
/// plans, equality with the library's plan of the same structure).
fn check_reply(
    kind: Kind,
    circuits: &[Circuit],
    graph: &CouplingGraph,
    reference: Option<&ShardedReference>,
    json: &JsonValue,
) -> Result<(), String> {
    match kind {
        Kind::Hit | Kind::Miss => {
            let want = if kind == Kind::Hit { "hit" } else { "miss" };
            let got = json.get("plan_cache").and_then(JsonValue::as_str);
            if got != Some(want) {
                return Err(format!("expected a plan-cache {want}, got {got:?}"));
            }
            check::served_route(&circuits[0], json, graph)
        }
        Kind::Batch => {
            let slots = json
                .get("outcomes")
                .and_then(JsonValue::as_array)
                .ok_or("no outcomes")?;
            if slots.len() != circuits.len()
                || json.get("failed").and_then(JsonValue::as_u64) != Some(0)
            {
                return Err("batch slots failed".into());
            }
            slots.iter().try_for_each(|slot| {
                check::compliant(&check::physical_circuit(slot.get("physical_qasm"))?, graph)
            })
        }
        Kind::Sharded => {
            if json.get("verified").and_then(JsonValue::as_bool) != Some(true) {
                return Err("sharded plan not verified".into());
            }
            let reference = reference.ok_or("no library plan to compare with")?;
            let plan = json.get("plan").map(check::without_cut_angles);
            check::same_json("plan (cut angles aside)", plan.as_ref(), &reference.plan)?;
            check::same_json("sharded quality", json.get("quality"), &reference.quality)
        }
    }
}

/// Adds a response's `quality` member (a `PlanQuality` rendering) to the
/// workload's sums.
fn add_quality(quality: &mut Quality, json: Option<&JsonValue>) -> Result<(), String> {
    let q = json.ok_or("no quality")?;
    let num = |key: &str| {
        q.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("quality.{key} missing"))
    };
    quality.added_gates += num("added_gates")?;
    quality.depth_overhead += num("depth_overhead")?;
    quality.neg_log_success -= num("log_success_probability")?;
    Ok(())
}

/// A booted, registered and warmed server, the quality sums of the mix's
/// fixed structures, and the library plans sharded replies must match.
pub struct Prepared {
    pub handle: ServerHandle,
    pub quality: Quality,
    references: Vec<ShardedReference>,
}

pub fn prepare(mix: &Mix, workers: usize, traced: bool, tally: &mut Tally) -> Prepared {
    let handle = boot(workers, traced, mix.config, &mix.devices, tally);
    let references = sharded_references(
        mix.sharded.iter().map(|c| (c, &mix.fleet)),
        mix.config,
        tally,
    );
    let mut client = Client::new(handle.addr());
    let mut quality = Quality::default();
    let probes = mix.probes.iter().map(|c| (0, c));
    for (k, (device, structure)) in mix
        .hits
        .iter()
        .map(|(d, c)| (*d, c))
        .chain(probes)
        .enumerate()
    {
        let d = &mix.devices[device];
        let (_, reply) = call(
            &mut client,
            "/route",
            &route_body(&d.id, structure),
            &format!("setup-hit{k}"),
        );
        tally.record(reply.and_then(|json| {
            let one = std::slice::from_ref(structure);
            check_reply(Kind::Miss, one, &d.graph, None, &json)?;
            add_quality(&mut quality, json.get("quality"))
        }));
    }
    for (k, structure) in mix.batches.iter().enumerate() {
        let d = &mix.devices[0];
        let sweep = vec![structure.clone(); BATCH_WIDTH];
        let (_, reply) = call(
            &mut client,
            "/transpile_batch",
            &batch_body(&d.id, &sweep),
            &format!("setup-batch{k}"),
        );
        tally.record(reply.and_then(|json| {
            check_reply(Kind::Batch, &sweep, &d.graph, None, &json)?;
            let first = json
                .get("outcomes")
                .and_then(JsonValue::as_array)
                .and_then(|s| s.first());
            add_quality(&mut quality, first.and_then(|s| s.get("quality")))
        }));
    }
    for (k, (circuit, reference)) in mix.sharded.iter().zip(&references).enumerate() {
        let (_, reply) = call(
            &mut client,
            "/route_sharded",
            &sharded_body(&FLEET, circuit),
            &format!("setup-wide{k}"),
        );
        tally.record(reply.and_then(|json| {
            let one = std::slice::from_ref(circuit);
            check_reply(
                Kind::Sharded,
                one,
                &mix.devices[0].graph,
                Some(reference),
                &json,
            )
        }));
    }
    let warm = closed_loop(
        mix,
        &references,
        handle.addr(),
        WARM_STREAM..WARM_STREAM + 1,
        Instant::now() + Duration::from_secs(60),
        WARM_ROUNDS,
        false,
    );
    tally.merge(warm.tally);
    Prepared {
        handle,
        quality,
        references,
    }
}

/// The timed closed loop: `connections` client threads for `seconds`.
pub fn measure(mix: &Mix, p: &Prepared, connections: usize, seconds: f64, traced: bool) -> ConnOut {
    closed_loop(
        mix,
        &p.references,
        p.handle.addr(),
        0..connections as u64,
        Instant::now() + Duration::from_secs_f64(seconds),
        usize::MAX,
        traced,
    )
}

/// Compares the kept responses with the direct library call for the same
/// inputs, seed and configuration (outside the timed section).
pub fn compare_with_library(mix: &Mix, out: &mut ConnOut) {
    let routers: Vec<SabreRouter> = mix
        .devices
        .iter()
        .map(|d| {
            SabreRouter::with_noise(d.graph.clone(), mix.config, d.noise().expect("calibrated"))
                .expect("valid router")
        })
        .collect();
    let cache = DeviceCache::new();
    let kept = std::mem::take(&mut out.kept);
    for k in &kept {
        let d = &mix.devices[k.device];
        let noise = d.noise();
        let verdict = match k.kind {
            Kind::Hit | Kind::Miss => routers[k.device]
                .route(&k.circuits[0])
                .map_err(|e| e.to_string())
                .and_then(|r| {
                    let quality = PlanQuality::of_result(&k.circuits[0], &r, noise);
                    let best = k.body.get("result").and_then(|res| res.get("best"));
                    check::same_json("result.best", best, &r.best.to_json())?;
                    check::same_json("quality", k.body.get("quality"), &quality.to_json())?;
                    check::same_json(
                        "physical_qasm",
                        k.body.get("physical_qasm"),
                        &sabre_qasm::to_qasm(&r.best.physical).into(),
                    )
                }),
            Kind::Batch => {
                let options = TranspileOptions {
                    config: mix.config,
                    noise: noise.cloned(),
                    ..TranspileOptions::default()
                };
                let outcomes = transpile_batch_cached(&k.circuits, &d.graph, &options, &cache);
                let slots = k
                    .body
                    .get("outcomes")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[]);
                if slots.len() != outcomes.len() {
                    Err("batch slot count differs".to_string())
                } else {
                    outcomes.iter().zip(slots).zip(&k.circuits).try_for_each(
                        |((o, slot), input)| {
                            let out = o.output().ok_or("library batch slot failed")?;
                            check::same_json("ok", slot.get("ok"), &out.to_json())?;
                            let quality = PlanQuality::of_transpiled(input, out, noise);
                            check::same_json(
                                "slot quality",
                                slot.get("quality"),
                                &quality.to_json(),
                            )?;
                            check::same_json(
                                "slot physical_qasm",
                                slot.get("physical_qasm"),
                                &sabre_qasm::to_qasm(&out.circuit).into(),
                            )
                        },
                    )
                }
            }
            Kind::Sharded => route_sharded(
                &k.circuits[0],
                &mix.fleet,
                &shard_config(mix.config),
                &cache,
            )
            .map_err(|e| e.to_string())
            .and_then(|plan| {
                plan.verify(&k.circuits[0], &mix.fleet)
                    .map_err(|e| e.to_string())?;
                check::same_json("plan", k.body.get("plan"), &plan.to_json())?;
                let quality = plan.quality(&k.circuits[0], &mix.fleet);
                check::same_json("sharded quality", k.body.get("quality"), &quality.to_json())
            }),
        };
        out.tally
            .record(verdict.map_err(|e| format!("kept {:?} response: {e}", k.kind)));
    }
}

/// Server phase timings per request kind: `(kind, phase, metric, divisor
/// from ns)`.
const PHASES: &[(&str, &str, &str, f64)] = &[
    ("hit", "read", "serve.hit.read_us", 1e3),
    ("hit", "parse", "serve.hit.parse_us", 1e3),
    ("hit", "plan_cache", "serve.hit.plan_cache_us", 1e3),
    ("hit", "rebind", "serve.hit.rebind_us", 1e3),
    ("hit", "write", "serve.hit.write_us", 1e3),
    ("miss", "read", "serve.miss.read_us", 1e3),
    ("miss", "parse", "serve.miss.parse_us", 1e3),
    ("miss", "plan_cache", "serve.miss.plan_cache_us", 1e3),
    ("miss", "admission", "serve.miss.admission_us", 1e3),
    ("miss", "queue_wait", "serve.miss.queue_wait_us", 1e3),
    ("miss", "route", "serve.miss.route_ms", 1e6),
    ("miss", "serialize", "serve.miss.serialize_us", 1e3),
    ("miss", "write", "serve.miss.write_us", 1e3),
    ("batch", "read", "serve.batch.read_us", 1e3),
    ("batch", "parse", "serve.batch.parse_us", 1e3),
    ("batch", "admission", "serve.batch.admission_us", 1e3),
    ("batch", "queue_wait", "serve.batch.queue_wait_us", 1e3),
    ("batch", "write", "serve.batch.write_us", 1e3),
    ("sharded", "read", "serve.sharded.read_us", 1e3),
    ("sharded", "parse", "serve.sharded.parse_us", 1e3),
    ("sharded", "admission", "serve.sharded.admission_us", 1e3),
    ("sharded", "queue_wait", "serve.sharded.queue_wait_us", 1e3),
    ("sharded", "write", "serve.sharded.write_us", 1e3),
];

/// Aggregates the server's `/debug/traces` ring and `/metrics` into the
/// `serve.*` per-layer metrics (mean per request of each kind), plus the
/// plan-cache hit fraction and evictions the server counted.
pub fn server_layers(
    addr: SocketAddr,
    client_ns: &[(String, u64)],
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let mut client = Client::new(addr);
    let mut m = BTreeMap::new();
    let latency: HashMap<&str, u64> = client_ns
        .iter()
        .map(|(id, ns)| (id.as_str(), *ns))
        .collect();
    let traces = client
        .send(
            "GET",
            &format!("/debug/traces?limit={TRACE_CAPACITY}"),
            "",
            "traces",
        )
        .and_then(|r| JsonValue::parse(&r.body).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            tally.record(Err(format!("reading /debug/traces: {e}")));
            JsonValue::Null
        });
    // kind → phase → samples (ns); plus unattributed share and client gap.
    let mut phases: HashMap<&str, HashMap<String, Vec<f64>>> = HashMap::new();
    let mut unattributed: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut gaps: HashMap<&str, Vec<f64>> = HashMap::new();
    for trace in traces
        .get("traces")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let target = trace
            .get("target")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let Some(recorded) = trace.get("phases").and_then(JsonValue::as_object) else {
            continue;
        };
        let kind = match target {
            "/route_sharded" => "sharded",
            "/transpile_batch" => "batch",
            "/route" if recorded.iter().any(|(p, _)| p == "rebind") => "hit",
            "/route" => "miss",
            _ => continue,
        };
        let total = trace
            .get("total_ns")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let mut sum = 0.0;
        for (phase, ns) in recorded {
            let ns = ns.as_f64().unwrap_or(0.0);
            sum += ns;
            phases
                .entry(kind)
                .or_default()
                .entry(phase.clone())
                .or_default()
                .push(ns);
        }
        if total > 0.0 {
            unattributed
                .entry(kind)
                .or_default()
                .push(1.0 - sum / total);
        }
        let id = trace
            .get("trace_id")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        if let Some(&client_ns) = latency.get(id) {
            gaps.entry(kind).or_default().push(client_ns as f64 - total);
        }
    }
    for &(kind, phase, metric, scale) in PHASES {
        let samples = phases.get(kind).and_then(|p| p.get(phase));
        m.insert(metric, samples.map_or(0.0, |s| stats::mean(s) / scale));
    }
    for (kind, metric) in [
        ("hit", "serve.hit.unattributed_frac"),
        ("miss", "serve.miss.unattributed_frac"),
    ] {
        m.insert(
            metric,
            unattributed.get(kind).map_or(0.0, |s| stats::mean(s)),
        );
    }
    for (kind, metric) in [
        ("hit", "serve.hit.client_gap_us"),
        ("miss", "serve.miss.client_gap_us"),
        ("batch", "serve.batch.client_gap_us"),
        ("sharded", "serve.sharded.client_gap_us"),
    ] {
        m.insert(metric, gaps.get(kind).map_or(0.0, |s| stats::mean(s) / 1e3));
    }

    let text = client
        .send("GET", "/metrics", "", "metrics")
        .map(|r| r.body)
        .unwrap_or_else(|e| {
            tally.record(Err(format!("reading /metrics: {e}")));
            String::new()
        });
    let counter = |prefix: &str| -> f64 {
        text.lines()
            .filter(|line| line.starts_with(prefix))
            .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let (hits, misses) = (
        counter("sabre_serve_plan_cache_hits_total "),
        counter("sabre_serve_plan_cache_misses_total "),
    );
    m.insert(
        "serve.rejections",
        counter("sabre_serve_admission_rejections_total{"),
    );
    m.insert("plan.hit_frac", hits / (hits + misses).max(1.0));
    m.insert(
        "plan.evictions",
        counter("sabre_serve_plan_cache_evictions_total "),
    );
    m
}

/// The serving half of a library workload's traced run: each circuit is
/// sent once as a `/route` miss and once re-parameterized as a hit, each
/// device gets one `/transpile_batch` sweep of its variants, and each
/// circuit goes through `/route_sharded` on a two-member fleet of its
/// device. Returns the `serve.*` metrics from the server's own traces.
pub fn library_sweep(
    workers: usize,
    config: SabreConfig,
    devices: &[ServedDevice],
    items: &[(usize, &Circuit, &Circuit)],
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    // Every device is registered twice, `<id>` and `<id>-b`, to form fleets.
    let doubled: Vec<ServedDevice> = devices
        .iter()
        .flat_map(|d| {
            let twin = |id: String| ServedDevice {
                id,
                builtin: d.builtin.clone(),
                graph: d.graph.clone(),
                noise: d.noise.clone(),
            };
            [twin(d.id.clone()), twin(format!("{}-b", d.id))]
        })
        .collect();
    let fleets: Vec<Fleet> = doubled.chunks(2).map(fleet_of).collect();
    let references = sharded_references(
        items.iter().map(|&(device, c, _)| (c, &fleets[device])),
        config,
        tally,
    );
    let handle = boot(workers, true, config, &doubled, tally);
    let mut client = Client::new(handle.addr());
    let mut client_ns = Vec::new();
    let mut timed = |path: &str, body: String, id: String| {
        let (latency, reply) = call(&mut client, path, &body, &id);
        client_ns.push((id, latency.as_nanos() as u64));
        reply
    };
    for (i, &(device, circuit, variant)) in items.iter().enumerate() {
        let d = &devices[device];
        for (kind, c, tag) in [(Kind::Miss, circuit, "miss"), (Kind::Hit, variant, "hit")] {
            let reply = timed("/route", route_body(&d.id, c), format!("{tag}{i}"));
            let one = std::slice::from_ref(c);
            tally.record(reply.and_then(|json| check_reply(kind, one, &d.graph, None, &json)));
        }
    }
    for (di, d) in devices.iter().enumerate() {
        let variants: Vec<Circuit> = items
            .iter()
            .filter(|(device, _, _)| *device == di)
            .map(|(_, _, v)| (*v).clone())
            .collect();
        if variants.is_empty() {
            continue;
        }
        let reply = timed(
            "/transpile_batch",
            batch_body(&d.id, &variants),
            format!("batch{di}"),
        );
        tally.record(
            reply.and_then(|json| check_reply(Kind::Batch, &variants, &d.graph, None, &json)),
        );
    }
    for (i, (&(device, circuit, _), reference)) in items.iter().zip(&references).enumerate() {
        let d = &devices[device];
        let twin = format!("{}-b", d.id);
        let body = sharded_body(&[d.id.as_str(), twin.as_str()], circuit);
        let reply = timed("/route_sharded", body, format!("sharded{i}"));
        let one = std::slice::from_ref(circuit);
        tally
            .record(reply.and_then(|json| {
                check_reply(Kind::Sharded, one, &d.graph, Some(reference), &json)
            }));
    }
    let m = server_layers(handle.addr(), &client_ns, tally);
    handle.shutdown();
    m
}

/// The library workloads' devices as the server registers them.
pub fn served(devices: &[crate::library::Device]) -> Vec<ServedDevice> {
    devices
        .iter()
        .map(|d| ServedDevice {
            id: d.id.to_string(),
            builtin: d.builtin.to_string(),
            graph: d.graph.clone(),
            noise: d.noise_aware.then(|| (d.noise_seed, d.noise.clone())),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::Qubit;

    #[test]
    fn a_tampered_sharded_plan_is_caught() {
        let mix = mix(3);
        let cache = DeviceCache::new();
        let base = &mix.sharded[0];
        let reference = sharded_reference(base, &mix.fleet, mix.config, &cache).unwrap();
        // A re-parameterized request must match its structure's plan.
        let variant = reparameterized(base, &mut rng(5));
        let mut plan =
            route_sharded(&variant, &mix.fleet, &shard_config(mix.config), &cache).unwrap();
        let body = |plan: &sabre_shard::ShardedPlan, verified: bool| {
            JsonValue::object([
                ("verified", verified.into()),
                ("quality", plan.quality(&variant, &mix.fleet).to_json()),
                ("plan", plan.to_json()),
            ])
        };
        let graph = &mix.devices[0].graph;
        let check = |json: &JsonValue| {
            let one = std::slice::from_ref(&variant);
            check_reply(Kind::Sharded, one, graph, Some(&reference), json)
        };
        check(&body(&plan, true)).unwrap();
        assert!(check(&body(&plan, false)).is_err());
        plan.shards[0]
            .result
            .best
            .final_layout
            .swap_physical(Qubit(0), Qubit(1));
        assert!(check(&body(&plan, true)).is_err());
    }
}
