//! The traced run's layer sweep: each layer's public functions are called
//! on the workload's own inputs, inside spans, and each layer's per-call
//! self time becomes a per-layer metric. Only the benchmark's side of the
//! calls is instrumented; nothing inside the router changes.

use std::collections::BTreeMap;
use std::hint::black_box;

use rayon::prelude::*;
use sabre::{
    transpile_batch_cached, DeviceCache, PlanCache, PlanQuality, SabreConfig, SabreResult,
    TranspileOptions,
};
use sabre_circuit::interaction::InteractionGraph;
use sabre_circuit::optimize::optimize;
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_shard::{partition, route_sharded, Fleet, ShardConfig, ShardSpec};
use sabre_topology::embedding::{find_embedding_within, Embedding};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{CouplingGraph, WeightedDistanceMatrix};

use crate::spans::Recorder;
use crate::{check, inputs, stats, Tally};

const WARM_ROUTER_REPEATS: usize = 200;
const FRESH_ROWS: u32 = 16;
const DIGEST_REPEATS: usize = 50;
const HIT_REPEATS: usize = 20;
const COLLECT_REPEATS: usize = 50;

pub struct SweepDevice<'a> {
    pub id: &'a str,
    pub graph: &'a CouplingGraph,
    pub route_noise: Option<&'a NoiseModel>,
    pub score_noise: &'a NoiseModel,
}

pub struct SweepItem<'a> {
    pub circuit: &'a Circuit,
    pub variant: &'a Circuit,
    pub device: usize,
}

/// Calls every layer on `items` (routed on their device) and on
/// `sharded` (routed across their fleet); returns the per-layer metrics.
pub fn sweep(
    devices: &[SweepDevice<'_>],
    items: &[SweepItem<'_>],
    sharded: &[(&Circuit, &Fleet)],
    config: SabreConfig,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let profiled = SabreConfig {
        profile: true,
        ..config
    };
    let mut m = BTreeMap::new();

    let mut routers = Vec::new();
    for (d, dev) in devices.iter().enumerate() {
        let acquire = |cache: &DeviceCache| match dev.route_noise {
            Some(noise) => cache.router_with_noise(dev.graph, profiled, noise),
            None => cache.router(dev.graph, profiled),
        };
        let cache = DeviceCache::new();
        let router = rec.span("topology.cold_router", d as u64, |_| acquire(&cache));
        for _ in 0..WARM_ROUTER_REPEATS {
            black_box(
                rec.span("topology.warm_router", d as u64, |_| acquire(&cache))
                    .is_ok(),
            );
        }
        routers.push(
            router
                .expect("benchmark devices are connected and the config is valid")
                .without_embedding_cache(),
        );
        let hops = WeightedDistanceMatrix::sparse(dev.graph, |_, _| 1.0);
        fresh_rows(&hops, dev.graph, d, rec);
        if let Some(noise) = dev.route_noise {
            let weighted = WeightedDistanceMatrix::sparse(dev.graph, |a, b| noise.swap_cost(a, b));
            fresh_rows(&weighted, dev.graph, d, rec);
        }
    }

    let (mut probes, mut found) = (0usize, 0usize);
    let (mut steps, mut probe_ns_in_route) = (0u64, 0.0f64);
    let (mut front, mut ext, mut scoring, mut profiled_steps) = (0u64, 0u64, 0u64, 0u64);
    let (mut removed, mut decomposed_gates) = (0usize, 0usize);
    let mut results: Vec<SabreResult> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let req = i as u64;
        let dev = &devices[item.device];
        let pattern = InteractionGraph::of(item.circuit);
        let probe_start = rec.spans().len();
        let verdict = rec.span("embedding.probe", req, |_| {
            find_embedding_within(&pattern, dev.graph, config.embedding_probe_budget)
        });
        let probe_ns = rec.duration_ns(probe_start);
        probes += 1;
        found += usize::from(matches!(verdict, Some(Embedding::Found(_))));

        let result = rec
            .span("router.route", req, |_| {
                routers[item.device].route(item.circuit)
            })
            .expect("every benchmark circuit fits its device");
        tally.record(check::routed(item.circuit, &result.best, dev.graph));
        steps += result.total_search_steps() as u64;
        // The router probes only when its restarts left SWAPs behind.
        if result.perfect_placement || result.best.num_swaps > 0 {
            probe_ns_in_route += probe_ns;
        }
        if let Some(p) = &result.profile {
            front += p.front_ns;
            ext += p.extended_set_ns;
            scoring += p.scoring_ns;
            profiled_steps += p.search_steps;
        }
        let quality = rec.span("quality.score", req, |_| {
            PlanQuality::of_result(item.circuit, &result, Some(dev.score_noise))
        });
        for _ in 0..DIGEST_REPEATS {
            black_box(rec.span("circuit.digest", req, |_| {
                item.circuit.structural_digest(64)
            }));
        }

        let plans = PlanCache::with_capacity(4);
        let noise = dev.route_noise;
        black_box(rec.span("plan.miss", req, |_| {
            plans.lookup(item.circuit, dev.graph, noise, &config)
        }));
        rec.span("plan.insert", req, |_| {
            plans.insert(item.circuit, dev.graph, noise, &config, &result)
        });
        for _ in 0..HIT_REPEATS {
            let hit = rec.span("plan.hit", req, |_| {
                plans.lookup(item.variant, dev.graph, noise, &config)
            });
            tally.record(
                hit.map(|_| ())
                    .ok_or_else(|| "plan cache missed its own insert".to_string()),
            );
        }

        let text = sabre_qasm::to_qasm(item.variant);
        let parsed = rec.span("qasm.parse", req, |_| sabre_qasm::parse(&text));
        tally.record(match parsed {
            Ok(c) if c.gates() == item.variant.gates() => Ok(()),
            _ => Err("QASM round trip changed the circuit".to_string()),
        });
        let body = inputs::route_body(dev.id, item.variant);
        tally.record(
            rec.span("json.parse", req, |_| JsonValue::parse(&body))
                .map(|_| ())
                .map_err(|e| e.to_string()),
        );
        black_box(rec.span("json.render", req, |_| {
            JsonValue::object([
                ("quality", quality.to_json()),
                ("result", result.to_json()),
                (
                    "physical_qasm",
                    sabre_qasm::to_qasm(&result.best.physical).into(),
                ),
            ])
            .to_compact()
        }));
        let (gates, cut) = rec.span("transpile.finish", req, |_| {
            let hardware = result.best.physical.with_swaps_decomposed();
            let (_, report) = optimize(&hardware);
            (hardware.num_gates(), report.gates_removed())
        });
        decomposed_gates += gates;
        removed += cut;
        results.push(result);
    }

    for (d, dev) in devices.iter().enumerate() {
        let mine: Vec<usize> = (0..items.len()).filter(|&i| items[i].device == d).collect();
        if mine.is_empty() {
            continue;
        }
        // A warm sweep: the plans are in the cache, as after a first batch.
        let cache = DeviceCache::new();
        for &i in &mine {
            cache.plans().insert(
                items[i].circuit,
                dev.graph,
                dev.route_noise,
                &config,
                &results[i],
            );
        }
        let variants: Vec<Circuit> = mine.iter().map(|&i| items[i].variant.clone()).collect();
        let options = TranspileOptions {
            config,
            noise: dev.route_noise.cloned(),
            ..TranspileOptions::default()
        };
        let outcomes = rec.span("parallel.batch", d as u64, |_| {
            transpile_batch_cached(&variants, dev.graph, &options, &cache)
        });
        for outcome in &outcomes {
            tally.record(match outcome.as_result() {
                Ok(out) => check::compliant(&out.circuit, dev.graph),
                Err(e) => Err(format!("batch slot failed: {e}")),
            });
        }
        let width: Vec<usize> = (0..variants.len()).collect();
        for _ in 0..COLLECT_REPEATS {
            let out: Vec<usize> = rec.span("parallel.collect_spawn", d as u64, |_| {
                width.par_iter().map(|&x| x).collect()
            });
            black_box(out);
        }
    }

    let shard_config = ShardConfig {
        sabre: config,
        ..ShardConfig::default()
    };
    let shard_cache = DeviceCache::new();
    let mut cuts = 0usize;
    for (i, &(circuit, fleet)) in sharded.iter().enumerate() {
        let req = i as u64;
        black_box(rec.span("shard.fleet_build", req, |_| rebuild(fleet)));
        let routed = rec.span("shard.route", req, |_| {
            route_sharded(circuit, fleet, &shard_config, &shard_cache)
        });
        let plan = match routed {
            Ok(plan) => plan,
            Err(e) => {
                tally.record(Err(e.to_string()));
                continue;
            }
        };
        cuts += plan.cuts.len();
        tally.record(
            plan.verify(circuit, fleet)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        );
        // The partition step alone, re-run on the members and the cut
        // price the plan records, i.e. the selection `route_sharded` made.
        let specs: Vec<ShardSpec> = plan
            .shards
            .iter()
            .map(|shard| {
                let member = &fleet.members()[shard.fleet_index];
                ShardSpec {
                    capacity: member.graph().num_qubits(),
                    score: member.score(),
                }
            })
            .collect();
        let pattern = InteractionGraph::of(circuit);
        black_box(rec.span("shard.partition", req, |_| {
            partition(
                &pattern,
                &specs,
                plan.cut_cost,
                shard_config.max_refinement_passes,
                config.seed,
            )
        }));
    }

    let times = rec.self_times();
    let mean = |name: &str, scale: f64| times.get(name).map_or(0.0, |v| stats::mean(v) / scale);
    let total = |name: &str| times.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let per_step = |ns: u64| ns as f64 / profiled_steps.max(1) as f64;
    m.insert("topology.cold_router_ms", mean("topology.cold_router", 1e6));
    m.insert("topology.warm_router_us", mean("topology.warm_router", 1e3));
    m.insert("topology.row_miss_us", mean("topology.row_miss", 1e3));
    m.insert("embedding.probe_ms", mean("embedding.probe", 1e6));
    m.insert("embedding.found_frac", found as f64 / probes.max(1) as f64);
    m.insert("router.route_ms", mean("router.route", 1e6));
    m.insert("router.search_steps", steps as f64);
    m.insert(
        "router.step_ns",
        (total("router.route") - probe_ns_in_route) / steps.max(1) as f64,
    );
    m.insert("search.front_ns", per_step(front));
    m.insert("search.extended_set_ns", per_step(ext));
    m.insert("search.scoring_ns", per_step(scoring));
    m.insert("quality.score_us", mean("quality.score", 1e3));
    m.insert("plan.hit_us", mean("plan.hit", 1e3));
    m.insert("plan.miss_us", mean("plan.miss", 1e3));
    m.insert("plan.insert_us", mean("plan.insert", 1e3));
    m.insert("circuit.digest_us", mean("circuit.digest", 1e3));
    m.insert("qasm.parse_us", mean("qasm.parse", 1e3));
    m.insert("json.parse_us", mean("json.parse", 1e3));
    m.insert("json.render_us", mean("json.render", 1e3));
    m.insert("transpile.finish_ms", mean("transpile.finish", 1e6));
    m.insert(
        "transpile.gates_removed_frac",
        removed as f64 / decomposed_gates.max(1) as f64,
    );
    m.insert("parallel.batch_ms", mean("parallel.batch", 1e6));
    m.insert(
        "parallel.collect_spawn_us",
        mean("parallel.collect_spawn", 1e3),
    );
    m.insert("shard.fleet_build_us", mean("shard.fleet_build", 1e3));
    m.insert("shard.partition_ms", mean("shard.partition", 1e6));
    m.insert("shard.route_ms", mean("shard.route", 1e6));
    m.insert("shard.cuts", cuts as f64);
    m
}

/// First touch of `FRESH_ROWS` rows spread over the device: each is a
/// BFS or Dijkstra from scratch in the sparse engine.
fn fresh_rows(
    matrix: &WeightedDistanceMatrix,
    graph: &CouplingGraph,
    device: usize,
    rec: &mut Recorder,
) {
    let n = graph.num_qubits();
    let stride = (n / FRESH_ROWS).max(1);
    for k in 0..FRESH_ROWS.min(n) {
        let q = Qubit(k * stride);
        rec.span("topology.row_miss", device as u64, |_| {
            black_box(matrix.row(q).len())
        });
    }
}

/// The fleet `sabre_serve` builds for every `/route_sharded` request: a
/// fresh one, every member's score recomputed.
fn rebuild(fleet: &Fleet) -> Fleet {
    let mut out = Fleet::new();
    for member in fleet.members() {
        match member.noise() {
            Some(noise) => {
                out.register_with_noise(member.id(), member.graph().clone(), noise.clone())
            }
            None => out.register(member.id(), member.graph().clone()),
        }
        .expect("members of a valid fleet re-register");
    }
    out
}
