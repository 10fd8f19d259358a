//! The two library workloads, driven through the public router API the
//! way a batch compiler user calls it: `table2_paper` (the paper's own
//! evaluation on IBM Q20 Tokyo) and `kilo_sparse` (random circuits on
//! devices past the dense-distance threshold).
//!
//! One timed *pass* routes every circuit of the set once, sequentially
//! (`corpus_s`, and one `miss` sample per circuit), then re-submits a
//! re-parameterized copy of each circuit to the plan cache (`hit`), runs
//! warm `transpile_batch_cached` sweeps over every device (`batch`, one
//! sample per sweep), and routes each circuit once more through
//! `route_sharded` on a two-member fleet of its device (`sharded`).

use std::time::Instant;

use sabre::{
    transpile_batch_cached, BatchOutcome, DeviceCache, PlanQuality, RoutedCircuit, SabreConfig,
    SabreRouter, TranspileOptions,
};
use sabre_benchgen::{random, registry};
use sabre_circuit::Circuit;
use sabre_shard::{route_sharded, Fleet, ShardConfig};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph};

use crate::inputs::{calibration, derive, reparameterized, rng};
use crate::spans::Recorder;
use crate::{check, stats, Quality, Samples, Tally};

/// Plan-cache hits timed per pass (spread evenly over the set), and warm
/// batch sweeps timed per pass. Sample counts only: they set how many
/// `hit` and `batch` samples a pass yields, not any reported rate.
const HITS_PER_PASS: usize = 500;
/// Circuits per `kilo_sparse` device, and gates per circuit.
const KILO_PER_DEVICE: usize = 3;
const KILO_GATES: usize = 500;
const SWEEPS_PER_PASS: usize = 5;

pub struct Device {
    /// Registration id on the serving sweep, and fleet-member prefix.
    pub id: &'static str,
    /// `sabre_serve` builtin device name.
    pub builtin: &'static str,
    pub graph: CouplingGraph,
    /// Seed of the calibrated noise model (also sent to the server).
    pub noise_seed: u64,
    /// Scores every result's log-success probability; also the routing
    /// cost model when `noise_aware`.
    pub noise: NoiseModel,
    pub noise_aware: bool,
}

impl Device {
    fn new(
        id: &'static str,
        builtin: &'static str,
        graph: CouplingGraph,
        noise_aware: bool,
    ) -> Self {
        let (noise_seed, noise) = calibration(id, &graph);
        Device {
            id,
            builtin,
            graph,
            noise_seed,
            noise,
            noise_aware,
        }
    }

    pub fn route_noise(&self) -> Option<&NoiseModel> {
        self.noise_aware.then_some(&self.noise)
    }
}

pub struct Item {
    pub name: String,
    pub device: usize,
    pub circuit: Circuit,
    /// Same structure, fresh angles: what a re-submission looks like.
    pub variant: Circuit,
    /// The paper's Table II `g_op` for this row, when there is one.
    pub paper_g_op: Option<usize>,
}

pub struct Corpus {
    pub devices: Vec<Device>,
    pub items: Vec<Item>,
    pub config: SabreConfig,
}

/// The 26 Table II circuits on Tokyo at the paper's configuration. The
/// circuits are the registry's; the seed drives the router's restarts and
/// the re-parameterized copies.
pub fn table2(seed: u64) -> Corpus {
    let tokyo = Device::new(
        "tokyo20",
        "tokyo20",
        devices::ibm_q20_tokyo().graph().clone(),
        false,
    );
    let mut angles = rng(derive(seed, "table2-angles"));
    let items = registry::table2()
        .into_iter()
        .map(|spec| {
            let circuit = spec.generate();
            Item {
                name: spec.name.to_string(),
                device: 0,
                variant: reparameterized(&circuit, &mut angles),
                circuit,
                paper_g_op: Some(spec.paper.sabre_g_op),
            }
        })
        .collect();
    Corpus {
        devices: vec![tokyo],
        items,
        config: SabreConfig {
            seed: derive(seed, "table2-router"),
            ..SabreConfig::paper()
        },
    }
}

/// Random circuits (200 qubits × `KILO_GATES` gates, `KILO_PER_DEVICE`
/// per device) past the dense-distance threshold: on a 33×33 grid with hop
/// costs, and on a heavy-hex lattice routed against a calibrated noise
/// model. Several shorter circuits rather than one deep one per device:
/// the sums and medians then vary less from seed to seed.
pub fn kilo(seed: u64) -> Corpus {
    let grid = Device::new(
        "grid33x33",
        "grid:33x33",
        devices::grid(33, 33).graph().clone(),
        false,
    );
    let hex = Device::new(
        "heavyhex22x44",
        "heavy_hex:22x44",
        devices::heavy_hex(22, 44).graph().clone(),
        true,
    );
    let mut angles = rng(derive(seed, "kilo-angles"));
    let items = (0..KILO_PER_DEVICE)
        .flat_map(|k| {
            [
                (0usize, format!("grid33x33/r{k}")),
                (1, format!("heavyhex22x44/r{k}")),
            ]
        })
        .map(|(device, name)| {
            let circuit = random::random_circuit(200, KILO_GATES, 0.9, derive(seed, &name));
            Item {
                name,
                device,
                variant: reparameterized(&circuit, &mut angles),
                circuit,
                paper_g_op: None,
            }
        })
        .collect();
    Corpus {
        devices: vec![grid, hex],
        items,
        config: SabreConfig {
            num_restarts: 1,
            num_traversals: 3,
            seed: derive(seed, "kilo-router"),
            ..SabreConfig::paper()
        },
    }
}

/// A workload after set-up: warm preprocessing, filled plan cache, and
/// the verified reference results every timed call is compared against.
pub struct Prepared {
    pub corpus: Corpus,
    pub cache: DeviceCache,
    /// One router per device with the embedding-verdict cache detached:
    /// a compiler user pays the probe for every new circuit.
    routers: Vec<SabreRouter>,
    pub fleets: Vec<Fleet>,
    pub shard_config: ShardConfig,
    options: Vec<TranspileOptions>,
    /// Per device, the variants its batch sweep submits.
    batches: Vec<Vec<Circuit>>,
    pub routed: Vec<RoutedCircuit>,
    rebound: Vec<RoutedCircuit>,
    batch_outputs: Vec<Vec<Circuit>>,
    pub quality: Quality,
    /// Per-item quality of the set-up route, for the report.
    pub rows: Vec<PlanQuality>,
}

/// Builds the corpus, preprocesses each device cold, routes every circuit
/// once (verified; fills the plan cache and yields the quality sums), and
/// runs one batch sweep per device.
pub fn prepare(corpus: Corpus, profile: bool, tally: &mut Tally) -> Prepared {
    let cache = DeviceCache::new();
    let config = SabreConfig {
        profile,
        ..corpus.config
    };
    let routers: Vec<SabreRouter> = corpus
        .devices
        .iter()
        .map(|d| {
            match d.route_noise() {
                Some(noise) => cache.router_with_noise(&d.graph, config, noise),
                None => cache.router(&d.graph, config),
            }
            .expect("benchmark devices are connected and the config is valid")
            .without_embedding_cache()
        })
        .collect();
    let fleets = corpus
        .devices
        .iter()
        .map(|d| {
            let mut fleet = Fleet::new();
            for suffix in ["a", "b"] {
                let id = format!("{}-{suffix}", d.id);
                match d.route_noise() {
                    Some(noise) => fleet.register_with_noise(&id, d.graph.clone(), noise.clone()),
                    None => fleet.register(&id, d.graph.clone()),
                }
                .expect("fresh member ids");
            }
            fleet
        })
        .collect();

    let mut routed = Vec::new();
    let mut rows = Vec::new();
    let mut quality = Quality::default();
    for item in &corpus.items {
        let d = &corpus.devices[item.device];
        let result = routers[item.device]
            .route(&item.circuit)
            .expect("every benchmark circuit fits its device");
        tally.record(check::routed(&item.circuit, &result.best, &d.graph));
        let q = PlanQuality::of_result(&item.circuit, &result, Some(&d.noise));
        quality.add(&q);
        rows.push(q);
        cache.plans().insert(
            &item.circuit,
            &d.graph,
            d.route_noise(),
            &corpus.config,
            &result,
        );
        routed.push(result.best);
    }
    let mut rebound = Vec::new();
    for item in &corpus.items {
        let d = &corpus.devices[item.device];
        match cache
            .plans()
            .lookup(&item.variant, &d.graph, d.route_noise(), &corpus.config)
        {
            Some(hit) => {
                tally.record(check::routed(&item.variant, &hit.best, &d.graph));
                rebound.push(hit.best);
            }
            None => {
                tally.record(Err(format!(
                    "{}: no plan-cache hit after set-up",
                    item.name
                )));
                rebound.push(routed[rebound.len()].clone());
            }
        }
    }
    let options: Vec<TranspileOptions> = corpus
        .devices
        .iter()
        .map(|d| TranspileOptions {
            config: corpus.config,
            noise: d.route_noise().cloned(),
            ..TranspileOptions::default()
        })
        .collect();
    let members: Vec<Vec<usize>> = (0..corpus.devices.len())
        .map(|d| {
            (0..corpus.items.len())
                .filter(|&i| corpus.items[i].device == d)
                .collect()
        })
        .collect();
    let batches: Vec<Vec<Circuit>> = members
        .iter()
        .map(|m| m.iter().map(|&i| corpus.items[i].variant.clone()).collect())
        .collect();
    let mut batch_outputs = Vec::new();
    for (d, device) in corpus.devices.iter().enumerate() {
        let outcomes = transpile_batch_cached(&batches[d], &device.graph, &options[d], &cache);
        let mut outputs = Vec::new();
        for (outcome, &i) in outcomes.iter().zip(&members[d]) {
            match outcome {
                BatchOutcome::Transpiled(out) => {
                    let consistent = out.initial_layout == rebound[i].initial_layout
                        && out.swaps_inserted == rebound[i].num_swaps;
                    tally.record(
                        check::compliant(&out.circuit, &device.graph).and_then(|()| {
                            consistent.then_some(()).ok_or_else(|| {
                                "batch output disagrees with the verified route".to_string()
                            })
                        }),
                    );
                    outputs.push(out.circuit.clone());
                }
                BatchOutcome::Failed(e) => {
                    tally.record(Err(format!("batch slot failed in set-up: {e}")));
                    outputs.push(Circuit::new(0));
                }
            }
        }
        batch_outputs.push(outputs);
    }
    Prepared {
        shard_config: ShardConfig {
            sabre: corpus.config,
            ..ShardConfig::default()
        },
        corpus,
        cache,
        routers,
        fleets,
        options,
        batches,
        routed,
        rebound,
        batch_outputs,
        quality,
        rows,
    }
}

/// Per-circuit latencies (ms) of the three per-circuit operations, one
/// value per pass: the pass's median for hits, its one call otherwise.
#[derive(Clone, Default)]
struct PerCircuit {
    hit: Vec<f64>,
    miss: Vec<f64>,
    sharded: Vec<f64>,
}

/// Runs whole passes until the next one would end past `seconds`. The
/// hit, miss and sharded samples are one per circuit, each that circuit's
/// fastest pass: the host's speed shifts by a quarter or more for seconds
/// at a time, so a median over passes lands on whichever speed held most
/// of the run, while every run has passes at full speed. The set mixes
/// sizes across four orders of magnitude, and a percentile over pooled
/// calls would sit on the edge between two circuits, where one stray call
/// moves it; the workload reports the geometric mean over circuits (see
/// `stats::geomean`).
pub fn measure(p: &Prepared, seconds: f64, rec: &mut Recorder, tally: &mut Tally) -> Samples {
    let mut samples = Samples::default();
    let mut calls = vec![PerCircuit::default(); p.corpus.items.len()];
    samples.ops_per_corpus = p.corpus.items.len();
    samples.per_circuit = true;
    let start = Instant::now();
    let mut last_pass = 0.0;
    let mut pass = 0u64;
    while pass == 0 || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let begun = Instant::now();
        rec.span("pass", pass, |rec| {
            run_pass(p, pass, rec, tally, &mut samples, &mut calls)
        });
        last_pass = begun.elapsed().as_secs_f64();
        pass += 1;
    }
    samples.hit = calls.iter().map(|c| stats::min(&c.hit)).collect();
    samples.miss = calls.iter().map(|c| stats::min(&c.miss)).collect();
    samples.sharded = calls.iter().map(|c| stats::min(&c.sharded)).collect();
    samples
}

fn timed<T>(rec: &mut Recorder, name: &'static str, pass: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let begun = Instant::now();
    let out = rec.span(name, pass, |_| f());
    (out, begun.elapsed().as_secs_f64())
}

fn run_pass(
    p: &Prepared,
    pass: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
    samples: &mut Samples,
    calls: &mut [PerCircuit],
) {
    let corpus = &p.corpus;
    let mut corpus_s = 0.0;
    for (i, item) in corpus.items.iter().enumerate() {
        let graph = &corpus.devices[item.device].graph;
        let (result, secs) = timed(rec, "router.route", pass, || {
            p.routers[item.device].route(&item.circuit)
        });
        corpus_s += secs;
        calls[i].miss.push(secs * 1e3);
        samples.ops += 1;
        tally.record(match result {
            Ok(r) if r.best == p.routed[i] => check::routed(&item.circuit, &r.best, graph),
            Ok(_) => Err(format!("{}: routing is not deterministic", item.name)),
            Err(e) => Err(format!("{}: {e}", item.name)),
        });
    }
    samples.corpus.push(corpus_s);

    // Each circuit's hits run back to back, the way an optimizer loop
    // re-submits one structure with fresh angles.
    let repeats = HITS_PER_PASS.div_ceil(corpus.items.len());
    for (i, item) in corpus.items.iter().enumerate() {
        let d = &corpus.devices[item.device];
        let mut hits_ms = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let (hit, secs) = timed(rec, "plan.lookup", pass, || {
                p.cache
                    .plans()
                    .lookup(&item.variant, &d.graph, d.route_noise(), &corpus.config)
            });
            hits_ms.push(secs * 1e3);
            tally.record(match hit {
                Some(h) if h.best == p.rebound[i] => Ok(()),
                Some(_) => Err(format!(
                    "{}: a hit differs from the verified rebind",
                    item.name
                )),
                None => Err(format!(
                    "{}: plan-cache miss on a cached structure",
                    item.name
                )),
            });
        }
        calls[i].hit.push(stats::median(&hits_ms));
    }

    // A batch sample is one sweep over every device.
    for _ in 0..SWEEPS_PER_PASS {
        let mut sweep_s = 0.0;
        for (d, device) in corpus.devices.iter().enumerate() {
            let (outcomes, secs) = timed(rec, "parallel.transpile_batch_cached", pass, || {
                transpile_batch_cached(&p.batches[d], &device.graph, &p.options[d], &p.cache)
            });
            sweep_s += secs;
            let ok = outcomes.len() == p.batch_outputs[d].len()
                && outcomes
                    .iter()
                    .zip(&p.batch_outputs[d])
                    .all(|(o, want)| o.output().is_some_and(|out| out.circuit == *want));
            tally.record(
                ok.then_some(())
                    .ok_or_else(|| format!("{}: batch output changed", device.id)),
            );
        }
        samples.batch.push(sweep_s * 1e3);
    }

    for (i, item) in corpus.items.iter().enumerate() {
        let fleet = &p.fleets[item.device];
        let (plan, secs) = timed(rec, "shard.route_sharded", pass, || {
            route_sharded(&item.circuit, fleet, &p.shard_config, &p.cache)
        });
        calls[i].sharded.push(secs * 1e3);
        tally.record(match plan {
            Ok(plan) => plan
                .verify(&item.circuit, fleet)
                .map(|_| ())
                .map_err(|e| format!("{}: sharded plan rejected: {e}", item.name)),
            Err(e) => Err(format!("{}: {e}", item.name)),
        });
    }
}
