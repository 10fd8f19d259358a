//! `routebench`: the repository's end-to-end benchmark of the SABRE router.
//!
//! ```text
//! cargo run --release --offline --manifest-path routebench/Cargo.toml -- \
//!     --workload <table2_paper|kilo_sparse|serve_vqa_mix|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own process (`all` re-executes this binary
//! once per workload). With `--trace 0` the last stdout line is a JSON
//! object with every end-to-end metric; with `--trace 1` it carries every
//! per-layer metric from a traced run. Lines before it are the readable
//! report. Any failed check makes the exit code nonzero. See README.md.

mod check;
mod http;
mod inputs;
mod layers;
mod library;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use sabre::PlanQuality;
use sabre_json::JsonValue;

use crate::spans::Recorder;

const WORKLOADS: [&str; 3] = ["table2_paper", "kilo_sparse", "serve_vqa_mix"];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 35.0;
/// Set-ups per untraced run, each in a fresh process and timed from its
/// start: the run's own, then the rest in child processes after the timed
/// section. `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics of the JSON line: `(name, unit)`. The latency tails
/// and the batch median are printed in the report but left out here: on a
/// shared two-vCPU host their run-to-run spread exceeds any usable bound.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("corpus_s", "s"),
    ("added_gates", "gates"),
    ("depth_overhead", "layers"),
    ("neg_log_success", "nats"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "req/s"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("sharded_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 64] = [
    ("topology.cold_router_ms", "ms"),
    ("topology.warm_router_us", "us"),
    ("topology.row_miss_us", "us"),
    ("embedding.probe_ms", "ms"),
    ("embedding.found_frac", "ratio"),
    ("router.route_ms", "ms"),
    ("router.search_steps", "count"),
    ("router.step_ns", "ns"),
    ("search.front_ns", "ns"),
    ("search.extended_set_ns", "ns"),
    ("search.scoring_ns", "ns"),
    ("quality.score_us", "us"),
    ("plan.hit_us", "us"),
    ("plan.miss_us", "us"),
    ("plan.insert_us", "us"),
    ("plan.hit_frac", "ratio"),
    ("plan.evictions", "count"),
    ("circuit.digest_us", "us"),
    ("qasm.parse_us", "us"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("transpile.finish_ms", "ms"),
    ("transpile.gates_removed_frac", "ratio"),
    ("parallel.batch_ms", "ms"),
    ("parallel.collect_spawn_us", "us"),
    ("shard.fleet_build_us", "us"),
    ("shard.partition_ms", "ms"),
    ("shard.route_ms", "ms"),
    ("shard.cuts", "count"),
    ("serve.hit.read_us", "us"),
    ("serve.hit.parse_us", "us"),
    ("serve.hit.plan_cache_us", "us"),
    ("serve.hit.rebind_us", "us"),
    ("serve.hit.write_us", "us"),
    ("serve.hit.unattributed_frac", "ratio"),
    ("serve.hit.client_gap_us", "us"),
    ("serve.miss.read_us", "us"),
    ("serve.miss.parse_us", "us"),
    ("serve.miss.plan_cache_us", "us"),
    ("serve.miss.admission_us", "us"),
    ("serve.miss.queue_wait_us", "us"),
    ("serve.miss.route_ms", "ms"),
    ("serve.miss.serialize_us", "us"),
    ("serve.miss.write_us", "us"),
    ("serve.miss.unattributed_frac", "ratio"),
    ("serve.miss.client_gap_us", "us"),
    ("serve.batch.read_us", "us"),
    ("serve.batch.parse_us", "us"),
    ("serve.batch.admission_us", "us"),
    ("serve.batch.queue_wait_us", "us"),
    ("serve.batch.write_us", "us"),
    ("serve.batch.client_gap_us", "us"),
    ("serve.sharded.read_us", "us"),
    ("serve.sharded.parse_us", "us"),
    ("serve.sharded.admission_us", "us"),
    ("serve.sharded.queue_wait_us", "us"),
    ("serve.sharded.write_us", "us"),
    ("serve.sharded.client_gap_us", "us"),
    ("serve.rejections", "count"),
    ("trace.corpus_s_delta", "s"),
    ("trace.hit_p50_ms_delta", "ms"),
    ("trace.miss_p50_ms_delta", "ms"),
    ("trace.batch_p50_ms_delta", "ms"),
    ("trace.sharded_p50_ms_delta", "ms"),
];

/// Timings collected by one timed section.
#[derive(Default)]
pub struct Samples {
    /// One value per corpus pass (library) or closed-loop round (serve), s.
    pub corpus: Vec<f64>,
    pub hit: Vec<f64>,
    pub miss: Vec<f64>,
    pub batch: Vec<f64>,
    pub sharded: Vec<f64>,
    /// Operations completed (routes for the library workloads, requests
    /// for serving), and how many one `corpus` sample covers.
    pub ops: u64,
    pub ops_per_corpus: usize,
    /// `hit`, `miss` and `sharded` hold one median per circuit (library
    /// workloads); their `_p50` figure is then the geometric mean.
    pub per_circuit: bool,
}

impl Samples {
    pub fn merge(&mut self, other: Samples) {
        self.corpus.extend(other.corpus);
        self.hit.extend(other.hit);
        self.miss.extend(other.miss);
        self.batch.extend(other.batch);
        self.sharded.extend(other.sharded);
        self.ops += other.ops;
    }
}

/// Plan-quality sums over a workload's fixed set of routed structures.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub added_gates: f64,
    pub depth_overhead: f64,
    /// `-Σ ln p` of the estimated success probabilities.
    pub neg_log_success: f64,
}

impl Quality {
    pub fn add(&mut self, q: &PlanQuality) {
        self.added_gates += q.added_gates as f64;
        self.depth_overhead += q.depth_overhead as f64;
        self.neg_log_success -= q.log_success_probability.unwrap_or(0.0);
    }
}

/// Checked operations: attempted, failed, and the first failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up once, print `setup_s <seconds>` and exit (the child
    /// processes behind `setup_s`).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be a u64")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => args.trace = flag_bool("--trace", &value)?,
            "--setup-only" => args.setup_only = flag_bool("--setup-only", &value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} must be 0 or 1")),
    }
}

/// Everything one execution of a workload produced.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    samples: Samples,
    quality: Quality,
    tally: Tally,
    report: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
    spans: String,
}

/// Sets up (timed from `begun`), then measures for `seconds`. A traced
/// execution also records spans and runs the layer sweeps.
fn execute(workload: &str, seed: u64, seconds: f64, traced: bool, begun: Instant) -> Run {
    let nproc = nproc();
    let mut run = Run::default();
    match workload {
        "serve_vqa_mix" => {
            let mix = serve::mix(seed);
            let p = serve::prepare(&mix, nproc, traced, &mut run.tally);
            run.setup_s.push(begun.elapsed().as_secs_f64());
            let mut out = serve::measure(&mix, &p, nproc, seconds, traced);
            serve::compare_with_library(&mix, &mut out);
            run.quality = p.quality;
            if traced {
                run.layers = serve::server_layers(p.handle.addr(), &out.client_ns, &mut run.tally);
                let devices: Vec<layers::SweepDevice<'_>> = mix
                    .devices
                    .iter()
                    .map(|d| {
                        let noise = &d.noise.as_ref().expect("calibrated").1;
                        layers::SweepDevice {
                            id: &d.id,
                            graph: &d.graph,
                            route_noise: Some(noise),
                            score_noise: noise,
                        }
                    })
                    .collect();
                let mut angles = inputs::rng(inputs::derive(seed, "sweep-angles"));
                let owned: Vec<_> = mix
                    .hits
                    .iter()
                    .map(|(d, c)| (*d, c))
                    .chain(mix.probes.iter().map(|c| (0, c)))
                    .map(|(d, c)| (d, c, inputs::reparameterized(c, &mut angles)))
                    .collect();
                let items: Vec<layers::SweepItem<'_>> = owned
                    .iter()
                    .map(|(device, circuit, variant)| layers::SweepItem {
                        circuit,
                        variant,
                        device: *device,
                    })
                    .collect();
                let sharded: Vec<_> = mix.sharded.iter().map(|c| (c, &mix.fleet)).collect();
                let mut rec = Recorder::new(true);
                let swept = layers::sweep(
                    &devices,
                    &items,
                    &sharded,
                    mix.config,
                    &mut rec,
                    &mut run.tally,
                );
                for (name, value) in swept {
                    run.layers.entry(name).or_insert(value);
                }
                run.spans = rec.to_jsonl();
            }
            run.samples = out.samples;
            run.tally.merge(out.tally);
            run.report.push(format!(
                "  closed loop: {nproc} connections, {nproc} server workers, {} requests",
                run.samples.ops
            ));
            p.handle.shutdown();
        }
        _ => {
            let p = library::prepare(corpus(workload, seed), traced, &mut run.tally);
            run.setup_s.push(begun.elapsed().as_secs_f64());
            let mut rec = Recorder::new(traced);
            run.samples = library::measure(&p, seconds, &mut rec, &mut run.tally);
            run.quality = p.quality;
            let passes: Vec<String> = run
                .samples
                .corpus
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect();
            run.report
                .push(format!("  corpus passes (s): {}", passes.join(" ")));
            for (i, (item, q)) in p.corpus.items.iter().zip(&p.rows).enumerate() {
                let paper = item
                    .paper_g_op
                    .map_or_else(|| "-".to_string(), |g| g.to_string());
                run.report.push(format!(
                    "  row {:<16} added_gates {:>6}  paper g_op {:>6}  depth_overhead {:>6}  \
                     miss_ms {:>9.4}  sharded_ms {:>9.4}",
                    item.name,
                    q.added_gates,
                    paper,
                    q.depth_overhead,
                    run.samples.miss[i],
                    run.samples.sharded[i]
                ));
            }
            if traced {
                let c = &p.corpus;
                let devices: Vec<layers::SweepDevice<'_>> = c
                    .devices
                    .iter()
                    .map(|d| layers::SweepDevice {
                        id: d.id,
                        graph: &d.graph,
                        route_noise: d.route_noise(),
                        score_noise: &d.noise,
                    })
                    .collect();
                let items: Vec<layers::SweepItem<'_>> = c
                    .items
                    .iter()
                    .map(|i| layers::SweepItem {
                        circuit: &i.circuit,
                        variant: &i.variant,
                        device: i.device,
                    })
                    .collect();
                let sharded: Vec<_> = c
                    .items
                    .iter()
                    .map(|i| (&i.circuit, &p.fleets[i.device]))
                    .collect();
                let mut sweep_rec = Recorder::new(true);
                run.layers = layers::sweep(
                    &devices,
                    &items,
                    &sharded,
                    c.config,
                    &mut sweep_rec,
                    &mut run.tally,
                );
                let served_items: Vec<_> = c
                    .items
                    .iter()
                    .map(|i| (i.device, &i.circuit, &i.variant))
                    .collect();
                let served = serve::library_sweep(
                    nproc,
                    c.config,
                    &serve::served(&c.devices),
                    &served_items,
                    &mut run.tally,
                );
                run.layers.extend(served);
                let plans = p.cache.plans().stats();
                run.layers.insert(
                    "plan.hit_frac",
                    plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
                );
                run.layers.insert("plan.evictions", plans.evictions as f64);
                run.spans = rec.to_jsonl() + &sweep_rec.to_jsonl();
            }
        }
    }
    run
}

fn corpus(workload: &str, seed: u64) -> library::Corpus {
    if workload == "table2_paper" {
        library::table2(seed)
    } else {
        library::kilo(seed)
    }
}

/// One untraced set-up and nothing else, timed from `process_start`.
fn setup_once(workload: &str, seed: u64, process_start: Instant) -> (f64, Tally) {
    let mut tally = Tally::default();
    let secs = if workload == "serve_vqa_mix" {
        let mix = serve::mix(seed);
        let p = serve::prepare(&mix, nproc(), false, &mut tally);
        let secs = process_start.elapsed().as_secs_f64();
        p.handle.shutdown();
        secs
    } else {
        library::prepare(corpus(workload, seed), false, &mut tally);
        process_start.elapsed().as_secs_f64()
    };
    (secs, tally)
}

/// The set-ups after the run's own: each in a child process of this
/// binary, run one after another, after the timed section.
fn cold_setups(args: &Args, tally: &mut Tally) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let seed = args.seed.to_string();
    let mut secs = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let output = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--setup-only", "1"])
            .output();
        let parsed = output.map_err(|e| e.to_string()).and_then(|o| {
            let stdout = String::from_utf8_lossy(&o.stdout);
            let value = stdout
                .lines()
                .last()
                .and_then(|line| line.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok());
            match value {
                Some(v) if o.status.success() => Ok(v),
                _ => Err(format!("set-up process failed: {stdout}")),
            }
        });
        tally.record(parsed.map(|v| secs.push(v)));
    }
    secs
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of a run, report-only ones included:
/// `name → (value, samples)`.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, (f64, usize)> {
    let s = &run.samples;
    let q = &run.quality;
    let center = if s.per_circuit {
        stats::geomean
    } else {
        stats::median
    };
    // Library workloads report their fastest pass (see `library::measure`).
    let pass = if s.per_circuit {
        stats::min
    } else {
        stats::median
    };
    BTreeMap::from([
        ("setup_s", (stats::median(&run.setup_s), run.setup_s.len())),
        ("corpus_s", (pass(&s.corpus), s.corpus.len())),
        ("added_gates", (q.added_gates, 1)),
        ("depth_overhead", (q.depth_overhead, 1)),
        ("neg_log_success", (q.neg_log_success, 1)),
        ("peak_rss_mb", (peak_rss_mb(), 1)),
        (
            "req_per_s",
            (
                s.ops_per_corpus as f64 / pass(&s.corpus).max(1e-9),
                s.ops as usize,
            ),
        ),
        ("hit_p50_ms", (center(&s.hit), s.hit.len())),
        ("hit_p99_ms", (stats::percentile(&s.hit, 0.99), s.hit.len())),
        ("miss_p50_ms", (center(&s.miss), s.miss.len())),
        (
            "miss_p90_ms",
            (stats::percentile(&s.miss, 0.9), s.miss.len()),
        ),
        ("batch_p50_ms", (stats::median(&s.batch), s.batch.len())),
        ("sharded_p50_ms", (center(&s.sharded), s.sharded.len())),
    ])
}

fn print_result(tally: &Tally, table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name,
                JsonValue::object([("value", value.into()), ("unit", unit.into())]),
            )
        })
        .collect::<Vec<_>>();
    let result = JsonValue::object([
        ("correct", (tally.failed == 0).into()),
        ("attempted", tally.attempted.max(1).into()),
        ("failed", tally.failed.into()),
        ("metrics", JsonValue::object(metrics)),
    ]);
    println!("{}", result.to_compact());
}

fn run_one(args: &Args, process_start: Instant) -> ExitCode {
    let nproc = nproc();
    println!(
        "routebench workload={} seed={} seconds={} trace={} nproc={nproc} rayon_threads={nproc} \
         server_workers={nproc} client_connections={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (tally, values) = if args.trace {
        // Tracing overhead: the same workload untraced, then traced, each
        // for half the time; per-layer numbers come from the traced half.
        let half = args.seconds / 2.0;
        let base = execute(&args.workload, args.seed, half, false, Instant::now());
        let mut traced = execute(&args.workload, args.seed, half, true, Instant::now());
        let (b, t) = (end_to_end(&base), end_to_end(&traced));
        for (metric, delta) in [
            ("corpus_s", "trace.corpus_s_delta"),
            ("hit_p50_ms", "trace.hit_p50_ms_delta"),
            ("miss_p50_ms", "trace.miss_p50_ms_delta"),
            ("batch_p50_ms", "trace.batch_p50_ms_delta"),
            ("sharded_p50_ms", "trace.sharded_p50_ms_delta"),
        ] {
            traced.layers.insert(delta, t[metric].0 - b[metric].0);
        }
        for &(name, unit) in &PER_LAYER {
            println!(
                "  {name:<30} {:>14.4} {unit}",
                traced.layers.get(name).copied().unwrap_or(f64::NAN)
            );
        }
        write_spans(&args.workload, args.seed, &traced.spans);
        traced.report.iter().for_each(|line| println!("{line}"));
        let mut tally = base.tally;
        tally.merge(traced.tally);
        (tally, traced.layers)
    } else {
        let mut run = execute(
            &args.workload,
            args.seed,
            args.seconds,
            false,
            process_start,
        );
        let cold = cold_setups(args, &mut run.tally);
        run.setup_s.extend(cold);
        let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        println!("  set-ups from process start (s): {}", setups.join(" "));
        let e2e = end_to_end(&run);
        let report_only = [
            ("hit_p99_ms", "ms"),
            ("miss_p90_ms", "ms"),
            ("batch_p50_ms", "ms"),
        ];
        for &(name, unit) in END_TO_END.iter().chain(&report_only) {
            let (value, n) = e2e[name];
            println!("  {name:<16} {value:>14.4} {unit:<6} (n={n})");
        }
        for (name, n, p) in [
            ("hit_p99_ms", run.samples.hit.len(), 0.99),
            ("miss_p90_ms", run.samples.miss.len(), 0.9),
        ] {
            let beyond = stats::beyond(n, p);
            if beyond < 10 {
                println!("  note: {name} has only {beyond} samples beyond it");
            }
        }
        let s = &run.samples;
        for (kind, xs) in [
            ("hit", &s.hit),
            ("miss", &s.miss),
            ("batch", &s.batch),
            ("sharded", &s.sharded),
        ] {
            let q: Vec<String> = [0.5, 0.9, 0.99, 1.0]
                .iter()
                .map(|&p| format!("{:.4}", stats::percentile(xs, p)))
                .collect();
            println!(
                "  {kind:<8} ms p50/p90/p99/max {} (n={})",
                q.join(" / "),
                xs.len()
            );
        }
        run.report.iter().for_each(|line| println!("{line}"));
        let values = e2e.iter().map(|(k, (v, _))| (*k, *v)).collect();
        (run.tally, values)
    };
    let frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  failed_frac {frac} ({} of {} checked operations)",
        tally.failed, tally.attempted
    );
    for failure in &tally.failures {
        println!("  FAILED: {failure}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print_result(&tally, table, &values);
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Spans of the traced run, one JSON object per line, under the build
/// directory.
fn write_spans(workload: &str, seed: u64, spans: &str) {
    let dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string());
    let path = std::path::Path::new(&dir).join(format!("routebench-spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => println!(
            "  spans: {} lines in {}",
            spans.lines().count(),
            path.display()
        ),
        Err(e) => println!("  spans not written ({}): {e}", path.display()),
    }
}

/// `--workload all`: one child process per workload, then one summary
/// row per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut rows = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawning a workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or("");
        rows.push((workload, JsonValue::parse(last).ok()));
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "\nsummary (seed {}, {} s per workload)",
        args.seed, args.seconds
    );
    for (workload, result) in rows {
        let Some(result) = result else {
            println!("{workload:<14} no result");
            continue;
        };
        let metrics = result.get("metrics");
        let cells: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = metrics
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                format!("{name}={v:.4}{unit}")
            })
            .collect();
        let failed = result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let attempted = result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        println!(
            "{workload:<14} failed={failed}/{attempted} {}",
            cells.join(" ")
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("routebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Cap the rayon shim's pools at the machine's parallelism (set before
    // any pool is built; nothing else runs yet).
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
    if args.setup_only {
        let (secs, tally) = setup_once(&args.workload, args.seed, process_start);
        tally.failures.iter().for_each(|e| eprintln!("FAILED: {e}"));
        println!("setup_s {secs}");
        return if tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, process_start)
    }
}
