//! Noise-aware routing study — the §VI "More Precise Hardware Modeling"
//! extension (beyond the paper's tables).
//!
//! IBM Q20 Tokyo gets calibration-like per-coupling error variability
//! (log-uniform spread ×4 around the Figure 2 average of 3×10⁻²). Each
//! benchmark routes twice: with the hop-count heuristic (the paper's) and
//! with the fidelity-weighted heuristic. Reported: added gates and the
//! estimated success probability of the decomposed output circuit under
//! the noise model.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sabre-bench --release --bin noise
//! ```

use sabre::SabreConfig;
use sabre_bench::{device_cache, verify};
use sabre_benchgen::registry;
use sabre_topology::devices;
use sabre_topology::noise::NoiseModel;

fn main() {
    let device = devices::ibm_q20_tokyo();
    let graph = device.graph();
    let noise = NoiseModel::calibrated(graph, 0.03, 4.0, 2019);
    // One shared cache for the whole study: the hop and noise-weighted
    // matrices are each built once, every loop iteration below is a warm
    // acquisition. `refresh_noise` is how a service would ingest the daily
    // calibration — only the weighted matrix is recomputed.
    let cache = device_cache();
    cache
        .refresh_noise(graph, &noise)
        .expect("connected device");

    println!("Noise-aware routing (extension) — Tokyo with calibrated edge errors");
    println!("base CNOT error 3e-2, log-uniform ×4 spread; success = Π(1-ε)\n");
    let header = format!(
        "{:<16} | {:>9} {:>12} | {:>9} {:>12} | {:>8}",
        "benchmark", "hop_gadd", "hop_success", "fid_gadd", "fid_success", "gain"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    for name in [
        "qft_10", "qft_13", "qft_16", "rd84_142", "z4_268", "sym6_145",
    ] {
        let spec = registry::by_name(name).expect("registry name");
        let circuit = spec.generate();

        let hop_router = cache.router(graph, SabreConfig::paper()).unwrap();
        let hop = hop_router.route(&circuit).unwrap();
        verify(&circuit, &hop.best, graph);
        let hop_success = noise.success_probability(&hop.best.decomposed());

        let fid_router = cache
            .router_with_noise(graph, SabreConfig::paper(), &noise)
            .unwrap();
        let fid = fid_router.route(&circuit).unwrap();
        verify(&circuit, &fid.best, graph);
        let fid_success = noise.success_probability(&fid.best.decomposed());

        println!(
            "{:<16} | {:>9} {:>12.3e} | {:>9} {:>12.3e} | {:>7.2}x",
            name,
            hop.added_gates(),
            hop_success,
            fid.added_gates(),
            fid_success,
            fid_success / hop_success.max(f64::MIN_POSITIVE)
        );
    }
    println!("\nExpected shape: the fidelity-weighted heuristic inserts more SWAPs but");
    println!("routes around lossy couplers. On deep circuits (z4, sym6), where coupler");
    println!("quality compounds over thousands of gates, it wins by orders of magnitude;");
    println!("on shallow all-to-all circuits (qft) the extra SWAPs can outweigh the");
    println!("savings — matching the paper's caution that precise hardware models are a");
    println!("trade-off, not a free win (§VI).");
}
