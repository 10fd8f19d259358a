//! The parallel multi-seed engine end to end: one `route` call that fans
//! a circuit's restarts across threads, then a whole corpus transpiled in
//! one batch call.
//!
//! ```text
//! cargo run --release --example parallel_batch
//! ```
//!
//! Output is deterministic: `RAYON_NUM_THREADS=1` and `=8` print the
//! same routing results (only timings differ).

use sabre::{transpile_batch, SabreConfig, SabreRouter, TranspileOptions};
use sabre_benchgen::{qft, random};
use sabre_circuit::Circuit;
use sabre_topology::devices;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = devices::ibm_q20_tokyo();
    println!("device: IBM Q20 Tokyo");

    // One hard circuit, 16 restarts: restart 0 needs far more than a
    // handful of SWAPs, so `route` runs restarts 1..16 concurrently. The
    // result is the same at any thread count; only wall-clock differs.
    let config = SabreConfig {
        num_restarts: 16,
        ..SabreConfig::paper()
    };
    let router = SabreRouter::new(device.graph().clone(), config)?;
    let circuit = random::random_circuit(16, 300, 0.7, 42);
    let result = router.route(&circuit)?;
    println!(
        "route: {} restarts, best is #{} with +{} gates ({} SWAPs)",
        config.num_restarts,
        result.best_restart,
        result.added_gates(),
        result.best.num_swaps
    );

    // A corpus of circuits through the full pipeline in one call; the
    // router (and its O(n³) distance preprocessing) is built once.
    let corpus: Vec<Circuit> = (0..8)
        .map(|i| match i % 2 {
            0 => qft::qft(6 + (i as u32) / 2),
            _ => random::random_circuit(12, 100, 0.6, i as u64),
        })
        .collect();
    let outputs = transpile_batch(&corpus, device.graph(), &TranspileOptions::default())?;
    println!("\ntranspile_batch over {} circuits:", corpus.len());
    for (circuit, out) in corpus.iter().zip(&outputs) {
        let out = out.as_ref().expect("per-circuit transpile failed");
        println!(
            "  {:<12} {:>3} gates in, {:>3} out, {} SWAPs inserted",
            circuit.name(),
            circuit.num_gates(),
            out.circuit.num_gates(),
            out.swaps_inserted
        );
    }
    Ok(())
}
