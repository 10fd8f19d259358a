//! Regenerates the paper's **§V-B scalability study**: BKA's runtime and
//! search effort explode with the qubit count while SABRE stays at
//! millisecond scale. The paper reports BKA needing 475 s / > 40 GB for
//! `qft_16` and failing outright (378 GB exhausted) on `ising_model_16`
//! and `qft_20`; SABRE solves all of them in ≤ 0.1 s.
//!
//! The qft and ising series sweep n ∈ {10, 13, 16, 20}; BKA's generated
//! node count is the memory proxy: the paper's gigabytes depend on its
//! machine, the count of generated search nodes does not.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sabre-bench --release --bin scalability
//! ```

use sabre::SabreConfig;
use sabre_baseline::bka::BkaConfig;
use sabre_bench::{fmt_secs, measure_bka, measure_sabre, BkaMeasurement};
use sabre_benchgen::{ising, qft};
use sabre_topology::devices;

fn main() {
    let device = devices::ibm_q20_tokyo();
    let graph = device.graph();
    let sizes = [10u32, 13, 16, 20];

    println!("Scalability reproduction (paper §V-B) — IBM Q20 Tokyo");
    println!(
        "BKA node budget = {} (memory proxy)\n",
        BkaConfig::default().node_budget
    );
    let header = format!(
        "{:<16} {:>3} {:>6} | {:>10} {:>12} {:>9} | {:>9} {:>9}",
        "benchmark", "n", "g_ori", "bka_gadd", "bka_nodes", "bka_t(s)", "sabre_gop", "sabre_t(s)"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    for &n in &sizes {
        for (label, circuit) in [
            (format!("qft_{n}"), qft::qft(n)),
            (format!("ising_model_{n}"), ising::ising_chain(n, 13)),
        ] {
            let bka = measure_bka(&circuit, graph, BkaConfig::default());
            let (bka_gadd, bka_nodes, bka_t) = match bka {
                BkaMeasurement::Done { measurement, stats } => (
                    measurement.added_gates.to_string(),
                    stats.nodes_generated.to_string(),
                    fmt_secs(measurement.elapsed),
                ),
                BkaMeasurement::OutOfMemory {
                    nodes_generated,
                    elapsed,
                } => (
                    "OOM".to_string(),
                    nodes_generated.to_string(),
                    fmt_secs(elapsed),
                ),
            };
            let (sabre_m, _) = measure_sabre(&circuit, graph, SabreConfig::paper());
            println!(
                "{:<16} {:>3} {:>6} | {:>10} {:>12} {:>9} | {:>9} {:>9}",
                label,
                n,
                circuit.num_gates(),
                bka_gadd,
                bka_nodes,
                bka_t,
                sabre_m.added_gates,
                fmt_secs(sabre_m.elapsed)
            );
        }
    }
    println!("\nExpected shape: bka_nodes and bka_t grow by orders of magnitude with n,");
    println!("hitting the budget at ising_model_16 and qft_20 (the paper's OOM rows),");
    println!("while sabre_t stays at millisecond scale throughout.");
}
