//! Regenerates **Table II** of the paper: additional gate count and
//! runtime for BKA (Zulehner et al.) vs SABRE on the 26-benchmark suite,
//! routed onto the IBM Q20 Tokyo model.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sabre-bench --release --bin table2 [-- --max-gates N] [-- --only NAME]
//! ```
//!
//! Every SABRE and BKA result is verified (hardware compliance +
//! permutation replay) before being printed. Paper-reported numbers are
//! shown next to the measured ones; absolute values differ (different
//! hardware, benchmark files regenerated by `sabre_benchgen`) but the
//! qualitative shape should match: near-total reductions for small/sim
//! rows, a clear SABRE advantage on qft/large rows, and BKA running out
//! of memory on exactly the rows where the paper reports it
//! (`ising_model_16`, `qft_20` — the default node budget is calibrated to
//! that frontier).

use sabre::SabreConfig;
use sabre_baseline::bka::BkaConfig;
use sabre_bench::{fmt_secs, measure_bka, measure_sabre, BkaMeasurement};
use sabre_benchgen::registry;
use sabre_topology::devices;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_gates = flag_value(&args, "--max-gates")
        .map(|v| v.parse::<usize>().expect("--max-gates takes a number"))
        .unwrap_or(usize::MAX);
    let only = flag_value(&args, "--only");
    let node_budget = flag_value(&args, "--bka-budget")
        .map(|v| v.parse::<usize>().expect("--bka-budget takes a number"))
        .unwrap_or(BkaConfig::default().node_budget);
    let bka_config = BkaConfig {
        node_budget,
        ..BkaConfig::default()
    };

    let device = devices::ibm_q20_tokyo();
    let graph = device.graph();

    println!(
        "Table II reproduction — IBM Q20 Tokyo, {} benchmarks",
        registry::table2().len()
    );
    println!("SABRE: |E|=20, W=0.5, δ=0.001, 5 restarts × 3 traversals (paper §V)");
    println!("BKA:   layer A* with concurrent-SWAP expansion, node budget = {node_budget}\n");

    let header = format!(
        "{:<6} {:<15} {:>3} {:>6} | {:>9} {:>8} | {:>7} {:>7} {:>8} | {:>7} | paper: {:>7} {:>6} {:>6}",
        "type", "name", "n", "g_ori", "bka_gadd", "bka_t(s)", "g_la", "g_op", "sabre_t", "Δg%",
        "bka_gadd", "g_la", "g_op"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    for spec in registry::table2() {
        if spec.paper.g_ori > max_gates {
            continue;
        }
        if let Some(name) = &only {
            if spec.name != *name {
                continue;
            }
        }
        let circuit = spec.generate();

        // --- BKA ---
        let bka = measure_bka(&circuit, graph, bka_config);
        let (bka_gadd, bka_time) = match &bka {
            BkaMeasurement::Done { measurement, .. } => (
                format!("{}", measurement.added_gates),
                fmt_secs(measurement.elapsed),
            ),
            BkaMeasurement::OutOfMemory { elapsed, .. } => ("OOM".to_string(), fmt_secs(*elapsed)),
        };

        // --- SABRE (paper configuration) ---
        let (sabre_m, sabre_result) = measure_sabre(&circuit, graph, SabreConfig::paper());
        let g_la = sabre_result.first_traversal_added_gates;
        let g_op = sabre_m.added_gates;

        let delta = match &bka {
            BkaMeasurement::Done { measurement, .. } if measurement.added_gates > 0 => {
                let d = measurement.added_gates as f64 - g_op as f64;
                format!("{:.0}%", 100.0 * d / measurement.added_gates as f64)
            }
            BkaMeasurement::Done { .. } => "n/a".to_string(),
            BkaMeasurement::OutOfMemory { .. } => "OOM".to_string(),
        };

        println!(
            "{:<6} {:<15} {:>3} {:>6} | {:>9} {:>8} | {:>7} {:>7} {:>8} | {:>7} | paper: {:>7} {:>6} {:>6}",
            spec.category.label(),
            spec.name,
            spec.num_qubits,
            circuit.num_gates(),
            bka_gadd,
            bka_time,
            g_la,
            g_op,
            fmt_secs(sabre_m.elapsed),
            delta,
            spec.paper
                .bka_g_add
                .map_or("OOM".to_string(), |v| v.to_string()),
            spec.paper.sabre_g_la,
            spec.paper.sabre_g_op,
        );
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}
