//! Ablation study over SABRE's design decisions (extension beyond the
//! paper's tables).
//!
//! Columns isolate each §IV-C/§IV-D mechanism:
//!
//! - `basic`      — Equation 1 only (no look-ahead, no decay), 1 traversal;
//! - `+lookahead` — Equation 2 without decay, 1 traversal (`g_la` regime);
//! - `+decay`     — full heuristic, 1 traversal;
//! - `+reverse`   — full heuristic, 3 traversals (the paper's pipeline);
//! - `+restarts`  — full pipeline, 5 restarts (the Table II configuration).
//!
//! Also sweeps the extended-set size `|E|` and weight `W` on one QFT
//! benchmark to justify the paper's choices (|E| = 20, W = 0.5).
//!
//! Usage:
//!
//! ```text
//! cargo run -p sabre-bench --release --bin ablation [-- --quick]
//! ```

use sabre::{HeuristicKind, SabreConfig};
use sabre_bench::measure_sabre;
use sabre_benchgen::registry;
use sabre_topology::devices;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let device = devices::ibm_q20_tokyo();
    let graph = device.graph();

    let names: Vec<&str> = if quick {
        vec!["qft_10", "rd84_142"]
    } else {
        vec![
            "qft_10", "qft_13", "qft_16", "rd84_142", "radd_250", "z4_268", "sym6_145",
        ]
    };

    let single = |heuristic, restarts: usize, traversals: usize| SabreConfig {
        heuristic,
        num_restarts: restarts,
        num_traversals: traversals,
        ..SabreConfig::paper()
    };
    let variants: [(&str, SabreConfig); 5] = [
        ("basic", single(HeuristicKind::Basic, 1, 1)),
        ("+lookahead", single(HeuristicKind::LookAhead, 1, 1)),
        ("+decay", single(HeuristicKind::Decay, 1, 1)),
        ("+reverse", single(HeuristicKind::Decay, 1, 3)),
        ("+restarts", single(HeuristicKind::Decay, 5, 3)),
    ];

    println!("Ablation: added gates per mechanism (IBM Q20 Tokyo)\n");
    print!("{:<14}", "benchmark");
    for (label, _) in &variants {
        print!(" {label:>11}");
    }
    println!();
    println!("{}", "-".repeat(14 + variants.len() * 12));
    for name in &names {
        let spec = registry::by_name(name).expect("registry name");
        let circuit = spec.generate();
        print!("{:<14}", spec.name);
        for (_, config) in &variants {
            let (m, _) = measure_sabre(&circuit, graph, *config);
            print!(" {:>11}", m.added_gates);
        }
        println!();
    }

    // |E| and W sweeps on qft_13.
    let spec = registry::by_name("qft_13").expect("registry name");
    let circuit = spec.generate();
    println!("\nExtended-set size sweep on qft_13 (W = 0.5):");
    for size in [0usize, 5, 10, 20, 40, 80] {
        let config = SabreConfig {
            extended_set_size: size,
            ..SabreConfig::paper()
        };
        let (m, _) = measure_sabre(&circuit, graph, config);
        println!("  |E| = {size:>3}: added gates = {}", m.added_gates);
    }
    println!("\nExtended-set weight sweep on qft_13 (|E| = 20):");
    for weight in [0.0, 0.25, 0.5, 0.75, 0.99] {
        let config = SabreConfig {
            extended_set_weight: weight,
            ..SabreConfig::paper()
        };
        let (m, _) = measure_sabre(&circuit, graph, config);
        println!("  W = {weight:>4}: added gates = {}", m.added_gates);
    }
}
