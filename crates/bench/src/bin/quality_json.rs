//! **The plan-quality gate.** Routes [`sabre_bench::corpus`] — eight
//! pinned synthetic and QASM scenarios, the paper's Table II (26 rows on
//! Tokyo) and its Figure 8 decay sweep (9 circuits × 7 values of δ) —
//! verifies every routing, prints one row per scenario to stderr, and
//! checks the figures against the committed `BENCH_quality.json` through
//! [`sabre_bench::quality_gate::check`]. Any failure exits with status 1.
//!
//! The stderr table reproduces Table II: `g_la`/`g_op` measured next to
//! the paper's SABRE `g_la`/`g_op` and BKA `g_add`. Figure 8's trade-off
//! is the `g_op`/`d_out` pair across one circuit's δ rows.
//!
//! `--write-baseline` rewrites `BENCH_quality.json` from this run instead
//! of checking it, after a deliberate heuristic change.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sabre_bench --bin quality_json [-- --write-baseline]
//! ```

use sabre_bench::quality_gate::{check, render_baseline, BASELINE_SCHEMA};
use sabre_bench::{corpus, Case, Scenario};
use sabre_json::JsonValue;

/// The committed baseline at the workspace root, anchored to the crate
/// so the gate works from any working directory.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quality.json");

fn print_table(scenarios: &[Scenario]) {
    let header = format!(
        "{:<36} {:>3} {:>6} {:>6} {:>6} {:>6} {:>9} | {:>6} | paper: {:>6} {:>6} {:>6}",
        "scenario", "n", "g_ori", "g_op", "d_in", "d_out", "-log_p", "g_la", "g_la", "g_op", "bka"
    );
    eprintln!("{header}\n{}", "-".repeat(header.chars().count()));
    for s in scenarios {
        let q = &s.quality;
        let table2 = s.table2.map_or(String::new(), |row| {
            let bka = row
                .paper
                .bka_g_add
                .map_or("OOM".to_string(), |g| g.to_string());
            format!(
                " | {:>6} | paper: {:>6} {:>6} {bka:>6}",
                row.g_la, row.paper.sabre_g_la, row.paper.sabre_g_op
            )
        });
        eprintln!(
            "{:<36} {:>3} {:>6} {:>6} {:>6} {:>6} {:>9.3}{table2}",
            s.name,
            s.num_qubits,
            s.num_gates,
            q.added_gates,
            q.input_depth,
            q.output_depth,
            -q.log_success_probability.unwrap_or(0.0),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = match args.as_slice() {
        [] => false,
        [flag] if flag == "--write-baseline" => true,
        _ => {
            eprintln!("usage: quality_json [--write-baseline]");
            std::process::exit(2);
        }
    };

    let scenarios: Vec<Scenario> = corpus().iter().map(Case::run).collect();
    print_table(&scenarios);
    let measured = render_baseline(&scenarios);

    if write_baseline {
        std::fs::write(BASELINE, measured.to_pretty()).expect("writing the baseline file");
        println!("wrote {BASELINE} (schema {BASELINE_SCHEMA})");
        return;
    }
    let text = std::fs::read_to_string(BASELINE)
        .unwrap_or_else(|e| panic!("cannot read baseline {BASELINE}: {e}"));
    let baseline =
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("{BASELINE} is not valid JSON: {e}"));
    let failures = check(&baseline, &measured).unwrap_or_else(|e| panic!("{BASELINE}: {e}"));
    if failures.is_empty() {
        println!(
            "quality gate passed: {} scenarios within tolerance of {BASELINE}",
            scenarios.len()
        );
        return;
    }
    for failure in &failures {
        eprintln!("QUALITY REGRESSION: {failure}");
    }
    std::process::exit(1);
}
