//! Kilo-qubit routing at flat memory: the sparse distance engine.
//!
//! Devices past [`sabre_topology::DENSE_DISTANCE_THRESHOLD`] qubits skip
//! the dense all-pairs matrices entirely — preprocessing keeps only the
//! CSR graph and a bounded LRU of Dijkstra rows. This example routes
//! a deep circuit on a 1089-qubit grid (33×33) and then preprocesses a
//! 10 000-qubit grid, printing the resident row counts so you can see
//! memory stay flat. CI runs it under a hard 256 MiB address-space
//! ceiling (`ulimit -v`); at 10⁴ qubits a dense distance matrix alone
//! would need ~800 MB.
//!
//! ```text
//! cargo run --release --example kilo_qubit
//! ```

use std::time::Instant;

use sabre::{SabreConfig, SabreRouter};
use sabre_benchgen::random;
use sabre_topology::{devices, WeightedDistanceMatrix, ROW_CACHE_CAPACITY};
use sabre_verify::verify_routed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 33×33 grid: 1089 physical qubits, auto policy → sparse engine.
    let device = devices::grid(33, 33);
    let graph = device.graph().clone();

    let start = Instant::now();
    let router = SabreRouter::new(graph.clone(), SabreConfig::fast())?;
    println!(
        "grid33x33: {} qubits, preprocessing {:?} (sparse: {})",
        graph.num_qubits(),
        start.elapsed(),
        router.cost_matrix().is_sparse(),
    );

    // A deep circuit: 4000 gates over 200 logical qubits. Depth is what
    // stresses routing; the device's spare width is what the sparse
    // engine makes affordable.
    let circuit = random::random_circuit(200, 4000, 0.9, 7);
    let start = Instant::now();
    let result = router.route(&circuit)?;
    println!(
        "routed {} gates in {:?}: {} SWAPs added",
        circuit.num_gates(),
        start.elapsed(),
        result.best.num_swaps,
    );
    verify_routed(
        &circuit,
        &result.best.physical,
        result.best.initial_layout.logical_to_physical(),
        result.best.final_layout.logical_to_physical(),
        &graph,
    )?;
    println!("verified: every two-qubit gate lands on a coupled pair");

    // 100×100 grid: 10 000 qubits. Dense preprocessing would allocate
    // 10⁸ entries per matrix; the sparse engine holds O(N + E) plus a
    // bounded row cache, so construction is instant and memory is flat.
    let huge = devices::grid(100, 100).graph().clone();
    let start = Instant::now();
    let dist = WeightedDistanceMatrix::auto(&huge, |_, _| 1.0);
    println!(
        "grid100x100: {} qubits, preprocessing {:?} (sparse: {})",
        huge.num_qubits(),
        start.elapsed(),
        dist.is_sparse(),
    );
    // Touch more rows than the cache holds: residency stays at the cap.
    for q in (0..huge.num_qubits()).step_by(7) {
        let _ = dist.row(sabre_topology::Qubit(q));
    }
    println!(
        "after {} row loads: {} rows resident (cap {})",
        huge.num_qubits() / 7 + 1,
        dist.cached_rows(),
        ROW_CACHE_CAPACITY,
    );
    Ok(())
}
