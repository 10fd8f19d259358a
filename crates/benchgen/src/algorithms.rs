//! Additional NISQ algorithm workloads beyond the Table II suite.
//!
//! The paper motivates mapping with the NISQ application classes of its
//! introduction — search, optimization, simulation. This module provides
//! the optimization representative, QAOA MaxCut ansätze, for examples and
//! tests that want an interaction shape other than QFT/Ising/arithmetic:
//! an arbitrary graph of tunable density.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sabre_circuit::{Circuit, Qubit};

/// A QAOA MaxCut ansatz over a random Erdős–Rényi graph: `layers`
/// repetitions of (per-edge `CX·RZ·CX` cost unitaries + per-qubit `RX`
/// mixers). Interaction graph is the problem graph — tunable density makes
/// this the knob for stress-testing routers between Ising (sparse) and
/// QFT (complete).
///
/// # Panics
///
/// Panics if `n < 2`, `layers == 0`, or `edge_probability` is outside
/// `[0, 1]`.
pub fn qaoa_maxcut(n: u32, edge_probability: f64, layers: u32, seed: u64) -> Circuit {
    assert!(n >= 2, "need at least two qubits");
    assert!(layers > 0, "need at least one layer");
    assert!(
        (0.0..=1.0).contains(&edge_probability),
        "probability out of range"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(edge_probability) {
                edges.push((i, j));
            }
        }
    }
    // Guarantee at least one edge so the workload routes something.
    if edges.is_empty() {
        edges.push((0, 1));
    }

    let mut c = Circuit::with_name(n, format!("qaoa_{n}"));
    for i in 0..n {
        c.h(Qubit(i));
    }
    for layer in 0..layers {
        let gamma = 0.4 + 0.05 * f64::from(layer);
        let beta = 0.3 - 0.02 * f64::from(layer);
        for &(i, j) in &edges {
            c.cx(Qubit(i), Qubit(j));
            c.rz(Qubit(j), gamma);
            c.cx(Qubit(i), Qubit(j));
        }
        for i in 0..n {
            c.rx(Qubit(i), beta);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::interaction::InteractionGraph;

    #[test]
    fn qaoa_density_scales_interactions() {
        let sparse = qaoa_maxcut(10, 0.15, 1, 3);
        let dense = qaoa_maxcut(10, 0.9, 1, 3);
        let sparse_edges = InteractionGraph::of(&sparse).num_edges();
        let dense_edges = InteractionGraph::of(&dense).num_edges();
        assert!(sparse_edges < dense_edges);
        assert!(dense_edges > 30);
    }

    #[test]
    fn qaoa_layer_count_scales_gates() {
        let one = qaoa_maxcut(8, 0.5, 1, 9);
        let three = qaoa_maxcut(8, 0.5, 3, 9);
        assert!(three.num_gates() > 2 * one.num_gates());
    }

    #[test]
    fn qaoa_deterministic_per_seed() {
        assert_eq!(qaoa_maxcut(8, 0.4, 2, 5), qaoa_maxcut(8, 0.4, 2, 5));
        assert_ne!(qaoa_maxcut(8, 0.4, 2, 5), qaoa_maxcut(8, 0.4, 2, 6));
    }

    #[test]
    fn qaoa_never_empty() {
        let c = qaoa_maxcut(5, 0.0, 1, 0);
        assert!(c.num_two_qubit_gates() >= 2, "fallback edge present");
    }
}
