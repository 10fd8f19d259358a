//! Quantum Fourier Transform generators.
//!
//! The QFT on `n` qubits applies, for each target `i` from high to low, a
//! Hadamard followed by controlled-phase rotations `CP(π/2^k)` from every
//! lower qubit. Its two-qubit interaction graph is complete, which makes it
//! the canonical routing stress test — the paper's `qft_10/13/16/20` rows.

use std::f64::consts::PI;

use sabre_circuit::{Circuit, Qubit};

/// Approximate QFT with `CP` gates: rotations between qubits farther than
/// `max_distance` apart are dropped (their angles are exponentially small).
///
/// # Panics
///
/// Panics if `n == 0` or `max_distance == 0`.
pub fn qft_approximate_cp(n: u32, max_distance: u32) -> Circuit {
    assert!(n > 0, "qft needs at least one qubit");
    assert!(max_distance > 0, "approximation degree must be positive");
    let mut c = Circuit::with_name(n, format!("qft_{n}"));
    for i in (0..n).rev() {
        c.h(Qubit(i));
        for j in (0..i).rev() {
            let distance = i - j;
            if distance > max_distance {
                continue;
            }
            let lambda = PI / f64::from(1u32 << distance);
            c.cp(Qubit(j), Qubit(i), lambda);
        }
    }
    c
}

/// Full QFT decomposed into the paper's elementary gate set (single-qubit
/// gates + CNOT, §II-A): each `CP(λ)` becomes
/// `P(λ/2)ₐ · CX(a,b) · P(−λ/2)_b · CX(a,b) · P(λ/2)_b` — 2 CNOTs and 3
/// phase gates. Total gates: `n + 5·n(n-1)/2`; e.g. exactly the 403 gates
/// Table II lists for `qft_13` and 970 for `qft_20`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn qft(n: u32) -> Circuit {
    qft_approximate(n, n.saturating_sub(1).max(1))
}

/// Approximate QFT in the elementary gate set (see [`qft`]).
///
/// # Panics
///
/// Panics if `n == 0` or `max_distance == 0`.
pub fn qft_approximate(n: u32, max_distance: u32) -> Circuit {
    assert!(n > 0, "qft needs at least one qubit");
    assert!(max_distance > 0, "approximation degree must be positive");
    let mut c = Circuit::with_name(n, format!("qft_{n}"));
    for i in (0..n).rev() {
        c.h(Qubit(i));
        for j in (0..i).rev() {
            let distance = i - j;
            if distance > max_distance {
                continue;
            }
            let lambda = PI / f64::from(1u32 << distance);
            push_decomposed_cp(&mut c, Qubit(j), Qubit(i), lambda);
        }
    }
    c
}

/// Emits `CP(λ)` on `(a, b)` as 2 CNOTs + 3 phase gates.
fn push_decomposed_cp(c: &mut Circuit, a: Qubit, b: Qubit, lambda: f64) {
    use sabre_circuit::{Gate, OneQubitKind, Params};
    c.push(Gate::one(OneQubitKind::P, a, Params::one(lambda / 2.0)));
    c.cx(a, b);
    c.push(Gate::one(OneQubitKind::P, b, Params::one(-lambda / 2.0)));
    c.cx(a, b);
    c.push(Gate::one(OneQubitKind::P, b, Params::one(lambda / 2.0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::interaction::InteractionGraph;

    /// The full QFT with every `CP` kept, written out directly: the
    /// reference the approximate generator must reproduce with no cutoff.
    fn reference_qft(n: u32) -> Circuit {
        let mut c = Circuit::with_name(n, format!("qft_{n}"));
        for i in (0..n).rev() {
            c.h(Qubit(i));
            for j in (0..i).rev() {
                c.cp(Qubit(j), Qubit(i), PI / f64::from(1u32 << (i - j)));
            }
        }
        c
    }

    #[test]
    fn qft_cp_gate_count() {
        for n in [2u32, 5, 10] {
            let c = qft_approximate_cp(n, n - 1);
            let pairs = (n * (n - 1) / 2) as usize;
            assert_eq!(c.num_two_qubit_gates(), pairs);
            assert_eq!(c.num_one_qubit_gates(), n as usize);
        }
    }

    #[test]
    fn decomposed_qft_matches_paper_totals() {
        // Table II: qft_13 has 403 gates, qft_20 has 970.
        assert_eq!(qft(13).num_gates(), 403);
        assert_eq!(qft(20).num_gates(), 970);
    }

    #[test]
    fn decomposed_qft_two_qubit_count() {
        let c = qft(10);
        assert_eq!(c.num_two_qubit_gates(), 2 * 45);
        assert_eq!(c.num_gates(), 10 + 5 * 45);
    }

    #[test]
    fn interaction_graph_is_complete() {
        let c = qft(6);
        let ig = InteractionGraph::of(&c);
        assert_eq!(ig.num_edges(), 15, "QFT couples every qubit pair");
    }

    #[test]
    fn approximate_qft_drops_long_range_rotations() {
        let full = reference_qft(8);
        let approx = qft_approximate_cp(8, 3);
        assert!(approx.num_two_qubit_gates() < full.num_two_qubit_gates());
        let ig = InteractionGraph::of(&approx);
        for ((a, b), _) in ig.iter() {
            assert!(b.0 - a.0 <= 3, "rotation beyond cutoff survived");
        }
    }

    #[test]
    fn approximate_with_full_distance_equals_full() {
        assert_eq!(qft_approximate(7, 6), qft(7));
        assert_eq!(qft_approximate_cp(7, 6), reference_qft(7));
    }

    #[test]
    fn cp_and_decomposed_have_same_interaction_multigraph() {
        let a = InteractionGraph::of(&reference_qft(7));
        let b = InteractionGraph::of(&qft(7));
        assert_eq!(a.num_edges(), b.num_edges());
        for ((qa, qb), w) in a.iter() {
            assert_eq!(b.weight(qa, qb), 2 * w, "each CP becomes 2 CX");
        }
    }

    #[test]
    fn angles_halve_with_distance() {
        let c = qft_approximate_cp(4, 3);
        // First CP written is for target 3, control 2 → distance 1 → π/2.
        let first_cp = c
            .iter()
            .find(|g| g.is_two_qubit())
            .expect("qft has cp gates");
        assert!((first_cp.params().as_slice()[0] - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_qubit_qft_is_one_hadamard() {
        let c = qft(1);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn named_after_size() {
        assert_eq!(qft(9).name(), "qft_9");
    }
}
