//! Trotterized transverse-field Ising model circuits.
//!
//! "The ising model in quantum mechanics only considers nearby coupling
//! energy" (paper §V-A1): the Hamiltonian couples only adjacent qubits of a
//! 1-D chain, so the circuit's interaction graph is a path. A path embeds
//! into any device with a Hamiltonian path — IBM Q20 Tokyo has many — so
//! the optimal routing inserts **zero** SWAPs, which is exactly what the
//! paper reports for SABRE (`g_op = 0`) and what makes these benchmarks a
//! sharp test of initial-mapping quality.

use sabre_circuit::{Circuit, Qubit};

/// One first-order Trotter step: `RZZ` on every chain edge (decomposed as
/// `CX·RZ·CX`, staying inside the elementary gate set) followed by an `RX`
/// on every qubit.
///
/// Per step: `3·(n-1) + n` gates, `2·(n-1)` of them CNOTs.
fn push_trotter_step(c: &mut Circuit, n: u32, zz_angle: f64, x_angle: f64) {
    for i in 0..n - 1 {
        let (a, b) = (Qubit(i), Qubit(i + 1));
        c.cx(a, b);
        c.rz(b, zz_angle);
        c.cx(a, b);
    }
    for i in 0..n {
        c.rx(Qubit(i), x_angle);
    }
}

/// A trotterized 1-D transverse-field Ising evolution over `n` qubits and
/// `steps` Trotter steps, in the elementary gate set.
///
/// Gate count: `steps · (4n - 3)`. With `steps = 13` this lands within a
/// few gates of the paper's `ising_model_{10,13,16}` sizes (481 vs 480,
/// 637 vs 633, 793 vs 786).
///
/// # Panics
///
/// Panics if `n < 2` or `steps == 0`.
pub fn ising_chain(n: u32, steps: u32) -> Circuit {
    assert!(n >= 2, "the chain needs at least two qubits");
    assert!(steps > 0, "at least one Trotter step required");
    let mut c = Circuit::with_name(n, format!("ising_model_{n}"));
    let dt = 0.1;
    for step in 0..steps {
        // Slightly varying angles keep the circuit non-degenerate without
        // changing its interaction structure.
        let zz = dt * (1.0 + 0.01 * f64::from(step));
        let x = dt * 0.5;
        push_trotter_step(&mut c, n, zz, x);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::interaction::InteractionGraph;

    #[test]
    fn gate_count_formula() {
        for (n, steps) in [(5u32, 3u32), (10, 13), (16, 13)] {
            let c = ising_chain(n, steps);
            assert_eq!(c.num_gates(), (steps * (4 * n - 3)) as usize);
            assert_eq!(c.num_two_qubit_gates(), (steps * 2 * (n - 1)) as usize);
        }
    }

    #[test]
    fn thirteen_steps_approximate_paper_sizes() {
        assert_eq!(ising_chain(10, 13).num_gates(), 481); // paper: 480
        assert_eq!(ising_chain(13, 13).num_gates(), 637); // paper: 633
        assert_eq!(ising_chain(16, 13).num_gates(), 793); // paper: 786
    }

    #[test]
    fn interaction_graph_is_a_path() {
        let c = ising_chain(8, 2);
        let ig = InteractionGraph::of(&c);
        assert_eq!(ig.num_edges(), 7);
        for ((a, b), _) in ig.iter() {
            assert_eq!(b.0 - a.0, 1, "only nearest-neighbor couplings");
        }
        assert_eq!(ig.max_degree(), 2);
    }

    #[test]
    fn deterministic_output() {
        assert_eq!(ising_chain(6, 4), ising_chain(6, 4));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_qubit_chain() {
        let _ = ising_chain(1, 1);
    }
}
