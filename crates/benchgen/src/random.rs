//! Random circuit generators for property tests, benchmarks and the
//! "small" Table II category.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sabre_circuit::{Circuit, Gate, OneQubitKind, Params, Qubit};
use sabre_topology::CouplingGraph;

/// Generates a uniform random circuit: each gate is a CNOT on a uniform
/// distinct pair with probability `two_qubit_fraction`, otherwise a uniform
/// single-qubit gate with random angles. Deterministic per seed.
///
/// # Panics
///
/// Panics if `num_qubits < 2` (no CNOT possible) or the fraction is outside
/// `[0, 1]`.
pub fn random_circuit(
    num_qubits: u32,
    num_gates: usize,
    two_qubit_fraction: f64,
    seed: u64,
) -> Circuit {
    assert!(num_qubits >= 2, "need at least two qubits");
    assert!(
        (0.0..=1.0).contains(&two_qubit_fraction),
        "fraction must lie in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(num_qubits, format!("random_{num_qubits}"));
    for _ in 0..num_gates {
        if rng.gen_bool(two_qubit_fraction) {
            let a = rng.gen_range(0..num_qubits);
            let mut b = rng.gen_range(0..num_qubits);
            while b == a {
                b = rng.gen_range(0..num_qubits);
            }
            c.cx(Qubit(a), Qubit(b));
        } else {
            {
                let q = Qubit(rng.gen_range(0..num_qubits));
                push_random_one_qubit(&mut c, &mut rng, q);
            }
        }
    }
    c
}

/// Generates a circuit whose interaction graph **embeds into `device` by
/// construction** — the defining property of the paper's "small" benchmarks
/// (§V-A1: "there often exists a physical qubit coupling subgraph that can
/// perfectly or almost match logical qubit coupling").
///
/// The generator grows a random connected `num_qubits`-node subgraph of the
/// device, relabels it with random logical indices (so routers cannot
/// cheat by reading off the identity mapping), and emits gates only along
/// the subgraph's edges. A zero-SWAP routing therefore always exists,
/// giving tests and benchmarks a known optimum to compare against.
///
/// # Panics
///
/// Panics if `num_qubits` exceeds the device size, the device is
/// disconnected, or `num_qubits < 2`.
pub fn embeddable_circuit(
    device: &CouplingGraph,
    num_qubits: u32,
    num_gates: usize,
    two_qubit_fraction: f64,
    seed: u64,
) -> Circuit {
    assert!(num_qubits >= 2, "need at least two qubits");
    assert!(
        num_qubits <= device.num_qubits(),
        "more logical qubits than the device offers"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // Randomized BFS growth of a connected subgraph.
    let start = Qubit(rng.gen_range(0..device.num_qubits()));
    let mut chosen: Vec<Qubit> = vec![start];
    let mut frontier: Vec<Qubit> = device.neighbors(start).to_vec();
    while (chosen.len() as u32) < num_qubits {
        assert!(
            !frontier.is_empty(),
            "device has no connected subgraph of the requested size"
        );
        let pick = frontier.remove(rng.gen_range(0..frontier.len()));
        if chosen.contains(&pick) {
            continue;
        }
        chosen.push(pick);
        for &n in device.neighbors(pick) {
            if !chosen.contains(&n) && !frontier.contains(&n) {
                frontier.push(n);
            }
        }
    }

    // Random logical relabeling of the chosen physical qubits.
    let mut logical_of_position: Vec<u32> = (0..num_qubits).collect();
    shuffle(&mut logical_of_position, &mut rng);
    let logical_of_phys = |p: Qubit| -> Option<Qubit> {
        chosen
            .iter()
            .position(|&c| c == p)
            .map(|pos| Qubit(logical_of_position[pos]))
    };

    // Edges of the induced subgraph, in logical labels.
    let mut logical_edges: Vec<(Qubit, Qubit)> = Vec::new();
    for &(a, b) in device.edges() {
        if let (Some(la), Some(lb)) = (logical_of_phys(a), logical_of_phys(b)) {
            logical_edges.push((la, lb));
        }
    }
    assert!(!logical_edges.is_empty(), "subgraph has no edges");

    let mut c = Circuit::with_name(num_qubits, format!("embeddable_{num_qubits}"));
    for _ in 0..num_gates {
        if rng.gen_bool(two_qubit_fraction) {
            let (a, b) = logical_edges[rng.gen_range(0..logical_edges.len())];
            if rng.gen_bool(0.5) {
                c.cx(a, b);
            } else {
                c.cx(b, a);
            }
        } else {
            {
                let q = Qubit(rng.gen_range(0..num_qubits));
                push_random_one_qubit(&mut c, &mut rng, q);
            }
        }
    }
    c
}

/// Generates a random circuit restricted to an explicit edge list (useful
/// for crafting circuits with a prescribed interaction graph).
///
/// # Panics
///
/// Panics if `edges` is empty or references wires outside the register.
pub fn random_circuit_on_edges(
    num_qubits: u32,
    edges: &[(u32, u32)],
    num_gates: usize,
    two_qubit_fraction: f64,
    seed: u64,
) -> Circuit {
    assert!(!edges.is_empty(), "need at least one edge");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(num_qubits, "random_on_edges");
    for _ in 0..num_gates {
        if rng.gen_bool(two_qubit_fraction) {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            c.cx(Qubit(a), Qubit(b));
        } else {
            {
                let q = Qubit(rng.gen_range(0..num_qubits));
                push_random_one_qubit(&mut c, &mut rng, q);
            }
        }
    }
    c
}

fn push_random_one_qubit(c: &mut Circuit, rng: &mut StdRng, q: Qubit) {
    use OneQubitKind as O;
    const KINDS: [O; 8] = [O::H, O::X, O::Z, O::S, O::T, O::Tdg, O::Rz, O::Rx];
    let kind = KINDS[rng.gen_range(0..KINDS.len())];
    let params = match kind.num_params() {
        0 => Params::EMPTY,
        1 => Params::one(rng.gen_range(-3.2..3.2)),
        _ => unreachable!("no 3-parameter kinds in KINDS"),
    };
    c.push(Gate::one(kind, q, params));
}

/// Fisher–Yates shuffle (kept local to avoid the `rand` `SliceRandom`
/// feature surface).
fn shuffle<T>(slice: &mut [T], rng: &mut StdRng) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(0..=i);
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::interaction::InteractionGraph;
    use sabre_topology::{devices, embedding};

    #[test]
    fn random_circuit_respects_gate_count_and_seed() {
        let a = random_circuit(6, 100, 0.5, 1);
        let b = random_circuit(6, 100, 0.5, 1);
        let c = random_circuit(6, 100, 0.5, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_gates(), 100);
    }

    #[test]
    fn two_qubit_fraction_extremes() {
        let all2q = random_circuit(4, 50, 1.0, 3);
        assert_eq!(all2q.num_two_qubit_gates(), 50);
        let no2q = random_circuit(4, 50, 0.0, 3);
        assert_eq!(no2q.num_two_qubit_gates(), 0);
    }

    #[test]
    fn embeddable_circuit_actually_embeds() {
        let tokyo = devices::ibm_q20_tokyo();
        for seed in 0..10 {
            let c = embeddable_circuit(tokyo.graph(), 5, 40, 0.6, seed);
            let ig = InteractionGraph::of(&c);
            assert!(
                embedding::is_embeddable(&ig, tokyo.graph()),
                "seed {seed} produced a non-embeddable circuit"
            );
        }
    }

    #[test]
    fn embeddable_circuit_is_not_trivially_identity_labeled() {
        // Over several seeds, at least one circuit must use a logical pair
        // that is NOT coupled under the identity layout — otherwise the
        // relabeling is broken and routers could skip placement.
        let tokyo = devices::ibm_q20_tokyo();
        let mut found_nontrivial = false;
        for seed in 0..20 {
            let c = embeddable_circuit(tokyo.graph(), 6, 60, 0.7, seed);
            let ig = InteractionGraph::of(&c);
            for ((a, b), _) in ig.iter() {
                if !tokyo.graph().are_coupled(a, b) {
                    found_nontrivial = true;
                }
            }
        }
        assert!(found_nontrivial);
    }

    #[test]
    fn embeddable_circuit_deterministic() {
        let tokyo = devices::ibm_q20_tokyo();
        assert_eq!(
            embeddable_circuit(tokyo.graph(), 5, 30, 0.5, 9),
            embeddable_circuit(tokyo.graph(), 5, 30, 0.5, 9)
        );
    }

    #[test]
    #[should_panic(expected = "more logical qubits")]
    fn embeddable_rejects_oversized_request() {
        let qx2 = devices::ibm_qx2();
        let _ = embeddable_circuit(qx2.graph(), 6, 10, 0.5, 0);
    }

    #[test]
    fn on_edges_uses_only_listed_pairs() {
        let c = random_circuit_on_edges(5, &[(0, 1), (3, 4)], 60, 1.0, 4);
        let ig = InteractionGraph::of(&c);
        assert_eq!(ig.num_edges(), 2);
        assert!(ig.weight(Qubit(0), Qubit(1)) > 0);
        assert!(ig.weight(Qubit(3), Qubit(4)) > 0);
    }
}
