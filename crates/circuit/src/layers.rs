//! Partitioning circuits into parallel layers.
//!
//! The Zulehner et al. baseline (the paper's BKA, §VII) and IBM's QISKit
//! mapper both begin by dividing the circuit "into independent layers. Each
//! layer only contains non-overlapped operations." This module implements
//! that preprocessing: an ASAP greedy partition where each gate joins the
//! earliest layer compatible with its wire availability.
//!
//! [`two_qubit_layers`] partitions the two-qubit skeleton, which is what BKA
//! routes layer by layer.

use crate::{Circuit, Gate};

/// One layer: indices of gates (into the source circuit) acting on
/// pairwise-disjoint wires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layer {
    gate_indices: Vec<usize>,
}

impl Layer {
    /// Indices into the source circuit's gate list.
    pub fn gate_indices(&self) -> &[usize] {
        &self.gate_indices
    }

    /// Number of gates in the layer.
    pub fn len(&self) -> usize {
        self.gate_indices.len()
    }

    /// Whether the layer is empty.
    pub fn is_empty(&self) -> bool {
        self.gate_indices.is_empty()
    }

    /// Resolves the layer to gate values.
    pub fn gates<'c>(&self, circuit: &'c Circuit) -> Vec<&'c Gate> {
        self.gate_indices
            .iter()
            .map(|&i| &circuit.gates()[i])
            .collect()
    }
}

/// Partitions only the two-qubit gates into ASAP layers, ignoring
/// single-qubit gates entirely (they do not constrain mapping). This is the
/// layer structure BKA searches over.
///
/// ```
/// use sabre_circuit::{layers::two_qubit_layers, Circuit, Qubit};
///
/// let mut c = Circuit::new(4);
/// c.cx(Qubit(0), Qubit(1));
/// c.cx(Qubit(2), Qubit(3)); // parallel with the first
/// c.h(Qubit(1)); // ignored
/// c.cx(Qubit(1), Qubit(2));
/// let layers = two_qubit_layers(&c);
/// assert_eq!(layers.len(), 2);
/// assert_eq!(layers[0].len(), 2);
/// ```
pub fn two_qubit_layers(circuit: &Circuit) -> Vec<Layer> {
    let mut wire_layer = vec![0usize; circuit.num_qubits() as usize];
    let mut layers: Vec<Layer> = Vec::new();
    for (idx, gate) in circuit.iter().enumerate() {
        let (a, Some(b)) = gate.qubits() else {
            continue;
        };
        let layer_idx = wire_layer[a.index()].max(wire_layer[b.index()]);
        if layer_idx == layers.len() {
            layers.push(Layer::default());
        }
        layers[layer_idx].gate_indices.push(idx);
        wire_layer[a.index()] = layer_idx + 1;
        wire_layer[b.index()] = layer_idx + 1;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    /// Whether the wires used inside `layer` are pairwise disjoint.
    fn wires_disjoint(circuit: &Circuit, layer: &Layer) -> bool {
        let mut used: Vec<Qubit> = Vec::with_capacity(layer.len() * 2);
        for gate in layer.gates(circuit) {
            let (a, b) = gate.qubits();
            for q in std::iter::once(a).chain(b) {
                if used.contains(&q) {
                    return false;
                }
                used.push(q);
            }
        }
        true
    }

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(Qubit(0)); // 0
        c.cx(Qubit(0), Qubit(1)); // 1
        c.cx(Qubit(2), Qubit(3)); // 2
        c.cx(Qubit(1), Qubit(2)); // 3
        c.h(Qubit(0)); // 4
        c.cx(Qubit(0), Qubit(1)); // 5
        c
    }

    #[test]
    fn two_qubit_layer_count_equals_two_qubit_depth() {
        let c = sample();
        assert_eq!(two_qubit_layers(&c).len(), c.two_qubit_depth());
    }

    #[test]
    fn every_gate_appears_exactly_once() {
        // Every two-qubit gate sits in exactly one layer, and no
        // single-qubit gate in any.
        let c = sample();
        let layers = two_qubit_layers(&c);
        let mut seen = vec![false; c.num_gates()];
        for layer in &layers {
            for &idx in layer.gate_indices() {
                assert!(!seen[idx], "gate {idx} in two layers");
                seen[idx] = true;
            }
        }
        for (idx, gate) in c.iter().enumerate() {
            assert_eq!(seen[idx], gate.is_two_qubit(), "gate {idx}");
        }
    }

    #[test]
    fn two_qubit_layers_cover_only_two_qubit_gates() {
        let c = sample();
        let layers = two_qubit_layers(&c);
        let covered: usize = layers.iter().map(Layer::len).sum();
        assert_eq!(covered, c.num_two_qubit_gates());
        for layer in &layers {
            for g in layer.gates(&c) {
                assert!(g.is_two_qubit());
            }
        }
    }

    #[test]
    fn layers_are_disjoint() {
        let c = sample();
        for layer in two_qubit_layers(&c) {
            assert!(wires_disjoint(&c, &layer));
        }
    }

    #[test]
    fn layer_order_respects_dependencies() {
        let c = sample();
        let layers = two_qubit_layers(&c);
        let mut layer_of = vec![usize::MAX; c.num_gates()];
        for (li, layer) in layers.iter().enumerate() {
            for &g in layer.gate_indices() {
                layer_of[g] = li;
            }
        }
        // gate 3 (cx q1,q2) must come after both gate 1 and gate 2.
        assert!(layer_of[3] > layer_of[1]);
        assert!(layer_of[3] > layer_of[2]);
    }

    #[test]
    fn disjointness_checker_detects_overlap() {
        // The checker `layers_are_disjoint` relies on must not pass
        // everything.
        let c = sample();
        let bad = Layer {
            gate_indices: vec![1, 3], // share qubit 1
        };
        assert!(!wires_disjoint(&c, &bad));
    }

    #[test]
    fn empty_circuit_yields_no_layers() {
        let c = Circuit::new(3);
        assert!(two_qubit_layers(&c).is_empty());
    }

    #[test]
    fn single_qubit_only_circuit_has_no_two_qubit_layers() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.h(Qubit(1));
        assert!(two_qubit_layers(&c).is_empty());
    }
}
