//! Directed coupling models.
//!
//! The paper targets IBM Q20 Tokyo, where "CNOT gate can already be
//! applied on either direction between any connected qubit pair" (§III-A),
//! but notes that earlier chips (QX2/QX3/QX5) allowed CNOT in **one
//! direction only**, which prior work handled with 'Reverse' transforms.
//! This module models that constraint so the post-pass in
//! `sabre::direction` can retarget routed circuits onto such hardware.

use std::collections::HashMap;

use sabre_circuit::Qubit;

use crate::CouplingGraph;

/// Which CX orientations a coupling supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDirection {
    /// Control and target may be either endpoint (modern symmetric chips).
    Both,
    /// Only `control → target` as stored is native; the reverse needs a
    /// Hadamard sandwich.
    OneWay {
        /// The only allowed control qubit of this coupling.
        control: Qubit,
    },
}

/// Per-coupling CX orientation constraints for a device.
#[derive(Clone, Debug, PartialEq)]
pub struct DirectionModel {
    directions: HashMap<(Qubit, Qubit), EdgeDirection>,
}

impl DirectionModel {
    /// Every coupling allows both orientations — the paper's Tokyo model.
    pub fn symmetric(graph: &CouplingGraph) -> Self {
        DirectionModel {
            directions: graph
                .edges()
                .iter()
                .map(|&e| (e, EdgeDirection::Both))
                .collect(),
        }
    }

    /// Builds a one-way model from an explicit `(control, target)` list —
    /// the format IBM published for its directed chips. Couplings of the
    /// graph not mentioned in `allowed` default to [`EdgeDirection::Both`];
    /// every listed pair must be a coupling.
    ///
    /// # Panics
    ///
    /// Panics if a listed pair is not an edge of `graph`.
    pub fn one_way(graph: &CouplingGraph, allowed: &[(u32, u32)]) -> Self {
        let mut model = DirectionModel::symmetric(graph);
        for &(c, t) in allowed {
            let (control, target) = (Qubit(c), Qubit(t));
            assert!(
                graph.are_coupled(control, target),
                "({control}, {target}) is not a coupling of this device"
            );
            let key = canonical(control, target);
            model
                .directions
                .insert(key, EdgeDirection::OneWay { control });
        }
        model
    }

    /// Whether a native CX with this control and target is allowed.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not coupled at all.
    pub fn allows_cx(&self, control: Qubit, target: Qubit) -> bool {
        match self.directions.get(&canonical(control, target)) {
            Some(EdgeDirection::Both) => true,
            Some(EdgeDirection::OneWay { control: c }) => *c == control,
            None => panic!("({control}, {target}) is not a coupling of this device"),
        }
    }

    /// The orientation constraint of a coupling.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not coupled.
    pub fn direction(&self, a: Qubit, b: Qubit) -> EdgeDirection {
        *self
            .directions
            .get(&canonical(a, b))
            .unwrap_or_else(|| panic!("({a}, {b}) is not a coupling of this device"))
    }
}

fn canonical(a: Qubit, b: Qubit) -> (Qubit, Qubit) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The directed CX orientations of the historical IBM QX5 chip (each pair
/// is `(control, target)`), applied to [`crate::devices::ibm_qx5`].
pub fn ibm_qx5_directions() -> Vec<(u32, u32)> {
    vec![
        (1, 0),
        (1, 2),
        (2, 3),
        (3, 4),
        (3, 14),
        (5, 4),
        (6, 5),
        (6, 7),
        (6, 11),
        (7, 10),
        (8, 7),
        (9, 8),
        (9, 10),
        (11, 10),
        (12, 5),
        (12, 11),
        (12, 13),
        (13, 4),
        (13, 14),
        (15, 0),
        (15, 2),
        (15, 14),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    /// Number of one-way couplings in `model`.
    fn one_way_count(model: &DirectionModel) -> usize {
        model
            .directions
            .values()
            .filter(|d| matches!(d, EdgeDirection::OneWay { .. }))
            .count()
    }

    #[test]
    fn symmetric_model_allows_everything() {
        let device = devices::ibm_q20_tokyo();
        let model = DirectionModel::symmetric(device.graph());
        for &(a, b) in device.graph().edges() {
            assert!(model.allows_cx(a, b));
            assert!(model.allows_cx(b, a));
        }
        assert_eq!(one_way_count(&model), 0);
    }

    #[test]
    fn one_way_model_blocks_reverse() {
        let device = devices::linear(3);
        let model = DirectionModel::one_way(device.graph(), &[(0, 1)]);
        assert!(model.allows_cx(Qubit(0), Qubit(1)));
        assert!(!model.allows_cx(Qubit(1), Qubit(0)));
        // Unlisted coupling stays symmetric.
        assert!(model.allows_cx(Qubit(1), Qubit(2)));
        assert!(model.allows_cx(Qubit(2), Qubit(1)));
        assert_eq!(one_way_count(&model), 1);
    }

    #[test]
    fn qx5_directions_cover_every_edge() {
        let device = devices::ibm_qx5();
        let model = DirectionModel::one_way(device.graph(), &ibm_qx5_directions());
        assert_eq!(one_way_count(&model), device.graph().num_edges());
        // Spot checks against the published list.
        assert!(model.allows_cx(Qubit(1), Qubit(0)));
        assert!(!model.allows_cx(Qubit(0), Qubit(1)));
        assert!(model.allows_cx(Qubit(15), Qubit(14)));
        assert!(!model.allows_cx(Qubit(14), Qubit(15)));
    }

    #[test]
    #[should_panic(expected = "not a coupling")]
    fn uncoupled_pair_query_panics() {
        let device = devices::linear(3);
        let model = DirectionModel::symmetric(device.graph());
        let _ = model.allows_cx(Qubit(0), Qubit(2));
    }

    #[test]
    #[should_panic(expected = "not a coupling")]
    fn one_way_rejects_non_edges() {
        let device = devices::linear(3);
        let _ = DirectionModel::one_way(device.graph(), &[(0, 2)]);
    }

    #[test]
    fn direction_accessor() {
        let device = devices::linear(2);
        let model = DirectionModel::one_way(device.graph(), &[(1, 0)]);
        assert_eq!(
            model.direction(Qubit(0), Qubit(1)),
            EdgeDirection::OneWay { control: Qubit(1) }
        );
    }
}
