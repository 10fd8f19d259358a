use sabre_circuit::{Circuit, DependencyDag, ExecutionFrontier, Gate, Qubit};
use sabre_topology::CouplingGraph;

use crate::{check_compliance, VerifyError};

/// Successful replay statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerificationReport {
    /// Original gates matched during replay (equals the original gate
    /// count on success).
    pub gates_replayed: usize,
    /// Inserted SWAPs encountered.
    pub swaps_replayed: usize,
    /// `executed_at[i]` is the position in the routed circuit of the gate
    /// that executed original gate `i`; inserted SWAPs occupy the
    /// remaining positions.
    pub executed_at: Vec<usize>,
}

/// Verifies that `routed` faithfully implements `original` given the
/// claimed initial and final mappings (`logical → physical`, padded to the
/// device size with virtual qubits).
///
/// The replay walks the routed circuit in order, tracking the layout.
/// Every gate is pulled back to logical wires through the current layout
/// and matched against the *ready* gates of the original circuit's
/// dependency DAG; a SWAP that matches none is an inserted SWAP and
/// updates the layout instead (an original `swap` matches first and
/// leaves it unchanged). Any other unmatched gate is an error. On
/// completion every original gate must have been matched and the tracked
/// layout must equal `final_map`. Compliance with the coupling graph is
/// checked along the way.
///
/// This catches dropped, duplicated, reordered and mis-mapped gates at any
/// circuit size, in linear time.
///
/// # Errors
///
/// The first violated property is reported as a [`VerifyError`].
pub fn verify_routed(
    original: &Circuit,
    routed: &Circuit,
    initial_map: &[Qubit],
    final_map: &[Qubit],
    graph: &CouplingGraph,
) -> Result<VerificationReport, VerifyError> {
    check_compliance(routed, graph)?;
    let n_phys = graph.num_qubits() as usize;
    if original.num_qubits() > graph.num_qubits() {
        return Err(VerifyError::RegisterMismatch {
            circuit_qubits: original.num_qubits(),
            device_qubits: graph.num_qubits(),
        });
    }
    let mut phys_to_log =
        invert(initial_map, n_phys).ok_or(VerifyError::InvalidMapping { which: "initial" })?;
    let final_phys_to_log =
        invert(final_map, n_phys).ok_or(VerifyError::InvalidMapping { which: "final" })?;

    let mut replay = DagReplay::new(original);
    let mut executed_at = vec![usize::MAX; original.num_gates()];
    let mut swaps_replayed = 0usize;

    for (routed_index, gate) in routed.iter().enumerate() {
        // Pull the gate back to logical wires under the current layout.
        let logical_gate = gate.map_qubits(|p| phys_to_log[p.index()]);
        if let Some(idx) = replay.retire(&logical_gate) {
            executed_at[idx] = routed_index;
        } else if gate.is_swap() {
            let (a, b) = gate.qubits();
            let b = b.expect("swap is two-qubit");
            phys_to_log.swap(a.index(), b.index());
            swaps_replayed += 1;
        } else {
            return Err(VerifyError::UnexpectedGate {
                routed_index,
                derived: logical_gate.to_string(),
            });
        }
    }

    replay.finish()?;
    if phys_to_log != final_phys_to_log {
        return Err(VerifyError::FinalLayoutMismatch);
    }
    Ok(VerificationReport {
        gates_replayed: original.num_gates(),
        swaps_replayed,
        executed_at,
    })
}

/// The original circuit's dependency DAG, re-enacted one matched gate at
/// a time: the match-and-retire step every replay in this crate shares.
pub(crate) struct DagReplay<'a> {
    original: &'a Circuit,
    dag: DependencyDag,
    frontier: ExecutionFrontier,
}

impl<'a> DagReplay<'a> {
    /// A replay with nothing executed yet.
    pub(crate) fn new(original: &'a Circuit) -> Self {
        let dag = DependencyDag::new(original);
        let frontier = ExecutionFrontier::new(&dag);
        DagReplay {
            original,
            dag,
            frontier,
        }
    }

    /// Retires the ready original gate equal to `gate` (logical wires)
    /// and returns its index; `None` when no ready gate matches.
    pub(crate) fn retire(&mut self, gate: &Gate) -> Option<usize> {
        let gates = self.original.gates();
        let idx = self
            .frontier
            .ready()
            .iter()
            .copied()
            .find(|&idx| gates[idx] == *gate)?;
        self.frontier.retire(&self.dag, idx);
        Some(idx)
    }

    /// `Ok` once every original gate has been retired.
    pub(crate) fn finish(&self) -> Result<(), VerifyError> {
        if self.frontier.is_complete() {
            Ok(())
        } else {
            Err(VerifyError::IncompleteExecution {
                executed: self.frontier.num_executed(),
                total: self.original.num_gates(),
            })
        }
    }
}

/// Inverts a `logical → physical` bijection into `physical → logical`;
/// `None` if it is not a bijection over `0..n`.
fn invert(log_to_phys: &[Qubit], n: usize) -> Option<Vec<Qubit>> {
    if log_to_phys.len() != n {
        return None;
    }
    let mut inv = vec![Qubit(u32::MAX); n];
    for (logical, phys) in log_to_phys.iter().enumerate() {
        if phys.index() >= n || inv[phys.index()] != Qubit(u32::MAX) {
            return None;
        }
        inv[phys.index()] = Qubit(logical as u32);
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_topology::devices;

    fn identity_map(n: u32) -> Vec<Qubit> {
        (0..n).map(Qubit).collect()
    }

    #[test]
    fn faithful_routing_verifies() {
        let device = devices::linear(3);
        let mut original = Circuit::new(3);
        original.h(Qubit(0));
        original.cx(Qubit(0), Qubit(2));
        let mut routed = Circuit::new(3);
        routed.h(Qubit(0));
        routed.swap(Qubit(2), Qubit(1)); // bring q2 next to q0
        routed.cx(Qubit(0), Qubit(1));
        let mut final_map = identity_map(3);
        final_map.swap(1, 2); // q1↦Q2, q2↦Q1
        let report = verify_routed(
            &original,
            &routed,
            &identity_map(3),
            &final_map,
            device.graph(),
        )
        .unwrap();
        assert_eq!(report.gates_replayed, 2);
        assert_eq!(report.swaps_replayed, 1);
        assert_eq!(report.executed_at, vec![0, 2]);
    }

    #[test]
    fn original_swap_matches_before_an_inserted_swap() {
        let device = devices::linear(2);
        let mut original = Circuit::new(2);
        original.swap(Qubit(0), Qubit(1));
        original.cx(Qubit(0), Qubit(1));
        // The circuit's own SWAP is a gate of the computation, not a
        // layout change: the CX after it stays on the identity layout.
        let routed = original.clone();
        let report = verify_routed(
            &original,
            &routed,
            &identity_map(2),
            &identity_map(2),
            device.graph(),
        )
        .unwrap();
        assert_eq!(report.swaps_replayed, 0);
        assert_eq!(report.executed_at, vec![0, 1]);
    }

    #[test]
    fn dropped_gate_detected() {
        let device = devices::linear(2);
        let mut original = Circuit::new(2);
        original.h(Qubit(0));
        original.cx(Qubit(0), Qubit(1));
        let mut routed = Circuit::new(2);
        routed.h(Qubit(0));
        let err = verify_routed(
            &original,
            &routed,
            &identity_map(2),
            &identity_map(2),
            device.graph(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            VerifyError::IncompleteExecution {
                executed: 1,
                total: 2
            }
        );
    }

    #[test]
    fn reordered_dependent_gates_detected() {
        let device = devices::linear(3);
        let mut original = Circuit::new(3);
        original.cx(Qubit(0), Qubit(1));
        original.cx(Qubit(1), Qubit(2));
        // Routed emits them in the wrong order — a dependency violation.
        let mut routed = Circuit::new(3);
        routed.cx(Qubit(1), Qubit(2));
        routed.cx(Qubit(0), Qubit(1));
        let err = verify_routed(
            &original,
            &routed,
            &identity_map(3),
            &identity_map(3),
            device.graph(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            VerifyError::UnexpectedGate {
                routed_index: 0,
                ..
            }
        ));
    }

    #[test]
    fn independent_gates_may_commute() {
        let device = devices::linear(4);
        let mut original = Circuit::new(4);
        original.cx(Qubit(0), Qubit(1));
        original.cx(Qubit(2), Qubit(3));
        // Opposite emission order is fine: they are DAG-independent.
        let mut routed = Circuit::new(4);
        routed.cx(Qubit(2), Qubit(3));
        routed.cx(Qubit(0), Qubit(1));
        assert!(verify_routed(
            &original,
            &routed,
            &identity_map(4),
            &identity_map(4),
            device.graph()
        )
        .is_ok());
    }

    #[test]
    fn wrong_final_layout_detected() {
        let device = devices::linear(2);
        let mut original = Circuit::new(2);
        original.cx(Qubit(0), Qubit(1));
        let mut routed = Circuit::new(2);
        routed.cx(Qubit(0), Qubit(1));
        routed.swap(Qubit(0), Qubit(1));
        // Claim identity final map although a SWAP happened.
        let err = verify_routed(
            &original,
            &routed,
            &identity_map(2),
            &identity_map(2),
            device.graph(),
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::FinalLayoutMismatch);
    }

    #[test]
    fn cx_direction_flip_detected() {
        let device = devices::linear(2);
        let mut original = Circuit::new(2);
        original.cx(Qubit(0), Qubit(1));
        let mut routed = Circuit::new(2);
        routed.cx(Qubit(1), Qubit(0)); // control/target flipped
        let err = verify_routed(
            &original,
            &routed,
            &identity_map(2),
            &identity_map(2),
            device.graph(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::UnexpectedGate { .. }));
    }

    #[test]
    fn uncoupled_routed_gate_detected_first() {
        let device = devices::linear(3);
        let mut original = Circuit::new(3);
        original.cx(Qubit(0), Qubit(2));
        let mut routed = Circuit::new(3);
        routed.cx(Qubit(0), Qubit(2)); // illegal on the line
        let err = verify_routed(
            &original,
            &routed,
            &identity_map(3),
            &identity_map(3),
            device.graph(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::UncoupledGate { .. }));
    }

    #[test]
    fn bad_mapping_rejected() {
        let device = devices::linear(2);
        let original = Circuit::new(2);
        let routed = Circuit::new(2);
        let bad = vec![Qubit(0), Qubit(0)];
        let err =
            verify_routed(&original, &routed, &bad, &identity_map(2), device.graph()).unwrap_err();
        assert_eq!(err, VerifyError::InvalidMapping { which: "initial" });
    }

    #[test]
    fn nontrivial_initial_mapping_verifies() {
        let device = devices::linear(3);
        let mut original = Circuit::new(2);
        original.cx(Qubit(0), Qubit(1));
        // q0 starts on Q2, q1 on Q1 (adjacent): no swaps needed.
        let mut routed = Circuit::new(3);
        routed.cx(Qubit(2), Qubit(1));
        let map = vec![Qubit(2), Qubit(1), Qubit(0)];
        assert!(verify_routed(&original, &routed, &map, &map, device.graph()).is_ok());
    }

    #[test]
    fn one_qubit_gate_on_wrong_wire_detected() {
        let device = devices::linear(2);
        let mut original = Circuit::new(2);
        original.h(Qubit(0));
        let mut routed = Circuit::new(2);
        routed.h(Qubit(1)); // wrong wire under identity mapping
        let err = verify_routed(
            &original,
            &routed,
            &identity_map(2),
            &identity_map(2),
            device.graph(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::UnexpectedGate { .. }));
    }
}
