//! Peephole circuit optimization.
//!
//! Routing deliberately "only add\[s\] additional gates instead of modifying
//! the original circuit" (paper §VIII), and leaves cleanup downstream.
//! This pass removes wire-adjacent redundancy without any re-synthesis.
//! Routed circuits give it little: a SWAP is decomposed as
//! `cx(a,b) cx(b,a) cx(a,b)`, so it cancels against a CX before it on its
//! coupler only when the two are wire-adjacent and in the same
//! orientation. On Table II at the paper configuration that holds for 127
//! of the 2,801 SWAPs that follow a CX on their coupler; no SWAP is
//! followed by a CX on its own pair. The rules:
//!
//! - adjacent self-inverse pairs cancel (`H·H`, `X·X`, `Y·Y`, `Z·Z`,
//!   `CX·CX`, `CZ·CZ`, `SWAP·SWAP`, `S·S†`, `T·T†`, ...);
//! - adjacent same-axis rotations merge (`RZ(a)·RZ(b) → RZ(a+b)`, same
//!   for `RX`, `RY`, `P`, `CP`, `RZZ`), and zero-angle rotations drop;
//! - identity gates drop.
//!
//! "Adjacent" means adjacent on the wire(s): gates on other qubits in
//! between do not block cancellation. The pass iterates to a fixed point
//! and preserves the unitary exactly (property-tested against the
//! simulator).

use crate::{Circuit, Gate, OneQubitKind, Params, TwoQubitKind};

/// Statistics of one [`optimize`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Gates removed by pair cancellation.
    pub cancelled: usize,
    /// Rotation pairs merged into one gate.
    pub merged: usize,
    /// Identity / zero-angle gates dropped.
    pub dropped: usize,
}

impl OptimizeReport {
    /// Total reduction in gate count.
    pub fn gates_removed(&self) -> usize {
        self.cancelled + self.merged + self.dropped
    }
}

/// Returns an equivalent circuit with peephole redundancy removed, plus a
/// report of what was eliminated.
pub fn optimize(circuit: &Circuit) -> (Circuit, OptimizeReport) {
    let mut gates: Vec<Option<Gate>> = circuit.iter().copied().map(Some).collect();
    let mut report = OptimizeReport::default();
    loop {
        let before = report;
        sweep(circuit.num_qubits(), &mut gates, &mut report);
        if report == before {
            break;
        }
    }
    let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name());
    out.extend(gates.into_iter().flatten());
    (out, report)
}

/// One pass over the gate list: for every live gate, find its wire
/// successor(s) and try to drop/cancel/merge.
fn sweep(num_qubits: u32, gates: &mut [Option<Gate>], report: &mut OptimizeReport) {
    // next_on_wire scan: for gate i, the next live gate sharing each wire.
    let n = num_qubits as usize;
    for i in 0..gates.len() {
        let Some(gate) = gates[i] else { continue };

        // Drop identities and zero-angle rotations outright.
        if is_identity(&gate) {
            gates[i] = None;
            report.dropped += 1;
            continue;
        }

        // Find the nearest subsequent live gate touching any wire of `gate`
        // and check whether *all* of `gate`'s wires meet it first.
        let (a, b) = gate.qubits();
        let mut partner: Option<usize> = None;
        let mut blocked = false;
        let mut wires_seen = vec![false; n];
        wires_seen[a.index()] = true;
        if let Some(b) = b {
            wires_seen[b.index()] = true;
        }
        for (j, slot) in gates.iter().enumerate().skip(i + 1) {
            let Some(next) = slot else { continue };
            let (na, nb) = next.qubits();
            let touches = wires_seen[na.index()] || nb.is_some_and(|q| wires_seen[q.index()]);
            if !touches {
                continue;
            }
            // `next` is the first gate downstream on some shared wire. For
            // a two-qubit `gate`, cancellation requires `next` to be the
            // first on *both* wires — i.e. operand sets equal.
            let same_wires = match (b, nb) {
                (None, None) => na == a,
                (Some(gb), Some(nb)) => (na == a && nb == gb) || (na == gb && nb == a),
                _ => false,
            };
            if same_wires {
                partner = Some(j);
            } else {
                blocked = true;
            }
            break;
        }
        if blocked {
            continue;
        }
        let Some(j) = partner else { continue };
        let next = gates[j].expect("partner is live");

        if cancels(&gate, &next) {
            gates[i] = None;
            gates[j] = None;
            report.cancelled += 2;
        } else if let Some(merged) = merge(&gate, &next) {
            gates[i] = None;
            gates[j] = Some(merged);
            report.merged += 1;
        }
    }
}

fn is_identity(gate: &Gate) -> bool {
    match gate {
        Gate::One { kind, params, .. } => match kind {
            OneQubitKind::I => true,
            OneQubitKind::Rx | OneQubitKind::Ry | OneQubitKind::Rz | OneQubitKind::P => {
                params.as_slice()[0] == 0.0
            }
            _ => false,
        },
        Gate::Two { kind, params, .. } => match kind {
            TwoQubitKind::Cp | TwoQubitKind::Rzz => params.as_slice()[0] == 0.0,
            _ => false,
        },
    }
}

/// Whether `second` is exactly the inverse of `first` (acting on the same
/// wires, already guaranteed by the caller).
fn cancels(first: &Gate, second: &Gate) -> bool {
    match (first, second) {
        (Gate::One { .. }, Gate::One { .. }) => first.adjoint() == *second,
        (
            Gate::Two {
                kind: k1,
                a: a1,
                b: b1,
                params: p1,
            },
            Gate::Two {
                kind: k2,
                a: a2,
                b: b2,
                params: p2,
            },
        ) => {
            if k1 != k2 {
                return false;
            }
            let same_order = a1 == a2 && b1 == b2;
            let flipped = a1 == b2 && b1 == a2;
            match k1 {
                // CX is direction-sensitive; the others are symmetric.
                TwoQubitKind::Cx => same_order && p1 == p2,
                TwoQubitKind::Cz | TwoQubitKind::Swap => same_order || flipped,
                TwoQubitKind::Cp | TwoQubitKind::Rzz => {
                    (same_order || flipped) && p1.as_slice()[0] == -p2.as_slice()[0]
                }
            }
        }
        _ => false,
    }
}

/// Merges two adjacent same-axis rotations into `second`'s slot.
fn merge(first: &Gate, second: &Gate) -> Option<Gate> {
    match (first, second) {
        (
            Gate::One {
                kind: k1,
                qubit,
                params: p1,
            },
            Gate::One {
                kind: k2,
                params: p2,
                ..
            },
        ) if k1 == k2 => match k1 {
            OneQubitKind::Rx | OneQubitKind::Ry | OneQubitKind::Rz | OneQubitKind::P => {
                Some(Gate::one(
                    *k1,
                    *qubit,
                    Params::one(p1.as_slice()[0] + p2.as_slice()[0]),
                ))
            }
            _ => None,
        },
        (
            Gate::Two {
                kind: k1,
                a,
                b,
                params: p1,
            },
            Gate::Two {
                kind: k2,
                a: a2,
                b: b2,
                params: p2,
            },
        ) if k1 == k2 && ((a == a2 && b == b2) || (a == b2 && b == a2)) => match k1 {
            TwoQubitKind::Cp | TwoQubitKind::Rzz => Some(Gate::two(
                *k1,
                *a,
                *b,
                Params::one(p1.as_slice()[0] + p2.as_slice()[0]),
            )),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    #[test]
    fn adjacent_hadamards_cancel() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        c.h(Qubit(0));
        let (opt, report) = optimize(&c);
        assert!(opt.is_empty());
        assert_eq!(report.cancelled, 2);
    }

    #[test]
    fn adjacent_cx_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(0), Qubit(1));
        let (opt, _) = optimize(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn reversed_cx_does_not_cancel() {
        let mut c = Circuit::new(2);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(0));
        let (opt, _) = optimize(&c);
        assert_eq!(opt.num_gates(), 2);
    }

    #[test]
    fn s_and_sdg_cancel() {
        use crate::OneQubitKind::{Sdg, S};
        let mut c = Circuit::new(1);
        c.push(Gate::one(S, Qubit(0), Params::EMPTY));
        c.push(Gate::one(Sdg, Qubit(0), Params::EMPTY));
        let (opt, _) = optimize(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn intervening_gate_on_other_wire_does_not_block() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.x(Qubit(1)); // unrelated wire
        c.h(Qubit(0));
        let (opt, _) = optimize(&c);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(opt.gates()[0], Gate::x(Qubit(1)));
    }

    #[test]
    fn intervening_gate_on_same_wire_blocks() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        c.x(Qubit(0));
        c.h(Qubit(0));
        let (opt, _) = optimize(&c);
        assert_eq!(opt.num_gates(), 3, "H·X·H is not reducible here");
    }

    #[test]
    fn rotations_merge_and_zero_drops() {
        let mut c = Circuit::new(1);
        c.rz(Qubit(0), 0.25);
        c.rz(Qubit(0), 0.5);
        let (opt, report) = optimize(&c);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(opt.gates()[0].params().as_slice(), &[0.75]);
        assert_eq!(report.merged, 1);

        let mut c = Circuit::new(1);
        c.rz(Qubit(0), 0.25);
        c.rz(Qubit(0), -0.25);
        let (opt, _) = optimize(&c);
        assert!(opt.is_empty(), "merged to zero then dropped");
    }

    #[test]
    fn identity_gates_drop() {
        let mut c = Circuit::new(1);
        c.push(Gate::one(OneQubitKind::I, Qubit(0), Params::EMPTY));
        c.rz(Qubit(0), 0.0);
        let (opt, report) = optimize(&c);
        assert!(opt.is_empty());
        assert_eq!(report.dropped, 2);
    }

    #[test]
    fn cp_opposite_angles_cancel_across_operand_order() {
        let mut c = Circuit::new(2);
        c.cp(Qubit(0), Qubit(1), 0.4);
        c.cp(Qubit(1), Qubit(0), -0.4);
        let (opt, _) = optimize(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn swap_cx_fusion_across_decomposition() {
        // SWAP(0,1) decomposed, then CX(0,1): the trailing CX of the SWAP
        // cancels with the routed CX — exactly the redundancy routing
        // produces.
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        c.cx(Qubit(0), Qubit(1));
        let decomposed = c.with_swaps_decomposed();
        assert_eq!(decomposed.num_gates(), 4);
        let (opt, _) = optimize(&decomposed);
        assert_eq!(opt.num_gates(), 2, "cx(0,1)·cx(1,0) remain");
    }

    #[test]
    fn two_qubit_partial_overlap_blocks_cancellation() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2)); // shares only wire 1
        c.cx(Qubit(0), Qubit(1));
        let (opt, _) = optimize(&c);
        assert_eq!(opt.num_gates(), 3);
    }

    #[test]
    fn fixed_point_chains() {
        // X·H·H·X collapses completely only via two sweeps.
        let mut c = Circuit::new(1);
        c.x(Qubit(0));
        c.h(Qubit(0));
        c.h(Qubit(0));
        c.x(Qubit(0));
        let (opt, report) = optimize(&c);
        assert!(opt.is_empty());
        assert_eq!(report.cancelled, 4);
    }

    #[test]
    fn report_totals() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        c.h(Qubit(0));
        c.rz(Qubit(0), 0.1);
        c.rz(Qubit(0), 0.2);
        c.push(Gate::one(OneQubitKind::I, Qubit(0), Params::EMPTY));
        let (opt, report) = optimize(&c);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(report.gates_removed(), 4);
    }
}
