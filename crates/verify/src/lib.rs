//! Verification of routed quantum circuits.
//!
//! A router's output is only useful if it is *provably* faithful. This
//! crate checks routed circuits at three levels:
//!
//! 1. [`check_compliance`] — every two-qubit gate acts on a coupled
//!    physical pair (the hardware constraint of paper §II-B).
//! 2. [`verify_routed`] — a **permutation replay**: walking the routed
//!    circuit while tracking the layout evolution through inserted SWAPs
//!    must re-enact the original circuit's dependency DAG exactly. This is
//!    a complete semantic check under the assumption that SWAP gates are
//!    true swaps, and it runs in `O(g)` at any scale — it verifies even
//!    the 35k-gate Table II rows.
//! 3. [`verify_semantics_small`] — full state-vector equivalence via
//!    `sabre-sim` for small registers, removing even the SWAP assumption.
//! 4. [`verify_sharded`] — a multi-device extension of level 2: a circuit
//!    partitioned across several coupling graphs is checked shard by shard
//!    (each against its own device) and the stitched plan — local streams
//!    plus an explicit cross-shard cut schedule — is replayed against the
//!    original circuit's dependency DAG.
//!
//! # Example
//!
//! ```
//! use sabre_circuit::{Circuit, Qubit};
//! use sabre_topology::devices;
//! use sabre_verify::verify_routed;
//!
//! // original: CX(q0,q1), with q1 placed two hops from q0 on a 3-qubit
//! // line; the routed circuit pays one SWAP to bring them together.
//! let mut original = Circuit::new(2);
//! original.cx(Qubit(0), Qubit(1));
//! let mut routed = Circuit::new(3);
//! routed.swap(Qubit(1), Qubit(2));
//! routed.cx(Qubit(0), Qubit(1));
//! let initial = [Qubit(0), Qubit(2), Qubit(1)]; // q0↦Q0, q1↦Q2
//! let final_ = [Qubit(0), Qubit(1), Qubit(2)];  // q1 migrated to Q1
//! let device = devices::linear(3);
//! let report = verify_routed(&original, &routed, &initial, &final_, device.graph())?;
//! assert_eq!(report.swaps_replayed, 1);
//! # Ok::<(), sabre_verify::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compliance;
mod replay;
mod sharded;
mod simcheck;

pub use compliance::check_compliance;
pub use replay::{verify_routed, VerificationReport};
pub use sharded::{verify_sharded, CutView, GateSite, ShardView, ShardedReport};
pub use simcheck::{verify_semantics_small, MAX_SIM_QUBITS};

use std::error::Error;
use std::fmt;

use sabre_circuit::Qubit;

/// Everything that can go wrong when verifying a routed circuit.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A two-qubit gate acts on physical qubits that are not coupled.
    UncoupledGate {
        /// Index into the routed circuit's gate list.
        gate_index: usize,
        /// First operand.
        a: Qubit,
        /// Second operand.
        b: Qubit,
    },
    /// The routed circuit's register does not match the device.
    RegisterMismatch {
        /// Routed circuit register size.
        circuit_qubits: u32,
        /// Device size.
        device_qubits: u32,
    },
    /// A mapping slice is not a bijection over the device.
    InvalidMapping {
        /// Which mapping (`"initial"` or `"final"`).
        which: &'static str,
    },
    /// Replay found a routed gate that does not correspond to any ready
    /// gate of the original circuit.
    UnexpectedGate {
        /// Index into the routed circuit's gate list.
        routed_index: usize,
        /// Rendering of the logical gate the replay derived.
        derived: String,
    },
    /// The routed circuit ended before executing every original gate.
    IncompleteExecution {
        /// Gates successfully replayed.
        executed: usize,
        /// Gates in the original circuit.
        total: usize,
    },
    /// The layout after replaying all SWAPs differs from the claimed final
    /// mapping.
    FinalLayoutMismatch,
    /// State-vector comparison found differing unitaries.
    SemanticsDiffer {
        /// A basis state witnessing the difference.
        witness: usize,
    },
    /// The register is too large for state-vector simulation.
    TooLargeToSimulate {
        /// Physical register size requested.
        qubits: u32,
        /// Maximum the simulator accepts.
        max: u32,
    },
    /// A sharded plan's qubit assignment is not a valid partition of the
    /// circuit's wires into device-sized shards.
    ShardAssignment {
        /// What is wrong with the assignment.
        reason: String,
    },
    /// A sharded plan's cut schedule disagrees with the cross-shard gates
    /// derived from the original circuit.
    CutScheduleMismatch {
        /// Index into the cut schedule.
        index: usize,
        /// What disagrees.
        detail: String,
    },
    /// Replaying a sharded plan's stitched gate stream produced a gate
    /// that is not ready in the original circuit's dependency DAG.
    StitchMismatch {
        /// Rendering of the offending merged-stream gate.
        derived: String,
    },
    /// One shard of a sharded plan failed its per-device verification.
    Shard {
        /// Which shard.
        shard: usize,
        /// The underlying failure.
        source: Box<VerifyError>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UncoupledGate { gate_index, a, b } => {
                write!(f, "gate #{gate_index} acts on uncoupled pair ({a}, {b})")
            }
            VerifyError::RegisterMismatch {
                circuit_qubits,
                device_qubits,
            } => write!(
                f,
                "routed circuit has {circuit_qubits} wires but the device has {device_qubits}"
            ),
            VerifyError::InvalidMapping { which } => {
                write!(f, "{which} mapping is not a bijection over the device")
            }
            VerifyError::UnexpectedGate {
                routed_index,
                derived,
            } => write!(
                f,
                "routed gate #{routed_index} replays as `{derived}`, which is not ready in the original circuit"
            ),
            VerifyError::IncompleteExecution { executed, total } => write!(
                f,
                "routed circuit replays only {executed} of {total} original gates"
            ),
            VerifyError::FinalLayoutMismatch => {
                write!(f, "replayed SWAPs do not produce the claimed final mapping")
            }
            VerifyError::SemanticsDiffer { witness } => {
                write!(f, "unitaries differ on basis state {witness}")
            }
            VerifyError::TooLargeToSimulate { qubits, max } => {
                write!(f, "{qubits}-qubit register exceeds the {max}-qubit simulation limit")
            }
            VerifyError::ShardAssignment { reason } => {
                write!(f, "invalid shard assignment: {reason}")
            }
            VerifyError::CutScheduleMismatch { index, detail } => {
                write!(f, "cut schedule entry #{index} is wrong: {detail}")
            }
            VerifyError::StitchMismatch { derived } => write!(
                f,
                "stitched stream replays `{derived}`, which is not ready in the original circuit"
            ),
            VerifyError::Shard { shard, source } => {
                write!(f, "shard {shard} failed verification: {source}")
            }
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_usefully() {
        let e = VerifyError::UncoupledGate {
            gate_index: 7,
            a: Qubit(0),
            b: Qubit(6),
        };
        let text = e.to_string();
        assert!(text.contains("#7"));
        assert!(text.contains("q0"));
        assert!(text.contains("q6"));
    }

    #[test]
    fn error_is_std_error() {
        fn check<E: Error + Send + Sync + 'static>(_: E) {}
        check(VerifyError::FinalLayoutMismatch);
    }
}
