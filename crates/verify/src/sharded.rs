//! Verification of **sharded** plans: a circuit partitioned across several
//! devices, each shard routed independently, cross-shard gates kept in an
//! explicit cut schedule.
//!
//! The verifier trusts as little of the plan as possible. Its only input
//! from the plan besides the routed artifacts is the qubit assignment
//! (which shard hosts which logical qubit) and the claimed cut schedule —
//! everything else is **re-derived from the original circuit**:
//!
//! 1. **Assignment validity**: the shards' logical-qubit lists are a
//!    partition of the circuit's wires and each fits its device.
//! 2. **Cut-schedule re-derivation**: walking the original circuit under
//!    the assignment yields the per-shard logical sub-circuits and the
//!    cross-shard gate sequence; the claimed schedule must match it gate
//!    for gate, including each cut's synchronization positions.
//! 3. **Per-shard faithfulness**: every shard's routed circuit is checked
//!    with [`verify_routed`] against its derived logical sub-circuit —
//!    coupling legality on that shard's device plus full permutation
//!    replay.
//! 4. **Stitch replay**: the local streams and cut gates are merged in an
//!    order consistent with the schedule's positions and replayed against
//!    the original circuit's dependency DAG; every original gate must
//!    execute exactly once, in a dependency-respecting order.
//!
//! Together these prove the plan is semantically equivalent to the input
//! under the plan's execution contract: a cut gate at position `p` in a
//! shard's stream runs after that shard's first `p` logical gates and
//! before the rest (cross-shard synchronization is the executor's job; the
//! schedule tells it exactly where to synchronize).

use sabre_circuit::{Circuit, Gate, Qubit};
use sabre_topology::CouplingGraph;

use crate::replay::DagReplay;
use crate::{verify_routed, VerifyError};

/// One shard of a plan, as the verifier consumes it (borrowed views so any
/// plan representation can be checked).
#[derive(Clone, Copy, Debug)]
pub struct ShardView<'a> {
    /// The device this shard routes on.
    pub graph: &'a CouplingGraph,
    /// Global logical qubits hosted by this shard, sorted ascending.
    /// Shard-local wire `i` carries global qubit `logical_qubits[i]`.
    pub logical_qubits: &'a [Qubit],
    /// The routed circuit over the device's physical wires.
    pub routed: &'a Circuit,
    /// Local-logical → physical mapping before the shard's first gate
    /// (padded to the device size with virtual qubits).
    pub initial_layout: &'a [Qubit],
    /// Local-logical → physical mapping after the shard's last SWAP.
    pub final_layout: &'a [Qubit],
}

/// One cross-shard gate of the claimed cut schedule.
#[derive(Clone, Copy, Debug)]
pub struct CutView<'a> {
    /// The original gate, on **global** logical wires.
    pub gate: &'a Gate,
    /// Shard hosting the gate's first operand.
    pub shard_a: usize,
    /// Number of shard-`a` local gates that precede this cut in program
    /// order (the cut's synchronization point in that shard's stream).
    pub pos_a: usize,
    /// Shard hosting the gate's second operand.
    pub shard_b: usize,
    /// Synchronization point in shard `b`'s stream.
    pub pos_b: usize,
}

/// Where one original gate of a sharded plan executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateSite {
    /// In shard `shard`'s routed circuit, at gate index `position`.
    Shard {
        /// The shard's index in the plan.
        shard: usize,
        /// Index into the shard's routed circuit.
        position: usize,
    },
    /// As entry `index` of the cut schedule.
    Cut(usize),
}

/// Successful sharded verification statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedReport {
    /// Shards checked.
    pub shards: usize,
    /// Original gates accounted for across local streams and cuts
    /// (equals the original gate count on success).
    pub gates_replayed: usize,
    /// Cross-shard gates in the schedule.
    pub cut_gates: usize,
    /// Inserted SWAPs replayed across all shards.
    pub swaps_replayed: usize,
    /// `executed_at[i]` is where original gate `i` executed: a position
    /// in its shard's routed circuit, or its index in the cut schedule.
    pub executed_at: Vec<GateSite>,
}

/// Verifies a sharded plan against the original circuit. See the
/// module-level documentation of `sharded.rs` for what is proved.
///
/// # Errors
///
/// The first violated property, as a [`VerifyError`]; per-shard failures
/// are wrapped in [`VerifyError::Shard`] carrying the shard index.
pub fn verify_sharded(
    original: &Circuit,
    shards: &[ShardView<'_>],
    cuts: &[CutView<'_>],
) -> Result<ShardedReport, VerifyError> {
    let assignment = check_assignment(original, shards)?;
    let (locals, derived_cuts, mut executed_at) =
        split_by_assignment(original, &assignment, shards.len());
    check_cut_schedule(cuts, &derived_cuts)?;

    let mut swaps_replayed = 0;
    let mut routed_positions = Vec::with_capacity(shards.len());
    for (index, (shard, local)) in shards.iter().zip(&locals).enumerate() {
        let report = verify_routed(
            local,
            shard.routed,
            shard.initial_layout,
            shard.final_layout,
            shard.graph,
        )
        .map_err(|source| VerifyError::Shard {
            shard: index,
            source: Box::new(source),
        })?;
        swaps_replayed += report.swaps_replayed;
        routed_positions.push(report.executed_at);
    }

    replay_stitched(original, shards, &locals, &derived_cuts)?;

    // The split recorded each local gate's index in its shard's logical
    // stream; the shard's replay maps that to its routed position.
    for site in &mut executed_at {
        if let GateSite::Shard { shard, position } = site {
            *position = routed_positions[*shard][*position];
        }
    }
    Ok(ShardedReport {
        shards: shards.len(),
        gates_replayed: original.num_gates(),
        cut_gates: cuts.len(),
        swaps_replayed,
        executed_at,
    })
}

/// A derived cut gate: the original gate plus its shard/position pairs.
struct DerivedCut {
    gate: Gate,
    shard_a: usize,
    pos_a: usize,
    shard_b: usize,
    pos_b: usize,
}

/// Validates that the shards' qubit lists partition the original register
/// and fit their devices; returns `qubit → shard`.
fn check_assignment(
    original: &Circuit,
    shards: &[ShardView<'_>],
) -> Result<Vec<usize>, VerifyError> {
    let n = original.num_qubits() as usize;
    let mut assignment = vec![usize::MAX; n];
    for (index, shard) in shards.iter().enumerate() {
        if shard.logical_qubits.len() > shard.graph.num_qubits() as usize {
            return Err(VerifyError::ShardAssignment {
                reason: format!(
                    "shard {index} hosts {} qubits but its device has only {}",
                    shard.logical_qubits.len(),
                    shard.graph.num_qubits()
                ),
            });
        }
        let mut previous: Option<Qubit> = None;
        for &q in shard.logical_qubits {
            if previous.is_some_and(|p| p >= q) {
                return Err(VerifyError::ShardAssignment {
                    reason: format!("shard {index}'s logical qubits are not strictly ascending"),
                });
            }
            previous = Some(q);
            if q.index() >= n {
                return Err(VerifyError::ShardAssignment {
                    reason: format!("shard {index} hosts {q}, outside the {n}-wire register"),
                });
            }
            if assignment[q.index()] != usize::MAX {
                return Err(VerifyError::ShardAssignment {
                    reason: format!(
                        "{q} is claimed by both shard {} and shard {index}",
                        assignment[q.index()]
                    ),
                });
            }
            assignment[q.index()] = index;
        }
    }
    if let Some(missing) = assignment.iter().position(|&s| s == usize::MAX) {
        return Err(VerifyError::ShardAssignment {
            reason: format!("q{missing} is not hosted by any shard"),
        });
    }
    Ok(assignment)
}

/// Re-derives each shard's local logical sub-circuit (on shard-local
/// wires) and the cross-shard cut sequence from the original circuit,
/// plus each original gate's site: its index in its shard's local stream,
/// or its cut index.
fn split_by_assignment(
    original: &Circuit,
    assignment: &[usize],
    num_shards: usize,
) -> (Vec<Circuit>, Vec<DerivedCut>, Vec<GateSite>) {
    // Shard-local wire index of each global qubit.
    let mut local_index = vec![0u32; assignment.len()];
    let mut sizes = vec![0u32; num_shards];
    for (q, &s) in assignment.iter().enumerate() {
        local_index[q] = sizes[s];
        sizes[s] += 1;
    }
    let mut locals: Vec<Circuit> = sizes.iter().map(|&n| Circuit::new(n)).collect();
    let mut cuts = Vec::new();
    let mut sites = Vec::with_capacity(original.num_gates());
    for gate in original.iter() {
        let (a, b) = gate.qubits();
        match b {
            Some(b) if assignment[a.index()] != assignment[b.index()] => {
                let (shard_a, shard_b) = (assignment[a.index()], assignment[b.index()]);
                sites.push(GateSite::Cut(cuts.len()));
                cuts.push(DerivedCut {
                    gate: *gate,
                    shard_a,
                    pos_a: locals[shard_a].num_gates(),
                    shard_b,
                    pos_b: locals[shard_b].num_gates(),
                });
            }
            _ => {
                let shard = assignment[a.index()];
                sites.push(GateSite::Shard {
                    shard,
                    position: locals[shard].num_gates(),
                });
                locals[shard].push(gate.map_qubits(|q| Qubit(local_index[q.index()])));
            }
        }
    }
    (locals, cuts, sites)
}

/// The claimed schedule must equal the derived one exactly.
fn check_cut_schedule(claimed: &[CutView<'_>], derived: &[DerivedCut]) -> Result<(), VerifyError> {
    if claimed.len() != derived.len() {
        return Err(VerifyError::CutScheduleMismatch {
            index: claimed.len().min(derived.len()),
            detail: format!(
                "schedule has {} cut gates but the circuit has {} cross-shard gates",
                claimed.len(),
                derived.len()
            ),
        });
    }
    for (index, (c, d)) in claimed.iter().zip(derived).enumerate() {
        if *c.gate != d.gate {
            return Err(VerifyError::CutScheduleMismatch {
                index,
                detail: format!("expected `{}`, schedule has `{}`", d.gate, c.gate),
            });
        }
        if (c.shard_a, c.pos_a, c.shard_b, c.pos_b) != (d.shard_a, d.pos_a, d.shard_b, d.pos_b) {
            return Err(VerifyError::CutScheduleMismatch {
                index,
                detail: format!(
                    "expected shards ({}@{}, {}@{}), schedule has ({}@{}, {}@{})",
                    d.shard_a, d.pos_a, d.shard_b, d.pos_b, c.shard_a, c.pos_a, c.shard_b, c.pos_b
                ),
            });
        }
    }
    Ok(())
}

/// Merges the local streams and cut gates in schedule order and replays
/// the merged stream against the original circuit's dependency DAG.
fn replay_stitched(
    original: &Circuit,
    shards: &[ShardView<'_>],
    locals: &[Circuit],
    cuts: &[DerivedCut],
) -> Result<(), VerifyError> {
    let mut replay = DagReplay::new(original);
    // Next unexecuted gate of each local stream.
    let mut cursor = vec![0usize; locals.len()];

    fn execute(replay: &mut DagReplay<'_>, gate: &Gate) -> Result<(), VerifyError> {
        match replay.retire(gate) {
            Some(_) => Ok(()),
            None => Err(VerifyError::StitchMismatch {
                derived: gate.to_string(),
            }),
        }
    }
    // Emit shard `s`'s local gates (pulled back to global wires) up to
    // local position `until`.
    fn drain(
        replay: &mut DagReplay<'_>,
        shards: &[ShardView<'_>],
        locals: &[Circuit],
        cursor: &mut [usize],
        shard: usize,
        until: usize,
    ) -> Result<(), VerifyError> {
        while cursor[shard] < until {
            let gate = locals[shard].gates()[cursor[shard]]
                .map_qubits(|q| shards[shard].logical_qubits[q.index()]);
            execute(replay, &gate)?;
            cursor[shard] += 1;
        }
        Ok(())
    }

    for (index, cut) in cuts.iter().enumerate() {
        for (shard, pos) in [(cut.shard_a, cut.pos_a), (cut.shard_b, cut.pos_b)] {
            if cursor[shard] > pos {
                return Err(VerifyError::CutScheduleMismatch {
                    index,
                    detail: format!(
                        "cut expects only {pos} prior gates in shard {shard}, \
                         but {} already had to execute",
                        cursor[shard]
                    ),
                });
            }
            drain(&mut replay, shards, locals, &mut cursor, shard, pos)?;
        }
        execute(&mut replay, &cut.gate)?;
    }
    for shard in 0..locals.len() {
        let until = locals[shard].num_gates();
        drain(&mut replay, shards, locals, &mut cursor, shard, until)?;
    }
    replay.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_topology::devices;

    fn identity_map(n: u32) -> Vec<Qubit> {
        (0..n).map(Qubit).collect()
    }

    /// q0,q1 on a 2-qubit line; q2,q3 on another; one cut CX(q1,q2).
    fn two_shard_fixture() -> (Circuit, Vec<Circuit>) {
        let mut original = Circuit::new(4);
        original.cx(Qubit(0), Qubit(1)); // shard 0 local
        original.h(Qubit(2)); // shard 1 local
        original.cx(Qubit(1), Qubit(2)); // cut
        original.cx(Qubit(2), Qubit(3)); // shard 1 local
        let mut local0 = Circuit::new(2);
        local0.cx(Qubit(0), Qubit(1));
        let mut local1 = Circuit::new(2);
        local1.h(Qubit(0));
        local1.cx(Qubit(0), Qubit(1));
        (original, vec![local0, local1])
    }

    #[test]
    fn faithful_sharded_plan_verifies() {
        let (original, locals) = two_shard_fixture();
        let device = devices::linear(2);
        let qubits0 = [Qubit(0), Qubit(1)];
        let qubits1 = [Qubit(2), Qubit(3)];
        let map = identity_map(2);
        let shards = [
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits0,
                routed: &locals[0],
                initial_layout: &map,
                final_layout: &map,
            },
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits1,
                routed: &locals[1],
                initial_layout: &map,
                final_layout: &map,
            },
        ];
        let cut_gate = Gate::cx(Qubit(1), Qubit(2));
        let cuts = [CutView {
            gate: &cut_gate,
            shard_a: 0,
            pos_a: 1,
            shard_b: 1,
            pos_b: 1,
        }];
        let report = verify_sharded(&original, &shards, &cuts).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.gates_replayed, 4);
        assert_eq!(report.cut_gates, 1);
        assert_eq!(report.swaps_replayed, 0);
        assert_eq!(
            report.executed_at,
            [
                GateSite::Shard {
                    shard: 0,
                    position: 0
                },
                GateSite::Shard {
                    shard: 1,
                    position: 0
                },
                GateSite::Cut(0),
                GateSite::Shard {
                    shard: 1,
                    position: 1
                },
            ]
        );
    }

    #[test]
    fn wrong_cut_position_is_rejected() {
        let (original, locals) = two_shard_fixture();
        let device = devices::linear(2);
        let qubits0 = [Qubit(0), Qubit(1)];
        let qubits1 = [Qubit(2), Qubit(3)];
        let map = identity_map(2);
        let shards = [
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits0,
                routed: &locals[0],
                initial_layout: &map,
                final_layout: &map,
            },
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits1,
                routed: &locals[1],
                initial_layout: &map,
                final_layout: &map,
            },
        ];
        let cut_gate = Gate::cx(Qubit(1), Qubit(2));
        let cuts = [CutView {
            gate: &cut_gate,
            shard_a: 0,
            pos_a: 0, // derived position is 1
            shard_b: 1,
            pos_b: 1,
        }];
        assert!(matches!(
            verify_sharded(&original, &shards, &cuts).unwrap_err(),
            VerifyError::CutScheduleMismatch { index: 0, .. }
        ));
    }

    #[test]
    fn missing_cut_gate_is_rejected() {
        let (original, locals) = two_shard_fixture();
        let device = devices::linear(2);
        let qubits0 = [Qubit(0), Qubit(1)];
        let qubits1 = [Qubit(2), Qubit(3)];
        let map = identity_map(2);
        let shards = [
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits0,
                routed: &locals[0],
                initial_layout: &map,
                final_layout: &map,
            },
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits1,
                routed: &locals[1],
                initial_layout: &map,
                final_layout: &map,
            },
        ];
        assert!(matches!(
            verify_sharded(&original, &shards, &[]).unwrap_err(),
            VerifyError::CutScheduleMismatch { .. }
        ));
    }

    #[test]
    fn overlapping_assignment_is_rejected() {
        let (original, locals) = two_shard_fixture();
        let device = devices::linear(2);
        let qubits0 = [Qubit(0), Qubit(1)];
        let qubits1 = [Qubit(1), Qubit(3)]; // q1 claimed twice
        let map = identity_map(2);
        let shards = [
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits0,
                routed: &locals[0],
                initial_layout: &map,
                final_layout: &map,
            },
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits1,
                routed: &locals[1],
                initial_layout: &map,
                final_layout: &map,
            },
        ];
        assert!(matches!(
            verify_sharded(&original, &shards, &[]).unwrap_err(),
            VerifyError::ShardAssignment { .. }
        ));
    }

    #[test]
    fn shard_wider_than_its_device_is_rejected() {
        let mut original = Circuit::new(3);
        original.h(Qubit(0));
        let device = devices::linear(2);
        let qubits = [Qubit(0), Qubit(1), Qubit(2)];
        let routed = Circuit::new(2);
        let map = identity_map(2);
        let shards = [ShardView {
            graph: device.graph(),
            logical_qubits: &qubits,
            routed: &routed,
            initial_layout: &map,
            final_layout: &map,
        }];
        let err = verify_sharded(&original, &shards, &[]).unwrap_err();
        assert!(matches!(err, VerifyError::ShardAssignment { .. }), "{err}");
    }

    #[test]
    fn corrupted_shard_routing_is_attributed() {
        let (original, mut locals) = two_shard_fixture();
        locals[1] = Circuit::new(2); // shard 1 dropped its gates
        let device = devices::linear(2);
        let qubits0 = [Qubit(0), Qubit(1)];
        let qubits1 = [Qubit(2), Qubit(3)];
        let map = identity_map(2);
        let shards = [
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits0,
                routed: &locals[0],
                initial_layout: &map,
                final_layout: &map,
            },
            ShardView {
                graph: device.graph(),
                logical_qubits: &qubits1,
                routed: &locals[1],
                initial_layout: &map,
                final_layout: &map,
            },
        ];
        let cut_gate = Gate::cx(Qubit(1), Qubit(2));
        let cuts = [CutView {
            gate: &cut_gate,
            shard_a: 0,
            pos_a: 1,
            shard_b: 1,
            pos_b: 1,
        }];
        match verify_sharded(&original, &shards, &cuts).unwrap_err() {
            VerifyError::Shard { shard, source } => {
                assert_eq!(shard, 1);
                assert!(matches!(*source, VerifyError::IncompleteExecution { .. }));
            }
            other => panic!("expected a Shard error, got {other:?}"),
        }
    }
}
