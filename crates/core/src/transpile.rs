//! One-call transpilation pipeline: route, decompose, optimize, and fix
//! CNOT directions.
//!
//! [`SabreRouter::route`] returns the raw routing artifact (SWAPs kept
//! explicit so the permutation replay can verify it). Downstream users
//! usually want the finished hardware circuit instead; [`transpile`]
//! chains the full pipeline:
//!
//! 1. SABRE routing (optionally noise-aware),
//! 2. SWAP decomposition into the elementary gate set,
//! 3. peephole optimization ([`sabre_circuit::optimize`]) — routing
//!    deliberately only *adds* gates (paper §VIII); the optimizer then
//!    cancels the redundancy SWAP insertion creates,
//! 4. optional direction fixing for one-way couplings
//!    ([`crate::direction`]).
//!
//! [`SabreRouter::route`]: crate::SabreRouter::route

use sabre_circuit::optimize::optimize;
use sabre_circuit::Circuit;
use sabre_topology::direction::DirectionModel;
use sabre_topology::noise::NoiseModel;
use sabre_topology::CouplingGraph;

use crate::direction::fix_directions;
use crate::{Layout, RouteError, SabreConfig, SabreRouter};

/// Pipeline options; start from `TranspileOptions::default()` and override.
#[derive(Clone, Debug, Default)]
pub struct TranspileOptions {
    /// Router configuration (paper defaults).
    pub config: SabreConfig,
    /// Optional per-coupling noise model: routing becomes fidelity-aware.
    pub noise: Option<NoiseModel>,
    /// Optional direction constraints for one-way-CNOT hardware.
    pub direction: Option<DirectionModel>,
    /// Skip the peephole optimizer (it is on by default).
    pub skip_optimizer: bool,
}

/// Everything [`transpile`] produces.
#[derive(Clone, Debug)]
pub struct TranspileOutput {
    /// The finished hardware circuit: elementary gates only, peephole-
    /// optimized, direction-legal if a model was given.
    pub circuit: Circuit,
    /// Where each logical qubit starts.
    pub initial_layout: Layout,
    /// Where each logical qubit ends.
    pub final_layout: Layout,
    /// SWAPs the router inserted (×3 = gates before optimization).
    pub swaps_inserted: usize,
    /// Gates the peephole optimizer removed.
    pub gates_removed: usize,
    /// CNOTs flipped by the direction pass.
    pub cnots_flipped: usize,
}

impl TranspileOutput {
    /// Net gate overhead of the whole pipeline relative to the input.
    pub fn overhead(&self, original: &Circuit) -> isize {
        self.circuit.num_gates() as isize - original.num_gates() as isize
    }

    /// The pipeline output as a JSON object (counters, depth, and both
    /// layouts as logical→physical index arrays) — the serialization hook
    /// behind the serving layer's `/transpile_batch` responses. The gate
    /// list is not embedded; serialize `self.circuit` separately (e.g. via
    /// `sabre_qasm::to_qasm`) when the caller wants it.
    pub fn to_json(&self) -> sabre_json::JsonValue {
        sabre_json::JsonValue::object([
            ("num_gates", self.circuit.num_gates().into()),
            ("depth", self.circuit.depth().into()),
            ("swaps_inserted", self.swaps_inserted.into()),
            ("gates_removed", self.gates_removed.into()),
            ("cnots_flipped", self.cnots_flipped.into()),
            (
                "initial_layout",
                crate::result::layout_to_json(&self.initial_layout),
            ),
            (
                "final_layout",
                crate::result::layout_to_json(&self.final_layout),
            ),
        ])
    }
}

/// Runs the full pipeline. See the [module documentation](self) for the
/// stages.
///
/// No stage checks its output, in any build: neither the routing nor the
/// SWAP decomposition, the peephole optimizer or the direction fixes. To
/// check the result, pass it to `sabre_verify::check_compliance` (coupling
/// legality, any size) or `sabre_verify::verify_semantics_small` (full
/// equivalence, small registers).
///
/// # Errors
///
/// Propagates [`RouteError`] from router construction and routing.
pub fn transpile(
    circuit: &Circuit,
    graph: &CouplingGraph,
    options: &TranspileOptions,
) -> Result<TranspileOutput, RouteError> {
    let router = match &options.noise {
        Some(noise) => SabreRouter::with_noise(graph.clone(), options.config, noise)?,
        None => SabreRouter::new(graph.clone(), options.config)?,
    };
    let result = router.route(circuit)?;
    Ok(finish_routed(result.best, options))
}

/// The post-routing stages shared by [`transpile`] and the batch pipeline
/// ([`crate::parallel::transpile_batch`]): SWAP decomposition, peephole
/// optimization, and direction fixing.
pub(crate) fn finish_routed(
    routed: crate::RoutedCircuit,
    options: &TranspileOptions,
) -> TranspileOutput {
    let mut hardware = routed.physical.with_swaps_decomposed();
    let mut gates_removed = 0;
    if !options.skip_optimizer {
        let (optimized, report) = optimize(&hardware);
        gates_removed = report.gates_removed();
        hardware = optimized;
    }
    let mut cnots_flipped = 0;
    if let Some(model) = &options.direction {
        let (fixed, report) = fix_directions(&hardware, model);
        cnots_flipped = report.flipped_cx;
        hardware = fixed;
        if !options.skip_optimizer {
            // Direction sandwiches introduce adjacent H pairs on shared
            // wires; one more optimizer pass cleans them up.
            let (optimized, report) = optimize(&hardware);
            gates_removed += report.gates_removed();
            hardware = optimized;
        }
    }

    TranspileOutput {
        circuit: hardware,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swaps_inserted: routed.num_swaps,
        gates_removed,
        cnots_flipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::Qubit;
    use sabre_topology::devices;
    use sabre_topology::direction::{ibm_qx5_directions, DirectionModel};

    fn workload(n: u32, rounds: u32) -> Circuit {
        let mut c = Circuit::new(n);
        let mut state = 0x2468_ACE0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(n)) as u32
        };
        for _ in 0..rounds {
            let (a, b) = (next(), next());
            if a != b {
                c.cx(Qubit(a), Qubit(b));
            }
            c.h(Qubit(next()));
        }
        c
    }

    #[test]
    fn basic_pipeline_produces_elementary_compliant_circuit() {
        let device = devices::ibm_q20_tokyo();
        let circuit = workload(10, 60);
        let out = transpile(&circuit, device.graph(), &TranspileOptions::default()).unwrap();
        assert_eq!(out.circuit.num_swaps(), 0, "SWAPs are decomposed");
        for gate in &out.circuit {
            if let (a, Some(b)) = gate.qubits() {
                assert!(device.graph().are_coupled(a, b));
            }
        }
    }

    #[test]
    fn optimizer_reduces_routed_gate_count() {
        let device = devices::linear(6);
        let circuit = workload(6, 80);
        let raw = transpile(
            &circuit,
            device.graph(),
            &TranspileOptions {
                skip_optimizer: true,
                ..TranspileOptions::default()
            },
        )
        .unwrap();
        let optimized = transpile(&circuit, device.graph(), &TranspileOptions::default()).unwrap();
        assert!(optimized.circuit.num_gates() <= raw.circuit.num_gates());
        assert_eq!(
            raw.circuit.num_gates() - optimized.circuit.num_gates(),
            optimized.gates_removed.saturating_sub(raw.gates_removed)
        );
    }

    #[test]
    fn transpiled_output_is_semantically_faithful() {
        use sabre_verify::verify_semantics_small;
        let device = devices::linear(6);
        let circuit = workload(6, 40);
        let out = transpile(&circuit, device.graph(), &TranspileOptions::default()).unwrap();
        verify_semantics_small(
            &circuit,
            &out.circuit,
            out.initial_layout.logical_to_physical(),
            out.final_layout.logical_to_physical(),
        )
        .unwrap();
    }

    #[test]
    fn direction_stage_produces_legal_cnots_only() {
        let device = devices::ibm_qx5();
        let model = DirectionModel::one_way(device.graph(), &ibm_qx5_directions());
        let circuit = workload(8, 40);
        let out = transpile(
            &circuit,
            device.graph(),
            &TranspileOptions {
                direction: Some(model.clone()),
                ..TranspileOptions::default()
            },
        )
        .unwrap();
        for gate in &out.circuit {
            if let sabre_circuit::Gate::Two {
                kind: sabre_circuit::TwoQubitKind::Cx,
                a,
                b,
                ..
            } = *gate
            {
                assert!(model.allows_cx(a, b));
            }
        }
    }

    #[test]
    fn direction_fix_is_semantics_preserving_end_to_end() {
        use sabre_verify::verify_semantics_small;
        let device = devices::linear(5);
        let model = DirectionModel::one_way(device.graph(), &[(0, 1), (2, 1), (2, 3), (4, 3)]);
        let circuit = workload(5, 30);
        let out = transpile(
            &circuit,
            device.graph(),
            &TranspileOptions {
                direction: Some(model),
                ..TranspileOptions::default()
            },
        )
        .unwrap();
        verify_semantics_small(
            &circuit,
            &out.circuit,
            out.initial_layout.logical_to_physical(),
            out.final_layout.logical_to_physical(),
        )
        .unwrap();
    }

    #[test]
    fn noise_option_is_accepted() {
        let device = devices::ibm_q20_tokyo();
        let noise = sabre_topology::noise::NoiseModel::calibrated(device.graph(), 0.02, 3.0, 5);
        let circuit = workload(8, 30);
        let out = transpile(
            &circuit,
            device.graph(),
            &TranspileOptions {
                noise: Some(noise),
                config: SabreConfig::fast(),
                ..TranspileOptions::default()
            },
        )
        .unwrap();
        assert!(out.circuit.num_gates() >= circuit.num_gates() - out.gates_removed);
    }

    #[test]
    fn overhead_accounting() {
        let device = devices::complete(4);
        let circuit = workload(4, 20);
        let out = transpile(&circuit, device.graph(), &TranspileOptions::default()).unwrap();
        // Complete graph: no swaps; overhead can only be ≤ 0 (optimizer).
        assert_eq!(out.swaps_inserted, 0);
        assert!(out.overhead(&circuit) <= 0);
    }
}
