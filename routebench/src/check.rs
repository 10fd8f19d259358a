//! Output checks. Every routed result the benchmark sees is replayed by
//! `sabre_verify::verify_routed` — an independent check, not the router's
//! own report — and served responses are compared, byte for byte on their
//! canonical JSON rendering, with the direct library call.

use sabre::RoutedCircuit;
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_topology::CouplingGraph;
use sabre_verify::{check_compliance, verify_routed};

/// Replays `routed` against `original` on `graph`, and checks that the
/// SWAP count the router reports is the one the replay saw.
pub fn routed(
    original: &Circuit,
    routed: &RoutedCircuit,
    graph: &CouplingGraph,
) -> Result<(), String> {
    replay(
        original,
        &routed.physical,
        routed.initial_layout.logical_to_physical(),
        routed.final_layout.logical_to_physical(),
        routed.num_swaps,
        graph,
    )
}

fn replay(
    original: &Circuit,
    physical: &Circuit,
    initial: &[Qubit],
    final_map: &[Qubit],
    claimed_swaps: usize,
    graph: &CouplingGraph,
) -> Result<(), String> {
    let report = verify_routed(original, physical, initial, final_map, graph)
        .map_err(|e| format!("replay rejected `{}`: {e}", original.name()))?;
    if report.swaps_replayed != claimed_swaps {
        return Err(format!(
            "`{}` claims {claimed_swaps} swaps, replay saw {}",
            original.name(),
            report.swaps_replayed
        ));
    }
    Ok(())
}

/// Checks a `POST /route` response body: its physical QASM and layouts,
/// parsed back from the JSON, must replay `original` on `graph`.
pub fn served_route(
    original: &Circuit,
    body: &JsonValue,
    graph: &CouplingGraph,
) -> Result<(), String> {
    let best = body
        .get("result")
        .and_then(|r| r.get("best"))
        .ok_or("response has no result.best")?;
    let physical = physical_circuit(body.get("physical_qasm"))?;
    let swaps = best
        .get("num_swaps")
        .and_then(JsonValue::as_usize)
        .ok_or("result.best.num_swaps missing")?;
    replay(
        original,
        &physical,
        &layout(best.get("initial_layout"))?,
        &layout(best.get("final_layout"))?,
        swaps,
        graph,
    )
}

/// Checks a transpiled (decomposed and optimized) circuit: every
/// two-qubit gate must sit on a coupler of `graph`.
pub fn compliant(circuit: &Circuit, graph: &CouplingGraph) -> Result<(), String> {
    check_compliance(circuit, graph).map_err(|e| format!("non-compliant output: {e}"))
}

/// Parses the `physical_qasm` member of a response.
pub fn physical_circuit(qasm: Option<&JsonValue>) -> Result<Circuit, String> {
    let text = qasm
        .and_then(JsonValue::as_str)
        .ok_or("physical_qasm missing")?;
    sabre_qasm::parse(text).map_err(|e| format!("physical_qasm does not parse: {e}"))
}

fn layout(value: Option<&JsonValue>) -> Result<Vec<Qubit>, String> {
    value
        .and_then(JsonValue::as_array)
        .ok_or("layout missing")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(Qubit)
                .ok_or_else(|| "layout entries must be qubit indices".to_string())
        })
        .collect()
}

/// Compares one member of a response with the library's rendering of the
/// same value.
pub fn same_json(
    what: &str,
    served: Option<&JsonValue>,
    library: &JsonValue,
) -> Result<(), String> {
    let served = served.ok_or_else(|| format!("response has no {what}"))?;
    let (served, library) = (served.to_compact(), library.to_compact());
    if served == library {
        Ok(())
    } else {
        Err(format!(
            "{what} differs from the library call: served {} vs library {}",
            clip(&served),
            clip(&library)
        ))
    }
}

/// A sharded plan's JSON without the cut gates' angles. Routing never
/// reads gate parameters, so every re-parameterization of one structure
/// must be served a plan equal to the structure's apart from these.
pub fn without_cut_angles(plan: &JsonValue) -> JsonValue {
    let JsonValue::Object(fields) = plan else {
        return plan.clone();
    };
    let strip = |cut: &JsonValue| match cut {
        JsonValue::Object(members) => JsonValue::Object(
            members
                .iter()
                .filter(|(key, _)| key != "params")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    JsonValue::Object(
        fields
            .iter()
            .map(|(key, value)| match (key.as_str(), value) {
                ("cuts", JsonValue::Array(cuts)) => (
                    key.clone(),
                    JsonValue::Array(cuts.iter().map(strip).collect()),
                ),
                _ => (key.clone(), value.clone()),
            })
            .collect(),
    )
}

fn clip(text: &str) -> &str {
    let end = text.char_indices().nth(160).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre::{SabreConfig, SabreRouter};
    use sabre_benchgen::random;
    use sabre_topology::devices;

    fn routed_sample() -> (Circuit, RoutedCircuit, CouplingGraph) {
        let graph = devices::ibm_q20_tokyo().graph().clone();
        let circuit = random::random_circuit(12, 120, 0.8, 5);
        let result = SabreRouter::new(graph.clone(), SabreConfig::fast())
            .unwrap()
            .route(&circuit)
            .unwrap();
        assert!(result.best.num_swaps > 0, "the sample must need SWAPs");
        (circuit, result.best, graph)
    }

    fn rebuilt(like: &Circuit, gates: impl IntoIterator<Item = sabre_circuit::Gate>) -> Circuit {
        let mut out = Circuit::new(like.num_qubits());
        for gate in gates {
            out.push(gate);
        }
        out
    }

    #[test]
    fn a_faithful_plan_passes() {
        let (circuit, plan, graph) = routed_sample();
        routed(&circuit, &plan, &graph).unwrap();
    }

    #[test]
    fn a_dropped_gate_is_caught() {
        let (circuit, mut plan, graph) = routed_sample();
        let last = plan.physical.num_gates() - 1;
        plan.physical = rebuilt(
            &plan.physical,
            plan.physical.gates()[..last].iter().cloned(),
        );
        assert!(routed(&circuit, &plan, &graph).is_err());
    }

    #[test]
    fn a_moved_gate_is_caught() {
        let (circuit, mut plan, graph) = routed_sample();
        let mut gates = plan.physical.gates().to_vec();
        let cx = gates
            .iter()
            .position(|g| g.is_two_qubit() && !g.is_swap())
            .unwrap();
        let moved = gates.remove(cx);
        gates.push(moved);
        plan.physical = rebuilt(&plan.physical, gates);
        assert!(routed(&circuit, &plan, &graph).is_err());
    }

    #[test]
    fn a_wrong_final_layout_is_caught() {
        let (circuit, mut plan, graph) = routed_sample();
        plan.final_layout.swap_physical(Qubit(0), Qubit(1));
        assert!(routed(&circuit, &plan, &graph).is_err());
    }

    #[test]
    fn a_misreported_swap_count_is_caught() {
        let (circuit, mut plan, graph) = routed_sample();
        plan.num_swaps -= 1;
        assert!(routed(&circuit, &plan, &graph).is_err());
    }

    #[test]
    fn a_corrupted_served_response_is_caught() {
        let (circuit, plan, graph) = routed_sample();
        let body = |physical: &Circuit| {
            JsonValue::object([
                ("result", JsonValue::object([("best", plan.to_json())])),
                ("physical_qasm", sabre_qasm::to_qasm(physical).into()),
            ])
        };
        served_route(&circuit, &body(&plan.physical), &graph).unwrap();
        let mut gates = plan.physical.gates().to_vec();
        let one = gates.iter().position(|g| !g.params().is_empty()).unwrap();
        gates[one] = gates[one].with_params(gates[one].params().negated());
        let tampered = rebuilt(&plan.physical, gates);
        assert!(served_route(&circuit, &body(&tampered), &graph).is_err());
        assert!(same_json(
            "quality",
            Some(&JsonValue::from(1u64)),
            &JsonValue::from(2u64)
        )
        .is_err());
    }
}
