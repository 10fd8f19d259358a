//! Property-based tests spanning the whole workspace: for arbitrary
//! circuits and arbitrary connected devices, routing must always produce
//! verified, conservative, reproducible results.

use proptest::prelude::*;
use sabre::{HeuristicKind, Layout, SabreConfig, SabreRouter};
use sabre_baseline::{greedy, trivial};
use sabre_benchgen::random;
use sabre_circuit::{Circuit, Qubit};
use sabre_qasm::{parse, to_qasm};
use sabre_topology::{devices, CouplingGraph, DistanceMatrix};
use sabre_verify::{verify_routed, verify_semantics_small};

/// A connected device with at least `min_qubits` physical qubits.
fn arb_device(min_qubits: u32) -> impl Strategy<Value = CouplingGraph> {
    (0usize..7, min_qubits..=10u32).prop_map(move |(kind, size)| {
        let size = size.max(min_qubits);
        let device = match kind {
            0 => devices::linear(size),
            1 => devices::ring(size.max(3)),
            2 => devices::grid(2, size.div_ceil(2)),
            3 => devices::star(size.max(2)),
            4 => devices::complete(size),
            5 => devices::ibm_q20_tokyo(),
            _ => devices::ibm_qx5(),
        };
        device.graph().clone()
    })
}

/// Parameters for a deterministic random circuit.
fn arb_circuit_params() -> impl Strategy<Value = (u32, usize, u64)> {
    (2u32..=7, 0usize..50, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SABRE output always verifies, on any device × any circuit.
    #[test]
    fn sabre_output_always_verifies(
        (n, gates, seed) in arb_circuit_params(),
        graph in arb_device(7),
        delta in 0.0f64..0.2,
    ) {
        let circuit = random::random_circuit(n, gates, 0.6, seed);
        let config = SabreConfig { decay_delta: delta, ..SabreConfig::fast() };
        let router = SabreRouter::new(graph.clone(), config).unwrap();
        let result = router.route(&circuit).unwrap();
        let routed = &result.best;
        prop_assert!(verify_routed(
            &circuit,
            &routed.physical,
            routed.initial_layout.logical_to_physical(),
            routed.final_layout.logical_to_physical(),
            &graph,
        ).is_ok());
        // Conservation: output = input + swaps; added gates divisible by 3.
        prop_assert_eq!(
            routed.physical.num_gates(),
            circuit.num_gates() + routed.num_swaps
        );
        prop_assert_eq!(routed.added_gates() % 3, 0);
    }

    /// All heuristic variants terminate and verify.
    #[test]
    fn every_heuristic_variant_verifies(
        (n, gates, seed) in arb_circuit_params(),
        kind_idx in 0usize..3,
    ) {
        let kind = [HeuristicKind::Basic, HeuristicKind::LookAhead, HeuristicKind::Decay][kind_idx];
        let circuit = random::random_circuit(n, gates, 0.7, seed);
        let graph = devices::ibm_q20_tokyo().graph().clone();
        let config = SabreConfig { heuristic: kind, ..SabreConfig::fast() };
        let router = SabreRouter::new(graph.clone(), config).unwrap();
        let result = router.route(&circuit).unwrap();
        prop_assert!(verify_routed(
            &circuit,
            &result.best.physical,
            result.best.initial_layout.logical_to_physical(),
            result.best.final_layout.logical_to_physical(),
            &graph,
        ).is_ok());
    }

    /// Routing on small devices preserves the unitary exactly
    /// (simulator-checked, no trust in gate labels).
    #[test]
    fn routing_preserves_semantics(
        n in 2u32..=5,
        gates in 0usize..30,
        seed in any::<u64>(),
    ) {
        let circuit = random::random_circuit(n, gates, 0.5, seed);
        let graph = devices::linear(6).graph().clone();
        let router = SabreRouter::new(graph, SabreConfig::fast()).unwrap();
        let result = router.route(&circuit).unwrap();
        prop_assert!(verify_semantics_small(
            &circuit,
            &result.best.physical,
            result.best.initial_layout.logical_to_physical(),
            result.best.final_layout.logical_to_physical(),
        ).is_ok());
    }

    /// Baselines are also always correct (they share the verification bar
    /// even though their quality differs).
    #[test]
    fn baselines_always_verify(
        (n, gates, seed) in arb_circuit_params(),
    ) {
        let circuit = random::random_circuit(n, gates, 0.6, seed);
        let graph = devices::ibm_qx5().graph().clone();
        for routed in [greedy::route(&circuit, &graph), trivial::route(&circuit, &graph)] {
            prop_assert!(verify_routed(
                &circuit,
                &routed.physical,
                routed.initial_layout.logical_to_physical(),
                routed.final_layout.logical_to_physical(),
                &graph,
            ).is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// QASM round-trip is exact for arbitrary circuits, including
    /// arbitrary rotation angles.
    #[test]
    fn qasm_round_trip((n, gates, seed) in arb_circuit_params()) {
        let circuit = random::random_circuit(n, gates, 0.4, seed);
        let text = to_qasm(&circuit);
        let mut parsed = parse(&text).unwrap();
        parsed.set_name(circuit.name());
        prop_assert_eq!(parsed, circuit);
    }

    /// Reversal is an involution and preserves counts/depth.
    #[test]
    fn reversal_involution((n, gates, seed) in arb_circuit_params()) {
        let circuit = random::random_circuit(n, gates, 0.5, seed);
        let rev = circuit.reversed();
        prop_assert_eq!(rev.num_gates(), circuit.num_gates());
        prop_assert_eq!(rev.depth(), circuit.depth());
        prop_assert_eq!(rev.reversed(), circuit);
    }

    /// Distance matrices satisfy metric axioms and match BFS.
    #[test]
    fn distance_metric_axioms(graph in arb_device(2)) {
        let d = DistanceMatrix::floyd_warshall(&graph);
        prop_assert_eq!(d.clone(), DistanceMatrix::bfs(&graph));
        let n = graph.num_qubits();
        for i in 0..n {
            prop_assert_eq!(d.get(Qubit(i), Qubit(i)), 0);
            for j in 0..n {
                prop_assert_eq!(d.get(Qubit(i), Qubit(j)), d.get(Qubit(j), Qubit(i)));
            }
        }
        // Triangle inequality over finite entries.
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (ij, ik, kj) =
                        (d.get(Qubit(i), Qubit(j)), d.get(Qubit(i), Qubit(k)), d.get(Qubit(k), Qubit(j)));
                    if ik != DistanceMatrix::UNREACHABLE && kj != DistanceMatrix::UNREACHABLE {
                        prop_assert!(ij <= ik + kj);
                    }
                }
            }
        }
    }

    /// Layouts stay bijective under arbitrary SWAP sequences, and swap
    /// replay equals direct construction.
    #[test]
    fn layout_swap_sequences_stay_bijective(
        n in 2u32..=12,
        swaps in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
    ) {
        let mut layout = Layout::identity(n);
        for (a, b) in swaps {
            let (a, b) = (a % n, b % n);
            if a != b {
                layout.swap_physical(Qubit(a), Qubit(b));
            }
        }
        prop_assert!(layout.is_consistent());
    }

    /// Embeddable circuits really embed (generator ↔ checker agreement).
    #[test]
    fn embeddable_generator_matches_checker(
        n in 2u32..=8,
        gates in 1usize..40,
        seed in any::<u64>(),
    ) {
        let tokyo = devices::ibm_q20_tokyo();
        let circuit = random::embeddable_circuit(tokyo.graph(), n, gates, 0.6, seed);
        let ig = sabre_circuit::interaction::InteractionGraph::of(&circuit);
        prop_assert!(sabre_topology::embedding::is_embeddable(&ig, tokyo.graph()));
    }

    /// A circuit that needs no routing (all gates on coupled pairs under
    /// identity) costs the trivial baseline zero SWAPs, and its output
    /// stays a faithful (possibly reordered-within-DAG) replay.
    #[test]
    fn trivial_router_inserts_nothing_on_compliant_circuits(
        gates in 0usize..40,
        seed in any::<u64>(),
    ) {
        let graph = devices::ibm_q20_tokyo().graph().clone();
        let edges: Vec<(u32, u32)> =
            graph.edges().iter().map(|&(a, b)| (a.0, b.0)).collect();
        let circuit = random::random_circuit_on_edges(20, &edges, gates, 0.8, seed);
        let routed = trivial::route(&circuit, &graph);
        prop_assert_eq!(routed.num_swaps, 0);
        prop_assert_eq!(routed.physical.num_gates(), circuit.num_gates());
        prop_assert!(verify_routed(
            &circuit,
            &routed.physical,
            routed.initial_layout.logical_to_physical(),
            routed.final_layout.logical_to_physical(),
            &graph,
        ).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The peephole optimizer never changes the unitary and never grows
    /// the circuit.
    #[test]
    fn optimizer_preserves_semantics(
        n in 1u32..=5,
        gates in 0usize..40,
        seed in any::<u64>(),
    ) {
        use sabre_circuit::optimize::optimize;
        use sabre_sim::equivalence::unitaries_equal;
        let circuit = if n >= 2 {
            random::random_circuit(n, gates, 0.4, seed)
        } else {
            // Single-wire circuits exercise the 1q merge/cancel paths.
            let mut c = Circuit::new(1);
            let base = random::random_circuit(2, gates, 0.0, seed);
            for g in base.gates() {
                c.push(g.map_qubits(|_| sabre_circuit::Qubit(0)));
            }
            c
        };
        let (optimized, report) = optimize(&circuit);
        prop_assert!(optimized.num_gates() <= circuit.num_gates());
        prop_assert_eq!(
            circuit.num_gates() - optimized.num_gates(),
            report.gates_removed()
        );
        prop_assert!(
            unitaries_equal(&circuit, &optimized, 1e-9).is_equivalent(),
            "optimizer changed the unitary"
        );
        // Idempotence: a second run finds nothing.
        let (again, second) = optimize(&optimized);
        prop_assert_eq!(again, optimized);
        prop_assert_eq!(second.gates_removed(), 0);
    }

    /// Optimizing a routed+decomposed circuit keeps it hardware-compliant
    /// and semantically faithful.
    #[test]
    fn optimizer_composes_with_routing(
        gates in 1usize..40,
        seed in any::<u64>(),
    ) {
        use sabre_circuit::optimize::optimize;
        let graph = devices::linear(5).graph().clone();
        let circuit = random::random_circuit(5, gates, 0.6, seed);
        let router = SabreRouter::new(graph.clone(), SabreConfig::fast()).unwrap();
        let routed = router.route(&circuit).unwrap().best;
        let (optimized, _) = optimize(&routed.decomposed());
        // Still compliant...
        for gate in optimized.gates() {
            if let (a, Some(b)) = gate.qubits() {
                prop_assert!(graph.are_coupled(a, b));
            }
        }
        // ...and still the same computation.
        prop_assert!(verify_semantics_small(
            &circuit,
            &optimized,
            routed.initial_layout.logical_to_physical(),
            routed.final_layout.logical_to_physical(),
        ).is_ok());
    }
}

/// Deterministic seeds produce identical routings (full pipeline).
#[test]
fn routing_is_reproducible() {
    let circuit = random::random_circuit(10, 80, 0.7, 99);
    let graph = devices::ibm_q20_tokyo().graph().clone();
    let a = SabreRouter::new(graph.clone(), SabreConfig::paper())
        .unwrap()
        .route(&circuit)
        .unwrap();
    let b = SabreRouter::new(graph, SabreConfig::paper())
        .unwrap()
        .route(&circuit)
        .unwrap();
    assert_eq!(a.best, b.best);
}

/// An empty circuit routes to an empty physical circuit on every device.
#[test]
fn empty_circuits_route_everywhere() {
    for device in devices::all_fixed_devices() {
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let result = router.route(&Circuit::new(1)).unwrap();
        assert!(result.best.physical.is_empty());
        assert_eq!(result.added_gates(), 0);
    }
}

/// QASM and JSON fragments for the hostile-input properties: arbitrary
/// bytes alone rarely get past the first token of either grammar, so
/// each input splices fragments between random bytes.
const FRAGMENTS: &[&str] = &[
    "OPENQASM 2.0;",
    "include \"qelib1.inc\";",
    "qreg q[3];",
    "creg c[3];",
    "qreg r[4294967295];",
    "h q[0];",
    "cx q[0], q[1];",
    "rz(-pi/2) q;",
    "u3(1e-3, .5, 2) q[2];",
    "cx q, q;",
    "measure q -> c;",
    "barrier q;",
    "q[1.5]",
    "(",
    ")",
    "[",
    "]",
    ",",
    ";",
    "//",
    "\n",
    " ",
    "\"",
    "\\",
    "\\u",
    "{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}",
    "{",
    "}",
    ":",
    "1e999",
    "-0",
    "é",
];

/// Random bytes with fragments spliced in, read as (lossy) UTF-8.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..FRAGMENTS.len() * 2, 0u8..=255), 0..40).prop_map(|parts| {
        let mut bytes = Vec::new();
        for (pick, byte) in parts {
            match FRAGMENTS.get(pick) {
                Some(fragment) => bytes.extend_from_slice(fragment.as_bytes()),
                None => bytes.push(byte),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Strings weighted toward what a JSON writer must escape: controls,
/// quotes and backslashes, plus ASCII, Latin-1, BMP and astral chars.
fn arb_json_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..6, 0u32..0x11_0000), 0..40).prop_map(|chars| {
        chars
            .into_iter()
            .filter_map(|(kind, v)| match kind {
                0 => char::from_u32(v % 0x20),
                1 => Some(['"', '\\', '/'][v as usize % 3]),
                2 => char::from_u32(0x20 + v % 0x5f),
                3 => char::from_u32(0x7f + v % 0x81),
                4 => char::from_u32(v),
                _ => char::from_u32(0x1_0000 + v % 0x10_0000),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The QASM parser never panics on hostile text, and whatever it
    /// accepts with finite angles survives a write/parse round trip.
    #[test]
    fn qasm_parse_never_panics(text in arb_text()) {
        for source in [text.clone(), format!("OPENQASM 2.0;\nqreg q[3];\n{text}")] {
            if let Ok(circuit) = parse(&source) {
                let finite = circuit
                    .iter()
                    .all(|g| g.params().as_slice().iter().all(|v| v.is_finite()));
                if finite {
                    prop_assert_eq!(parse(&to_qasm(&circuit)).unwrap().gates(), circuit.gates());
                }
            }
        }
    }

    /// The JSON parser never panics on hostile text.
    #[test]
    fn json_parse_never_panics(text in arb_text()) {
        if let Ok(value) = sabre_json::JsonValue::parse(&text) {
            prop_assert!(sabre_json::JsonValue::parse(&value.to_compact()).is_ok());
        }
    }

    /// Every string, controls and non-ASCII included, survives the
    /// compact writer and the parser unchanged.
    #[test]
    fn json_string_round_trips(s in arb_json_string()) {
        let text = sabre_json::JsonValue::from(s.as_str()).to_compact();
        prop_assert_eq!(
            sabre_json::JsonValue::parse(&text).unwrap(),
            sabre_json::JsonValue::Str(s)
        );
    }
}
