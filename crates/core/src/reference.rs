//! The retained **reference implementation** of the routing hot loop.
//!
//! This is the seed `route_pass` exactly as it was before the incremental
//! search engine (the crate-private `search` module) replaced it: per
//! candidate SWAP it mutates the layout, re-sums every front/extended
//! distance through the original `score_swap`, and restores the layout;
//! per search step it allocates the front layer, the extended set (fresh
//! BFS state included), and the tie-break pool. It drains by rescanning a
//! snapshot of the whole ready list on every pass and builds the routed
//! circuit as it goes, where the production engine drains event by event
//! and logs its passes.
//!
//! It exists for differential testing and must not be "optimized":
//! `tests/hot_loop_equivalence.rs` asserts the production engine's
//! [`crate::RoutedCircuit`] is identical to this one for the same inputs,
//! which is what pins the incremental engine's bit-exactness contract.

use rand::rngs::StdRng;
use rand::Rng;
use sabre_circuit::{Circuit, DependencyDag, ExecutionFrontier, Qubit};
use sabre_topology::{CouplingGraph, WeightedDistanceMatrix};

use crate::heuristic::{score_swap, HeuristicInputs};
use crate::router::{force_route, DecayState, SCORE_EPSILON};
use crate::{Layout, RoutedCircuit, SabreConfig};

/// The candidate-sweep scratch exactly as the seed hot loop had it:
/// first-encounter ordering and bitset dedup, with an
/// [`CouplingGraph::edge_index`] binary search per neighbor visit and per
/// cleared bit. The production engine in [`crate::search`] produces the
/// same order from per-endpoint segments and needs neither.
struct CandidateScratch {
    seen: Vec<bool>,
    buf: Vec<(Qubit, Qubit)>,
}

impl CandidateScratch {
    fn new(graph: &CouplingGraph) -> Self {
        CandidateScratch {
            seen: vec![false; graph.num_edges()],
            buf: Vec::new(),
        }
    }

    fn collect(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        layout: &Layout,
        front: &[usize],
    ) -> &[(Qubit, Qubit)] {
        for &(a, b) in &self.buf {
            self.seen[graph.edge_index(a, b).expect("candidate is an edge")] = false;
        }
        self.buf.clear();
        for &idx in front {
            let (a, b) = circuit.gates()[idx].qubits();
            let b = b.expect("front layer holds two-qubit gates");
            for logical in [a, b] {
                let phys = layout.phys_of(logical);
                for &nb in graph.neighbors(phys) {
                    let edge_id = graph
                        .edge_index(phys, nb)
                        .expect("neighbor pairs are edges");
                    if !self.seen[edge_id] {
                        self.seen[edge_id] = true;
                        self.buf
                            .push(if phys < nb { (phys, nb) } else { (nb, phys) });
                    }
                }
            }
        }
        &self.buf
    }
}

/// One full traversal of Algorithm 1 with the original full-resummation
/// scorer — same contract as [`crate::router::route_pass`], kept as the
/// differential-testing and benchmarking baseline (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if the layout size differs from the device size or the circuit
/// uses more qubits than the device has, like
/// [`crate::router::route_pass`].
pub fn reference_route_pass(
    circuit: &Circuit,
    graph: &CouplingGraph,
    dist: &WeightedDistanceMatrix,
    initial_layout: Layout,
    config: &SabreConfig,
    rng: &mut StdRng,
) -> RoutedCircuit {
    let n_phys = graph.num_qubits();
    assert_eq!(
        initial_layout.len(),
        n_phys as usize,
        "layout must cover every physical qubit"
    );
    assert!(
        circuit.num_qubits() <= n_phys,
        "circuit does not fit on the device"
    );

    let dag = DependencyDag::new(circuit);
    let mut frontier = ExecutionFrontier::new(&dag);
    let mut layout = initial_layout.clone();
    let mut out = Circuit::with_name(n_phys, circuit.name());
    let mut decay = DecayState::new(n_phys as usize, config);
    let mut scratch = CandidateScratch::new(graph);
    let mut swaps_since_progress: usize = 0;
    let mut num_swaps = 0usize;
    let mut search_steps = 0usize;
    let mut forced_routings = 0usize;

    loop {
        // Execute every gate that is logically ready and physically
        // executable, repeating until the frontier stalls (the
        // `Execute_gate_list` loop of Algorithm 1).
        loop {
            let mut executed_any = false;
            let ready: Vec<usize> = frontier.ready().to_vec();
            for idx in ready {
                let gate = &circuit.gates()[idx];
                match gate.qubits() {
                    // Single-qubit gates never block: emit on the wire the
                    // logical qubit currently occupies (§IV-A).
                    (_q, None) => {
                        out.push(gate.map_qubits(|l| layout.phys_of(l)));
                        frontier.mark_executed(&dag, idx);
                        executed_any = true;
                    }
                    (a, Some(b)) => {
                        let (pa, pb) = (layout.phys_of(a), layout.phys_of(b));
                        if graph.are_coupled(pa, pb) {
                            out.push(gate.map_qubits(|l| layout.phys_of(l)));
                            frontier.mark_executed(&dag, idx);
                            executed_any = true;
                            // Paper §V: decay resets after a CNOT executes.
                            decay.on_gate_executed();
                            swaps_since_progress = 0;
                        }
                    }
                }
            }
            if !executed_any {
                break;
            }
        }
        if frontier.is_complete() {
            break;
        }

        // Front layer F: the ready-but-blocked two-qubit gates.
        let front: Vec<usize> = frontier
            .ready()
            .iter()
            .copied()
            .filter(|&i| circuit.gates()[i].is_two_qubit())
            .collect();
        debug_assert!(
            !front.is_empty(),
            "stalled frontier must contain a blocked two-qubit gate"
        );

        // Livelock guard, not part of the paper: force-route the oldest
        // front gate after `3·N + slack` SWAPs with no gate executed (see
        // `SabreConfig::livelock_slack`; never fires with the paper
        // configuration).
        let limit = 3 * n_phys as usize + config.livelock_slack;
        if swaps_since_progress >= limit {
            forced_routings += 1;
            let (a, b) = circuit.gates()[front[0]].qubits();
            let b = b.expect("forced gate is two-qubit");
            let inserted = force_route(graph, &mut layout, (a, b), |sa, sb| out.swap(sa, sb));
            num_swaps += inserted;
            search_steps += inserted;
            decay.on_forced_route();
            swaps_since_progress = 0;
            continue;
        }

        let extended = dag.extended_set(&front, config.extended_set_size);
        let candidates = scratch.collect(circuit, graph, &layout, &front);
        debug_assert!(
            !candidates.is_empty(),
            "connected device always has candidates"
        );

        let inputs = HeuristicInputs {
            dist,
            circuit,
            front: &front,
            extended: &extended,
            weight: config.extended_set_weight,
            kind: config.heuristic,
        };
        let mut best_score = f64::INFINITY;
        let mut best: Vec<(Qubit, Qubit)> = Vec::new();
        for &swap in candidates {
            let score = score_swap(&inputs, &mut layout, decay.values(), swap);
            if score < best_score - SCORE_EPSILON {
                best_score = score;
                best.clear();
                best.push(swap);
            } else if (score - best_score).abs() <= SCORE_EPSILON {
                best.push(swap);
            }
        }
        let (sa, sb) = best[rng.gen_range(0..best.len())];

        // Commit: emit the SWAP, update π, bump decay.
        out.swap(sa, sb);
        layout.swap_physical(sa, sb);
        num_swaps += 1;
        search_steps += 1;
        swaps_since_progress += 1;
        decay.on_swap_selected(sa, sb);
    }

    debug_assert!(layout.is_consistent());
    RoutedCircuit {
        physical: out,
        initial_layout,
        final_layout: layout,
        num_swaps,
        search_steps,
        forced_routings,
    }
}
