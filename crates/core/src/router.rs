//! One traversal of the SWAP-based heuristic search — paper Algorithm 1.
//!
//! [`route_pass`] scans a circuit's DAG from the front layer to the end,
//! executing gates the moment their mapped endpoints are coupled and
//! otherwise inserting the SWAP that minimizes the heuristic cost
//! function. The bidirectional driver in [`crate::SabreRouter`] calls this
//! once per traversal; it is public so downstream users can route with a
//! fixed initial mapping of their own.
//!
//! The inner loop runs on the incremental engine of the crate-private
//! `search` module: delta-scored candidates over a persistent
//! `SearchState`, zero heap allocations per steady-state search step,
//! in-place table and candidate updates on the steps whose SWAP left the
//! front layer unchanged, and distance rows pinned for the traversal so a
//! sparse matrix's row cache is touched only on a pin miss. A step whose
//! SWAP made front gates executable (a *dirty* step) pays only for what
//! changed:
//!
//! - gate endpoints come from the [`DependencyDag`]'s 24-byte node
//!   records, never from the circuit's `Gate` values;
//! - the drain is event-driven: it examines the (at most two) front gates
//!   the SWAP made executable, then only the gates each pass unlocked, in
//!   the order a snapshot of the ready list would visit them — a gate
//!   that stayed blocked is not examined again until the layout moves;
//! - a traversal records a `PassLog` of gate indices and SWAP pairs, not
//!   a circuit: the driver builds a [`Circuit`] only for the pass it
//!   returns (and for both sides of a SWAP-count tie, whose depth decides).
//!
//! The original engine survives verbatim in [`crate::reference`] as the
//! differential-testing and benchmarking baseline;
//! `tests/hot_loop_equivalence.rs` pins the two to identical output.

use rand::rngs::StdRng;
use rand::Rng;
use sabre_circuit::{Circuit, DependencyDag, ExecutionFrontier, Qubit};
use sabre_topology::{CouplingGraph, WeightedDistanceMatrix};

use crate::profile::ProfileCollector;
use crate::search::{RowPins, SearchState};
use crate::{Layout, RoutedCircuit, SabreConfig};

/// Floating-point slack when collecting equally scored SWAP candidates for
/// random tie-breaking.
pub(crate) const SCORE_EPSILON: f64 = 1e-12;

/// Everything immutable one traversal needs, bundled so the driver can
/// prepare it once (per restart, per direction) and run many passes
/// against it.
#[derive(Clone, Copy)]
pub(crate) struct PassContext<'a> {
    /// The circuit being traversed (already reversed for backward passes).
    pub(crate) circuit: &'a Circuit,
    /// The device coupling graph.
    pub(crate) graph: &'a CouplingGraph,
    /// The distance matrix `D` steering the heuristic.
    pub(crate) dist: &'a WeightedDistanceMatrix,
    /// The circuit's dependency DAG (rebuildable from `circuit`, cached
    /// here so repeated traversals of one circuit share it).
    pub(crate) dag: &'a DependencyDag,
    /// Search configuration.
    pub(crate) config: &'a SabreConfig,
}

/// One entry of a [`PassLog`], in emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PassEvent {
    /// Gate `idx` of the traversed circuit executed, on the physical
    /// qubits its logical ones occupied at that point.
    Gate(u32),
    /// A SWAP on this physical pair.
    Swap(Qubit, Qubit),
}

/// What one traversal did, without the routed circuit: the events to
/// build it from, and the counters a [`RoutedCircuit`] carries.
#[derive(Clone, Debug)]
pub(crate) struct PassLog {
    events: Vec<PassEvent>,
    initial_layout: Layout,
    pub(crate) final_layout: Layout,
    pub(crate) num_swaps: usize,
    search_steps: usize,
    forced_routings: usize,
}

impl PassLog {
    /// Builds the [`RoutedCircuit`] this log describes by replaying it over
    /// `circuit`, the circuit the pass traversed: each gate is mapped
    /// through the layout as the replay stands, each SWAP moves it. Every
    /// gate goes through the same [`Circuit::push`] checks as a circuit
    /// built while routing.
    pub(crate) fn materialize(&self, circuit: &Circuit) -> RoutedCircuit {
        let mut layout = self.initial_layout.clone();
        let mut physical = Circuit::with_name(layout.len() as u32, circuit.name());
        for &event in &self.events {
            match event {
                PassEvent::Gate(idx) => {
                    physical.push(circuit.gates()[idx as usize].map_qubits(|l| layout.phys_of(l)));
                }
                PassEvent::Swap(a, b) => {
                    physical.swap(a, b);
                    layout.swap_physical(a, b);
                }
            }
        }
        debug_assert_eq!(layout, self.final_layout, "log replays to its final layout");
        RoutedCircuit {
            physical,
            initial_layout: self.initial_layout.clone(),
            final_layout: layout,
            num_swaps: self.num_swaps,
            search_steps: self.search_steps,
            forced_routings: self.forced_routings,
        }
    }
}

/// Routes `circuit` through one full traversal (Algorithm 1).
///
/// `initial_layout` must be a bijection over the device size. The returned
/// [`RoutedCircuit`] contains the emitted physical circuit, the final
/// mapping `π_f`, and search telemetry.
///
/// # Panics
///
/// Panics if the layout size differs from the device size or the circuit
/// uses more qubits than the device has. The public [`crate::SabreRouter`]
/// validates these up front and returns errors instead.
pub fn route_pass(
    circuit: &Circuit,
    graph: &CouplingGraph,
    dist: &WeightedDistanceMatrix,
    initial_layout: Layout,
    config: &SabreConfig,
    rng: &mut StdRng,
) -> RoutedCircuit {
    pass_log(circuit, graph, dist, initial_layout, config, rng).materialize(circuit)
}

/// [`route_pass`] up to the log: the traversal, with a DAG and scratch of
/// its own.
pub(crate) fn pass_log(
    circuit: &Circuit,
    graph: &CouplingGraph,
    dist: &WeightedDistanceMatrix,
    initial_layout: Layout,
    config: &SabreConfig,
    rng: &mut StdRng,
) -> PassLog {
    let dag = DependencyDag::new(circuit);
    let mut state = SearchState::new(graph);
    let ctx = PassContext {
        circuit,
        graph,
        dist,
        dag: &dag,
        config,
    };
    // The single-pass entry points have no channel to return a profile,
    // so they always run the disabled collector — `SabreConfig::profile`
    // is honored by the multi-restart [`crate::SabreRouter`] pipeline.
    route_pass_prepared(
        &ctx,
        initial_layout,
        rng,
        &mut state,
        &mut ProfileCollector::Off,
    )
}

/// The traversal behind [`route_pass`], against caller-prepared context
/// and scratch — the form the multi-restart driver uses so the DAG is
/// built once per circuit and the [`SearchState`] buffers persist across
/// traversals. Returns the traversal's [`PassLog`]; phase timings and
/// search-dynamics counters accumulate into `collector`
/// ([`ProfileCollector::Off`] is free: one dead branch per boundary).
pub(crate) fn route_pass_prepared(
    ctx: &PassContext<'_>,
    initial_layout: Layout,
    rng: &mut StdRng,
    state: &mut SearchState,
    collector: &mut ProfileCollector,
) -> PassLog {
    let PassContext {
        circuit,
        graph,
        dist,
        dag,
        config,
    } = *ctx;
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

    let mut frontier = ExecutionFrontier::new(dag);
    let mut layout = initial_layout.clone();
    let mut events = Vec::with_capacity(dag.num_nodes());
    let mut decay = DecayState::new(n_phys as usize, config);
    let mut swaps_since_progress: usize = 0;
    let mut num_swaps = 0usize;
    let mut search_steps = 0usize;
    let mut forced_routings = 0usize;
    // Incremental front-layer maintenance: when a selected SWAP leaves
    // every front gate still uncoupled, nothing can execute, so the front
    // (and with it the extended set, which depends only on front
    // membership and the DAG, never on the layout) is provably unchanged
    // — the drain, front rebuild, and extended-set BFS are all skipped,
    // and the scoring tables are patched for the one SWAP instead of
    // rebuilt. Only gates with a physical endpoint on the swapped pair
    // can change executability, so the dirtiness check reads at most two
    // front gates, and those it finds coupled are all the drain's first
    // pass needs to examine. At traversal start (and after a forced
    // routing, which moves many qubits) the first pass examines the
    // whole ready list.
    state.drain.clear();
    state.drain.extend_from_slice(frontier.ready());
    let mut front_dirty = true;
    // The SWAP the previous step committed: what a clean step patches.
    let mut last_swap = (Qubit(0), Qubit(0));
    // Distance rows this traversal reads, pinned on first read and kept
    // for the rest of the traversal; the table releases every pin only
    // when a new one would take it past `ROW_CACHE_CAPACITY` rows.
    let mut pins = RowPins::new(dist);
    // Phase spans: dead (no clock read) unless the collector is On.
    let clock = collector.clock();

    loop {
        if front_dirty {
            let front_span = clock.start();
            // Execute every gate that is logically ready and physically
            // executable, repeating until the frontier stalls (the
            // `Execute_gate_list` loop of Algorithm 1). The layout does
            // not move while draining, so a gate one pass found blocked
            // stays blocked: each pass after the first examines only the
            // gates the previous pass unlocked, sorted into the order a
            // snapshot of the ready list would visit them in.
            loop {
                state.unlocked.clear();
                for &idx in &state.drain {
                    if let (a, Some(b)) = dag.wires(idx) {
                        if !graph.are_coupled(layout.phys_of(a), layout.phys_of(b)) {
                            continue;
                        }
                        // Paper §V: decay resets after a CNOT executes.
                        decay.on_gate_executed();
                        swaps_since_progress = 0;
                    }
                    // Single-qubit gates never block: they execute on the
                    // wire the logical qubit currently occupies (§IV-A).
                    events.push(PassEvent::Gate(idx as u32));
                    let unlocked = frontier.retire(dag, idx);
                    let ready = frontier.ready();
                    state
                        .unlocked
                        .extend_from_slice(&ready[ready.len() - unlocked..]);
                }
                if state.unlocked.is_empty() {
                    break;
                }
                state
                    .unlocked
                    .sort_unstable_by_key(|&g| frontier.ready_position(g));
                std::mem::swap(&mut state.drain, &mut state.unlocked);
            }
            if frontier.is_complete() {
                collector.add_front(front_span);
                break;
            }

            // Front layer F: the ready-but-blocked two-qubit gates.
            state.front.clear();
            state.front.extend(
                frontier
                    .ready()
                    .iter()
                    .copied()
                    .filter(|&i| dag.is_two_qubit(i)),
            );
            debug_assert!(
                !state.front.is_empty(),
                "stalled frontier must contain a blocked two-qubit gate"
            );
            collector.add_front(front_span);
        }

        // Livelock guard, not part of the paper: after `3·N + slack` SWAPs
        // with no gate executed, force-route the oldest front gate (see
        // `SabreConfig::livelock_slack`). The paper configuration never
        // trips it; a degenerate cost matrix (all-zero, say) turns the
        // search into a random walk that would. Checked every iteration,
        // clean or dirty — the guard is the termination proof.
        let limit = 3 * n_phys as usize + config.livelock_slack;
        if swaps_since_progress >= limit {
            forced_routings += 1;
            let (a, b) = dag.wires(state.front[0]);
            let b = b.expect("forced gate is two-qubit");
            let inserted = force_route(graph, &mut layout, (a, b), |sa, sb| {
                events.push(PassEvent::Swap(sa, sb));
            });
            num_swaps += inserted;
            // Forced SWAPs are search work and must show up in the
            // telemetry, and the heuristic state they invalidate (§V decay
            // accumulated on pre-force positions) must not leak into the
            // post-force search.
            search_steps += inserted;
            decay.on_forced_route();
            swaps_since_progress = 0;
            state.drain.clear();
            state.drain.extend_from_slice(frontier.ready());
            front_dirty = true;
            continue;
        }

        if front_dirty {
            let extended_span = clock.start();
            dag.extended_set_with(
                &state.front,
                config.extended_set_size,
                &mut state.extended_scratch,
                &mut state.extended,
            );
            collector.add_extended_set(extended_span);
        }

        let scoring_span = clock.start();
        let clean = !front_dirty;
        if clean {
            // Same front and extended set, layout moved on one pair:
            // patch the table and the candidate segments the SWAP
            // touched instead of rebuilding them.
            state.incidence.apply_swap(
                dag,
                &mut pins,
                &layout,
                &state.front,
                &state.extended,
                last_swap,
            );
            state.candidates.apply_swap(graph, last_swap);
        } else {
            state
                .incidence
                .prepare(dag, &mut pins, &layout, &state.front, &state.extended);
            state.candidates.rebuild(dag, graph, &layout, &state.front);
        }
        collector.add_update(scoring_span);
        debug_assert!(
            state.candidates.len() > 0,
            "connected device always has candidates"
        );

        // Delta-scored sweep over the candidate segments: each candidate
        // costs O(incident gates), not O(|F| + |E|), and the layout is
        // never touched.
        let mut best_score = f64::INFINITY;
        state.best.clear();
        for segment in state.candidates.segments() {
            for &swap in segment {
                let score = state
                    .incidence
                    .score(&mut pins, config, decay.values(), swap);
                if score < best_score - SCORE_EPSILON {
                    best_score = score;
                    state.best.clear();
                    state.best.push(swap);
                } else if (score - best_score).abs() <= SCORE_EPSILON {
                    state.best.push(swap);
                }
            }
        }
        let (sa, sb) = state.best[rng.gen_range(0..state.best.len())];
        collector.add_scoring(scoring_span, state.candidates.len(), clean);

        // Commit: log the SWAP, update π, bump decay.
        events.push(PassEvent::Swap(sa, sb));
        layout.swap_physical(sa, sb);
        num_swaps += 1;
        search_steps += 1;
        swaps_since_progress += 1;
        decay.on_swap_selected(sa, sb);
        last_swap = (sa, sb);

        // The front changes only if the SWAP made a front gate executable.
        // At a stall every ready gate is a blocked two-qubit gate (the
        // drain retires one-qubit gates unconditionally), and a gate
        // neither of whose endpoints sits on the swapped pair kept both
        // physical positions — still blocked. So the gates the next drain
        // must examine are the front gates with an endpoint on `sa` or on
        // `sb` (at most one each, found through the candidates' owner
        // table, which still describes the pre-SWAP layout) that are now
        // coupled; the step is dirty iff there is one. They are distinct
        // (a front gate on both `sa` and `sb` sat on a coupled pair, so it
        // could not have stalled), and two are visited in ready-list
        // order, as a snapshot would.
        state.drain.clear();
        for q in [sa, sb] {
            if let Some(slot) = state.candidates.front_slot_on(q) {
                let idx = state.front[slot];
                let (a, b) = dag.wires(idx);
                let b = b.expect("front gates are two-qubit");
                if graph.are_coupled(layout.phys_of(a), layout.phys_of(b)) {
                    debug_assert!(!state.drain.contains(&idx));
                    state.drain.push(idx);
                }
            }
        }
        if let [first, second] = state.drain[..] {
            if frontier.ready_position(second) < frontier.ready_position(first) {
                state.drain.swap(0, 1);
            }
        }
        front_dirty = !state.drain.is_empty();
    }

    debug_assert!(layout.is_consistent());
    collector.finish_traversal(search_steps, forced_routings, decay.resets);
    PassLog {
        events,
        initial_layout,
        final_layout: layout,
        num_swaps,
        search_steps,
        forced_routings,
    }
}

/// The per-qubit decay bookkeeping of paper §V: recently swapped qubits
/// are de-prioritized (`value > 1`), and all values reset after a gate
/// executes, after `decay_reset_interval` consecutive SWAP selections, or
/// after a forced routing invalidates the accumulated state.
pub(crate) struct DecayState {
    values: Vec<f64>,
    /// Qubits bumped since the last reset, possibly repeated: every other
    /// value is still 1.0, so a reset restores only these — `O(bumped)`,
    /// not `O(N)`. At most two per SWAP selected since the reset.
    bumped: Vec<u32>,
    swaps_since_reset: u32,
    delta: f64,
    reset_interval: u32,
    /// How many times the table reset — search-dynamics telemetry for
    /// the [`crate::RouteProfile`] collector. Always counted (one `u64`
    /// increment per reset), never read by the search itself.
    pub(crate) resets: u64,
}

impl DecayState {
    pub(crate) fn new(n_phys: usize, config: &SabreConfig) -> Self {
        DecayState {
            values: vec![1.0; n_phys],
            bumped: Vec::new(),
            swaps_since_reset: 0,
            delta: config.decay_delta,
            reset_interval: config.decay_reset_interval,
            resets: 0,
        }
    }

    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    fn reset(&mut self) {
        for q in self.bumped.drain(..) {
            self.values[q as usize] = 1.0;
        }
        self.swaps_since_reset = 0;
        self.resets += 1;
    }

    /// A two-qubit gate executed: the search made real progress.
    pub(crate) fn on_gate_executed(&mut self) {
        self.reset();
    }

    /// A SWAP was selected: bump its endpoints, reset on the interval.
    pub(crate) fn on_swap_selected(&mut self, a: Qubit, b: Qubit) {
        self.values[a.index()] += self.delta;
        self.values[b.index()] += self.delta;
        self.bumped.extend([a.0, b.0]);
        self.swaps_since_reset += 1;
        if self.swaps_since_reset >= self.reset_interval {
            self.reset();
        }
    }

    /// The livelock guard force-routed a gate: every qubit on the forced
    /// path moved, so decay accumulated against the old placement is
    /// stale — restart clean (the forced gate executes next iteration,
    /// which would reset anyway; doing it here keeps the invariant even
    /// when the forced gate's successors stall first).
    pub(crate) fn on_forced_route(&mut self) {
        self.reset();
    }
}

/// Fallback progress guarantee: walk a blocked gate's first endpoint
/// (logical qubits `(a, b)`) along a shortest path until adjacent to its
/// second, handing each SWAP to `emit_swap`. Returns the number of SWAPs
/// inserted.
pub(crate) fn force_route(
    graph: &CouplingGraph,
    layout: &mut Layout,
    (a, b): (Qubit, Qubit),
    mut emit_swap: impl FnMut(Qubit, Qubit),
) -> usize {
    let (pa, pb) = (layout.phys_of(a), layout.phys_of(b));
    let path = graph
        .shortest_path(pa, pb)
        .expect("router requires a connected device");
    // Move the qubit at `pa` down the path until one hop from `pb`.
    let mut inserted = 0;
    for window in path.windows(2).take(path.len().saturating_sub(2)) {
        emit_swap(window[0], window[1]);
        layout.swap_physical(window[0], window[1]);
        inserted += 1;
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CandidateScratch;
    use rand::SeedableRng;
    use sabre_topology::devices;

    fn route_identity(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SabreConfig,
    ) -> RoutedCircuit {
        let dist = WeightedDistanceMatrix::hops(graph);
        let mut rng = StdRng::seed_from_u64(config.seed);
        route_pass(
            circuit,
            graph,
            &dist,
            Layout::identity(graph.num_qubits()),
            config,
            &mut rng,
        )
    }

    /// Every two-qubit gate of the output must act on coupled qubits.
    fn assert_compliant(routed: &Circuit, graph: &CouplingGraph) {
        for gate in routed {
            if let (a, Some(b)) = gate.qubits() {
                assert!(graph.are_coupled(a, b), "gate {gate} on uncoupled pair");
            }
        }
    }

    #[test]
    fn already_executable_circuit_needs_no_swaps() {
        let g = devices::linear(4);
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        c.cx(Qubit(2), Qubit(3));
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert_eq!(r.num_swaps, 0);
        assert_eq!(r.physical.num_gates(), 3);
        assert_eq!(r.final_layout, Layout::identity(4));
    }

    #[test]
    fn figure3_example_needs_one_swap() {
        // Paper Figure 3: square device, 6-CNOT circuit, identity start.
        // One SWAP suffices (the paper inserts SWAP q1,q2).
        let g = CouplingGraph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap();
        let (q1, q2, q3, q4) = (Qubit(0), Qubit(1), Qubit(2), Qubit(3));
        let mut c = Circuit::new(4);
        c.cx(q1, q2);
        c.cx(q3, q4);
        c.cx(q2, q4);
        c.cx(q2, q3);
        c.cx(q3, q4);
        c.cx(q1, q4);
        let r = route_identity(&c, &g, &SabreConfig::fast());
        assert_compliant(&r.physical, &g);
        assert_eq!(r.num_swaps, 1, "paper achieves this with exactly one SWAP");
        assert_eq!(r.added_gates(), 3);
        assert_eq!(r.decomposed().num_gates(), 9);
    }

    #[test]
    fn distant_pair_on_line_gets_routed() {
        let g = devices::linear(5);
        let mut c = Circuit::new(5);
        c.cx(Qubit(0), Qubit(4));
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert_compliant(&r.physical, g.graph());
        // Distance 4 ⇒ 3 SWAPs needed; heuristic must find that minimum on
        // a line (every useful SWAP reduces distance by exactly 1).
        assert_eq!(r.num_swaps, 3);
    }

    #[test]
    fn single_qubit_gates_ride_along() {
        let g = devices::linear(3);
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(2));
        c.h(Qubit(0));
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert_compliant(&r.physical, g.graph());
        assert_eq!(r.physical.num_one_qubit_gates(), 2);
        // The trailing H must act wherever logical q0 ended up.
        let last = r.physical.gates().last().unwrap();
        assert_eq!(last.qubits().0, r.final_layout.phys_of(Qubit(0)));
    }

    #[test]
    fn gate_counts_obey_conservation() {
        let g = devices::ibm_q20_tokyo();
        let c = sabre_circuit_test_fixture(12, 80);
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert_compliant(&r.physical, g.graph());
        assert_eq!(
            r.physical.num_gates(),
            c.num_gates() + r.num_swaps,
            "output = input gates + swaps"
        );
        assert_eq!(r.total_gates(), c.num_gates() + 3 * r.num_swaps);
    }

    /// Deterministic mixed circuit without pulling in benchgen (dev-dep
    /// cycles): a braided CX pattern over `n` wires.
    fn sabre_circuit_test_fixture(n: u32, rounds: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for r in 0..rounds {
            let a = (r as u32 * 5 + 3) % n;
            let b = (r as u32 * 7 + 1) % n;
            if a != b {
                c.cx(Qubit(a), Qubit(b));
            }
            c.h(Qubit((r as u32) % n));
        }
        c
    }

    #[test]
    fn final_layout_tracks_swaps() {
        let g = devices::linear(5);
        let mut c = Circuit::new(5);
        c.cx(Qubit(0), Qubit(4));
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        // Replay the emitted SWAPs over the initial layout: must equal the
        // reported final layout.
        let mut replay = r.initial_layout.clone();
        for gate in r.physical.gates() {
            if gate.is_swap() {
                let (a, b) = gate.qubits();
                replay.swap_physical(a, b.unwrap());
            }
        }
        assert_eq!(replay, r.final_layout);
    }

    #[test]
    fn respects_nontrivial_initial_layout() {
        let g = devices::linear(3);
        let dist = WeightedDistanceMatrix::hops(g.graph());
        // q0 on Q2, q1 on Q1: CX(q0,q1) is executable immediately.
        let layout = Layout::from_logical_to_physical(vec![Qubit(2), Qubit(1), Qubit(0)]).unwrap();
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1));
        let mut rng = StdRng::seed_from_u64(0);
        let r = route_pass(&c, g.graph(), &dist, layout, &SabreConfig::fast(), &mut rng);
        assert_eq!(r.num_swaps, 0);
        assert_eq!(r.physical.gates()[0].qubits(), (Qubit(2), Some(Qubit(1))));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = devices::ibm_q20_tokyo();
        let c = sabre_circuit_test_fixture(10, 60);
        let a = route_identity(&c, g.graph(), &SabreConfig::fast());
        let b = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_circuit_routes_to_empty() {
        let g = devices::linear(3);
        let c = Circuit::new(3);
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert!(r.physical.is_empty());
        assert_eq!(r.num_swaps, 0);
    }

    #[test]
    fn works_on_star_topology() {
        // Star stresses decay: all routes go through the hub.
        let g = devices::star(6);
        let mut c = Circuit::new(6);
        for i in 1..5 {
            c.cx(Qubit(i), Qubit(i + 1)); // leaf-to-leaf gates need the hub
        }
        let r = route_identity(&c, g.graph(), &SabreConfig::fast());
        assert_compliant(&r.physical, g.graph());
        assert_eq!(r.forced_routings, 0);
    }

    #[test]
    fn basic_heuristic_also_terminates() {
        let g = devices::ibm_q20_tokyo();
        let c = sabre_circuit_test_fixture(15, 120);
        let r = route_identity(&c, g.graph(), &SabreConfig::basic());
        assert_compliant(&r.physical, g.graph());
    }

    #[test]
    fn no_forced_routings_on_normal_workloads() {
        let g = devices::ibm_q20_tokyo();
        for rounds in [20, 60, 150] {
            let c = sabre_circuit_test_fixture(16, rounds);
            let r = route_identity(&c, g.graph(), &SabreConfig::fast());
            assert_eq!(r.forced_routings, 0, "rounds={rounds}");
        }
    }

    #[test]
    fn swap_candidates_touch_front_qubits_only() {
        let g = devices::ibm_q20_tokyo();
        let mut c = Circuit::new(20);
        c.cx(Qubit(0), Qubit(19));
        let layout = Layout::identity(20);
        let mut scratch = CandidateScratch::new(g.graph());
        scratch.rebuild(&DependencyDag::new(&c), g.graph(), &layout, &[0]);
        let cands = scratch.to_vec();
        for (a, b) in &cands {
            assert!(
                *a == Qubit(0) || *b == Qubit(0) || *a == Qubit(19) || *b == Qubit(19),
                "candidate ({a},{b}) touches neither front qubit"
            );
        }
        // Q0 has degree 2, Q19 has degree 3 on Tokyo; 5 candidate edges.
        assert_eq!(
            cands.len(),
            g.graph().degree(Qubit(0)) + g.graph().degree(Qubit(19))
        );
    }

    #[test]
    fn candidate_scratch_dedupes_and_resets_between_steps() {
        // Two front gates sharing physical neighborhoods: the shared edges
        // must appear exactly once, and a second rebuild with a different
        // front must not leak state from the first.
        let g = devices::star(5); // hub Q0, leaves Q1..Q4
        let mut c = Circuit::new(5);
        c.cx(Qubit(1), Qubit(2));
        c.cx(Qubit(3), Qubit(4));
        let layout = Layout::identity(5);
        let mut scratch = CandidateScratch::new(g.graph());

        scratch.rebuild(&DependencyDag::new(&c), g.graph(), &layout, &[0, 1]);
        let both = scratch.to_vec();
        // Every leaf couples only to the hub: 4 distinct edges, no dupes.
        assert_eq!(both.len(), 4);
        let mut dedup = both.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), both.len(), "candidates contain duplicates");

        scratch.rebuild(&DependencyDag::new(&c), g.graph(), &layout, &[0]);
        let second = scratch.to_vec();
        assert_eq!(second.len(), 2, "stale owners leaked into next step");
        for edge in &second {
            assert!(both.contains(edge));
        }
    }

    #[test]
    fn decay_state_resets_after_forced_route() {
        let config = SabreConfig::default();
        let mut decay = DecayState::new(4, &config);
        decay.on_swap_selected(Qubit(0), Qubit(1));
        decay.on_swap_selected(Qubit(1), Qubit(2));
        assert!(decay.values()[1] > 1.0 + config.decay_delta);
        decay.on_forced_route();
        assert!(decay.values().iter().all(|&v| v == 1.0));
        assert_eq!(decay.swaps_since_reset, 0);
    }

    #[test]
    fn decay_state_resets_on_interval_and_gate_execution() {
        let config = SabreConfig {
            decay_reset_interval: 3,
            ..SabreConfig::default()
        };
        let mut decay = DecayState::new(3, &config);
        decay.on_swap_selected(Qubit(0), Qubit(1));
        decay.on_swap_selected(Qubit(0), Qubit(1));
        assert!(decay.values()[0] > 1.0);
        decay.on_swap_selected(Qubit(0), Qubit(1)); // third: interval reset
        assert!(decay.values().iter().all(|&v| v == 1.0));

        decay.on_swap_selected(Qubit(1), Qubit(2));
        decay.on_gate_executed();
        assert!(decay.values().iter().all(|&v| v == 1.0));
    }

    /// Drives the livelock guard deterministically: an all-zero cost
    /// matrix makes every SWAP score identically, so the search becomes a
    /// seeded random walk that cannot close a long line before the guard
    /// fires.
    fn forced_routing_pass() -> RoutedCircuit {
        let g = devices::linear(24);
        let mut c = Circuit::new(24);
        c.cx(Qubit(0), Qubit(23));
        let blind = WeightedDistanceMatrix::floyd_warshall(g.graph(), |_, _| 0.0);
        let config = SabreConfig {
            livelock_slack: 0,
            ..SabreConfig::fast()
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        route_pass(
            &c,
            g.graph(),
            &blind,
            Layout::identity(24),
            &config,
            &mut rng,
        )
    }

    #[test]
    fn forced_routing_counts_swaps_in_search_steps() {
        let r = forced_routing_pass();
        assert!(
            r.forced_routings > 0,
            "zero-cost matrix on a long line must trip the livelock guard"
        );
        // Every inserted SWAP — scored or forced — is one search step;
        // before the fix, forced SWAPs were invisible to the telemetry.
        assert_eq!(r.search_steps, r.num_swaps);
        // The forced routing must still produce a valid circuit.
        assert_compliant(&r.physical, devices::linear(24).graph());
        assert_eq!(r.physical.num_gates(), 1 + r.num_swaps);
    }
}
