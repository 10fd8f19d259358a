//! Differential suite pinning the incremental search engine
//! (`sabre::router::route_pass`, delta-scored over a persistent
//! `SearchState`) to the retained reference implementation
//! (`sabre::reference::reference_route_pass`, full re-summation per
//! candidate): for the same circuit, device, layout, config, and seed the
//! two must produce **identical** `RoutedCircuit`s — same emitted gates,
//! same layouts, same `num_swaps`/`search_steps`/`forced_routings`, which
//! implies the same candidate orders and the same tie-break draws at every
//! search step.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sabre::reference::reference_route_pass;
use sabre::router::route_pass;
use sabre::{HeuristicKind, Layout, SabreConfig, SabreRouter};
use sabre_benchgen::{random, registry};
use sabre_circuit::Circuit;
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph, WeightedDistanceMatrix};

/// Routes `circuit` with both engines from the same start state and
/// asserts the results are identical.
fn assert_engines_agree(
    circuit: &Circuit,
    graph: &CouplingGraph,
    dist: &WeightedDistanceMatrix,
    config: &SabreConfig,
    label: &str,
) {
    let layout = Layout::identity(graph.num_qubits());
    let mut rng_new = StdRng::seed_from_u64(config.seed);
    let mut rng_ref = StdRng::seed_from_u64(config.seed);
    let incremental = route_pass(circuit, graph, dist, layout.clone(), config, &mut rng_new);
    let reference = reference_route_pass(circuit, graph, dist, layout, config, &mut rng_ref);
    assert_eq!(incremental, reference, "engines diverged on {label}");
}

/// The four topology families the incremental engine must match the
/// reference on (tentpole contract).
fn test_topologies() -> Vec<(&'static str, CouplingGraph)> {
    vec![
        ("tokyo", devices::ibm_q20_tokyo().graph().clone()),
        ("grid4x5", devices::grid(4, 5).graph().clone()),
        ("ring12", devices::ring(12).graph().clone()),
        ("star8", devices::star(8).graph().clone()),
    ]
}

#[test]
fn engines_agree_on_fixed_corpus_across_topologies_and_seeds() {
    for (name, graph) in test_topologies() {
        let dist = WeightedDistanceMatrix::hops(&graph);
        let n = graph.num_qubits().clamp(4, 12);
        for seed in [0u64, 7, 2019] {
            for gates in [15usize, 120, 600] {
                let circuit = random::random_circuit(n, gates, 0.7, seed ^ gates as u64);
                let config = SabreConfig {
                    seed,
                    ..SabreConfig::fast()
                };
                assert_engines_agree(
                    &circuit,
                    &graph,
                    &dist,
                    &config,
                    &format!("{name}/seed={seed}/gates={gates}"),
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_every_heuristic_kind() {
    let graph = devices::ibm_q20_tokyo().graph().clone();
    let dist = WeightedDistanceMatrix::hops(&graph);
    let circuit = random::random_circuit(14, 300, 0.8, 42);
    for kind in [
        HeuristicKind::Basic,
        HeuristicKind::LookAhead,
        HeuristicKind::Decay,
    ] {
        for extended_set_size in [0usize, 1, 20, 100] {
            let config = SabreConfig {
                heuristic: kind,
                extended_set_size,
                ..SabreConfig::fast()
            };
            assert_engines_agree(
                &circuit,
                &graph,
                &dist,
                &config,
                &format!("{kind:?}/|E|={extended_set_size}"),
            );
        }
    }
}

#[test]
fn engines_agree_on_deep_grid_workload() {
    // A deep synthetic circuit on grid10x10: many search steps on a
    // device past Tokyo's size, with hop distances.
    let graph = devices::grid(10, 10).graph().clone();
    let dist = WeightedDistanceMatrix::hops(&graph);
    let circuit = random::random_circuit(80, 2_000, 0.9, 1);
    let config = SabreConfig::fast();
    assert_engines_agree(&circuit, &graph, &dist, &config, "grid10x10/deep");
}

#[test]
fn engines_agree_on_clean_step_heavy_kilo_grid() {
    // Past the dense threshold: a 200-qubit circuit on grid 33×33 with
    // sparse hop rows, the `kilo_sparse` benchmark shape. Most SWAPs here
    // leave the front layer unchanged, so the in-place incidence and
    // candidate updates and the traversal-lifetime row pins carry most
    // steps; every other case runs on ≤ 100 qubits, where such clean
    // steps are rare.
    let graph = devices::grid(33, 33).graph().clone();
    let dist = WeightedDistanceMatrix::hops(&graph);
    assert!(dist.is_sparse());
    let circuit = random::random_circuit(200, 500, 0.9, 1);
    let config = SabreConfig::fast();
    assert_engines_agree(&circuit, &graph, &dist, &config, "grid33x33/200q");
}

#[test]
fn engines_agree_on_table2_rows_under_decay() {
    // Table II's rows on Tokyo: Clifford+T Toffoli networks, whose 1q
    // chains cascade between CNOTs, plus QFT and Ising. Most SWAPs here
    // make a front gate executable and the drain runs several passes, so
    // the dirty-step path (node-record endpoints, the event-driven drain,
    // the logged pass built afterwards) carries most steps, unlike the
    // random corpora above. Random initial layouts, two seeds each.
    let graph = devices::ibm_q20_tokyo().graph().clone();
    let dist = WeightedDistanceMatrix::hops(&graph);
    let rows = [
        "rd84_142",
        "z4_268",
        "sym6_145",
        "rd73_252",
        "qft_10",
        "ising_model_13",
    ];
    for name in rows {
        let circuit = registry::by_name(name).expect("Table II row").generate();
        for seed in [1u64, 2019] {
            let config = SabreConfig {
                heuristic: HeuristicKind::Decay,
                seed,
                ..SabreConfig::fast()
            };
            let mut layout_rng = StdRng::seed_from_u64(seed);
            let layout = Layout::random(graph.num_qubits(), &mut layout_rng);
            let mut rng_new = StdRng::seed_from_u64(seed);
            let mut rng_ref = StdRng::seed_from_u64(seed);
            let incremental = route_pass(
                &circuit,
                &graph,
                &dist,
                layout.clone(),
                &config,
                &mut rng_new,
            );
            let reference =
                reference_route_pass(&circuit, &graph, &dist, layout, &config, &mut rng_ref);
            assert_eq!(
                incremental, reference,
                "engines diverged on {name}/seed={seed}"
            );
        }
    }
    // A forced routing moves many qubits at once, after which the drain
    // scans the whole ready list again: a zero-cost matrix on a line
    // trips the livelock guard over and over on a deep row.
    let line = devices::linear(15).graph().clone();
    let blind = WeightedDistanceMatrix::floyd_warshall(&line, |_, _| 0.0);
    let circuit = registry::by_name("rd84_142")
        .expect("Table II row")
        .generate();
    let config = SabreConfig {
        livelock_slack: 0,
        ..SabreConfig::fast()
    };
    assert_engines_agree(&circuit, &line, &blind, &config, "rd84_142/forced");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let identity = Layout::identity(line.num_qubits());
    let forced = route_pass(&circuit, &line, &blind, identity, &config, &mut rng);
    assert!(forced.forced_routings > 1, "the guard must fire repeatedly");
}

#[test]
fn engines_agree_under_forced_routing() {
    // Zero-cost matrix: every score ties, the search random-walks, and the
    // livelock guard fires — the forced-routing path and its decay/telemetry
    // resets must behave identically in both engines.
    let graph = devices::linear(24).graph().clone();
    let blind = WeightedDistanceMatrix::floyd_warshall(&graph, |_, _| 0.0);
    let mut circuit = Circuit::new(24);
    circuit.cx(sabre_circuit::Qubit(0), sabre_circuit::Qubit(23));
    let config = SabreConfig {
        livelock_slack: 0,
        ..SabreConfig::fast()
    };
    assert_engines_agree(&circuit, &graph, &blind, &config, "forced-routing");
}

#[test]
fn engines_agree_on_sparse_fronts_with_long_swap_chains() {
    // Long linear devices with distant two-qubit pairs: each executed gate
    // needs many SWAPs, so the vast majority of search iterations leave the
    // front layer untouched — the exact regime the incremental engine's
    // clean-front skip path (no drain, no front rebuild, no extended-set
    // BFS) is exercised hardest in. The reference engine recomputes
    // everything every step; outputs must still be identical.
    for n in [16u32, 24, 32] {
        let graph = devices::linear(n).graph().clone();
        let dist = WeightedDistanceMatrix::hops(&graph);
        let mut circuit = Circuit::new(n);
        // Far-apart pairs, re-crossing the line each round so the front
        // stays small (1-2 gates) while SWAP chains stay long.
        for round in 0..6u32 {
            for k in 0..(n / 4) {
                let a = sabre_circuit::Qubit(k);
                let b = sabre_circuit::Qubit(n - 1 - ((k + round) % (n / 2)));
                if a != b {
                    circuit.cx(a, b);
                    circuit.rz(b, 0.25 * f64::from(round + 1));
                }
            }
        }
        for seed in [1u64, 2019] {
            let config = SabreConfig {
                seed,
                ..SabreConfig::fast()
            };
            assert_engines_agree(
                &circuit,
                &graph,
                &dist,
                &config,
                &format!("linear{n}/sparse-front/seed={seed}"),
            );
        }
    }
}

#[test]
fn engines_agree_on_wide_extended_sets() {
    // Oversized |E| relative to the circuit: the staged chunked summation
    // over front + extended rows sees long slices (vectorized lanes plus
    // remainders of every length), and extended-set reuse across clean
    // steps must not go stale.
    let graph = devices::grid(6, 6).graph().clone();
    let dist = WeightedDistanceMatrix::hops(&graph);
    for gates in [37usize, 250, 999] {
        let circuit = random::random_circuit(30, gates, 0.85, gates as u64);
        for extended_set_size in [13usize, 64, 200] {
            let config = SabreConfig {
                extended_set_size,
                extended_set_weight: 0.7,
                ..SabreConfig::fast()
            };
            assert_engines_agree(
                &circuit,
                &graph,
                &dist,
                &config,
                &format!("grid6x6/gates={gates}/|E|={extended_set_size}"),
            );
        }
    }
}

#[test]
fn engines_agree_on_noise_weighted_distances() {
    // Arbitrary f64 edge costs: delta sums may regroup floating-point
    // arithmetic, but any drift is orders of magnitude below the 1e-12
    // tie-break slack — for these pinned seeds the routed output must
    // still match exactly.
    let device = devices::ibm_q20_tokyo();
    let graph = device.graph().clone();
    let noise = NoiseModel::calibrated(&graph, 0.02, 4.0, 3);
    let dist = WeightedDistanceMatrix::floyd_warshall(&graph, |a, b| {
        // Log-domain SWAP costs like SabreRouter::with_noise builds.
        noise.swap_cost(a, b).max(1e-9)
    });
    for seed in [0u64, 3, 11, 2019] {
        let circuit = random::random_circuit(16, 400, 0.75, seed);
        let config = SabreConfig {
            seed,
            ..SabreConfig::fast()
        };
        assert_engines_agree(
            &circuit,
            &graph,
            &dist,
            &config,
            &format!("noise/seed={seed}"),
        );
    }
}

#[test]
fn profiling_is_bit_identical_interleaved_with_reference() {
    // Interleaved A/B: for each workload, (A) the pass-level engine is
    // pinned against the reference scorer, then (B) a full profiled
    // route runs, then (A') an unprofiled route — B and A' must produce
    // the same routed artifact bit-for-bit, proving the collector
    // neither perturbs the search nor leaks state between calls.
    for (name, graph) in test_topologies() {
        let dist = WeightedDistanceMatrix::hops(&graph);
        let n = graph.num_qubits().clamp(4, 14);
        for seed in [0u64, 7, 2019] {
            let circuit = random::random_circuit(n, 240, 0.75, seed);
            let config = SabreConfig {
                seed,
                ..SabreConfig::fast()
            };
            // A: engine vs reference (profiling off at the pass level).
            assert_engines_agree(
                &circuit,
                &graph,
                &dist,
                &config,
                &format!("{name}/profiled-interleave/seed={seed}"),
            );
            // B: full profiled route.
            let on = SabreRouter::new(
                graph.clone(),
                SabreConfig {
                    profile: true,
                    ..config
                },
            )
            .expect("router (profile on)")
            .route(&circuit)
            .expect("profiled route");
            // A': full unprofiled route, after B ran.
            let off = SabreRouter::new(graph.clone(), config)
                .expect("router (profile off)")
                .route(&circuit)
                .expect("unprofiled route");

            assert_eq!(
                off.best, on.best,
                "profiling changed the routed artifact on {name}/seed={seed}"
            );
            assert_eq!(off.best_restart, on.best_restart);
            assert_eq!(off.traversals, on.traversals);
            assert_eq!(
                off.first_traversal_added_gates,
                on.first_traversal_added_gates
            );
            assert!(off.profile.is_none(), "profile off returns no profile");
            let profile = on.profile.as_ref().expect("profile on returns one");
            // The collector's counters must agree with the search's own
            // telemetry: every traversal of every restart was profiled.
            assert_eq!(
                profile.traversals as usize,
                on.traversals.len(),
                "one profiled entry per traversal"
            );
            assert_eq!(
                profile.per_traversal_steps.len(),
                on.traversals.len(),
                "per-traversal step counts cover the whole search"
            );
            assert!(profile.search_steps > 0);
            assert!(profile.hot_loop_ns() > 0, "phase spans recorded time");
            assert!(
                profile.update_ns <= profile.scoring_ns,
                "the update span is inside the scoring span"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random circuits × random devices × random seeds: the incremental
    /// engine is a pure optimization — its output is indistinguishable
    /// from the reference scorer's.
    #[test]
    fn incremental_engine_is_bit_identical_to_reference(
        (n, gates, circuit_seed) in (2u32..=10, 0usize..200, any::<u64>()),
        topology in 0usize..4,
        route_seed in any::<u64>(),
        extended_set_size in 0usize..40,
        decay_delta in 0.0f64..0.1,
    ) {
        let graph = match topology {
            0 => devices::ibm_q20_tokyo().graph().clone(),
            1 => devices::grid(3, 4).graph().clone(),
            2 => devices::ring(10).graph().clone(),
            _ => devices::star(10).graph().clone(),
        };
        let n = n.min(graph.num_qubits());
        let circuit = random::random_circuit(n.max(2), gates, 0.6, circuit_seed);
        let dist = WeightedDistanceMatrix::hops(&graph);
        let config = SabreConfig {
            seed: route_seed,
            extended_set_size,
            decay_delta,
            ..SabreConfig::fast()
        };
        let layout = Layout::identity(graph.num_qubits());
        let mut rng_new = StdRng::seed_from_u64(config.seed);
        let mut rng_ref = StdRng::seed_from_u64(config.seed);
        let incremental = route_pass(&circuit, &graph, &dist, layout.clone(), &config, &mut rng_new);
        let reference = reference_route_pass(&circuit, &graph, &dist, layout, &config, &mut rng_ref);
        prop_assert_eq!(incremental, reference);
    }
}
