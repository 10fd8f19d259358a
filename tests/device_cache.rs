//! Integration tests for the device-cache layer: cached routing must be
//! bit-identical to uncached routing (sequential and parallel), device
//! and noise fingerprints must invalidate correctly, and embedding-probe
//! verdicts must be reused without changing any result.

use sabre::{
    transpile_batch, transpile_batch_cached, DeviceCache, SabreConfig, SabreResult, SabreRouter,
    TranspileOptions,
};
use sabre_benchgen::{qft, random};
use sabre_circuit::{Circuit, Qubit};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph};

/// A circuit whose interaction graph is K5 — never embeddable on Tokyo.
fn k5() -> Circuit {
    let mut c = Circuit::new(5);
    for a in 0..5u32 {
        for b in (a + 1)..5 {
            c.cx(Qubit(a), Qubit(b));
        }
    }
    c
}

/// The deterministic fields of two results must agree exactly.
fn assert_same_result(a: &SabreResult, b: &SabreResult) {
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_restart, b.best_restart);
    assert_eq!(a.perfect_placement, b.perfect_placement);
    assert_eq!(a.traversals, b.traversals);
    assert_eq!(a.first_traversal_added_gates, b.first_traversal_added_gates);
}

#[test]
fn cached_routing_is_bit_identical_sequential_and_parallel() {
    let device = devices::ibm_q20_tokyo();
    let config = SabreConfig::paper();
    let cache = DeviceCache::new();
    let circuits = [qft::qft(8), random::random_circuit(14, 160, 0.7, 11), k5()];
    let uncached = SabreRouter::new(device.graph().clone(), config).unwrap();
    for circuit in &circuits {
        let reference = uncached.route(circuit).unwrap();
        // Two warm rounds: the second exercises every cache layer
        // (graph entry AND embedding verdict) on the hit path.
        for _round in 0..2 {
            let router = cache.router(device.graph(), config).unwrap();
            let parallel = router.route(circuit).unwrap();
            assert_same_result(&parallel, &reference);
            // Batch workers run each copy's restarts inline.
            for sequential in router.route_batch(&[circuit.clone(), circuit.clone()]) {
                assert_same_result(&sequential.unwrap(), &reference);
            }
        }
    }
    assert_eq!(cache.stats().graph_misses, 1);
}

#[test]
fn verdict_cache_skips_probe_backtracking_on_repeat_routes() {
    let device = devices::ibm_q20_tokyo();
    let cache = DeviceCache::new();
    let router = cache.router(device.graph(), SabreConfig::paper()).unwrap();

    // Non-embeddable: the first route records the verdict, the second
    // consults it — zero backtracking steps, identical output.
    let first = router.route(&k5()).unwrap();
    let after_first = cache.stats();
    assert_eq!(after_first.embedding_misses, 1);
    assert_eq!(after_first.embedding_hits, 0);
    let second = router.route(&k5()).unwrap();
    let after_second = cache.stats();
    assert_eq!(after_second.embedding_misses, 1, "probe must not re-run");
    assert_eq!(after_second.embedding_hits, 1);
    assert_same_result(&first, &second);
    assert!(!first.perfect_placement);

    // Embeddable with repeated interactions: the probe's Found verdict
    // must replay into the same zero-SWAP result. A single low-effort
    // restart cannot stumble into a 12-ring placement, so the probe runs
    // (and wins) deterministically; the router comes from the same cache,
    // so it shares the verdict store.
    let fast = cache.router(device.graph(), SabreConfig::fast()).unwrap();
    let mut ring = Circuit::new(12);
    for _ in 0..4 {
        for i in 0..12u32 {
            ring.cx(Qubit(i), Qubit((i + 1) % 12));
        }
    }
    let first = fast.route(&ring).unwrap();
    assert!(first.perfect_placement, "probe must beat one weak restart");
    assert_eq!(first.best.num_swaps, 0);
    let second = fast.route(&ring).unwrap();
    assert_same_result(&first, &second);
    let stats = cache.stats();
    assert_eq!(stats.embedding_misses, 2);
    assert_eq!(stats.embedding_hits, 2);
}

#[test]
fn graph_change_invalidates_noise_change_refreshes() {
    let cache = DeviceCache::new();
    let config = SabreConfig::fast();

    // Same structure, different construction: one entry.
    let a = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    let b = CouplingGraph::from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1), (1, 0)]).unwrap();
    cache.router(&a, config).unwrap();
    cache.router(&b, config).unwrap();
    assert_eq!(cache.len(), 1);

    // Removing one edge is a different device: new entry, and routing
    // reflects the new topology (the removed chord now needs a SWAP).
    let line = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
    let router = cache.router(&line, config).unwrap();
    assert_eq!(cache.len(), 2);
    let mut c = Circuit::new(5);
    c.cx(Qubit(0), Qubit(4));
    let routed = router.route(&c).unwrap();
    assert_eq!(
        routed.best.num_swaps,
        SabreRouter::new(line.clone(), config)
            .unwrap()
            .route(&c)
            .unwrap()
            .best
            .num_swaps
    );

    // Noise: same model twice hits, changed model misses, and the cached
    // weighted matrix routes identically to a cold noise-aware router.
    let noise = NoiseModel::calibrated(&line, 0.02, 4.0, 1);
    let cold = SabreRouter::with_noise(line.clone(), config, &noise)
        .unwrap()
        .route(&c)
        .unwrap();
    for _ in 0..2 {
        let warm = cache
            .router_with_noise(&line, config, &noise)
            .unwrap()
            .route(&c)
            .unwrap();
        assert_same_result(&warm, &cold);
    }
    let recalibrated = NoiseModel::calibrated(&line, 0.02, 4.0, 2);
    cache.refresh_noise(&line, &recalibrated).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.noise_hits, 1);
    assert_eq!(stats.noise_misses, 2); // original build + refresh
    let refreshed = cache
        .router_with_noise(&line, config, &recalibrated)
        .unwrap()
        .route(&c)
        .unwrap();
    assert_same_result(
        &refreshed,
        &SabreRouter::with_noise(line, config, &recalibrated)
            .unwrap()
            .route(&c)
            .unwrap(),
    );
    assert_eq!(cache.stats().noise_hits, 2, "refreshed calibration is warm");
}

#[test]
fn cached_batch_pipeline_is_stable_across_thread_counts_and_rounds() {
    // `RAYON_NUM_THREADS` varies in CI (the test job re-runs with 8): the
    // cached batch output must not depend on it, or on cache warmth.
    let device = devices::ibm_q20_tokyo();
    let options = TranspileOptions {
        config: SabreConfig::paper(),
        ..TranspileOptions::default()
    };
    let circuits: Vec<Circuit> = (0..6)
        .map(|i| random::random_circuit(12, 100, 0.6, i as u64))
        .collect();
    let reference = transpile_batch(&circuits, device.graph(), &options).unwrap();
    let cache = DeviceCache::new();
    for _ in 0..2 {
        let cached = transpile_batch_cached(&circuits, device.graph(), &options, &cache);
        assert_eq!(cached.len(), reference.len());
        for (r, c) in reference.iter().zip(&cached) {
            let (r, c) = (r.as_ref().unwrap(), c.output().unwrap());
            assert_eq!(r.circuit, c.circuit);
            assert_eq!(r.initial_layout, c.initial_layout);
            assert_eq!(r.final_layout, c.final_layout);
            assert_eq!(r.swaps_inserted, c.swaps_inserted);
        }
    }
}
