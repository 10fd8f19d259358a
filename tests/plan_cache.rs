//! Integration suite for the routed-plan cache (`sabre::PlanCache`):
//! route a VQA ansatz **once**, then serve every re-parameterization by
//! re-binding the cached plan.
//!
//! Contracts pinned here:
//! - a cache hit is **bit-identical** to a fresh route of the
//!   re-parameterized circuit, across device families, seeds, and
//!   noise-weighted routing (routing decisions never read gate
//!   parameters);
//! - a hit performs **zero search steps** (`total_search_steps() == 0`);
//! - re-binding is at least **50× cheaper** than routing on a deep-grid
//!   ansatz — the serving economics the cache exists for;
//! - every randomly re-bound circuit still passes full routing
//!   verification (`sabre_verify::verify_routed`);
//! - the structural fingerprint keys correctly: angle changes hit,
//!   structure changes miss.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use sabre::{PlanCache, SabreConfig, SabreRouter};
use sabre_circuit::{Circuit, Qubit};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph};
use sabre_verify::verify_routed;

/// A VQA-shaped ansatz: `layers` rounds of parameterized rotations
/// followed by a fixed entangler (nearest-neighbour ladder plus a wrap
/// link so the interaction graph never embeds trivially). Any two calls
/// with the same `(n, layers)` share a structure; `theta` only moves the
/// angles.
fn ansatz(n: u32, layers: u32, theta: f64) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.rz(Qubit(q), theta * f64::from(layer * n + q + 1));
        }
        for q in 0..n - 1 {
            c.cx(Qubit(q), Qubit(q + 1));
        }
        c.cx(Qubit(0), Qubit(n - 1));
    }
    c
}

/// Routes `base`, caches the plan, then asserts every `thetas` variant
/// served from the cache is bit-identical to a fresh route and runs
/// zero search steps.
fn assert_rebinds_match_fresh_routes(
    graph: &CouplingGraph,
    noise: Option<&NoiseModel>,
    config: SabreConfig,
    n: u32,
    label: &str,
) {
    let router = match noise {
        Some(noise) => SabreRouter::with_noise(graph.clone(), config, noise),
        None => SabreRouter::new(graph.clone(), config),
    }
    .unwrap_or_else(|e| panic!("router for {label}: {e}"));
    let cache = PlanCache::with_capacity(16);

    let base = ansatz(n, 3, 0.4);
    let routed = router.route(&base).unwrap();
    cache.insert(&base, graph, noise, &config, &routed).unwrap();

    for theta in [1.1f64, 2.7, -0.9] {
        let variant = ansatz(n, 3, theta);
        let hit = cache
            .lookup(&variant, graph, noise, &config)
            .unwrap_or_else(|| panic!("{label}: same structure must hit"));
        assert_eq!(
            hit.total_search_steps(),
            0,
            "{label}: a hit must not search"
        );
        let fresh = router.route(&variant).unwrap();
        assert_eq!(
            hit.best, fresh.best,
            "{label}/theta={theta}: rebind must be bit-identical to a fresh route"
        );
    }
}

#[test]
fn rebind_matches_fresh_routes_across_devices_seeds_and_noise() {
    let families: Vec<(&str, CouplingGraph)> = vec![
        ("tokyo20", devices::ibm_q20_tokyo().graph().clone()),
        ("grid4x5", devices::grid(4, 5).graph().clone()),
        ("heavy_hex2x3", devices::heavy_hex(2, 3).graph().clone()),
    ];
    for (name, graph) in families {
        let n = graph.num_qubits().clamp(4, 8);
        for seed in [0u64, 7, 2019] {
            let config = SabreConfig {
                seed,
                ..SabreConfig::fast()
            };
            assert_rebinds_match_fresh_routes(
                &graph,
                None,
                config,
                n,
                &format!("{name}/seed={seed}"),
            );
        }
        // Noise-weighted routing: the calibration participates in the
        // plan key and the rebound plan must match the noise-aware
        // fresh route exactly.
        let noise = NoiseModel::calibrated(&graph, 0.02, 4.0, 11);
        assert_rebinds_match_fresh_routes(
            &graph,
            Some(&noise),
            SabreConfig::fast(),
            n,
            &format!("{name}/noise"),
        );
    }
}

#[test]
fn rebind_is_at_least_50x_cheaper_than_routing() {
    // The ISSUE's serving-economics bound, on the deep-grid shape the
    // perf trajectory records: one route pays the SWAP search; a rebind
    // is a clone plus a parameter stamp.
    let graph = devices::grid(6, 6).graph().clone();
    let config = SabreConfig::fast();
    let router = SabreRouter::new(graph.clone(), config).unwrap();
    let cache = PlanCache::with_capacity(4);

    let deep = ansatz(36, 24, 0.3);
    let median = |mut samples: Vec<Duration>| -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    };

    let mut route_times = Vec::new();
    let mut seeded = None;
    for _ in 0..3 {
        let start = Instant::now();
        let routed = router.route(&deep).unwrap();
        route_times.push(start.elapsed());
        seeded.get_or_insert(routed);
    }
    cache
        .insert(&deep, &graph, None, &config, &seeded.unwrap())
        .unwrap();

    let mut rebind_times = Vec::new();
    for i in 0..50 {
        let variant = ansatz(36, 24, 0.5 + 0.01 * f64::from(i));
        let start = Instant::now();
        let hit = cache
            .lookup(&variant, &graph, None, &config)
            .expect("deep ansatz variant must hit");
        rebind_times.push(start.elapsed());
        assert_eq!(hit.total_search_steps(), 0);
    }

    let route = median(route_times);
    let rebind = median(rebind_times).max(Duration::from_nanos(1));
    let ratio = route.as_nanos() / rebind.as_nanos();
    assert!(
        ratio >= 50,
        "rebind must be ≥50× cheaper than routing: route {route:?} vs rebind {rebind:?} ({ratio}×)"
    );
}

#[test]
fn structural_fingerprint_keys_hits_and_misses() {
    let graph = devices::ibm_q20_tokyo().graph().clone();
    let config = SabreConfig::fast();
    let router = SabreRouter::new(graph.clone(), config).unwrap();
    let cache = PlanCache::with_capacity(8);

    let base = ansatz(8, 2, 0.25);
    let routed = router.route(&base).unwrap();
    cache.insert(&base, &graph, None, &config, &routed).unwrap();

    // Same structure, different angles: hit.
    assert!(cache
        .lookup(&ansatz(8, 2, 9.75), &graph, None, &config)
        .is_some());
    // Different structure (extra layer): miss.
    assert!(cache
        .lookup(&ansatz(8, 3, 0.25), &graph, None, &config)
        .is_none());
    // Different structure (different register width): miss.
    assert!(cache
        .lookup(&ansatz(9, 2, 0.25), &graph, None, &config)
        .is_none());
    let stats = cache.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.entries, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random re-parameterization served from the cache is a valid
    /// routing of the re-parameterized circuit: coupling-compliant,
    /// layout-consistent, and gate-for-gate faithful under
    /// `sabre_verify`'s replay check.
    #[test]
    fn random_rebinds_always_verify(
        theta_base in -3.15f64..3.15,
        theta_variant in -3.15f64..3.15,
        seed in any::<u64>(),
    ) {
        let graph = devices::ibm_q20_tokyo().graph().clone();
        let config = SabreConfig { seed, ..SabreConfig::fast() };
        let router = SabreRouter::new(graph.clone(), config).unwrap();
        let cache = PlanCache::with_capacity(4);

        let base = ansatz(10, 2, theta_base);
        let routed = router.route(&base).unwrap();
        cache.insert(&base, &graph, None, &config, &routed).unwrap();

        let variant = ansatz(10, 2, theta_variant);
        let hit = cache
            .lookup(&variant, &graph, None, &config)
            .expect("same structure must hit");
        prop_assert_eq!(hit.total_search_steps(), 0);
        verify_routed(
            &variant,
            &hit.best.physical,
            hit.best.initial_layout.logical_to_physical(),
            hit.best.final_layout.logical_to_physical(),
            &graph,
        )
        .unwrap_or_else(|e| panic!("rebound circuit failed verification: {e}"));
    }
}
