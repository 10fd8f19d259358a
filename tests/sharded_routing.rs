//! End-to-end tests for multi-device sharded routing (`sabre_shard`):
//!
//! - a circuit wider than every registered device routes across ≥ 2
//!   shards and the stitched plan passes the `sabre_verify` extension
//!   (per-shard coupling legality + semantic equivalence);
//! - output is bit-identical for a fixed seed across repeat calls, cold
//!   vs warm caches, and thread counts (CI runs this suite under
//!   `RAYON_NUM_THREADS=1` and `=8`);
//! - property tests: the partitioner never overfills a device, every
//!   sharded plan verifies, and a sharded-plan cache hit is byte-identical
//!   to a fresh route of the re-parameterized circuit;
//! - loopback e2e: `POST /route_sharded` returns the same plan as the
//!   direct library call, routed on the first request and re-bound from
//!   the sharded-plan cache on the second.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sabre::{DeviceCache, SabreConfig};
use sabre_benchgen::random::random_circuit;
use sabre_circuit::interaction::InteractionGraph;
use sabre_circuit::{Circuit, Gate, Qubit};
use sabre_json::JsonValue;
use sabre_shard::{partition, route_sharded, Fleet, ShardConfig, ShardSpec, ShardedPlanCache};
use sabre_topology::devices;
use sabre_topology::noise::NoiseModel;

mod common;
use common::post_json;

fn two_tokyo_fleet() -> Fleet {
    let mut fleet = Fleet::new();
    fleet
        .register("tokyo-a", devices::ibm_q20_tokyo().graph().clone())
        .unwrap();
    fleet
        .register("tokyo-b", devices::ibm_q20_tokyo().graph().clone())
        .unwrap();
    fleet
}

/// Two Tokyo chips, each with its own calibration.
fn two_noisy_tokyo_fleet() -> Fleet {
    let tokyo = devices::ibm_q20_tokyo().graph().clone();
    let mut fleet = Fleet::new();
    for (id, seed) in [("tokyo-a", 11), ("tokyo-b", 12)] {
        let noise = NoiseModel::calibrated(&tokyo, 0.02, 4.0, seed);
        fleet.register_with_noise(id, tokyo.clone(), noise).unwrap();
    }
    fleet
}

/// `random_circuit`'s structure with some CX gates turned into the
/// angle-carrying RZZ and CP, so that cut gates carry angles too.
fn parametric_wide(n: u32, gates: usize, seed: u64) -> Circuit {
    let base = random_circuit(n, gates, 0.75, seed);
    let mut c = Circuit::with_name(n, base.name());
    for (k, gate) in base.gates().iter().enumerate() {
        match (gate, k % 3) {
            (Gate::Two { a, b, .. }, 1) => c.rzz(*a, *b, 0.1),
            (Gate::Two { a, b, .. }, 2) => c.cp(*a, *b, 0.2),
            _ => c.push(*gate),
        }
    }
    c
}

/// `circuit` with every angle redrawn from `salt`.
fn reparameterized(circuit: &Circuit, salt: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(salt);
    let mut out = circuit.clone();
    for (index, gate) in circuit.gates().iter().enumerate() {
        let n = gate.params().len();
        if n > 0 {
            out.replace_params(index, (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect());
        }
    }
    out
}

fn fast_shard_config(seed: u64) -> ShardConfig {
    ShardConfig {
        sabre: SabreConfig {
            seed,
            ..SabreConfig::fast()
        },
        ..ShardConfig::default()
    }
}

#[test]
fn wider_than_any_device_routes_across_two_shards_and_verifies() {
    let fleet = two_tokyo_fleet();
    let cache = DeviceCache::new();
    // 30 logical qubits: wider than each 20-qubit member, narrower than
    // the 40-qubit fleet.
    let circuit = random_circuit(30, 300, 0.8, 2024);
    assert!(circuit.num_qubits() > fleet.max_member_qubits());

    let plan = route_sharded(&circuit, &fleet, &fast_shard_config(7), &cache).unwrap();
    assert_eq!(plan.shards.len(), 2, "{plan}");
    for shard in &plan.shards {
        assert!(shard.logical_qubits.len() <= 20);
    }
    // The stitched plan must prove out: coupling legality per member
    // device and semantic equivalence to the input.
    let report = plan.verify(&circuit, &fleet).unwrap();
    assert_eq!(report.shards, 2);
    assert_eq!(report.gates_replayed, circuit.num_gates());
    assert_eq!(report.cut_gates, plan.cuts.len());
    assert_eq!(report.swaps_replayed, plan.total_swaps());

    // Cut accounting: every cross-shard interaction of the partition is
    // a scheduled cut, priced by the knob.
    let expected_cuts = circuit
        .two_qubit_pairs()
        .iter()
        .filter(|(a, b)| {
            let shard_of = |q: Qubit| {
                plan.shards
                    .iter()
                    .position(|s| s.logical_qubits.contains(&q))
                    .unwrap()
            };
            shard_of(*a) != shard_of(*b)
        })
        .count();
    assert_eq!(plan.cuts.len(), expected_cuts);
    assert_eq!(
        plan.modeled_cut_cost(),
        plan.cut_cost * plan.cuts.len() as f64
    );
}

#[test]
fn fixed_seed_plans_are_bit_identical_cold_and_warm() {
    let circuit = random_circuit(28, 220, 0.85, 99);
    let config = fast_shard_config(13);

    // Same cache (warm second call), fresh cache, fresh fleet: all three
    // must serialize to exactly the same bytes.
    let fleet = two_tokyo_fleet();
    let cache = DeviceCache::new();
    let first = route_sharded(&circuit, &fleet, &config, &cache).unwrap();
    let warm = route_sharded(&circuit, &fleet, &config, &cache).unwrap();
    let cold = route_sharded(&circuit, &two_tokyo_fleet(), &config, &DeviceCache::new()).unwrap();
    let reference = first.to_json().to_compact();
    assert_eq!(warm.to_json().to_compact(), reference);
    assert_eq!(cold.to_json().to_compact(), reference);

    // A different seed is allowed to (and here does) shard differently.
    let other = route_sharded(&circuit, &fleet, &fast_shard_config(14), &cache).unwrap();
    assert_ne!(other.to_json().to_compact(), reference);
}

#[test]
fn noise_aware_members_route_and_verify() {
    let graph_a = devices::ibm_q20_tokyo().graph().clone();
    let graph_b = devices::grid(4, 5).graph().clone();
    let mut fleet = Fleet::new();
    fleet
        .register_with_noise(
            "tokyo-noisy",
            graph_a.clone(),
            NoiseModel::calibrated(&graph_a, 0.02, 4.0, 5),
        )
        .unwrap();
    fleet.register("grid", graph_b).unwrap();
    let cache = DeviceCache::new();
    let circuit = random_circuit(32, 250, 0.8, 31);
    let plan = route_sharded(&circuit, &fleet, &fast_shard_config(3), &cache).unwrap();
    assert_eq!(plan.shards.len(), 2);
    plan.verify(&circuit, &fleet).unwrap();
}

#[test]
fn heterogeneous_fleet_prefers_enough_capacity_with_fewest_shards() {
    let mut fleet = Fleet::new();
    fleet
        .register("small", devices::linear(5).graph().clone())
        .unwrap();
    fleet
        .register("big", devices::grid(5, 6).graph().clone())
        .unwrap();
    let cache = DeviceCache::new();
    // Fits the 30-qubit grid alone: one shard, zero cuts.
    let narrow = random_circuit(25, 120, 0.8, 8);
    let plan = route_sharded(&narrow, &fleet, &fast_shard_config(1), &cache).unwrap();
    assert_eq!(plan.shards.len(), 1);
    assert_eq!(plan.shards[0].member, "big");
    assert!(plan.cuts.is_empty());
    plan.verify(&narrow, &fleet).unwrap();

    // 32 qubits need both devices.
    let wide = random_circuit(32, 150, 0.8, 9);
    let plan = route_sharded(&wide, &fleet, &fast_shard_config(1), &cache).unwrap();
    assert_eq!(plan.shards.len(), 2);
    plan.verify(&wide, &fleet).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The partitioner never overfills a device and always covers every
    /// qubit, for arbitrary circuits and arbitrary capacity splits.
    #[test]
    fn partitioner_never_exceeds_device_capacity(
        n in 2u32..=24,
        gates in 0usize..120,
        circuit_seed in any::<u64>(),
        partition_seed in any::<u64>(),
        extra_a in 0u32..6,
        extra_b in 0u32..6,
    ) {
        let circuit = random_circuit(n, gates, 0.7, circuit_seed);
        let interaction = InteractionGraph::of(&circuit);
        // Two shards whose combined capacity just covers the register.
        let cap_a = n / 2 + extra_a;
        let cap_b = n - n / 2 + extra_b;
        let specs = [
            ShardSpec { capacity: cap_a, score: 2.0 },
            ShardSpec { capacity: cap_b, score: 3.0 },
        ];
        let p = partition(&interaction, &specs, 30.0, 8, partition_seed);
        prop_assert_eq!(p.assignment.len(), n as usize);
        for (s, spec) in specs.iter().enumerate() {
            let size = p.assignment.iter().filter(|&&a| a == s).count();
            prop_assert!(size <= spec.capacity as usize,
                "shard {} holds {} qubits with capacity {}", s, size, spec.capacity);
        }
        prop_assert!(p.assignment.iter().all(|&s| s < 2));
    }

    /// Every sharded plan verifies: per-shard coupling legality plus
    /// stitched semantic equivalence, whatever the circuit.
    #[test]
    fn sharded_plans_always_verify(
        n in 21u32..=36,
        gates in 1usize..150,
        circuit_seed in any::<u64>(),
        route_seed in any::<u64>(),
    ) {
        let fleet = two_tokyo_fleet();
        let cache = DeviceCache::new();
        let circuit = random_circuit(n, gates, 0.75, circuit_seed);
        let plan = route_sharded(&circuit, &fleet, &fast_shard_config(route_seed), &cache).unwrap();
        prop_assert!(plan.shards.len() >= 2); // n > 20 forces sharding
        let report = plan.verify(&circuit, &fleet);
        prop_assert!(report.is_ok(), "verification failed: {:?}", report.err());
    }

    /// A sharded-plan cache hit serves a re-parameterization exactly what
    /// a fresh route of it returns: the plan's JSON, cut angles included,
    /// and its quality, byte for byte, with and without noise.
    #[test]
    fn sharded_plan_hits_equal_fresh_routes(
        n in 21u32..=34,
        gates in 20usize..160,
        circuit_seed in any::<u64>(),
        salt in any::<u64>(),
        noisy in any::<bool>(),
    ) {
        let fleet = if noisy { two_noisy_tokyo_fleet() } else { two_tokyo_fleet() };
        let config = fast_shard_config(circuit_seed ^ salt);
        let device_cache = DeviceCache::new();
        let cache = ShardedPlanCache::with_capacity(4);
        let first = parametric_wide(n, gates, circuit_seed);
        let plan = route_sharded(&first, &fleet, &config, &device_cache).unwrap();
        cache.insert(&first, &fleet, &config, &plan).unwrap();

        let resubmit = reparameterized(&first, salt);
        let (hit, quality) = cache
            .lookup(&resubmit, &fleet.keys(), &config)
            .expect("same structure must hit");
        let fresh = route_sharded(&resubmit, &fleet, &config, &device_cache).unwrap();
        prop_assert_eq!(hit.to_json().to_compact(), fresh.to_json().to_compact());
        prop_assert_eq!(
            quality.to_json().to_compact(),
            fresh.quality(&resubmit, &fleet).to_json().to_compact()
        );
        for (h, f) in hit.shards.iter().zip(&fresh.shards) {
            prop_assert_eq!(&h.result.best, &f.result.best);
        }
    }
}

// ---------------------------------------------------------------------
// Loopback e2e: POST /route_sharded against a live server.
// ---------------------------------------------------------------------

#[test]
fn route_sharded_endpoint_matches_direct_library_call() {
    let handle = sabre_serve::start(sabre_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..sabre_serve::ServeConfig::default()
    })
    .expect("start loopback server");
    let addr = handle.addr();

    // Register the two devices, then a named fleet over them.
    for id in ["chip-a", "chip-b"] {
        let (status, _) = post_json(
            addr,
            "/devices",
            &JsonValue::object([("id", id.into()), ("builtin", "tokyo20".into())]),
        );
        assert_eq!(status, 201);
    }
    let (status, registered) = post_json(
        addr,
        "/fleets",
        &JsonValue::object([
            ("id", "duo".into()),
            (
                "devices",
                JsonValue::array(["chip-a".into(), "chip-b".into()]),
            ),
        ]),
    );
    assert_eq!(status, 201, "{registered}");

    // A 26-qubit circuit: wider than one chip, fits the fleet.
    let circuit = random_circuit(26, 180, 0.8, 55);
    let seed = 4242u64;
    let body = JsonValue::object([
        ("fleet", "duo".into()),
        (
            "circuit",
            JsonValue::object([
                ("qasm", sabre_qasm::to_qasm(&circuit).into()),
                ("name", circuit.name().into()),
            ]),
        ),
        (
            "config",
            JsonValue::object([("seed", seed.into()), ("trials", 1u64.into())]),
        ),
        ("cut_cost", 25.0.into()),
    ]);
    let (status, response) = post_json(addr, "/route_sharded", &body);
    assert_eq!(status, 200, "{response}");
    assert_eq!(response.get("verified").unwrap().as_bool(), Some(true));
    assert_eq!(response.get("seed").unwrap().as_u64(), Some(seed));
    assert_eq!(response.get("plan_cache").unwrap().as_str(), Some("miss"));

    // The served plan must equal the direct library call byte for byte.
    let mut fleet = Fleet::new();
    fleet
        .register("chip-a", devices::ibm_q20_tokyo().graph().clone())
        .unwrap();
    fleet
        .register("chip-b", devices::ibm_q20_tokyo().graph().clone())
        .unwrap();
    let config = ShardConfig {
        sabre: SabreConfig {
            seed,
            num_restarts: 1,
            ..SabreConfig::default()
        },
        cut_cost: Some(25.0),
        ..ShardConfig::default()
    };
    let direct = route_sharded(&circuit, &fleet, &config, &DeviceCache::new()).unwrap();
    assert_eq!(
        response.get("plan").unwrap().to_compact(),
        direct.to_json().to_compact(),
        "served plan must be byte-identical to the direct library call"
    );
    let direct_quality = direct.quality(&circuit, &fleet).to_json().to_compact();
    assert_eq!(
        response.get("quality").unwrap().to_compact(),
        direct_quality
    );

    // An inline device list names the same fleet as the named one, so the
    // structure's proven plan answers it: a hit, equal to the direct call.
    let mut inline = body.clone();
    if let JsonValue::Object(pairs) = &mut inline {
        pairs.retain(|(k, _)| k != "fleet");
        pairs.insert(
            0,
            (
                "devices".into(),
                JsonValue::array(["chip-a".into(), "chip-b".into()]),
            ),
        );
    }
    let (status, via_devices) = post_json(addr, "/route_sharded", &inline);
    assert_eq!(status, 200);
    assert_eq!(via_devices.get("plan_cache").unwrap().as_str(), Some("hit"));
    assert_eq!(via_devices.get("verified").unwrap().as_bool(), Some(true));
    assert_eq!(
        via_devices.get("plan").unwrap().to_compact(),
        direct.to_json().to_compact(),
    );
    assert_eq!(
        via_devices.get("quality").unwrap().to_compact(),
        direct_quality
    );

    // Validation: unknown fleet, oversized circuit, bad cut cost.
    let (status, _) = post_json(
        addr,
        "/route_sharded",
        &JsonValue::object([
            ("fleet", "ghost".into()),
            (
                "circuit",
                JsonValue::object([("qasm", sabre_qasm::to_qasm(&circuit).into())]),
            ),
        ]),
    );
    assert_eq!(status, 404);
    let too_wide = random_circuit(60, 10, 0.8, 1);
    let (status, response) = post_json(
        addr,
        "/route_sharded",
        &JsonValue::object([
            ("fleet", "duo".into()),
            (
                "circuit",
                JsonValue::object([("qasm", sabre_qasm::to_qasm(&too_wide).into())]),
            ),
        ]),
    );
    assert_eq!(status, 422, "{response}");
    let (status, _) = post_json(
        addr,
        "/route_sharded",
        &JsonValue::object([
            ("fleet", "duo".into()),
            (
                "circuit",
                JsonValue::object([("qasm", sabre_qasm::to_qasm(&circuit).into())]),
            ),
            ("cut_cost", (-3.0).into()),
        ]),
    );
    assert_eq!(status, 400);

    handle.shutdown();
}
