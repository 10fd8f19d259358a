//! # sabre_shard — multi-device sharded routing
//!
//! The paper's scope — and every router in `sabre` — ends at one device:
//! a circuit with more logical qubits than the chip has physical qubits
//! is simply an error. NISQ capacity growth is multi-chip, so this crate
//! adds the missing layer: given a [`Fleet`] of coupling graphs, a
//! circuit **wider than any single member** is
//!
//! 1. **partitioned** — a deterministic, seedable min-cut refinement over
//!    the circuit's interaction graph assigns every logical qubit to a
//!    shard no wider than its device, pricing inter-shard interactions at
//!    a configurable [`ShardConfig::cut_cost`] against each device's
//!    noise-weighted difficulty ([`FleetMember::score`]);
//! 2. **routed per shard** — each shard's local sub-circuit runs through
//!    the existing cached routing engine ([`sabre::DeviceCache`] +
//!    the incremental search state), shards in parallel on the rayon
//!    pool;
//! 3. **stitched** — the result is a [`ShardedPlan`]: per-shard
//!    [`sabre::RoutedCircuit`]s plus an explicit [`CutGate`] schedule
//!    recording where every cross-shard gate synchronizes, with a modeled
//!    cut cost.
//!
//! [`ShardedPlan::verify`] (backed by [`sabre_verify::verify_sharded`])
//! proves the plan: every per-shard gate respects its device's coupling
//! and the stitched plan is semantically equivalent to the input.
//! [`ShardedPlanCache`] proves and scores a plan once, then serves each
//! re-parameterization of its structure by re-binding the angles.
//!
//! Everything is **bit-deterministic** for a fixed seed, independent of
//! thread count: the partitioner is single-threaded with seeded
//! tie-breaking, per-shard routing inherits the engine's determinism, and
//! results are reduced in shard order.
//!
//! # Example
//!
//! ```
//! use sabre::{DeviceCache, SabreConfig};
//! use sabre_shard::{route_sharded, Fleet, ShardConfig};
//! use sabre_topology::devices;
//!
//! // A 30-qubit circuit cannot fit either 20-qubit Tokyo chip alone.
//! let mut fleet = Fleet::new();
//! fleet.register("tokyo-a", devices::ibm_q20_tokyo().graph().clone())?;
//! fleet.register("tokyo-b", devices::ibm_q20_tokyo().graph().clone())?;
//! let circuit = sabre_benchgen::random::random_circuit(30, 120, 0.8, 7);
//!
//! let cache = DeviceCache::new();
//! let config = ShardConfig {
//!     sabre: SabreConfig::fast(),
//!     ..ShardConfig::default()
//! };
//! let plan = route_sharded(&circuit, &fleet, &config, &cache)?;
//! assert_eq!(plan.shards.len(), 2);
//! plan.verify(&circuit, &fleet).expect("plan must prove out");
//! # Ok::<(), sabre_shard::ShardError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fleet;
pub mod partition;
mod plan;

pub use cache::{MemberKey, ShardedPlanCache};
pub use fleet::{Fleet, FleetMember};
pub use partition::{partition, partition_cost, shard_qubits, Partition, ShardSpec};
pub use plan::{CutGate, ShardQuality, ShardRoute, ShardedPlan, ShardedQuality};

use std::error::Error;
use std::fmt;
use std::time::Instant;

use rayon::prelude::*;
use sabre::{DeviceCache, RouteError, SabreConfig, SabreResult};
use sabre_circuit::interaction::InteractionGraph;
use sabre_circuit::{Circuit, Qubit};

/// Tunable knobs of sharded routing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Per-shard routing configuration; its `seed` also seeds the
    /// partitioner's tie-breaking.
    pub sabre: SabreConfig,
    /// Price of one cross-shard interaction in the partitioner's cost
    /// model, in the same units as a device score (mean noise-weighted
    /// SWAP distance per local gate). `None` (the default) auto-prices
    /// cuts at **twice the most difficult selected device's score**, so
    /// the partitioner behaves as a plain minimum cut on *any* fleet —
    /// an absolute default would invert the objective on large sparse
    /// devices whose mean distance exceeds it. Set an explicit value to
    /// override: below a device's score, cuts become cheaper than local
    /// routing there and the partitioner trades them against pressure on
    /// congested or noisy chips.
    pub cut_cost: Option<f64>,
    /// Maximum KL/FM refinement passes over the assignment.
    pub max_refinement_passes: usize,
}

/// Auto-pricing multiplier: cuts default to this factor times the most
/// difficult selected device's score (strictly above 1 ⇒ min-cut regime).
const AUTO_CUT_COST_FACTOR: f64 = 2.0;
/// Absolute fallback cut price when no selected device has a finite
/// score (degenerate fleets; routing fails on them anyway).
const FALLBACK_CUT_COST: f64 = 30.0;

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            sabre: SabreConfig::default(),
            cut_cost: None,
            max_refinement_passes: 8,
        }
    }
}

impl ShardConfig {
    /// Validates parameter ranges (including the embedded
    /// [`SabreConfig`]).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(cut_cost) = self.cut_cost {
            if !cut_cost.is_finite() || cut_cost <= 0.0 {
                return Err(format!(
                    "cut_cost must be a positive finite number, got {cut_cost}"
                ));
            }
        }
        self.sabre.validate()
    }
}

/// Everything that can go wrong when routing across a fleet.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ShardError {
    /// The fleet has no members.
    EmptyFleet,
    /// The circuit needs more qubits than the whole fleet provides.
    FleetTooSmall {
        /// Logical qubits required.
        required: u32,
        /// Physical qubits across all members.
        available: u32,
    },
    /// A member registration was rejected.
    InvalidMember {
        /// Why.
        reason: String,
    },
    /// The [`ShardConfig`] was out of range.
    InvalidConfig {
        /// Description of the offending field.
        reason: String,
    },
    /// Routing one shard failed.
    Route {
        /// Index of the failing shard in the plan.
        shard: usize,
        /// Fleet member id of the shard's device.
        member: String,
        /// The underlying routing error.
        source: RouteError,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::EmptyFleet => write!(f, "the fleet has no registered devices"),
            ShardError::FleetTooSmall {
                required,
                available,
            } => write!(
                f,
                "circuit needs {required} qubits but the whole fleet has only {available}"
            ),
            ShardError::InvalidMember { reason } => write!(f, "invalid fleet member: {reason}"),
            ShardError::InvalidConfig { reason } => {
                write!(f, "invalid shard configuration: {reason}")
            }
            ShardError::Route {
                shard,
                member,
                source,
            } => write!(f, "routing shard {shard} on `{member}` failed: {source}"),
        }
    }
}

impl Error for ShardError {}

/// Routes `circuit` across `fleet`, sharding it if (and only as much as)
/// necessary: the partitioner runs over the **minimal** set of devices
/// that can hold the circuit — largest first, ties broken toward lower
/// [`FleetMember::score`], then registration order — so a circuit that
/// fits one chip produces a one-shard plan with an empty cut schedule,
/// and a wider one spreads over exactly as many chips as it needs.
///
/// Per-shard preprocessing comes warm from `cache` (share one per
/// process, exactly like the serving layer does), and shards route
/// concurrently on the rayon pool. The returned [`ShardedPlan`] is
/// bit-identical for a fixed `config.sabre.seed` regardless of thread
/// count.
///
/// # Errors
///
/// [`ShardError::FleetTooSmall`] when the fleet cannot hold the circuit,
/// [`ShardError::InvalidConfig`] for bad knobs, and
/// [`ShardError::Route`] when a shard's device rejects routing (e.g. a
/// disconnected coupling graph).
pub fn route_sharded(
    circuit: &Circuit,
    fleet: &Fleet,
    config: &ShardConfig,
    cache: &DeviceCache,
) -> Result<ShardedPlan, ShardError> {
    config
        .validate()
        .map_err(|reason| ShardError::InvalidConfig { reason })?;
    if fleet.is_empty() {
        return Err(ShardError::EmptyFleet);
    }
    let start = Instant::now();
    let width = circuit.num_qubits();
    let selected = select_members(fleet, width)?;

    // Partition the interaction graph across the selected devices. The
    // effective cut price must exceed every selected device's score or
    // the objective inverts (separating interacting qubits would *lower*
    // cost) — auto-price relative to the selection unless the caller set
    // an explicit value.
    let interaction = InteractionGraph::of(circuit);
    let specs: Vec<ShardSpec> = selected
        .iter()
        .map(|&(index, score)| ShardSpec {
            capacity: fleet.members()[index].graph().num_qubits(),
            score,
        })
        .collect();
    let max_finite_score = selected
        .iter()
        .map(|&(_, score)| score)
        .filter(|score| score.is_finite())
        .fold(0.0f64, f64::max);
    let cut_cost = config.cut_cost.unwrap_or(if max_finite_score > 0.0 {
        AUTO_CUT_COST_FACTOR * max_finite_score
    } else {
        FALLBACK_CUT_COST
    });
    let parts = partition(
        &interaction,
        &specs,
        cut_cost,
        config.max_refinement_passes,
        config.sabre.seed,
    );

    // Drop shards the refinement emptied, then split the circuit into
    // local streams and the cut schedule.
    let (occupied, assignment) = compact_assignment(&parts.assignment, specs.len());
    let shard_members: Vec<usize> = occupied.iter().map(|&s| selected[s].0).collect();
    let qubits_per_shard = shard_qubits(&assignment, shard_members.len());
    let (locals, cuts) = split_circuit(circuit, &assignment, &qubits_per_shard);

    // Route every shard concurrently through the shared cache. Reduced
    // in shard order, so the outcome is thread-count independent.
    let work: Vec<(usize, &Circuit)> = shard_members
        .iter()
        .zip(&locals)
        .map(|(&member, local)| (member, local))
        .collect();
    let results: Vec<Result<SabreResult, RouteError>> = work
        .par_iter()
        .map(|&(member_index, local)| {
            let member = &fleet.members()[member_index];
            let router = match member.noise() {
                Some(noise) => cache.router_with_noise(member.graph(), config.sabre, noise)?,
                None => cache.router(member.graph(), config.sabre)?,
            };
            router.route(local)
        })
        .collect();

    let mut shards = Vec::with_capacity(results.len());
    for (shard, ((result, member_index), logical_qubits)) in results
        .into_iter()
        .zip(&shard_members)
        .zip(qubits_per_shard)
        .enumerate()
    {
        let member = &fleet.members()[*member_index];
        let result = result.map_err(|source| ShardError::Route {
            shard,
            member: member.id().to_string(),
            source,
        })?;
        shards.push(ShardRoute {
            member: member.id().to_string(),
            fleet_index: *member_index,
            logical_qubits,
            result,
        });
    }

    Ok(ShardedPlan {
        circuit_name: circuit.name().to_string(),
        num_qubits: width,
        shards,
        cuts,
        cut_cost,
        elapsed: start.elapsed(),
    })
}

/// Picks the minimal device subset that can hold `width` qubits; returns
/// `(fleet index, score)` per selected member in selection order.
fn select_members(fleet: &Fleet, width: u32) -> Result<Vec<(usize, f64)>, ShardError> {
    let mut ranked: Vec<(usize, u32, f64)> = fleet
        .members()
        .iter()
        .enumerate()
        .map(|(index, member)| (index, member.graph().num_qubits(), member.score()))
        .collect();
    // Largest capacity first (fewest shards), then easiest device, then
    // registration order. Scores are finite-or-+∞, so total_cmp is a
    // proper order.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.total_cmp(&b.2)).then(a.0.cmp(&b.0)));
    let mut selected = Vec::new();
    let mut capacity = 0u64;
    for (index, qubits, score) in ranked {
        selected.push((index, score));
        capacity += u64::from(qubits);
        if capacity >= u64::from(width) {
            return Ok(selected);
        }
    }
    Err(ShardError::FleetTooSmall {
        required: width,
        available: fleet.total_qubits(),
    })
}

/// Renumbers shard indices so only occupied shards remain; returns the
/// kept original indices (in order) and the remapped assignment.
fn compact_assignment(assignment: &[usize], num_shards: usize) -> (Vec<usize>, Vec<usize>) {
    let mut occupied: Vec<usize> = (0..num_shards).filter(|s| assignment.contains(s)).collect();
    occupied.sort_unstable();
    let mut remap = vec![usize::MAX; num_shards];
    for (new, &old) in occupied.iter().enumerate() {
        remap[old] = new;
    }
    let remapped = assignment.iter().map(|&s| remap[s]).collect();
    (occupied, remapped)
}

/// Splits `circuit` under `assignment` into per-shard local circuits (on
/// shard-local wires) and the cross-shard cut schedule, both in program
/// order. The verifier re-derives this split independently
/// (`sabre_verify::sharded`); the two must agree or verification fails.
fn split_circuit(
    circuit: &Circuit,
    assignment: &[usize],
    qubits_per_shard: &[Vec<Qubit>],
) -> (Vec<Circuit>, Vec<CutGate>) {
    let mut local_index = vec![0u32; assignment.len()];
    for qubits in qubits_per_shard {
        for (local, q) in qubits.iter().enumerate() {
            local_index[q.index()] = local as u32;
        }
    }
    let mut locals: Vec<Circuit> = qubits_per_shard
        .iter()
        .enumerate()
        .map(|(s, qubits)| {
            Circuit::with_name(qubits.len() as u32, format!("{}/shard{s}", circuit.name()))
        })
        .collect();
    let mut cuts = Vec::new();
    for gate in circuit.iter() {
        let (a, b) = gate.qubits();
        match b {
            Some(b) if assignment[a.index()] != assignment[b.index()] => {
                let (shard_a, shard_b) = (assignment[a.index()], assignment[b.index()]);
                cuts.push(CutGate {
                    gate: *gate,
                    shard_a,
                    pos_a: locals[shard_a].num_gates(),
                    shard_b,
                    pos_b: locals[shard_b].num_gates(),
                });
            }
            _ => {
                let shard = assignment[a.index()];
                locals[shard].push(gate.map_qubits(|q| Qubit(local_index[q.index()])));
            }
        }
    }
    (locals, cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_benchgen::random::random_circuit;
    use sabre_topology::devices;

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

    fn fast_config() -> ShardConfig {
        ShardConfig {
            sabre: SabreConfig::fast(),
            ..ShardConfig::default()
        }
    }

    #[test]
    fn wide_circuit_shards_across_two_devices_and_verifies() {
        let fleet = two_tokyo_fleet();
        let cache = DeviceCache::new();
        let circuit = random_circuit(30, 200, 0.8, 11);
        let plan = route_sharded(&circuit, &fleet, &fast_config(), &cache).unwrap();
        assert_eq!(plan.shards.len(), 2, "{plan}");
        assert!(plan.cuts.is_empty() || plan.modeled_cut_cost() > 0.0);
        let report = plan.verify(&circuit, &fleet).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.gates_replayed, circuit.num_gates());
        assert_eq!(report.cut_gates, plan.cuts.len());
    }

    #[test]
    fn narrow_circuit_stays_on_one_device_with_no_cuts() {
        let fleet = two_tokyo_fleet();
        let cache = DeviceCache::new();
        let circuit = random_circuit(12, 60, 0.8, 3);
        let plan = route_sharded(&circuit, &fleet, &fast_config(), &cache).unwrap();
        assert_eq!(plan.shards.len(), 1);
        assert!(plan.cuts.is_empty());
        assert_eq!(plan.modeled_cut_cost(), 0.0);
        plan.verify(&circuit, &fleet).unwrap();
    }

    #[test]
    fn oversized_circuit_reports_fleet_capacity() {
        let fleet = two_tokyo_fleet();
        let cache = DeviceCache::new();
        let circuit = random_circuit(50, 40, 0.8, 5);
        assert_eq!(
            route_sharded(&circuit, &fleet, &fast_config(), &cache).unwrap_err(),
            ShardError::FleetTooSmall {
                required: 50,
                available: 40
            }
        );
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let cache = DeviceCache::new();
        let circuit = random_circuit(4, 10, 0.8, 1);
        assert_eq!(
            route_sharded(&circuit, &Fleet::new(), &fast_config(), &cache).unwrap_err(),
            ShardError::EmptyFleet
        );
    }

    #[test]
    fn invalid_cut_cost_is_rejected() {
        let fleet = two_tokyo_fleet();
        let cache = DeviceCache::new();
        let bad = ShardConfig {
            cut_cost: Some(0.0),
            ..fast_config()
        };
        assert!(matches!(
            route_sharded(&random_circuit(4, 10, 0.8, 1), &fleet, &bad, &cache),
            Err(ShardError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn plans_are_bit_identical_across_repeat_calls() {
        let fleet = two_tokyo_fleet();
        let cache = DeviceCache::new();
        let circuit = random_circuit(28, 150, 0.85, 23);
        let config = fast_config();
        let a = route_sharded(&circuit, &fleet, &config, &cache).unwrap();
        let b = route_sharded(&circuit, &fleet, &config, &cache).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn routing_error_names_the_failing_shard() {
        let mut fleet = Fleet::new();
        let disconnected = CouplingGraphFixture::disconnected();
        fleet.register("broken", disconnected).unwrap();
        fleet
            .register("ok", devices::linear(4).graph().clone())
            .unwrap();
        let cache = DeviceCache::new();
        // 8 qubits force both devices in, including the broken one.
        let circuit = random_circuit(8, 30, 0.8, 2);
        match route_sharded(&circuit, &fleet, &fast_config(), &cache).unwrap_err() {
            ShardError::Route { member, source, .. } => {
                assert_eq!(member, "broken");
                assert_eq!(source, RouteError::DisconnectedDevice);
            }
            other => panic!("expected a Route error, got {other:?}"),
        }
    }

    struct CouplingGraphFixture;
    impl CouplingGraphFixture {
        fn disconnected() -> sabre_topology::CouplingGraph {
            sabre_topology::CouplingGraph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap()
        }
    }
}
