//! The sharded-plan cache: see [`ShardedPlanCache`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use sabre::PlanCacheStats;
use sabre_circuit::fingerprint::Fingerprinter;
use sabre_circuit::{Circuit, Gate};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{BoundedLru, CouplingGraph};
use sabre_verify::{GateSite, VerifyError};

use crate::{CutGate, Fleet, ShardConfig, ShardedPlan, ShardedQuality};

/// One fleet member as a sharded-plan key reads it.
#[derive(Clone, Copy, Debug)]
pub struct MemberKey<'a> {
    /// The member's id.
    pub id: &'a str,
    /// The member's coupling graph.
    pub graph: &'a CouplingGraph,
    /// The member's calibration, when it routes noise-aware.
    pub noise: Option<&'a NoiseModel>,
}

/// A stored member: what a hit compares a [`MemberKey`] with.
#[derive(Debug)]
struct StoredMember {
    id: String,
    graph: Arc<CouplingGraph>,
    noise: Option<NoiseModel>,
}

impl StoredMember {
    fn matches(&self, key: &MemberKey<'_>) -> bool {
        self.id == key.id
            && (std::ptr::eq(&*self.graph, key.graph) || *self.graph == *key.graph)
            && self.noise.as_ref() == key.noise
    }
}

/// A proven sharded plan for one circuit structure on one fleet.
#[derive(Debug)]
struct CachedPlan {
    /// The circuit the plan was routed from; hits verify structural
    /// equality against it.
    structure: Circuit,
    members: Vec<StoredMember>,
    config: ShardConfig,
    /// The plan, its shard results stripped of search telemetry so a
    /// rebind reports zero search steps.
    plan: ShardedPlan,
    /// `(original gate index, site)` for every structure gate that carries
    /// parameters, from the insert-time proof.
    param_slots: Vec<(u32, GateSite)>,
    /// Scored once at insert; angles change no part of it.
    quality: ShardedQuality,
}

impl CachedPlan {
    fn answers(&self, circuit: &Circuit, members: &[MemberKey<'_>], config: &ShardConfig) -> bool {
        self.structure.same_structure(circuit)
            && self.members.len() == members.len()
            && self.members.iter().zip(members).all(|(m, k)| m.matches(k))
            && self.config.sabre.same_objective(&config.sabre)
            && self.config.cut_cost == config.cut_cost
    }

    /// Stamps `circuit`'s angles and name into a clone of the plan: the
    /// plan a fresh [`crate::route_sharded`] of `circuit` returns, found
    /// with zero search steps. `elapsed` is the rebind's wall time.
    fn rebind(&self, circuit: &Circuit) -> ShardedPlan {
        let start = Instant::now();
        let mut plan = self.plan.clone();
        let name = circuit.name();
        plan.circuit_name = name.to_string();
        for (s, shard) in plan.shards.iter_mut().enumerate() {
            shard
                .result
                .best
                .physical
                .set_name(format!("{name}/shard{s}"));
        }
        let gates = circuit.gates();
        for &(idx, site) in &self.param_slots {
            let params = *gates[idx as usize].params();
            match site {
                GateSite::Shard { shard, position } => plan.shards[shard]
                    .result
                    .best
                    .physical
                    .replace_params(position, params),
                GateSite::Cut(k) => plan.cuts[k].gate = plan.cuts[k].gate.with_params(params),
            }
        }
        plan.elapsed = start.elapsed();
        plan
    }

    fn approx_bytes(&self) -> usize {
        let gate = std::mem::size_of::<Gate>();
        let shard_gates: usize = self
            .plan
            .shards
            .iter()
            .map(|s| s.result.best.physical.num_gates())
            .sum();
        std::mem::size_of::<CachedPlan>()
            + (self.structure.num_gates() + shard_gates) * gate
            + self.plan.cuts.len() * std::mem::size_of::<CutGate>()
            + self.param_slots.len() * std::mem::size_of::<(u32, GateSite)>()
    }
}

/// The cache key: structure × fleet × objective, folded into one 64-bit
/// fingerprint (a bucket selector; every hit is re-verified).
fn plan_key(circuit: &Circuit, members: &[MemberKey<'_>], config: &ShardConfig) -> u64 {
    let mut fp = Fingerprinter::new("sabre/sharded-plan-key/v1");
    fp.write_u64(circuit.structural_digest(64));
    fp.write_u64(members.len() as u64);
    for member in members {
        fp.write_str(member.id);
        fp.write_u64(member.graph.fingerprint());
        match member.noise {
            Some(model) => {
                fp.write_u64(1);
                fp.write_u64(model.fingerprint());
            }
            None => fp.write_u64(0),
        }
    }
    config.sabre.write_objective(&mut fp);
    match config.cut_cost {
        Some(cost) => {
            fp.write_u64(1);
            fp.write_f64(cost);
        }
        None => fp.write_u64(0),
    }
    fp.finish()
}

/// Bounded-LRU cache of proven [`ShardedPlan`]s, shared across threads:
/// route, prove and score a sharded *structure* once, then serve every
/// re-parameterization by stamping its angles into the cached plan.
///
/// It follows [`sabre::PlanCache`]'s discipline, for the same reason:
/// partitioning reads only the interaction graph, and SABRE's search reads
/// only qubit operands and distances (paper §IV-D), never an angle. So two
/// circuits with the same structure shard and route to the same plan,
/// which differs only in the angles its gates carry.
///
/// - **Proof at insert.** [`ShardedPlanCache::insert`] proves the plan with
///   [`sabre_verify::verify_sharded`] and scores it once. That proof also
///   reports where each original gate executed (a shard and a routed
///   position, or a cut index), and the sites of the gates that carry
///   parameters become the plan's rebind slots. A plan that fails the
///   proof is never cached, and every hit inherits the proof of the plan
///   it rebinds.
/// - **Key.** One fingerprint folds [`Circuit::structural_digest`], each
///   member's id, graph fingerprint and noise fingerprint (in fleet order),
///   the objective fields of the per-shard [`sabre::SabreConfig`]
///   ([`sabre::SabreConfig::same_objective`]) and
///   [`ShardConfig::cut_cost`]. Effort knobs stay out of the key: `seed`,
///   restarts, traversals, the probe budget and
///   [`ShardConfig::max_refinement_passes`] change how hard the search
///   looks for a plan, not what a plan is worth.
/// - **Collisions.** Every hit is re-verified field by field; a mismatch is
///   a miss that routes fresh, never an alias.
/// - **Bound.** The entries live in a [`BoundedLru`]. A capacity of **0
///   disables the cache**: lookups return `None` without counting a miss,
///   and inserts prove and score but store nothing.
///
/// # Example
///
/// ```
/// use sabre::{DeviceCache, SabreConfig};
/// use sabre_shard::{route_sharded, Fleet, ShardConfig, ShardedPlanCache};
/// use sabre_topology::devices;
///
/// let mut fleet = Fleet::new();
/// fleet.register("tokyo-a", devices::ibm_q20_tokyo().graph().clone())?;
/// fleet.register("tokyo-b", devices::ibm_q20_tokyo().graph().clone())?;
/// let config = ShardConfig { sabre: SabreConfig::fast(), ..ShardConfig::default() };
/// let circuit = sabre_benchgen::random::random_circuit(30, 120, 0.8, 7);
///
/// let cache = ShardedPlanCache::with_capacity(16);
/// let plan = route_sharded(&circuit, &fleet, &config, &DeviceCache::new())?;
/// cache.insert(&circuit, &fleet, &config, &plan).expect("the plan proves out");
///
/// let (hit, _quality) = cache
///     .lookup(&circuit, &fleet.keys(), &config)
///     .expect("same structure must hit");
/// assert_eq!(hit.to_json(), plan.to_json());
/// # Ok::<(), sabre_shard::ShardError>(())
/// ```
#[derive(Debug)]
pub struct ShardedPlanCache {
    entries: BoundedLru<u64, CachedPlan>,
}

impl ShardedPlanCache {
    /// An empty cache holding at most `capacity` plans (0 = disabled).
    pub fn with_capacity(capacity: usize) -> Self {
        ShardedPlanCache {
            entries: BoundedLru::new(capacity),
        }
    }

    /// Looks up a plan for `circuit`'s structure on the fleet `members`
    /// (in fleet order, see [`Fleet::keys`]) under `config` and, on a
    /// verified hit, returns it rebound to `circuit`'s angles and name,
    /// with the plan's quality. `None` on a miss, a collision bypass, or
    /// when the cache is disabled.
    pub fn lookup(
        &self,
        circuit: &Circuit,
        members: &[MemberKey<'_>],
        config: &ShardConfig,
    ) -> Option<(ShardedPlan, ShardedQuality)> {
        if self.entries.capacity() == 0 {
            return None;
        }
        let entry = self
            .entries
            .get(&plan_key(circuit, members, config), |entry| {
                entry.answers(circuit, members, config)
            })?;
        Some((entry.rebind(circuit), entry.quality.clone()))
    }

    /// Proves a fresh sharded route of `circuit` on `fleet` and caches it.
    ///
    /// The proof is [`ShardedPlan::verify`]; on success the plan is scored
    /// once and its [`ShardedQuality`] returned, also at capacity 0, where
    /// nothing is stored. An existing entry under the same key is kept
    /// (the first insert wins).
    ///
    /// # Errors
    ///
    /// The verifier's error when `plan` does not faithfully route `circuit`
    /// on `fleet`; nothing is cached and no counter moves.
    pub fn insert(
        &self,
        circuit: &Circuit,
        fleet: &Fleet,
        config: &ShardConfig,
        plan: &ShardedPlan,
    ) -> Result<ShardedQuality, VerifyError> {
        let proof = plan.verify(circuit, fleet)?;
        let quality = plan.quality(circuit, fleet);
        if self.entries.capacity() == 0 {
            return Ok(quality);
        }
        let param_slots = circuit
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, gate)| !gate.params().is_empty())
            .map(|(idx, _)| (idx as u32, proof.executed_at[idx]))
            .collect();
        let mut skeleton = plan.clone();
        for shard in &mut skeleton.shards {
            shard.result.traversals = Vec::new();
            shard.result.profile = None;
            shard.result.elapsed = Duration::ZERO;
        }
        let entry = CachedPlan {
            structure: circuit.clone(),
            members: fleet
                .members()
                .iter()
                .map(|m| StoredMember {
                    id: m.id().to_string(),
                    graph: Arc::clone(m.graph()),
                    noise: m.noise().cloned(),
                })
                .collect(),
            config: *config,
            plan: skeleton,
            param_slots,
            quality: quality.clone(),
        };
        self.entries
            .insert(plan_key(circuit, &fleet.keys(), config), entry);
        Ok(quality)
    }

    /// A snapshot of the hit/miss/eviction counters and size gauges.
    /// Sums the resident plans' sizes: `O(capacity)`, for scrapes.
    pub fn stats(&self) -> PlanCacheStats {
        let counts = self.entries.stats();
        let resident = self.entries.snapshot();
        PlanCacheStats {
            hits: counts.hits,
            misses: counts.misses,
            evictions: counts.evictions,
            entries: resident.len(),
            approx_bytes: resident
                .iter()
                .map(|(_, plan)| plan.approx_bytes() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_sharded;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sabre::{DeviceCache, SabreConfig};
    use sabre_circuit::Qubit;
    use sabre_topology::devices;

    /// A 26-qubit circuit (wider than one Tokyo) whose structure depends
    /// only on `seed` and whose angles only on `theta`. Its two-qubit gates
    /// mix CX with angle-carrying RZZ and CP, so cut gates carry angles.
    fn wide(seed: u64, theta: f64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::with_name(26, format!("wide{seed}"));
        for k in 0..160 {
            let angle = theta + k as f64 * 0.01;
            let a = rng.gen_range(0..26u32);
            let b = (a + rng.gen_range(1..26u32)) % 26;
            let (a, b) = (Qubit(a), Qubit(b));
            match rng.gen_range(0..5) {
                0 => c.cx(a, b),
                1 => c.rzz(a, b, angle),
                2 => c.cp(a, b, angle),
                3 => c.rz(a, angle),
                _ => c.h(a),
            }
        }
        c
    }

    /// Two Tokyo chips, calibrated with noise seeds `noise` when given.
    fn fleet(noise: Option<(u64, u64)>) -> Fleet {
        let tokyo = devices::ibm_q20_tokyo().graph().clone();
        let mut fleet = Fleet::new();
        match noise {
            Some((a, b)) => {
                for (id, seed) in [("tokyo-a", a), ("tokyo-b", b)] {
                    let model = NoiseModel::calibrated(&tokyo, 0.02, 4.0, seed);
                    fleet.register_with_noise(id, tokyo.clone(), model).unwrap();
                }
            }
            None => {
                fleet.register("tokyo-a", tokyo.clone()).unwrap();
                fleet.register("tokyo-b", tokyo).unwrap();
            }
        }
        fleet
    }

    fn config(seed: u64) -> ShardConfig {
        ShardConfig {
            sabre: SabreConfig {
                seed,
                ..SabreConfig::fast()
            },
            ..ShardConfig::default()
        }
    }

    fn route(circuit: &Circuit, fleet: &Fleet, config: &ShardConfig) -> ShardedPlan {
        route_sharded(circuit, fleet, config, &DeviceCache::new()).unwrap()
    }

    /// A cache holding the proven plan of `wide(1, 0.0)` on `fleet`.
    fn cache_with_one(fleet: &Fleet, config: &ShardConfig) -> ShardedPlanCache {
        let cache = ShardedPlanCache::with_capacity(8);
        let first = wide(1, 0.0);
        cache
            .insert(&first, fleet, config, &route(&first, fleet, config))
            .unwrap();
        cache
    }

    #[test]
    fn a_hit_equals_a_fresh_route_of_the_new_angles() {
        for noise in [None, Some((1, 2))] {
            let (fleet, config) = (fleet(noise), config(5));
            let cache = cache_with_one(&fleet, &config);
            let mut resubmit = wide(1, 2.5);
            resubmit.set_name("resubmitted");
            let (hit, quality) = cache
                .lookup(&resubmit, &fleet.keys(), &config)
                .expect("same structure must hit");
            let fresh = route(&resubmit, &fleet, &config);
            assert!(
                !fresh.cuts.is_empty() && fresh.cuts.iter().any(|c| !c.gate.params().is_empty())
            );
            assert_eq!(hit.to_json().to_compact(), fresh.to_json().to_compact());
            assert_eq!(hit.cuts, fresh.cuts);
            for (h, f) in hit.shards.iter().zip(&fresh.shards) {
                assert_eq!(h.result.best, f.result.best);
                assert_eq!(h.result.total_search_steps(), 0, "a hit searches nothing");
            }
            assert_eq!(quality, fresh.quality(&resubmit, &fleet));
            assert_eq!(cache.stats().hits, 1);
        }
    }

    /// Hands `plan` to `insert` at capacity 8 (beside one resident,
    /// once-hit plan) and at capacity 0: each must return exactly the
    /// verifier's error, cache nothing and leave every counter unchanged.
    fn assert_rejected(fleet: &Fleet, circuit: &Circuit, plan: &ShardedPlan) -> VerifyError {
        let config = config(5);
        let expected = plan
            .verify(circuit, fleet)
            .expect_err("the corrupted plan must fail the proof");
        for capacity in [8, 0] {
            let cache = ShardedPlanCache::with_capacity(capacity);
            if capacity > 0 {
                let other = wide(9, 0.0);
                cache
                    .insert(&other, fleet, &config, &route(&other, fleet, &config))
                    .unwrap();
                assert!(cache.lookup(&other, &fleet.keys(), &config).is_some());
            }
            let before = cache.stats();
            let err = cache.insert(circuit, fleet, &config, plan).unwrap_err();
            assert_eq!(err, expected, "capacity {capacity}");
            assert_eq!(cache.stats(), before, "capacity {capacity}");
            assert_eq!(
                cache.stats().entries,
                capacity.min(1),
                "capacity {capacity}"
            );
        }
        expected
    }

    /// The proven plan of `wide(1, 0.0)` on an uncalibrated fleet.
    fn faithful() -> (Fleet, Circuit, ShardedPlan) {
        let fleet = fleet(None);
        let circuit = wide(1, 0.0);
        let plan = route(&circuit, &fleet, &config(5));
        assert!(!plan.cuts.is_empty(), "test needs cut gates");
        (fleet, circuit, plan)
    }

    #[test]
    fn insert_rejects_a_dropped_cut() {
        let (fleet, circuit, mut plan) = faithful();
        plan.cuts.remove(0);
        let err = assert_rejected(&fleet, &circuit, &plan);
        assert!(
            matches!(err, VerifyError::CutScheduleMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn insert_rejects_a_gate_on_an_uncoupled_pair() {
        let (fleet, circuit, mut plan) = faithful();
        let graph = fleet.members()[plan.shards[0].fleet_index].graph();
        let uncoupled = (1..graph.num_qubits())
            .map(Qubit)
            .find(|&q| !graph.are_coupled(Qubit(0), q))
            .unwrap();
        let physical = &plan.shards[0].result.best.physical;
        let mut gates = physical.gates().to_vec();
        let first_cx = gates.iter().position(|g| g.qubits().1.is_some()).unwrap();
        gates[first_cx] = Gate::cx(Qubit(0), uncoupled);
        let mut moved = Circuit::with_name(physical.num_qubits(), physical.name());
        gates.into_iter().for_each(|g| moved.push(g));
        plan.shards[0].result.best.physical = moved;
        match assert_rejected(&fleet, &circuit, &plan) {
            VerifyError::Shard { shard: 0, source } => {
                assert!(
                    matches!(*source, VerifyError::UncoupledGate { .. }),
                    "{source}"
                );
            }
            other => panic!("expected shard 0's coupling failure, got {other}"),
        }
    }

    #[test]
    fn insert_rejects_a_wrong_assignment() {
        let (fleet, circuit, mut plan) = faithful();
        let stolen = plan.shards[0].logical_qubits[0];
        plan.shards[1].logical_qubits[0] = stolen;
        let err = assert_rejected(&fleet, &circuit, &plan);
        assert!(matches!(err, VerifyError::ShardAssignment { .. }), "{err}");
    }

    #[test]
    fn each_part_of_the_question_separates_the_key() {
        let (noisy, routed_under) = (fleet(Some((1, 2))), config(5));
        let cache = cache_with_one(&noisy, &routed_under);
        let circuit = wide(1, 0.7);
        assert!(cache
            .lookup(&circuit, &noisy.keys(), &routed_under)
            .is_some());

        let mut reordered = noisy.keys();
        reordered.reverse();
        let refreshed = fleet(Some((1, 3)));
        let ignore_noise = fleet(None);
        let misses: [(&str, Vec<MemberKey<'_>>, ShardConfig); 5] = [
            ("fleet order", reordered, routed_under),
            ("refreshed noise", refreshed.keys(), routed_under),
            ("ignore_noise", ignore_noise.keys(), routed_under),
            (
                "cut_cost",
                noisy.keys(),
                ShardConfig {
                    cut_cost: Some(25.0),
                    ..routed_under
                },
            ),
            (
                "objective",
                noisy.keys(),
                ShardConfig {
                    sabre: SabreConfig {
                        extended_set_weight: 0.25,
                        ..routed_under.sabre
                    },
                    ..routed_under
                },
            ),
        ];
        for (what, members, config) in &misses {
            assert!(
                cache.lookup(&circuit, members, config).is_none(),
                "{what} must miss"
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, misses.len() as u64));
    }

    #[test]
    fn effort_knobs_share_a_plan() {
        let (fleet, routed_under) = (fleet(None), config(5));
        let cache = cache_with_one(&fleet, &routed_under);
        let stored = route(&wide(1, 0.0), &fleet, &routed_under).to_json();
        let other_effort = ShardConfig {
            sabre: SabreConfig {
                seed: 777,
                num_restarts: 9,
                num_traversals: 1,
                embedding_probe_budget: 0,
                ..routed_under.sabre
            },
            max_refinement_passes: 2,
            ..routed_under
        };
        let (hit, _) = cache
            .lookup(&wide(1, 0.0), &fleet.keys(), &other_effort)
            .expect("effort knobs stay out of the key");
        assert_eq!(hit.to_json(), stored);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let (fleet, circuit, plan) = faithful();
        let cache = ShardedPlanCache::with_capacity(0);
        let quality = cache
            .insert(&circuit, &fleet, &config(5), &plan)
            .expect("a disabled cache still proves and scores");
        assert_eq!(quality, plan.quality(&circuit, &fleet));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(&circuit, &fleet.keys(), &config(5)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "disabled = uncounted");
    }

    #[test]
    fn a_fingerprint_collision_is_a_bypass() {
        let (fleet, config) = (fleet(None), config(5));
        let cache = cache_with_one(&fleet, &config);
        let keys = fleet.keys();
        let resident = cache
            .entries
            .get(&plan_key(&wide(1, 0.0), &keys, &config), |_| true)
            .unwrap();
        // Plant that plan under the key of a different structure.
        let other = wide(2, 0.0);
        cache
            .entries
            .insert(plan_key(&other, &keys, &config), resident);
        let before = cache.stats();
        assert!(cache.lookup(&other, &keys, &config).is_none());
        let after = cache.stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.entries, 2, "the colliding plan stays resident");
    }
}
