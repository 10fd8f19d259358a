//! The device fleet: the set of machines a sharded plan may route onto.

use std::sync::Arc;

use sabre_topology::noise::NoiseModel;
use sabre_topology::CouplingGraph;

use crate::{MemberKey, ShardError};

/// One registered machine of a [`Fleet`]: its coupling graph plus the
/// currently active calibration, if any.
#[derive(Clone, Debug)]
pub struct FleetMember {
    id: String,
    graph: Arc<CouplingGraph>,
    noise: Option<NoiseModel>,
    /// Computed once at registration: graph and calibration are
    /// immutable afterwards, and per-request callers (the service builds
    /// a fleet per `/route_sharded`) read it for every member.
    score: f64,
}

impl FleetMember {
    /// The member's identifier (unique within its fleet).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The member's coupling graph.
    pub fn graph(&self) -> &Arc<CouplingGraph> {
        &self.graph
    }

    /// The member's calibration, when registered noise-aware.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// Hardware-aware routing-difficulty score (Niu et al.-style cost
    /// weighting): the mean shortest-path hop distance over all qubit
    /// pairs, inflated by the mean two-qubit error when a calibration is
    /// attached. Lower is better; the partitioner prefers low-score
    /// devices when placing shards and prices intra-shard gates with this
    /// number. A disconnected device scores `+∞` so it is only ever
    /// chosen when capacity forces it (and routing then reports the
    /// disconnection). Computed once at registration.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The score computation behind [`FleetMember::score`].
    ///
    /// Streams one BFS frontier per source instead of materializing an
    /// all-pairs matrix, so registering a kilo-qubit member costs `O(N)`
    /// memory. The upper-triangle accumulation order (ascending `a`,
    /// then ascending `b > a`) matches summing over a dense all-pairs hop
    /// matrix, so scores are bit-identical to that formulation.
    fn compute_score(graph: &CouplingGraph, noise: Option<&NoiseModel>) -> f64 {
        let n = graph.num_qubits();
        let mut sum = 0.0;
        let mut pairs = 0u64;
        for a in 0..n {
            let row = graph.bfs_distances(sabre_topology::Qubit(a));
            for b in (a + 1)..n {
                let d = row[b as usize];
                if d == u32::MAX {
                    return f64::INFINITY;
                }
                sum += f64::from(d);
                pairs += 1;
            }
        }
        let mean_dist = if pairs == 0 { 1.0 } else { sum / pairs as f64 };
        let noise_factor = match noise {
            Some(model) => {
                let edges = graph.edges();
                let mean_error = if edges.is_empty() {
                    0.0
                } else {
                    edges
                        .iter()
                        .map(|&(a, b)| model.edge_error(a, b))
                        .sum::<f64>()
                        / edges.len() as f64
                };
                1.0 + 10.0 * mean_error
            }
            None => 1.0,
        };
        mean_dist * noise_factor
    }
}

/// A registry of devices available for sharded routing. Members keep
/// registration order; every routing call shares preprocessing through
/// the caller's [`sabre::DeviceCache`], so a fleet is cheap to rebuild
/// (e.g. per request in a service) as long as the cache lives on.
///
/// # Example
///
/// ```
/// use sabre_shard::Fleet;
/// use sabre_topology::devices;
///
/// let mut fleet = Fleet::new();
/// fleet.register("tokyo-a", devices::ibm_q20_tokyo().graph().clone())?;
/// fleet.register("tokyo-b", devices::ibm_q20_tokyo().graph().clone())?;
/// assert_eq!(fleet.total_qubits(), 40);
/// assert_eq!(fleet.max_member_qubits(), 20);
/// # Ok::<(), sabre_shard::ShardError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Fleet {
    members: Vec<FleetMember>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Fleet::default()
    }

    /// Registers a device under `id` with hop-distance routing. Accepts
    /// an owned graph or an `Arc` share (a service passes its registry's
    /// `Arc` without cloning the graph).
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidMember`] when the id is empty or already
    /// registered.
    pub fn register(
        &mut self,
        id: &str,
        graph: impl Into<Arc<CouplingGraph>>,
    ) -> Result<(), ShardError> {
        self.register_member(id, graph.into(), None)
    }

    /// Registers a device under `id` with a calibration; its shard routes
    /// noise-aware (weighted matrices come warm from the device cache).
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidMember`] when the id is empty or already
    /// registered.
    pub fn register_with_noise(
        &mut self,
        id: &str,
        graph: impl Into<Arc<CouplingGraph>>,
        noise: NoiseModel,
    ) -> Result<(), ShardError> {
        self.register_member(id, graph.into(), Some(noise))
    }

    fn register_member(
        &mut self,
        id: &str,
        graph: Arc<CouplingGraph>,
        noise: Option<NoiseModel>,
    ) -> Result<(), ShardError> {
        if id.is_empty() {
            return Err(ShardError::InvalidMember {
                reason: "member id must be non-empty".into(),
            });
        }
        if self.members.iter().any(|m| m.id == id) {
            return Err(ShardError::InvalidMember {
                reason: format!("member id `{id}` is already registered"),
            });
        }
        let score = FleetMember::compute_score(&graph, noise.as_ref());
        self.members.push(FleetMember {
            id: id.to_string(),
            graph,
            noise,
            score,
        });
        Ok(())
    }

    /// The members in registration order.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// Each member's id, graph and calibration in registration order: the
    /// fleet as a [`ShardedPlanCache`](crate::ShardedPlanCache) key reads
    /// it.
    pub fn keys(&self) -> Vec<MemberKey<'_>> {
        self.members
            .iter()
            .map(|m| MemberKey {
                id: &m.id,
                graph: &m.graph,
                noise: m.noise.as_ref(),
            })
            .collect()
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no member is registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total physical qubits across the fleet — the hard capacity bound
    /// for sharded routing.
    pub fn total_qubits(&self) -> u32 {
        self.members.iter().map(|m| m.graph.num_qubits()).sum()
    }

    /// The widest single member — circuits at or below this width fit on
    /// one chip; wider circuits *must* shard.
    pub fn max_member_qubits(&self) -> u32 {
        self.members
            .iter()
            .map(|m| m.graph.num_qubits())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_topology::devices;

    #[test]
    fn registration_rejects_duplicates_and_empty_ids() {
        let mut fleet = Fleet::new();
        fleet
            .register("a", devices::linear(3).graph().clone())
            .unwrap();
        assert!(fleet
            .register("a", devices::ring(4).graph().clone())
            .is_err());
        assert!(fleet
            .register("", devices::ring(4).graph().clone())
            .is_err());
        assert_eq!(fleet.len(), 1);
    }

    #[test]
    fn capacity_accounting() {
        let mut fleet = Fleet::new();
        fleet
            .register("a", devices::linear(3).graph().clone())
            .unwrap();
        fleet
            .register("b", devices::grid(2, 3).graph().clone())
            .unwrap();
        assert_eq!(fleet.total_qubits(), 9);
        assert_eq!(fleet.max_member_qubits(), 6);
        assert!(!fleet.is_empty());
    }

    #[test]
    fn denser_devices_score_lower() {
        let mut fleet = Fleet::new();
        fleet
            .register("line", devices::linear(8).graph().clone())
            .unwrap();
        fleet
            .register("full", devices::complete(8).graph().clone())
            .unwrap();
        let line = fleet.members()[0].score();
        let full = fleet.members()[1].score();
        assert!(full < line, "complete graph ({full}) vs line ({line})");
        assert_eq!(full, 1.0); // every pair adjacent
    }

    #[test]
    fn noise_inflates_the_score() {
        let graph = devices::ring(6).graph().clone();
        let noise = NoiseModel::uniform(&graph, 0.05, 0.001);
        let mut fleet = Fleet::new();
        fleet.register("clean", graph.clone()).unwrap();
        fleet.register_with_noise("noisy", graph, noise).unwrap();
        assert!(fleet.members()[1].score() > fleet.members()[0].score());
    }

    #[test]
    fn disconnected_devices_score_infinite() {
        let graph = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut fleet = Fleet::new();
        fleet.register("split", graph).unwrap();
        assert!(fleet.members()[0].score().is_infinite());
    }
}
