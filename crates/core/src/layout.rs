use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;
use sabre_circuit::Qubit;
use sabre_topology::{CouplingGraph, DENSE_DISTANCE_THRESHOLD};

/// The mapping `π` between logical and physical qubits (paper Table I).
///
/// A `Layout` is a bijection over `0..N` where `N` is the device size.
/// Circuits with fewer than `N` logical qubits are padded with *virtual*
/// logical qubits (`n..N`) that occupy the remaining physical qubits; they
/// never appear in gates but keep the mapping a bijection, which is what
/// lets SWAPs be tracked uniformly.
///
/// Both directions are stored (`π` and `π⁻¹`), so lookups are `O(1)` and a
/// SWAP update is four writes — this is the data structure behind the
/// per-step `O(N)` complexity claimed in §IV-C1.
///
/// # Example
///
/// ```
/// use sabre::Layout;
/// use sabre_circuit::Qubit;
///
/// let mut layout = Layout::identity(4);
/// layout.swap_physical(Qubit(0), Qubit(3));
/// assert_eq!(layout.phys_of(Qubit(0)), Qubit(3));
/// assert_eq!(layout.phys_of(Qubit(3)), Qubit(0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    /// `log_to_phys[q] = Q` — logical `q` currently sits on physical `Q`.
    log_to_phys: Vec<Qubit>,
    /// `phys_to_log[Q] = q` — the inverse direction.
    phys_to_log: Vec<Qubit>,
}

impl Layout {
    /// The identity mapping on `n` qubits (`q_i ↦ Q_i`).
    pub fn identity(n: u32) -> Self {
        let ids: Vec<Qubit> = (0..n).map(Qubit).collect();
        Layout {
            log_to_phys: ids.clone(),
            phys_to_log: ids,
        }
    }

    /// A uniformly random bijection on `n` qubits — the paper's "randomly
    /// generate an initial mapping as a start point" (§IV-A).
    pub fn random(n: u32, rng: &mut StdRng) -> Self {
        let mut perm: Vec<Qubit> = (0..n).map(Qubit).collect();
        shuffle(&mut perm, rng);
        Layout::from_logical_to_physical(perm).expect("shuffled identity is a bijection")
    }

    /// The start point of one SABRE restart for a circuit of
    /// `num_logical` qubits on `graph`. Up to
    /// [`DENSE_DISTANCE_THRESHOLD`] physical qubits this is the paper's
    /// uniformly random mapping ([`Layout::random`], §IV-A); past it, a
    /// [`Layout::bfs_ball`]. The choice depends on the device size alone,
    /// never on the distance backend, so a forced-dense and a sparse
    /// router on the same device start from the same mapping.
    ///
    /// # Panics
    ///
    /// Past the threshold, panics if `num_logical` exceeds the device
    /// size.
    pub(crate) fn initial(graph: &CouplingGraph, num_logical: u32, rng: &mut StdRng) -> Self {
        let n_phys = graph.num_qubits();
        if n_phys > DENSE_DISTANCE_THRESHOLD {
            Layout::bfs_ball(graph, num_logical, rng)
        } else {
            Layout::random(n_phys, rng)
        }
    }

    /// A compact random mapping: the `num_logical` circuit qubits,
    /// shuffled, on the `num_logical` physical qubits nearest a random
    /// root. Physical qubits are ordered by `(hop distance from the
    /// root, index)`; the virtual logical qubits `num_logical..N`, which
    /// never appear in a gate, take the rest of that order unshuffled.
    ///
    /// On a device much wider than the circuit, a uniformly random
    /// mapping scatters the circuit across the whole chip and the search
    /// spends most of its SWAPs gathering it again; the ball starts it
    /// gathered.
    ///
    /// # Panics
    ///
    /// Panics if the device has no qubits or `num_logical` exceeds its
    /// size.
    pub(crate) fn bfs_ball(graph: &CouplingGraph, num_logical: u32, rng: &mut StdRng) -> Self {
        let n_phys = graph.num_qubits();
        let dist = graph.bfs_distances(Qubit(rng.gen_range(0..n_phys)));
        let mut order: Vec<Qubit> = (0..n_phys).map(Qubit).collect();
        order.sort_unstable_by_key(|q| (dist[q.index()], q.0));
        shuffle(&mut order[..num_logical as usize], rng);
        Layout::from_logical_to_physical(order).expect("a permuted qubit order is a bijection")
    }

    /// Builds a layout from the `logical → physical` direction.
    ///
    /// Returns `None` if `mapping` is not a bijection over `0..len`.
    pub fn from_logical_to_physical(mapping: Vec<Qubit>) -> Option<Self> {
        let n = mapping.len();
        let mut inverse = vec![Qubit(u32::MAX); n];
        for (logical, &phys) in mapping.iter().enumerate() {
            if phys.index() >= n || inverse[phys.index()] != Qubit(u32::MAX) {
                return None;
            }
            inverse[phys.index()] = Qubit(logical as u32);
        }
        Some(Layout {
            log_to_phys: mapping,
            phys_to_log: inverse,
        })
    }

    /// Number of qubits covered (the device size `N`).
    pub fn len(&self) -> usize {
        self.log_to_phys.len()
    }

    /// Whether the layout is empty (zero-qubit device).
    pub fn is_empty(&self) -> bool {
        self.log_to_phys.is_empty()
    }

    /// `π(q)`: the physical qubit currently holding logical `q`.
    #[inline]
    pub fn phys_of(&self, logical: Qubit) -> Qubit {
        self.log_to_phys[logical.index()]
    }

    /// The full `logical → physical` table.
    pub fn logical_to_physical(&self) -> &[Qubit] {
        &self.log_to_phys
    }

    /// Applies a SWAP on two **physical** qubits: the logical qubits living
    /// there exchange places. This is the layout update of Algorithm 1's
    /// `π = π.update(SWAP)`.
    #[inline]
    pub fn swap_physical(&mut self, a: Qubit, b: Qubit) {
        debug_assert_ne!(a, b, "swap endpoints must differ");
        let la = self.phys_to_log[a.index()];
        let lb = self.phys_to_log[b.index()];
        self.phys_to_log.swap(a.index(), b.index());
        self.log_to_phys.swap(la.index(), lb.index());
    }

    /// Checks internal consistency (`π⁻¹ ∘ π = id`); tests and debug
    /// assertions use this.
    pub fn is_consistent(&self) -> bool {
        self.log_to_phys.len() == self.phys_to_log.len()
            && self.log_to_phys.iter().enumerate().all(|(q, &p)| {
                p.index() < self.phys_to_log.len() && self.phys_to_log[p.index()] == Qubit(q as u32)
            })
    }
}

/// Fisher–Yates.
fn shuffle(qubits: &mut [Qubit], rng: &mut StdRng) {
    for i in (1..qubits.len()).rev() {
        let j = rng.gen_range(0..=i);
        qubits.swap(i, j);
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (q, p) in self.log_to_phys.iter().enumerate() {
            if q > 0 {
                write!(f, ", ")?;
            }
            write!(f, "q{q}↦Q{}", p.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sabre_topology::devices;

    #[test]
    fn identity_maps_each_to_itself() {
        let l = Layout::identity(5);
        for q in 0..5u32 {
            assert_eq!(l.phys_of(Qubit(q)), Qubit(q));
            assert_eq!(l.phys_to_log[q as usize], Qubit(q));
        }
        assert!(l.is_consistent());
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn swap_physical_updates_both_directions() {
        let mut l = Layout::identity(4);
        l.swap_physical(Qubit(1), Qubit(2));
        assert_eq!(l.phys_of(Qubit(1)), Qubit(2));
        assert_eq!(l.phys_of(Qubit(2)), Qubit(1));
        assert_eq!(l.phys_to_log[1], Qubit(2));
        assert_eq!(l.phys_to_log[2], Qubit(1));
        assert!(l.is_consistent());
    }

    #[test]
    fn swap_is_involutive() {
        let mut l = Layout::identity(6);
        l.swap_physical(Qubit(0), Qubit(5));
        l.swap_physical(Qubit(0), Qubit(5));
        assert_eq!(l, Layout::identity(6));
    }

    #[test]
    fn swap_sequence_tracks_figure3_example() {
        // Paper §III-A: after SWAP on q1,q2 the mapping becomes
        // {q1↦Q2, q2↦Q1, q3↦Q3, q4↦Q4} (0-indexed here).
        let mut l = Layout::identity(4);
        // SWAP acts on the physical qubits where q0,q1 live: Q0,Q1.
        l.swap_physical(l.phys_of(Qubit(0)), l.phys_of(Qubit(1)));
        assert_eq!(l.phys_of(Qubit(0)), Qubit(1));
        assert_eq!(l.phys_of(Qubit(1)), Qubit(0));
        assert_eq!(l.phys_of(Qubit(2)), Qubit(2));
        assert_eq!(l.phys_of(Qubit(3)), Qubit(3));
    }

    #[test]
    fn random_layout_is_bijection() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let l = Layout::random(10, &mut rng);
            assert!(l.is_consistent());
        }
    }

    #[test]
    fn random_layouts_differ_across_draws() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Layout::random(10, &mut rng);
        let b = Layout::random(10, &mut rng);
        assert_ne!(a, b, "astronomically unlikely to collide");
    }

    #[test]
    fn bfs_ball_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(13);
        for graph in [devices::grid(6, 7), devices::heavy_hex(3, 4)] {
            for num_logical in [0, 1, 10, graph.graph().num_qubits()] {
                let l = Layout::bfs_ball(graph.graph(), num_logical, &mut rng);
                assert!(l.is_consistent());
                assert_eq!(l.len(), graph.graph().num_qubits() as usize);
            }
        }
    }

    #[test]
    fn bfs_ball_holds_the_qubits_nearest_its_root() {
        let graph = devices::heavy_hex(4, 6).graph().clone();
        let n_phys = graph.num_qubits();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            // The ball draws its root first, so a clone of the RNG replays it.
            let root = Qubit(rng.clone().gen_range(0..n_phys));
            let dist = graph.bfs_distances(root);
            let num_logical = 1 + (seed as u32 * 7) % (n_phys - 1);
            let l = Layout::bfs_ball(&graph, num_logical, &mut rng);
            let mut inside = vec![false; n_phys as usize];
            for q in 0..num_logical {
                inside[l.phys_of(Qubit(q)).index()] = true;
            }
            assert_eq!(inside.iter().filter(|&&b| b).count(), num_logical as usize);
            let farthest_in = (0..n_phys as usize)
                .filter(|&p| inside[p])
                .map(|p| dist[p])
                .max()
                .unwrap();
            let nearest_out = (0..n_phys as usize)
                .filter(|&p| !inside[p])
                .map(|p| dist[p])
                .min()
                .unwrap();
            assert!(farthest_in <= nearest_out, "seed {seed}");
        }
    }

    #[test]
    fn bfs_ball_is_deterministic_per_rng_state() {
        let graph = devices::grid(9, 9).graph().clone();
        let mut a = StdRng::seed_from_u64(14);
        let mut b = StdRng::seed_from_u64(14);
        for _ in 0..5 {
            assert_eq!(
                Layout::bfs_ball(&graph, 30, &mut a),
                Layout::bfs_ball(&graph, 30, &mut b)
            );
        }
        let mut c = StdRng::seed_from_u64(15);
        assert_ne!(
            Layout::bfs_ball(&graph, 30, &mut a),
            Layout::bfs_ball(&graph, 30, &mut c),
            "astronomically unlikely to collide"
        );
    }

    #[test]
    fn full_bfs_ball_is_a_shuffle_of_the_whole_device() {
        let graph = devices::grid(5, 8).graph().clone();
        let mut rng = StdRng::seed_from_u64(16);
        let l = Layout::bfs_ball(&graph, 40, &mut rng);
        let mut phys: Vec<u32> = l.logical_to_physical().iter().map(|q| q.0).collect();
        assert_ne!(l, Layout::identity(40), "astronomically unlikely");
        phys.sort_unstable();
        assert_eq!(phys, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn initial_is_the_papers_random_mapping_up_to_the_threshold() {
        for (rows, cols) in [(4, 5), (8, 16)] {
            let graph = devices::grid(rows, cols).graph().clone();
            let (mut a, mut b) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
            assert_eq!(
                Layout::initial(&graph, 10, &mut a),
                Layout::random(graph.num_qubits(), &mut b)
            );
        }
        let graph = devices::grid(3, 43).graph().clone();
        assert!(graph.num_qubits() > DENSE_DISTANCE_THRESHOLD);
        let (mut a, mut b) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
        assert_eq!(
            Layout::initial(&graph, 10, &mut a),
            Layout::bfs_ball(&graph, 10, &mut b)
        );
    }

    #[test]
    fn from_logical_rejects_non_bijection() {
        assert!(Layout::from_logical_to_physical(vec![Qubit(0), Qubit(0)]).is_none());
        assert!(Layout::from_logical_to_physical(vec![Qubit(0), Qubit(5)]).is_none());
        assert!(Layout::from_logical_to_physical(vec![Qubit(1), Qubit(0)]).is_some());
    }

    #[test]
    fn display_shows_mapping() {
        let l = Layout::identity(2);
        assert_eq!(l.to_string(), "{q0↦Q0, q1↦Q1}");
    }

    #[test]
    fn empty_layout() {
        let l = Layout::identity(0);
        assert!(l.is_empty());
        assert!(l.is_consistent());
    }
}
