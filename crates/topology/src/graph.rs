use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use sabre_circuit::fingerprint::Fingerprinter;

use crate::csr::CsrAdjacency;
use crate::Qubit;

/// Errors produced when constructing coupling graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// An edge referenced a qubit outside the device.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: Qubit,
        /// Device size.
        num_qubits: u32,
    },
    /// An edge connected a qubit to itself.
    SelfLoop {
        /// The qubit in question.
        qubit: Qubit,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::QubitOutOfRange { qubit, num_qubits } => write!(
                f,
                "edge endpoint {qubit} is out of range for a device with {num_qubits} qubits"
            ),
            TopologyError::SelfLoop { qubit } => {
                write!(f, "coupling graph cannot contain self-loop on {qubit}")
            }
        }
    }
}

impl Error for TopologyError {}

/// Undirected coupling graph `G(V, E)` of a quantum device (paper Table I).
///
/// Vertices are physical qubits `Q_0 … Q_{N-1}`; an edge means a two-qubit
/// gate can be applied directly between the pair, in either direction
/// (symmetric coupling, §III-A).
///
/// # Example
///
/// The 4-qubit device of the paper's Figure 3(b):
///
/// ```
/// use sabre_topology::{CouplingGraph, Qubit};
///
/// let g = CouplingGraph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap();
/// assert!(g.are_coupled(Qubit(0), Qubit(1)));
/// assert!(!g.are_coupled(Qubit(0), Qubit(3))); // {Q1,Q4} not allowed
/// assert_eq!(g.num_edges(), 4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CouplingGraph {
    num_qubits: u32,
    /// Canonical edge list, each `(a, b)` with `a < b`, sorted.
    edges: Vec<(Qubit, Qubit)>,
    /// Packed CSR adjacency (offsets + neighbor/edge-id arrays): one
    /// contiguous allocation instead of a `Vec` per qubit, `O(N + E)`
    /// memory, sorted neighborhoods served as plain slices. See
    /// [`CsrAdjacency`].
    csr: CsrAdjacency,
    /// [`CouplingGraph::fingerprint`], computed once at construction: a
    /// pure function of `num_qubits` and `edges`, so equality is unchanged.
    fingerprint: u64,
}

impl CouplingGraph {
    /// Builds a graph from raw index pairs. Duplicate and reversed pairs are
    /// merged; order of the input is irrelevant.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::QubitOutOfRange`] for endpoints `>= num_qubits`
    /// and [`TopologyError::SelfLoop`] for `(q, q)` pairs.
    pub fn from_edges<I>(num_qubits: u32, edges: I) -> Result<Self, TopologyError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut canonical: Vec<(Qubit, Qubit)> = Vec::new();
        for (a, b) in edges {
            if a >= num_qubits {
                return Err(TopologyError::QubitOutOfRange {
                    qubit: Qubit(a),
                    num_qubits,
                });
            }
            if b >= num_qubits {
                return Err(TopologyError::QubitOutOfRange {
                    qubit: Qubit(b),
                    num_qubits,
                });
            }
            if a == b {
                return Err(TopologyError::SelfLoop { qubit: Qubit(a) });
            }
            let pair = if a < b {
                (Qubit(a), Qubit(b))
            } else {
                (Qubit(b), Qubit(a))
            };
            canonical.push(pair);
        }
        canonical.sort_unstable();
        canonical.dedup();

        let csr = CsrAdjacency::build(num_qubits, &canonical);
        let mut fp = Fingerprinter::new("sabre/coupling-graph/v1");
        fp.write_u64(u64::from(num_qubits));
        fp.write_u64(canonical.len() as u64);
        for &(a, b) in &canonical {
            fp.write_u64(u64::from(a.0));
            fp.write_u64(u64::from(b.0));
        }
        Ok(CouplingGraph {
            num_qubits,
            edges: canonical,
            csr,
            fingerprint: fp.finish(),
        })
    }

    /// Number of physical qubits `N`.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of undirected couplings.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Canonical edge list: each pair `(a, b)` has `a < b`, sorted.
    pub fn edges(&self) -> &[(Qubit, Qubit)] {
        &self.edges
    }

    /// Position of the coupling `(a, b)` (order-insensitive) in
    /// [`CouplingGraph::edges`], or `None` if the pair is not coupled.
    ///
    /// Edge indices are dense in `0..num_edges()`, which makes them usable
    /// as bitset slots — the router's SWAP-candidate scratch buffer
    /// deduplicates with a `Vec<bool>` indexed this way.
    pub fn edge_index(&self, a: Qubit, b: Qubit) -> Option<usize> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.binary_search(&key).ok()
    }

    /// Canonical content fingerprint: two graphs fingerprint identically
    /// exactly when they have the same qubit count and the same coupling
    /// set, regardless of the edge order, duplicates, or endpoint order
    /// they were constructed from. Stable across processes and platforms.
    /// Computed once at construction, so reading it is `O(1)`.
    ///
    /// This is the cache key of `sabre::DeviceCache`: preprocessed router
    /// state (Floyd–Warshall distance matrices) is stored per fingerprint,
    /// so a service routing against a hot device skips the `O(N³)`
    /// preprocessing entirely.
    ///
    /// # Example
    ///
    /// ```
    /// use sabre_topology::CouplingGraph;
    ///
    /// let a = CouplingGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    /// let b = CouplingGraph::from_edges(3, [(2, 1), (1, 0), (0, 1)]).unwrap();
    /// assert_eq!(a.fingerprint(), b.fingerprint()); // same device
    ///
    /// let c = CouplingGraph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
    /// assert_ne!(a.fingerprint(), c.fingerprint()); // different coupling
    /// ```
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The qubits directly coupled to `q`, sorted — one contiguous CSR
    /// slice, `O(1)` to obtain.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the device.
    pub fn neighbors(&self, q: Qubit) -> &[Qubit] {
        self.csr.neighbors(q)
    }

    /// Dense [`CouplingGraph::edge_index`] ids of `q`'s couplings, aligned
    /// with [`CouplingGraph::neighbors`]: `neighbor_edge_ids(q)[i]` is the
    /// edge id of `(q, neighbors(q)[i])`.
    ///
    /// Precomputed at construction — the router's candidate sweep visits
    /// every neighbor of every front-layer qubit each search step, and
    /// this turns its per-neighbor edge-id resolution from a binary
    /// search over the edge list into an indexed load.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the device.
    pub fn neighbor_edge_ids(&self, q: Qubit) -> &[u32] {
        self.csr.edge_ids(q)
    }

    /// The packed CSR adjacency backing this graph — for consumers that
    /// want the raw offsets/neighbor/edge-id arrays (zero-copy sweeps,
    /// external solvers).
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// Degree of `q` in the coupling graph (`O(1)` offset subtraction).
    pub fn degree(&self, q: Qubit) -> usize {
        self.csr.degree(q)
    }

    /// Maximum degree over all qubits, `O(N)`.
    pub fn max_degree(&self) -> usize {
        (0..self.num_qubits)
            .map(|q| self.csr.degree(Qubit(q)))
            .max()
            .unwrap_or(0)
    }

    /// Whether a two-qubit gate can be applied directly between `a` and
    /// `b` — a binary search of `a`'s sorted CSR neighborhood,
    /// `O(log degree)`.
    pub fn are_coupled(&self, a: Qubit, b: Qubit) -> bool {
        self.csr.neighbors(a).binary_search(&b).is_ok()
    }

    /// Whether every qubit can reach every other (a requirement for any
    /// routing to succeed).
    pub fn is_connected(&self) -> bool {
        if self.num_qubits == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_qubits as usize];
        let mut queue = VecDeque::from([Qubit(0)]);
        seen[0] = true;
        let mut count = 1;
        while let Some(q) = queue.pop_front() {
            for &n in self.neighbors(q) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    queue.push_back(n);
                }
            }
        }
        count == self.num_qubits as usize
    }

    /// Breadth-first shortest-path distances (in edges) from `source`;
    /// `u32::MAX` marks unreachable qubits.
    pub fn bfs_distances(&self, source: Qubit) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_qubits as usize];
        dist[source.index()] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(q) = queue.pop_front() {
            for &n in self.neighbors(q) {
                if dist[n.index()] == u32::MAX {
                    dist[n.index()] = dist[q.index()] + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    /// One shortest path from `a` to `b` (inclusive of both endpoints), or
    /// `None` if disconnected. Routers use this for forced-progress moves;
    /// its length defines the worst-case SWAP count per gate, `O(√N)` on 2-D
    /// layouts (paper §IV-C1 complexity analysis).
    pub fn shortest_path(&self, a: Qubit, b: Qubit) -> Option<Vec<Qubit>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut prev: Vec<Option<Qubit>> = vec![None; self.num_qubits as usize];
        let mut seen = vec![false; self.num_qubits as usize];
        seen[a.index()] = true;
        let mut queue = VecDeque::from([a]);
        while let Some(q) = queue.pop_front() {
            for &n in self.neighbors(q) {
                if seen[n.index()] {
                    continue;
                }
                seen[n.index()] = true;
                prev[n.index()] = Some(q);
                if n == b {
                    let mut path = vec![b];
                    let mut cur = b;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }

    /// Graph diameter (longest shortest path), or `None` if disconnected or
    /// empty.
    pub fn diameter(&self) -> Option<u32> {
        if self.num_qubits == 0 {
            return None;
        }
        let mut max = 0;
        for q in 0..self.num_qubits {
            let dist = self.bfs_distances(Qubit(q));
            for d in dist {
                if d == u32::MAX {
                    return None;
                }
                max = max.max(d);
            }
        }
        Some(max)
    }
}

impl fmt::Display for CouplingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coupling graph: {} qubits, {} edges",
            self.num_qubits,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Figure 3(b): 4 qubits in a square, no diagonals.
    fn fig3b() -> CouplingGraph {
        CouplingGraph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn fig3b_couplings_match_paper() {
        let g = fig3b();
        // allowed: {Q1,Q2},{Q2,Q4},{Q4,Q3},{Q3,Q1} (1-indexed in paper)
        assert!(g.are_coupled(Qubit(0), Qubit(1)));
        assert!(g.are_coupled(Qubit(1), Qubit(3)));
        assert!(g.are_coupled(Qubit(3), Qubit(2)));
        assert!(g.are_coupled(Qubit(2), Qubit(0)));
        // not allowed: {Q1,Q4},{Q2,Q3}
        assert!(!g.are_coupled(Qubit(0), Qubit(3)));
        assert!(!g.are_coupled(Qubit(1), Qubit(2)));
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let g = CouplingGraph::from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(Qubit(1)), 2);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = CouplingGraph::from_edges(2, [(0, 2)]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::QubitOutOfRange {
                qubit: Qubit(2),
                num_qubits: 2
            }
        );
    }

    #[test]
    fn rejects_self_loop() {
        let err = CouplingGraph::from_edges(2, [(1, 1)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop { qubit: Qubit(1) });
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = CouplingGraph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(
            g.neighbors(Qubit(2)),
            &[Qubit(0), Qubit(1), Qubit(3), Qubit(4)]
        );
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn connectivity_detection() {
        assert!(fig3b().is_connected());
        let disconnected = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!disconnected.is_connected());
        let empty = CouplingGraph::from_edges(0, []).unwrap();
        assert!(empty.is_connected());
        let isolated = CouplingGraph::from_edges(2, []).unwrap();
        assert!(!isolated.is_connected());
    }

    #[test]
    fn bfs_distances_on_square() {
        let g = fig3b();
        let d = g.bfs_distances(Qubit(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
        assert_eq!(d[3], 2);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = CouplingGraph::from_edges(3, [(0, 1)]).unwrap();
        let d = g.bfs_distances(Qubit(0));
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = fig3b();
        let p = g.shortest_path(Qubit(0), Qubit(3)).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], Qubit(0));
        assert_eq!(p[2], Qubit(3));
        // consecutive vertices are coupled
        for w in p.windows(2) {
            assert!(g.are_coupled(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_same_qubit() {
        let g = fig3b();
        assert_eq!(g.shortest_path(Qubit(1), Qubit(1)), Some(vec![Qubit(1)]));
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let g = CouplingGraph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(g.shortest_path(Qubit(0), Qubit(2)), None);
    }

    #[test]
    fn diameter_of_square_is_two() {
        assert_eq!(fig3b().diameter(), Some(2));
        let line = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(line.diameter(), Some(3));
        let disconnected = CouplingGraph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(disconnected.diameter(), None);
    }

    #[test]
    fn edge_index_is_dense_and_order_insensitive() {
        let g = fig3b();
        let mut seen = vec![false; g.num_edges()];
        for &(a, b) in g.edges() {
            let idx = g.edge_index(a, b).unwrap();
            assert_eq!(g.edge_index(b, a), Some(idx), "order-insensitive");
            assert!(!seen[idx], "indices must be unique");
            seen[idx] = true;
            assert_eq!(g.edges()[idx], (a, b));
        }
        assert!(seen.iter().all(|&s| s), "indices must cover 0..num_edges");
        assert_eq!(g.edge_index(Qubit(0), Qubit(3)), None);
    }

    #[test]
    fn fingerprint_is_construction_invariant() {
        let a = CouplingGraph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap();
        let b = CouplingGraph::from_edges(4, [(2, 0), (3, 1), (1, 0), (2, 3), (0, 1)]).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_devices() {
        let square = fig3b();
        let line = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // Same edges on a wider register is a different device.
        let padded = CouplingGraph::from_edges(5, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap();
        assert_ne!(square.fingerprint(), line.fingerprint());
        assert_ne!(square.fingerprint(), padded.fingerprint());
    }

    #[test]
    fn display_shows_size() {
        let text = fig3b().to_string();
        assert!(text.contains("4 qubits"));
        assert!(text.contains("4 edges"));
    }
}
