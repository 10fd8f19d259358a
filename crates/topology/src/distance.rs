//! Distance preprocessing: one distance type, [`WeightedDistanceMatrix`],
//! over a dense all-pairs array for small devices and an on-demand sparse
//! row engine for kilo-qubit ones.
//!
//! The paper precomputes all-pairs shortest paths with Floyd–Warshall,
//! "acceptable for NISQ devices with hundreds of qubits" (§IV-A). At the
//! 1000+ qubit grids and heavy-hex lattices a production service quotes,
//! the `O(N²)` matrix (and the `O(N³)` fill) stops being acceptable — so
//! [`WeightedDistanceMatrix`] is a *policy* over two interchangeable
//! backends. Hop counts are the same type at unit edge weight: they are
//! small integers, exact in `f64`.
//!
//! - **Dense** (`N ≤` [`DENSE_DISTANCE_THRESHOLD`]): the classic
//!   row-major `N × N` array. `O(N²)` memory, `O(1)` loads, rows are
//!   plain borrowed slices, filled by `N` Dijkstra runs
//!   (`O(N·E·log N)`).
//! - **Sparse** (above the threshold): no matrix at all. Each requested
//!   row is computed on demand by the same binary-heap Dijkstra,
//!   `O(E + N log N)` per row, and kept in the workspace's one bounded
//!   cache, a [`BoundedLru`] of [`ROW_CACHE_CAPACITY`] rows, so memory
//!   stays `O(E + capacity·N)` — flat in the number of *pairs*. A row
//!   fetch takes the LRU's lock, so the router does not read it per
//!   candidate: a traversal pins each row it needs the first time it
//!   needs it and reads the pinned slice for the rest of the traversal
//!   (at most [`ROW_CACHE_CAPACITY`] pins at a time), touching the LRU
//!   only on a pin miss. A row is computed under that
//!   lock, so restarts sharing the matrix compute each row once; a panic
//!   there is recovered, never propagated (the cache is pure
//!   memoization).
//!
//! Both backends produce **bit-identical values**: the sparse engine's
//! per-source sweep is the same function the dense
//! [`WeightedDistanceMatrix::dijkstra`] constructor runs eagerly, so a
//! row is the same `Vec` either way, and routing on top of them is
//! reproducible across backends. [`WeightedDistanceMatrix::auto`] picks
//! the backend by device size; everything downstream (router, cache,
//! service, BKA baseline) goes through it.
//! [`WeightedDistanceMatrix::floyd_warshall`] is kept as the test
//! oracle the row engine is checked against.

use std::collections::BinaryHeap;
use std::ops::Deref;
use std::sync::Arc;

use crate::{BoundedLru, CouplingGraph, Qubit};

/// Devices up to this many qubits use the dense all-pairs backend in the
/// [`WeightedDistanceMatrix::auto`] policy; larger devices get the sparse
/// on-demand engine.
///
/// At 128 qubits the dense `f64` matrix costs 128 KiB and fills in well
/// under a millisecond — comfortably the faster choice, with zero
/// per-lookup overhead. At 1089 qubits (grid 33×33) it is ~9 MiB filled
/// by 1089 Dijkstra sweeps, and at 10⁴ qubits it is ~800 MB — the regime
/// the sparse engine exists for. Callers that want to force a backend
/// regardless of size use [`DistanceBackend`] with
/// [`WeightedDistanceMatrix::with_backend`].
pub const DENSE_DISTANCE_THRESHOLD: u32 = 128;

/// Rows held by a sparse engine's [`BoundedLru`]. Bounds sparse-backend
/// memory at `O(`[`ROW_CACHE_CAPACITY`]`·N)` regardless of how many
/// distinct sources are queried; eviction recomputes on the next touch
/// (one Dijkstra sweep, `O(E + N log N)`) and can never change a value.
///
/// Sized to cover the router's working set: during a routing pass the
/// queried sources are the physical positions of active gate operands,
/// so a deep circuit over a few hundred logical qubits keeps a few
/// hundred rows hot. 1024 rows cost 8 KiB per kilo-qubit of device per
/// row — ~9 MiB fully populated on a 1089-qubit grid — while a cache
/// smaller than the working set degrades into recomputing a row per
/// lookup (measured ~50× slower routing at 256 rows on grid 33×33).
pub const ROW_CACHE_CAPACITY: usize = 1024;

/// Devices a `sabre::DeviceCache` keeps preprocessed. Each entry holds a
/// graph and its hop matrix: at most 128 KiB dense, or `O(E)` plus up to
/// [`ROW_CACHE_CAPACITY`] rows (~9 MiB on a 1089-qubit grid) sparse. A
/// service routes against a handful of devices; 64 covers a large fleet
/// while capping the worst case (all kilo-qubit) near 600 MiB.
pub const DEVICE_CACHE_CAPACITY: usize = 64;

/// `(device, calibration)` noise-weighted matrices a `sabre::DeviceCache`
/// keeps, sized like a hop matrix each. A calibration refresh drops the
/// device's superseded matrices, so steady state is one per noisy device:
/// the same 64 as [`DEVICE_CACHE_CAPACITY`].
pub const NOISE_CACHE_CAPACITY: usize = 64;

/// Embedding-probe verdicts a `sabre::EmbeddingVerdictCache` keeps, one
/// per `(device, interaction graph, budget)`, each holding a copy of the
/// circuit's interaction graph: 1–2 KiB for the 8–20-qubit circuits a
/// service mostly probes, ~15 KiB for a 200-qubit one, so at most a few
/// tens of MiB. A service probes once per fresh structure: routebench's
/// `serve_vqa_mix` sends ~50 a second on a 2-vCPU host, so the store
/// fills in ~80 s and then evicts the least recently probed. Re-probing
/// an evicted verdict costs ~12 µs on Tokyo and ~0.6 ms on a 200-qubit
/// circuit, under 1% of its route. In 150 s runs of that workload (~3,000
/// verdicts evicted) probes exceeded fresh structures by 3, against 2
/// with an unbounded store.
pub const VERDICT_CACHE_CAPACITY: usize = 4096;

/// Backend selection for [`WeightedDistanceMatrix::with_backend`]: the
/// automatic size-thresholded policy, or an explicit override
/// (equivalence tests pin sparse routing against dense with this;
/// benchmarks force either side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceBackend {
    /// Dense below [`DENSE_DISTANCE_THRESHOLD`] qubits, sparse above —
    /// what every production path uses.
    Auto,
    /// Always materialize the `O(N²)` matrix.
    Dense,
    /// Always use the on-demand row engine, even on tiny devices.
    Sparse,
}

impl DistanceBackend {
    /// Resolves the policy for a device of `num_qubits` qubits: `true`
    /// means the sparse engine.
    pub fn prefers_sparse(self, num_qubits: u32) -> bool {
        match self {
            DistanceBackend::Auto => num_qubits > DENSE_DISTANCE_THRESHOLD,
            DistanceBackend::Dense => false,
            DistanceBackend::Sparse => true,
        }
    }
}

/// One distance row `D[a][·]`, indexed by physical qubit — the return
/// type of [`WeightedDistanceMatrix::row`].
///
/// Dereferences to `&[f64]`, so `row[q.index()]`, `row.iter()`, and every
/// other slice operation work unchanged whichever backend produced it.
/// Dense backends lend their row as a zero-copy borrow; the sparse
/// engine hands out a shared handle to the cached row, which keeps the
/// row alive (and multiple rows usable side by side, as the router's
/// two-row delta scorer requires) even if the LRU cache evicts it
/// concurrently.
#[derive(Clone, Debug)]
pub struct DistanceRow<'a> {
    repr: RowRepr<'a>,
}

#[derive(Clone, Debug)]
enum RowRepr<'a> {
    /// A zero-copy view into a dense backend's row-major storage.
    Borrowed(&'a [f64]),
    /// A shared handle to a sparse engine's cached row.
    Shared(Arc<[f64]>),
}

impl Deref for DistanceRow<'_> {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.repr {
            RowRepr::Borrowed(slice) => slice,
            RowRepr::Shared(arc) => arc,
        }
    }
}

impl<'a> DistanceRow<'a> {
    #[inline]
    fn borrowed(slice: &'a [f64]) -> Self {
        DistanceRow {
            repr: RowRepr::Borrowed(slice),
        }
    }

    #[inline]
    fn shared(arc: Arc<[f64]>) -> Self {
        DistanceRow {
            repr: RowRepr::Shared(arc),
        }
    }
}

/// The sparse engine: graph, per-edge weights (indexed by dense edge id),
/// and an LRU of Dijkstra rows. `O(N + E)` resident,
/// `O(E + N log N)` per row miss.
#[derive(Debug)]
struct SparseWeighted {
    graph: CouplingGraph,
    /// Weight of each coupling, indexed by [`CouplingGraph::edge_index`].
    edge_weights: Arc<[f64]>,
    cache: BoundedLru<u32, [f64]>,
}

impl SparseWeighted {
    fn new(graph: CouplingGraph, edge_weights: Arc<[f64]>) -> Self {
        SparseWeighted {
            graph,
            edge_weights,
            cache: BoundedLru::new(ROW_CACHE_CAPACITY),
        }
    }

    fn row(&self, a: Qubit) -> Arc<[f64]> {
        self.cache
            .get_or_insert_locked(a.0, || dijkstra_row(&self.graph, &self.edge_weights, a))
    }
}

impl Clone for SparseWeighted {
    /// Shares the packed weights and starts an empty row cache, so a
    /// cloned sparse matrix answers the same values.
    fn clone(&self) -> Self {
        SparseWeighted::new(self.graph.clone(), Arc::clone(&self.edge_weights))
    }
}

/// Min-heap entry for Dijkstra: ordered by cost ascending, ties broken
/// by qubit index ascending, via reversed `Ord` under `BinaryHeap`'s
/// max-heap semantics. `total_cmp` keeps the order total (costs pushed
/// are always finite, but the heap should not be the place that panics).
struct HeapEntry {
    cost: f64,
    node: Qubit,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost.total_cmp(&other.cost).is_eq() && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

/// One Dijkstra sweep from `source` over per-edge weights: the single
/// row-producing algorithm shared by the sparse engine and the
/// dense [`WeightedDistanceMatrix::dijkstra`] constructor — one
/// implementation, so both paths yield bit-identical rows.
/// `O(E + N log N)` with a binary heap.
fn dijkstra_row(graph: &CouplingGraph, edge_weights: &[f64], source: Qubit) -> Vec<f64> {
    let n = graph.num_qubits() as usize;
    let mut dist = vec![f64::INFINITY; n];
    if n == 0 {
        return dist;
    }
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue; // stale entry: a cheaper path was already settled
        }
        let neighbors = graph.neighbors(node);
        let edge_ids = graph.neighbor_edge_ids(node);
        for (&nb, &eid) in neighbors.iter().zip(edge_ids) {
            let next = cost + edge_weights[eid as usize];
            if next < dist[nb.index()] {
                dist[nb.index()] = next;
                heap.push(HeapEntry {
                    cost: next,
                    node: nb,
                });
            }
        }
    }
    dist
}

/// Evaluates, validates, and packs a weight closure into the per-edge-id
/// array the Dijkstra machinery consumes.
///
/// # Panics
///
/// Panics if a weight is negative or non-finite.
fn pack_edge_weights<F>(graph: &CouplingGraph, mut weight: F) -> Vec<f64>
where
    F: FnMut(Qubit, Qubit) -> f64,
{
    graph
        .edges()
        .iter()
        .map(|&(a, b)| {
            let w = weight(a, b);
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weights must be finite and ≥ 0"
            );
            w
        })
        .collect()
}

/// All-pairs shortest-path distances `D[][]` over per-coupling edge
/// weights (paper §IV-A) — the one distance type of this crate.
///
/// At unit weight (what [`WeightedDistanceMatrix::hops`] and the default
/// router build) `D[i][j]` is the hop count: the number of SWAPs needed
/// to make qubits sitting on `Q_i` and `Q_j` adjacent, plus one (the
/// paper ignores the constant offset, §IV-D1, and so do we — only
/// relative order matters to the heuristic). Hop counts are small
/// integers, so they are exact in `f64`. The noise-aware extension
/// weights each coupling by its SWAP cost in the log-fidelity domain, so
/// a path's total weight is the (negated log) fidelity of swapping along
/// it. Unreachable pairs are `f64::INFINITY`.
///
/// This is a policy over a dense array and a sparse Dijkstra-row engine
/// (see the module docs). The [`WeightedDistanceMatrix::dijkstra`] and
/// [`WeightedDistanceMatrix::sparse`] constructors share one row
/// algorithm, so dense and sparse values are bit-identical;
/// [`WeightedDistanceMatrix::auto`] picks for you.
///
/// # Example
///
/// ```
/// use sabre_topology::{CouplingGraph, Qubit, WeightedDistanceMatrix};
///
/// let line = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// let d = WeightedDistanceMatrix::hops(&line); // 4 qubits → dense
/// assert!(!d.is_sparse());
/// assert_eq!(d.get(Qubit(0), Qubit(3)), 3.0);
/// assert_eq!(d.get(Qubit(2), Qubit(2)), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct WeightedDistanceMatrix {
    n: usize,
    backend: WeightedBackend,
}

#[derive(Clone, Debug)]
enum WeightedBackend {
    /// Row-major `n × n`; `f64::INFINITY` marks unreachable pairs.
    Dense(Vec<f64>),
    /// Boxed: the engine (graph + weights + cache) is far larger than
    /// the dense variant's `Vec` header.
    Sparse(Box<SparseWeighted>),
}

impl WeightedDistanceMatrix {
    /// Dense Floyd–Warshall over arbitrary non-negative edge weights
    /// supplied by `weight(a, b)` for each coupling, exactly as the paper
    /// prescribes in §IV-A. `O(N³)` time, `O(N²)` memory. Kept only as
    /// the test oracle the Dijkstra rows are checked against; every
    /// production path goes through [`WeightedDistanceMatrix::auto`].
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn floyd_warshall<F>(graph: &CouplingGraph, mut weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        let n = graph.num_qubits() as usize;
        let mut data = vec![f64::INFINITY; n * n];
        for i in 0..n {
            data[i * n + i] = 0.0;
        }
        for &(a, b) in graph.edges() {
            let w = weight(a, b);
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weights must be finite and ≥ 0"
            );
            data[a.index() * n + b.index()] = w;
            data[b.index() * n + a.index()] = w;
        }
        for k in 0..n {
            for i in 0..n {
                let dik = data[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let through_k = dik + data[k * n + j];
                    if through_k < data[i * n + j] {
                        data[i * n + j] = through_k;
                    }
                }
            }
        }
        WeightedDistanceMatrix {
            n,
            backend: WeightedBackend::Dense(data),
        }
    }

    /// Dense all-pairs matrix built from `N` per-source Dijkstra sweeps,
    /// `O(N·(E + N log N))` time, `O(N²)` memory. Each row is exactly
    /// what [`WeightedDistanceMatrix::sparse`] computes on demand — the
    /// eager twin the auto policy uses below the threshold, so crossing
    /// the threshold never changes a value's bits.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn dijkstra<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        let edge_weights = pack_edge_weights(graph, weight);
        let n = graph.num_qubits() as usize;
        let mut data = vec![f64::INFINITY; n * n];
        for i in 0..n {
            let row = dijkstra_row(graph, &edge_weights, Qubit(i as u32));
            data[i * n..(i + 1) * n].copy_from_slice(&row);
        }
        WeightedDistanceMatrix {
            n,
            backend: WeightedBackend::Dense(data),
        }
    }

    /// The sparse on-demand engine: per-edge weights packed by edge id,
    /// Dijkstra rows computed per source and LRU-cached. `O(N + E)`
    /// resident and at most [`ROW_CACHE_CAPACITY`] cached rows;
    /// `O(E + N log N)` per row miss, `O(1)` per hit.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn sparse<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        let engine = SparseWeighted::new(graph.clone(), pack_edge_weights(graph, weight).into());
        WeightedDistanceMatrix {
            n: graph.num_qubits() as usize,
            backend: WeightedBackend::Sparse(Box::new(engine)),
        }
    }

    /// The production policy: dense ([`WeightedDistanceMatrix::dijkstra`])
    /// up to [`DENSE_DISTANCE_THRESHOLD`] qubits,
    /// [`WeightedDistanceMatrix::sparse`] above.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn auto<F>(graph: &CouplingGraph, weight: F) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        Self::with_backend(graph, weight, DistanceBackend::Auto)
    }

    /// Constructs with an explicit backend choice.
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn with_backend<F>(graph: &CouplingGraph, weight: F, backend: DistanceBackend) -> Self
    where
        F: FnMut(Qubit, Qubit) -> f64,
    {
        if backend.prefers_sparse(graph.num_qubits()) {
            Self::sparse(graph, weight)
        } else {
            Self::dijkstra(graph, weight)
        }
    }

    /// The hop-count matrix: [`WeightedDistanceMatrix::auto`] at unit
    /// weight, which is what the default router builds. Hop distances are
    /// integer-valued `f64`s, so every construction path agrees
    /// bit-for-bit.
    pub fn hops(graph: &CouplingGraph) -> Self {
        Self::auto(graph, |_, _| 1.0)
    }

    /// `true` when this matrix answers from the sparse on-demand engine
    /// (no `O(N²)` allocation exists).
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, WeightedBackend::Sparse(_))
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The distance `D[a][b]` (`f64::INFINITY` when unreachable), read
    /// through [`WeightedDistanceMatrix::row`]. Dense: one indexed load.
    /// Sparse: a row fetch (`O(1)` amortized, `O(E + N log N)` on a miss)
    /// plus a load.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, a: Qubit, b: Qubit) -> f64 {
        self.row(a)[b.index()]
    }

    /// Row `D[a][·]` indexed by physical qubit — the hot-path view: the
    /// router's delta scorer resolves every candidate SWAP against one or
    /// two rows, so a row handle turns the inner loop into contiguous
    /// indexed loads. Dense rows are zero-copy borrows; sparse rows are
    /// shared handles served from the LRU (`O(1)` amortized,
    /// `O(E + N log N)` on a cold source).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn row(&self, a: Qubit) -> DistanceRow<'_> {
        match &self.backend {
            WeightedBackend::Dense(data) => {
                DistanceRow::borrowed(&data[a.index() * self.n..(a.index() + 1) * self.n])
            }
            WeightedBackend::Sparse(engine) => DistanceRow::shared(engine.row(a)),
        }
    }

    /// The dense backend's row-major `N × N` storage (`None` for the
    /// sparse engine): row `a` is `[a·N, (a+1)·N)`. Lets a hot loop slice
    /// dense rows itself, with no per-lookup backend dispatch; sparse
    /// callers hold the handles [`WeightedDistanceMatrix::row`] returns.
    pub fn as_dense(&self) -> Option<&[f64]> {
        match &self.backend {
            WeightedBackend::Dense(data) => Some(data),
            WeightedBackend::Sparse(_) => None,
        }
    }

    /// Rows currently resident in the sparse engine's LRU (always `0`
    /// for dense backends) — never exceeds [`ROW_CACHE_CAPACITY`].
    pub fn cached_rows(&self) -> usize {
        match &self.backend {
            WeightedBackend::Dense(_) => 0,
            WeightedBackend::Sparse(engine) => engine.cache.len(),
        }
    }
}

impl PartialEq for WeightedDistanceMatrix {
    /// Semantic equality: same size and bitwise-equal distance for every
    /// pair, regardless of backend (materializes sparse rows; test-path
    /// cost).
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        match (&self.backend, &other.backend) {
            (WeightedBackend::Dense(a), WeightedBackend::Dense(b)) => a == b,
            _ => (0..self.n).all(|q| {
                let q = Qubit(q as u32);
                *self.row(q) == *other.row(q)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> CouplingGraph {
        CouplingGraph::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap()
    }

    fn two_rings() -> CouplingGraph {
        CouplingGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap()
    }

    /// The unit-weight Floyd–Warshall oracle.
    fn oracle(graph: &CouplingGraph) -> WeightedDistanceMatrix {
        WeightedDistanceMatrix::floyd_warshall(graph, |_, _| 1.0)
    }

    #[test]
    fn identity_diagonal() {
        let d = oracle(&square());
        for i in 0..4 {
            assert_eq!(d.get(Qubit(i), Qubit(i)), 0.0);
        }
    }

    #[test]
    fn edges_have_distance_one() {
        let g = square();
        let d = oracle(&g);
        for &(a, b) in g.edges() {
            assert_eq!(d.get(a, b), 1.0);
            assert_eq!(d.get(b, a), 1.0);
        }
    }

    #[test]
    fn diagonal_of_square_is_two() {
        let d = oracle(&square());
        assert_eq!(d.get(Qubit(0), Qubit(3)), 2.0);
        assert_eq!(d.get(Qubit(1), Qubit(2)), 2.0);
    }

    #[test]
    fn symmetry() {
        let d = oracle(&square());
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(d.get(Qubit(i), Qubit(j)), d.get(Qubit(j), Qubit(i)));
            }
        }
    }

    #[test]
    fn triangle_inequality_on_line() {
        let g = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let d = oracle(&g);
        for i in 0..5u32 {
            for j in 0..5u32 {
                for k in 0..5u32 {
                    assert!(
                        d.get(Qubit(i), Qubit(j))
                            <= d.get(Qubit(i), Qubit(k)) + d.get(Qubit(k), Qubit(j))
                    );
                }
            }
        }
    }

    #[test]
    fn floyd_warshall_matches_bfs() {
        let g = two_rings();
        let d = oracle(&g);
        for i in 0..7u32 {
            let bfs = g.bfs_distances(Qubit(i));
            for j in 0..7u32 {
                assert_eq!(d.get(Qubit(i), Qubit(j)), f64::from(bfs[j as usize]));
            }
        }
        assert_eq!(d, WeightedDistanceMatrix::dijkstra(&g, |_, _| 1.0));
    }

    #[test]
    fn sparse_matches_dense_semantically() {
        let g = two_rings();
        let dense = WeightedDistanceMatrix::dijkstra(&g, |_, _| 1.0);
        let sparse = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        assert!(sparse.is_sparse());
        assert!(!dense.is_sparse());
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        for i in 0..7u32 {
            for j in 0..7u32 {
                assert_eq!(
                    sparse.get(Qubit(i), Qubit(j)).to_bits(),
                    dense.get(Qubit(i), Qubit(j)).to_bits()
                );
            }
        }
    }

    #[test]
    fn auto_policy_follows_threshold() {
        let small = square();
        assert!(!WeightedDistanceMatrix::hops(&small).is_sparse());
        assert!(
            WeightedDistanceMatrix::with_backend(&small, |_, _| 1.0, DistanceBackend::Sparse)
                .is_sparse()
        );
        assert!(!WeightedDistanceMatrix::auto(&small, |_, _| 1.0).is_sparse());
        // A ring just above the threshold flips to sparse.
        let n = DENSE_DISTANCE_THRESHOLD + 1;
        let big = CouplingGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        assert!(WeightedDistanceMatrix::hops(&big).is_sparse());
        assert!(WeightedDistanceMatrix::auto(&big, |_, _| 1.0).is_sparse());
    }

    #[test]
    fn sparse_row_cache_is_bounded() {
        let n = (ROW_CACHE_CAPACITY + 200) as u32;
        let g = CouplingGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let d = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        for q in 0..n {
            let _ = d.get(Qubit(q), Qubit(0));
        }
        assert_eq!(d.cached_rows(), ROW_CACHE_CAPACITY);
        // Eviction never changes values: re-query the very first source.
        assert_eq!(d.get(Qubit(0), Qubit(n - 1)), f64::from(n - 1));
    }

    #[test]
    fn row_guards_coexist_across_eviction() {
        let n = (ROW_CACHE_CAPACITY + 8) as u32;
        let g = CouplingGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let d = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        let first = d.row(Qubit(0));
        // Touch enough sources to evict qubit 0's row from the LRU.
        for q in 1..n {
            let _ = d.row(Qubit(q));
        }
        // The held guard still reads the evicted row's (correct) data.
        assert_eq!(first[(n - 1) as usize], f64::from(n - 1));
        let again = d.row(Qubit(0));
        assert_eq!(*first, *again);
    }

    #[test]
    fn poisoned_row_caches_keep_answering() {
        let g = CouplingGraph::from_edges(6, (0..5).map(|i| (i, i + 1))).unwrap();
        let hops = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        let costs = WeightedDistanceMatrix::sparse(&g, |_, _| 0.5);
        let _ = hops.get(Qubit(0), Qubit(5)); // warm one row each
        let _ = costs.get(Qubit(0), Qubit(5));
        // An out-of-range source panics inside the row computation, which
        // runs with the cache lock held: the panic poisons both locks.
        std::thread::scope(|s| {
            assert!(s.spawn(|| hops.row(Qubit(6)).len()).join().is_err());
            assert!(s.spawn(|| costs.row(Qubit(6)).len()).join().is_err());
        });
        let (WeightedBackend::Sparse(hop_engine), WeightedBackend::Sparse(cost_engine)) =
            (&hops.backend, &costs.backend)
        else {
            panic!("constructed sparse");
        };
        assert!(hop_engine.cache.is_poisoned() && cost_engine.cache.is_poisoned());
        let dense_hops = WeightedDistanceMatrix::dijkstra(&g, |_, _| 1.0);
        for i in 0..6u32 {
            for j in 0..6u32 {
                let (a, b) = (Qubit(i), Qubit(j));
                assert_eq!(hops.get(a, b), dense_hops.get(a, b));
                assert_eq!(costs.get(a, b), 0.5 * dense_hops.get(a, b));
            }
        }
        assert_eq!(hops.cached_rows(), 6);
        assert_eq!(costs.cached_rows(), 6);
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        let g = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        for d in [
            oracle(&g),
            WeightedDistanceMatrix::dijkstra(&g, |_, _| 1.0),
            WeightedDistanceMatrix::sparse(&g, |_, _| 1.0),
        ] {
            assert_eq!(d.get(Qubit(0), Qubit(2)), f64::INFINITY);
            assert_eq!(d.get(Qubit(3), Qubit(1)), f64::INFINITY);
            assert_eq!(d.get(Qubit(2), Qubit(3)), 1.0);
        }
    }

    #[test]
    fn empty_graph() {
        let g = CouplingGraph::from_edges(0, []).unwrap();
        for d in [
            oracle(&g),
            WeightedDistanceMatrix::dijkstra(&g, |_, _| 1.0),
            WeightedDistanceMatrix::sparse(&g, |_, _| 1.0),
        ] {
            assert_eq!(d.num_qubits(), 0);
            assert_eq!(d.cached_rows(), 0);
        }
    }

    #[test]
    fn get_panics_on_out_of_range_column_on_both_backends() {
        let g = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        for backend in [DistanceBackend::Dense, DistanceBackend::Sparse] {
            let d = WeightedDistanceMatrix::with_backend(&g, |_, _| 1.0, backend);
            let read = std::panic::catch_unwind(|| d.get(Qubit(0), Qubit(4)));
            assert!(read.is_err(), "{backend:?} read D[0][4] as {read:?}");
        }
    }

    #[test]
    fn weighted_hops_matches_unweighted() {
        let g = CouplingGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let w = WeightedDistanceMatrix::hops(&g);
        for i in 0..5u32 {
            let bfs = g.bfs_distances(Qubit(i));
            for j in 0..5u32 {
                assert_eq!(w.get(Qubit(i), Qubit(j)), f64::from(bfs[j as usize]));
            }
        }
        assert_eq!(w, oracle(&g));
    }

    #[test]
    fn weighted_prefers_cheap_detours() {
        // Triangle 0-1-2 where the direct edge (0,2) costs 10 but the
        // two-hop path through 1 costs 2.
        let g = CouplingGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let w = WeightedDistanceMatrix::floyd_warshall(&g, |a, b| {
            if (a, b) == (Qubit(0), Qubit(2)) {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(w.get(Qubit(0), Qubit(2)), 2.0);
        let s = WeightedDistanceMatrix::sparse(&g, |a, b| {
            if (a, b) == (Qubit(0), Qubit(2)) {
                10.0
            } else {
                1.0
            }
        });
        assert_eq!(s.get(Qubit(0), Qubit(2)), 2.0);
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_bitwise_on_integer_weights() {
        let g = CouplingGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap();
        // Integer-valued weights: every path sum is exact in f64, so all
        // three algorithms must agree bit-for-bit.
        let weight = |a: Qubit, b: Qubit| f64::from(a.0 + b.0 + 1);
        let fw = WeightedDistanceMatrix::floyd_warshall(&g, weight);
        let dj = WeightedDistanceMatrix::dijkstra(&g, weight);
        let sp = WeightedDistanceMatrix::sparse(&g, weight);
        assert_eq!(fw, dj);
        assert_eq!(dj, sp);
    }

    #[test]
    fn sparse_and_dense_dijkstra_are_bitwise_identical_on_noisy_weights() {
        let g = square();
        // Irrational-ish weights where summation order matters: the
        // sparse engine and the dense dijkstra constructor share one row
        // algorithm, so they must still agree bitwise.
        let weight = |a: Qubit, b: Qubit| 0.1 + 0.017 * f64::from(a.0 * 7 + b.0);
        let dense = WeightedDistanceMatrix::dijkstra(&g, weight);
        let sparse = WeightedDistanceMatrix::sparse(&g, weight);
        for i in 0..4u32 {
            let dr = dense.row(Qubit(i));
            let sr = sparse.row(Qubit(i));
            for j in 0..4 {
                assert_eq!(dr[j].to_bits(), sr[j].to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn weighted_marks_unreachable_as_infinity() {
        let g = CouplingGraph::from_edges(3, [(0, 1)]).unwrap();
        let w = WeightedDistanceMatrix::hops(&g);
        assert!(w.get(Qubit(0), Qubit(2)).is_infinite());
        let s = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        assert!(s.get(Qubit(0), Qubit(2)).is_infinite());
    }

    #[test]
    fn rows_agree_with_get() {
        let g = square();
        for backend in [DistanceBackend::Dense, DistanceBackend::Sparse] {
            let d = WeightedDistanceMatrix::with_backend(&g, |_, _| 1.0, backend);
            for i in 0..4u32 {
                let row = d.row(Qubit(i));
                assert_eq!(row.len(), 4);
                for j in 0..4u32 {
                    assert_eq!(row[j as usize], d.get(Qubit(i), Qubit(j)));
                }
            }
        }
    }

    #[test]
    fn as_dense_exposes_row_major_storage_only_for_dense() {
        let g = square();
        let dense = WeightedDistanceMatrix::dijkstra(&g, |_, _| 1.0);
        let data = dense.as_dense().expect("dense backend");
        for i in 0..4u32 {
            assert_eq!(
                &data[i as usize * 4..(i as usize + 1) * 4],
                &*dense.row(Qubit(i))
            );
        }
        assert!(WeightedDistanceMatrix::sparse(&g, |_, _| 1.0)
            .as_dense()
            .is_none());
    }

    #[test]
    fn clone_of_sparse_matrix_preserves_values() {
        let g = square();
        let s = WeightedDistanceMatrix::sparse(&g, |_, _| 1.0);
        let _ = s.get(Qubit(0), Qubit(3)); // warm one row
        let c = s.clone();
        assert!(c.is_sparse());
        assert_eq!(c.cached_rows(), 0, "clone starts cold");
        assert_eq!(s, c);
        let w = WeightedDistanceMatrix::sparse(&g, |_, _| 2.5);
        let wc = w.clone();
        assert_eq!(w, wc);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn weighted_rejects_negative_weights() {
        let g = CouplingGraph::from_edges(2, [(0, 1)]).unwrap();
        let _ = WeightedDistanceMatrix::floyd_warshall(&g, |_, _| -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sparse_rejects_negative_weights() {
        let g = CouplingGraph::from_edges(2, [(0, 1)]).unwrap();
        let _ = WeightedDistanceMatrix::sparse(&g, |_, _| -1.0);
    }
}
