//! Persistent per-traversal search state: the allocation-free, delta-scored
//! engine behind [`crate::router::route_pass`].
//!
//! The seed implementation paid, **per candidate SWAP**, a full
//! `O(|F| + |E|)` re-summation of front/extended distances through two
//! layout mutations, plus fresh `Vec`/`VecDeque` allocations per search
//! step for the front layer, the extended set, the BFS visited set, and
//! the tie-break pool. This module restructures that hot loop around one
//! [`SearchState`] owned for a whole traversal:
//!
//! - **Delta scoring** ([`IncidenceTable`]): the front and extended
//!   distance sums are computed once per step; each candidate SWAP
//!   `(x, y)` is then scored by adjusting only the gates incident to the
//!   two swapped physical qubits, found through a per-physical-qubit
//!   incidence list. Cost per candidate drops from `O(|F| + |E|)` to
//!   `O(deg)`.
//! - **Clean steps pay for what their SWAP touched.** Most SWAPs leave
//!   every front gate blocked, so the front layer and extended set are
//!   unchanged and only the layout moved on the swapped pair `(sa, sb)`.
//!   On such a *clean* step the incidence table
//!   ([`IncidenceTable::apply_swap`]) and the candidate segments
//!   ([`CandidateScratch::apply_swap`]) are patched in place, touching
//!   only the gates on `sa`/`sb` and the candidate segments on or next to
//!   them; the result equals a full rebuild field for field.
//! - **Reused scratch**: the front/extended/tie-break/ready buffers and
//!   the extended-set BFS state ([`sabre_circuit::ExtendedSetScratch`])
//!   live in the state and keep their capacity across steps *and*
//!   traversals.
//! - **Pinned distance rows** ([`RowPins`]): adjusted distances resolve
//!   against plain row slices. A dense matrix lends its rows straight from
//!   its storage. A sparse matrix's rows sit in an LRU behind a `Mutex`
//!   and a hash probe, so a traversal pins each row the first time a
//!   front/extended endpoint or a candidate endpoint needs it and reads
//!   the pinned slice for the rest of the traversal. Pins are released
//!   all at once only when a new one would take the table past
//!   [`ROW_CACHE_CAPACITY`] rows: the LRU is touched only on a pin miss,
//!   never per candidate and never just because the front layer moved.
//!
//! # Exactness contract
//!
//! Routing must stay **bit-identical** to the reference implementation
//! ([`crate::reference`]). Delta scoring regroups floating-point sums, so
//! this holds because the distance sums the heuristic takes are exact:
//! hop-count matrices contain small integers, and sums/differences of
//! f64-representable integers are exact regardless of association. The
//! normalization and decay arithmetic applied on top replicates the
//! reference expression shapes operation for operation. For noise-weighted
//! matrices (arbitrary `f64` edge costs) scores may differ from the
//! reference in the last ulp — far inside the `SCORE_EPSILON = 1e-12`
//! tie-break slack, so the selected SWAP sequence is unchanged in
//! practice; `tests/hot_loop_equivalence.rs` pins both regimes. The
//! in-place clean-step updates add no drift of their own: they rebuild
//! exactly the table and candidate order a fresh step would.

use sabre_circuit::{Circuit, ExtendedSetScratch, Qubit};
use sabre_topology::{CouplingGraph, DistanceRow, WeightedDistanceMatrix, ROW_CACHE_CAPACITY};

use crate::{HeuristicKind, Layout, SabreConfig};

/// The distance rows one traversal reads, resolved to plain slices.
///
/// A dense matrix needs no bookkeeping: rows are sliced straight out of
/// its row-major storage. A sparse matrix keeps one slot per physical
/// qubit; the first read of a row fills its slot from the matrix's row
/// engine, and later reads are a slot load for the rest of the traversal.
/// The table holds at most [`ROW_CACHE_CAPACITY`] rows (the row engine's
/// own bound): a fill that would exceed it releases every pin first.
/// Values are the matrix's own rows either way, so pinning can never
/// change a score.
pub(crate) enum RowPins<'a> {
    /// Row-major `n × n` storage of a dense matrix.
    Dense { data: &'a [f64], n: usize },
    /// A sparse matrix's pinned rows.
    Sparse(SparsePins<'a>),
}

/// The pin slots of a sparse matrix.
pub(crate) struct SparsePins<'a> {
    dist: &'a WeightedDistanceMatrix,
    /// `slots[Q]`: row `D[Q][·]` while pinned.
    slots: Vec<Option<DistanceRow<'a>>>,
    /// Physical qubits whose slots are filled (for cheap release).
    pinned: Vec<u32>,
}

impl SparsePins<'_> {
    /// The pin-miss path for rows `x` and `y` (equal for a single row):
    /// one row-engine fetch each (lock, LRU probe, and a Dijkstra sweep if
    /// the LRU misses too). Out of line, so the hit path stays slot loads
    /// and a branch.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, x: Qubit, y: Qubit) {
        let missing = usize::from(self.slots[x.index()].is_none())
            + usize::from(x != y && self.slots[y.index()].is_none());
        if self.pinned.len() + missing > ROW_CACHE_CAPACITY {
            self.release();
        }
        for q in [x, y] {
            if self.slots[q.index()].is_none() {
                self.slots[q.index()] = Some(self.dist.row(q));
                self.pinned.push(q.0);
            }
        }
    }

    /// Drops every pin; the next read of a row pins it afresh.
    fn release(&mut self) {
        for q in self.pinned.drain(..) {
            self.slots[q as usize] = None;
        }
    }

    #[inline]
    fn pinned_row(&self, q: Qubit) -> &[f64] {
        self.slots[q.index()]
            .as_deref()
            .expect("row is pinned before it is read")
    }
}

impl<'a> RowPins<'a> {
    pub(crate) fn new(dist: &'a WeightedDistanceMatrix) -> Self {
        let n = dist.num_qubits();
        match dist.as_dense() {
            Some(data) => RowPins::Dense { data, n },
            None => RowPins::Sparse(SparsePins {
                dist,
                slots: vec![None; n],
                pinned: Vec::new(),
            }),
        }
    }

    /// Row `D[q][·]`, indexed by physical qubit.
    #[inline]
    pub(crate) fn row(&mut self, q: Qubit) -> &[f64] {
        match self {
            RowPins::Dense { data, n } => &data[q.index() * *n..(q.index() + 1) * *n],
            RowPins::Sparse(pins) => {
                if pins.slots[q.index()].is_none() {
                    pins.fill(q, q);
                }
                pins.pinned_row(q)
            }
        }
    }

    /// Rows `D[x][·]` and `D[y][·]` side by side: the two rows scoring
    /// SWAP `(x, y)` reads.
    #[inline]
    pub(crate) fn pair(&mut self, x: Qubit, y: Qubit) -> (&[f64], &[f64]) {
        match self {
            RowPins::Dense { data, n } => (
                &data[x.index() * *n..(x.index() + 1) * *n],
                &data[y.index() * *n..(y.index() + 1) * *n],
            ),
            RowPins::Sparse(pins) => {
                if pins.slots[x.index()].is_none() || pins.slots[y.index()].is_none() {
                    pins.fill(x, y);
                }
                (pins.pinned_row(x), pins.pinned_row(y))
            }
        }
    }
}

/// One gate's entry in a physical qubit's incidence list: enough to
/// replace its old distance contribution with the post-SWAP one without
/// touching the layout.
#[derive(Clone, Copy, Debug)]
struct IncidentGate {
    /// The gate's **other** mapped endpoint.
    other: Qubit,
    /// The gate's slot in `front ++ extended`: slots below `|F|` are
    /// front gates. The step's `front`/`extended` buffers map it back to
    /// the gate, so the entry stays 16 bytes.
    slot: u32,
    /// The gate's current distance `D[π(q1)][π(q2)]`.
    dist: f64,
}

const _: () = assert!(std::mem::size_of::<IncidentGate>() == 16);

/// Gate `idx`'s mapped endpoints `(π(q1), π(q2))` and its distance, read
/// in the gate's own orientation `D[π(q1)][π(q2)]`: noise-weighted
/// Dijkstra rows need not be symmetric to the last ulp, so every path
/// that builds an incidence entry reads it this one way.
#[inline]
fn mapped_gate(
    circuit: &Circuit,
    pins: &mut RowPins<'_>,
    layout: &Layout,
    idx: usize,
) -> (Qubit, Qubit, f64) {
    let (a, b) = circuit.gates()[idx].qubits();
    let b = b.expect("front/extended sets contain only two-qubit gates");
    let (pa, pb) = (layout.phys_of(a), layout.phys_of(b));
    (pa, pb, pins.row(pa)[pb.index()])
}

/// Per-step delta-scoring table: base distance sums plus a physical-qubit →
/// incident-gate index over the front layer and extended set.
///
/// [`IncidenceTable::prepare`] builds it in `O(|F| + |E|)` when the front
/// layer changed; [`IncidenceTable::apply_swap`] patches it in place after
/// a clean SWAP. [`IncidenceTable::score`] then evaluates one candidate
/// in `O(deg(x) + deg(y))` where `deg` counts incident front/extended
/// gates — the delta-scoring scheme of Qiskit's Rust SABRE port.
#[derive(Clone, Debug)]
pub(crate) struct IncidenceTable {
    /// `lists[Q]`: gates with a mapped endpoint on physical qubit `Q`, in
    /// slot order.
    lists: Vec<Vec<IncidentGate>>,
    /// Physical qubits whose lists may be non-empty (for cheap clearing;
    /// a qubit may repeat).
    touched: Vec<u32>,
    /// Per-gate distances staged contiguously by slot (front then
    /// extended) so the base sums run as chunked loops over one dense
    /// slice — see [`chunked_sum`].
    stage: Vec<f64>,
    /// `|F|`: slots below it are front gates.
    front_len: u32,
    /// `Σ_{g∈F} D[π(g.q1)][π(g.q2)]` under the current (unswapped) layout.
    front_base: f64,
    /// The same sum over the extended set.
    extended_base: f64,
    /// `|F|.max(1)` as f64 — the front normalization divisor.
    front_norm: f64,
    /// `|E|` as f64 (0.0 when empty — the extended term is skipped).
    extended_len: f64,
}

impl IncidenceTable {
    fn new(n_phys: usize) -> Self {
        IncidenceTable {
            lists: vec![Vec::new(); n_phys],
            touched: Vec::new(),
            stage: Vec::new(),
            front_len: 0,
            front_base: 0.0,
            extended_base: 0.0,
            front_norm: 1.0,
            extended_len: 0.0,
        }
    }

    /// Rebuilds the table for the current step's front layer and extended
    /// set under `layout`. Only the lists touched since the previous
    /// rebuild are cleared.
    pub(crate) fn prepare(
        &mut self,
        circuit: &Circuit,
        pins: &mut RowPins<'_>,
        layout: &Layout,
        front: &[usize],
        extended: &[usize],
    ) {
        for &q in &self.touched {
            self.lists[q as usize].clear();
        }
        self.touched.clear();
        self.stage.clear();
        self.front_len = front.len() as u32;
        for (slot, &idx) in front.iter().chain(extended).enumerate() {
            let (pa, pb, dist) = mapped_gate(circuit, pins, layout, idx);
            let slot = slot as u32;
            self.stage.push(dist);
            self.insert(
                pa,
                IncidentGate {
                    other: pb,
                    slot,
                    dist,
                },
            );
            self.insert(
                pb,
                IncidentGate {
                    other: pa,
                    slot,
                    dist,
                },
            );
        }
        self.front_norm = front.len().max(1) as f64;
        self.extended_len = extended.len() as f64;
        self.sum_stage();
    }

    fn insert(&mut self, q: Qubit, entry: IncidentGate) {
        let list = &mut self.lists[q.index()];
        if list.is_empty() {
            self.touched.push(q.0);
        }
        list.push(entry);
    }

    /// Updates the table in place after the clean SWAP `(sa, sb)`, which
    /// `layout` already reflects, leaving exactly what [`Self::prepare`]
    /// would build for the same `front`/`extended`: the gates that moved
    /// are the ones listed on `sa`/`sb`, so their two lists trade places,
    /// each moved gate's distance is re-read through [`mapped_gate`], and
    /// its partner entry on the other endpoint is patched where it sits
    /// (lists are in slot order, which a SWAP never changes).
    pub(crate) fn apply_swap(
        &mut self,
        circuit: &Circuit,
        pins: &mut RowPins<'_>,
        layout: &Layout,
        front: &[usize],
        extended: &[usize],
        (sa, sb): (Qubit, Qubit),
    ) {
        let was_empty = [sa, sb].map(|q| self.lists[q.index()].is_empty());
        self.lists.swap(sa.index(), sb.index());
        for (q, was_empty) in [sa, sb].into_iter().zip(was_empty) {
            if was_empty && !self.lists[q.index()].is_empty() {
                self.touched.push(q.0);
            }
        }
        for q in [sa, sb] {
            for i in 0..self.lists[q.index()].len() {
                let slot = self.lists[q.index()][i].slot;
                let idx = match front.get(slot as usize) {
                    Some(&idx) => idx,
                    None => extended[slot as usize - front.len()],
                };
                let (pa, pb, dist) = mapped_gate(circuit, pins, layout, idx);
                let other = if pa == q { pb } else { pa };
                self.lists[q.index()][i] = IncidentGate { other, slot, dist };
                self.stage[slot as usize] = dist;
                // A partner on sa/sb is rewritten by that list's own pass.
                if other != sa && other != sb {
                    let partner = self.lists[other.index()]
                        .iter_mut()
                        .find(|e| e.slot == slot)
                        .expect("every gate is listed on both endpoints");
                    *partner = IncidentGate {
                        other: q,
                        slot,
                        dist,
                    };
                }
            }
        }
        self.sum_stage();
    }

    /// Base sums over the staged distances: dense, branch-free, and in
    /// the multi-accumulator shape the autovectorizer turns into SIMD
    /// lanes. Exact for hop matrices (integer-valued f64 sums associate
    /// freely); for noise weights any regrouping drift sits far inside
    /// the SCORE_EPSILON tie-break slack (module docs).
    fn sum_stage(&mut self) {
        let (front, extended) = self.stage.split_at(self.front_len as usize);
        self.front_base = chunked_sum(front);
        self.extended_base = chunked_sum(extended);
    }

    /// Scores the candidate SWAP on physical edge `(x, y)` without
    /// mutating the layout: lower is better, same cost functions as
    /// [`crate::heuristic`] (paper §IV-D Equations 1–2).
    pub(crate) fn score(
        &self,
        pins: &mut RowPins<'_>,
        config: &SabreConfig,
        decay: &[f64],
        (x, y): (Qubit, Qubit),
    ) -> f64 {
        let mut front_sum = self.front_base;
        let mut extended_sum = self.extended_base;
        // After SWAP(x, y) a gate endpoint on x maps to y and vice versa.
        // A gate incident to *both* keeps its distance (D is symmetric)
        // and is skipped from whichever list reaches it.
        let (row_x, row_y) = pins.pair(x, y);
        for e in &self.lists[x.index()] {
            if e.other == y {
                continue;
            }
            let new_dist = row_y[e.other.index()];
            if e.slot < self.front_len {
                front_sum = front_sum - e.dist + new_dist;
            } else {
                extended_sum = extended_sum - e.dist + new_dist;
            }
        }
        for e in &self.lists[y.index()] {
            if e.other == x {
                continue;
            }
            let new_dist = row_x[e.other.index()];
            if e.slot < self.front_len {
                front_sum = front_sum - e.dist + new_dist;
            } else {
                extended_sum = extended_sum - e.dist + new_dist;
            }
        }
        match config.heuristic {
            HeuristicKind::Basic => front_sum,
            HeuristicKind::LookAhead | HeuristicKind::Decay => {
                let front_term = front_sum / self.front_norm;
                let extended_term = if self.extended_len == 0.0 {
                    0.0
                } else {
                    config.extended_set_weight * extended_sum / self.extended_len
                };
                let base = front_term + extended_term;
                if config.heuristic == HeuristicKind::Decay {
                    decay[x.index()].max(decay[y.index()]) * base
                } else {
                    base
                }
            }
        }
    }
}

/// Four-accumulator chunked summation over a contiguous `f64` slice.
///
/// The independent accumulators break the serial dependency chain of a
/// naive `iter().sum()`, which is exactly the shape LLVM autovectorizes
/// into SIMD adds without any `unsafe`/`std::arch` code (the crate
/// forbids unsafe). The result is bit-identical to the serial sum when
/// the inputs are integer-valued `f64`s (hop-count distance rows — the
/// common case); see [`IncidenceTable::sum_stage`] for the noise-weighted
/// drift argument.
#[inline]
fn chunked_sum(values: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in chunks.by_ref() {
        acc[0] += chunk[0];
        acc[1] += chunk[1];
        acc[2] += chunk[2];
        acc[3] += chunk[3];
    }
    let tail: f64 = chunks.remainder().iter().sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `owner` value of a physical qubit hosting no front endpoint. Larger
/// than every endpoint position, so "no owner" and "a later owner" are
/// the same comparison.
const NO_OWNER: u32 = u32::MAX;

/// The per-step SWAP candidates, kept as one segment per front endpoint.
///
/// The sweep implements the paper's reduced search space (§IV-C1): only
/// SWAPs on coupling-graph edges with at least one endpoint hosting a
/// front-layer logical qubit — "any SWAPs inside [the] low priority qubit
/// set cannot help with resolving dependencies in the front layer."
///
/// Endpoint `j` is operand `j % 2` of front gate `j / 2`. Front gates are
/// qubit-disjoint, so every physical qubit hosts at most one endpoint,
/// recorded in `owner`. The candidate order the tie-break depends on is
/// first encounter, walking endpoints in order and each endpoint's
/// neighbors in graph order; an edge `(p_j, nb)` is first met at endpoint
/// `j` unless `nb` hosts an earlier endpoint. So segment `j` holds
/// `(p_j, nb)` exactly when `owner[nb] > j`, and the segments read in
/// order are the deduplicated sweep. [`CandidateScratch::rebuild`] fills
/// every segment when the front changed; after a clean SWAP
/// [`CandidateScratch::apply_swap`] refills only the segments whose
/// endpoint or neighbor ownership the SWAP moved. The sweep walks the
/// segments directly, with no flattening copy.
#[derive(Clone, Debug)]
pub(crate) struct CandidateScratch {
    /// `owner[Q]`: the endpoint position on physical qubit `Q`, or
    /// [`NO_OWNER`].
    owner: Vec<u32>,
    /// `endpoints[j]`: the physical qubit hosting endpoint `j`.
    endpoints: Vec<Qubit>,
    /// `segments[j]`: the candidates first met at endpoint `j`, as
    /// `(min, max)` pairs; only the first `endpoints.len()` are live, the
    /// rest keep their capacity for wider fronts.
    segments: Vec<Vec<(Qubit, Qubit)>>,
    /// Total candidates across the live segments.
    len: usize,
}

impl CandidateScratch {
    pub(crate) fn new(graph: &CouplingGraph) -> Self {
        CandidateScratch {
            owner: vec![NO_OWNER; graph.num_qubits() as usize],
            endpoints: Vec::new(),
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Rebuilds every segment for a new front layer under `layout`.
    pub(crate) fn rebuild(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        layout: &Layout,
        front: &[usize],
    ) {
        for &p in &self.endpoints {
            self.owner[p.index()] = NO_OWNER;
        }
        self.endpoints.clear();
        for &idx in front {
            let (a, b) = circuit.gates()[idx].qubits();
            let b = b.expect("front layer holds two-qubit gates");
            for logical in [a, b] {
                let p = layout.phys_of(logical);
                self.owner[p.index()] = self.endpoints.len() as u32;
                self.endpoints.push(p);
            }
        }
        if self.segments.len() < self.endpoints.len() {
            self.segments.resize_with(self.endpoints.len(), Vec::new);
        }
        self.len = 0;
        for j in 0..self.endpoints.len() {
            self.segments[j].clear();
            self.refill(graph, j as u32);
        }
    }

    /// Updates the segments after the clean SWAP `(sa, sb)`: the front
    /// endpoints on `sa`/`sb` trade places, and only the segments of
    /// endpoints on or next to the pair can change.
    pub(crate) fn apply_swap(&mut self, graph: &CouplingGraph, (sa, sb): (Qubit, Qubit)) {
        self.owner.swap(sa.index(), sb.index());
        for q in [sa, sb] {
            let j = self.owner[q.index()];
            if j != NO_OWNER {
                self.endpoints[j as usize] = q;
            }
        }
        for q in [sa, sb] {
            for &p in std::iter::once(&q).chain(graph.neighbors(q)) {
                let j = self.owner[p.index()];
                if j != NO_OWNER {
                    self.refill(graph, j);
                }
            }
        }
    }

    /// Rewrites segment `j` from its endpoint's current neighborhood.
    fn refill(&mut self, graph: &CouplingGraph, j: u32) {
        let p = self.endpoints[j as usize];
        let segment = &mut self.segments[j as usize];
        self.len -= segment.len();
        segment.clear();
        for &nb in graph.neighbors(p) {
            if self.owner[nb.index()] > j {
                segment.push(if p < nb { (p, nb) } else { (nb, p) });
            }
        }
        self.len += segment.len();
    }

    /// The live segments, in sweep order.
    pub(crate) fn segments(&self) -> &[Vec<(Qubit, Qubit)>] {
        &self.segments[..self.endpoints.len()]
    }

    /// Candidates across all live segments.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The live segments concatenated: the sweep order.
    #[cfg(test)]
    pub(crate) fn to_vec(&self) -> Vec<(Qubit, Qubit)> {
        self.segments().concat()
    }

    /// The slot in `front` of the gate with an endpoint on physical qubit
    /// `q`, if any — as of the last [`Self::rebuild`]/[`Self::apply_swap`].
    #[inline]
    pub(crate) fn front_slot_on(&self, q: Qubit) -> Option<usize> {
        let j = self.owner[q.index()];
        (j != NO_OWNER).then_some(j as usize / 2)
    }
}

/// All mutable scratch one traversal of the SWAP search owns.
///
/// Constructed once per traversal (or reused across the traversals of a
/// restart — see [`crate::SabreRouter`]); every buffer keeps its capacity,
/// so the steady-state search step performs **zero heap allocations**.
#[derive(Clone, Debug)]
pub(crate) struct SearchState {
    /// Snapshot buffer for the inner execute loop (replaces the per-pass
    /// `frontier.ready().to_vec()` clone).
    pub(crate) ready_snapshot: Vec<usize>,
    /// Front layer `F` of the current step.
    pub(crate) front: Vec<usize>,
    /// Extended set `E` of the current step.
    pub(crate) extended: Vec<usize>,
    /// BFS scratch behind [`sabre_circuit::DependencyDag::extended_set_with`].
    pub(crate) extended_scratch: ExtendedSetScratch,
    /// Equal-best candidates collected for random tie-breaking.
    pub(crate) best: Vec<(Qubit, Qubit)>,
    /// Candidate-SWAP segments.
    pub(crate) candidates: CandidateScratch,
    /// Delta-scoring table.
    pub(crate) incidence: IncidenceTable,
}

impl SearchState {
    /// Scratch sized for `graph`; circuit-sized buffers grow on first use.
    pub(crate) fn new(graph: &CouplingGraph) -> Self {
        SearchState {
            ready_snapshot: Vec::new(),
            front: Vec::new(),
            extended: Vec::new(),
            extended_scratch: ExtendedSetScratch::new(),
            best: Vec::new(),
            candidates: CandidateScratch::new(graph),
            incidence: IncidenceTable::new(graph.num_qubits() as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{score_swap, HeuristicInputs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sabre_topology::{devices, DistanceBackend};

    /// The seen-bitset candidate sweep the segments replaced, kept as
    /// their oracle: first-encounter order over the front endpoints and
    /// their neighbors, deduplicated by coupling-graph edge id.
    fn collect_seen_bitset(
        circuit: &Circuit,
        graph: &CouplingGraph,
        layout: &Layout,
        front: &[usize],
    ) -> Vec<(Qubit, Qubit)> {
        let mut seen = vec![false; graph.num_edges()];
        let mut buf = Vec::new();
        for &idx in front {
            let (a, b) = circuit.gates()[idx].qubits();
            let b = b.expect("front layer holds two-qubit gates");
            for logical in [a, b] {
                let phys = layout.phys_of(logical);
                let neighbors = graph.neighbors(phys);
                let edge_ids = graph.neighbor_edge_ids(phys);
                for (&nb, &edge_id) in neighbors.iter().zip(edge_ids) {
                    if !seen[edge_id as usize] {
                        seen[edge_id as usize] = true;
                        buf.push(if phys < nb { (phys, nb) } else { (nb, phys) });
                    }
                }
            }
        }
        buf
    }

    /// Brute-force cross-check: on hop matrices the delta scorer must be
    /// bit-identical to the reference full re-summation scorer for every
    /// candidate, front, and heuristic kind — reading dense rows directly
    /// and sparse rows through pins alike.
    #[test]
    fn delta_score_matches_reference_scorer_bitwise() {
        let device = devices::ibm_q20_tokyo();
        let graph = device.graph();
        for backend in [DistanceBackend::Dense, DistanceBackend::Sparse] {
            let dist = WeightedDistanceMatrix::with_backend(graph, |_, _| 1.0, backend);
            assert_eq!(dist.is_sparse(), backend == DistanceBackend::Sparse);
            assert_delta_matches_reference(graph, &dist);
        }
    }

    fn assert_delta_matches_reference(graph: &CouplingGraph, dist: &WeightedDistanceMatrix) {
        let mut c = Circuit::new(20);
        for (a, b) in [(0, 19), (3, 11), (7, 2), (14, 5), (9, 16), (1, 18)] {
            c.cx(Qubit(a), Qubit(b));
        }
        let front = [0usize, 1, 2];
        let extended = [3usize, 4, 5];
        let mut layout = Layout::identity(20);
        let mut decay = vec![1.0; 20];
        decay[4] = 1.3;
        decay[11] = 1.02;

        let mut table = IncidenceTable::new(20);
        let mut pins = RowPins::new(dist);
        table.prepare(&c, &mut pins, &layout, &front, &extended);
        let mut scratch = CandidateScratch::new(graph);
        scratch.rebuild(&c, graph, &layout, &front);
        let candidates = scratch.to_vec();
        assert!(!candidates.is_empty());

        for kind in [
            HeuristicKind::Basic,
            HeuristicKind::LookAhead,
            HeuristicKind::Decay,
        ] {
            let config = SabreConfig {
                heuristic: kind,
                ..SabreConfig::default()
            };
            let inputs = HeuristicInputs {
                dist,
                circuit: &c,
                front: &front,
                extended: &extended,
                weight: config.extended_set_weight,
                kind,
            };
            for &swap in &candidates {
                let reference = score_swap(&inputs, &mut layout, &decay, swap);
                let delta = table.score(&mut pins, &config, &decay, swap);
                assert_eq!(
                    delta.to_bits(),
                    reference.to_bits(),
                    "kind={kind:?} swap=({},{})",
                    swap.0,
                    swap.1
                );
            }
        }
    }

    /// A gate whose two endpoints are exactly the swapped pair must keep
    /// its distance (D is symmetric) — the skip branches cover it.
    #[test]
    fn swapping_a_gates_own_edge_leaves_its_score_unchanged() {
        let device = devices::linear(4);
        let graph = device.graph();
        let dist = WeightedDistanceMatrix::hops(graph);
        let mut c = Circuit::new(4);
        c.cx(Qubit(1), Qubit(2));
        let layout = Layout::identity(4);
        let mut table = IncidenceTable::new(4);
        let mut pins = RowPins::new(&dist);
        table.prepare(&c, &mut pins, &layout, &[0], &[]);
        let config = SabreConfig {
            heuristic: HeuristicKind::Basic,
            ..SabreConfig::default()
        };
        let score = table.score(&mut pins, &config, &[1.0; 4], (Qubit(1), Qubit(2)));
        assert_eq!(score, 1.0, "distance 1 before and after the self-swap");
    }

    /// The chunked sum must equal the serial sum bitwise on integer-valued
    /// data (the hop-matrix exactness contract) across lengths straddling
    /// the 4-lane chunk boundary.
    #[test]
    fn chunked_sum_matches_serial_on_integer_values() {
        // Empty slice: +0.0 (std's `sum()` folds from -0.0, numerically
        // equal; the scorer never consults a base over an empty set with
        // a nonzero weight anyway).
        assert_eq!(chunked_sum(&[]), 0.0);
        for len in 1..23usize {
            let values: Vec<f64> = (0..len).map(|i| ((i * 7 + 3) % 19) as f64).collect();
            let serial: f64 = values.iter().sum();
            assert_eq!(
                chunked_sum(&values).to_bits(),
                serial.to_bits(),
                "len={len}"
            );
        }
    }

    /// On arbitrary floats the regrouped sum may differ from serial only
    /// by ulps — far inside the SCORE_EPSILON tie-break slack.
    #[test]
    fn chunked_sum_stays_within_epsilon_on_floats() {
        let values: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.37).sin().abs() + 0.1)
            .collect();
        let serial: f64 = values.iter().sum();
        assert!((chunked_sum(&values) - serial).abs() < 1e-12);
    }

    /// Preparing for a new step must fully supersede the previous one.
    #[test]
    fn prepare_clears_previous_step_state() {
        let device = devices::linear(5);
        let graph = device.graph();
        let dist = WeightedDistanceMatrix::hops(graph);
        let mut c = Circuit::new(5);
        c.cx(Qubit(0), Qubit(4)); // distance 4
        c.cx(Qubit(1), Qubit(3)); // distance 2
        let layout = Layout::identity(5);
        let config = SabreConfig {
            heuristic: HeuristicKind::Basic,
            ..SabreConfig::default()
        };
        let mut table = IncidenceTable::new(5);
        let mut pins = RowPins::new(&dist);
        table.prepare(&c, &mut pins, &layout, &[0], &[]);
        // Swap (3,4) moves q4 to Q3: front distance 3.
        assert_eq!(
            table.score(&mut pins, &config, &[1.0; 5], (Qubit(3), Qubit(4))),
            3.0
        );
        table.prepare(&c, &mut pins, &layout, &[1], &[]);
        // Same swap now scores gate 1 only: q3 moves to Q4, distance 3.
        assert_eq!(
            table.score(&mut pins, &config, &[1.0; 5], (Qubit(3), Qubit(4))),
            3.0
        );
        // Swap (0,1) moves q1 to Q0, three hops from q3 on Q3 — and must
        // not see gate 0's stale entry on Q0.
        assert_eq!(
            table.score(&mut pins, &config, &[1.0; 5], (Qubit(0), Qubit(1))),
            3.0
        );
    }

    /// Sparse pins hold exactly the matrix's rows, only the rows read,
    /// and nothing after a release; dense matrices pin nothing.
    #[test]
    fn pinned_rows_equal_matrix_rows_and_release_empties_the_pins() {
        let device = devices::grid(4, 4);
        let weight = |a: Qubit, b: Qubit| 0.3 + 0.01 * f64::from(a.0 + b.0);
        let dist = WeightedDistanceMatrix::sparse(device.graph(), weight);
        let mut pins = RowPins::new(&dist);
        for q in [0, 5, 15, 5] {
            assert_eq!(pins.row(Qubit(q)), &*dist.row(Qubit(q)));
        }
        let (row_5, row_6) = pins.pair(Qubit(5), Qubit(6));
        assert_eq!(row_5, &*dist.row(Qubit(5)));
        assert_eq!(row_6, &*dist.row(Qubit(6)));
        let RowPins::Sparse(sparse) = &mut pins else {
            panic!("sparse matrix must pin");
        };
        assert_eq!(sparse.pinned, [0, 5, 15, 6], "each row is pinned once");
        assert_eq!(sparse.slots.iter().filter(|s| s.is_some()).count(), 4);
        sparse.release();
        assert!(sparse.pinned.is_empty() && sparse.slots.iter().all(Option::is_none));

        let dense = WeightedDistanceMatrix::dijkstra(device.graph(), weight);
        let mut pins = RowPins::new(&dense);
        assert!(matches!(pins, RowPins::Dense { .. }));
        for q in 0..16 {
            assert_eq!(pins.row(Qubit(q)), &*dense.row(Qubit(q)));
        }
    }

    /// Pins live for the whole traversal but never hold more than
    /// `ROW_CACHE_CAPACITY` rows: on grid 33×33 (1089 rows) reading every
    /// row, singly and in pairs, wraps the table once, and every read
    /// still returns the matrix's own row.
    #[test]
    fn pins_stay_within_the_row_cache_bound() {
        let device = devices::grid(33, 33);
        let dist = WeightedDistanceMatrix::hops(device.graph());
        let n = dist.num_qubits() as u32;
        assert!(dist.is_sparse() && n as usize > ROW_CACHE_CAPACITY);
        let mut pins = RowPins::new(&dist);
        let pinned = |pins: &RowPins<'_>| match pins {
            RowPins::Sparse(sparse) => {
                assert_eq!(
                    sparse.slots.iter().filter(|s| s.is_some()).count(),
                    sparse.pinned.len()
                );
                sparse.pinned.len()
            }
            RowPins::Dense { .. } => unreachable!("grid 33×33 is sparse"),
        };
        for q in 0..n {
            assert_eq!(pins.row(Qubit(q)), &*dist.row(Qubit(q)), "row {q}");
            assert!(pinned(&pins) <= ROW_CACHE_CAPACITY);
        }
        assert_eq!(
            pinned(&pins),
            n as usize - ROW_CACHE_CAPACITY,
            "the fill past the bound released every pin once"
        );
        // Pairs: both rows of a pair survive a release triggered by the
        // pair itself.
        for q in (0..n).step_by(3) {
            let (x, y) = (Qubit(q), Qubit((q * 7 + 1) % n));
            let (row_x, row_y) = pins.pair(x, y);
            assert_eq!(row_x, &*dist.row(x));
            assert_eq!(row_y, &*dist.row(y));
            assert!(pinned(&pins) <= ROW_CACHE_CAPACITY);
        }
    }

    /// Field-for-field equality of two incidence tables: list order,
    /// entries, stage and base-sum bits.
    fn assert_tables_equal(updated: &IncidenceTable, fresh: &IncidenceTable, context: &str) {
        let bits = |list: &[IncidentGate]| -> Vec<(Qubit, u32, u64)> {
            list.iter()
                .map(|e| (e.other, e.slot, e.dist.to_bits()))
                .collect()
        };
        for (q, (a, b)) in updated.lists.iter().zip(&fresh.lists).enumerate() {
            assert_eq!(bits(a), bits(b), "{context}: list of Q{q}");
        }
        let stage = |t: &IncidenceTable| t.stage.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(stage(updated), stage(fresh), "{context}: stage");
        assert_eq!(updated.front_len, fresh.front_len, "{context}");
        for (name, a, b) in [
            ("front_base", updated.front_base, fresh.front_base),
            ("extended_base", updated.extended_base, fresh.extended_base),
            ("front_norm", updated.front_norm, fresh.front_norm),
            ("extended_len", updated.extended_len, fresh.extended_len),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: {name}");
        }
    }

    /// A random step: a qubit-disjoint front layer and an extended set of
    /// other gates (which may share qubits, repeat a front pair or sit on
    /// either orientation of it).
    fn random_step(rng: &mut StdRng, circuit: &Circuit) -> (Vec<usize>, Vec<usize>) {
        let n = circuit.num_qubits() as usize;
        let mut busy = vec![false; n];
        let (mut front, mut extended) = (Vec::new(), Vec::new());
        let front_cap = rng.gen_range(1..=n / 4);
        for (idx, gate) in circuit.gates().iter().enumerate() {
            let (a, b) = gate.qubits();
            let b = b.expect("two-qubit gates only");
            if front.len() < front_cap && !busy[a.index()] && !busy[b.index()] {
                busy[a.index()] = true;
                busy[b.index()] = true;
                front.push(idx);
            } else if extended.len() < 20 && rng.gen_bool(0.3) {
                extended.push(idx);
            }
        }
        (front, extended)
    }

    /// The exactness contract of the clean-step path: after every SWAP,
    /// the in-place incidence table equals a fresh `prepare` field for
    /// field and the candidate segments read in the oracle's order, on
    /// Tokyo and grid 6×6 under dense hop, sparse hop and sparse noise
    /// rows. SWAPs are drawn from the candidates, like the router's, and
    /// the run must cover a front gate on the swapped edge, an edge
    /// between two front gates' endpoints, and an extended gate with
    /// both endpoints on the pair. Every 25 steps the same scratch is
    /// rebuilt for a new front, so stale in-place state would show.
    #[test]
    fn clean_swaps_update_in_place_exactly_like_a_rebuild() {
        let noise =
            |a: Qubit, b: Qubit| 0.05 + (f64::from(a.0 * 31 + b.0 * 17) * 0.618).sin().abs();
        let mut cases = [0usize; 3];
        for device in [devices::ibm_q20_tokyo(), devices::grid(6, 6)] {
            let graph = device.graph();
            let n = graph.num_qubits();
            let matrices = [
                (
                    "dense hop",
                    WeightedDistanceMatrix::with_backend(graph, |_, _| 1.0, DistanceBackend::Dense),
                ),
                (
                    "sparse hop",
                    WeightedDistanceMatrix::with_backend(
                        graph,
                        |_, _| 1.0,
                        DistanceBackend::Sparse,
                    ),
                ),
                ("sparse noise", WeightedDistanceMatrix::sparse(graph, noise)),
            ];
            for (label, dist) in &matrices {
                let mut rng = StdRng::seed_from_u64(u64::from(n));
                let mut circuit = Circuit::new(n);
                while circuit.num_gates() < 120 {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b {
                        circuit.cx(Qubit(a), Qubit(b));
                    }
                }
                let mut pins = RowPins::new(dist);
                let mut layout = Layout::random(n, &mut rng);
                let mut table = IncidenceTable::new(n as usize);
                let mut scratch = CandidateScratch::new(graph);
                let (mut front, mut extended) = (Vec::new(), Vec::new());
                for step in 0..300 {
                    let context = format!("{} {label} step {step}", device.name());
                    if step % 25 == 0 {
                        (front, extended) = random_step(&mut rng, &circuit);
                        table.prepare(&circuit, &mut pins, &layout, &front, &extended);
                        scratch.rebuild(&circuit, graph, &layout, &front);
                    } else {
                        let candidates = scratch.to_vec();
                        let (sa, sb) = candidates[rng.gen_range(0..candidates.len())];
                        let on_pair = |idx: usize| {
                            let (a, b) = circuit.gates()[idx].qubits();
                            let ends = [layout.phys_of(a), layout.phys_of(b.unwrap())];
                            ends.contains(&sa) && ends.contains(&sb)
                        };
                        cases[0] += usize::from(front.iter().any(|&i| on_pair(i)));
                        cases[1] += usize::from(matches!(
                            (scratch.front_slot_on(sa), scratch.front_slot_on(sb)),
                            (Some(i), Some(j)) if i != j
                        ));
                        cases[2] += usize::from(extended.iter().any(|&i| on_pair(i)));
                        layout.swap_physical(sa, sb);
                        table.apply_swap(&circuit, &mut pins, &layout, &front, &extended, (sa, sb));
                        scratch.apply_swap(graph, (sa, sb));
                    }
                    let mut fresh = IncidenceTable::new(n as usize);
                    fresh.prepare(&circuit, &mut pins, &layout, &front, &extended);
                    assert_tables_equal(&table, &fresh, &context);
                    let oracle = collect_seen_bitset(&circuit, graph, &layout, &front);
                    assert_eq!(scratch.to_vec(), oracle, "{context}: candidate order");
                    assert_eq!(scratch.len(), oracle.len(), "{context}");
                }
            }
        }
        assert!(cases.iter().all(|&c| c > 0), "uncovered case: {cases:?}");
    }
}
