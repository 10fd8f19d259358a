//! Compressed-sparse-row (CSR) adjacency storage.
//!
//! The naive `Vec<Vec<Qubit>>` adjacency costs one heap allocation per
//! qubit and scatters neighborhoods across the heap — harmless at the
//! paper's 20 qubits, measurable at the kilo-qubit devices this crate now
//! targets. [`CsrAdjacency`] packs every neighborhood into three flat
//! arrays:
//!
//! - `offsets`: `n + 1` cursors; qubit `q`'s neighborhood lives at
//!   `offsets[q] .. offsets[q + 1]` in the packed arrays,
//! - `neighbors`: all adjacency lists back to back, each sorted,
//! - `edge_ids`: the dense [`crate::CouplingGraph::edge_index`] id of each
//!   packed neighbor entry, aligned with `neighbors`.
//!
//! Memory is `O(N + E)` exactly (two `u32`-sized words per directed edge
//! plus the offset array), every neighborhood scan is one contiguous
//! slice, and construction is a single counting pass — the standard CSR
//! build. [`crate::CouplingGraph`] stores one of these and serves all its
//! neighborhood queries from it.

use crate::Qubit;

/// Packed adjacency of an undirected graph: offsets plus parallel
/// neighbor/edge-id arrays (see the module docs for the layout).
///
/// Built once by [`crate::CouplingGraph::from_edges`] in `O(N + E)`;
/// all accessors are `O(1)` slicing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `n + 1` cursors into the packed arrays.
    offsets: Vec<u32>,
    /// All neighborhoods back to back, each slice sorted by qubit index.
    neighbors: Vec<Qubit>,
    /// Dense edge id of each packed entry, aligned with `neighbors`.
    edge_ids: Vec<u32>,
}

impl CsrAdjacency {
    /// Packs a canonical edge list (each `(a, b)` with `a < b`, sorted,
    /// deduplicated — the invariant [`crate::CouplingGraph`] maintains)
    /// into CSR form. The edge id of `edges[i]` is `i`.
    pub(crate) fn build(num_qubits: u32, edges: &[(Qubit, Qubit)]) -> Self {
        let n = num_qubits as usize;
        // Counting pass: degree of every qubit.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in edges {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill pass. Edges arrive sorted by (a, b); appending `b` to `a`'s
        // slice in that order keeps each slice sorted by construction for
        // the `a`-side entries. The `b`-side entries (neighbor `a < b`)
        // also arrive in increasing `a` for fixed `b`, so those slices
        // come out sorted too — but the two interleave, so we sort each
        // slice once at the end to restore the invariant unconditionally.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![Qubit(0); edges.len() * 2];
        let mut edge_ids = vec![0u32; edges.len() * 2];
        for (id, &(a, b)) in edges.iter().enumerate() {
            let slot_a = cursor[a.index()] as usize;
            neighbors[slot_a] = b;
            edge_ids[slot_a] = id as u32;
            cursor[a.index()] += 1;
            let slot_b = cursor[b.index()] as usize;
            neighbors[slot_b] = a;
            edge_ids[slot_b] = id as u32;
            cursor[b.index()] += 1;
        }
        let mut csr = CsrAdjacency {
            offsets,
            neighbors,
            edge_ids,
        };
        for q in 0..n {
            let range = csr.range(q);
            // Sort the (neighbor, edge id) pairs of one slice together.
            let mut paired: Vec<(Qubit, u32)> = csr.neighbors[range.clone()]
                .iter()
                .copied()
                .zip(csr.edge_ids[range.clone()].iter().copied())
                .collect();
            paired.sort_unstable();
            for (i, (nb, id)) in paired.into_iter().enumerate() {
                csr.neighbors[range.start + i] = nb;
                csr.edge_ids[range.start + i] = id;
            }
        }
        csr
    }

    #[inline]
    fn range(&self, q: usize) -> std::ops::Range<usize> {
        self.offsets[q] as usize..self.offsets[q + 1] as usize
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// The sorted neighborhood of `q` as one contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the device.
    #[inline]
    pub fn neighbors(&self, q: Qubit) -> &[Qubit] {
        &self.neighbors[self.range(q.index())]
    }

    /// Dense edge ids aligned with [`CsrAdjacency::neighbors`]:
    /// `edge_ids(q)[i]` is the edge id of the coupling
    /// `(q, neighbors(q)[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the device.
    #[inline]
    pub fn edge_ids(&self, q: Qubit) -> &[u32] {
        &self.edge_ids[self.range(q.index())]
    }

    /// Degree of `q`, an `O(1)` offset subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the device.
    #[inline]
    pub fn degree(&self, q: Qubit) -> usize {
        self.range(q.index()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(edges: &[(u32, u32)]) -> Vec<(Qubit, Qubit)> {
        let mut v: Vec<(Qubit, Qubit)> = edges
            .iter()
            .map(|&(a, b)| {
                if a < b {
                    (Qubit(a), Qubit(b))
                } else {
                    (Qubit(b), Qubit(a))
                }
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn packs_square_graph() {
        let edges = canonical(&[(0, 1), (1, 3), (3, 2), (2, 0)]);
        let csr = CsrAdjacency::build(4, &edges);
        assert_eq!(csr.num_qubits(), 4);
        assert_eq!(csr.neighbors(Qubit(0)), &[Qubit(1), Qubit(2)]);
        assert_eq!(csr.neighbors(Qubit(3)), &[Qubit(1), Qubit(2)]);
        assert_eq!(csr.degree(Qubit(1)), 2);
    }

    #[test]
    fn edge_ids_align_with_neighbors() {
        let edges = canonical(&[(2, 4), (2, 0), (2, 3), (2, 1)]);
        let csr = CsrAdjacency::build(5, &edges);
        for q in 0..5u32 {
            let nbs = csr.neighbors(Qubit(q));
            let ids = csr.edge_ids(Qubit(q));
            assert_eq!(nbs.len(), ids.len());
            for (&nb, &id) in nbs.iter().zip(ids) {
                let (a, b) = edges[id as usize];
                assert!(
                    (a == Qubit(q) && b == nb) || (b == Qubit(q) && a == nb),
                    "id {id} does not name the coupling ({q}, {nb})"
                );
            }
        }
    }

    #[test]
    fn neighborhoods_are_sorted() {
        let edges = canonical(&[(4, 0), (4, 3), (4, 1), (4, 2), (0, 2)]);
        let csr = CsrAdjacency::build(5, &edges);
        for q in 0..5u32 {
            let nbs = csr.neighbors(Qubit(q));
            assert!(nbs.windows(2).all(|w| w[0] < w[1]), "qubit {q} unsorted");
        }
    }

    #[test]
    fn isolated_qubits_have_empty_slices() {
        let edges = canonical(&[(0, 1)]);
        let csr = CsrAdjacency::build(4, &edges);
        assert_eq!(csr.neighbors(Qubit(2)), &[] as &[Qubit]);
        assert_eq!(csr.degree(Qubit(3)), 0);
    }
}
