//! The execution-constraint DAG of paper §IV-A and its incremental
//! frontier.
//!
//! [`DependencyDag`] keeps one fixed-size record per gate: the gate's wires
//! and its (at most two) successors and predecessors, each a `[u32; 2]`
//! padded with `u32::MAX`. A gate acts on at most two wires and has one
//! neighbor per wire on each side, so two slots always suffice, and a
//! record is 24 bytes. The router's per-step work (draining executable
//! gates, filtering the front layer, mapping a gate's endpoints, the
//! extended-set BFS) reads endpoints through [`DependencyDag::wires`] and
//! [`DependencyDag::is_two_qubit`], so it touches this one array instead
//! of per-gate edge lists and the circuit's `Gate` values.

use crate::{Circuit, Qubit};

/// Padding of an unused slot in a [`Node`] record.
const NONE: u32 = u32::MAX;

/// One gate of the DAG: its wires (`wires[1] == NONE` for a single-qubit
/// gate) and its DAG neighbors, each list packed to the front and padded
/// with [`NONE`]. Successors are in increasing gate order; predecessors in
/// wire order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Node {
    wires: [u32; 2],
    succ: [u32; 2],
    pred: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Node>() == 24);

/// The occupied prefix of a padded neighbor list.
#[inline]
fn occupied(slots: &[u32; 2]) -> &[u32] {
    let len = usize::from(slots[0] != NONE) + usize::from(slots[1] != NONE);
    &slots[..len]
}

/// Appends `v` to a padded neighbor list.
fn append(slots: &mut [u32; 2], v: u32) {
    let free = slots
        .iter_mut()
        .find(|s| **s == NONE)
        .expect("a gate has at most one DAG neighbor per wire");
    *free = v;
}

/// The execution-constraint DAG of paper §IV-A.
///
/// Nodes are gate indices into the source [`Circuit`]; there is an edge
/// `u → v` when `v` is the next gate after `u` on some shared wire. A gate
/// is executable once all its predecessors have executed. Single-qubit
/// gates participate (they must stay ordered relative to the two-qubit
/// gates on their wire when the routed circuit is emitted) but never block
/// routing: a router executes them the moment they become ready.
///
/// # Example
///
/// ```
/// use sabre_circuit::{Circuit, DependencyDag, Qubit};
///
/// let mut c = Circuit::new(3);
/// c.cx(Qubit(0), Qubit(1)); // g0
/// c.cx(Qubit(1), Qubit(2)); // g1 depends on g0 (shares q1)
/// let dag = DependencyDag::new(&c);
/// assert_eq!(dag.successors(0), &[1]);
/// assert_eq!(dag.predecessors(1), &[0]);
/// assert_eq!(dag.initial_front(), vec![0]);
/// assert_eq!(dag.wires(1), (Qubit(1), Some(Qubit(2))));
/// ```
#[derive(Clone, Debug)]
pub struct DependencyDag {
    nodes: Vec<Node>,
}

impl DependencyDag {
    /// Builds the DAG in `O(g)` by tracking the last gate seen on each wire
    /// (the complexity the paper quotes for this step).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `u32::MAX` gates or more.
    pub fn new(circuit: &Circuit) -> Self {
        assert!(
            circuit.num_gates() < NONE as usize,
            "gate indices must fit below u32::MAX"
        );
        let mut nodes = vec![
            Node {
                wires: [NONE; 2],
                succ: [NONE; 2],
                pred: [NONE; 2],
            };
            circuit.num_gates()
        ];
        let mut last_on_wire = vec![NONE; circuit.num_qubits() as usize];

        for (idx, gate) in circuit.iter().enumerate() {
            let idx32 = idx as u32;
            let (a, b) = gate.qubits();
            nodes[idx].wires = [a.0, b.map_or(NONE, |b| b.0)];
            for wire in [Some(a), b].into_iter().flatten() {
                let prev = last_on_wire[wire.index()];
                // A two-qubit gate sharing both wires with `prev` would
                // produce a duplicate edge; dedup keeps counts correct.
                if prev != NONE && !nodes[prev as usize].succ.contains(&idx32) {
                    append(&mut nodes[prev as usize].succ, idx32);
                    append(&mut nodes[idx].pred, prev);
                }
                last_on_wire[wire.index()] = idx32;
            }
        }
        DependencyDag { nodes }
    }

    /// Number of nodes (gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Gates that must execute immediately before `idx` (share a wire), in
    /// the order of `idx`'s wires.
    #[inline]
    pub fn predecessors(&self, idx: usize) -> &[u32] {
        occupied(&self.nodes[idx].pred)
    }

    /// Gates unlocked by `idx` on some wire, in increasing gate order.
    #[inline]
    pub fn successors(&self, idx: usize) -> &[u32] {
        occupied(&self.nodes[idx].succ)
    }

    /// The wires gate `idx` acts on, shaped like
    /// [`Gate::qubits`](crate::Gate::qubits): `(first, Some(second))` for
    /// two-qubit gates, `(wire, None)` for single-qubit ones.
    #[inline]
    pub fn wires(&self, idx: usize) -> (Qubit, Option<Qubit>) {
        let [a, b] = self.nodes[idx].wires;
        (Qubit(a), (b != NONE).then_some(Qubit(b)))
    }

    /// Whether gate `idx` acts on two wires.
    #[inline]
    pub fn is_two_qubit(&self, idx: usize) -> bool {
        self.nodes[idx].wires[1] != NONE
    }

    /// Gate indices with no predecessors — the initial front layer `F`
    /// (paper §IV-A "Front layer initialization").
    pub fn initial_front(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].pred[0] == NONE)
            .collect()
    }

    /// Collects up to `limit` two-qubit gate indices reachable from the
    /// given front gates by breadth-first search — the **extended set**
    /// `E` of paper §IV-D used for the look-ahead term of Equation 2.
    ///
    /// Gates already in the front are not included. Single-qubit gates are
    /// traversed through but not collected (they carry no distance cost).
    ///
    /// Allocates fresh traversal state per call; a router computing `E`
    /// every search step should use [`DependencyDag::extended_set_with`]
    /// and a persistent [`ExtendedSetScratch`] instead.
    pub fn extended_set(&self, front: &[usize], limit: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut scratch = ExtendedSetScratch::new();
        self.extended_set_with(front, limit, &mut scratch, &mut out);
        out
    }

    /// [`DependencyDag::extended_set`] into caller-owned storage: `out` is
    /// cleared and refilled, `scratch` carries the epoch-stamped visited
    /// set and BFS queue across calls so the per-step cost is the
    /// traversal itself — no `visited` vector, `VecDeque`, or output
    /// allocation per call once the scratch has warmed up.
    ///
    /// The collection order is identical to [`DependencyDag::extended_set`]
    /// (same BFS, same FIFO discipline).
    pub fn extended_set_with(
        &self,
        front: &[usize],
        limit: usize,
        scratch: &mut ExtendedSetScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if limit == 0 {
            return;
        }
        let epoch = scratch.begin(self.num_nodes());
        for &f in front {
            scratch.stamp[f] = epoch;
            scratch.queue.push(f as u32);
        }
        // `queue` with a moving head is FIFO, without ring-buffer
        // bookkeeping.
        let mut head = 0;
        while head < scratch.queue.len() {
            let u = scratch.queue[head] as usize;
            head += 1;
            for &v in self.successors(u) {
                if scratch.stamp[v as usize] == epoch {
                    continue;
                }
                scratch.stamp[v as usize] = epoch;
                if self.is_two_qubit(v as usize) {
                    out.push(v as usize);
                    if out.len() == limit {
                        return;
                    }
                }
                scratch.queue.push(v);
            }
        }
    }
}

/// Reusable traversal state for [`DependencyDag::extended_set_with`].
///
/// The visited set is **epoch-stamped**: a node is "visited" when its
/// stamp equals the current epoch, so starting a new traversal is one
/// counter increment instead of an `O(gates)` clear (or worse, a fresh
/// allocation) per search step. The queue keeps its capacity across
/// calls. One scratch serves any number of DAGs — it grows to the largest
/// node count it has seen.
#[derive(Clone, Debug, Default)]
pub struct ExtendedSetScratch {
    /// `stamp[node] == epoch` ⇔ node visited in the current traversal.
    stamp: Vec<u32>,
    /// The current traversal's epoch; `0` means "never visited".
    epoch: u32,
    /// BFS queue storage (drained logically via a head index).
    queue: Vec<u32>,
}

impl ExtendedSetScratch {
    /// An empty scratch; storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new traversal epoch over `num_nodes` nodes and returns it.
    fn begin(&mut self, num_nodes: usize) -> u32 {
        if self.stamp.len() < num_nodes {
            self.stamp.resize(num_nodes, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap (once per 2³² traversals): clear the stamps so no
            // stale epoch can alias the restarted counter.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
        self.epoch
    }
}

/// Incremental tracker of which gates are ready to execute.
///
/// This is the mutable companion of [`DependencyDag`]: `mark_executed`
/// retires a ready gate and reports which gates became ready, exactly the
/// bookkeeping of Algorithm 1's "obtain successor gates from DAG / if
/// dependencies are resolved, add to F" step. It is shared by the SABRE
/// router, the baselines, and the routed-circuit verifier.
#[derive(Clone, Debug)]
pub struct ExecutionFrontier {
    /// Unexecuted predecessors per gate (at most two).
    remaining_preds: Vec<u8>,
    executed: Vec<bool>,
    ready: Vec<usize>,
    /// `ready_pos[gate]` = index of `gate` inside `ready`, or `u32::MAX`
    /// when the gate is not ready — turns retirement's ready-list scan
    /// into an `O(1)` lookup while preserving the exact `swap_remove`
    /// ordering the routers' tie-breaking depends on.
    ready_pos: Vec<u32>,
    num_executed: usize,
}

impl ExecutionFrontier {
    /// Sentinel in `ready_pos` for "not currently ready".
    const NOT_READY: u32 = u32::MAX;

    /// Starts a fresh execution over `dag`, with the initial front ready.
    pub fn new(dag: &DependencyDag) -> Self {
        let remaining_preds: Vec<u8> = (0..dag.num_nodes())
            .map(|i| dag.predecessors(i).len() as u8)
            .collect();
        let ready = dag.initial_front();
        let mut ready_pos = vec![Self::NOT_READY; dag.num_nodes()];
        for (pos, &gate) in ready.iter().enumerate() {
            ready_pos[gate] = pos as u32;
        }
        ExecutionFrontier {
            remaining_preds,
            executed: vec![false; dag.num_nodes()],
            ready,
            ready_pos,
            num_executed: 0,
        }
    }

    /// Gate indices currently ready (no unexecuted predecessors). Order is
    /// unspecified.
    pub fn ready(&self) -> &[usize] {
        &self.ready
    }

    /// Where gate `idx` sits in [`ExecutionFrontier::ready`], or `None`
    /// when it is not ready. Sorting gates by this position reproduces the
    /// order a snapshot of the ready list would visit them in.
    #[inline]
    pub fn ready_position(&self, idx: usize) -> Option<usize> {
        let pos = self.ready_pos[idx];
        (pos != Self::NOT_READY).then_some(pos as usize)
    }

    /// Whether gate `idx` is ready.
    pub fn is_ready(&self, idx: usize) -> bool {
        !self.executed[idx] && self.remaining_preds[idx] == 0
    }

    /// Number of gates executed so far.
    pub fn num_executed(&self) -> usize {
        self.num_executed
    }

    /// Whether every gate has executed.
    pub fn is_complete(&self) -> bool {
        self.num_executed == self.executed.len()
    }

    /// Retires `idx` and returns the gates that became ready as a result.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not currently ready — executing a blocked gate
    /// would mean the caller violated a dependency, which is precisely the
    /// bug class this type exists to catch.
    pub fn mark_executed(&mut self, dag: &DependencyDag, idx: usize) -> Vec<usize> {
        let unlocked = self.retire(dag, idx);
        // `retire` appends newly ready gates at the tail, in successor
        // order — exactly the list this method has always reported.
        self.ready[self.ready.len() - unlocked..].to_vec()
    }

    /// [`ExecutionFrontier::mark_executed`] without materializing the
    /// newly-ready list: returns only how many gates became ready (they
    /// occupy the tail of [`ExecutionFrontier::ready`], in successor
    /// order). This is the router's hot-loop entry point — retiring a
    /// gate allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not currently ready, like
    /// [`ExecutionFrontier::mark_executed`].
    pub fn retire(&mut self, dag: &DependencyDag, idx: usize) -> usize {
        assert!(self.is_ready(idx), "gate {idx} is not ready for execution");
        self.executed[idx] = true;
        self.num_executed += 1;
        let pos = self.ready_pos[idx];
        if pos != Self::NOT_READY {
            let pos = pos as usize;
            self.ready.swap_remove(pos);
            self.ready_pos[idx] = Self::NOT_READY;
            // The tail element moved into `pos` (unless we removed the
            // tail itself): keep its position index in sync.
            if let Some(&moved) = self.ready.get(pos) {
                self.ready_pos[moved] = pos as u32;
            }
        }
        let mut unlocked = 0;
        for &succ in dag.successors(idx) {
            let succ = succ as usize;
            self.remaining_preds[succ] -= 1;
            if self.remaining_preds[succ] == 0 {
                self.ready_pos[succ] = self.ready.len() as u32;
                self.ready.push(succ);
                unlocked += 1;
            }
        }
        unlocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gate, Qubit};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The circuit of the paper's Figure 4 (two-qubit skeleton): gates g1..g8
    /// on qubits q1..q6 — here 0-indexed.
    fn fig4() -> Circuit {
        let q = |i: u32| Qubit(i - 1);
        let mut c = Circuit::new(6);
        c.cx(q(2), q(3)); // g1
        c.cx(q(4), q(6)); // g2
        c.cx(q(2), q(4)); // g3
        c.cx(q(3), q(5)); // g4
        c.cx(q(1), q(2)); // g5
        c.cx(q(4), q(5)); // g6
        c.cx(q(1), q(4)); // g7
        c.cx(q(3), q(6)); // g8
        c
    }

    #[test]
    fn fig4_front_layer_is_g1_g2() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        assert_eq!(
            dag.initial_front(),
            vec![0, 1],
            "paper §IV-A: initial front layer contains g1 and g2"
        );
    }

    #[test]
    fn fig4_g3_depends_on_g1_and_g2() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        // g3 = index 2 shares q2 with g1 and q4 with g2.
        let mut preds = dag.predecessors(2).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 1]);
    }

    #[test]
    fn edges_follow_shared_wires() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1)); // 0
        c.h(Qubit(1)); // 1 depends on 0
        c.cx(Qubit(1), Qubit(2)); // 2 depends on 1
        c.x(Qubit(0)); // 3 depends on 0
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
        assert_eq!(dag.predecessors(3), &[0]);
        let mut succs = dag.successors(0).to_vec();
        succs.sort_unstable();
        assert_eq!(succs, vec![1, 3]);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut c = Circuit::new(2);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(0), Qubit(1)); // shares both wires with previous
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0], "one edge, not two");
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn frontier_executes_whole_circuit() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let mut frontier = ExecutionFrontier::new(&dag);
        let mut executed = 0;
        while !frontier.is_complete() {
            let g = frontier.ready()[0];
            frontier.mark_executed(&dag, g);
            executed += 1;
        }
        assert_eq!(executed, c.num_gates());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn frontier_rejects_blocked_gate() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let mut frontier = ExecutionFrontier::new(&dag);
        frontier.mark_executed(&dag, 2); // g3 is blocked by g1, g2
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn frontier_rejects_double_execution() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let mut frontier = ExecutionFrontier::new(&dag);
        frontier.mark_executed(&dag, 0);
        frontier.mark_executed(&dag, 0);
    }

    #[test]
    fn mark_executed_reports_newly_ready() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1)); // 0
        c.cx(Qubit(0), Qubit(1)); // 1, unlocked by 0
        c.cx(Qubit(1), Qubit(2)); // 2, unlocked by 1
        let dag = DependencyDag::new(&c);
        let mut frontier = ExecutionFrontier::new(&dag);
        assert_eq!(frontier.mark_executed(&dag, 0), vec![1]);
        assert_eq!(frontier.mark_executed(&dag, 1), vec![2]);
        assert_eq!(frontier.mark_executed(&dag, 2), Vec::<usize>::new());
        assert!(frontier.is_complete());
    }

    #[test]
    fn extended_set_collects_nearest_successors_first() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let front = dag.initial_front();
        let ext = dag.extended_set(&front, 3);
        // BFS from {g1,g2}: first ring is g3 (idx 2) and g4 (idx 3), then g6...
        assert_eq!(ext.len(), 3);
        assert!(ext.contains(&2));
        assert!(ext.contains(&3));
    }

    #[test]
    fn extended_set_respects_limit_and_excludes_front() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let front = dag.initial_front();
        for limit in 0..6 {
            let ext = dag.extended_set(&front, limit);
            assert!(ext.len() <= limit);
            for f in &front {
                assert!(!ext.contains(f));
            }
        }
    }

    #[test]
    fn extended_set_with_matches_allocating_version() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let front = dag.initial_front();
        let mut scratch = ExtendedSetScratch::new();
        let mut out = vec![99, 98]; // stale content must be cleared
        for limit in 0..8 {
            dag.extended_set_with(&front, limit, &mut scratch, &mut out);
            assert_eq!(out, dag.extended_set(&front, limit), "limit={limit}");
        }
    }

    #[test]
    fn extended_set_scratch_is_reusable_across_dags() {
        let big = fig4();
        let big_dag = DependencyDag::new(&big);
        let mut small = Circuit::new(2);
        small.cx(Qubit(0), Qubit(1));
        small.cx(Qubit(0), Qubit(1));
        let small_dag = DependencyDag::new(&small);

        let mut scratch = ExtendedSetScratch::new();
        let mut out = Vec::new();
        // Interleave traversals over DAGs of different sizes: epochs must
        // never leak visited state between them.
        for _ in 0..3 {
            big_dag.extended_set_with(&big_dag.initial_front(), 5, &mut scratch, &mut out);
            assert_eq!(out, big_dag.extended_set(&big_dag.initial_front(), 5));
            small_dag.extended_set_with(&[0], 5, &mut scratch, &mut out);
            assert_eq!(out, vec![1]);
        }
    }

    #[test]
    fn retire_matches_mark_executed() {
        let c = fig4();
        let dag = DependencyDag::new(&c);
        let mut a = ExecutionFrontier::new(&dag);
        let mut b = ExecutionFrontier::new(&dag);
        while !a.is_complete() {
            let g = a.ready()[0];
            let unlocked = a.retire(&dag, g);
            let reported = b.mark_executed(&dag, g);
            assert_eq!(unlocked, reported.len());
            assert_eq!(a.ready(), b.ready(), "ready order must stay identical");
            assert_eq!(&a.ready()[a.ready().len() - unlocked..], &reported[..]);
        }
        assert!(b.is_complete());
    }

    #[test]
    fn indexed_retire_preserves_scan_based_ready_order() {
        // Shadow implementation: the pre-index `O(ready)` scan + swap_remove.
        // Retiring from the *middle* of the ready list (so the tail element
        // moves) in varying orders must keep the ready vectors identical.
        let c = fig4();
        let dag = DependencyDag::new(&c);
        for pick in 0..3usize {
            let mut frontier = ExecutionFrontier::new(&dag);
            let mut shadow: Vec<usize> = dag.initial_front();
            while !frontier.is_complete() {
                assert_eq!(frontier.ready(), &shadow[..]);
                // Check the position index agrees with the list.
                for (pos, &g) in frontier.ready.iter().enumerate() {
                    assert_eq!(frontier.ready_pos[g], pos as u32);
                }
                let g = frontier.ready()[pick % frontier.ready().len()];
                let pos = shadow.iter().position(|&x| x == g).unwrap();
                shadow.swap_remove(pos);
                let unlocked = frontier.retire(&dag, g);
                shadow.extend_from_slice(&frontier.ready()[frontier.ready().len() - unlocked..]);
            }
            assert!(shadow.is_empty());
        }
    }

    #[test]
    fn extended_set_skips_one_qubit_gates_but_traverses_them() {
        let mut c = Circuit::new(2);
        c.cx(Qubit(0), Qubit(1)); // 0: front
        c.h(Qubit(0)); // 1: 1q, traversed not collected
        c.cx(Qubit(0), Qubit(1)); // 2: should appear in E
        let dag = DependencyDag::new(&c);
        let ext = dag.extended_set(&[0], 10);
        assert_eq!(ext, vec![2]);
    }

    #[test]
    fn single_gate_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(Qubit(0), Qubit(1)));
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.initial_front(), vec![0]);
        assert!(dag.successors(0).is_empty());
    }

    #[test]
    fn empty_circuit_dag() {
        let c = Circuit::new(3);
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.num_nodes(), 0);
        assert!(dag.initial_front().is_empty());
        let frontier = ExecutionFrontier::new(&dag);
        assert!(frontier.is_complete());
    }

    /// The DAG as it was built before the node records: per-gate
    /// `Vec<Vec>` edge lists from a last-gate-per-wire sweep, deduplicated
    /// against the last pushed successor.
    struct NaiveDag {
        preds: Vec<Vec<usize>>,
        succs: Vec<Vec<usize>>,
    }

    impl NaiveDag {
        fn new(circuit: &Circuit) -> Self {
            let g = circuit.num_gates();
            let mut preds = vec![Vec::new(); g];
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); g];
            let mut last_on_wire: Vec<Option<usize>> = vec![None; circuit.num_qubits() as usize];
            for (idx, gate) in circuit.iter().enumerate() {
                let (a, b) = gate.qubits();
                for wire in [Some(a), b].into_iter().flatten() {
                    if let Some(prev) = last_on_wire[wire.index()] {
                        if succs[prev].last() != Some(&idx) {
                            succs[prev].push(idx);
                            preds[idx].push(prev);
                        }
                    }
                    last_on_wire[wire.index()] = Some(idx);
                }
            }
            NaiveDag { preds, succs }
        }

        /// The extended set by a plain FIFO BFS with a fresh visited set.
        fn extended_set(&self, circuit: &Circuit, front: &[usize], limit: usize) -> Vec<usize> {
            let mut out = Vec::new();
            if limit == 0 {
                return out;
            }
            let mut visited = vec![false; self.succs.len()];
            let mut queue: VecDeque<usize> = VecDeque::new();
            for &f in front {
                visited[f] = true;
                queue.push_back(f);
            }
            while let Some(u) = queue.pop_front() {
                for &v in &self.succs[u] {
                    if visited[v] {
                        continue;
                    }
                    visited[v] = true;
                    if circuit.gates()[v].is_two_qubit() {
                        out.push(v);
                        if out.len() == limit {
                            return out;
                        }
                    }
                    queue.push_back(v);
                }
            }
            out
        }
    }

    /// A random circuit from `(op, a, b)` triples over `n` wires: single
    /// gates and three-gate 1q chains on `a`, fresh pairs in either
    /// orientation, and repeats of the last pair as-is or reversed.
    fn random_circuit(n: u32, ops: &[(u8, u32, u32)]) -> Circuit {
        let mut c = Circuit::new(n);
        let mut last = None;
        for &(op, a, b) in ops {
            let (a, b) = (Qubit(a % n), Qubit(b % n));
            match op {
                0 => c.h(a),
                1 => {
                    c.h(a);
                    c.x(a);
                    c.rz(a, 0.5);
                }
                2 | 3 if a != b => {
                    c.cx(a, b);
                    last = Some((a, b));
                }
                4 | 5 => match last {
                    Some((p, q)) if op == 4 => c.cx(p, q),
                    Some((p, q)) => c.cx(q, p),
                    None => c.x(a),
                },
                _ => c.h(b),
            }
        }
        c
    }

    fn widen(edges: &[u32]) -> Vec<usize> {
        edges.iter().map(|&e| e as usize).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn node_records_match_a_naive_oracle(
            n in 2u32..7,
            ops in proptest::collection::vec((0u8..7, 0u32..7, 0u32..7), 0..40),
        ) {
            let c = random_circuit(n, &ops);
            let dag = DependencyDag::new(&c);
            let naive = NaiveDag::new(&c);
            prop_assert_eq!(dag.num_nodes(), c.num_gates());
            for idx in 0..c.num_gates() {
                prop_assert_eq!(widen(dag.predecessors(idx)), naive.preds[idx].clone());
                prop_assert_eq!(widen(dag.successors(idx)), naive.succs[idx].clone());
                prop_assert_eq!(dag.wires(idx), c.gates()[idx].qubits());
                prop_assert_eq!(dag.is_two_qubit(idx), c.gates()[idx].is_two_qubit());
            }
            let naive_front: Vec<usize> =
                (0..c.num_gates()).filter(|&i| naive.preds[i].is_empty()).collect();
            prop_assert_eq!(dag.initial_front(), naive_front);

            // Arbitrary gate sets as fronts, where one front gate can
            // reach another, at every limit.
            for stride in 2..4 {
                let front: Vec<usize> = (0..c.num_gates()).step_by(stride).collect();
                for limit in 0..=c.num_gates() + 1 {
                    prop_assert_eq!(
                        dag.extended_set(&front, limit),
                        naive.extended_set(&c, &front, limit)
                    );
                }
            }

            // Extended sets from every front the execution passes through
            // (the two-qubit part of the ready list, as a router sees it),
            // at every limit, through one reused scratch.
            let mut frontier = ExecutionFrontier::new(&dag);
            let mut scratch = ExtendedSetScratch::new();
            let mut out = Vec::new();
            loop {
                for (pos, &g) in frontier.ready().iter().enumerate() {
                    prop_assert_eq!(frontier.ready_position(g), Some(pos));
                }
                let front: Vec<usize> = frontier
                    .ready()
                    .iter()
                    .copied()
                    .filter(|&g| dag.is_two_qubit(g))
                    .collect();
                for limit in 0..=c.num_gates() + 1 {
                    dag.extended_set_with(&front, limit, &mut scratch, &mut out);
                    prop_assert_eq!(&out, &naive.extended_set(&c, &front, limit));
                }
                if frontier.is_complete() {
                    break;
                }
                let ready = frontier.ready();
                let g = ready[ready.len() / 2];
                frontier.retire(&dag, g);
                prop_assert_eq!(frontier.ready_position(g), None);
            }
        }
    }
}
