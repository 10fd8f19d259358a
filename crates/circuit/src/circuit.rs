use std::fmt;

use crate::fingerprint::Fingerprinter;
use crate::{CircuitError, Gate, OneQubitKind, Params, Qubit, TwoQubitKind};

/// An ordered list of gates over a register of `num_qubits` wires.
///
/// The circuit is the unit of work for every router and baseline in the
/// workspace: generators produce one, routers consume one (interpreting its
/// wires as logical qubits, paper §III) and emit another (wires now
/// physical qubits), the verifier relates the two.
///
/// # Example
///
/// The six-CNOT circuit of the paper's Figure 3(c):
///
/// ```
/// use sabre_circuit::{Circuit, Qubit};
///
/// let (q1, q2, q3, q4) = (Qubit(0), Qubit(1), Qubit(2), Qubit(3));
/// let mut c = Circuit::with_name(4, "fig3c");
/// c.cx(q1, q2);
/// c.cx(q3, q4);
/// c.cx(q2, q4);
/// c.cx(q2, q3);
/// c.cx(q3, q4);
/// c.cx(q1, q4);
/// assert_eq!(c.num_gates(), 6);
/// assert_eq!(c.depth(), 5); // as stated in §III-A
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
    name: String,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` wires.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty named circuit; the name is carried into benchmark
    /// reports.
    pub fn with_name(num_qubits: u32, name: impl Into<String>) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            name: name.into(),
        }
    }

    /// The benchmark name (empty if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the circuit's name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of wires in the register (`n` in the paper's notation).
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Total number of gates (`g` in the paper's notation).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterate over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Number of two-qubit gates.
    pub fn num_two_qubit_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn num_one_qubit_gates(&self) -> usize {
        self.gates.len() - self.num_two_qubit_gates()
    }

    /// Number of SWAP gates (these are what routing inserts).
    pub fn num_swaps(&self) -> usize {
        self.gates.iter().filter(|g| g.is_swap()).count()
    }

    /// Validates and appends a gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if an operand lies outside
    /// the register and [`CircuitError::DuplicateOperands`] if a two-qubit
    /// gate repeats a wire (the latter is normally prevented by [`Gate`]'s
    /// own constructors).
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        check_gate(self.num_qubits, &gate)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Builds a circuit from a finished gate list, taking ownership of
    /// the `Vec` (no per-gate copy). Front-ends that learn the register
    /// size only after reading every gate, like the QASM parser, build
    /// the list first and validate it here in one pass.
    ///
    /// # Errors
    ///
    /// The first gate [`Circuit::try_push`] would reject, with the same
    /// error.
    pub fn from_gates(num_qubits: u32, gates: Vec<Gate>) -> Result<Self, CircuitError> {
        for gate in &gates {
            check_gate(num_qubits, gate)?;
        }
        Ok(Circuit {
            num_qubits,
            gates,
            name: String::new(),
        })
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`Circuit::try_push`] reports as errors.
    pub fn push(&mut self, gate: Gate) {
        self.try_push(gate).expect("invalid gate for this circuit");
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: Qubit) {
        self.push(Gate::h(q));
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: Qubit) {
        self.push(Gate::x(q));
    }

    /// Appends an RZ rotation.
    pub fn rz(&mut self, q: Qubit, theta: f64) {
        self.push(Gate::rz(q, theta));
    }

    /// Appends an RX rotation.
    pub fn rx(&mut self, q: Qubit, theta: f64) {
        self.push(Gate::one(OneQubitKind::Rx, q, Params::one(theta)));
    }

    /// Appends a CNOT.
    pub fn cx(&mut self, control: Qubit, target: Qubit) {
        self.push(Gate::cx(control, target));
    }

    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, a: Qubit, b: Qubit, lambda: f64) {
        self.push(Gate::two(TwoQubitKind::Cp, a, b, Params::one(lambda)));
    }

    /// Appends an RZZ interaction.
    pub fn rzz(&mut self, a: Qubit, b: Qubit, theta: f64) {
        self.push(Gate::two(TwoQubitKind::Rzz, a, b, Params::one(theta)));
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: Qubit, b: Qubit) {
        self.push(Gate::swap(a, b));
    }

    /// Circuit depth (`d` in the paper) via ASAP scheduling: each gate is
    /// placed at one plus the maximum busy-time of its wires. Single- and
    /// two-qubit gates both count one time step, matching the paper's
    /// Figure 3 depth accounting (depth 5 original, 8 after one SWAP→3 CX).
    pub fn depth(&self) -> usize {
        self.asap_depth(|_| 1)
    }

    /// Depth of [`Circuit::with_swaps_decomposed`] without building it: a
    /// SWAP's three CNOTs all act on its pair, so it holds both wires for
    /// three layers; every other gate counts one, as in
    /// [`Circuit::depth`].
    ///
    /// ```
    /// use sabre_circuit::{Circuit, Qubit};
    /// let mut c = Circuit::new(3);
    /// c.cx(Qubit(0), Qubit(1));
    /// c.swap(Qubit(1), Qubit(2));
    /// c.h(Qubit(2));
    /// assert_eq!(c.decomposed_depth(), 5);
    /// assert_eq!(c.decomposed_depth(), c.with_swaps_decomposed().depth());
    /// ```
    pub fn decomposed_depth(&self) -> usize {
        self.asap_depth(|gate| if gate.is_swap() { 3 } else { 1 })
    }

    /// Depth counting only two-qubit gates — a common NISQ fidelity proxy
    /// since CNOT error dominates (paper §II-B reports CNOT error an order
    /// of magnitude above single-qubit error).
    pub fn two_qubit_depth(&self) -> usize {
        self.asap_depth(|gate| usize::from(gate.is_two_qubit()))
    }

    /// ASAP schedule length when each gate holds its wires for
    /// `layers(gate)` time steps after the latest of them frees up.
    fn asap_depth(&self, layers: impl Fn(&Gate) -> usize) -> usize {
        let mut wire_depth = vec![0usize; self.num_qubits as usize];
        let mut max = 0;
        for gate in &self.gates {
            let (a, b) = gate.qubits();
            let start = match b {
                Some(b) => wire_depth[a.index()].max(wire_depth[b.index()]),
                None => wire_depth[a.index()],
            };
            let end = start + layers(gate);
            wire_depth[a.index()] = end;
            if let Some(b) = b {
                wire_depth[b.index()] = end;
            }
            max = max.max(end);
        }
        max
    }

    /// The reverse circuit of §IV-C2: gates in reversed order, each replaced
    /// by its adjoint. Its two-qubit gate sequence is exactly the original's
    /// reversed ("The two-qubit gates in the reverse circuit will be exactly
    /// the same with only the order reversed"), and it is a semantic inverse,
    /// so `c` followed by `c.reversed()` is the identity.
    ///
    /// ```
    /// use sabre_circuit::{Circuit, Qubit};
    /// let mut c = Circuit::new(2);
    /// c.h(Qubit(0));
    /// c.cx(Qubit(0), Qubit(1));
    /// let r = c.reversed();
    /// assert_eq!(r.reversed(), c);
    /// assert!(r.gates()[0].is_two_qubit());
    /// ```
    pub fn reversed(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(Gate::adjoint).collect(),
            name: self.name.clone(),
        }
    }

    /// Returns a copy whose wires are remapped through `f`. The closure must
    /// be injective on the used wires and stay within `new_num_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if the remap collapses a two-qubit gate or leaves the register.
    pub fn remapped<F: FnMut(Qubit) -> Qubit>(&self, new_num_qubits: u32, mut f: F) -> Circuit {
        let mut out = Circuit::with_name(new_num_qubits, self.name.clone());
        for gate in &self.gates {
            out.push(gate.map_qubits(&mut f));
        }
        out
    }

    /// Expands every SWAP into its 3-CNOT decomposition (paper Figure 3a).
    /// Routers report costs on this expanded form: one inserted SWAP adds
    /// three gates.
    pub fn with_swaps_decomposed(&self) -> Circuit {
        let mut out = Circuit::with_name(self.num_qubits, self.name.clone());
        for gate in &self.gates {
            match *gate {
                Gate::Two {
                    kind: TwoQubitKind::Swap,
                    a,
                    b,
                    ..
                } => {
                    out.cx(a, b);
                    out.cx(b, a);
                    out.cx(a, b);
                }
                g => out.push(g),
            }
        }
        out
    }

    /// The ordered list of two-qubit gate endpoint pairs; the routing
    /// problem is entirely determined by this sequence (single-qubit gates
    /// never constrain mapping, §IV-A).
    pub fn two_qubit_pairs(&self) -> Vec<(Qubit, Qubit)> {
        self.gates
            .iter()
            .filter_map(|g| match g.qubits() {
                (a, Some(b)) => Some((a, b)),
                _ => None,
            })
            .collect()
    }

    /// Replaces the rotation angles of the gate at `idx`, keeping its kind
    /// and operands — the in-place form of [`Gate::with_params`] used when
    /// re-binding a cached routed plan to a new parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (and, in debug builds, if the
    /// parameter count does not match the gate kind).
    pub fn replace_params(&mut self, idx: usize, params: Params) {
        self.gates[idx] = self.gates[idx].with_params(params);
    }

    /// Whether `other` has the same *structure* as `self`: same register
    /// size and, gate for gate in program order, the same kind and operand
    /// wires — rotation angles excluded. Two circuits with equal structure
    /// have identical dependency DAGs and identical routing behavior (the
    /// SWAP search never reads an angle), which is what lets a routed-plan
    /// cache serve one circuit's plan for the other. Names are ignored,
    /// like in [`Circuit::structural_digest`].
    pub fn same_structure(&self, other: &Circuit) -> bool {
        self.num_qubits == other.num_qubits
            && self.gates.len() == other.gates.len()
            && self
                .gates
                .iter()
                .zip(&other.gates)
                .all(|(a, b)| a.same_structure(b))
    }

    /// Cheap structural *bucketing* digest: folds the register size, the
    /// gate count, and an evenly-strided sample of at most `max_gates`
    /// gates (arity, kind, operand wires — angles excluded; the name does
    /// not participate). Sampling bounds the cost at `O(max_gates)`
    /// regardless of circuit size, at the price of collisions: two
    /// circuits that differ only at unsampled positions digest
    /// identically, so callers must treat a
    /// digest match as a hash bucket, never an identity — re-verify with
    /// [`Circuit::same_structure`] before trusting it. Built for hot-path
    /// cache keys (the plan cache keys every lookup on this and verifies
    /// each hit field-by-field).
    pub fn structural_digest(&self, max_gates: usize) -> u64 {
        let mut fp = Fingerprinter::new("sabre/circuit-structure-digest/v1");
        fp.write_u64(u64::from(self.num_qubits));
        fp.write_u64(self.gates.len() as u64);
        let stride = (self.gates.len() / max_gates.max(1)).max(1);
        for gate in self.gates.iter().step_by(stride) {
            match *gate {
                Gate::One { kind, qubit, .. } => {
                    fp.write_u64(1);
                    fp.write_u64(kind as u64);
                    fp.write_u64(u64::from(qubit.0));
                }
                Gate::Two { kind, a, b, .. } => {
                    fp.write_u64(2);
                    fp.write_u64(kind as u64);
                    fp.write_u64(u64::from(a.0));
                    fp.write_u64(u64::from(b.0));
                }
            }
        }
        fp.finish()
    }

    /// Summary statistics used by reports and tests.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            num_qubits: self.num_qubits,
            num_gates: self.num_gates(),
            num_one_qubit_gates: self.num_one_qubit_gates(),
            num_two_qubit_gates: self.num_two_qubit_gates(),
            num_swaps: self.num_swaps(),
            depth: self.depth(),
        }
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit `{}`: {} qubits, {} gates",
            self.name,
            self.num_qubits,
            self.num_gates()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

/// The operand checks shared by [`Circuit::try_push`] and
/// [`Circuit::from_gates`].
fn check_gate(num_qubits: u32, gate: &Gate) -> Result<(), CircuitError> {
    let (a, b) = gate.qubits();
    if a.0 >= num_qubits {
        return Err(CircuitError::QubitOutOfRange {
            qubit: a,
            num_qubits,
        });
    }
    if let Some(b) = b {
        if b.0 >= num_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit: b,
                num_qubits,
            });
        }
        if a == b {
            return Err(CircuitError::DuplicateOperands { qubit: a });
        }
    }
    Ok(())
}

/// Size and depth summary of a [`Circuit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitStats {
    /// Register size (`n`).
    pub num_qubits: u32,
    /// Total gates (`g`).
    pub num_gates: usize,
    /// Single-qubit gate count.
    pub num_one_qubit_gates: usize,
    /// Two-qubit gate count.
    pub num_two_qubit_gates: usize,
    /// SWAP gate count.
    pub num_swaps: usize,
    /// ASAP depth (`d`).
    pub depth: usize,
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} g={} (1q={} 2q={} swap={}) d={}",
            self.num_qubits,
            self.num_gates,
            self.num_one_qubit_gates,
            self.num_two_qubit_gates,
            self.num_swaps,
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3c() -> Circuit {
        // Paper Figure 3(c): the motivating 4-qubit, 6-CNOT circuit.
        let (q1, q2, q3, q4) = (Qubit(0), Qubit(1), Qubit(2), Qubit(3));
        let mut c = Circuit::with_name(4, "fig3c");
        c.cx(q1, q2);
        c.cx(q3, q4);
        c.cx(q2, q4);
        c.cx(q2, q3);
        c.cx(q3, q4);
        c.cx(q1, q4);
        c
    }

    #[test]
    fn fig3c_counts_match_paper() {
        let c = fig3c();
        assert_eq!(c.num_gates(), 6);
        assert_eq!(c.num_two_qubit_gates(), 6);
        assert_eq!(c.depth(), 5, "paper §III-A: original depth is 5");
    }

    #[test]
    fn fig3d_updated_circuit_depth_matches_paper() {
        // Figure 3(d): SWAP inserted after the third CNOT, then the
        // remaining gates. With SWAP = 3 CX the depth becomes 8 and the
        // gate count 9 (§III-A).
        let (q1, q2, q3, q4) = (Qubit(0), Qubit(1), Qubit(2), Qubit(3));
        let mut c = Circuit::new(4);
        c.cx(q1, q2);
        c.cx(q3, q4);
        c.cx(q2, q4);
        c.swap(q1, q2);
        c.cx(q2, q3);
        c.cx(q3, q4);
        c.cx(q1, q4);
        let expanded = c.with_swaps_decomposed();
        assert_eq!(expanded.num_gates(), 9);
        assert_eq!(expanded.depth(), 8);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(5);
        assert_eq!(c.depth(), 0);
        assert!(c.is_empty());
        assert_eq!(c.stats().num_gates, 0);
    }

    #[test]
    fn depth_counts_parallel_gates_once() {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(2), Qubit(3)); // disjoint ⇒ same layer
        assert_eq!(c.depth(), 1);
        c.cx(Qubit(1), Qubit(2)); // overlaps both ⇒ new layer
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn single_qubit_gates_contribute_depth() {
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        c.h(Qubit(0));
        c.h(Qubit(0));
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn two_qubit_depth_ignores_single_qubit_gates() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.h(Qubit(1));
        c.cx(Qubit(0), Qubit(1));
        assert_eq!(c.two_qubit_depth(), 1);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::h(Qubit(2))).unwrap_err();
        assert_eq!(
            err,
            CircuitError::QubitOutOfRange {
                qubit: Qubit(2),
                num_qubits: 2
            }
        );
        let err = c.try_push(Gate::cx(Qubit(0), Qubit(5))).unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { .. }));
    }

    #[test]
    fn from_gates_validates_like_try_push() {
        let gates = vec![Gate::h(Qubit(0)), Gate::cx(Qubit(0), Qubit(1))];
        let c = Circuit::from_gates(2, gates.clone()).unwrap();
        assert_eq!(c.gates(), &gates[..]);
        assert_eq!(c.num_qubits(), 2);
        assert!(c.name().is_empty());
        assert_eq!(
            Circuit::from_gates(1, gates).unwrap_err(),
            CircuitError::QubitOutOfRange {
                qubit: Qubit(1),
                num_qubits: 1
            }
        );
    }

    #[test]
    fn reversed_reverses_two_qubit_sequence() {
        let c = fig3c();
        let r = c.reversed();
        let mut pairs = c.two_qubit_pairs();
        pairs.reverse();
        assert_eq!(r.two_qubit_pairs(), pairs);
    }

    #[test]
    fn reversed_is_involutive() {
        let mut c = fig3c();
        c.h(Qubit(0));
        c.rz(Qubit(1), 0.3);
        assert_eq!(c.reversed().reversed(), c);
    }

    #[test]
    fn reversal_preserves_depth_and_counts() {
        let c = fig3c();
        let r = c.reversed();
        assert_eq!(r.num_gates(), c.num_gates());
        assert_eq!(r.depth(), c.depth());
    }

    #[test]
    fn swap_decomposition_only_touches_swaps() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.swap(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        let e = c.with_swaps_decomposed();
        assert_eq!(e.num_gates(), 1 + 3 + 1);
        assert_eq!(e.num_swaps(), 0);
        assert_eq!(c.num_swaps(), 1);
    }

    #[test]
    fn remapped_applies_permutation() {
        let c = fig3c();
        let r = c.remapped(8, |q| Qubit(q.0 + 4));
        assert_eq!(r.num_qubits(), 8);
        assert_eq!(r.two_qubit_pairs()[0], (Qubit(4), Qubit(5)));
        assert_eq!(r.num_gates(), c.num_gates());
    }

    #[test]
    fn extend_and_iter() {
        let mut c = Circuit::new(2);
        c.extend([Gate::h(Qubit(0)), Gate::cx(Qubit(0), Qubit(1))]);
        assert_eq!(c.iter().count(), 2);
        assert_eq!((&c).into_iter().count(), 2);
    }

    #[test]
    fn stats_display_mentions_all_fields() {
        let s = fig3c().stats();
        let text = s.to_string();
        assert!(text.contains("n=4"));
        assert!(text.contains("g=6"));
        assert!(text.contains("d=5"));
    }

    #[test]
    fn structural_digest_ignores_angles_but_not_structure() {
        let digest = |c: &Circuit| c.structural_digest(usize::MAX);
        let mut a = Circuit::new(3);
        a.rz(Qubit(0), 0.1);
        a.rzz(Qubit(0), Qubit(1), 0.2);
        a.cx(Qubit(1), Qubit(2));
        let mut b = Circuit::new(3);
        b.rz(Qubit(0), -1.9);
        b.rzz(Qubit(0), Qubit(1), 3.3);
        b.cx(Qubit(1), Qubit(2));
        assert!(a.same_structure(&b));
        assert_eq!(digest(&a), digest(&b));

        // Operand change ⇒ different structure.
        let mut c = Circuit::new(3);
        c.rz(Qubit(1), 0.1);
        c.rzz(Qubit(0), Qubit(1), 0.2);
        c.cx(Qubit(1), Qubit(2));
        assert!(!a.same_structure(&c));
        assert_ne!(digest(&a), digest(&c));

        // Kind change ⇒ different structure, even at equal arity/operands.
        let mut d = Circuit::new(3);
        d.rz(Qubit(0), 0.1);
        d.cp(Qubit(0), Qubit(1), 0.2);
        d.cx(Qubit(1), Qubit(2));
        assert_ne!(digest(&a), digest(&d));

        // Register size participates (same gates, wider register).
        let mut e = Circuit::new(4);
        e.rz(Qubit(0), 0.1);
        e.rzz(Qubit(0), Qubit(1), 0.2);
        e.cx(Qubit(1), Qubit(2));
        assert_ne!(digest(&a), digest(&e));
    }

    #[test]
    fn fingerprints_ignore_the_name() {
        let mut a = Circuit::with_name(2, "alpha");
        a.cx(Qubit(0), Qubit(1));
        let mut b = Circuit::with_name(2, "beta");
        b.cx(Qubit(0), Qubit(1));
        assert_eq!(a.structural_digest(64), b.structural_digest(64));
    }

    #[test]
    fn replace_params_restamps_angles_in_place() {
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), 0.1);
        c.rzz(Qubit(0), Qubit(1), 0.2);
        let original = c.clone();
        c.replace_params(0, Params::one(1.5));
        c.replace_params(1, Params::one(-0.7));
        assert!(c.same_structure(&original));
        assert_eq!(c.gates()[0].params().as_slice(), &[1.5]);
        assert_eq!(c.gates()[1].params().as_slice(), &[-0.7]);
        assert_eq!(c.gates()[1].qubits(), (Qubit(0), Some(Qubit(1))));
    }

    #[test]
    fn display_lists_gates() {
        let c = fig3c();
        let text = c.to_string();
        assert!(text.contains("fig3c"));
        assert!(text.contains("cx q0,q1"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn decomposed_depth_matches_building_the_decomposition(
            n in 2u32..7,
            ops in proptest::collection::vec((0u8..4, 0u32..7, 0u32..7), 0..60),
        ) {
            let mut c = Circuit::new(n);
            for (op, a, b) in ops {
                let (a, b) = (Qubit(a % n), Qubit(b % n));
                match op {
                    0 => c.h(a),
                    _ if a == b => c.x(a),
                    1 => c.cx(a, b),
                    _ => c.swap(a, b),
                }
            }
            let expanded = c.with_swaps_decomposed();
            proptest::prop_assert_eq!(c.decomposed_depth(), expanded.depth());
            proptest::prop_assert_eq!(expanded.decomposed_depth(), expanded.depth());
        }
    }
}
