use std::fmt;

use crate::Qubit;

/// Single-qubit gate kinds supported by the IR.
///
/// The set covers the `qelib1.inc` gates the paper's benchmarks use. Gates
/// carrying rotation angles store them in [`Params`]; the number of angles
/// each kind expects is given by [`OneQubitKind::num_params`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OneQubitKind {
    /// Identity.
    I,
    /// Hadamard.
    H,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// `T† = diag(1, e^{-iπ/4})`.
    Tdg,
    /// Square root of X.
    Sx,
    /// Rotation about the X axis by one angle.
    Rx,
    /// Rotation about the Y axis by one angle.
    Ry,
    /// Rotation about the Z axis by one angle.
    Rz,
    /// Phase rotation `P(λ) = diag(1, e^{iλ})` (OpenQASM `u1`).
    P,
    /// Generic single-qubit unitary `U(θ, φ, λ)` (OpenQASM `u3`).
    U,
}

impl OneQubitKind {
    /// Number of rotation angles this gate kind carries.
    ///
    /// ```
    /// # use sabre_circuit::OneQubitKind;
    /// assert_eq!(OneQubitKind::H.num_params(), 0);
    /// assert_eq!(OneQubitKind::Rz.num_params(), 1);
    /// assert_eq!(OneQubitKind::U.num_params(), 3);
    /// ```
    pub fn num_params(self) -> usize {
        match self {
            OneQubitKind::Rx | OneQubitKind::Ry | OneQubitKind::Rz | OneQubitKind::P => 1,
            OneQubitKind::U => 3,
            _ => 0,
        }
    }

    /// Lower-case OpenQASM mnemonic for the kind.
    ///
    /// ```
    /// # use sabre_circuit::OneQubitKind;
    /// assert_eq!(OneQubitKind::Sdg.mnemonic(), "sdg");
    /// ```
    pub fn mnemonic(self) -> &'static str {
        match self {
            OneQubitKind::I => "id",
            OneQubitKind::H => "h",
            OneQubitKind::X => "x",
            OneQubitKind::Y => "y",
            OneQubitKind::Z => "z",
            OneQubitKind::S => "s",
            OneQubitKind::Sdg => "sdg",
            OneQubitKind::T => "t",
            OneQubitKind::Tdg => "tdg",
            OneQubitKind::Sx => "sx",
            OneQubitKind::Rx => "rx",
            OneQubitKind::Ry => "ry",
            OneQubitKind::Rz => "rz",
            OneQubitKind::P => "u1",
            OneQubitKind::U => "u3",
        }
    }

    /// All single-qubit kinds, useful for exhaustive tests and fuzzing.
    pub const ALL: [OneQubitKind; 15] = [
        OneQubitKind::I,
        OneQubitKind::H,
        OneQubitKind::X,
        OneQubitKind::Y,
        OneQubitKind::Z,
        OneQubitKind::S,
        OneQubitKind::Sdg,
        OneQubitKind::T,
        OneQubitKind::Tdg,
        OneQubitKind::Sx,
        OneQubitKind::Rx,
        OneQubitKind::Ry,
        OneQubitKind::Rz,
        OneQubitKind::P,
        OneQubitKind::U,
    ];

    /// The adjoint (inverse) of this gate kind, together with the rule for
    /// transforming its parameters (`negate` means every angle flips sign).
    ///
    /// This is what makes circuit reversal (paper §IV-C2) produce a true
    /// inverse circuit rather than merely re-ordering gates.
    pub fn adjoint(self) -> (OneQubitKind, bool) {
        match self {
            OneQubitKind::S => (OneQubitKind::Sdg, false),
            OneQubitKind::Sdg => (OneQubitKind::S, false),
            OneQubitKind::T => (OneQubitKind::Tdg, false),
            OneQubitKind::Tdg => (OneQubitKind::T, false),
            OneQubitKind::Rx | OneQubitKind::Ry | OneQubitKind::Rz | OneQubitKind::P => {
                (self, true)
            }
            // U(θ,φ,λ)† = U(-θ,-λ,-φ); the swap of φ/λ is handled in
            // `Gate::adjoint` because it needs access to the parameters.
            OneQubitKind::U => (OneQubitKind::U, true),
            // Sx† is Sx·Z·... — not in our set; we keep Sx self-adjoint at the
            // IR level is wrong, so we expand: Sx† = U(-π/2, 0, 0) ≅ Rx(-π/2)
            // up to global phase. Reversal therefore rewrites Sx as Rx(π/2).
            OneQubitKind::Sx => (OneQubitKind::Rx, false),
            _ => (self, false), // I, H, X, Y, Z are self-inverse
        }
    }
}

impl fmt::Display for OneQubitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Two-qubit gate kinds supported by the IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TwoQubitKind {
    /// Controlled-NOT. First operand is the control.
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
    /// SWAP. In the paper's cost model a SWAP decomposes into 3 CNOTs
    /// (Figure 3a); routers insert these.
    Swap,
    /// Controlled phase `CP(λ)` (OpenQASM `cu1`, symmetric).
    Cp,
    /// Ising interaction `RZZ(θ) = exp(-i θ/2 Z⊗Z)` (symmetric).
    Rzz,
}

impl TwoQubitKind {
    /// Number of rotation angles this gate kind carries.
    pub fn num_params(self) -> usize {
        match self {
            TwoQubitKind::Cp | TwoQubitKind::Rzz => 1,
            _ => 0,
        }
    }

    /// Lower-case OpenQASM mnemonic for the kind.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TwoQubitKind::Cx => "cx",
            TwoQubitKind::Cz => "cz",
            TwoQubitKind::Swap => "swap",
            TwoQubitKind::Cp => "cu1",
            TwoQubitKind::Rzz => "rzz",
        }
    }

    /// All two-qubit kinds, useful for exhaustive tests and fuzzing.
    pub const ALL: [TwoQubitKind; 5] = [
        TwoQubitKind::Cx,
        TwoQubitKind::Cz,
        TwoQubitKind::Swap,
        TwoQubitKind::Cp,
        TwoQubitKind::Rzz,
    ];
}

impl fmt::Display for TwoQubitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Up to three rotation angles attached to a gate.
///
/// A fixed-size inline array keeps [`Gate`] `Copy` and allocation-free,
/// which matters because routers clone gate lists heavily.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Params {
    values: [f64; 3],
    len: u8,
}

impl Params {
    /// No parameters.
    pub const EMPTY: Params = Params {
        values: [0.0; 3],
        len: 0,
    };

    /// A single angle.
    pub fn one(theta: f64) -> Self {
        Params {
            values: [theta, 0.0, 0.0],
            len: 1,
        }
    }

    /// Two angles.
    pub fn two(a: f64, b: f64) -> Self {
        Params {
            values: [a, b, 0.0],
            len: 2,
        }
    }

    /// Three angles (the `U(θ, φ, λ)` case).
    pub fn three(a: f64, b: f64, c: f64) -> Self {
        Params {
            values: [a, b, c],
            len: 3,
        }
    }

    /// The angles as a slice.
    ///
    /// ```
    /// # use sabre_circuit::Params;
    /// assert_eq!(Params::two(0.1, 0.2).as_slice(), &[0.1, 0.2]);
    /// ```
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.len as usize]
    }

    /// Number of angles stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no angles.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a copy with every angle negated (used for adjoints).
    pub fn negated(&self) -> Self {
        let mut out = *self;
        for v in &mut out.values[..out.len as usize] {
            *v = -*v;
        }
        out
    }
}

impl FromIterator<f64> for Params {
    /// Collects up to three angles.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than three values.
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut out = Params::EMPTY;
        for v in iter {
            assert!(out.len < 3, "a gate carries at most 3 parameters");
            out.values[out.len as usize] = v;
            out.len += 1;
        }
        out
    }
}

/// One operation in a circuit: a single- or two-qubit gate.
///
/// `Gate` is small and `Copy`; circuits store them in a flat `Vec`.
///
/// # Example
///
/// ```
/// use sabre_circuit::{Gate, Qubit};
///
/// let g = Gate::cx(Qubit(0), Qubit(1));
/// assert!(g.is_two_qubit());
/// assert_eq!(g.qubits(), (Qubit(0), Some(Qubit(1))));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// A gate acting on one wire.
    One {
        /// Which single-qubit gate.
        kind: OneQubitKind,
        /// The wire it acts on.
        qubit: Qubit,
        /// Rotation angles (length = `kind.num_params()`).
        params: Params,
    },
    /// A gate acting on two distinct wires.
    Two {
        /// Which two-qubit gate.
        kind: TwoQubitKind,
        /// First operand (control for CX).
        a: Qubit,
        /// Second operand (target for CX).
        b: Qubit,
        /// Rotation angles (length = `kind.num_params()`).
        params: Params,
    },
}

impl Gate {
    /// Hadamard on `q`.
    pub fn h(q: Qubit) -> Gate {
        Gate::One {
            kind: OneQubitKind::H,
            qubit: q,
            params: Params::EMPTY,
        }
    }

    /// Pauli-X on `q`.
    pub fn x(q: Qubit) -> Gate {
        Gate::One {
            kind: OneQubitKind::X,
            qubit: q,
            params: Params::EMPTY,
        }
    }

    /// Z-rotation by `theta` on `q`.
    pub fn rz(q: Qubit, theta: f64) -> Gate {
        Gate::One {
            kind: OneQubitKind::Rz,
            qubit: q,
            params: Params::one(theta),
        }
    }

    /// CNOT with control `control` and target `target`.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn cx(control: Qubit, target: Qubit) -> Gate {
        assert_ne!(control, target, "two-qubit gate operands must differ");
        Gate::Two {
            kind: TwoQubitKind::Cx,
            a: control,
            b: target,
            params: Params::EMPTY,
        }
    }

    /// SWAP between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap(a: Qubit, b: Qubit) -> Gate {
        assert_ne!(a, b, "two-qubit gate operands must differ");
        Gate::Two {
            kind: TwoQubitKind::Swap,
            a,
            b,
            params: Params::EMPTY,
        }
    }

    /// Generic single-qubit gate constructor.
    pub fn one(kind: OneQubitKind, qubit: Qubit, params: Params) -> Gate {
        debug_assert_eq!(params.len(), kind.num_params(), "wrong parameter count");
        Gate::One {
            kind,
            qubit,
            params,
        }
    }

    /// Generic two-qubit gate constructor.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn two(kind: TwoQubitKind, a: Qubit, b: Qubit, params: Params) -> Gate {
        assert_ne!(a, b, "two-qubit gate operands must differ");
        debug_assert_eq!(params.len(), kind.num_params(), "wrong parameter count");
        Gate::Two { kind, a, b, params }
    }

    /// Whether this is a two-qubit gate.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Two { .. })
    }

    /// Whether this is a SWAP gate (what routers insert).
    pub fn is_swap(&self) -> bool {
        matches!(
            self,
            Gate::Two {
                kind: TwoQubitKind::Swap,
                ..
            }
        )
    }

    /// The wires this gate acts on: `(first, Some(second))` for two-qubit
    /// gates, `(only, None)` for single-qubit gates.
    pub fn qubits(&self) -> (Qubit, Option<Qubit>) {
        match *self {
            Gate::One { qubit, .. } => (qubit, None),
            Gate::Two { a, b, .. } => (a, Some(b)),
        }
    }

    /// Whether the gate touches wire `q`.
    pub fn acts_on(&self, q: Qubit) -> bool {
        match *self {
            Gate::One { qubit, .. } => qubit == q,
            Gate::Two { a, b, .. } => a == q || b == q,
        }
    }

    /// The rotation angles of the gate.
    pub fn params(&self) -> &Params {
        match self {
            Gate::One { params, .. } | Gate::Two { params, .. } => params,
        }
    }

    /// Returns the same gate with its rotation angles replaced — the
    /// parameter re-binding primitive of the routed-plan cache: a cached
    /// physical circuit is re-used for a structurally identical submission
    /// by stamping the new angles into each gate in place.
    ///
    /// Kind and operands are untouched, so the result is legal wherever
    /// the original was.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `params.len()` differs from the kind's
    /// parameter count.
    pub fn with_params(&self, params: Params) -> Gate {
        match *self {
            Gate::One { kind, qubit, .. } => {
                debug_assert_eq!(params.len(), kind.num_params(), "wrong parameter count");
                Gate::One {
                    kind,
                    qubit,
                    params,
                }
            }
            Gate::Two { kind, a, b, .. } => {
                debug_assert_eq!(params.len(), kind.num_params(), "wrong parameter count");
                Gate::Two { kind, a, b, params }
            }
        }
    }

    /// Whether `self` and `other` are the same gate *structure*: same kind
    /// and same operand wires, rotation angles ignored. This is the
    /// gate-level equality behind [`crate::Circuit::same_structure`] and
    /// the parameter-insensitive [`crate::Circuit::structural_digest`].
    pub fn same_structure(&self, other: &Gate) -> bool {
        match (*self, *other) {
            (
                Gate::One { kind, qubit, .. },
                Gate::One {
                    kind: ok,
                    qubit: oq,
                    ..
                },
            ) => kind == ok && qubit == oq,
            (
                Gate::Two { kind, a, b, .. },
                Gate::Two {
                    kind: ok,
                    a: oa,
                    b: ob,
                    ..
                },
            ) => kind == ok && a == oa && b == ob,
            _ => false,
        }
    }

    /// Returns the same gate with every wire index remapped through `f`.
    ///
    /// Routers use this to re-express a logical gate on physical wires.
    pub fn map_qubits<F: FnMut(Qubit) -> Qubit>(&self, mut f: F) -> Gate {
        match *self {
            Gate::One {
                kind,
                qubit,
                params,
            } => Gate::One {
                kind,
                qubit: f(qubit),
                params,
            },
            Gate::Two { kind, a, b, params } => {
                let (na, nb) = (f(a), f(b));
                assert_ne!(na, nb, "qubit remap collapsed a two-qubit gate");
                Gate::Two {
                    kind,
                    a: na,
                    b: nb,
                    params,
                }
            }
        }
    }

    /// The adjoint (inverse) of this gate.
    ///
    /// Together with order reversal this produces the paper's reverse
    /// circuit: the reverse traversal runs on `circuit.reversed()`, whose
    /// two-qubit interaction sequence is the original's mirrored — exactly
    /// what §IV-C2 requires — while also being a semantic inverse so the
    /// simulator can verify `C · C⁻¹ = I`.
    pub fn adjoint(&self) -> Gate {
        match *self {
            Gate::One {
                kind,
                qubit,
                params,
            } => match kind {
                OneQubitKind::U => {
                    // U(θ,φ,λ)† = U(-θ,-λ,-φ)
                    let p = params.as_slice();
                    Gate::One {
                        kind,
                        qubit,
                        params: Params::three(-p[0], -p[2], -p[1]),
                    }
                }
                OneQubitKind::Sx => Gate::One {
                    kind: OneQubitKind::Rx,
                    qubit,
                    params: Params::one(-std::f64::consts::FRAC_PI_2),
                },
                _ => {
                    let (k, negate) = kind.adjoint();
                    Gate::One {
                        kind: k,
                        qubit,
                        params: if negate { params.negated() } else { params },
                    }
                }
            },
            Gate::Two { kind, a, b, params } => Gate::Two {
                kind,
                a,
                b,
                // CX, CZ, SWAP are self-inverse; CP and RZZ invert by angle
                // negation.
                params: params.negated(),
            },
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_params(f: &mut fmt::Formatter<'_>, p: &Params) -> fmt::Result {
            if !p.is_empty() {
                write!(f, "(")?;
                for (i, v) in p.as_slice().iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
        match self {
            Gate::One {
                kind,
                qubit,
                params,
            } => {
                write!(f, "{kind}")?;
                write_params(f, params)?;
                write!(f, " {qubit}")
            }
            Gate::Two { kind, a, b, params } => {
                write!(f, "{kind}")?;
                write_params(f, params)?;
                write!(f, " {a},{b}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_match_kinds() {
        for k in OneQubitKind::ALL {
            let expected = match k {
                OneQubitKind::Rx | OneQubitKind::Ry | OneQubitKind::Rz | OneQubitKind::P => 1,
                OneQubitKind::U => 3,
                _ => 0,
            };
            assert_eq!(k.num_params(), expected, "{k:?}");
        }
        for k in TwoQubitKind::ALL {
            let expected = match k {
                TwoQubitKind::Cp | TwoQubitKind::Rzz => 1,
                _ => 0,
            };
            assert_eq!(k.num_params(), expected, "{k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "operands must differ")]
    fn cx_rejects_equal_operands() {
        let _ = Gate::cx(Qubit(1), Qubit(1));
    }

    #[test]
    fn qubits_accessor() {
        assert_eq!(Gate::h(Qubit(2)).qubits(), (Qubit(2), None));
        assert_eq!(
            Gate::cx(Qubit(0), Qubit(3)).qubits(),
            (Qubit(0), Some(Qubit(3)))
        );
    }

    #[test]
    fn acts_on_checks_both_wires() {
        let g = Gate::cx(Qubit(0), Qubit(3));
        assert!(g.acts_on(Qubit(0)));
        assert!(g.acts_on(Qubit(3)));
        assert!(!g.acts_on(Qubit(1)));
    }

    #[test]
    fn map_qubits_remaps_both_operands() {
        let g = Gate::cx(Qubit(0), Qubit(1));
        let mapped = g.map_qubits(|q| Qubit(q.0 + 10));
        assert_eq!(mapped.qubits(), (Qubit(10), Some(Qubit(11))));
    }

    #[test]
    #[should_panic(expected = "collapsed")]
    fn map_qubits_rejects_collapsing_map() {
        let g = Gate::cx(Qubit(0), Qubit(1));
        let _ = g.map_qubits(|_| Qubit(5));
    }

    #[test]
    fn adjoint_of_self_inverse_kinds_is_identity_transform() {
        for k in [
            OneQubitKind::H,
            OneQubitKind::X,
            OneQubitKind::Y,
            OneQubitKind::Z,
            OneQubitKind::I,
        ] {
            let g = Gate::one(k, Qubit(0), Params::EMPTY);
            assert_eq!(g.adjoint(), g);
        }
    }

    #[test]
    fn adjoint_swaps_s_and_sdg() {
        let s = Gate::one(OneQubitKind::S, Qubit(0), Params::EMPTY);
        let sdg = Gate::one(OneQubitKind::Sdg, Qubit(0), Params::EMPTY);
        assert_eq!(s.adjoint(), sdg);
        assert_eq!(sdg.adjoint(), s);
    }

    #[test]
    fn adjoint_negates_rotation_angles() {
        let g = Gate::rz(Qubit(1), 0.75);
        match g.adjoint() {
            Gate::One { kind, params, .. } => {
                assert_eq!(kind, OneQubitKind::Rz);
                assert_eq!(params.as_slice(), &[-0.75]);
            }
            _ => panic!("expected one-qubit gate"),
        }
    }

    #[test]
    fn adjoint_of_u_swaps_phi_lambda() {
        let g = Gate::one(OneQubitKind::U, Qubit(0), Params::three(0.1, 0.2, 0.3));
        match g.adjoint() {
            Gate::One { params, .. } => {
                assert_eq!(params.as_slice(), &[-0.1, -0.3, -0.2]);
            }
            _ => panic!("expected one-qubit gate"),
        }
    }

    #[test]
    fn adjoint_is_involutive_for_rotations() {
        let g = Gate::rz(Qubit(0), 1.25);
        assert_eq!(g.adjoint().adjoint(), g);
        let u = Gate::one(OneQubitKind::U, Qubit(0), Params::three(0.4, -0.5, 0.6));
        assert_eq!(u.adjoint().adjoint(), u);
    }

    #[test]
    fn two_qubit_adjoints() {
        let cx = Gate::cx(Qubit(0), Qubit(1));
        assert_eq!(cx.adjoint(), cx);
        let cp = Gate::two(TwoQubitKind::Cp, Qubit(0), Qubit(1), Params::one(0.5));
        match cp.adjoint() {
            Gate::Two { params, .. } => assert_eq!(params.as_slice(), &[-0.5]),
            _ => panic!("expected two-qubit gate"),
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gate::h(Qubit(0)).to_string(), "h q0");
        assert_eq!(Gate::cx(Qubit(0), Qubit(1)).to_string(), "cx q0,q1");
        assert_eq!(Gate::rz(Qubit(2), 0.5).to_string(), "rz(0.5) q2");
    }

    #[test]
    fn params_collect_and_slice() {
        let p: Params = [1.0, 2.0].into_iter().collect();
        assert_eq!(p.as_slice(), &[1.0, 2.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Params::EMPTY.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn params_reject_four_values() {
        let _: Params = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
    }
}
