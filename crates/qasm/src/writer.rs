use std::fmt::Write as _;

use sabre_circuit::{Circuit, Gate};

/// Serializes a circuit to OpenQASM 2.0 text with a single register `q`.
///
/// The output round-trips: `parse(&to_qasm(&c))` reconstructs `c` exactly
/// (floating-point parameters are printed with Rust's shortest-round-trip
/// formatting).
///
/// # Example
///
/// ```
/// use sabre_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cx(Qubit(0), Qubit(1));
/// let text = sabre_qasm::to_qasm(&c);
/// assert!(text.contains("cx q[0], q[1];"));
/// assert_eq!(sabre_qasm::parse(&text).unwrap(), c);
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    if !circuit.name().is_empty() {
        out.push_str("// circuit: ");
        out.push_str(circuit.name());
        out.push('\n');
    }
    out.push_str("qreg q[");
    push_u32(&mut out, circuit.num_qubits());
    out.push_str("];\n");
    for gate in circuit {
        match gate {
            Gate::One {
                kind,
                qubit,
                params,
            } => {
                out.push_str(kind.mnemonic());
                write_params(&mut out, params.as_slice());
                out.push_str(" q[");
                push_u32(&mut out, qubit.0);
            }
            Gate::Two { kind, a, b, params } => {
                out.push_str(kind.mnemonic());
                write_params(&mut out, params.as_slice());
                out.push_str(" q[");
                push_u32(&mut out, a.0);
                out.push_str("], q[");
                push_u32(&mut out, b.0);
            }
        }
        out.push_str("];\n");
    }
    out
}

/// Appends `n` in decimal without going through `fmt`.
fn push_u32(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

fn write_params(out: &mut String, params: &[f64]) {
    if params.is_empty() {
        return;
    }
    out.push('(');
    for (i, v) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 produces the shortest string that parses back to the
        // same bits, so the round-trip is exact. Negative values need no
        // special casing: the parser accepts unary minus.
        let _ = write!(out, "{v}");
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use sabre_circuit::{OneQubitKind, Params, Qubit, TwoQubitKind};

    #[test]
    fn header_and_register() {
        let c = Circuit::new(4);
        let text = to_qasm(&c);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[4];"));
    }

    #[test]
    fn name_becomes_comment() {
        let c = Circuit::with_name(1, "qft_10");
        assert!(to_qasm(&c).contains("// circuit: qft_10"));
    }

    #[test]
    fn round_trip_parameter_free_gates() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.x(Qubit(1));
        c.cx(Qubit(0), Qubit(2));
        c.swap(Qubit(1), Qubit(2));
        assert_eq!(parse(&to_qasm(&c)).unwrap(), c);
    }

    #[test]
    fn round_trip_parameters_exactly() {
        let mut c = Circuit::new(2);
        c.rz(Qubit(0), 0.1 + 0.2); // a value with float noise
        c.rx(Qubit(1), -std::f64::consts::PI);
        c.push(Gate::one(
            OneQubitKind::U,
            Qubit(0),
            Params::three(1e-300, -2.5, std::f64::consts::PI),
        ));
        c.push(Gate::two(
            TwoQubitKind::Cp,
            Qubit(0),
            Qubit(1),
            Params::one(f64::consts_hack()),
        ));
        assert_eq!(parse(&to_qasm(&c)).unwrap(), c);
    }

    // Small helper to get an awkward float without extra deps.
    trait ConstsHack {
        fn consts_hack() -> f64;
    }
    impl ConstsHack for f64 {
        fn consts_hack() -> f64 {
            0.30000000000000004
        }
    }

    #[test]
    fn swap_survives_round_trip_as_swap() {
        let mut c = Circuit::new(2);
        c.swap(Qubit(0), Qubit(1));
        let text = to_qasm(&c);
        assert!(text.contains("swap q[0], q[1];"));
        assert_eq!(parse(&text).unwrap().num_swaps(), 1);
    }

    /// Every gate kind, multi-digit wires, and negative, exponent-range,
    /// signed-zero and integral angles: the exact bytes `to_qasm` wrote
    /// before it stopped formatting integers through `fmt`.
    #[test]
    fn golden_text_covers_every_gate_kind() {
        let angles = [
            -0.5,
            1e-7,
            3.0,
            -0.0,
            1e21,
            -2.5e-10,
            std::f64::consts::PI,
            -1.0,
            0.30000000000000004,
        ];
        let mut c = Circuit::with_name(12, "golden");
        let mut k = 0;
        let mut next = || {
            k += 1;
            angles[k % angles.len()]
        };
        for (i, kind) in (0u32..).zip(OneQubitKind::ALL) {
            let p = match kind.num_params() {
                0 => Params::EMPTY,
                1 => Params::one(next()),
                _ => Params::three(next(), next(), next()),
            };
            c.push(Gate::one(kind, Qubit(i * 5 % 12), p));
        }
        for (i, kind) in (0u32..).zip(TwoQubitKind::ALL) {
            let p = match kind.num_params() {
                0 => Params::EMPTY,
                _ => Params::one(next()),
            };
            c.push(Gate::two(kind, Qubit(11 - i), Qubit(i), p));
        }
        let golden = "OPENQASM 2.0;\n\
include \"qelib1.inc\";\n\
// circuit: golden\n\
qreg q[12];\n\
id q[0];\n\
h q[5];\n\
x q[10];\n\
y q[3];\n\
z q[8];\n\
s q[1];\n\
sdg q[6];\n\
t q[11];\n\
tdg q[4];\n\
sx q[9];\n\
rx(0.0000001) q[2];\n\
ry(3) q[7];\n\
rz(-0) q[0];\n\
u1(1000000000000000000000) q[5];\n\
u3(-0.00000000025, 3.141592653589793, -1) q[10];\n\
cx q[11], q[0];\n\
cz q[10], q[1];\n\
swap q[9], q[2];\n\
cu1(0.30000000000000004) q[8], q[3];\n\
rzz(-0.5) q[7], q[4];\n\
";
        assert_eq!(to_qasm(&c), golden);
        assert_eq!(parse(golden).unwrap().gates(), c.gates());
    }

    #[test]
    fn empty_circuit_round_trips() {
        let c = Circuit::new(5);
        assert_eq!(parse(&to_qasm(&c)).unwrap(), c);
    }
}
