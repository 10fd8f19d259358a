//! OpenQASM 2.0 front-end for the SABRE reproduction.
//!
//! The paper's benchmark suite (§V: IBM QISKit programs, RevLib functions,
//! Quipper and ScaffCC compilations) ships as OpenQASM 2.0 text. This crate
//! parses that format into [`sabre_circuit::Circuit`] and serializes
//! circuits back out, so users can route their own benchmark files.
//! [`load_dir`] bulk-loads a whole corpus directory in deterministic
//! (sorted) order for the bench registry and sharded-routing inputs.
//!
//! Supported subset (everything the paper-era benchmarks use):
//!
//! - `OPENQASM 2.0;` header and `include "qelib1.inc";`
//! - `qreg` / `creg` declarations (multiple registers are flattened in
//!   declaration order)
//! - `qelib1` gate applications: `h x y z s sdg t tdg sx id u1 u2 u3 p rx
//!   ry rz cx cz swap cu1 cp rzz`
//! - parameter expressions with `pi`, unary minus, `+ - * /` and parentheses
//! - register broadcast (`h q;` applies H to every wire of `q`), up to
//!   [`MAX_GATES`] gates per program
//! - `barrier` and `measure` statements are skipped (counted in
//!   [`ParsedProgram`]): mapping operates on the unitary part of a circuit.
//!
//! The lexer is zero-copy: tokens are `Copy` values whose identifiers
//! and strings borrow the source, lexed one at a time as the parser asks.
//! The parser reads each gate into fixed-size parameter and operand
//! buffers and pushes it straight onto the circuit's gate list, so a
//! program costs no allocation per token or per gate (only the gate list
//! grows, like any `Vec`). [`to_qasm`] writes integers without going
//! through `fmt`.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[3];
//!     h q[0];
//!     cx q[0], q[1];
//!     rz(pi/4) q[2];
//! "#;
//! let circuit = sabre_qasm::parse(src)?;
//! assert_eq!(circuit.num_qubits(), 3);
//! assert_eq!(circuit.num_gates(), 3);
//! let text = sabre_qasm::to_qasm(&circuit);
//! assert_eq!(sabre_qasm::parse(&text)?, circuit);
//! # Ok::<(), sabre_qasm::QasmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod error;
mod lexer;
mod parser;
mod writer;

pub use corpus::{load_dir, CorpusError};
pub use error::QasmError;
pub use parser::{parse, parse_program, ParsedProgram, MAX_GATES};
pub use writer::to_qasm;
