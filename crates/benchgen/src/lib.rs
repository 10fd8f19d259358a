//! Benchmark circuit generators for the SABRE reproduction.
//!
//! The paper evaluates on 26 benchmarks "selected from previous work,
//! including quantum programs from IBM's QISKit, some functions from
//! RevLib, and some algorithms compiled from Quipper and ScaffCC" (§V).
//! Those exact files are not redistributable here, so this crate
//! regenerates the suite:
//!
//! - [`qft`]: **structurally exact** Quantum Fourier Transform circuits
//!   (full and approximate variants CNOT-decomposed, and an approximate
//!   variant that keeps each controlled phase as one gate).
//! - [`ising`]: **structurally exact** trotterized 1-D transverse-field
//!   Ising model circuits — nearest-neighbor interactions only, so a
//!   perfect (zero-SWAP) mapping exists on any device with a Hamiltonian
//!   path, which is why the paper reports `g_op = 0` for them.
//! - [`toffoli`]: Toffoli-network generators standing in for the RevLib
//!   arithmetic benchmarks (`rd84_142`, `adr4_197`, ...): RevLib functions
//!   are reversible (Toffoli/CNOT) netlists compiled to Clifford+T, and a
//!   locality-biased Toffoli network reproduces their size and interaction
//!   statistics.
//! - [`random`]: uniform and device-embeddable random circuits for
//!   property tests and for the paper's "small" category (whose defining
//!   property is an interaction graph that embeds into the device, §V-A1).
//! - [`registry`]: the Table II benchmark list with the paper's reported
//!   numbers attached, mapping each name to a generated circuit.
//!
//! All generators are deterministic given their seed.
//!
//! # Example
//!
//! ```
//! use sabre_benchgen::registry;
//!
//! let specs = registry::table2();
//! assert_eq!(specs.len(), 26);
//! let qft13 = specs.iter().find(|s| s.name == "qft_13").unwrap();
//! let circuit = qft13.generate();
//! assert_eq!(circuit.num_qubits(), 13);
//! // Full decomposed QFT-13 has exactly the paper's 403 gates.
//! assert_eq!(circuit.num_gates(), 403);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod ising;
pub mod qft;
pub mod random;
pub mod registry;
pub mod toffoli;
