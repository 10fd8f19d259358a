//! Device topologies for the SABRE reproduction.
//!
//! NISQ devices restrict two-qubit gates to *coupled* physical qubit pairs
//! (paper §II-B). This crate models that hardware substrate:
//!
//! - [`CouplingGraph`]: an undirected graph over physical qubits. The paper
//!   targets IBM's 20-qubit Tokyo chip where "CNOT gate can already be
//!   applied on either direction between any connected qubit pair"
//!   (§III-A), so edges are symmetric.
//! - [`WeightedDistanceMatrix`]: the one distance type, the preprocessing
//!   step of §IV-A; `D[i][j]` is the minimum number of SWAPs (unit edge
//!   weight) or the cheapest noise-weighted SWAP cost required to move a
//!   logical qubit from physical qubit `Q_i` to `Q_j`. Small devices
//!   store the dense all-pairs matrix; kilo-qubit devices answer from an
//!   on-demand sparse row engine (Dijkstra rows behind an LRU) — same
//!   values, flat memory. [`DENSE_DISTANCE_THRESHOLD`] is the crossover.
//! - [`BoundedLru`]: the one bounded cache every memo map in the
//!   workspace sits on (distance rows here; routed plans, device
//!   preprocessing, noise-weighted matrices and probe verdicts in
//!   `sabre`), with `O(1)` touch and evict and counters that outlive
//!   evictions. The `*_CAPACITY` constants are the bounds.
//! - [`devices`]: a zoo of concrete device models — the IBM Q20 Tokyo graph
//!   of Figure 2 with its published error rates, older IBM chips, and
//!   parametric generators (linear, ring, grid, star, complete, heavy-hex).
//! - [`embedding`]: a subgraph-monomorphism checker that decides whether a
//!   circuit's interaction graph embeds into a device — the ground truth
//!   behind the paper's small-benchmark optimality claims (§V-A1).
//!
//! # Example
//!
//! ```
//! use sabre_topology::{devices, Qubit};
//!
//! let tokyo = devices::ibm_q20_tokyo();
//! let graph = tokyo.graph();
//! assert_eq!(graph.num_qubits(), 20);
//! assert!(graph.are_coupled(Qubit(0), Qubit(1)));
//! assert!(!graph.are_coupled(Qubit(0), Qubit(6))); // paper §II-B example
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod csr;
pub mod devices;
pub mod direction;
mod distance;
pub mod embedding;
mod graph;
mod lru;
pub mod noise;

pub use csr::CsrAdjacency;
pub use distance::{
    DistanceBackend, DistanceRow, WeightedDistanceMatrix, DENSE_DISTANCE_THRESHOLD,
    DEVICE_CACHE_CAPACITY, NOISE_CACHE_CAPACITY, ROW_CACHE_CAPACITY, VERDICT_CACHE_CAPACITY,
};
pub use graph::{CouplingGraph, TopologyError};
pub use lru::{BoundedLru, LruStats};

// Physical qubits are indexed with the same newtype as circuit wires; the
// router's `Layout` relates the two interpretations.
pub use sabre_circuit::Qubit;
