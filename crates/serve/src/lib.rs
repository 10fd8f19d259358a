//! # sabre-serve — the SABRE router as a long-running service
//!
//! The paper's pass is a library call; the ROADMAP's north star is a
//! production system serving heavy traffic. PR 2's [`sabre::DeviceCache`]
//! made the per-device preprocessing shareable and PR 3's incremental
//! engine made the per-step cost cheap — this crate is the missing layer
//! that amortizes both across requests: a long-running process with
//! request queueing, explicit backpressure, per-request configuration,
//! and live calibration refresh.
//!
//! Everything is built on `std` (hand-rolled HTTP/1.1 over
//! `TcpListener`, hand-rolled JSON via [`sabre_json`], a hand-declared
//! `poll(2)` for readiness) because the build environment has no
//! crates.io access.
//!
//! # Serving core
//!
//! Connections are owned by a single nonblocking reactor thread — a
//! `poll(2)` readiness loop over a bounded, generation-stamped
//! connection table — so ten thousand idle keep-alive clients cost
//! table slots, not threads. Request bodies stream through an
//! incremental parser ([`http::RequestParser`]), slow readers and
//! writers are reaped by per-direction deadlines, and routing work is
//! priced at admission: per-client token buckets first, then a
//! predicted-wait model (backlog steps × live ns-per-step ÷ workers)
//! that answers `429` with the projected wait when the SLO would be
//! blown. `503` is reserved for hard capacity (full queue or connection
//! table), with `Retry-After` computed from the same drain model.
//!
//! # Endpoints
//!
//! | method & path | body | effect |
//! |---|---|---|
//! | `GET /healthz` | — | liveness + queue depth |
//! | `GET /metrics` | — | Prometheus text (per-step routing ns, queue, cache) |
//! | `GET /debug/traces` | — | newest-first ring of completed request traces (phase timings) |
//! | `GET /devices` | — | registered devices |
//! | `POST /devices` | `{"id", "builtin"}` or `{"id", "num_qubits", "edges"}` | register + warm the cache (new ids past [`MAX_DEVICES`]: `409`) |
//! | `POST /devices/{id}/noise` | noise spec | live calibration refresh (no restart) |
//! | `POST /route` | `{"device", "circuit", "config"?}` | route one circuit |
//! | `POST /transpile_batch` | `{"device", "circuits", …}` | full pipeline, partial-success |
//!
//! Admission control: jobs enter a bounded FIFO ([`queue::BoundedQueue`]);
//! when it is full the request is answered `503` with a `Retry-After`
//! header instead of queueing without bound. [`ServerHandle::shutdown`]
//! drains admitted jobs before the process exits.
//!
//! # Example
//!
//! ```no_run
//! use sabre_serve::{start, ServeConfig};
//!
//! let handle = start(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! })?;
//! println!("listening on {}", handle.addr());
//! // … serve until asked to stop …
//! handle.shutdown(); // drains in-flight jobs
//! # Ok::<(), sabre_serve::ServeError>(())
//! ```
//!
//! (`examples/serve_client.rs` in the workspace root round-trips a real
//! circuit through a loopback server.)

// `deny`, not `forbid`: the `poll` module re-enables unsafe locally for
// the one FFI declaration the reactor needs; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod api;
mod config;
pub mod http;
pub mod metrics;
mod poll;
pub mod queue;
mod reactor;
mod service;

pub use config::ServeConfig;
pub use service::{start, ServeError, ServerHandle, MAX_DEVICES, MAX_FLEETS};
