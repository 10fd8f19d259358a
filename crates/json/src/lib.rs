//! Minimal, dependency-free JSON for the SABRE workspace.
//!
//! The build environment has no crates.io access, so the serving layer
//! (`sabre_serve`) and the plan-quality gate (`sabre_bench`'s
//! `quality_json`) share this hand-rolled implementation instead of `serde`:
//! a [`JsonValue`] tree, a strict recursive-descent [parser](JsonValue::parse),
//! and compact/pretty [writers](JsonValue::to_pretty).
//!
//! Scope is deliberately small — exactly what the workspace needs:
//!
//! - Objects preserve **insertion order** (stable request/response bodies
//!   and reproducible trajectory files).
//! - Numbers distinguish integers ([`JsonValue::Int`], `i128`, wide enough
//!   for nanosecond counters) from floats ([`JsonValue::Float`]).
//! - Parsing is strict UTF-8 JSON with `\uXXXX` escapes (including
//!   surrogate pairs) and a recursion-depth limit, so it is safe on
//!   untrusted request bodies.
//! - Non-finite floats serialize as `null` (JSON has no representation
//!   for them).
//!
//! # Example
//!
//! ```
//! use sabre_json::JsonValue;
//!
//! let v = JsonValue::parse(r#"{"seed": 7, "name": "qft", "ok": true}"#)?;
//! assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(7));
//! assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("qft"));
//!
//! let out = JsonValue::object([("swaps", JsonValue::from(12u64))]);
//! assert_eq!(out.to_compact(), r#"{"swaps":12}"#);
//! # Ok::<(), sabre_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
mod value;
mod write;

pub use parse::JsonError;
pub use value::JsonValue;
