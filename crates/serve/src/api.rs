//! Request/response vocabulary: translating [`JsonValue`] bodies into
//! domain objects (circuits, configs, devices, noise models) with
//! status-coded errors.
//!
//! Everything here validates **before** touching constructors that panic
//! (e.g. [`NoiseModel::with_edge_error`]), so malformed requests always
//! come back as 4xx responses, never as a crashed worker.

use sabre::{HeuristicKind, SabreConfig};
use sabre_circuit::{Circuit, Gate, OneQubitKind, Params, Qubit, TwoQubitKind};
use sabre_json::JsonValue;
use sabre_qasm::MAX_GATES;
use sabre_shard::ShardConfig;
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph};

use crate::http::Response;

/// A request rejection: the HTTP status to answer with and a message for
/// the `{"error": …}` body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (4xx).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl ApiError {
    /// An error answered with `status`.
    pub(crate) fn new(status: u16, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            message: message.into(),
        }
    }

    /// The `{"error": message}` response every handler error becomes.
    pub(crate) fn response(&self) -> Response {
        Response::error(self.status, &self.message)
    }

    /// A `400 Bad Request`.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, message)
    }

    /// A `404 Not Found`.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, message)
    }
}

/// A priced `429 Too Many Requests`: unlike the blind `503`, it tells
/// the client *when* capacity is projected to exist. The body carries
/// `projected_wait_ms` (the modeled queue drain ahead of this request,
/// `0` for pure rate-limit rejections) and the `Retry-After` header
/// rounds that up to whole seconds, floored at the configured minimum.
pub fn too_many_requests(message: &str, projected_wait_ms: u64, retry_after_secs: u64) -> Response {
    let retry_after = retry_after_secs.max(projected_wait_ms.div_ceil(1000));
    Response::json(
        429,
        &JsonValue::object([
            ("error", message.into()),
            ("projected_wait_ms", JsonValue::from(projected_wait_ms)),
            ("retry_after_secs", JsonValue::from(retry_after)),
        ]),
    )
    .with_header("Retry-After", retry_after.to_string())
}

/// Registration cap. Preprocessing above
/// [`sabre_topology::DENSE_DISTANCE_THRESHOLD`] qubits goes through the
/// sparse on-demand distance engine (`O(N + E)` resident, no all-pairs
/// matrix), so kilo-qubit devices are fine; the cap only keeps an
/// unauthenticated request from demanding a 10⁵-qubit registration whose
/// per-row Dijkstra work could still tie up a worker.
const MAX_DEVICE_QUBITS: u32 = 4096;

/// The top-level body must be a JSON object.
pub fn as_object(body: &JsonValue) -> Result<&[(String, JsonValue)], ApiError> {
    body.as_object()
        .ok_or_else(|| ApiError::bad_request("request body must be a JSON object"))
}

/// Parses the `"circuit"` member of a request: either
/// `{"qasm": "OPENQASM 2.0; …"}` or
/// `{"num_qubits": n, "gates": [{"gate": "cx", "qubits": [0, 1]}, …]}`
/// (`"params"` carries rotation angles, `"name"` is optional in both
/// forms). Either form is capped at [`MAX_GATES`] gates.
pub fn parse_circuit(spec: &JsonValue) -> Result<Circuit, ApiError> {
    let obj = spec
        .as_object()
        .ok_or_else(|| ApiError::bad_request("\"circuit\" must be an object"))?;
    let name = spec
        .get("name")
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| ApiError::bad_request("circuit \"name\" must be a string"))
        })
        .transpose()?;

    let mut circuit = if let Some(qasm) = spec.get("qasm") {
        for (key, _) in obj {
            if !matches!(key.as_str(), "qasm" | "name") {
                return Err(ApiError::bad_request(format!(
                    "unexpected circuit field \"{key}\" alongside \"qasm\""
                )));
            }
        }
        let source = qasm
            .as_str()
            .ok_or_else(|| ApiError::bad_request("\"qasm\" must be a string"))?;
        // The parser enforces the gate cap statement by statement, before
        // a register broadcast expands.
        sabre_qasm::parse(source)
            .map_err(|e| ApiError::bad_request(format!("invalid OpenQASM: {e}")))?
    } else {
        parse_gate_list(spec)?
    };
    if let Some(name) = name {
        circuit.set_name(name);
    }
    Ok(circuit)
}

fn parse_gate_list(spec: &JsonValue) -> Result<Circuit, ApiError> {
    let num_qubits = spec
        .get("num_qubits")
        .and_then(JsonValue::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| {
            ApiError::bad_request("circuit needs \"qasm\" or \"num_qubits\" + \"gates\"")
        })?;
    let gates = spec
        .get("gates")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad_request("circuit \"gates\" must be an array"))?;
    if gates.len() > MAX_GATES {
        return Err(ApiError::bad_request(format!(
            "circuit exceeds {MAX_GATES} gates"
        )));
    }
    let mut circuit = Circuit::new(num_qubits);
    for (index, spec) in gates.iter().enumerate() {
        let gate = parse_gate(spec)
            .map_err(|e| ApiError::bad_request(format!("gate {index}: {}", e.message)))?;
        circuit
            .try_push(gate)
            .map_err(|e| ApiError::bad_request(format!("gate {index}: {e}")))?;
    }
    Ok(circuit)
}

/// One gate: `{"gate": "<qelib1 mnemonic>", "qubits": [..], "params": [..]}`.
fn parse_gate(spec: &JsonValue) -> Result<Gate, ApiError> {
    let mnemonic = spec
        .get("gate")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad_request("missing \"gate\" mnemonic"))?;
    let qubits: Vec<Qubit> = spec
        .get("qubits")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad_request("missing \"qubits\" array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(Qubit)
                .ok_or_else(|| ApiError::bad_request("qubit indices must be non-negative integers"))
        })
        .collect::<Result<_, _>>()?;
    let params: Vec<f64> = match spec.get("params") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| ApiError::bad_request("\"params\" must be an array"))?
            .iter()
            .map(|p| {
                p.as_f64()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| ApiError::bad_request("params must be finite numbers"))
            })
            .collect::<Result<_, _>>()?,
    };

    if let Some(kind) = OneQubitKind::ALL.iter().find(|k| k.mnemonic() == mnemonic) {
        if qubits.len() != 1 {
            return Err(ApiError::bad_request(format!(
                "`{mnemonic}` takes 1 qubit, got {}",
                qubits.len()
            )));
        }
        if params.len() != kind.num_params() {
            return Err(ApiError::bad_request(format!(
                "`{mnemonic}` takes {} params, got {}",
                kind.num_params(),
                params.len()
            )));
        }
        return Ok(Gate::one(
            *kind,
            qubits[0],
            params.iter().copied().collect::<Params>(),
        ));
    }
    if let Some(kind) = TwoQubitKind::ALL.iter().find(|k| k.mnemonic() == mnemonic) {
        if qubits.len() != 2 {
            return Err(ApiError::bad_request(format!(
                "`{mnemonic}` takes 2 qubits, got {}",
                qubits.len()
            )));
        }
        if qubits[0] == qubits[1] {
            return Err(ApiError::bad_request(format!(
                "`{mnemonic}` operands must differ"
            )));
        }
        if params.len() != kind.num_params() {
            return Err(ApiError::bad_request(format!(
                "`{mnemonic}` takes {} params, got {}",
                kind.num_params(),
                params.len()
            )));
        }
        return Ok(Gate::two(
            *kind,
            qubits[0],
            qubits[1],
            params.iter().copied().collect::<Params>(),
        ));
    }
    Err(ApiError::bad_request(format!(
        "unknown gate mnemonic `{mnemonic}`"
    )))
}

/// Applies a request's `"config"` object on top of `base` and validates
/// the result. Recognized keys (aliases in parentheses): `seed`,
/// `num_restarts` (`trials`), `num_traversals`, `heuristic`
/// (`"basic" | "lookahead" | "decay"`), `embedding_probe_budget`
/// (`probe_budget`), `extended_set_size`, `extended_set_weight`,
/// `decay_delta`, `decay_reset_interval`, `livelock_slack`, `profile`
/// (boolean; same effect as the `?profile=true` query flag). Unknown
/// keys are rejected — a typo must not silently fall back to defaults.
pub fn apply_config_overrides(
    overrides: Option<&JsonValue>,
    base: SabreConfig,
) -> Result<SabreConfig, ApiError> {
    let mut config = base;
    let Some(overrides) = overrides else {
        return Ok(config);
    };
    let pairs = overrides
        .as_object()
        .ok_or_else(|| ApiError::bad_request("\"config\" must be an object"))?;
    for (key, value) in pairs {
        let bad = |what: &str| ApiError::bad_request(format!("config \"{key}\" must be {what}"));
        match key.as_str() {
            "seed" => config.seed = value.as_u64().ok_or_else(|| bad("a u64"))?,
            "num_restarts" | "trials" => {
                config.num_restarts = value
                    .as_usize()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "num_traversals" => {
                config.num_traversals = value.as_usize().ok_or_else(|| bad("an integer"))?;
            }
            "heuristic" => {
                config.heuristic = match value.as_str() {
                    Some("basic") => HeuristicKind::Basic,
                    Some("lookahead") => HeuristicKind::LookAhead,
                    Some("decay") => HeuristicKind::Decay,
                    _ => {
                        return Err(bad("one of \"basic\", \"lookahead\", \"decay\""));
                    }
                };
            }
            "embedding_probe_budget" | "probe_budget" => {
                config.embedding_probe_budget =
                    value.as_usize().ok_or_else(|| bad("an integer"))?;
            }
            "extended_set_size" => {
                config.extended_set_size = value.as_usize().ok_or_else(|| bad("an integer"))?;
            }
            "extended_set_weight" => {
                config.extended_set_weight = value
                    .as_f64()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| bad("a finite number"))?;
            }
            "decay_delta" => {
                config.decay_delta = value
                    .as_f64()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| bad("a finite number"))?;
            }
            "decay_reset_interval" => {
                config.decay_reset_interval = value
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("a u32"))?;
            }
            "livelock_slack" => {
                config.livelock_slack = value.as_usize().ok_or_else(|| bad("an integer"))?;
            }
            "profile" => {
                config.profile = value.as_bool().ok_or_else(|| bad("a boolean"))?;
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown config field \"{other}\""
                )));
            }
        }
    }
    config
        .validate()
        .map_err(|reason| ApiError::bad_request(format!("invalid config: {reason}")))?;
    Ok(config)
}

/// Builds a [`ShardConfig`] for `POST /route_sharded`: the request's
/// `"config"` object overrides the per-shard [`SabreConfig`] exactly like
/// `/route`, and the top-level `"cut_cost"` (positive finite number) and
/// `"max_refinement_passes"` (integer) tune the partitioner.
pub fn apply_shard_overrides(body: &JsonValue, base: SabreConfig) -> Result<ShardConfig, ApiError> {
    let mut config = ShardConfig {
        sabre: apply_config_overrides(body.get("config"), base)?,
        ..ShardConfig::default()
    };
    if let Some(value) = body.get("cut_cost") {
        config.cut_cost = Some(
            value
                .as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| {
                    ApiError::bad_request("\"cut_cost\" must be a positive finite number")
                })?,
        );
    }
    if let Some(value) = body.get("max_refinement_passes") {
        config.max_refinement_passes = value
            .as_usize()
            .ok_or_else(|| ApiError::bad_request("\"max_refinement_passes\" must be an integer"))?;
    }
    config
        .validate()
        .map_err(|reason| ApiError::bad_request(format!("invalid config: {reason}")))?;
    Ok(config)
}

/// Parses a `POST /fleets` body: `{"id": "...", "devices": ["a", "b"]}`
/// with a non-empty, duplicate-free device list. Device existence is
/// checked by the caller against the live registry.
pub fn parse_fleet_registration(body: &JsonValue) -> Result<(String, Vec<String>), ApiError> {
    as_object(body)?;
    let id = parse_registry_id(body)?;
    let devices = parse_device_id_list(
        body.get("devices")
            .ok_or_else(|| ApiError::bad_request("missing \"devices\" (device id list)"))?,
    )?;
    Ok((id, devices))
}

/// Parses an ordered device-id list (`/fleets` bodies and inline
/// `/route_sharded` `"devices"`): a non-empty JSON array of unique
/// strings.
pub fn parse_device_id_list(value: &JsonValue) -> Result<Vec<String>, ApiError> {
    let devices = value
        .as_array()
        .filter(|list| !list.is_empty())
        .ok_or_else(|| {
            ApiError::bad_request("\"devices\" must be a non-empty array of device ids")
        })?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| ApiError::bad_request("device ids must be strings"))
        })
        .collect::<Result<Vec<String>, ApiError>>()?;
    for (i, device) in devices.iter().enumerate() {
        if devices[..i].contains(device) {
            return Err(ApiError::bad_request(format!(
                "device `{device}` is listed twice"
            )));
        }
    }
    Ok(devices)
}

/// The shared `"id"` field of `/devices` and `/fleets` bodies.
fn parse_registry_id(body: &JsonValue) -> Result<String, ApiError> {
    let id = body
        .get("id")
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    check_registry_id(id)?;
    Ok(id.to_string())
}

/// The one id rule of the device and fleet registries: non-empty, at most
/// 128 bytes, no `/` (ids are path segments).
pub(crate) fn check_registry_id(id: &str) -> Result<(), ApiError> {
    if id.is_empty() || id.len() > 128 || id.contains('/') {
        return Err(ApiError::bad_request(
            "\"id\" must be a non-empty string without `/` (≤128 chars)",
        ));
    }
    Ok(())
}

/// Parses a `POST /devices` body into `(id, graph)`. Two forms:
///
/// - `{"id": "...", "builtin": "tokyo20"}` — a named device; see
///   [`builtin_device`] for the accepted names.
/// - `{"id": "...", "num_qubits": n, "edges": [[a, b], …]}` — explicit
///   coupling list.
pub fn parse_device_registration(body: &JsonValue) -> Result<(String, CouplingGraph), ApiError> {
    as_object(body)?;
    let id = parse_registry_id(body)?;

    if let Some(builtin) = body.get("builtin") {
        let name = builtin
            .as_str()
            .ok_or_else(|| ApiError::bad_request("\"builtin\" must be a string"))?;
        let device = builtin_device(name)
            .ok_or_else(|| ApiError::bad_request(format!("unknown builtin device `{name}`")))?;
        return Ok((id, device.graph().clone()));
    }

    let num_qubits = body
        .get("num_qubits")
        .and_then(JsonValue::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| {
            ApiError::bad_request("device needs \"builtin\" or \"num_qubits\" + \"edges\"")
        })?;
    if num_qubits > MAX_DEVICE_QUBITS {
        return Err(ApiError::bad_request(format!(
            "devices are capped at {MAX_DEVICE_QUBITS} qubits"
        )));
    }
    let edges = body
        .get("edges")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad_request("\"edges\" must be an array of [a, b] pairs"))?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ApiError::bad_request("each edge must be a two-element [a, b] array")
            })?;
            let q = |v: &JsonValue| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| ApiError::bad_request("edge endpoints must be qubit indices"))
            };
            Ok((q(&pair[0])?, q(&pair[1])?))
        })
        .collect::<Result<Vec<(u32, u32)>, ApiError>>()?;
    let graph = CouplingGraph::from_edges(num_qubits, edges)
        .map_err(|e| ApiError::bad_request(format!("invalid coupling graph: {e}")))?;
    Ok((id, graph))
}

/// Resolves the builtin device names accepted by `POST /devices`:
/// the fixed machines `tokyo20`, `qx5`, `qx2`, `falcon27`, and the
/// parameterized families `linear:<n>`, `ring:<n>`, `star:<n>`,
/// `complete:<n>`, `grid:<rows>x<cols>`, `heavy_hex:<rows>x<cols>`
/// (sizes capped at 4096 qubits). Construction goes through
/// [`devices`], whose distance preprocessing switches to the sparse
/// engine past [`sabre_topology::DENSE_DISTANCE_THRESHOLD`] qubits —
/// registering `grid:40x40` never allocates an `O(N²)` matrix.
pub fn builtin_device(name: &str) -> Option<devices::Device> {
    match name {
        "tokyo20" | "ibm_q20_tokyo" => return Some(devices::ibm_q20_tokyo()),
        "qx5" | "ibm_qx5" => return Some(devices::ibm_qx5()),
        "qx2" | "ibm_qx2" => return Some(devices::ibm_qx2()),
        "falcon27" | "ibm_falcon_27" => return Some(devices::ibm_falcon_27()),
        _ => {}
    }
    let (family, size) = name.split_once(':')?;
    let in_cap = |n: u32| (2..=MAX_DEVICE_QUBITS).contains(&n);
    match family {
        "grid" => {
            let (rows, cols) = size.split_once('x')?;
            let (rows, cols): (u32, u32) = (rows.parse().ok()?, cols.parse().ok()?);
            if rows >= 1 && cols >= 1 && in_cap(rows.checked_mul(cols)?) {
                Some(devices::grid(rows, cols))
            } else {
                None
            }
        }
        "heavy_hex" | "heavy-hex" => {
            let (rows, cols) = size.split_once('x')?;
            let (rows, cols): (u32, u32) = (rows.parse().ok()?, cols.parse().ok()?);
            // Row qubits alone must fit the cap; bridge qubits add at most
            // ~25% more, checked exactly after construction.
            if rows >= 1 && cols >= 3 && in_cap(rows.checked_mul(cols)?) {
                let device = devices::heavy_hex(rows, cols);
                if device.graph().num_qubits() <= MAX_DEVICE_QUBITS {
                    return Some(device);
                }
            }
            None
        }
        _ => {
            let n: u32 = size.parse().ok()?;
            if !in_cap(n) {
                return None;
            }
            match family {
                "linear" => Some(devices::linear(n)),
                "ring" => Some(devices::ring(n)),
                "star" => Some(devices::star(n)),
                "complete" => Some(devices::complete(n)),
                _ => None,
            }
        }
    }
}

/// Parses a `POST /devices/{id}/noise` body into a [`NoiseModel`] for
/// `graph`. Three forms:
///
/// - `{"uniform": {"two_qubit_error": x, "single_qubit_error": y}}`
/// - `{"calibrated": {"base": x, "spread": y, "seed": n}}` — the synthetic
///   daily-calibration generator
/// - `{"two_qubit_error": x, "single_qubit_error": y,
///    "edges": [[a, b, err], …]}` — uniform base with per-edge overrides
pub fn parse_noise_spec(body: &JsonValue, graph: &CouplingGraph) -> Result<NoiseModel, ApiError> {
    as_object(body)?;
    let rate = |v: Option<&JsonValue>, field: &str| {
        v.and_then(JsonValue::as_f64)
            .filter(|x| (0.0..1.0).contains(x))
            .ok_or_else(|| ApiError::bad_request(format!("\"{field}\" must be a number in [0, 1)")))
    };

    if let Some(uniform) = body.get("uniform") {
        let two = rate(uniform.get("two_qubit_error"), "two_qubit_error")?;
        let one = rate(uniform.get("single_qubit_error"), "single_qubit_error")?;
        return Ok(NoiseModel::uniform(graph, two, one));
    }
    if let Some(calibrated) = body.get("calibrated") {
        let base = rate(calibrated.get("base"), "base")?;
        let spread = calibrated
            .get("spread")
            .and_then(JsonValue::as_f64)
            .filter(|&x| x.is_finite() && x >= 1.0)
            .ok_or_else(|| ApiError::bad_request("\"spread\" must be a number ≥ 1"))?;
        let seed = calibrated
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ApiError::bad_request("\"seed\" must be a u64"))?;
        // calibrated() spreads rates around `base`; keep the worst case
        // inside [0, 1).
        if base * spread >= 1.0 {
            return Err(ApiError::bad_request("base × spread must stay below 1"));
        }
        return Ok(NoiseModel::calibrated(graph, base, spread, seed));
    }

    let two = rate(body.get("two_qubit_error"), "two_qubit_error")?;
    let one = rate(body.get("single_qubit_error"), "single_qubit_error")?;
    let mut model = NoiseModel::uniform(graph, two, one);
    if let Some(edges) = body.get("edges") {
        let edges = edges
            .as_array()
            .ok_or_else(|| ApiError::bad_request("\"edges\" must be an array of [a, b, error]"))?;
        for entry in edges {
            let entry = entry.as_array().filter(|e| e.len() == 3).ok_or_else(|| {
                ApiError::bad_request("each noise edge must be a [a, b, error] triple")
            })?;
            let q = |v: &JsonValue| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(Qubit)
                    .ok_or_else(|| ApiError::bad_request("edge endpoints must be qubit indices"))
            };
            let (a, b) = (q(&entry[0])?, q(&entry[1])?);
            let err = rate(Some(&entry[2]), "edge error")?;
            if !graph.are_coupled(a, b) {
                return Err(ApiError::bad_request(format!(
                    "({}, {}) is not a coupling of this device",
                    a.0, b.0
                )));
            }
            model = model.with_edge_error(a, b, err);
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_topology::WeightedDistanceMatrix;

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    #[test]
    fn circuit_from_qasm() {
        let spec = parse(
            r#"{"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0], q[1];"}"#,
        );
        let c = parse_circuit(&spec).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_gates(), 2);
    }

    #[test]
    fn circuit_from_gate_list_round_trips_through_qasm() {
        let spec = parse(
            r#"{"num_qubits": 4, "name": "demo", "gates": [
                {"gate": "h", "qubits": [0]},
                {"gate": "cx", "qubits": [0, 3]},
                {"gate": "rz", "qubits": [2], "params": [0.5]},
                {"gate": "rzz", "qubits": [1, 2], "params": [0.25]}
            ]}"#,
        );
        let c = parse_circuit(&spec).unwrap();
        assert_eq!(c.name(), "demo");
        assert_eq!(c.num_gates(), 4);
        let reparsed = sabre_qasm::parse(&sabre_qasm::to_qasm(&c)).unwrap();
        assert_eq!(reparsed.gates(), c.gates());
    }

    #[test]
    fn circuit_rejections_name_the_offender() {
        for (body, needle) in [
            (r#"{"gates": []}"#, "num_qubits"),
            (
                r#"{"num_qubits": 2, "gates": [{"gate": "nope", "qubits": [0]}]}"#,
                "nope",
            ),
            (
                r#"{"num_qubits": 2, "gates": [{"gate": "cx", "qubits": [1, 1]}]}"#,
                "differ",
            ),
            (
                r#"{"num_qubits": 2, "gates": [{"gate": "h", "qubits": [5]}]}"#,
                "gate 0",
            ),
            (
                r#"{"num_qubits": 2, "gates": [{"gate": "rz", "qubits": [0]}]}"#,
                "params",
            ),
            (r#"{"qasm": "not qasm"}"#, "OpenQASM"),
            (r#"{"qasm": "x", "gates": []}"#, "alongside"),
        ] {
            let err = parse_circuit(&parse(body)).unwrap_err();
            assert_eq!(err.status, 400);
            assert!(
                err.message.contains(needle),
                "{body}: expected `{needle}` in `{}`",
                err.message
            );
        }
    }

    #[test]
    fn broadcast_bomb_is_rejected_before_it_expands() {
        // 4·10⁹ gates from one broadcast: the cap must reject the
        // statement before the parser allocates for it.
        let spec = parse(
            r#"{"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4000000000]; h q;"}"#,
        );
        let start = std::time::Instant::now();
        let err = parse_circuit(&spec).unwrap_err();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(err.status, 400);
        assert!(
            err.message
                .contains("3:21: program expands to more than 1000000 gates"),
            "{}",
            err.message
        );
    }

    #[test]
    fn config_overrides_apply_and_validate() {
        let base = SabreConfig::default();
        let over = parse(r#"{"seed": 7, "trials": 2, "heuristic": "basic", "probe_budget": 0}"#);
        let config = apply_config_overrides(Some(&over), base).unwrap();
        assert_eq!(config.seed, 7);
        assert_eq!(config.num_restarts, 2);
        assert_eq!(config.heuristic, HeuristicKind::Basic);
        assert_eq!(config.embedding_probe_budget, 0);
        // Untouched fields keep the base values.
        assert_eq!(config.extended_set_size, base.extended_set_size);

        assert!(apply_config_overrides(None, base).is_ok());
        let unknown = parse(r#"{"tirals": 2}"#);
        assert!(apply_config_overrides(Some(&unknown), base)
            .unwrap_err()
            .message
            .contains("tirals"));
        let invalid = parse(r#"{"num_traversals": 2}"#);
        assert!(apply_config_overrides(Some(&invalid), base)
            .unwrap_err()
            .message
            .contains("odd"));
    }

    #[test]
    fn shard_overrides_apply_and_validate() {
        let base = SabreConfig::default();
        let body = parse(
            r#"{"cut_cost": 12.5, "max_refinement_passes": 3,
                "config": {"seed": 9, "trials": 1}}"#,
        );
        let config = apply_shard_overrides(&body, base).unwrap();
        assert_eq!(config.cut_cost, Some(12.5));
        assert_eq!(config.max_refinement_passes, 3);
        assert_eq!(config.sabre.seed, 9);
        assert_eq!(config.sabre.num_restarts, 1);

        // Defaults survive an empty body.
        let config = apply_shard_overrides(&parse("{}"), base).unwrap();
        assert_eq!(config.cut_cost, ShardConfig::default().cut_cost);

        for bad in [
            r#"{"cut_cost": 0}"#,
            r#"{"cut_cost": -1.0}"#,
            r#"{"cut_cost": "high"}"#,
            r#"{"max_refinement_passes": -1}"#,
            r#"{"config": {"tirals": 2}}"#,
        ] {
            assert!(apply_shard_overrides(&parse(bad), base).is_err(), "{bad}");
        }
    }

    #[test]
    fn fleet_registration_parses_and_validates() {
        let (id, devices) =
            parse_fleet_registration(&parse(r#"{"id": "f", "devices": ["a", "b"]}"#)).unwrap();
        assert_eq!(id, "f");
        assert_eq!(devices, ["a", "b"]);

        for bad in [
            r#"{"devices": ["a"]}"#,
            r#"{"id": "f"}"#,
            r#"{"id": "f", "devices": []}"#,
            r#"{"id": "f", "devices": ["a", "a"]}"#,
            r#"{"id": "f", "devices": [1]}"#,
            r#"{"id": "x/y", "devices": ["a"]}"#,
        ] {
            assert!(parse_fleet_registration(&parse(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn device_registration_builtin_and_explicit() {
        let (id, graph) =
            parse_device_registration(&parse(r#"{"id": "t", "builtin": "tokyo20"}"#)).unwrap();
        assert_eq!(id, "t");
        assert_eq!(graph.num_qubits(), 20);

        let (_, graph) = parse_device_registration(&parse(
            r#"{"id": "line", "num_qubits": 3, "edges": [[0, 1], [1, 2]]}"#,
        ))
        .unwrap();
        assert_eq!(graph.num_edges(), 2);

        for bad in [
            r#"{"builtin": "tokyo20"}"#,
            r#"{"id": "a/b", "builtin": "tokyo20"}"#,
            r#"{"id": "x", "builtin": "atlantis"}"#,
            r#"{"id": "x", "num_qubits": 2, "edges": [[0]]}"#,
            r#"{"id": "x", "num_qubits": 100000, "edges": []}"#,
        ] {
            assert!(parse_device_registration(&parse(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn builtin_families_parse_with_caps() {
        assert_eq!(builtin_device("linear:5").unwrap().graph().num_qubits(), 5);
        assert_eq!(builtin_device("grid:3x4").unwrap().graph().num_qubits(), 12);
        assert_eq!(builtin_device("ring:8").unwrap().graph().num_edges(), 8);
        assert!(builtin_device("grid:100x100").is_none());
        assert!(builtin_device("linear:1").is_none());
        assert!(builtin_device("linear:abc").is_none());
        assert!(builtin_device("mesh:5").is_none());
    }

    #[test]
    fn kilo_qubit_builtins_parse_under_the_raised_cap() {
        // grid:40x40 (1600 qubits) clears the 4096 cap and lands on the
        // sparse distance engine — the serve_http regression test checks
        // no O(N²) matrix gets allocated at registration.
        let grid = builtin_device("grid:40x40").unwrap();
        assert_eq!(grid.graph().num_qubits(), 1600);
        assert!(WeightedDistanceMatrix::auto(grid.graph(), |_, _| 1.0).is_sparse());

        let hex = builtin_device("heavy_hex:22x44").unwrap();
        assert!(hex.graph().num_qubits() > 1000);
        assert!(builtin_device("heavy-hex:22x44").is_some());
        // Row qubits fit but total with bridges must also clear the cap.
        assert!(builtin_device("heavy_hex:64x64").is_none());
        assert!(builtin_device("heavy_hex:2x2").is_none()); // too narrow
        assert!(builtin_device("grid:70x70").is_none()); // 4900 > 4096
    }

    #[test]
    fn noise_specs_parse_and_validate() {
        let graph = devices::linear(3).graph().clone();
        let uniform = parse_noise_spec(
            &parse(r#"{"uniform": {"two_qubit_error": 0.02, "single_qubit_error": 0.001}}"#),
            &graph,
        )
        .unwrap();
        assert_eq!(uniform.edge_error(Qubit(0), Qubit(1)), 0.02);

        let edged = parse_noise_spec(
            &parse(
                r#"{"two_qubit_error": 0.01, "single_qubit_error": 0.001,
                    "edges": [[1, 2, 0.3]]}"#,
            ),
            &graph,
        )
        .unwrap();
        assert_eq!(edged.edge_error(Qubit(1), Qubit(2)), 0.3);
        assert_eq!(edged.edge_error(Qubit(0), Qubit(1)), 0.01);

        assert!(parse_noise_spec(
            &parse(r#"{"calibrated": {"base": 0.02, "spread": 4.0, "seed": 1}}"#),
            &graph
        )
        .is_ok());

        for bad in [
            r#"{"uniform": {"two_qubit_error": 1.5, "single_qubit_error": 0.0}}"#,
            r#"{"two_qubit_error": 0.01, "single_qubit_error": 0.0, "edges": [[0, 2, 0.1]]}"#,
            r#"{"calibrated": {"base": 0.5, "spread": 4.0, "seed": 1}}"#,
            r#"{}"#,
        ] {
            assert!(parse_noise_spec(&parse(bad), &graph).is_err(), "{bad}");
        }
    }
}
