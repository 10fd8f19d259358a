//! The plan-quality gate: its corpus, its scoring and its comparison.
//!
//! [`corpus`] builds every scenario the `quality_json` binary routes:
//! seeded deep synthetics, the hand-written OpenQASM files in
//! `corpus/quality/`, the paper's Table II on Tokyo and its Figure 8
//! decay sweep. [`Case::run`] routes one scenario, verifies the
//! routing and scores it, and
//! [`quality_gate`] compares the scores against the committed
//! `BENCH_quality.json`. Routing is deterministic for the pinned seeds,
//! so every number is machine-stable; there are no wall-clock figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quality_gate;

use std::sync::OnceLock;

use sabre::{DeviceCache, PlanQuality, SabreConfig};
use sabre_benchgen::random;
use sabre_benchgen::registry::{self, PaperRow};
use sabre_circuit::fingerprint::Fingerprinter;
use sabre_circuit::Circuit;
use sabre_json::JsonValue;
use sabre_topology::noise::NoiseModel;
use sabre_topology::{devices, CouplingGraph};
use sabre_verify::verify_routed;

/// The decay values `δ` the Figure 8 suite sweeps; `0.0` disables decay.
const FIGURE8_DELTAS: [f64; 7] = [0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2];

/// The hand-written OpenQASM corpus, anchored to the crate so the gate
/// works from any working directory.
const QASM_CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/quality");

/// Process-wide device cache shared by every scenario: the distance
/// preprocessing runs once per device and configuration, not once per
/// circuit.
fn device_cache() -> &'static DeviceCache {
    static CACHE: OnceLock<DeviceCache> = OnceLock::new();
    CACHE.get_or_init(DeviceCache::new)
}

/// One scenario to route: a circuit, a device and a router configuration.
#[derive(Debug)]
pub struct Case {
    /// Unique scenario name, `device/suite:circuit`.
    name: String,
    graph: CouplingGraph,
    circuit: Circuit,
    config: SabreConfig,
    /// The paper's Table II row, on Table II scenarios only.
    paper: Option<PaperRow>,
}

/// One routed, verified and scored scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique scenario name, `device/suite:circuit`.
    pub name: String,
    /// Logical qubits of the input circuit.
    pub num_qubits: u32,
    /// Gates of the input circuit (`g_ori`).
    pub num_gates: usize,
    /// Quality of the best routing under the device's calibrated noise.
    pub quality: PlanQuality,
    /// Table II's columns, on Table II scenarios only.
    pub table2: Option<Table2Row>,
}

/// A Table II row: SABRE's measured `g_la`/`g_op` next to the paper's.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Added gates after the first look-ahead traversal.
    pub g_la: usize,
    /// Added gates of the best routing after every traversal.
    pub g_op: usize,
    /// What the paper reports for this benchmark.
    pub paper: PaperRow,
}

/// Calibrated noise for a device: per-edge errors hashed from the edge
/// list with a pinned seed, so fidelity estimates are deterministic and
/// reflect that some couplers are better than others.
fn noise_for(graph: &CouplingGraph) -> NoiseModel {
    NoiseModel::calibrated(graph, 0.01, 4.0, 0x5ab3_e011)
}

impl Case {
    /// Routes the circuit, verifies the routing and scores it.
    ///
    /// # Panics
    ///
    /// Panics if routing fails or verification rejects the output: the
    /// gate must never record unverified numbers.
    pub fn run(&self) -> Scenario {
        let router = device_cache()
            .router(&self.graph, self.config)
            .expect("valid device and config");
        let result = router
            .route(&self.circuit)
            .expect("circuit fits the device");
        let best = &result.best;
        verify_routed(
            &self.circuit,
            &best.physical,
            best.initial_layout.logical_to_physical(),
            best.final_layout.logical_to_physical(),
            &self.graph,
        )
        .unwrap_or_else(|e| panic!("verification failed for `{}`: {e}", self.name));
        let noise = noise_for(&self.graph);
        Scenario {
            name: self.name.clone(),
            num_qubits: self.circuit.num_qubits(),
            num_gates: self.circuit.num_gates(),
            quality: PlanQuality::of_result(&self.circuit, &result, Some(&noise)),
            table2: self.paper.map(|paper| Table2Row {
                g_la: result.first_traversal_added_gates,
                g_op: result.added_gates(),
                paper,
            }),
        }
    }
}

impl Scenario {
    /// The scenario as one entry of `BENCH_quality.json`.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("scenario", self.name.as_str().into()),
            ("num_qubits", self.num_qubits.into()),
            ("num_gates", self.num_gates.into()),
            ("quality", self.quality.to_json()),
        ];
        if let Some(row) = &self.table2 {
            let paper = row.paper;
            fields.push((
                "table2",
                JsonValue::object([
                    ("g_la", row.g_la.into()),
                    ("g_op", row.g_op.into()),
                    (
                        "paper",
                        JsonValue::object([
                            ("sabre_g_la", paper.sabre_g_la.into()),
                            ("sabre_g_op", paper.sabre_g_op.into()),
                            (
                                "bka_g_add",
                                paper.bka_g_add.map_or(JsonValue::Null, Into::into),
                            ),
                        ]),
                    ),
                ]),
            ));
        }
        JsonValue::object(fields)
    }
}

/// Every scenario the gate routes, in baseline order: the pinned
/// synthetic and QASM scenarios, then Table II, then Figure 8.
pub fn corpus() -> Vec<Case> {
    let mut cases = synthetic_suite();
    cases.extend(qasm_suite());
    cases.extend(table2_suite());
    cases.extend(figure8_suite());
    cases
}

fn tokyo() -> CouplingGraph {
    devices::ibm_q20_tokyo().graph().clone()
}

/// Seeded deep random circuits on tokyo20, grid10x10 and a heavy-hex
/// lattice, and 200-qubit ones on two kilo-qubit devices past the dense
/// threshold (grid 33×33, heavy-hex 22×44), routed with
/// [`SabreConfig::fast`]. Deep shapes only: quality regressions show in
/// long circuits.
fn synthetic_suite() -> Vec<Case> {
    let suite = [
        ("tokyo20", tokyo(), 18, 2_000),
        (
            "grid10x10",
            devices::grid(10, 10).graph().clone(),
            80,
            4_000,
        ),
        (
            "heavyhex6x6",
            devices::heavy_hex(6, 6).graph().clone(),
            30,
            1_500,
        ),
        (
            "grid33x33",
            devices::grid(33, 33).graph().clone(),
            200,
            1_500,
        ),
        (
            "heavyhex22x44",
            devices::heavy_hex(22, 44).graph().clone(),
            200,
            1_500,
        ),
    ];
    suite
        .into_iter()
        .map(|(device, graph, num_qubits, num_gates)| {
            // Per-entry seed: stable hash of the label bytes, so the
            // corpus can grow without perturbing existing entries.
            let mut fp = Fingerprinter::new("sabre/quality-json-corpus/v1");
            for byte in device.bytes().chain("deep".bytes()) {
                fp.write_u64(u64::from(byte));
            }
            fp.write_u64(num_gates as u64);
            Case {
                name: format!("{device}/deep"),
                graph,
                circuit: random::random_circuit(num_qubits, num_gates, 0.9, fp.finish()),
                config: SabreConfig::fast(),
                paper: None,
            }
        })
        .collect()
}

/// The OpenQASM files in `QASM_CORPUS`, routed on tokyo20 with
/// [`SabreConfig::fast`].
///
/// # Panics
///
/// Panics if the corpus cannot be loaded or is empty.
fn qasm_suite() -> Vec<Case> {
    let circuits = sabre_qasm::load_dir(QASM_CORPUS)
        .unwrap_or_else(|e| panic!("loading the QASM corpus from {QASM_CORPUS}: {e}"));
    assert!(
        !circuits.is_empty(),
        "the QASM corpus at {QASM_CORPUS} is empty"
    );
    circuits
        .into_iter()
        .map(|circuit| Case {
            name: format!("tokyo20/qasm:{}", circuit.name()),
            graph: tokyo(),
            circuit,
            config: SabreConfig::fast(),
            paper: None,
        })
        .collect()
}

/// The paper's Table II: every `registry::table2()` benchmark on Tokyo
/// with [`SabreConfig::paper`], carrying the paper's row.
fn table2_suite() -> Vec<Case> {
    registry::table2()
        .into_iter()
        .map(|spec| Case {
            name: format!("tokyo20/table2:{}", spec.name),
            graph: tokyo(),
            circuit: spec.generate(),
            config: SabreConfig::paper(),
            paper: Some(spec.paper),
        })
        .collect()
}

/// The paper's Figure 8: each of its benchmarks on Tokyo under every
/// decay value in `FIGURE8_DELTAS`, the rest of the configuration as
/// in [`SabreConfig::paper`].
fn figure8_suite() -> Vec<Case> {
    let mut cases = Vec::new();
    for name in registry::figure8_names() {
        let circuit = registry::by_name(name)
            .expect("figure 8 names resolve")
            .generate();
        for decay_delta in FIGURE8_DELTAS {
            cases.push(Case {
                name: format!("tokyo20/figure8:{name}@delta={decay_delta}"),
                graph: tokyo(),
                circuit: circuit.clone(),
                config: SabreConfig {
                    decay_delta,
                    ..SabreConfig::paper()
                },
                paper: None,
            });
        }
    }
    cases
}
