//! Seeded input generation: circuits, re-parameterizations and the JSON
//! request bodies the server receives. Everything here is a pure function
//! of the workload seed.

use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sabre_circuit::{Circuit, Qubit};
use sabre_json::JsonValue;
use sabre_topology::noise::NoiseModel;
use sabre_topology::CouplingGraph;

/// A device keeps one calibration whatever the workload seed: its noise
/// is part of the device, not of the input.
const CALIBRATION_SEED: u64 = 0x5ab3_e011;

/// The generator behind the benchmark's own choices (request mix, angles,
/// sampling).
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A sub-seed for `label` under `seed`: each input family draws from its
/// own stream, so adding one never shifts another.
pub fn derive(seed: u64, label: &str) -> u64 {
    // FNV-1a of the label, then one draw from the seeded generator.
    let label = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    rng(seed ^ label).next_u64()
}

/// A rotation angle in `[-π, π)`.
pub fn angle(rng: &mut StdRng) -> f64 {
    rng.gen_range(-PI..PI)
}

/// The calibrated noise model of device `id` (`NoiseModel::calibrated`
/// with base error 0.01 and spread 4) and the seed that generates it.
pub fn calibration(id: &str, graph: &CouplingGraph) -> (u64, NoiseModel) {
    let seed = derive(CALIBRATION_SEED, id);
    (seed, NoiseModel::calibrated(graph, 0.01, 4.0, seed))
}

/// A copy of `circuit` with fresh angles in every parameterized gate: the
/// same structure, so a plan cache answers it by rebinding.
pub fn reparameterized(circuit: &Circuit, rng: &mut StdRng) -> Circuit {
    let mut out = circuit.clone();
    for (index, gate) in circuit.gates().iter().enumerate() {
        let n = gate.params().len();
        if n > 0 {
            out.replace_params(index, (0..n).map(|_| angle(rng)).collect());
        }
    }
    out
}

/// A hardware-efficient variational ansatz: `layers` rounds of `rz`/`rx`
/// rotations on every qubit followed by a CX entangler along a seeded
/// random path through all qubits. The structure depends only on
/// `(num_qubits, layers, seed)`; the angles are drawn from `seed` too.
pub fn ansatz(name: &str, num_qubits: u32, layers: u32, seed: u64) -> Circuit {
    let mut rng = rng(seed);
    let mut path: Vec<u32> = (0..num_qubits).collect();
    for i in (1..path.len()).rev() {
        path.swap(i, rng.gen_range(0..=i));
    }
    let mut c = Circuit::with_name(num_qubits, name);
    for _ in 0..layers {
        for q in 0..num_qubits {
            c.rz(Qubit(q), angle(&mut rng));
            c.rx(Qubit(q), angle(&mut rng));
        }
        for pair in path.windows(2) {
            c.cx(Qubit(pair[0]), Qubit(pair[1]));
        }
    }
    c
}

/// A request's `"circuit"` member; the name rides along so the served
/// result is labeled exactly like the library's.
fn qasm(circuit: &Circuit) -> JsonValue {
    JsonValue::object([
        ("qasm", sabre_qasm::to_qasm(circuit).into()),
        ("name", circuit.name().into()),
    ])
}

/// `POST /route` body.
pub fn route_body(device: &str, circuit: &Circuit) -> String {
    JsonValue::object([("device", device.into()), ("circuit", qasm(circuit))]).to_compact()
}

/// `POST /transpile_batch` body (physical circuits included, so every
/// slot's output can be checked against the coupling graph).
pub fn batch_body(device: &str, circuits: &[Circuit]) -> String {
    JsonValue::object([
        ("device", device.into()),
        ("circuits", circuits.iter().map(qasm).collect()),
        ("include_physical", true.into()),
    ])
    .to_compact()
}

/// `POST /route_sharded` body over an inline device list.
pub fn sharded_body(devices: &[&str], circuit: &Circuit) -> String {
    JsonValue::object([
        (
            "devices",
            devices.iter().map(|d| JsonValue::from(*d)).collect(),
        ),
        ("circuit", qasm(circuit)),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        assert_ne!(derive(1, "grid"), derive(1, "hex"));
        assert_ne!(derive(1, "grid"), derive(2, "grid"));
        assert_eq!(derive(3, "grid"), derive(3, "grid"));
        let mut r = rng(9);
        for _ in 0..1000 {
            assert!((-PI..PI).contains(&angle(&mut r)));
        }
    }

    #[test]
    fn reparameterization_keeps_structure_and_qasm_round_trips() {
        let base = ansatz("a", 6, 3, 11);
        assert_eq!(base.gates(), ansatz("a", 6, 3, 11).gates());
        let variant = reparameterized(&base, &mut rng(2));
        assert!(base.same_structure(&variant));
        assert_ne!(base.gates(), variant.gates());
        // The server parses what the generator renders: angles must survive.
        let parsed = sabre_qasm::parse(&sabre_qasm::to_qasm(&variant)).unwrap();
        assert_eq!(parsed.gates(), variant.gates());
    }
}
