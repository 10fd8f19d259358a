//! Per-edge noise models — the paper's §VI "More Precise Hardware
//! Modeling" future-work direction.
//!
//! The paper routes against a uniform hardware model but notes that "the
//! difference in the error rate … of the same quantum gate applied on
//! different qubits or qubit pairs may also influence the fidelity"
//! (citing Tannu & Qureshi's variability study). This module supplies that
//! refinement: a [`NoiseModel`] attaches a two-qubit error rate to every
//! coupling and single-qubit/readout averages to the device, supports
//! calibration-like randomized variability, and estimates end-to-end
//! circuit success probability. `sabre::SabreRouter::with_noise` consumes
//! it to steer SWAPs through high-fidelity couplers.

use std::collections::HashMap;
use std::sync::OnceLock;

use sabre_circuit::fingerprint::Fingerprinter;
use sabre_circuit::{Circuit, Qubit};

use crate::CouplingGraph;

/// Per-device, per-edge error rates.
#[derive(Clone, Debug)]
pub struct NoiseModel {
    /// Two-qubit gate error per coupling, keyed by canonical `(min, max)`.
    edge_error: HashMap<(Qubit, Qubit), f64>,
    /// Average single-qubit gate error.
    single_qubit_error: f64,
    /// [`NoiseModel::fingerprint`], computed on first use and carried by
    /// clones; an override resets it.
    fingerprint: OnceLock<u64>,
}

/// Equal rates, whether or not either side has computed its fingerprint.
impl PartialEq for NoiseModel {
    fn eq(&self, other: &Self) -> bool {
        self.single_qubit_error == other.single_qubit_error && self.edge_error == other.edge_error
    }
}

impl NoiseModel {
    /// A uniform model: every coupling has the same two-qubit error.
    ///
    /// # Panics
    ///
    /// Panics if the error rates are outside `[0, 1)`.
    pub fn uniform(graph: &CouplingGraph, two_qubit_error: f64, single_qubit_error: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&two_qubit_error),
            "error must be in [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&single_qubit_error),
            "error must be in [0,1)"
        );
        NoiseModel {
            edge_error: graph
                .edges()
                .iter()
                .map(|&e| (e, two_qubit_error))
                .collect(),
            single_qubit_error,
            fingerprint: OnceLock::new(),
        }
    }

    /// A calibration-like model: each coupling's error is drawn
    /// log-uniformly from `[base/spread, base*spread]` with a deterministic
    /// per-edge hash, mimicking the qubit-to-qubit variability IBM
    /// publishes daily. `spread = 1.0` degenerates to [`NoiseModel::uniform`].
    ///
    /// # Panics
    ///
    /// Panics if `base` is outside `(0, 1)` or `spread < 1`.
    pub fn calibrated(graph: &CouplingGraph, base: f64, spread: f64, seed: u64) -> Self {
        assert!(base > 0.0 && base < 1.0, "base error must be in (0,1)");
        assert!(spread >= 1.0, "spread must be ≥ 1");
        let edge_error = graph
            .edges()
            .iter()
            .map(|&(a, b)| {
                // SplitMix64-style hash of (edge, seed) → uniform in [0,1).
                let mut z = seed.wrapping_add(
                    0x9E37_79B9_7F4A_7C15u64.wrapping_mul(((a.0 as u64) << 32) | (b.0 as u64 + 1)),
                );
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                // log-uniform in [base/spread, base*spread]
                let err = base * spread.powf(2.0 * u - 1.0);
                ((a, b), err.min(0.999))
            })
            .collect();
        NoiseModel {
            edge_error,
            single_qubit_error: base / 10.0,
            fingerprint: OnceLock::new(),
        }
    }

    /// Overrides one coupling's error rate (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the pair is not a known coupling or the rate is outside
    /// `[0, 1)`.
    pub fn with_edge_error(mut self, a: Qubit, b: Qubit, error: f64) -> Self {
        assert!((0.0..1.0).contains(&error), "error must be in [0,1)");
        let key = if a < b { (a, b) } else { (b, a) };
        assert!(
            self.edge_error.contains_key(&key),
            "({a}, {b}) is not a coupling of this device"
        );
        self.edge_error.insert(key, error);
        self.fingerprint = OnceLock::new();
        self
    }

    /// Two-qubit gate error on the coupling `(a, b)` (order-insensitive).
    ///
    /// # Panics
    ///
    /// Panics if the pair is not coupled.
    pub fn edge_error(&self, a: Qubit, b: Qubit) -> f64 {
        let key = if a < b { (a, b) } else { (b, a) };
        *self
            .edge_error
            .get(&key)
            .unwrap_or_else(|| panic!("({a}, {b}) is not a coupling of this device"))
    }

    /// Average single-qubit gate error.
    pub fn single_qubit_error(&self) -> f64 {
        self.single_qubit_error
    }

    /// Canonical content fingerprint: error rates hashed in sorted edge
    /// order, so two models built differently (e.g. [`NoiseModel::uniform`]
    /// plus overrides vs a direct calibration load) fingerprint identically
    /// exactly when every rate matches bit-for-bit. Stable across processes
    /// and platforms.
    ///
    /// `sabre::DeviceCache` keys noise-weighted distance matrices by
    /// `(graph.fingerprint(), noise.fingerprint())`, which is what lets a
    /// calibration refresh recompute only the weighted matrix. Computed
    /// on first use and kept (clones made after that carry it), so a hot
    /// cache key reads it in `O(1)`.
    ///
    /// # Example
    ///
    /// ```
    /// use sabre_topology::{devices, noise::NoiseModel, Qubit};
    ///
    /// let g = devices::linear(3);
    /// let a = NoiseModel::uniform(g.graph(), 0.01, 0.001);
    /// let b = NoiseModel::uniform(g.graph(), 0.01, 0.001);
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    ///
    /// let worse = b.with_edge_error(Qubit(0), Qubit(1), 0.2);
    /// assert_ne!(a.fingerprint(), worse.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut edges: Vec<(&(Qubit, Qubit), &f64)> = self.edge_error.iter().collect();
        edges.sort_by_key(|(&pair, _)| pair);
        let mut fp = Fingerprinter::new("sabre/noise-model/v1");
        fp.write_f64(self.single_qubit_error);
        fp.write_u64(edges.len() as u64);
        for (&(a, b), &err) in edges {
            fp.write_u64(u64::from(a.0));
            fp.write_u64(u64::from(b.0));
            fp.write_f64(err);
        }
        fp.finish()
    }

    /// The additive routing cost of one SWAP across `(a, b)`:
    /// `-3·ln(1 - ε)` (three CNOTs, log-domain so costs sum along paths).
    pub fn swap_cost(&self, a: Qubit, b: Qubit) -> f64 {
        -3.0 * (1.0 - self.edge_error(a, b)).ln()
    }

    /// Estimated success probability of a *hardware* circuit under this
    /// model: the product of per-gate fidelities (SWAPs count as three
    /// two-qubit gates). Coherence-time effects are not modeled.
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit gate acts on an uncoupled pair — estimate
    /// only routed circuits.
    pub fn success_probability(&self, circuit: &Circuit) -> f64 {
        let mut log_fidelity = 0.0f64;
        for gate in circuit {
            match gate.qubits() {
                (_, None) => log_fidelity += (1.0 - self.single_qubit_error).ln(),
                (a, Some(b)) => {
                    let factor = if gate.is_swap() { 3.0 } else { 1.0 };
                    log_fidelity += factor * (1.0 - self.edge_error(a, b)).ln();
                }
            }
        }
        log_fidelity.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    #[test]
    fn the_kept_fingerprint_follows_every_override() {
        let device = devices::ibm_q20_tokyo();
        let base = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 7);
        let before = base.fingerprint();
        let clone = base.clone();
        assert_eq!(clone.fingerprint(), before);
        let (a, b) = device.graph().edges()[0];
        let worse = clone.with_edge_error(a, b, 0.3);
        // The override drops the kept value: the fingerprint is that of a
        // model built with the new rate and never fingerprinted.
        let fresh = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 7).with_edge_error(a, b, 0.3);
        assert_ne!(worse.fingerprint(), before);
        assert_eq!(worse.fingerprint(), fresh.compute_fingerprint());
        // Equality reads the rates, not whether a fingerprint was kept.
        let unfingerprinted = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 7);
        assert_eq!(base, unfingerprinted);
        assert_ne!(base, worse);
    }

    #[test]
    fn uniform_model_everywhere_equal() {
        let device = devices::ibm_q20_tokyo();
        let noise = NoiseModel::uniform(device.graph(), 0.03, 0.004);
        for &(a, b) in device.graph().edges() {
            assert_eq!(noise.edge_error(a, b), 0.03);
            assert_eq!(noise.edge_error(b, a), 0.03);
        }
        assert_eq!(noise.single_qubit_error(), 0.004);
    }

    #[test]
    fn calibrated_model_varies_but_stays_bounded() {
        let device = devices::ibm_q20_tokyo();
        let noise = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 7);
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for &(a, b) in device.graph().edges() {
            let e = noise.edge_error(a, b);
            assert!((0.005..=0.08).contains(&e), "error {e} out of band");
            min = min.min(e);
            max = max.max(e);
        }
        assert!(max / min > 2.0, "expected meaningful variability");
    }

    #[test]
    fn calibrated_model_is_deterministic_per_seed() {
        let device = devices::ibm_qx5();
        assert_eq!(
            NoiseModel::calibrated(device.graph(), 0.02, 3.0, 1),
            NoiseModel::calibrated(device.graph(), 0.02, 3.0, 1)
        );
        assert_ne!(
            NoiseModel::calibrated(device.graph(), 0.02, 3.0, 1),
            NoiseModel::calibrated(device.graph(), 0.02, 3.0, 2)
        );
    }

    #[test]
    fn with_edge_error_overrides() {
        let device = devices::linear(3);
        let noise = NoiseModel::uniform(device.graph(), 0.01, 0.001).with_edge_error(
            Qubit(1),
            Qubit(0),
            0.2,
        );
        assert_eq!(noise.edge_error(Qubit(0), Qubit(1)), 0.2);
        assert_eq!(noise.edge_error(Qubit(1), Qubit(2)), 0.01);
    }

    #[test]
    fn fingerprint_tracks_content_not_construction() {
        let device = devices::ibm_q20_tokyo();
        let uniform = NoiseModel::uniform(device.graph(), 0.03, 0.004);
        assert_eq!(
            uniform.fingerprint(),
            NoiseModel::uniform(device.graph(), 0.03, 0.004).fingerprint()
        );
        // An override that does not change the value keeps the fingerprint.
        let same = uniform.clone().with_edge_error(Qubit(1), Qubit(0), 0.03);
        assert_eq!(uniform.fingerprint(), same.fingerprint());
        // A real change moves it.
        let changed = uniform.clone().with_edge_error(Qubit(0), Qubit(1), 0.2);
        assert_ne!(uniform.fingerprint(), changed.fingerprint());
        // Calibration seeds separate models.
        assert_ne!(
            NoiseModel::calibrated(device.graph(), 0.02, 3.0, 1).fingerprint(),
            NoiseModel::calibrated(device.graph(), 0.02, 3.0, 2).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "not a coupling")]
    fn unknown_edge_rejected() {
        let device = devices::linear(3);
        let noise = NoiseModel::uniform(device.graph(), 0.01, 0.001);
        let _ = noise.edge_error(Qubit(0), Qubit(2));
    }

    #[test]
    fn swap_cost_is_three_cnots_in_log_domain() {
        let device = devices::linear(2);
        let noise = NoiseModel::uniform(device.graph(), 0.1, 0.001);
        let expected = -3.0 * (0.9f64).ln();
        assert!((noise.swap_cost(Qubit(0), Qubit(1)) - expected).abs() < 1e-12);
    }

    #[test]
    fn success_probability_multiplies_fidelities() {
        let device = devices::linear(3);
        let noise = NoiseModel::uniform(device.graph(), 0.1, 0.01);
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.swap(Qubit(1), Qubit(2));
        let expected = 0.99 * 0.9 * 0.9f64.powi(3);
        assert!((noise.success_probability(&c) - expected).abs() < 1e-12);
    }

    #[test]
    fn higher_error_lowers_success() {
        let device = devices::linear(3);
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        let low = NoiseModel::uniform(device.graph(), 0.01, 0.001);
        let high = NoiseModel::uniform(device.graph(), 0.05, 0.001);
        assert!(low.success_probability(&c) > high.success_probability(&c));
    }
}
