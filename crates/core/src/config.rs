use std::fmt;

/// Which heuristic cost function guides the SWAP search.
///
/// The variants correspond to the evolution in paper §IV-D: `Basic` is
/// Equation 1, `LookAhead` adds the extended set term, `Decay` (the full
/// SABRE heuristic) is Equation 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// Equation 1: sum of front-layer distances, nothing else.
    Basic,
    /// Normalized front-layer term plus weighted extended-set look-ahead.
    LookAhead,
    /// Full Equation 2: look-ahead scaled by the per-qubit decay factor.
    #[default]
    Decay,
}

/// Tunable parameters of the SABRE search.
///
/// Defaults reproduce the paper's evaluation configuration (§V "Algorithm
/// Configuration"): `|E| = 20`, `W = 0.5`, `δ = 0.001` with a reset every 5
/// search steps, 5 random restarts, 3 traversals each.
///
/// # Example
///
/// ```
/// use sabre::SabreConfig;
///
/// let config = SabreConfig {
///     decay_delta: 0.01, // push harder toward parallel SWAPs
///     ..SabreConfig::default()
/// };
/// assert_eq!(config.extended_set_size, 20);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SabreConfig {
    /// Heuristic variant (ablation knob; the paper uses [`HeuristicKind::Decay`]).
    pub heuristic: HeuristicKind,
    /// `|E|`: how many successor two-qubit gates feed the look-ahead term.
    pub extended_set_size: usize,
    /// `W ∈ [0, 1)`: weight of the extended-set term relative to the front
    /// layer.
    pub extended_set_weight: f64,
    /// `δ`: decay added to a qubit each time it participates in a selected
    /// SWAP. `0.0` disables the decay effect entirely.
    pub decay_delta: f64,
    /// Reset all decay values after this many consecutive SWAP selections
    /// (the paper resets "every 5 search steps or after a CNOT gate is
    /// executed").
    pub decay_reset_interval: u32,
    /// Number of independent random initial mappings tried; the best final
    /// result is reported (paper: 5). Past 128 physical qubits each one
    /// is a BFS ball rather than uniform (`Layout::initial`). Restarts
    /// after the first run concurrently once restart 0's search shows
    /// enough work ([`SabreRouter::route`](crate::SabreRouter::route));
    /// the result does not depend on the thread count.
    pub num_restarts: usize,
    /// Traversals per restart: 1 = single forward pass, 3 = the paper's
    /// forward–backward–forward reverse-traversal scheme. Must be odd so
    /// the final pass runs the original circuit.
    pub num_traversals: usize,
    /// Seed for all randomness (initial mappings — uniform, or past 128
    /// physical qubits a BFS ball's root and shuffle — and tie-breaking);
    /// results are fully reproducible given the seed.
    pub seed: u64,
    /// Livelock guard: after `3·N + livelock_slack` consecutive SWAPs with
    /// no gate executed, force-route the oldest front gate via a shortest
    /// path. Never triggers on the paper's configuration (the stats report
    /// it so tests can assert that).
    pub livelock_slack: usize,
    /// Node budget for the perfect-placement probe: before reporting, the
    /// router spends at most this many backtracking steps searching for a
    /// zero-SWAP embedding of the circuit's interaction graph
    /// ([`sabre_topology::embedding`]) and uses it if found — realizing the
    /// paper's §V-A1 observation that small benchmarks often admit a
    /// perfect initial mapping, deterministically instead of by restart
    /// luck. `0` disables the probe (pure multi-restart SABRE).
    pub embedding_probe_budget: usize,
    /// Collect a [`RouteProfile`](crate::RouteProfile) while routing:
    /// per-phase hot-loop wall times (front maintenance, extended-set
    /// BFS, candidate scoring), candidate counts, decay resets, forced
    /// routings, and per-traversal step counts, returned as
    /// [`SabreResult::profile`](crate::SabreResult::profile).
    ///
    /// **Observability-only knob**: the routed output is bit-identical
    /// with the flag on or off (the collector only reads the monotonic
    /// clock — `tests/hot_loop_equivalence.rs` interleaves both against
    /// `sabre::reference`), and like the search-effort knobs it is
    /// excluded from plan-cache keying ([`crate::plan`]). Off by
    /// default; the disabled path costs one predictable branch per
    /// phase boundary and never reads the clock.
    pub profile: bool,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            heuristic: HeuristicKind::Decay,
            extended_set_size: 20,
            extended_set_weight: 0.5,
            decay_delta: 0.001,
            decay_reset_interval: 5,
            num_restarts: 5,
            num_traversals: 3,
            seed: 2019, // the paper's publication year; any value works
            livelock_slack: 10,
            embedding_probe_budget: 50_000,
            profile: false,
        }
    }
}

impl SabreConfig {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        SabreConfig::default()
    }

    /// A fast configuration for tests: single restart, single traversal.
    pub fn fast() -> Self {
        SabreConfig {
            num_restarts: 1,
            num_traversals: 1,
            ..SabreConfig::default()
        }
    }

    /// Configuration for the ablation without look-ahead or decay
    /// (Equation 1 only).
    pub fn basic() -> Self {
        SabreConfig {
            heuristic: HeuristicKind::Basic,
            ..SabreConfig::default()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.extended_set_weight) {
            return Err(format!(
                "extended_set_weight must lie in [0, 1), got {}",
                self.extended_set_weight
            ));
        }
        if self.decay_delta < 0.0 {
            return Err(format!("decay_delta must be ≥ 0, got {}", self.decay_delta));
        }
        if self.num_restarts == 0 {
            return Err("num_restarts must be ≥ 1".into());
        }
        if self.num_traversals == 0 || self.num_traversals.is_multiple_of(2) {
            return Err(format!(
                "num_traversals must be odd (final pass routes the forward circuit), got {}",
                self.num_traversals
            ));
        }
        if self.decay_reset_interval == 0 {
            return Err("decay_reset_interval must be ≥ 1".into());
        }
        Ok(())
    }
}

impl fmt::Display for SabreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sabre(heuristic={:?}, |E|={}, W={}, δ={}, reset={}, restarts={}, traversals={}, seed={})",
            self.heuristic,
            self.extended_set_size,
            self.extended_set_weight,
            self.decay_delta,
            self.decay_reset_interval,
            self.num_restarts,
            self.num_traversals,
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = SabreConfig::default();
        assert_eq!(c.extended_set_size, 20);
        assert_eq!(c.extended_set_weight, 0.5);
        assert_eq!(c.decay_delta, 0.001);
        assert_eq!(c.decay_reset_interval, 5);
        assert_eq!(c.num_restarts, 5);
        assert_eq!(c.num_traversals, 3);
        assert_eq!(c.heuristic, HeuristicKind::Decay);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_weight() {
        let c = SabreConfig {
            extended_set_weight: 1.5,
            ..SabreConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("extended_set_weight"));
    }

    #[test]
    fn validation_rejects_even_traversals() {
        let c = SabreConfig {
            num_traversals: 2,
            ..SabreConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("odd"));
    }

    #[test]
    fn validation_rejects_zero_restarts() {
        let c = SabreConfig {
            num_restarts: 0,
            ..SabreConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_negative_delta() {
        let c = SabreConfig {
            decay_delta: -0.1,
            ..SabreConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fast_config_is_valid() {
        assert!(SabreConfig::fast().validate().is_ok());
        assert_eq!(SabreConfig::fast().num_traversals, 1);
    }

    #[test]
    fn display_mentions_key_fields() {
        let text = SabreConfig::default().to_string();
        assert!(text.contains("|E|=20"));
        assert!(text.contains("W=0.5"));
    }
}
