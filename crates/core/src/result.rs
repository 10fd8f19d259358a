use std::fmt;
use std::time::Duration;

use sabre_circuit::Circuit;
use sabre_json::JsonValue;

use crate::profile::RouteProfile;
use crate::Layout;

/// A layout as JSON: the logical→physical mapping as an array of physical
/// indices (`value[i]` = physical qubit hosting logical qubit `i`).
pub(crate) fn layout_to_json(layout: &Layout) -> JsonValue {
    layout
        .logical_to_physical()
        .iter()
        .map(|q| u64::from(q.0))
        .collect()
}

/// The output of routing one circuit: a hardware-compliant physical
/// circuit plus the mappings relating it to the logical input.
///
/// The `physical` circuit keeps inserted SWAPs as explicit `SWAP` gates;
/// use [`RoutedCircuit::decomposed`] for the paper's cost model where one
/// SWAP is three CNOTs (Figure 3a).
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedCircuit {
    /// The transformed circuit over **physical** wires (the device size),
    /// with SWAPs left as single gates.
    pub physical: Circuit,
    /// `π₀`: where each logical qubit starts (index = logical, value =
    /// physical).
    pub initial_layout: Layout,
    /// `π_f`: where each logical qubit ends after all inserted SWAPs.
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub num_swaps: usize,
    /// Search effort. For SABRE's `route_pass`: one step per inserted
    /// SWAP, whether selected by scoring candidates (Algorithm 1
    /// iterations) or inserted by the livelock guard's forced routing, so
    /// there `search_steps == num_swaps`. Baseline routers populate their
    /// own notion of effort (e.g. BKA reports nodes expanded), so the
    /// equality is **not** an invariant of this struct.
    pub search_steps: usize,
    /// How often the livelock guard forced a shortest-path routing; 0 on
    /// every benchmark configuration (tests assert this).
    pub forced_routings: usize,
}

impl RoutedCircuit {
    /// Additional gates in the paper's accounting: `3 × num_swaps`.
    pub fn added_gates(&self) -> usize {
        3 * self.num_swaps
    }

    /// The physical circuit with each SWAP expanded into 3 CNOTs — the
    /// elementary-gate-set form whose size and depth Table II reports.
    pub fn decomposed(&self) -> Circuit {
        self.physical.with_swaps_decomposed()
    }

    /// Total gates after SWAP decomposition (`g_tot = g_ori + g_add`).
    pub fn total_gates(&self) -> usize {
        self.physical.num_gates() + 2 * self.num_swaps
    }

    /// Depth of the decomposed circuit (`d` of the output).
    pub fn depth(&self) -> usize {
        self.decomposed().depth()
    }

    /// The routing artifact as a JSON object — the serialization hook the
    /// serving layer builds its `/route` responses from.
    ///
    /// Contains the summary counters (`num_swaps`, `search_steps`,
    /// `forced_routings`, `added_gates`, `num_gates`, `depth`) and both
    /// layouts as logical→physical index arrays; the physical gate list
    /// itself is *not* embedded (serialize it separately, e.g. as OpenQASM
    /// via `sabre_qasm::to_qasm`, when the caller asked for it).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("num_swaps", self.num_swaps.into()),
            ("search_steps", self.search_steps.into()),
            ("forced_routings", self.forced_routings.into()),
            ("added_gates", self.added_gates().into()),
            ("num_gates", self.physical.num_gates().into()),
            ("depth", self.depth().into()),
            ("initial_layout", layout_to_json(&self.initial_layout)),
            ("final_layout", layout_to_json(&self.final_layout)),
        ])
    }
}

impl fmt::Display for RoutedCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routed `{}`: {} swaps (+{} gates), depth {}",
            self.physical.name(),
            self.num_swaps,
            self.added_gates(),
            self.depth()
        )
    }
}

/// What one traversal of one restart produced (for reporting `g_la` vs
/// `g_op`-style numbers per traversal).
#[derive(Clone, Debug, PartialEq)]
pub struct TraversalReport {
    /// Restart index (0-based).
    pub restart: usize,
    /// Traversal index within the restart (0 = first forward pass).
    pub traversal: usize,
    /// Whether this traversal ran the reversed circuit.
    pub reversed: bool,
    /// SWAPs inserted during this traversal.
    pub num_swaps: usize,
}

/// Complete result of [`SabreRouter::route`]: the best routed circuit over
/// all restarts plus per-traversal telemetry.
///
/// [`SabreRouter::route`]: crate::SabreRouter::route
#[derive(Clone, Debug)]
pub struct SabreResult {
    /// The best routing found (fewest added gates, ties broken by depth).
    pub best: RoutedCircuit,
    /// Which restart produced `best` — or, when [`Self::perfect_placement`]
    /// is `true`, the best restart the embedding probe beat.
    pub best_restart: usize,
    /// `best` came from the zero-SWAP perfect-placement probe
    /// ([`crate::SabreConfig::embedding_probe_budget`]) rather than from a
    /// random restart.
    pub perfect_placement: bool,
    /// SWAP counts for every traversal of every restart.
    pub traversals: Vec<TraversalReport>,
    /// `g_la`-style metric: added gates of the best *first* traversal
    /// (look-ahead heuristic with a random initial mapping — past 128
    /// physical qubits a BFS ball — before any reverse-traversal
    /// improvement).
    pub first_traversal_added_gates: usize,
    /// Wall-clock time of the whole routing call.
    pub elapsed: Duration,
    /// Hot-loop phase profile aggregated over every traversal of every
    /// restart (restart order), present iff the route ran with
    /// [`SabreConfig::profile`](crate::SabreConfig::profile) set.
    /// Deliberately **not** part of the deterministic-output contract:
    /// equality checks between routing runs compare [`Self::best`] and
    /// [`Self::traversals`], never this field.
    pub profile: Option<RouteProfile>,
}

impl SabreResult {
    /// Added gates of the final result (`g_op` when run with the paper's
    /// 3-traversal configuration).
    pub fn added_gates(&self) -> usize {
        self.best.added_gates()
    }

    /// Search steps summed over **every** traversal of every restart —
    /// the total hot-loop effort behind [`Self::elapsed`], as opposed to
    /// [`RoutedCircuit::search_steps`] which counts only the winning
    /// traversal. (For `route_pass` one step is one inserted SWAP, forced
    /// routings included, so this is the sum of per-traversal SWAP
    /// counts.)
    pub fn total_search_steps(&self) -> usize {
        self.traversals.iter().map(|t| t.num_swaps).sum()
    }

    /// Mean wall nanoseconds per search step over the whole routing call —
    /// the admission-control metric a serving layer exports (ROADMAP
    /// "per-step ns into the service layer's admission metrics"). Zero
    /// steps (e.g. a perfect placement on the first try) reports the full
    /// elapsed time against one step to stay finite.
    pub fn ns_per_step(&self) -> u128 {
        self.elapsed.as_nanos() / self.total_search_steps().max(1) as u128
    }

    /// The full result as a JSON object: the [`RoutedCircuit::to_json`]
    /// payload under `"best"`, plus restart/probe provenance and the
    /// timing telemetry (`elapsed_ns`, `total_search_steps`,
    /// `ns_per_step`). When the route ran with profiling enabled, the
    /// [`RouteProfile`] rides along under `"profile"`.
    pub fn to_json(&self) -> JsonValue {
        let mut json = JsonValue::object([
            ("best", self.best.to_json()),
            ("best_restart", self.best_restart.into()),
            ("perfect_placement", self.perfect_placement.into()),
            (
                "first_traversal_added_gates",
                self.first_traversal_added_gates.into(),
            ),
            ("total_search_steps", self.total_search_steps().into()),
            ("elapsed_ns", self.elapsed.as_nanos().into()),
            ("ns_per_step", self.ns_per_step().into()),
        ]);
        if let Some(profile) = &self.profile {
            if let JsonValue::Object(fields) = &mut json {
                fields.push(("profile".to_string(), profile.to_json()));
            }
        }
        json
    }
}

impl fmt::Display for SabreResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (best of {} restarts, {:.3}s)",
            self.best,
            self.traversals
                .iter()
                .map(|t| t.restart)
                .max()
                .map_or(1, |m| m + 1),
            self.elapsed.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::Qubit;

    fn sample_routed() -> RoutedCircuit {
        let mut physical = Circuit::with_name(3, "t");
        physical.cx(Qubit(0), Qubit(1));
        physical.swap(Qubit(1), Qubit(2));
        physical.cx(Qubit(0), Qubit(1));
        RoutedCircuit {
            physical,
            initial_layout: Layout::identity(3),
            final_layout: {
                let mut l = Layout::identity(3);
                l.swap_physical(Qubit(1), Qubit(2));
                l
            },
            num_swaps: 1,
            search_steps: 1,
            forced_routings: 0,
        }
    }

    #[test]
    fn added_gates_is_three_per_swap() {
        assert_eq!(sample_routed().added_gates(), 3);
    }

    #[test]
    fn total_gates_counts_decomposed_swaps() {
        let r = sample_routed();
        assert_eq!(r.total_gates(), 2 + 3);
        assert_eq!(r.decomposed().num_gates(), r.total_gates());
        assert_eq!(r.decomposed().num_swaps(), 0);
    }

    #[test]
    fn depth_uses_decomposed_form() {
        let r = sample_routed();
        // cx(0,1); [cx(1,2) cx(2,1) cx(1,2)]; cx(0,1) → depth 5 on wires.
        assert_eq!(r.depth(), 5);
    }

    #[test]
    fn display_summarizes() {
        let text = sample_routed().to_string();
        assert!(text.contains("1 swaps"));
        assert!(text.contains("+3 gates"));
    }

    #[test]
    fn routed_to_json_carries_counters_and_layouts() {
        let json = sample_routed().to_json();
        assert_eq!(json.get("num_swaps").unwrap().as_usize(), Some(1));
        assert_eq!(json.get("added_gates").unwrap().as_usize(), Some(3));
        assert_eq!(json.get("depth").unwrap().as_usize(), Some(5));
        let initial: Vec<u64> = json
            .get("initial_layout")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(initial, [0, 1, 2]);
        let final_: Vec<u64> = json
            .get("final_layout")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(final_, [0, 2, 1]);
        // The document survives a serialization round trip.
        let text = json.to_compact();
        assert_eq!(sabre_json::JsonValue::parse(&text).unwrap(), json);
    }

    #[test]
    fn sabre_result_telemetry_sums_all_traversals() {
        let result = SabreResult {
            best: sample_routed(),
            best_restart: 1,
            perfect_placement: false,
            traversals: vec![
                TraversalReport {
                    restart: 0,
                    traversal: 0,
                    reversed: false,
                    num_swaps: 4,
                },
                TraversalReport {
                    restart: 0,
                    traversal: 1,
                    reversed: true,
                    num_swaps: 6,
                },
            ],
            first_traversal_added_gates: 12,
            elapsed: Duration::from_nanos(1000),
            profile: None,
        };
        assert_eq!(result.total_search_steps(), 10);
        assert_eq!(result.ns_per_step(), 100);
        let json = result.to_json();
        assert_eq!(json.get("total_search_steps").unwrap().as_usize(), Some(10));
        assert_eq!(json.get("elapsed_ns").unwrap().as_u64(), Some(1000));
        assert_eq!(json.get("ns_per_step").unwrap().as_u64(), Some(100));
        assert!(json.get("best").unwrap().get("num_swaps").is_some());
    }

    #[test]
    fn ns_per_step_survives_zero_steps() {
        let result = SabreResult {
            best: sample_routed(),
            best_restart: 0,
            perfect_placement: true,
            traversals: vec![],
            first_traversal_added_gates: 0,
            elapsed: Duration::from_nanos(42),
            profile: None,
        };
        assert_eq!(result.total_search_steps(), 0);
        assert_eq!(result.ns_per_step(), 42);
    }
}
