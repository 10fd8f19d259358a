//! The routing-phase profiler behind [`SabreConfig::profile`]: *why* the
//! search spent its steps, decomposed into the paper's cost centers.
//!
//! SABRE's hot loop has three structurally distinct phases per search
//! step — front-layer maintenance (the `Execute_gate_list` drain of
//! Algorithm 1), the extended-set BFS (§IV-D look-ahead), and the
//! candidate sweep over the delta scorer — and their relative weight is
//! strongly topology- and circuit-dependent. [`RouteProfile`] reports
//! per-phase wall time plus the event counters the heuristic's dynamics
//! expose (candidates scored, clean steps, decay resets, forced
//! routings, per-traversal step counts).
//!
//! # Bit-identity contract
//!
//! Profiling must never change the routed output. The collector is an
//! enum whose disabled variant does nothing: every instrumentation site
//! in `route_pass_prepared` costs one predictable branch and no clock
//! read ([`sabre_trace::SpanClock::start`] on an `OFF` clock), and no
//! value the search computes ever depends on collector state.
//! `tests/hot_loop_equivalence.rs` interleaves profile-on and
//! profile-off routes and pins both against `sabre::reference`.
//!
//! [`SabreConfig::profile`]: crate::SabreConfig::profile

use sabre_json::JsonValue;
use sabre_trace::{Span, SpanClock};

/// Aggregated hot-loop telemetry for one routing call: phase wall times
/// and event counters summed over every profiled traversal of every
/// restart (restarts may run concurrently), in restart order. Returned as
/// [`SabreResult::profile`](crate::SabreResult::profile) when
/// [`SabreConfig::profile`](crate::SabreConfig::profile) is set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteProfile {
    /// Traversals profiled (restarts × traversals for a full route).
    pub traversals: u64,
    /// Search steps across all profiled traversals — one per inserted
    /// SWAP, forced routings included.
    pub search_steps: u64,
    /// Scored search steps whose front layer was unchanged by the
    /// previous SWAP, so the scoring tables were patched in place rather
    /// than rebuilt. Always ≤ `search_steps`.
    pub clean_steps: u64,
    /// Nanoseconds in front-layer maintenance: the execute-drain loop
    /// plus the front rebuild.
    pub front_ns: u64,
    /// Nanoseconds in the extended-set BFS.
    pub extended_set_ns: u64,
    /// Nanoseconds in candidate collection, delta scoring, and the
    /// tie-breaking pick.
    pub scoring_ns: u64,
    /// The part of `scoring_ns` spent updating the scoring tables and
    /// candidate segments: a rebuild after a dirty step, an in-place
    /// patch after a clean one. The rest of `scoring_ns` is the sweep.
    pub update_ns: u64,
    /// Candidate SWAPs evaluated by the delta scorer.
    pub candidates_scored: u64,
    /// Decay-table resets (after an executed gate, on the reset
    /// interval, or after a forced routing).
    pub decay_resets: u64,
    /// Livelock-guard forced routings.
    pub forced_routings: u64,
    /// Search steps of each profiled traversal, in execution order.
    pub per_traversal_steps: Vec<u64>,
}

impl RouteProfile {
    /// Total instrumented hot-loop time: the three phase counters
    /// (`update_ns` is inside `scoring_ns`). Like every field, it is
    /// summed over restarts, and a route's restarts may run concurrently,
    /// so it can exceed the routing call's `elapsed`; with the restarts on
    /// one thread it stays below it (preprocessing, layout draws, and
    /// result assembly are outside the loop).
    pub fn hot_loop_ns(&self) -> u64 {
        self.front_ns + self.extended_set_ns + self.scoring_ns
    }

    /// Folds another profile into this one (restart-order aggregation:
    /// counters add, per-traversal steps append).
    pub fn merge(&mut self, other: &RouteProfile) {
        self.traversals += other.traversals;
        self.search_steps += other.search_steps;
        self.clean_steps += other.clean_steps;
        self.front_ns += other.front_ns;
        self.extended_set_ns += other.extended_set_ns;
        self.scoring_ns += other.scoring_ns;
        self.update_ns += other.update_ns;
        self.candidates_scored += other.candidates_scored;
        self.decay_resets += other.decay_resets;
        self.forced_routings += other.forced_routings;
        self.per_traversal_steps
            .extend_from_slice(&other.per_traversal_steps);
    }

    /// The profile as a JSON object — the `"profile"` payload of a
    /// `/route?profile=true` response.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("traversals", self.traversals.into()),
            ("search_steps", self.search_steps.into()),
            ("clean_steps", self.clean_steps.into()),
            ("front_ns", self.front_ns.into()),
            ("extended_set_ns", self.extended_set_ns.into()),
            ("scoring_ns", self.scoring_ns.into()),
            ("update_ns", self.update_ns.into()),
            ("hot_loop_ns", self.hot_loop_ns().into()),
            ("candidates_scored", self.candidates_scored.into()),
            ("decay_resets", self.decay_resets.into()),
            ("forced_routings", self.forced_routings.into()),
            (
                "per_traversal_steps",
                self.per_traversal_steps
                    .iter()
                    .map(|&s| JsonValue::from(s))
                    .collect(),
            ),
        ])
    }
}

/// The collector a traversal writes into: a no-op when profiling is off.
/// Each instrumentation site is `#[inline]` and branches on the variant
/// — the disabled path never reads the clock or touches memory beyond
/// the discriminant.
#[derive(Clone, Debug)]
pub(crate) enum ProfileCollector {
    /// Profiling disabled: every method is a no-op.
    Off,
    /// Profiling enabled: accumulate into the carried profile.
    On(RouteProfile),
}

impl ProfileCollector {
    pub(crate) fn new(enabled: bool) -> Self {
        if enabled {
            ProfileCollector::On(RouteProfile::default())
        } else {
            ProfileCollector::Off
        }
    }

    /// The span clock phase boundaries start from: `OFF` hands out dead
    /// spans without reading the clock.
    #[inline]
    pub(crate) fn clock(&self) -> SpanClock {
        match self {
            ProfileCollector::Off => SpanClock::OFF,
            ProfileCollector::On(_) => SpanClock::ON,
        }
    }

    #[inline]
    pub(crate) fn add_front(&mut self, span: Span) {
        if let ProfileCollector::On(p) = self {
            p.front_ns += span.elapsed_ns();
        }
    }

    #[inline]
    pub(crate) fn add_extended_set(&mut self, span: Span) {
        if let ProfileCollector::On(p) = self {
            p.extended_set_ns += span.elapsed_ns();
        }
    }

    /// Closes the table and candidate update of a scored step: `span`
    /// is the step's scoring span, still open.
    #[inline]
    pub(crate) fn add_update(&mut self, span: Span) {
        if let ProfileCollector::On(p) = self {
            p.update_ns += span.elapsed_ns();
        }
    }

    /// Closes one scored step: `clean` when its front layer was
    /// unchanged and the scoring tables were patched in place.
    #[inline]
    pub(crate) fn add_scoring(&mut self, span: Span, candidates: usize, clean: bool) {
        if let ProfileCollector::On(p) = self {
            p.scoring_ns += span.elapsed_ns();
            p.candidates_scored += candidates as u64;
            p.clean_steps += u64::from(clean);
        }
    }

    /// Closes out one traversal with its final counters.
    #[inline]
    pub(crate) fn finish_traversal(&mut self, steps: usize, forced: usize, decay_resets: u64) {
        if let ProfileCollector::On(p) = self {
            p.traversals += 1;
            p.search_steps += steps as u64;
            p.forced_routings += forced as u64;
            p.decay_resets += decay_resets;
            p.per_traversal_steps.push(steps as u64);
        }
    }

    /// The accumulated profile, if one was collected.
    pub(crate) fn take(self) -> Option<RouteProfile> {
        match self {
            ProfileCollector::Off => None,
            ProfileCollector::On(p) => Some(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_yields_nothing() {
        let mut c = ProfileCollector::new(false);
        assert!(!c.clock().is_enabled());
        let span = c.clock().start();
        c.add_front(span);
        c.add_update(span);
        c.add_scoring(span, 17, true);
        c.finish_traversal(5, 1, 2);
        assert_eq!(c.take(), None);
    }

    #[test]
    fn enabled_collector_accumulates_counters() {
        let mut c = ProfileCollector::new(true);
        assert!(c.clock().is_enabled());
        let span = c.clock().start();
        c.add_update(span);
        c.add_scoring(span, 12, false);
        c.add_scoring(c.clock().start(), 8, true);
        c.finish_traversal(9, 0, 3);
        c.finish_traversal(4, 1, 1);
        let p = c.take().expect("profile collected");
        assert_eq!(p.traversals, 2);
        assert_eq!(p.search_steps, 13);
        assert_eq!(p.clean_steps, 1);
        assert_eq!(p.candidates_scored, 20);
        assert_eq!(p.decay_resets, 4);
        assert_eq!(p.forced_routings, 1);
        assert_eq!(p.per_traversal_steps, vec![9, 4]);
        assert!(p.update_ns <= p.scoring_ns);
    }

    #[test]
    fn merge_adds_counters_and_appends_traversals() {
        let mut a = RouteProfile {
            traversals: 1,
            search_steps: 10,
            clean_steps: 7,
            front_ns: 100,
            extended_set_ns: 50,
            scoring_ns: 200,
            update_ns: 90,
            candidates_scored: 40,
            decay_resets: 3,
            forced_routings: 0,
            per_traversal_steps: vec![10],
        };
        let b = RouteProfile {
            traversals: 2,
            search_steps: 6,
            clean_steps: 4,
            front_ns: 30,
            extended_set_ns: 20,
            scoring_ns: 60,
            update_ns: 25,
            candidates_scored: 25,
            decay_resets: 1,
            forced_routings: 1,
            per_traversal_steps: vec![2, 4],
        };
        a.merge(&b);
        assert_eq!(a.traversals, 3);
        assert_eq!(a.search_steps, 16);
        assert_eq!(a.clean_steps, 11);
        assert_eq!(a.update_ns, 115);
        assert_eq!(a.hot_loop_ns(), 130 + 70 + 260);
        assert_eq!(a.per_traversal_steps, vec![10, 2, 4]);
    }

    #[test]
    fn profile_to_json_round_trips() {
        let p = RouteProfile {
            traversals: 3,
            search_steps: 21,
            clean_steps: 15,
            front_ns: 1_000,
            extended_set_ns: 2_000,
            scoring_ns: 3_000,
            update_ns: 1_200,
            candidates_scored: 84,
            decay_resets: 5,
            forced_routings: 0,
            per_traversal_steps: vec![7, 7, 7],
        };
        let json = p.to_json();
        assert_eq!(json.get("search_steps").unwrap().as_u64(), Some(21));
        assert_eq!(json.get("clean_steps").unwrap().as_u64(), Some(15));
        assert_eq!(json.get("hot_loop_ns").unwrap().as_u64(), Some(6_000));
        assert_eq!(json.get("update_ns").unwrap().as_u64(), Some(1_200));
        let steps: Vec<u64> = json
            .get("per_traversal_steps")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(steps, vec![7, 7, 7]);
        let text = json.to_compact();
        assert_eq!(JsonValue::parse(&text).unwrap(), json);
    }
}
