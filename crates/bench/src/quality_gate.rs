//! Plan-quality regression gate behind the `quality_json` binary.
//!
//! The committed baseline (`BENCH_quality.json` at the workspace root,
//! schema [`BASELINE_SCHEMA`]) holds one entry per scenario, written by
//! [`render_baseline`]. [`check`] reads the same paths out of the
//! baseline and out of a freshly rendered measurement, and gates four
//! figures per scenario: SWAP count, depth overhead,
//! −log success probability and, on Table II rows, `g_la`. Routing is
//! deterministic for a fixed seed, so the figures are machine-stable;
//! the gate still grants each one a small [`allowance`] so deliberate
//! heuristic tweaks that shift a scenario slightly do not demand a
//! baseline edit, while a real regression fails loudly. A Table II row
//! also fails if its `g_op` exceeds the paper's SABRE `g_op` while its
//! baseline entry does not: a row that matches or beats the paper must
//! keep doing so. Three rows sit above the paper in the committed
//! baseline (`qft_13`, `misex1_241`, `square_root_7`); they are held
//! by the allowances alone until routing improves.
//!
//! Scenario names must match one to one. A measured scenario with no
//! baseline entry, a baseline entry that was never measured, and a name
//! that appears twice on either side are all failures: each means the
//! corpus and the baseline drifted apart, and a gate that silently skips
//! or merges scenarios is no gate at all.

use std::collections::BTreeMap;

use sabre_json::JsonValue;

use crate::Scenario;

/// Schema tag of the committed baseline file.
pub const BASELINE_SCHEMA: &str = "sabre-quality-baseline/v2";

/// Maximum acceptable value of a figure whose baseline is `baseline`:
/// the baseline plus 10%, and at least `floor` above it, so tiny
/// scenarios are not gated at zero tolerance.
pub fn allowance(baseline: f64, floor: f64) -> f64 {
    baseline + (baseline / 10.0).max(floor)
}

/// One gated figure: its name in failure lines, the floor of its
/// [`allowance`], and how to read it from a baseline entry (`None` when
/// the scenario does not carry it).
struct Gated {
    field: &'static str,
    floor: f64,
    read: fn(&JsonValue) -> Option<f64>,
}

fn quality(entry: &JsonValue, key: &str) -> Option<f64> {
    entry.get("quality")?.get(key)?.as_f64()
}

fn table2(entry: &JsonValue, key: &str) -> Option<f64> {
    entry.get("table2")?.get(key)?.as_f64()
}

/// The figures [`check`] gates, lower is better for each. The floors
/// are about two SWAPs' worth: 2 SWAPs, 2 layers, 0.25 nats (a SWAP is
/// three CNOTs at 0.25–4% error each on the calibrated noise, so at most
/// 0.12 nats), 6 gates.
const GATED: [Gated; 4] = [
    Gated {
        field: "num_swaps",
        floor: 2.0,
        read: |entry| quality(entry, "num_swaps"),
    },
    Gated {
        field: "depth_overhead",
        floor: 2.0,
        read: |entry| quality(entry, "depth_overhead"),
    },
    Gated {
        field: "neg_log_success",
        floor: 0.25,
        read: |entry| quality(entry, "log_success_probability").map(|lsp| -lsp),
    },
    Gated {
        field: "g_la",
        floor: 6.0,
        read: |entry| table2(entry, "g_la"),
    },
];

/// Renders measured scenarios as a baseline document ready to commit.
pub fn render_baseline(scenarios: &[Scenario]) -> JsonValue {
    JsonValue::object([
        ("schema", BASELINE_SCHEMA.into()),
        ("noise", "calibrated(0.01, 4.0)".into()),
        (
            "scenarios",
            scenarios.iter().map(Scenario::to_json).collect(),
        ),
    ])
}

/// The `(name, entry)` pairs of a baseline document.
fn entries(doc: &JsonValue) -> Result<Vec<(&str, &JsonValue)>, String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(BASELINE_SCHEMA) => {}
        other => {
            return Err(format!(
                "unrecognized baseline schema {other:?} (expected {BASELINE_SCHEMA:?})"
            ))
        }
    }
    doc.get("scenarios")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "baseline has no `scenarios` array".to_string())?
        .iter()
        .map(|entry| {
            entry
                .get("scenario")
                .and_then(JsonValue::as_str)
                .map(|name| (name, entry))
                .ok_or_else(|| "baseline entry without a `scenario` string".to_string())
        })
        .collect()
}

/// Prints whole numbers without a fraction and the rest to 3 places.
fn num(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// Checks a measured document (as [`render_baseline`] renders it)
/// against the committed baseline. Returns the list of failure lines,
/// each naming its scenario — empty means the gate passes.
///
/// # Errors
///
/// Returns `Err` when either document is malformed (wrong schema,
/// missing fields): a broken baseline must fail the gate rather than
/// silently pass it.
pub fn check(baseline: &JsonValue, measured: &JsonValue) -> Result<Vec<String>, String> {
    let expected = entries(baseline)?;
    let measured = entries(measured)?;
    let mut failures = Vec::new();
    for (side, list) in [("baseline", &expected), ("measurement", &measured)] {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for (name, _) in list {
            *counts.entry(name).or_default() += 1;
        }
        for (name, count) in counts.into_iter().filter(|&(_, count)| count > 1) {
            failures.push(format!("{name}: appears {count} times in the {side}"));
        }
    }

    for &(name, entry) in &measured {
        let Some(&(_, base)) = expected.iter().find(|(other, _)| *other == name) else {
            failures.push(format!(
                "{name}: measured but absent from the baseline \
                 (re-run with --write-baseline and commit the result)"
            ));
            continue;
        };
        for gated in &GATED {
            let Some(value) = (gated.read)(entry) else {
                continue;
            };
            let field = gated.field;
            match (gated.read)(base) {
                Some(was) => {
                    let allowed = allowance(was, gated.floor);
                    if value > allowed {
                        failures.push(format!(
                            "{name}: {field} {} exceeds allowance {} (baseline {})",
                            num(value),
                            num(allowed),
                            num(was)
                        ));
                    }
                }
                None => failures.push(format!("{name}: baseline entry has no {field}")),
            }
        }
        let paper_g_op = entry
            .get("table2")
            .and_then(|row| row.get("paper")?.get("sabre_g_op")?.as_f64());
        if let (Some(g_op), Some(paper)) = (table2(entry, "g_op"), paper_g_op) {
            let baseline_above = table2(base, "g_op").is_some_and(|was| was > paper);
            if g_op > paper && !baseline_above {
                failures.push(format!(
                    "{name}: g_op {} exceeds the paper's SABRE g_op {}",
                    num(g_op),
                    num(paper)
                ));
            }
        }
    }
    for &(name, _) in &expected {
        if !measured.iter().any(|(other, _)| *other == name) {
            failures.push(format!(
                "{name}: present in the baseline but not measured \
                 (stale baseline entry?)"
            ));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table2Row;
    use sabre::PlanQuality;
    use sabre_benchgen::registry;

    fn scenario(name: &str, num_swaps: usize) -> Scenario {
        Scenario {
            name: name.to_string(),
            num_qubits: 5,
            num_gates: 50,
            quality: PlanQuality {
                num_swaps,
                added_gates: 3 * num_swaps,
                input_two_qubit_gates: 20,
                output_two_qubit_gates: 20 + 3 * num_swaps,
                input_depth: 30,
                output_depth: 130,
                depth_overhead: 100,
                log_success_probability: Some(-10.0),
            },
            table2: None,
        }
    }

    /// A Table II row whose paper reports `paper_g_op` added gates.
    fn table2_row(name: &str, g_la: usize, g_op: usize, paper_g_op: usize) -> Scenario {
        let paper = registry::by_name("qft_20").unwrap().paper;
        Scenario {
            table2: Some(Table2Row {
                g_la,
                g_op,
                paper: registry::PaperRow {
                    sabre_g_op: paper_g_op,
                    ..paper
                },
            }),
            ..scenario(name, g_op / 3)
        }
    }

    fn gate(baseline: &[Scenario], measured: &[Scenario]) -> Vec<String> {
        check(&render_baseline(baseline), &render_baseline(measured)).unwrap()
    }

    /// Gates a single scenario changed by `regress` against its baseline.
    fn one_regression(base: Scenario, regress: impl FnOnce(&mut Scenario)) -> Vec<String> {
        let mut measured = base.clone();
        regress(&mut measured);
        gate(&[base], &[measured])
    }

    #[test]
    fn allowance_is_ten_percent_with_a_floor_of_two() {
        assert_eq!(allowance(0.0, 2.0), 2.0);
        assert_eq!(allowance(5.0, 2.0), 7.0);
        assert_eq!(allowance(100.0, 2.0), 110.0);
        assert_eq!(allowance(250.0, 2.0), 275.0);
        assert_eq!(allowance(0.5, 0.25), 0.75);
    }

    #[test]
    fn matching_measurements_pass() {
        let base = [scenario("tokyo20/deep", 100), scenario("grid/deep", 40)];
        let mut measured = base.clone();
        measured[1].quality.num_swaps = 44;
        measured[1].quality.depth_overhead = 110;
        measured[1].quality.log_success_probability = Some(-11.0);
        assert_eq!(gate(&base, &measured), Vec::<String>::new());
        let row = table2_row("tokyo20/table2:qft_20", 300, 282, 372);
        assert_eq!(
            gate(std::slice::from_ref(&row), std::slice::from_ref(&row)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        // A swap-count regression beyond the tolerance must produce a
        // failure naming the scenario.
        let failures = one_regression(scenario("tokyo20/deep", 100), |s| {
            s.quality.num_swaps = 111;
        });
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("tokyo20/deep"));
        assert!(failures[0].contains("num_swaps 111"));
        assert!(failures[0].contains("110"));
    }

    #[test]
    fn depth_overhead_regression_fails_naming_scenario_and_field() {
        let failures = one_regression(scenario("grid10x10/deep", 10), |s| {
            s.quality.depth_overhead = 111;
        });
        assert_eq!(
            failures,
            ["grid10x10/deep: depth_overhead 111 exceeds allowance 110 (baseline 100)"]
        );
    }

    #[test]
    fn log_success_regression_fails_naming_scenario_and_field() {
        let failures = one_regression(scenario("tokyo20/qasm:qft8", 10), |s| {
            s.quality.log_success_probability = Some(-11.5);
        });
        assert_eq!(
            failures,
            ["tokyo20/qasm:qft8: neg_log_success 11.500 exceeds allowance 11 (baseline 10)"]
        );
        // The improvement direction never fails.
        let better = one_regression(scenario("tokyo20/qasm:qft8", 10), |s| {
            s.quality.log_success_probability = Some(-1.0);
        });
        assert!(better.is_empty());
    }

    #[test]
    fn g_la_regression_fails_naming_scenario_and_field() {
        let failures = one_regression(table2_row("tokyo20/table2:qft_16", 100, 162, 186), |s| {
            s.table2.as_mut().unwrap().g_la = 111;
        });
        assert_eq!(
            failures,
            ["tokyo20/table2:qft_16: g_la 111 exceeds allowance 110 (baseline 100)"]
        );
    }

    #[test]
    fn table2_row_above_the_papers_g_op_fails() {
        // Within every allowance, but no longer at or below the paper.
        let failures = gate(
            &[table2_row("tokyo20/table2:qft_20", 300, 372, 372)],
            &[table2_row("tokyo20/table2:qft_20", 300, 375, 372)],
        );
        assert_eq!(
            failures,
            ["tokyo20/table2:qft_20: g_op 375 exceeds the paper's SABRE g_op 372"]
        );
        // A row already above the paper in the baseline is held by the
        // allowances only.
        let above = table2_row("tokyo20/table2:qft_13", 132, 108, 93);
        assert!(gate(std::slice::from_ref(&above), std::slice::from_ref(&above)).is_empty());
    }

    #[test]
    fn duplicate_scenario_names_fail_on_either_side() {
        // `sabre_qasm::load_dir` reads `a.qasm` and `a.QASM` as two
        // circuits named `a`: both must not be compared against one entry.
        let a = scenario("tokyo20/qasm:a", 4);
        let failures = gate(std::slice::from_ref(&a), &[a.clone(), a.clone()]);
        assert_eq!(
            failures,
            ["tokyo20/qasm:a: appears 2 times in the measurement"]
        );
        let failures = gate(&[a.clone(), a.clone()], &[a]);
        assert_eq!(
            failures,
            ["tokyo20/qasm:a: appears 2 times in the baseline"]
        );
    }

    #[test]
    fn drift_between_corpus_and_baseline_fails_both_ways() {
        let failures = gate(
            &[scenario("removed/scenario", 10)],
            &[scenario("added/scenario", 3)],
        );
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("added/scenario"));
        assert!(failures[1].contains("removed/scenario"));
    }

    #[test]
    fn malformed_baselines_are_errors_not_passes() {
        let measured = render_baseline(&[]);
        let wrong_schema = JsonValue::object([("schema", "nope".into())]);
        assert!(check(&wrong_schema, &measured).is_err());
        let no_scenarios = JsonValue::object([("schema", BASELINE_SCHEMA.into())]);
        assert!(check(&no_scenarios, &measured).is_err());
        let nameless = JsonValue::object([
            ("schema", BASELINE_SCHEMA.into()),
            (
                "scenarios",
                JsonValue::array([JsonValue::object([("num_swaps", 1usize.into())])]),
            ),
        ]);
        assert!(check(&nameless, &measured).is_err());
    }

    #[test]
    fn v1_baseline_is_a_schema_error() {
        let v1 = JsonValue::parse(
            r#"{"schema": "sabre-quality-baseline/v1",
                "scenarios": [{"scenario": "tokyo20/deep", "num_swaps": 1295}]}"#,
        )
        .unwrap();
        let measured = render_baseline(&[scenario("tokyo20/deep", 1295)]);
        let err = check(&v1, &measured).unwrap_err();
        assert!(err.contains("sabre-quality-baseline/v1"), "{err}");
    }

    #[test]
    fn table2_suite_has_26_unique_rows_with_paper_columns() {
        let suite = crate::table2_suite();
        assert_eq!(suite.len(), 26);
        let mut names: Vec<&str> = suite.iter().map(|case| case.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26, "duplicate Table II scenario names");
        for case in &suite {
            let bench = case.name.strip_prefix("tokyo20/table2:").unwrap();
            let spec = registry::by_name(bench).unwrap();
            assert_eq!(case.paper, Some(spec.paper), "{bench}");
            assert_eq!(case.config, sabre::SabreConfig::paper(), "{bench}");
        }
        // The paper's columns reach the rendered entry.
        let row = render_baseline(&[table2_row("tokyo20/table2:qft_20", 300, 282, 372)]);
        let paper = &row.get("scenarios").unwrap().as_array().unwrap()[0]
            .get("table2")
            .unwrap()
            .get("paper")
            .unwrap()
            .to_compact();
        assert_eq!(
            paper,
            r#"{"sabre_g_la":429,"sabre_g_op":372,"bka_g_add":null}"#
        );
    }

    #[test]
    fn corpus_names_are_unique_and_figure8_sweeps_every_delta() {
        let corpus = crate::corpus();
        assert_eq!(corpus.len(), 8 + 26 + 9 * crate::FIGURE8_DELTAS.len());
        let mut names: Vec<&str> = corpus.iter().map(|case| case.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate scenario names");
        for case in crate::figure8_suite() {
            let suffix = format!("@delta={}", case.config.decay_delta);
            assert!(case.name.ends_with(&suffix), "{}", case.name);
        }
    }
}
