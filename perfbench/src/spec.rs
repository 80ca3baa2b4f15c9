//! The benchmark's own declaration, `BENCHMARK.json`, compiled in: every
//! run checks that what it prints is exactly what the file declares,
//! with the declared units. Every workload reports every metric of a
//! section.

use crate::stats::Outcome;
use report::json::{parse_json, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`).
pub fn section(key: &str) -> Vec<(String, String)> {
    let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} array"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(JsonValue::as_str).expect("metric has name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks a finished run against the declaration: the emitted names are
/// exactly the declared ones, in the declared order, each with the unit
/// `BENCHMARK.json` gives it.
pub fn conforms(trace: bool, out: &Outcome) -> Result<(), String> {
    let sec = section(if trace { "per_layer" } else { "end_to_end" });
    let emitted: Vec<(String, String)> =
        out.metrics.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
    if emitted != sec {
        return Err(format!("emitted {emitted:?}, BENCHMARK.json declares {sec:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use std::collections::HashSet;

    /// Workload names declared in `BENCHMARK.json`, in file order.
    fn workloads() -> Vec<String> {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("BENCHMARK.json has a workloads array")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name").to_owned())
            .collect()
    }

    #[test]
    fn workloads_match_the_declaration() {
        assert_eq!(workloads(), crate::WORKLOADS);
    }

    /// Every run's emitted names must equal these (`conforms`), so this
    /// checks the grammar of everything the benchmark emits.
    #[test]
    fn every_declared_name_and_unit_is_legal() {
        for key in ["end_to_end", "per_layer"] {
            let sec = section(key);
            for (n, u) in &sec {
                assert!(valid_name(n), "{key}: illegal name {n:?}");
                assert!(valid_unit(u), "{key}: {n} has an illegal unit {u:?}");
            }
            assert_eq!(
                sec.len(),
                sec.iter().map(|(n, _)| n).collect::<HashSet<_>>().len(),
                "{key} repeats a name"
            );
        }
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric() {
        assert!(section("end_to_end").iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }
}
