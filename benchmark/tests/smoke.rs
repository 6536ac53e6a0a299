//! `BENCHMARK.json`, the harness's own tables and what a run prints must
//! name the same workloads and metrics, with the same units.

use ldbench::metrics::{Metric, END_TO_END, PER_LAYER};
use ldbench::workload::WORKLOADS;
use std::path::Path;
use std::process::Command;

/// The string value of `"key": "..."` inside `object`.
fn text<'a>(object: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": \"");
    let start = object
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {object}"))
        + tag.len();
    &object[start..start + object[start..].find('"').expect("closing quote")]
}

/// The flat `{...}` objects of the array that follows `"key": [`.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let tag = format!("\"{key}\": [");
    let start = json.find(&tag).unwrap_or_else(|| panic!("no {key} array")) + tag.len();
    let body = &json[start..start + json[start..].find(']').expect("closing bracket")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("closing brace")])
        .collect()
}

fn assert_table(json: &str, key: &str, table: &[Metric], bounded: bool) {
    let stated = objects(json, key);
    assert_eq!(stated.len(), table.len(), "{key}: metric count");
    for (o, m) in stated.iter().zip(table) {
        assert_eq!(text(o, "name"), m.name, "{key}: order and names");
        assert_eq!(text(o, "unit"), m.unit, "{}: unit", m.name);
        assert_eq!(text(o, "better"), m.better, "{}: direction", m.name);
        if bounded {
            let bound = o.rsplit("\"bound\": ").next().expect("bound").trim();
            assert_eq!(
                bound.parse::<f64>().expect("numeric bound"),
                m.bound,
                "{}: bound",
                m.name
            );
        }
    }
}

#[test]
fn benchmark_json_states_the_harness_tables() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let stated: Vec<&str> = objects(&json, "workloads")
        .iter()
        .map(|o| text(o, "name"))
        .collect();
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(stated, known);
    assert_table(&json, "end_to_end", &END_TO_END, true);
    assert_table(&json, "per_layer", &PER_LAYER, false);
}

/// `--quick` runs of every workload, untraced and traced: exit 0, and the
/// result line carries exactly the table's metrics with their units.
#[test]
fn quick_runs_print_every_metric_and_no_other() {
    let run_sh = Path::new(env!("CARGO_MANIFEST_DIR")).join("run.sh");
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        for w in &WORKLOADS {
            let out = Command::new("bash")
                .arg(&run_sh)
                .args(["--quick", "--workload", w.name, "--seed", "1"])
                .args(["--seconds", "1", "--trace", trace])
                .output()
                .expect("bash runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed:\n{stdout}\n{}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
            let printed: Vec<(&str, &str)> = metrics
                .split("}, ")
                .map(|m| (&m[1..1 + m[1..].find('"').expect("name")], text(m, "unit")))
                .collect();
            let expected: Vec<(&str, &str)> = table.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(printed, expected, "{} --trace {trace}", w.name);
            // the readable lines above it name the same metrics
            for m in table {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(m.name) && l.ends_with(m.unit)),
                    "{} --trace {trace}: no line for {}",
                    w.name,
                    m.name
                );
            }
        }
    }
}
