//! `pathbench --smoke`: every workload runs on tiny inputs, prints every
//! metric `BENCHMARK.json` names with its unit, answers every check
//! correctly, and fingerprints its inputs reproducibly.

use obs::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: &[&str] = &["batch-suite", "slice-long", "serve-mixed", "serve-edit"];

/// `(name, unit)` of each entry of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.field(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs the smoke benchmark and returns its standard output.
fn smoke(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pathbench"))
        .arg("--smoke")
        .args(args)
        .arg("--scratch")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("pathbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "pathbench {args:?} failed:\n{stdout}");
    stdout
}

/// The last line, parsed.
fn result(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON")
}

fn fingerprints(stdout: &str) -> BTreeMap<String, String> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut it = l.split(' ');
            match (it.next(), it.next(), it.next()) {
                (Some(w), Some("fingerprint"), Some(fp)) => Some((w.to_owned(), fp.to_owned())),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_without_failures_and_reproducible_inputs() {
    let first = smoke(&["--seed", "1"]);
    let doc = result(&first);
    assert_eq!(doc.field("correct"), Some(&Json::Bool(true)), "{first}");
    assert_eq!(
        doc.field("failed").and_then(Json::as_i64),
        Some(0),
        "{first}"
    );
    for w in WORKLOADS {
        assert!(
            first.contains(&format!("{w} error_rate 0.0000 ")),
            "{first}"
        );
        for (name, unit) in declared("end_to_end") {
            let line = first
                .lines()
                .find(|l| l.starts_with(&format!("{w} {name} ")))
                .unwrap_or_else(|| panic!("{w} does not print {name}:\n{first}"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.get(3), Some(&unit.as_str()), "{line}");
            let value: f64 = fields[2].parse().expect("numeric value");
            assert!(value > 0.0, "{line}");
        }
    }

    let again = fingerprints(&smoke(&["--seed", "1"]));
    let other = fingerprints(&smoke(&["--seed", "2"]));
    let first = fingerprints(&first);
    assert_eq!(first.len(), WORKLOADS.len());
    assert_eq!(first, again, "same seed, same inputs");
    for w in WORKLOADS {
        assert_ne!(
            first[*w], other[*w],
            "{w}: another seed must change the inputs"
        );
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let stdout = smoke(&["--seed", "3", "--trace", "1", "--workload", "serve-edit"]);
    let doc = result(&stdout);
    let Some(Json::Obj(metrics)) = doc.field("metrics") else {
        panic!("no metrics:\n{stdout}");
    };
    let reported: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.as_str(),
                v.field("unit").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    let declared = declared("per_layer");
    assert_eq!(
        reported,
        declared
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect::<Vec<_>>()
    );
    assert!(stdout.contains("tracing overhead p50_ms"), "{stdout}");
}
