//! Smoke mode: one pass of each workload (and one traced round) must
//! emit exactly the metrics `BENCHMARK.json` declares, each with its
//! declared unit, as a parseable result line.

use greenweb_workloads::sweep::json::JsonValue;
use perfbench::{run, Kind, Options, Report};
use std::collections::BTreeMap;

fn contract() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` for one metric list of the contract.
fn declared(section: &str) -> BTreeMap<String, String> {
    contract()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks the report against `expected` through its rendered JSON line.
fn assert_emits(report: &Report, expected: &BTreeMap<String, String>, what: &str) {
    assert!(report.correct, "{what}: {:?}", report.notes);
    assert!(report.attempted > 0 && report.failed == 0, "{what}");
    let line = JsonValue::parse(&report.render_json()).expect("result line parses");
    for key in ["correct", "attempted", "failed"] {
        assert!(line.get(key).is_some(), "{what}: result without {key}");
    }
    let Some(JsonValue::Obj(metrics)) = line.get("metrics") else {
        panic!("{what}: result without metrics");
    };
    let emitted: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{what}: {name} has no value"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        &emitted, expected,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
}

#[test]
fn contract_names_the_benchmark_workloads() {
    let names: Vec<String> = contract()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for kind in Kind::ALL {
        let report = run(&Options::smoke(kind, false)).expect("smoke run");
        assert_emits(&report, &expected, kind.name());
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let report = run(&Options::smoke(Kind::SweepMicro, true)).expect("traced smoke run");
    assert_emits(&report, &declared("per_layer"), "traced run");
}
