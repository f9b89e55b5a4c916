//! Every bench suite's committed `BENCH_*.json` equals a fresh run byte
//! for byte, and every suite's acceptance gate holds.
//!
//! The suites come from one table, `greenweb_bench::suites::SUITES`, so
//! a new suite is gated here the moment it is listed there.

use greenweb_bench::suites::SUITES;
use greenweb_fleet::Jobs;

#[test]
fn every_bench_artifact_matches_a_fresh_run_and_passes_its_gate() {
    let mut failures = Vec::new();
    for suite in &SUITES {
        let run = (suite.run)(Jobs::from_env());
        if let Err(e) = &run.gate {
            failures.push(format!("{} gate ({}): {e}", suite.name, suite.artifact));
        }
        let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), suite.artifact);
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        if committed != run.json {
            let at = committed
                .bytes()
                .zip(run.json.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(committed.len().min(run.json.len()));
            let near = |text: &str| {
                let end = (at + 40).min(text.len());
                text.get(at.saturating_sub(40)..end)
                    .unwrap_or("")
                    .to_string()
            };
            failures.push(format!(
                "{} differs from a fresh run at byte {at}: committed `{}`, fresh `{}`; \
                 if the change is intended, regenerate it with `cargo run --release \
                 -p greenweb-bench --bin evaluate -- bench --suite {}` and review the diff",
                suite.artifact,
                near(&committed),
                near(&run.json),
                suite.name,
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
