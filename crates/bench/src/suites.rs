//! The bench suites, listed once.
//!
//! [`SUITES`] has one row per suite: its `--suite` name, the committed
//! artifact it writes, and a run function returning the text table, the
//! artifact's JSON and the suite's acceptance gate. `evaluate bench
//! --suite NAME` is one lookup in it ([`find`]), and the tier-1 test
//! `tests/bench_artifacts.rs` loops over it: every gate must hold and
//! every committed artifact must equal a fresh run byte for byte.
//!
//! That byte gate is possible because every suite reports only
//! deterministic numbers: counters and simulated-clock milliseconds.
//! Host time is measured in one place, the `perfbench/` benchmark.

use crate::{microbench, paintbench, scriptbench, stylebench};
use greenweb_fleet::Jobs;

/// One finished suite run.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Fixed-width text table for the terminal.
    pub text: String,
    /// The artifact's JSON document, newline-terminated.
    pub json: String,
    /// The acceptance gate; the error names the first failed check.
    pub gate: Result<(), String>,
}

/// What every suite's report renders and checks.
pub trait SuiteReport {
    /// Fixed-width text table for the terminal.
    fn render_text(&self) -> String;
    /// The artifact's JSON document, newline-terminated.
    fn render_json(&self) -> String;
    /// The acceptance gate.
    ///
    /// # Errors
    ///
    /// Names the first failed check.
    fn gate(&self) -> Result<(), String>;
}

impl<R: SuiteReport> From<R> for SuiteRun {
    fn from(report: R) -> Self {
        SuiteRun {
            text: report.render_text(),
            json: report.render_json(),
            gate: report.gate(),
        }
    }
}

/// One bench suite.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The `--suite` name.
    pub name: &'static str,
    /// The committed artifact, relative to the repository root.
    pub artifact: &'static str,
    /// Runs the suite; batches that fan out use the given worker count.
    pub run: fn(Jobs) -> SuiteRun,
}

/// Every bench suite, `micro` (the `--suite` default) first.
pub const SUITES: [Suite; 4] = [
    Suite {
        name: "micro",
        artifact: "BENCH_evaluate.json",
        run: |jobs| microbench::run_suite(jobs).into(),
    },
    Suite {
        name: "style",
        artifact: "BENCH_style.json",
        run: |_| stylebench::run_suite().into(),
    },
    Suite {
        name: "script",
        artifact: "BENCH_script.json",
        run: |_| scriptbench::run_suite().into(),
    },
    Suite {
        name: "paint",
        artifact: "BENCH_paint.json",
        run: |_| paintbench::run_suite().into(),
    },
];

/// The suite called `name`, if any.
pub fn find(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|suite| suite.name == name)
}

/// Fails the enclosing gate with the formatted message unless `cond`
/// holds.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($message)+));
        }
    };
}
pub(crate) use ensure;
