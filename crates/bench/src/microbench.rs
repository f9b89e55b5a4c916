//! The micro suite (`evaluate bench`, the default `--suite micro`).
//!
//! Runs the 48-cell microbenchmark matrix (12 workloads × 4 paper
//! policies) serially and on the requested worker count and checks the
//! two batches agree bit for bit — the fleet's serial ≡ parallel
//! contract. It then breaks the simulated pipeline into per-phase totals
//! (style, layout, paint, script) from one traced GreenWeb-I run of each
//! workload's full trace, plus a labeled aggregate. Every number is on
//! the simulated clock (`"clock":"sim"` in the JSON), so
//! `BENCH_evaluate.json` is deterministic; host time is perfbench's.

use crate::figures::{run_apps, SuiteKind};
use crate::profile;
use crate::suites::{ensure, SuiteReport};
use greenweb::qos::Scenario;
use greenweb_fleet::Jobs;
use greenweb_trace::{MetricsRegistry, SpanKind};
use greenweb_workloads::harness::Policy;
use std::fmt::Write as _;

/// The pipeline phases reported per workload, in JSON key order.
/// "script" is the callback stage.
const PHASES: [(&str, SpanKind); 4] = [
    ("style", SpanKind::Style),
    ("layout", SpanKind::Layout),
    ("paint", SpanKind::Paint),
    ("script", SpanKind::Callback),
];

/// The micro suite's result.
#[derive(Debug, Clone)]
pub struct MicroBenchReport {
    /// Cells in the matrix (workloads × policies).
    pub cells: usize,
    /// The worker count the parallel batch ran on.
    pub workers: Jobs,
    /// Whether the serial and parallel batches agreed bit for bit.
    pub identical: bool,
    /// Simulated milliseconds per phase (style, layout, paint, script):
    /// one row per workload, then the `"aggregate"` row.
    pub phases: Vec<(&'static str, [f64; 4])>,
}

impl SuiteReport for MicroBenchReport {
    /// The serial and parallel batches agreed.
    fn gate(&self) -> Result<(), String> {
        ensure!(
            self.identical,
            "serial and {}-worker micro suites diverged",
            self.workers
        );
        Ok(())
    }

    fn render_json(&self) -> String {
        let entries: Vec<String> = self
            .phases
            .iter()
            .map(|(label, phases)| {
                let mut entry = format!("{{\"workload\":\"{label}\"");
                for ((key, _), value) in PHASES.iter().zip(phases) {
                    let _ = write!(entry, ",\"{key}\":{value:.3}");
                }
                entry + "}"
            })
            .collect();
        let (aggregate, workloads) = entries.split_last().expect("aggregate row");
        format!(
            "{{\"suite\":\"micro\",\"cells\":{},\"identical\":{},\"clock\":\"sim\",\
             \"phases_ms\":[{}],\"phases_ms_aggregate\":{aggregate}}}\n",
            self.cells,
            self.identical,
            workloads.join(","),
        )
    }

    fn render_text(&self) -> String {
        let verdict = if self.identical {
            "identical"
        } else {
            "DIVERGED"
        };
        let mut out = format!(
            "micro suite: {} cells, serial vs {} worker(s) results {verdict}\n\
             simulated ms per phase (GreenWeb-I, full trace)\n\
             {:<11} {:>10} {:>10} {:>10} {:>10}\n",
            self.cells, self.workers, "workload", "style", "layout", "paint", "script"
        );
        for (label, [style, layout, paint, script]) in &self.phases {
            let _ = writeln!(
                out,
                "{label:<11} {style:>10.3} {layout:>10.3} {paint:>10.3} {script:>10.3}"
            );
        }
        out
    }
}

/// Runs the suite, the parallel batch on `workers`.
pub fn run_suite(workers: Jobs) -> MicroBenchReport {
    let workloads = greenweb_workloads::all();
    let serial = run_apps(&workloads, SuiteKind::Micro, Jobs::serial());
    let parallel = run_apps(&workloads, SuiteKind::Micro, workers);
    let identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(a, b)| {
            a.perf.report.total_mj() == b.perf.report.total_mj()
                && a.interactive.report.total_mj() == b.interactive.report.total_mj()
                && a.greenweb_i.metrics_i.render_json() == b.greenweb_i.metrics_i.render_json()
                && a.greenweb_u.metrics_u.render_json() == b.greenweb_u.metrics_u.render_json()
        });
    let scenario = Scenario::Imperceptible;
    let mut phases: Vec<_> = workloads
        .iter()
        .map(|w| {
            let profiled =
                profile::profile(w, &Policy::GreenWeb(scenario), scenario).expect("traced run");
            let registry = MetricsRegistry::from_trace(&profiled.buffer);
            let stage_total_ms = |kind: SpanKind| {
                registry
                    .histogram(&format!("stage.{}", kind.name()))
                    .map_or(0.0, |h| h.mean() * h.count() as f64)
            };
            (w.name, PHASES.map(|(_, kind)| stage_total_ms(kind)))
        })
        .collect();
    let mut aggregate = [0.0f64; 4];
    for (_, row) in &phases {
        for (total, phase) in aggregate.iter_mut().zip(row) {
            *total += phase;
        }
    }
    phases.push(("aggregate", aggregate));
    MicroBenchReport {
        cells: workloads.len() * Policy::paper_set().len(),
        workers,
        identical,
        phases,
    }
}
