//! `autogreen-author`: the developer-tool path, serially on one
//! thread. Per app: AUTOGREEN annotates the unannotated app, GreenLint
//! analyzes the result, which then runs on its full trace under Perf
//! and GreenWeb-U, plus a recorded GreenWeb-I run exported as Chrome
//! trace JSON and attribution flame JSON (both written to disk).

use crate::spans::Tracer;
use crate::{check_conservation, CellOut, CellRecord, Pass, SimEntry, Workbench};
use crate::{GREENWEB_I, GREENWEB_U, PERF};
use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb::AutoGreen;
use greenweb_analyze::analyze;
use greenweb_engine::{App, Trace};
use greenweb_fleet::Jobs;
use greenweb_trace::{chrome_trace_json, AttributionProfile};
use greenweb_workloads::harness::{expectations, lower, Policy};
use greenweb_workloads::sweep::json::JsonValue;
use greenweb_workloads::Workload;
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Cell {
    name: &'static str,
    unannotated: App,
    full: Trace,
}

/// The twelve unannotated apps and where their exports go.
pub struct Author {
    cells: Vec<Cell>,
    dir: PathBuf,
    /// Digests of exports already shown to parse: identical bytes need
    /// no second parse.
    parsed: HashSet<u64>,
}

impl Author {
    /// Collects the unannotated apps; exports are written under `dir`.
    pub fn setup(workloads: &[Workload], dir: PathBuf) -> Author {
        Author {
            cells: workloads
                .iter()
                .map(|w| Cell {
                    name: w.name,
                    unannotated: w.unannotated_app.clone(),
                    full: w.full.clone(),
                })
                .collect(),
            dir,
            parsed: HashSet::new(),
        }
    }
}

/// What one authoring cell produced, before it is checked.
struct Authored {
    metrics: [RunMetrics; 3],
    annotations_css: String,
    annotations: usize,
    diagnostics: usize,
    lint_json: String,
    exports: [String; 2],
    conservation: Result<(), String>,
}

fn run_cell(cell: &Cell, id: usize, dir: &Path, t: &mut Tracer) -> Result<Authored, String> {
    let (app, report) = t
        .span("core.autogreen", Some(id), |_| {
            AutoGreen::new().annotate(&cell.unannotated)
        })
        .map_err(|e| e.to_string())?;
    let lint = t.span("analyze.lint", Some(id), |_| analyze(&app));
    let mut run = |policy: Policy, scenario: Scenario, record: bool| {
        let spec = lower(&app, &cell.full, &policy);
        let spec = if record { spec.with_recording() } else { spec };
        let outcome = t
            .span("engine.execute", Some(id), |_| spec.execute())
            .map_err(|e| format!("{policy}: {e}"))?;
        let metrics = t.span("core.judge", Some(id), |_| {
            RunMetrics::compute(&outcome.report, &expectations(&app, &cell.full, scenario))
        });
        Ok::<_, String>((metrics, outcome.trace))
    };
    let (perf, _) = run(Policy::Perf, Scenario::Usable, false)?;
    let (usable, _) = run(Policy::GreenWeb(Scenario::Usable), Scenario::Usable, false)?;
    let (imperceptible, buffer) = run(
        Policy::GreenWeb(Scenario::Imperceptible),
        Scenario::Imperceptible,
        true,
    )?;
    let buffer = buffer.ok_or("recorded run returned no trace")?;
    let chrome = t.span("trace.export", Some(id), |_| {
        chrome_trace_json(&buffer, cell.name)
    });
    let profile = t.span("trace.attribution", Some(id), |_| {
        AttributionProfile::from_trace(&buffer)
    });
    let flame = t.span("trace.export", Some(id), |_| profile.flame_json(cell.name));
    t.span("bench.write_exports", Some(id), |_| {
        fs::write(dir.join(format!("{id:02}.trace.json")), &chrome)
            .and_then(|()| fs::write(dir.join(format!("{id:02}.flame.json")), &flame))
    })
    .map_err(|e| format!("writing exports: {e}"))?;
    Ok(Authored {
        metrics: [perf, usable, imperceptible],
        annotations_css: report.annotations.to_css(),
        annotations: report.annotations.len(),
        diagnostics: lint.diagnostics.len(),
        lint_json: lint.render_json(),
        exports: [chrome, flame],
        conservation: check_conservation(
            profile.attributed_mj(),
            profile.idle_mj,
            profile.unattributed_mj,
            profile.total_mj,
        ),
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl Author {
    /// Checks one cell's outputs and folds its counters into the pass.
    fn check(
        &mut self,
        id: usize,
        authored: Authored,
        counters: &mut BTreeMap<&'static str, f64>,
    ) -> Result<CellRecord, String> {
        authored.conservation?;
        let mut digests = Vec::new();
        for export in &authored.exports {
            let digest = fnv1a(export.as_bytes());
            if !self.parsed.contains(&digest) {
                JsonValue::parse(export).map_err(|e| format!("export does not parse: {e}"))?;
                self.parsed.insert(digest);
            }
            digests.push(format!("{digest:016x}"));
            *counters.entry("trace.export_bytes").or_insert(0.0) += export.len() as f64;
        }
        *counters.entry("analyze.diagnostics").or_insert(0.0) += authored.diagnostics as f64;
        *counters.entry("core.autogreen_annotations").or_insert(0.0) += authored.annotations as f64;
        let [perf, usable, imperceptible] = &authored.metrics;
        let fingerprint = format!(
            "{}\n{}\n{}\n{}\n{}\n{}",
            authored.annotations_css,
            authored.lint_json,
            perf.render_json(),
            usable.render_json(),
            imperceptible.render_json(),
            digests.join(" "),
        );
        let sims = [
            (PERF, perf),
            (GREENWEB_U, usable),
            (GREENWEB_I, imperceptible),
        ]
        .into_iter()
        .map(|(policy, m)| SimEntry {
            app: id,
            policy,
            energy_mj: m.energy_mj,
            violation_pct: m.violation_pct,
        })
        .collect();
        Ok(CellRecord { fingerprint, sims })
    }
}

impl Workbench for Author {
    fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Serial by design: the authoring loop is one developer's
    /// machine, so `workers` is ignored.
    fn pass(&mut self, order: &[usize], _workers: Jobs, tracer: &mut Tracer) -> Pass {
        let start = Instant::now();
        let results: Vec<_> = order
            .iter()
            .map(|&id| {
                let cell = &self.cells[id];
                let dir = &self.dir;
                (
                    id,
                    tracer.span("cell", Some(id), |t| run_cell(cell, id, dir, t)),
                )
            })
            .collect();
        let wall = start.elapsed();
        let mut counters = BTreeMap::new();
        let cells = results
            .into_iter()
            .map(|(id, result)| CellOut {
                id,
                result: result.and_then(|authored| self.check(id, authored, &mut counters)),
            })
            .collect();
        Pass {
            wall,
            cells,
            counters,
        }
    }
}
