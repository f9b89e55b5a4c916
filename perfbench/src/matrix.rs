//! `fig10-full`: the paper's headline evaluation. Twelve apps × the
//! four compared policies on the full-interaction traces, recording
//! off, dispatched through `run_jobs`; each cell is execute + judge.

use crate::spans::Tracer;
use crate::{scenario_for, CellOut, CellRecord, Pass, SimEntry, Workbench};
use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_engine::RunSpec;
use greenweb_fleet::{run_jobs, Jobs};
use greenweb_workloads::harness::{expectations, lower, Policy};
use greenweb_workloads::Workload;
use std::collections::BTreeMap;
use std::time::Instant;

struct Cell {
    app: usize,
    policy: usize,
    spec: RunSpec,
    scenario: Scenario,
}

/// The lowered 48-cell matrix.
pub struct Matrix {
    cells: Vec<Cell>,
}

impl Matrix {
    /// Lowers every `(app, policy)` cell to its `RunSpec`.
    pub fn setup(workloads: &[Workload]) -> Matrix {
        let mut cells = Vec::new();
        for (app, workload) in workloads.iter().enumerate() {
            for (policy, p) in Policy::paper_set().iter().enumerate() {
                cells.push(Cell {
                    app,
                    policy,
                    spec: lower(&workload.app, &workload.full, p),
                    scenario: scenario_for(p),
                });
            }
        }
        Matrix { cells }
    }
}

fn run_cell(cell: &Cell, id: usize, tracer: &mut Tracer) -> Result<RunMetrics, String> {
    let outcome = tracer
        .span("engine.execute", Some(id), |_| cell.spec.execute())
        .map_err(|e| e.to_string())?;
    Ok(tracer.span("core.judge", Some(id), |_| {
        let expected = expectations(&cell.spec.app, &cell.spec.trace, cell.scenario);
        RunMetrics::compute(&outcome.report, &expected)
    }))
}

/// Adds one cell's layer counters to the pass totals.
fn add_counters(counters: &mut BTreeMap<&'static str, f64>, m: &RunMetrics) {
    let mut add = |name, value: u64| *counters.entry(name).or_insert(0.0) += value as f64;
    add("engine.frames", m.frames as u64);
    add("css.matches", m.style.matches);
    add("css.bloom_rejects", m.style.bloom_rejects);
    add("style.cache_hits", m.style.cache_hits);
    add("style.cache_misses", m.style.cache_misses);
    add("layout.subtree_reuses", m.layout.subtree_reuses);
    add("layout.elements_laid_out", m.layout.elements_laid_out);
    add("paint.items_reused", m.paint.items_reused);
    add("paint.items_emitted", m.paint.items_emitted);
    add("script.ops", m.script.ops);
    add("script.dispatches", m.script.dispatches);
    add("acmp.dvfs_switches", m.switches.0);
    add("acmp.migrations", m.switches.1);
    *counters.entry("acmp.big_residency_sum").or_insert(0.0) += m.big_residency;
}

impl Workbench for Matrix {
    fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn pass(&mut self, order: &[usize], workers: Jobs, tracer: &mut Tracer) -> Pass {
        let start = Instant::now();
        let results = tracer.span("fleet.run_jobs", None, |tracer| {
            let jobs: Vec<_> = order
                .iter()
                .map(|&id| {
                    let cell = &self.cells[id];
                    let mut worker = tracer.fork();
                    move || {
                        let result = worker.span("cell", Some(id), |w| run_cell(cell, id, w));
                        (id, result, worker.into_spans())
                    }
                })
                .collect();
            let results = run_jobs(jobs, workers);
            results
                .into_iter()
                .map(|(id, result, spans)| {
                    tracer.adopt(spans);
                    (id, result)
                })
                .collect::<Vec<_>>()
        });
        let wall = start.elapsed();
        let mut counters = BTreeMap::new();
        let cells = results
            .into_iter()
            .map(|(id, result)| {
                let cell = &self.cells[id];
                let result = result.map(|metrics| {
                    add_counters(&mut counters, &metrics);
                    CellRecord {
                        fingerprint: metrics.render_json(),
                        sims: vec![SimEntry {
                            app: cell.app,
                            policy: cell.policy,
                            energy_mj: metrics.energy_mj,
                            violation_pct: metrics.violation_pct,
                        }],
                    }
                });
                CellOut { id, result }
            })
            .collect();
        Pass {
            wall,
            cells,
            counters,
        }
    }
}
