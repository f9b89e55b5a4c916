//! `sweep-micro`: the canonical 48-cell micro-trace plan through
//! `run_sweep` (every cell recorded, attributed and appended as a JSONL
//! line), then a resume of the finished file. GreenWeb-I cells are
//! judged against imperceptible targets, the rest against usable ones.

use crate::spans::Tracer;
use crate::{scenario_for, CellOut, CellRecord, Pass, SimEntry, Workbench};
use greenweb_css::{parse_stylesheet, StyleEngine};
use greenweb_dom::parse_html;
use greenweb_engine::{RunBudget, RunSpec};
use greenweb_fleet::Jobs;
use greenweb_script::{compile, parse_program};
use greenweb_trace::AttributionProfile;
use greenweb_workloads::harness::Policy;
use greenweb_workloads::sweep::json::JsonValue;
use greenweb_workloads::sweep::{
    policy_by_name, run_sweep, SweepCell, SweepConfig, SweepPlan, SweepResult,
};
use greenweb_workloads::Workload;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The plan, the checkpoint path, and each label's cell id.
pub struct Sweep {
    plan: SweepPlan,
    ids: HashMap<String, (usize, usize, usize)>,
    out: PathBuf,
}

impl Sweep {
    /// Builds the 48-cell plan; the checkpoint goes to `out`.
    pub fn setup(workloads: &[Workload], out: PathBuf) -> Sweep {
        let mut cells = Vec::new();
        let mut ids = HashMap::new();
        for (app, workload) in workloads.iter().enumerate() {
            for (policy, p) in Policy::paper_set().iter().enumerate() {
                let label = format!("{}/{p}", workload.name);
                ids.insert(label.clone(), (cells.len(), app, policy));
                cells.push(SweepCell {
                    label,
                    policy: p.to_string(),
                    scenario: scenario_for(p),
                    app: workload.app.clone(),
                    trace: workload.micro.clone(),
                    poison: None,
                });
            }
        }
        Sweep {
            plan: SweepPlan {
                cells,
                budget: RunBudget::SWEEP_DEFAULT,
            },
            ids,
            out,
        }
    }

    /// Puts the plan's cells in `order` (cell ids).
    fn reorder(&mut self, order: &[usize]) {
        let mut slots: Vec<Option<SweepCell>> = (0..self.plan.cells.len()).map(|_| None).collect();
        for cell in self.plan.cells.drain(..) {
            let id = self.ids[&cell.label].0;
            slots[id] = Some(cell);
        }
        self.plan.cells = order
            .iter()
            .map(|&id| {
                slots[id]
                    .take()
                    .expect("order is a permutation of the cell ids")
            })
            .collect();
    }

    /// Reads the finished checkpoint back and checks every line.
    fn check_lines(&self) -> Vec<CellOut> {
        let text = fs::read_to_string(&self.out).unwrap_or_default();
        let mut seen = vec![false; self.plan.cells.len()];
        let mut cells = Vec::new();
        for line in text.lines().skip(1) {
            let Ok(value) = JsonValue::parse(line) else {
                continue;
            };
            let Some(&(id, app, policy)) = value
                .get("label")
                .and_then(JsonValue::as_str)
                .and_then(|label| self.ids.get(label))
            else {
                continue;
            };
            seen[id] = true;
            cells.push(CellOut {
                id,
                result: check_line(line, &value, app, policy),
            });
        }
        for (id, seen) in seen.into_iter().enumerate() {
            if !seen {
                cells.push(CellOut {
                    id,
                    result: Err("cell missing from the checkpoint".into()),
                });
            }
        }
        cells
    }
}

fn check_line(
    line: &str,
    value: &JsonValue,
    app: usize,
    policy: usize,
) -> Result<CellRecord, String> {
    if value.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("cell not ok: {line}"));
    }
    let attr = value.get("attr").ok_or("line without attribution")?;
    let field = |name: &str| attr.get(name).and_then(JsonValue::as_f64);
    let phases: f64 = match attr.get("phase_mj") {
        Some(JsonValue::Obj(fields)) => fields.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        _ => return Err("line without phase_mj".into()),
    };
    let (idle, unattributed, total) = (
        field("idle_mj").ok_or("no idle_mj")?,
        field("unattributed_mj").ok_or("no unattributed_mj")?,
        field("total_mj").ok_or("no total_mj")?,
    );
    crate::check_conservation(phases, idle, unattributed, total)?;
    let metrics = value.get("metrics").ok_or("line without metrics")?;
    let metric = |name: &str| {
        metrics
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metrics without {name}"))
    };
    // The job index moves with the cell order; everything after it
    // (label, histogram, attribution, metrics) must not.
    let fingerprint = line
        .find(",\"label\"")
        .map(|at| line[at..].to_string())
        .ok_or("line without label")?;
    Ok(CellRecord {
        fingerprint,
        sims: vec![SimEntry {
            app,
            policy,
            energy_mj: metric("energy_mj")?,
            violation_pct: metric("violation_pct")?,
        }],
    })
}

impl Workbench for Sweep {
    fn cell_count(&self) -> usize {
        self.plan.cells.len()
    }

    /// Times the layers a sweep cell pays for, one call at a time, on
    /// every cell of the plan: HTML and CSS parse, the first cascade,
    /// script compile, an unrecorded and a recorded execute, and
    /// attribution. Returns the recorded runs' event counts.
    fn probe(&self, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
        let mut counters = BTreeMap::new();
        for cell in &self.plan.cells {
            let id = self.ids[&cell.label].0;
            let spec = || {
                let factory = policy_by_name(&cell.policy).expect("plan policies are known");
                RunSpec::new(cell.app.clone(), cell.trace.clone(), factory)
                    .with_budget(self.plan.budget)
            };
            let (plain, recorded) = (spec(), spec().with_recording());
            let css = cell.app.css_source();
            tracer.span("cell", Some(id), |t| {
                let doc = t.span("dom.parse_html", Some(id), |_| parse_html(&cell.app.html));
                let sheet = t.span("css.parse", Some(id), |_| parse_stylesheet(&css));
                if let (Ok(doc), Ok(sheet)) = (doc, sheet) {
                    t.span("css.compute_all", Some(id), |_| {
                        black_box(StyleEngine::new(sheet).compute_all(&doc))
                    });
                }
                t.span("script.compile", Some(id), |_| {
                    for source in &cell.app.scripts {
                        let _ = black_box(parse_program(source).map(|program| compile(&program)));
                    }
                });
                let _ = t.span("engine.execute", Some(id), |_| plain.execute());
                let outcome = t.span("engine.execute_recorded", Some(id), |_| recorded.execute());
                if let Some(buffer) = outcome.ok().and_then(|o| o.trace) {
                    t.span("trace.attribution", Some(id), |_| {
                        AttributionProfile::from_trace(&buffer)
                    });
                    *counters.entry("trace.events").or_insert(0.0) += buffer.events.len() as f64;
                    *counters.entry("trace.dropped").or_insert(0.0) += buffer.dropped as f64;
                }
            });
        }
        counters
    }

    fn pass(&mut self, order: &[usize], workers: Jobs, tracer: &mut Tracer) -> Pass {
        self.reorder(order);
        let config = SweepConfig {
            jobs: workers,
            ..SweepConfig::new(&self.out)
        };
        let start = Instant::now();
        let sweep = tracer.span("workloads.run_sweep", None, |_| {
            run_sweep(&self.plan, &config)
        });
        let resume = tracer.span("workloads.resume", None, |_| {
            run_sweep(
                &self.plan,
                &SweepConfig {
                    resume: true,
                    ..config
                },
            )
        });
        let wall = start.elapsed();
        let n = self.plan.cells.len();
        let problem = match (&sweep, &resume) {
            (Err(e), _) | (_, Err(e)) => Some(e.to_string()),
            (Ok(s), Ok(r)) => sweep_problem(s, r, n),
        };
        let mut cells = self.check_lines();
        if let Some(problem) = problem {
            for cell in &mut cells {
                cell.result = Err(problem.clone());
            }
        }
        Pass {
            wall,
            cells,
            counters: BTreeMap::new(),
        }
    }
}

/// Why a finished sweep and its resume do not count as a clean pass.
fn sweep_problem(sweep: &SweepResult, resume: &SweepResult, cells: usize) -> Option<String> {
    if sweep.exit_code() != 0 || resume.exit_code() != 0 {
        return Some(format!(
            "run_sweep exit codes {} / {} (resume)",
            sweep.exit_code(),
            resume.exit_code()
        ));
    }
    if resume.resumed_jobs != cells {
        return Some(format!(
            "resume skipped {} of {cells} finished cells",
            resume.resumed_jobs
        ));
    }
    None
}
