//! # perfbench
//!
//! The two-clock benchmark of the GreenWeb reproduction. Every run
//! reports the *host* clock (how fast the simulator produces results)
//! and the *simulated* clock (the energy and QoS the paper studies)
//! side by side, never mixed.
//!
//! A run builds one workload ([`Kind`]), warms it up, then repeats
//! passes over its cells for the requested seconds. Each pass visits
//! the cells in an order drawn from the seed, which moves fleet load
//! balance and nothing else: every cell's output is checked against a
//! reference pass run in canonical order on one worker. A traced run
//! (`--trace 1`) instead repeats one pass of each workload with spans
//! around every call into a layer and reports per-layer metrics.
//! `RATIONALE.md` beside this crate records why each workload exists
//! and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

pub mod author;
pub mod calib;
pub mod matrix;
pub mod spans;
pub mod sweep;

use greenweb::qos::Scenario;
use greenweb_det::DetRng;
use greenweb_fleet::Jobs;
use greenweb_workloads::harness::Policy;
use greenweb_workloads::Workload;
use spans::{self_times, Span, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Index of Perf in [`Policy::paper_set`].
pub const PERF: usize = 0;
/// Index of Android's interactive governor in [`Policy::paper_set`].
pub const INTERACTIVE: usize = 1;
/// Index of GreenWeb-I in [`Policy::paper_set`].
pub const GREENWEB_I: usize = 2;
/// Index of GreenWeb-U in [`Policy::paper_set`].
pub const GREENWEB_U: usize = 3;

/// The scenario a policy's cells are judged under: GreenWeb-I against
/// imperceptible targets, everything else against usable ones.
pub fn scenario_for(policy: &Policy) -> Scenario {
    match policy {
        Policy::GreenWeb(scenario) => *scenario,
        _ => Scenario::Usable,
    }
}

/// Attribution conservation, as `tests/trace.rs` pins it: attributed +
/// idle + unattributed energy equals the measured total within 1%.
///
/// # Errors
///
/// Describes the imbalance.
pub fn check_conservation(
    attributed: f64,
    idle: f64,
    unattributed: f64,
    total: f64,
) -> Result<(), String> {
    let accounted = attributed + idle + unattributed;
    if total > 0.0 && (accounted - total).abs() <= total * 0.01 + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "attribution conservation broke: {accounted} mJ accounted vs {total} mJ"
        ))
    }
}

/// One simulated run's energy and QoS, keyed by app and policy.
#[derive(Debug, Clone, Copy)]
pub struct SimEntry {
    /// App index (Table 3 order).
    pub app: usize,
    /// Policy index in [`Policy::paper_set`].
    pub policy: usize,
    /// Simulated energy, mJ.
    pub energy_mj: f64,
    /// Mean QoS violation judged under the policy's scenario, %.
    pub violation_pct: f64,
}

/// A cell's checked output.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Everything the cell produced that must repeat exactly.
    pub fingerprint: String,
    /// The simulated runs inside the cell.
    pub sims: Vec<SimEntry>,
}

/// One cell of a pass: its output, or why it failed.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// The cell id (its index in canonical order).
    pub id: usize,
    /// The output, or the failure.
    pub result: Result<CellRecord, String>,
}

/// One pass over every cell of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Host time of the pass's work (checking excluded).
    pub wall: Duration,
    /// Every cell, in any order.
    pub cells: Vec<CellOut>,
    /// Layer counters summed over the pass.
    pub counters: BTreeMap<&'static str, f64>,
}

/// A built workload that can run passes.
pub trait Workbench {
    /// Cells per pass.
    fn cell_count(&self) -> usize;

    /// Runs every cell once, in `order` (cell ids), on `workers`.
    fn pass(&mut self, order: &[usize], workers: Jobs, tracer: &mut Tracer) -> Pass;

    /// Extra per-layer timings taken outside the pass (see
    /// the sweep's); most workloads have none.
    fn probe(&self, _tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Fig. 10's 48 full-trace cells through `run_jobs`.
    Fig10Full,
    /// The 48-cell micro plan through `run_sweep` and its resume.
    SweepMicro,
    /// AUTOGREEN + GreenLint + runs + exports, one app per cell.
    AutogreenAuthor,
}

impl Kind {
    /// Every workload, in the order a traced run visits them.
    pub const ALL: [Kind; 3] = [Kind::Fig10Full, Kind::SweepMicro, Kind::AutogreenAuthor];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig10Full => "fig10-full",
            Kind::SweepMicro => "sweep-micro",
            Kind::AutogreenAuthor => "autogreen-author",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn setup(self, workloads: &[Workload], dir: &Path) -> Box<dyn Workbench> {
        match self {
            Kind::Fig10Full => Box::new(matrix::Matrix::setup(workloads)),
            Kind::SweepMicro => Box::new(sweep::Sweep::setup(workloads, dir.join("sweep.jsonl"))),
            Kind::AutogreenAuthor => Box::new(author::Author::setup(workloads, dir.to_path_buf())),
        }
    }
}

/// How one run is taken.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seeds the cell order of every pass.
    pub seed: u64,
    /// How long the timed passes (or traced rounds) run.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead.
    pub trace: bool,
    /// Untimed passes before timing starts.
    pub warmup_s: f64,
}

impl Options {
    /// The command-line defaults.
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            kind,
            seed,
            seconds,
            trace,
            warmup_s: 2.0,
        }
    }

    /// One pass of everything: what the smoke test runs.
    pub fn smoke(kind: Kind, trace: bool) -> Options {
        Options {
            warmup_s: 0.0,
            ..Options::new(kind, 1, 0.0, trace)
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// No cell failed.
    pub correct: bool,
    /// Cells run and checked.
    pub attempted: u64,
    /// Cells that failed or produced output differing from the
    /// reference.
    pub failed: u64,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: metric table, simulator error, failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Checks every pass against the reference pass, cell by cell.
#[derive(Debug, Default)]
struct Checker {
    reference: HashMap<(Kind, usize), String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, kind: Kind, id: usize, why: &str) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures
                .push(format!("{} cell {id}: {why}", kind.name()));
        }
    }

    fn check(&mut self, kind: Kind, pass: &Pass) {
        for cell in &pass.cells {
            self.attempted += 1;
            match &cell.result {
                Err(why) => self.fail(kind, cell.id, why),
                Ok(record) => match self.reference.get(&(kind, cell.id)) {
                    None => {
                        self.reference
                            .insert((kind, cell.id), record.fingerprint.clone());
                    }
                    Some(expected) if *expected == record.fingerprint => {}
                    Some(_) => self.fail(kind, cell.id, "output differs from the reference pass"),
                },
            }
        }
    }
}

/// The simulated-clock results of one pass.
#[derive(Debug, Default)]
struct SimTable {
    energy: BTreeMap<(usize, usize), f64>,
    violation: BTreeMap<(usize, usize), f64>,
}

impl SimTable {
    fn from_pass(pass: &Pass) -> SimTable {
        let mut table = SimTable::default();
        for record in pass.cells.iter().filter_map(|c| c.result.as_ref().ok()) {
            for sim in &record.sims {
                table.energy.insert((sim.app, sim.policy), sim.energy_mj);
                table
                    .violation
                    .insert((sim.app, sim.policy), sim.violation_pct);
            }
        }
        table
    }

    /// Mean per-app energy saving of `policy` over `baseline`, %.
    fn saving(&self, policy: usize, baseline: usize) -> f64 {
        mean(self.energy.iter().filter_map(|(&(app, p), &e)| {
            let base = self.energy.get(&(app, baseline))?;
            (p == policy && *base > 0.0).then(|| (1.0 - e / base) * 100.0)
        }))
    }

    /// Mean per-app QoS violation of `policy`, %.
    fn violation(&self, policy: usize) -> f64 {
        mean(
            self.violation
                .iter()
                .filter(|((_, p), _)| *p == policy)
                .map(|(_, v)| *v),
        )
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The `q`-quantile (0..=1) by nearest rank; 0 for no samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Fresh seeded order for one pass.
fn shuffled(n: usize, rng: &mut DetRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".into())
}

/// Scratch space for checkpoints and exports, inside the benchmark's
/// own directory so a run writes nowhere else.
fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Runs the benchmark as `opts` says.
///
/// # Errors
///
/// Returns a message when the run itself cannot proceed (scratch
/// directory, peak-RSS probe); failing cells are reported, not errors.
pub fn run(opts: &Options) -> Result<Report, String> {
    // Unique per run, so concurrent runs (the smoke tests) never share
    // a checkpoint file.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = work_root().join(format!("run-{}-{run_id}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let report = if opts.trace {
        traced_run(opts, &dir)
    } else {
        timed_run(opts, &dir)
    };
    let _ = fs::remove_dir_all(&dir);
    report
}

fn timed_run(opts: &Options, dir: &Path) -> Result<Report, String> {
    let kind = opts.kind;
    let workers = Jobs::auto();
    // Host-clock samples are scaled to the reference host's nominal
    // speed by a calibration timed right after each of them (see
    // `calib`). Set-up is timed once before the first cell and again
    // after every timed pass, so its median spans the same stretch of
    // host time as the passes do.
    let set_up = || {
        let start = Instant::now();
        let built = kind.setup(&greenweb_workloads::all(), dir);
        (start.elapsed().as_secs_f64(), built)
    };
    // Samples are (unscaled value, host slowdown right after it).
    let (first_setup_s, mut bench) = set_up();
    let mut setup_samples = vec![(first_setup_s, calib::slowdown())];
    let n = bench.cell_count();
    let mut rng = DetRng::new(opts.seed).fork("cell-order");
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut checker = Checker::default();

    // The reference pass: canonical order, one worker. Every later
    // pass (any seed, any worker count) must reproduce it exactly.
    let reference = bench.pass(&(0..n).collect::<Vec<_>>(), Jobs::serial(), &mut tracer);
    checker.check(kind, &reference);
    let sims = SimTable::from_pass(&reference);

    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < opts.warmup_s {
        let pass = bench.pass(&shuffled(n, &mut rng), workers, &mut tracer);
        checker.check(kind, &pass);
    }
    let mut rate_samples = Vec::new();
    let timed = Instant::now();
    while rate_samples.is_empty() || timed.elapsed().as_secs_f64() < opts.seconds {
        let pass = bench.pass(&shuffled(n, &mut rng), workers, &mut tracer);
        checker.check(kind, &pass);
        let setup_s = set_up().0;
        let slowdown = calib::slowdown();
        rate_samples.push((n as f64 / pass.wall.as_secs_f64(), slowdown));
        setup_samples.push((setup_s, slowdown));
    }
    let column = |samples: &[(f64, f64)], f: fn(&(f64, f64)) -> f64| {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    };

    let ok_pct = 100.0
        * ratio(
            (checker.attempted - checker.failed) as f64,
            checker.attempted as f64,
        );
    let metrics = vec![
        Metric {
            name: "cells_per_s",
            value: column(&rate_samples, |(rate, slowdown)| rate * slowdown),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: column(&setup_samples, |(secs, slowdown)| secs / slowdown),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
        },
        Metric {
            name: "ok_pct",
            value: ok_pct,
            unit: "%",
        },
        Metric {
            name: "sim_saving_i_pct",
            value: sims.saving(GREENWEB_I, PERF),
            unit: "%",
        },
        Metric {
            name: "sim_saving_u_pct",
            value: sims.saving(GREENWEB_U, PERF),
            unit: "%",
        },
        Metric {
            name: "sim_violation_i_pct",
            value: sims.violation(GREENWEB_I),
            unit: "%",
        },
        Metric {
            name: "sim_violation_u_pct",
            value: sims.violation(GREENWEB_U),
            unit: "%",
        },
    ];
    let mut notes = vec![
        format!(
            "{}: {} timed passes of {n} cells on {} workers; fail_pct {:.3}% ({} of {} cells)",
            kind.name(),
            rate_samples.len(),
            workers.count(),
            100.0 - ok_pct,
            checker.failed,
            checker.attempted,
        ),
        format!(
            "host ran {:.3}x slower than nominal; unscaled: {:.3} cells/s, set-up {:.6} s",
            column(&rate_samples, |(_, slowdown)| *slowdown),
            column(&rate_samples, |(rate, _)| *rate),
            column(&setup_samples, |(secs, _)| *secs),
        ),
    ];
    notes.extend(
        metrics
            .iter()
            .map(|m| format!("  {:<20} {:>14.6} {}", m.name, m.value, m.unit)),
    );
    notes.extend(simulator_error(kind, &sims));
    notes.extend(checker.failures.iter().map(|f| format!("FAILED {f}")));
    Ok(Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
    })
}

/// The measured saving next to the paper's, per workload (informational).
fn simulator_error(kind: Kind, sims: &SimTable) -> Vec<String> {
    let compare = |label: &str, measured: f64, paper: f64| {
        format!(
            "  {label}: measured {measured:.1}% vs paper {paper:.1}% (error {:+.1} pp)",
            measured - paper
        )
    };
    match kind {
        Kind::SweepMicro => vec![
            "simulator error vs Fig. 9a (micro, saving vs Perf):".to_string(),
            compare("GreenWeb-I", sims.saving(GREENWEB_I, PERF), 31.9),
            compare("GreenWeb-U", sims.saving(GREENWEB_U, PERF), 78.0),
        ],
        Kind::Fig10Full => vec![
            "simulator error vs Fig. 10a (full traces, saving vs Interactive):".to_string(),
            compare("GreenWeb-I", sims.saving(GREENWEB_I, INTERACTIVE), 29.2),
            compare("GreenWeb-U", sims.saving(GREENWEB_U, INTERACTIVE), 66.0),
        ],
        Kind::AutogreenAuthor => vec![
            "simulator error: the paper reports no saving for AUTOGREEN-annotated apps, \
             so these sim_* figures are unvalidated"
                .to_string(),
        ],
    }
}

/// Spans of one traced pass (or probe), kept until the run ends.
struct TracedPass {
    label: &'static str,
    round: usize,
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl TracedPass {
    fn new(label: &'static str, round: usize, spans: Vec<Span>) -> TracedPass {
        let self_ns = self_times(&spans);
        TracedPass {
            label,
            round,
            spans,
            self_ns,
        }
    }

    /// Self times (ns) of every span named `name`.
    fn self_ns_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(move |(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
    }

    /// Total self time of `name` in this pass, ms.
    fn total_ms(&self, name: &str) -> f64 {
        self.self_ns_of(name).sum::<f64>() / 1e6
    }

    /// Wall duration of the spans named `name`, ms.
    fn duration_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }
}

fn traced_run(opts: &Options, dir: &Path) -> Result<Report, String> {
    let origin = Instant::now();
    let workloads = greenweb_workloads::all();
    let workers = Jobs::auto();
    let mut rng = DetRng::new(opts.seed).fork("cell-order");
    let mut checker = Checker::default();
    let mut benches: Vec<(Kind, Box<dyn Workbench>)> = Kind::ALL
        .into_iter()
        .map(|kind| (kind, kind.setup(&workloads, dir)))
        .collect();
    drop(workloads);

    // Reference passes (canonical order, one worker) and layer counters.
    let mut counters: BTreeMap<(Kind, &'static str), f64> = BTreeMap::new();
    for (kind, bench) in &mut benches {
        let n = bench.cell_count();
        let reference = bench.pass(
            &(0..n).collect::<Vec<_>>(),
            Jobs::serial(),
            &mut Tracer::new(origin, false),
        );
        checker.check(*kind, &reference);
        counters.extend(reference.counters.iter().map(|(&k, &v)| ((*kind, k), v)));
    }

    let mut traced = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut fleet_efficiency = Vec::new();
    let mut slowdowns = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        for (kind, bench) in &mut benches {
            let order = shuffled(bench.cell_count(), &mut rng);
            let plain = bench.pass(&order, workers, &mut Tracer::new(origin, false));
            checker.check(*kind, &plain);
            let mut tracer = Tracer::new(origin, true);
            let pass = bench.pass(&order, workers, &mut tracer);
            checker.check(*kind, &pass);
            untraced_s += plain.wall.as_secs_f64();
            traced_s += pass.wall.as_secs_f64();
            let pass = TracedPass::new(kind.name(), round, tracer.into_spans());
            if *kind == Kind::Fig10Full {
                let busy = pass.duration_ms("cell");
                let wall = pass.duration_ms("fleet.run_jobs");
                let lanes = workers.count().min(bench.cell_count()) as f64;
                fleet_efficiency.push(ratio(busy, wall * lanes));
            }
            traced.push(pass);
            let mut tracer = Tracer::new(origin, true);
            let probed = bench.probe(&mut tracer);
            let spans = tracer.into_spans();
            if !spans.is_empty() {
                traced.push(TracedPass::new("probe", round, spans));
                if round == 0 {
                    counters.extend(probed.into_iter().map(|(k, v)| ((*kind, k), v)));
                }
            }
        }
        slowdowns.push(calib::slowdown());
        round += 1;
    }

    fn of<'a>(traced: &'a [TracedPass], label: &'a str) -> impl Iterator<Item = &'a TracedPass> {
        traced.iter().filter(move |p| p.label == label)
    }
    let samples = |label: &str, name: &str| -> Vec<f64> {
        of(&traced, label)
            .flat_map(|p| p.self_ns_of(name))
            .collect()
    };
    let per_pass = |label: &str, f: &dyn Fn(&TracedPass) -> f64| -> f64 {
        median(&of(&traced, label).map(f).collect::<Vec<_>>())
    };
    let counter = |kind: Kind, name: &str| counters.get(&(kind, name)).copied().unwrap_or(0.0);
    let fig10 = |name: &str| counter(Kind::Fig10Full, name);
    let execute_ns = samples("fig10-full", "engine.execute");
    let fig10_passes = of(&traced, "fig10-full").count() as f64;
    let cells = benches[0].1.cell_count() as f64;
    let us = |label: &str, name: &str| median(&samples(label, name)) / 1e3;
    let metrics = vec![
        Metric {
            name: "engine.execute_ms_p50",
            value: quantile(&execute_ns, 0.50) / 1e6,
            unit: "ms",
        },
        Metric {
            name: "engine.execute_ms_p95",
            value: quantile(&execute_ns, 0.95) / 1e6,
            unit: "ms",
        },
        Metric {
            name: "engine.host_ns_per_frame",
            value: ratio(
                execute_ns.iter().sum(),
                fig10("engine.frames") * fig10_passes,
            ),
            unit: "ns",
        },
        Metric {
            name: "dom.parse_html_us",
            value: us("probe", "dom.parse_html"),
            unit: "us",
        },
        Metric {
            name: "css.parse_us",
            value: us("probe", "css.parse"),
            unit: "us",
        },
        Metric {
            name: "css.compute_all_us",
            value: us("probe", "css.compute_all"),
            unit: "us",
        },
        Metric {
            name: "script.compile_us",
            value: us("probe", "script.compile"),
            unit: "us",
        },
        Metric {
            name: "core.judge_us",
            value: us("fig10-full", "core.judge"),
            unit: "us",
        },
        Metric {
            name: "fleet.efficiency",
            value: median(&fleet_efficiency),
            unit: "ratio",
        },
        Metric {
            name: "trace.record_overhead_pct",
            value: 100.0
                * (ratio(
                    samples("probe", "engine.execute_recorded").iter().sum(),
                    samples("probe", "engine.execute").iter().sum(),
                ) - 1.0),
            unit: "%",
        },
        Metric {
            name: "trace.attribution_ms",
            value: per_pass("probe", &|p| p.total_ms("trace.attribution")),
            unit: "ms",
        },
        Metric {
            name: "workloads.sweep_ms",
            value: per_pass("sweep-micro", &|p| p.duration_ms("workloads.run_sweep")),
            unit: "ms",
        },
        Metric {
            name: "workloads.resume_ms",
            value: per_pass("sweep-micro", &|p| p.duration_ms("workloads.resume")),
            unit: "ms",
        },
        Metric {
            name: "trace.export_ms",
            value: per_pass("autogreen-author", &|p| p.total_ms("trace.export")),
            unit: "ms",
        },
        Metric {
            name: "trace.export_mb",
            value: counter(Kind::AutogreenAuthor, "trace.export_bytes") / 1e6,
            unit: "MB",
        },
        Metric {
            name: "core.autogreen_ms",
            value: per_pass("autogreen-author", &|p| p.total_ms("core.autogreen")),
            unit: "ms",
        },
        Metric {
            name: "analyze.lint_ms",
            value: per_pass("autogreen-author", &|p| p.total_ms("analyze.lint")),
            unit: "ms",
        },
        Metric {
            name: "bench.trace_overhead_pct",
            value: 100.0 * (ratio(traced_s, untraced_s) - 1.0),
            unit: "%",
        },
        Metric {
            name: "bench.host_slowdown",
            value: median(&slowdowns),
            unit: "ratio",
        },
        Metric {
            name: "engine.frames",
            value: fig10("engine.frames"),
            unit: "count",
        },
        Metric {
            name: "css.matches",
            value: fig10("css.matches"),
            unit: "count",
        },
        Metric {
            name: "css.bloom_rejects",
            value: fig10("css.bloom_rejects"),
            unit: "count",
        },
        Metric {
            name: "engine.style_cache_hit_ratio",
            value: ratio(
                fig10("style.cache_hits"),
                fig10("style.cache_hits") + fig10("style.cache_misses"),
            ),
            unit: "ratio",
        },
        Metric {
            name: "engine.layout_reuse_ratio",
            value: ratio(
                fig10("layout.subtree_reuses"),
                fig10("layout.subtree_reuses") + fig10("layout.elements_laid_out"),
            ),
            unit: "ratio",
        },
        Metric {
            name: "engine.paint_reuse_ratio",
            value: ratio(
                fig10("paint.items_reused"),
                fig10("paint.items_reused") + fig10("paint.items_emitted"),
            ),
            unit: "ratio",
        },
        Metric {
            name: "script.ops",
            value: fig10("script.ops"),
            unit: "count",
        },
        Metric {
            name: "script.dispatches",
            value: fig10("script.dispatches"),
            unit: "count",
        },
        Metric {
            name: "acmp.dvfs_switches",
            value: fig10("acmp.dvfs_switches"),
            unit: "count",
        },
        Metric {
            name: "acmp.migrations",
            value: fig10("acmp.migrations"),
            unit: "count",
        },
        Metric {
            name: "acmp.big_residency",
            value: ratio(fig10("acmp.big_residency_sum"), cells),
            unit: "ratio",
        },
        Metric {
            name: "trace.events",
            value: counter(Kind::SweepMicro, "trace.events"),
            unit: "count",
        },
        Metric {
            name: "trace.dropped",
            value: counter(Kind::SweepMicro, "trace.dropped"),
            unit: "count",
        },
        Metric {
            name: "analyze.diagnostics",
            value: counter(Kind::AutogreenAuthor, "analyze.diagnostics"),
            unit: "count",
        },
        Metric {
            name: "core.autogreen_annotations",
            value: counter(Kind::AutogreenAuthor, "core.autogreen_annotations"),
            unit: "count",
        },
    ];
    write_spans(opts, &traced)?;
    let mut notes = vec![format!(
        "traced run: {round} round(s) of every workload on {} workers; {} of {} cells failed",
        workers.count(),
        checker.failed,
        checker.attempted
    )];
    notes.extend(
        metrics
            .iter()
            .map(|m| format!("  {:<30} {:>14.6} {}", m.name, m.value, m.unit)),
    );
    notes.extend(checker.failures.iter().map(|f| format!("FAILED {f}")));
    Ok(Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
    })
}

/// Writes every span of the traced run once, as JSON lines.
fn write_spans(opts: &Options, passes: &[TracedPass]) -> Result<(), String> {
    let mut out = String::new();
    for pass in passes {
        for (span, self_ns) in pass.spans.iter().zip(&pass.self_ns) {
            let _ = writeln!(
                out,
                "{{\"pass\":\"{}\",\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"parent\":{},\"cell\":{}}}",
                pass.label,
                pass.round,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.cell.map_or("null".to_string(), |c| c.to_string()),
            );
        }
    }
    let path = work_root().join(format!(
        "spans-{}-seed{}.jsonl",
        opts.kind.name(),
        opts.seed
    ));
    fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}
