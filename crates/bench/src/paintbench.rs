//! The paint/layout microbenchmark suite (`evaluate bench --suite
//! paint`).
//!
//! For each of the 12 workloads the suite runs the *micro* interaction
//! trace twice — once with the incremental render pipeline disabled
//! (the naive full-relayout oracle, [`OraclePair::PAINT_INCREMENTAL`]'s
//! naive side) and once
//! enabled — and reports only deterministic counters: elements laid
//! out, subtree reuses, dirty elements, damage items, and the
//! full/partial repaint split. No wall-clock number participates in
//! any assertion.
//!
//! The suite's acceptance gate encodes the incremental-rendering
//! contract (DESIGN.md §6k):
//!
//! * **the oracle agrees** — the incremental run's metrics JSON, masked
//!   by [`OraclePair::PAINT_INCREMENTAL`], equals the naive run's, per
//!   workload. Pricing inputs are computed identically in both modes;
//!   the flag only gates the cache-reuse machinery;
//! * **the caches engage** — across the suite the incremental path
//!   measures ≥ 3× fewer elements than the oracle, reuses at least one
//!   clean subtree, and performs at least one partial repaint;
//! * **the dirty/damage accounting is mode-independent** — both runs
//!   report identical `dirty_elements` and `damage_items`, the numbers
//!   the cost model prices.

use crate::suites::{ensure, SuiteReport};
use greenweb::metrics::RunMetrics;
use greenweb_engine::{LayoutStats, OraclePair, Oracles, PaintStats, RunSpec, SimReport, Trace};
use greenweb_workloads::harness::Policy;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The gate's floor on the naive / incremental laid-out-element ratio.
const MIN_LAYOUT_RATIO: f64 = 3.0;

/// One benchmarked workload: render counters from both modes plus the
/// oracle comparison.
#[derive(Debug, Clone)]
pub struct PaintBenchRow {
    /// Workload name.
    pub name: String,
    /// Elements in the workload's document at load.
    pub elements: usize,
    /// Layout counters of the naive (full-relayout) run.
    pub naive_layout: LayoutStats,
    /// Paint counters of the naive run.
    pub naive_paint: PaintStats,
    /// Layout counters of the incremental run.
    pub layout: LayoutStats,
    /// Paint counters of the incremental run.
    pub paint: PaintStats,
    /// Whether the two runs rendered the same metrics JSON outside the
    /// paint-incremental pair's masked counters (the mode-independence
    /// contract).
    pub identical: bool,
}

/// The whole suite: per-workload rows plus aggregate accessors.
#[derive(Debug, Clone)]
pub struct PaintBenchReport {
    /// One row per workload.
    pub rows: Vec<PaintBenchRow>,
}

impl PaintBenchReport {
    /// Whether every workload's incremental run matched its oracle run.
    pub fn identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Whether every row's priced counters (`dirty_elements`,
    /// `damage_items`) are identical between the two modes.
    pub fn pricing_mode_independent(&self) -> bool {
        self.rows.iter().all(|r| {
            r.naive_layout.dirty_elements == r.layout.dirty_elements
                && r.naive_paint.damage_items == r.paint.damage_items
        })
    }

    /// Total elements the naive oracle measured across the suite.
    pub fn total_naive_laid_out(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.naive_layout.elements_laid_out)
            .sum()
    }

    /// Total elements the incremental path measured across the suite.
    pub fn total_laid_out(&self) -> u64 {
        self.rows.iter().map(|r| r.layout.elements_laid_out).sum()
    }

    /// naive / incremental laid-out-element ratio — the suite's
    /// headline number.
    pub fn layout_ratio(&self) -> f64 {
        self.total_naive_laid_out() as f64 / (self.total_laid_out().max(1)) as f64
    }

    /// Total clean subtrees the incremental path served from cache.
    pub fn total_subtree_reuses(&self) -> u64 {
        self.rows.iter().map(|r| r.layout.subtree_reuses).sum()
    }

    /// Total partial repaints across the suite (incremental run; the
    /// full/partial split is mode-independent).
    pub fn total_partial_repaints(&self) -> u64 {
        self.rows.iter().map(|r| r.paint.partial_repaints).sum()
    }
}

impl SuiteReport for PaintBenchReport {
    /// 12 rows, results identical, pricing counters mode-independent,
    /// ≥ 3× fewer elements laid out, subtree reuses and partial repaints
    /// observed, and on every row an oracle that never reused a subtree
    /// and frames rendered in both modes.
    fn gate(&self) -> Result<(), String> {
        let rows = self.rows.len();
        ensure!(rows == 12, "expected 12 workloads, got {rows} rows");
        ensure!(
            self.identical(),
            "incremental rendering diverged from the naive oracle"
        );
        ensure!(
            self.pricing_mode_independent(),
            "dirty/damage counters differed between rendering modes"
        );
        ensure!(
            self.layout_ratio() >= MIN_LAYOUT_RATIO,
            "incremental layout must measure >= {MIN_LAYOUT_RATIO}x fewer elements, \
             got {:.2}x ({} naive vs {} incremental)",
            self.layout_ratio(),
            self.total_naive_laid_out(),
            self.total_laid_out(),
        );
        ensure!(self.total_subtree_reuses() > 0, "no subtree reuses");
        ensure!(self.total_partial_repaints() > 0, "no partial repaints");
        for row in &self.rows {
            let (name, naive) = (&row.name, &row.naive_layout);
            ensure!(
                naive.subtree_reuses == 0,
                "{name}: oracle reused a subtree: {naive:?}"
            );
            ensure!(
                naive.relayouts > 0 && row.layout.relayouts > 0,
                "{name}: no frames rendered"
            );
        }
        Ok(())
    }

    fn render_json(&self) -> String {
        let mut out = String::from("{\"suite\":\"paint\",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":\"{}\",\"elements\":{},\"frames\":{},\
                 \"naive_laid_out\":{},\"laid_out\":{},\"subtree_reuses\":{},\
                 \"dirty_elements\":{},\"damage_items\":{},\"damage_area\":{},\
                 \"items_reused\":{},\"full_repaints\":{},\"partial_repaints\":{}}}",
                row.name,
                row.elements,
                row.layout.relayouts,
                row.naive_layout.elements_laid_out,
                row.layout.elements_laid_out,
                row.layout.subtree_reuses,
                row.layout.dirty_elements,
                row.paint.damage_items,
                row.paint.damage_area,
                row.paint.items_reused,
                row.paint.full_repaints,
                row.paint.partial_repaints,
            );
        }
        let _ = writeln!(
            out,
            "],\"total\":{{\"naive_laid_out\":{},\"laid_out\":{},\
             \"layout_ratio\":{:.2},\"subtree_reuses\":{},\"partial_repaints\":{},\
             \"pricing_mode_independent\":{}}},\"identical\":{}}}",
            self.total_naive_laid_out(),
            self.total_laid_out(),
            self.layout_ratio(),
            self.total_subtree_reuses(),
            self.total_partial_repaints(),
            self.pricing_mode_independent(),
            self.identical(),
        );
        out
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "paint microbenchmark: naive full relayout vs incremental \
             (all counters deterministic)"
        );
        let _ = writeln!(
            out,
            "{:<11} {:>5} {:>6} {:>9} {:>8} {:>7} {:>6} {:>7} {:>5} {:>8}",
            "workload",
            "elems",
            "frames",
            "naive-lay",
            "incr-lay",
            "reuses",
            "dirty",
            "damage",
            "full",
            "partial"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<11} {:>5} {:>6} {:>9} {:>8} {:>7} {:>6} {:>7} {:>5} {:>8}",
                row.name,
                row.elements,
                row.layout.relayouts,
                row.naive_layout.elements_laid_out,
                row.layout.elements_laid_out,
                row.layout.subtree_reuses,
                row.layout.dirty_elements,
                row.paint.damage_items,
                row.paint.full_repaints,
                row.paint.partial_repaints,
            );
        }
        let _ = writeln!(
            out,
            "total: naive {} vs incremental {} elements laid out \
             ({:.1}x fewer), {} subtree reuses, {} partial repaints, \
             results {}",
            self.total_naive_laid_out(),
            self.total_laid_out(),
            self.layout_ratio(),
            self.total_subtree_reuses(),
            self.total_partial_repaints(),
            if self.identical() {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        out
    }
}

/// Runs one workload trace under Perf with the given oracle sides.
fn run_on(app: &greenweb_engine::App, trace: &Trace, oracles: Oracles) -> SimReport {
    RunSpec::new(app.clone(), trace.clone(), Box::new(Policy::Perf))
        .with_oracles(oracles)
        .execute()
        .expect("workload runs")
        .report
}

/// The oracle check: identical metrics JSON outside the counters the
/// paint-incremental pair may change (machinery-independent pricing).
fn reports_agree(incr: &SimReport, naive: &SimReport) -> bool {
    let json = |r| RunMetrics::parity_json(r, &HashMap::new(), &OraclePair::PAINT_INCREMENTAL);
    json(incr) == json(naive)
}

/// Runs the suite over all 12 workloads' micro traces.
pub fn run_suite() -> PaintBenchReport {
    let mut rows = Vec::new();
    for w in greenweb_workloads::all() {
        let naive = run_on(&w.app, &w.micro, OraclePair::PAINT_INCREMENTAL.naive);
        let incr = run_on(&w.app, &w.micro, Oracles::default());
        let doc = greenweb_dom::parse_html(&w.app.html).expect("workload html parses");
        let elements = doc
            .descendants(doc.root())
            .filter(|&n| doc.element(n).is_some())
            .count();
        rows.push(PaintBenchRow {
            name: w.name.to_string(),
            elements,
            identical: reports_agree(&incr, &naive),
            naive_layout: naive.layout,
            naive_paint: naive.paint,
            layout: incr.layout,
            paint: incr.paint,
        });
    }
    PaintBenchReport { rows }
}
