//! The run's counter table: every deterministic run counter once, with
//! the surfaces it reaches.
//!
//! Producers increment the typed structs ([`StyleStats`],
//! [`ScriptStats`], [`LayoutStats`], [`PaintStats`]); [`COUNTERS`] says,
//! per counter, which group and JSON key it has, how to read it, and
//! where it is reported: the metrics JSON's trailing objects
//! (`RunMetrics::render_json` in the `greenweb` crate) and the
//! end-of-run trace records ([`CounterRecord`]). The trace registry,
//! Chrome export and attribution profile render those records
//! generically, so adding a counter to every surface is one row.
//!
//! Row order is each surface's key order, so every surface renders in
//! one loop over the table.

use crate::layout::{LayoutStats, PaintStats};
use greenweb_css::StyleStats;
use greenweb_script::ScriptStats;
use greenweb_trace::{EventKind, RENDER_STATS, STYLE_STATS};
use std::fmt::Write as _;

/// The typed counter structs of one run, as [`COUNTERS`] reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Style-system counters.
    pub style: StyleStats,
    /// Script-pipeline counters.
    pub script: ScriptStats,
    /// Layout-stage counters.
    pub layout: LayoutStats,
    /// Paint-stage counters.
    pub paint: PaintStats,
}

/// An end-of-run trace record carrying a slice of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterRecord {
    /// [`STYLE_STATS`]: selector matching, Bloom rejects, style cache.
    Style,
    /// [`RENDER_STATS`]: layout dirtiness/reuse and paint damage.
    Render,
}

/// One run counter and the surfaces it reaches.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// Subsystem group: `"style"`, `"script"`, `"layout"` or `"paint"`.
    /// Names the metrics-JSON object and the registry prefix.
    pub group: &'static str,
    /// JSON key (and registry suffix).
    pub key: &'static str,
    /// Reads the counter from the typed structs.
    pub value: fn(&RunCounters) -> u64,
    /// Whether the metrics JSON reports it.
    pub metrics: bool,
    /// The trace record that carries it, if any.
    pub record: Option<CounterRecord>,
}

const fn row(
    group: &'static str,
    key: &'static str,
    value: fn(&RunCounters) -> u64,
    metrics: bool,
    record: Option<CounterRecord>,
) -> Counter {
    Counter {
        group,
        key,
        value,
        metrics,
        record,
    }
}

const STYLE: Option<CounterRecord> = Some(CounterRecord::Style);
const RENDER: Option<CounterRecord> = Some(CounterRecord::Render);

/// Every run counter, in each surface's key order. Columns: group, key,
/// value, reported in the metrics JSON, trace record. Rows of one group
/// are contiguous.
#[rustfmt::skip]
pub const COUNTERS: &[Counter] = &[
    row("style", "resolves", |c| c.style.resolves, true, STYLE),
    row("style", "matches", |c| c.style.matches, true, STYLE),
    row("style", "matches_id", |c| c.style.matches_id, false, STYLE),
    row("style", "matches_class", |c| c.style.matches_class, false, STYLE),
    row("style", "matches_tag", |c| c.style.matches_tag, false, STYLE),
    row("style", "matches_universal", |c| c.style.matches_universal, false, STYLE),
    row("style", "bloom_rejects", |c| c.style.bloom_rejects, true, STYLE),
    row("style", "cache_hits", |c| c.style.cache_hits, true, STYLE),
    row("style", "cache_misses", |c| c.style.cache_misses, true, STYLE),
    row("style", "cache_invalidations_avoided", |c| c.style.cache_invalidations_avoided, true, STYLE),
    row("script", "programs", |c| c.script.programs, true, None),
    row("script", "compiles", |c| c.script.compiles, true, None),
    row("script", "precompiled_hits", |c| c.script.precompiled_hits, true, None),
    row("script", "handlers", |c| c.script.handlers, true, None),
    row("script", "handler_recompiles", |c| c.script.handler_recompiles, true, None),
    row("script", "callbacks", |c| c.script.callbacks, true, None),
    row("script", "ops", |c| c.script.ops, true, None),
    row("script", "dispatches", |c| c.script.dispatches, true, None),
    row("script", "fold_wins", |c| c.script.fold_wins, true, None),
    row("layout", "relayouts", |c| c.layout.relayouts, true, RENDER),
    row("layout", "elements_laid_out", |c| c.layout.elements_laid_out, true, RENDER),
    row("layout", "subtree_reuses", |c| c.layout.subtree_reuses, true, RENDER),
    row("layout", "dirty_elements", |c| c.layout.dirty_elements, true, RENDER),
    row("paint", "full_repaints", |c| c.paint.full_repaints, true, RENDER),
    row("paint", "partial_repaints", |c| c.paint.partial_repaints, true, RENDER),
    row("paint", "items_emitted", |c| c.paint.items_emitted, true, RENDER),
    row("paint", "items_reused", |c| c.paint.items_reused, true, RENDER),
    row("paint", "damage_items", |c| c.paint.damage_items, true, RENDER),
    row("paint", "damage_area", |c| c.paint.damage_area, true, RENDER),
];

impl CounterRecord {
    /// The record's trace event name.
    pub fn name(self) -> &'static str {
        match self {
            CounterRecord::Style => STYLE_STATS,
            CounterRecord::Render => RENDER_STATS,
        }
    }

    /// The record's export category.
    pub fn cat(self) -> &'static str {
        match self {
            CounterRecord::Style => "style",
            CounterRecord::Render => "render",
        }
    }
}

impl RunCounters {
    /// The trace event carrying `record`'s rows, in table order.
    pub fn record_event(&self, record: CounterRecord) -> EventKind {
        EventKind::Counters {
            name: record.name(),
            cat: record.cat(),
            values: COUNTERS
                .iter()
                .filter(|c| c.record == Some(record))
                .map(|c| (c.group, c.key, (c.value)(self)))
                .collect(),
        }
    }

    /// Appends the metrics-JSON counter objects — `"style":{…}`,
    /// `"script":{…}`, `"layout":{…}`, `"paint":{…}`, comma-separated —
    /// with every metrics row in table order.
    pub fn push_metrics_json(&self, out: &mut String) {
        let mut group = "";
        for c in COUNTERS.iter().filter(|c| c.metrics) {
            if c.group == group {
                out.push(',');
            } else {
                if !group.is_empty() {
                    out.push_str("},");
                }
                group = c.group;
                let _ = write!(out, "\"{group}\":{{");
            }
            let _ = write!(out, "\"{}\":{}", c.key, (c.value)(self));
        }
        if !group.is_empty() {
            out.push('}');
        }
    }
}
