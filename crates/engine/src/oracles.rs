//! Which side of each optimized-path / oracle pair a browser runs.
//!
//! The simulator keeps four optimizations, each beside the naive path
//! it must reproduce byte for byte: the computed-style cache, the
//! bytecode VM (oracle: the tree-walking interpreter), incremental
//! layout/paint (oracle: full relayout and repaint every frame), and
//! summary-gated invalidation (oracle: clear-all on every structural
//! mutation). [`Oracles`] selects a side for each; its `Default` is the
//! production paths. It is passed to the browser at construction
//! ([`crate::Browser::with_oracles`]) or carried by a
//! [`crate::RunSpec`], where it is excluded from the digest: both sides
//! of every pair produce the same results.
//!
//! [`ORACLE_PAIRS`] lists each pair once, with how to select its naive
//! side, the counters that pair may legitimately change, and a counter
//! that proves the optimized side actually engaged. The parity test
//! runs every pair over every bundled workload from this table.

use crate::report::SimReport;
use greenweb_css::StyleStats;

/// Which side of each oracle pair runs, plus whether containment
/// violations trip a debug assertion. `Default` is the production
/// configuration: every optimization on, assertions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracles {
    /// Memoize computed styles (off: resolve every query afresh).
    pub style_cache: bool,
    /// Execute callbacks on the bytecode VM (off: the tree-walking
    /// interpreter, whose per-op ticks define the cost model).
    pub script_vm: bool,
    /// Reuse clean layout subtrees and the retained display list (off:
    /// measure every element and repaint everything every frame).
    pub paint_incremental: bool,
    /// Downgrade clear-all style invalidations to subtree invalidation
    /// when a handler's effect summary proves no structural mutation
    /// (off: always clear all). Containment checks run either way.
    pub effect_gate: bool,
    /// Trip a debug assertion on a `dynamic ⊆ static` containment
    /// violation. Poison harnesses, which attach deliberately wrong
    /// summaries, turn this off to observe violations in the report.
    pub containment_asserts: bool,
}

impl Oracles {
    /// The production configuration (the `Default`).
    pub const PRODUCTION: Oracles = Oracles {
        style_cache: true,
        script_vm: true,
        paint_incremental: true,
        effect_gate: true,
        containment_asserts: true,
    };
}

impl Default for Oracles {
    fn default() -> Self {
        Oracles::PRODUCTION
    }
}

/// One optimized path and its oracle.
#[derive(Debug, Clone, Copy)]
pub struct OraclePair {
    /// Human-readable name of the pair.
    pub name: &'static str,
    /// The configuration that runs this pair's naive side (everything
    /// else production).
    pub naive: Oracles,
    /// Zeroes exactly the report counters this pair may change. Masked
    /// reports from the two sides must render identical metrics.
    pub mask: fn(&mut SimReport),
    /// A counter that is positive only when the optimized side engaged:
    /// zero on every naive run, positive on some production run.
    pub witness: fn(&SimReport) -> u64,
}

/// Zeroes the style counters that count resolve work (resolves, exact
/// matches and their bucket split, Bloom rejects, cache hits/misses): a
/// cached resolve or a skipped subtree changes how many resolves run,
/// never what they return. The avoided-clear count is kept.
fn mask_style_resolves(r: &mut SimReport) {
    r.style = StyleStats {
        cache_invalidations_avoided: r.style.cache_invalidations_avoided,
        ..StyleStats::default()
    };
}

/// Zeroes every style counter: the resolve work plus the avoided-clear
/// count, which moves only while both the cache and the effect gate
/// are on.
fn mask_style(r: &mut SimReport) {
    r.style = StyleStats::default();
}

impl OraclePair {
    /// The computed-style cache vs resolving every query afresh.
    pub const STYLE_CACHE: OraclePair = OraclePair {
        name: "style cache",
        naive: Oracles {
            style_cache: false,
            ..Oracles::PRODUCTION
        },
        mask: mask_style,
        witness: |r| r.style.cache_hits,
    };

    /// The bytecode VM vs the tree-walking interpreter.
    pub const SCRIPT_VM: OraclePair = OraclePair {
        name: "script VM",
        naive: Oracles {
            script_vm: false,
            ..Oracles::PRODUCTION
        },
        mask: |r| {
            r.script.compiles = 0;
            r.script.precompiled_hits = 0;
            r.script.handler_recompiles = 0;
            r.script.dispatches = 0;
        },
        witness: |r| r.script.dispatches,
    };

    /// Incremental layout/paint vs full relayout and repaint.
    pub const PAINT_INCREMENTAL: OraclePair = OraclePair {
        name: "paint incremental",
        naive: Oracles {
            paint_incremental: false,
            ..Oracles::PRODUCTION
        },
        mask: |r| {
            // Reused subtrees skip style resolution entirely.
            mask_style_resolves(r);
            r.layout.elements_laid_out = 0;
            r.layout.subtree_reuses = 0;
            r.paint.items_emitted = 0;
            r.paint.items_reused = 0;
        },
        witness: |r| r.layout.subtree_reuses,
    };

    /// Summary-gated invalidation vs clear-all on every mutation.
    pub const EFFECT_GATE: OraclePair = OraclePair {
        name: "effect gate",
        naive: Oracles {
            effect_gate: false,
            ..Oracles::PRODUCTION
        },
        mask: mask_style,
        witness: |r| r.style.cache_invalidations_avoided,
    };
}

/// Every oracle pair, once.
pub const ORACLE_PAIRS: [OraclePair; 4] = [
    OraclePair::STYLE_CACHE,
    OraclePair::SCRIPT_VM,
    OraclePair::PAINT_INCREMENTAL,
    OraclePair::EFFECT_GATE,
];
