//! The generic counter record on every trace surface: the Chrome export,
//! the metrics registry, and the attribution profile.
//!
//! Every value is distinct and non-zero, so a surface that swaps, drops
//! or renames a key fails here — which zero-valued real runs cannot
//! show.

use greenweb_acmp::SimTime;
use greenweb_trace::{
    chrome_trace_json, AttributionProfile, CounterRow, EventKind, MetricsRegistry, TraceBuffer,
    TraceHandle, RENDER_STATS, STYLE_STATS,
};

const STYLE_ROWS: [CounterRow; 10] = [
    ("style", "resolves", 41),
    ("style", "matches", 16),
    ("style", "matches_id", 3),
    ("style", "matches_class", 7),
    ("style", "matches_tag", 5),
    ("style", "matches_universal", 1),
    ("style", "bloom_rejects", 13),
    ("style", "cache_hits", 17),
    ("style", "cache_misses", 19),
    ("style", "cache_invalidations_avoided", 23),
];

const RENDER_ROWS: [CounterRow; 10] = [
    ("layout", "relayouts", 29),
    ("layout", "elements_laid_out", 31),
    ("layout", "subtree_reuses", 37),
    ("layout", "dirty_elements", 43),
    ("paint", "full_repaints", 47),
    ("paint", "partial_repaints", 53),
    ("paint", "items_emitted", 59),
    ("paint", "items_reused", 61),
    ("paint", "damage_items", 67),
    ("paint", "damage_area", 71),
];

fn buffer() -> TraceBuffer {
    let trace = TraceHandle::with_capacity(8);
    let end = SimTime::from_millis(26);
    trace.record(
        end,
        EventKind::Counters {
            name: RENDER_STATS,
            cat: "render",
            values: RENDER_ROWS.to_vec(),
        },
    );
    trace.record(
        end,
        EventKind::Counters {
            name: STYLE_STATS,
            cat: "style",
            values: STYLE_ROWS.to_vec(),
        },
    );
    trace.snapshot()
}

#[test]
fn chrome_export_keeps_row_order() {
    let json = chrome_trace_json(&buffer(), "counters");
    assert!(json.contains(
        "{\"name\":\"render-stats\",\"cat\":\"render\",\"ph\":\"I\",\"pid\":1,\"tid\":1,\
         \"ts\":26000,\"s\":\"t\",\"args\":{\"relayouts\":29,\"elements_laid_out\":31,\
         \"subtree_reuses\":37,\"dirty_elements\":43,\"full_repaints\":47,\
         \"partial_repaints\":53,\"items_emitted\":59,\"items_reused\":61,\
         \"damage_items\":67,\"damage_area\":71}},\n"
    ));
    assert!(json.contains(
        "{\"name\":\"style-stats\",\"cat\":\"style\",\"ph\":\"I\",\"pid\":1,\"tid\":1,\
         \"ts\":26000,\"s\":\"t\",\"args\":{\"resolves\":41,\"matches\":16,\
         \"matches_id\":3,\"matches_class\":7,\"matches_tag\":5,\"matches_universal\":1,\
         \"bloom_rejects\":13,\"cache_hits\":17,\"cache_misses\":19,\
         \"cache_invalidations_avoided\":23}}\n"
    ));
}

#[test]
fn registry_names_every_row_group_dot_key() {
    let registry = MetricsRegistry::from_trace(&buffer());
    for (group, key, value) in STYLE_ROWS.iter().chain(&RENDER_ROWS) {
        assert_eq!(
            registry.counter(&format!("{group}.{key}")),
            *value,
            "{group}.{key}"
        );
    }
    assert_eq!(registry.counter("style.matches_id"), 3);
    assert_eq!(registry.counter("layout.relayouts"), 29);
    assert_eq!(registry.counter("paint.damage_area"), 71);
    assert_eq!(registry.counter("count.style-stats"), 1);
    assert_eq!(registry.counter("count.render-stats"), 1);
    // Counter rows plus the two per-kind event counts, nothing else.
    assert_eq!(registry.counters().count(), 22);
}

#[test]
fn attribution_reads_rows_by_key() {
    let profile = AttributionProfile::from_trace(&buffer());
    let json = profile.render_json();
    assert!(json.contains(
        ",\"render\":{\"relayouts\":29,\"elements_laid_out\":31,\"subtree_reuses\":37,\
         \"dirty_elements\":43,\"full_repaints\":47,\"partial_repaints\":53,\
         \"items_emitted\":59,\"items_reused\":61,\"damage_items\":67,\"damage_area\":71},"
    ));
    // Ranked by exact walks; shares of the 16 bucketed walks.
    let ranking: Vec<(&str, u64, f64)> = profile
        .buckets
        .iter()
        .map(|b| (b.bucket, b.matches, b.share))
        .collect();
    assert_eq!(
        ranking,
        [
            ("class", 7, 7.0 / 16.0),
            ("tag", 5, 5.0 / 16.0),
            ("id", 3, 3.0 / 16.0),
            ("universal", 1, 1.0 / 16.0),
        ]
    );
    assert!(json.contains(
        "\"selector_buckets\":[{\"bucket\":\"class\",\"matches\":7,\"share\":0.4375},\
         {\"bucket\":\"tag\",\"matches\":5,\"share\":0.3125},\
         {\"bucket\":\"id\",\"matches\":3,\"share\":0.1875},\
         {\"bucket\":\"universal\",\"matches\":1,\"share\":0.0625}]"
    ));
    let text = profile.render_tables(3);
    assert!(text.contains(
        "render: 29 relayouts, 31 laid out (43 dirty, 37 subtree reuses), \
         paint 47 full / 53 partial, damage 67 items / 71 px2\n"
    ));
    assert!(text.contains(
        "selector buckets (exact walks):  class 7 (43.8%)  tag 5 (31.2%)  id 3 (18.8%)  \
         universal 1 (6.2%)\n"
    ));
}
