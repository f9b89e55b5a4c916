//! End-to-end contracts of the tracing subsystem:
//!
//! 1. identical seeds (and identical `FaultPlan`s) export byte-identical
//!    Chrome trace-event JSON,
//! 2. a fault-free run emits no fault events,
//! 3. every frame the report records has matching pipeline-stage spans
//!    in the trace, and
//! 4. a traced GreenWeb run covers the full event vocabulary: all six
//!    pipeline stages, scheduler decisions, and energy samples, and
//! 5. the attribution profiler conserves energy (per-event phase
//!    attribution + idle + unattributed = the measured total), names
//!    spans that actually overlap every missed frame's window, and
//!    renders byte-identically across worker counts and repeated runs,
//!    and
//! 6. every row of the engine's counter table reaches exactly the
//!    surfaces it names — registry, counter-record export args, metrics
//!    JSON — with the run's value, in table order.

use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb::GreenWebScheduler;
use greenweb_engine::{CounterRecord, FaultPlan, COUNTERS};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_trace::{
    chrome_trace_json, AttributionProfile, EventKind, MetricsRegistry, SpanKind, TraceBuffer,
};
use greenweb_workloads::by_name;
use greenweb_workloads::chaos::chaos_run_traced;
use greenweb_workloads::harness::{lower, run_traced, Policy};
use std::collections::HashMap;

fn traced_run(name: &str) -> (greenweb_engine::SimReport, TraceBuffer) {
    let w = by_name(name).expect("workload exists");
    run_traced(&w.app, &w.micro, &Policy::GreenWeb(Scenario::Usable)).expect("run")
}

#[test]
fn same_seed_same_plan_exports_identical_bytes() {
    let w = by_name("Todo").expect("workload exists");
    let export = || {
        let (_, buffer) = chaos_run_traced(&w.app, &w.micro, FaultPlan::storm(23), || {
            GreenWebScheduler::new(Scenario::Usable)
        })
        .expect("chaos run");
        chrome_trace_json(&buffer, "determinism-check")
    };
    let first = export();
    let second = export();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same seed + same plan must export identical bytes"
    );
}

#[test]
fn different_seeds_diverge() {
    // The determinism test above would pass vacuously if the export
    // ignored the faults; different storms must produce different bytes.
    let w = by_name("Todo").expect("workload exists");
    let export = |seed: u64| {
        let (_, buffer) = chaos_run_traced(&w.app, &w.micro, FaultPlan::storm(seed), || {
            GreenWebScheduler::new(Scenario::Usable)
        })
        .expect("chaos run");
        chrome_trace_json(&buffer, "determinism-check")
    };
    assert_ne!(export(23), export(24));
}

#[test]
fn fault_free_run_emits_no_fault_events() {
    let (_, buffer) = traced_run("Todo");
    assert_eq!(buffer.count_of("fault"), 0, "clean run must not log faults");
    assert!(buffer.count_of("vsync") > 0);
}

#[test]
fn faulted_run_logs_its_faults() {
    let w = by_name("Todo").expect("workload exists");
    let (run, buffer) = chaos_run_traced(&w.app, &w.micro, FaultPlan::storm(23), || {
        GreenWebScheduler::new(Scenario::Usable)
    })
    .expect("chaos run");
    let injected = run.faulted.chaos.as_ref().expect("chaos report").total();
    assert!(injected > 0, "storm must inject faults");
    assert_eq!(buffer.count_of("fault"), injected);
}

#[test]
fn every_frame_has_matching_stage_spans() {
    let (report, buffer) = traced_run("Todo");
    assert!(!report.frames.is_empty());
    for record in &report.frames {
        for stage in [
            SpanKind::Style,
            SpanKind::Layout,
            SpanKind::Paint,
            SpanKind::Composite,
        ] {
            let covered = buffer.spans().any(|r| match &r.kind {
                EventKind::Span { kind, uids, .. } => {
                    *kind == stage && uids.contains(&record.uid.0)
                }
                _ => false,
            });
            assert!(
                covered,
                "frame for input {:?} has no {} span",
                record.uid,
                stage.name()
            );
        }
    }
}

#[test]
fn greenweb_run_covers_the_event_vocabulary() {
    let (_, buffer) = traced_run("Todo");
    for stage in SpanKind::ALL {
        assert!(
            buffer.count_of(stage.name()) > 0,
            "no {} spans recorded",
            stage.name()
        );
    }
    assert!(
        buffer.count_of("decision") > 0,
        "scheduler logged no decisions"
    );
    assert!(buffer.count_of("energy-sample") > 0, "no energy samples");
    assert!(buffer.count_of("frame-commit") > 0, "no frame commits");
    assert_eq!(buffer.dropped, 0, "micro trace must fit the ring");
}

#[test]
fn attribution_conserves_energy_across_the_suite() {
    // The apportioning model's ground truth: for every workload, the
    // per-event phase attribution plus idle plus unattributed must
    // reproduce the run's cumulative EnergySample total to within 1%.
    for w in greenweb_workloads::all() {
        let (_, buffer) =
            run_traced(&w.app, &w.micro, &Policy::GreenWeb(Scenario::Usable)).expect("run");
        let profile = AttributionProfile::from_trace(&buffer);
        assert!(profile.total_mj > 0.0, "{}: no measured energy", w.name);
        let tolerance = profile.total_mj * 0.01 + 1e-9;
        let accounted = profile.attributed_mj() + profile.idle_mj + profile.unattributed_mj;
        assert!(
            (accounted - profile.total_mj).abs() <= tolerance,
            "{}: accounted {accounted} mJ vs total {} mJ",
            w.name,
            profile.total_mj
        );
        // The per-event rollup is the same energy re-keyed by input:
        // summing every event's phases must land on the in-span total.
        let event_sum: f64 = profile
            .events
            .iter()
            .map(greenweb_trace::EventAttribution::total_mj)
            .sum();
        let per_event = event_sum + profile.idle_mj + profile.unattributed_mj;
        assert!(
            (per_event - profile.total_mj).abs() <= tolerance,
            "{}: per-event sum {per_event} mJ vs total {} mJ",
            w.name,
            profile.total_mj
        );
        assert!(
            !profile.events.is_empty(),
            "{}: no events attributed",
            w.name
        );
    }
}

#[test]
fn every_chaos_miss_has_forensics_naming_overlapping_spans() {
    // W3School under imperceptible targets with a fault storm reliably
    // misses deadlines; Usable targets would make this test vacuous.
    let w = by_name("W3School").expect("workload exists");
    let (_, buffer) = chaos_run_traced(&w.app, &w.micro, FaultPlan::storm(23), || {
        GreenWebScheduler::new(Scenario::Imperceptible)
    })
    .expect("chaos run");
    let profile = AttributionProfile::from_trace(&buffer);
    assert!(profile.misses() > 0, "storm produced no deadline misses");
    assert_eq!(
        profile.misses(),
        profile.forensics.len() as u64,
        "one forensics record per deadline miss"
    );
    for record in &profile.forensics {
        assert!(
            record.latency_ms > record.target_ms,
            "forensics for a frame that met its {} ms target",
            record.target_ms
        );
        assert!(
            !record.spans.is_empty(),
            "miss of input {} at {:?} names no culprit spans",
            record.uid,
            record.at
        );
        // Every named span must genuinely overlap the missed frame's
        // window [commit - latency, commit].
        let commit_ms = record.at.as_millis_f64();
        let window_start_ms = commit_ms - record.latency_ms;
        for span in &record.spans {
            let start_ms = span.start.as_millis_f64();
            let end_ms = start_ms + span.dur.as_millis_f64();
            assert!(
                start_ms < commit_ms && end_ms > window_start_ms,
                "span {} [{start_ms}, {end_ms}] ms outside miss window \
                 [{window_start_ms}, {commit_ms}] ms",
                span.kind.name()
            );
        }
    }
}

#[test]
fn attribution_profiles_are_byte_identical_serial_vs_parallel() {
    // Same specs, 1 worker vs 4 workers vs a repeated run: the rendered
    // profile JSON must match byte for byte — the property the sweep's
    // corpus aggregation (and CI's diff gate) stands on.
    let render_all = |jobs: Jobs| {
        let specs = greenweb_workloads::all()
            .iter()
            .take(4)
            .map(|w| lower(&w.app, &w.micro, &Policy::GreenWeb(Scenario::Usable)).with_recording())
            .collect();
        run_specs(specs, jobs)
            .into_iter()
            .map(|outcome| {
                let outcome = outcome.expect("run");
                let buffer = outcome.trace.expect("recording was requested");
                AttributionProfile::from_trace(&buffer).render_json()
            })
            .collect::<String>()
    };
    let serial = render_all(Jobs::new(1));
    let parallel = render_all(Jobs::new(4));
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "worker count changed the profile bytes");
    let repeated = render_all(Jobs::new(1));
    assert_eq!(
        serial, repeated,
        "same seed re-run changed the profile bytes"
    );
}

/// `(key, value)` pairs of a flat JSON object of integers, in order.
fn flat_object(object: &str) -> Vec<(String, u64)> {
    let body = object
        .strip_prefix('{')
        .and_then(|o| o.strip_suffix('}'))
        .expect("flat object");
    body.split(',')
        .map(|pair| {
            let (key, value) = pair.split_once(':').expect("key:value");
            (
                key.trim_matches('"').to_string(),
                value.parse().expect("integer counter"),
            )
        })
        .collect()
}

#[test]
fn counter_table_rows_reach_exactly_their_surfaces() {
    let (report, buffer) = traced_run("Todo");
    let counters = report.counters();
    let value = |row: &greenweb_engine::Counter| (row.value)(&counters);

    // Registry: every recorded row as `group.key` with the report's
    // value; rows no record carries are absent.
    let registry = MetricsRegistry::from_trace(&buffer);
    let names: Vec<&str> = registry.counters().map(|(name, _)| name).collect();
    for row in COUNTERS {
        let name = format!("{}.{}", row.group, row.key);
        assert_eq!(
            names.contains(&name.as_str()),
            row.record.is_some(),
            "{name} in registry"
        );
        if row.record.is_some() {
            assert_eq!(registry.counter(&name), value(row), "{name}");
        }
    }

    // Export: each counter record's args are exactly its rows, in table
    // order, with the report's values.
    let json = chrome_trace_json(&buffer, "Todo");
    for record in [CounterRecord::Style, CounterRecord::Render] {
        let head = format!("{{\"name\":\"{}\",", record.name());
        let line = json
            .lines()
            .find(|line| line.starts_with(&head))
            .unwrap_or_else(|| panic!("no {} record", record.name()));
        let args = &line[line.find("\"args\":").expect("args") + 7..];
        let args = args.trim_end_matches(',').strip_suffix('}').expect("event");
        let expected: Vec<(String, u64)> = COUNTERS
            .iter()
            .filter(|row| row.record == Some(record))
            .map(|row| (row.key.to_string(), value(row)))
            .collect();
        assert_eq!(flat_object(args), expected, "{} args", record.name());
    }

    // Metrics JSON: the trailing group objects hold exactly the
    // metrics-flagged rows, in table order.
    let metrics = RunMetrics::compute(&report, &HashMap::new()).render_json();
    let tail = &metrics[metrics.find("\"style\":{").expect("style object")..];
    let tail = tail.strip_suffix('}').expect("closing brace");
    let mut rendered = Vec::new();
    for object in tail.split("},") {
        let (group, body) = object.split_once(":{").expect("group object");
        let body = body.trim_end_matches('}');
        for (key, v) in flat_object(&format!("{{{body}}}")) {
            rendered.push((group.trim_matches('"').to_string(), key, v));
        }
    }
    let expected: Vec<(String, String, u64)> = COUNTERS
        .iter()
        .filter(|row| row.metrics)
        .map(|row| (row.group.to_string(), row.key.to_string(), value(row)))
        .collect();
    assert_eq!(rendered, expected);
}
