//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! and a compact text flamegraph summary.
//!
//! The JSON is hand-written (the workspace builds offline, with no
//! serde): every formatting decision is deterministic — integer
//! nanosecond timestamps divided to microseconds, `f64` via Rust's
//! shortest-round-trip `Display` — so identical runs export identical
//! bytes.

use crate::event::{CounterRow, EventKind, SpanKind, TraceRecord};
use crate::metrics::MetricsRegistry;
use crate::recorder::TraceBuffer;
use greenweb_acmp::SimTime;
use std::fmt::{self, Write as _};

/// The simulated process id every event maps to.
const PID: u32 = 1;

/// The simulated threads, as Perfetto tracks: `(tid, name)`.
/// The main thread carries callback + rendering-stage spans (the engine
/// serializes them, so spans never overlap); input dispatch, VSync,
/// scheduler activity, faults, and frame commits each get their own
/// track.
const THREADS: [(u32, &str); 6] = [
    (1, "main"),
    (2, "input"),
    (3, "vsync"),
    (4, "scheduler"),
    (5, "faults"),
    (6, "frames"),
];

fn ts_us(at: SimTime) -> f64 {
    at.as_nanos() as f64 / 1000.0
}

pub(crate) fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Rust's Display for f64 is the shortest round-trip form —
        // compact, exact, and deterministic.
        let _ = write!(out, "{value}");
    } else {
        out.push('0');
    }
}

/// `s` escaped for the body of a JSON string literal (no surrounding
/// quotes), rendered through `Display`. Quote, backslash, newline,
/// carriage return and tab get their short escapes (`\"`, `\\`, `\n`,
/// `\r`, `\t`), every other control character `\u00XX`. The
/// workspace's one JSON string escaper.
pub fn json_escape(s: &str) -> impl fmt::Display + '_ {
    JsonEscaped(s)
}

struct JsonEscaped<'a>(&'a str);

impl fmt::Display for JsonEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clean = 0;
        for (i, c) in self.0.char_indices() {
            if c != '"' && c != '\\' && c >= ' ' {
                continue;
            }
            f.write_str(&self.0[clean..i])?;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
            clean = i + c.len_utf8();
        }
        f.write_str(&self.0[clean..])
    }
}

/// Appends `s` as a quoted JSON string.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    let _ = write!(out, "\"{}\"", json_escape(s));
}

/// Appends `rows` as one flat JSON object keyed by each row's key, in
/// row order: the args of a counter record and the attribution
/// profile's `"render"` object.
pub(crate) fn push_counters(out: &mut String, rows: &[CounterRow]) {
    out.push('{');
    for (i, (_, key, value)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":{value}");
    }
    out.push('}');
}

/// Opens one event object with the common fields.
pub(crate) fn open_event(out: &mut String, name: &str, cat: &str, ph: char, tid: u32, ts: f64) {
    out.push_str("{\"name\":");
    push_json_str(out, name);
    out.push_str(",\"cat\":");
    push_json_str(out, cat);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid},\"ts\":");
    push_f64(out, ts);
}

pub(crate) fn push_uids(out: &mut String, uids: &[u64]) {
    out.push('[');
    for (i, uid) in uids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{uid}");
    }
    out.push(']');
}

fn write_event(out: &mut String, record: &TraceRecord) {
    match &record.kind {
        EventKind::Span {
            kind,
            start,
            dur,
            uids,
            label,
            ops,
        } => {
            let (tid, cat) = if *kind == SpanKind::Input {
                (2, "input")
            } else {
                (1, "pipeline")
            };
            open_event(out, kind.name(), cat, 'X', tid, ts_us(*start));
            out.push_str(",\"dur\":");
            push_f64(out, dur.as_nanos() as f64 / 1000.0);
            out.push_str(",\"args\":{\"uids\":");
            push_uids(out, uids);
            let _ = write!(out, ",\"ops\":{ops}");
            if let Some(label) = label {
                out.push_str(",\"event\":");
                push_json_str(out, label);
            }
            out.push_str("}}");
        }
        EventKind::Vsync => {
            open_event(out, "vsync", "vsync", 'I', 3, ts_us(record.at));
            out.push_str(",\"s\":\"t\"}");
        }
        EventKind::Decision {
            target_ms,
            predicted_ms,
            chosen,
            profiling,
        } => {
            open_event(out, "decision", "scheduler", 'I', 4, ts_us(record.at));
            out.push_str(",\"s\":\"t\",\"args\":{\"target_ms\":");
            push_f64(out, *target_ms);
            out.push_str(",\"predicted_ms\":");
            match predicted_ms {
                Some(p) => push_f64(out, *p),
                None => out.push_str("null"),
            }
            out.push_str(",\"config\":");
            push_json_str(out, &chosen.to_string());
            let _ = write!(out, ",\"profiling\":{profiling}}}}}");
        }
        EventKind::ConfigSwitch { from, to, penalty } => {
            open_event(out, "config-switch", "scheduler", 'I', 4, ts_us(record.at));
            out.push_str(",\"s\":\"t\",\"args\":{\"from\":");
            push_json_str(out, &from.to_string());
            out.push_str(",\"to\":");
            push_json_str(out, &to.to_string());
            let kind = if from.core == to.core {
                "dvfs"
            } else {
                "migration"
            };
            out.push_str(",\"kind\":");
            push_json_str(out, kind);
            out.push_str(",\"penalty_us\":");
            push_f64(out, penalty.as_nanos() as f64 / 1000.0);
            out.push_str("}}");
        }
        EventKind::Ladder { from, to } => {
            open_event(out, "ladder", "scheduler", 'I', 4, ts_us(record.at));
            out.push_str(",\"s\":\"t\",\"args\":{\"from\":");
            push_json_str(out, from);
            out.push_str(",\"to\":");
            push_json_str(out, to);
            out.push_str("}}");
        }
        EventKind::Fault { category, detail } => {
            open_event(out, category, "fault", 'I', 5, ts_us(record.at));
            out.push_str(",\"s\":\"t\",\"args\":{\"detail\":");
            push_json_str(out, detail);
            out.push_str("}}");
        }
        EventKind::EnergySample {
            actual_mj,
            metered_mj,
            power_mw,
            config,
            busy: _,
        } => {
            open_event(out, "energy_mj", "power", 'C', 0, ts_us(record.at));
            out.push_str(",\"args\":{\"actual\":");
            push_f64(out, *actual_mj);
            out.push_str(",\"metered\":");
            push_f64(out, *metered_mj);
            out.push_str("}},\n");
            open_event(out, "power_mw", "power", 'C', 0, ts_us(record.at));
            out.push_str(",\"args\":{\"mw\":");
            push_f64(out, *power_mw);
            out.push_str("}},\n");
            open_event(out, "freq_mhz", "power", 'C', 0, ts_us(record.at));
            let _ = write!(out, ",\"args\":{{\"mhz\":{}}}}}", config.freq_mhz);
        }
        EventKind::Counters { name, cat, values } => {
            open_event(out, name, cat, 'I', 1, ts_us(record.at));
            out.push_str(",\"s\":\"t\",\"args\":");
            push_counters(out, values);
            out.push('}');
        }
        EventKind::FrameCommit {
            uid,
            seq,
            latency,
            event,
        } => {
            open_event(out, "frame", "frames", 'I', 6, ts_us(record.at));
            let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"uid\":{uid},\"seq\":{seq}");
            out.push_str(",\"latency_ms\":");
            push_f64(out, latency.as_millis_f64());
            out.push_str(",\"event\":");
            push_json_str(out, event);
            out.push_str("}}");
        }
    }
}

/// Serializes `buffer` as Chrome trace-event JSON.
///
/// The result loads in Perfetto (<https://ui.perfetto.dev>) and
/// `chrome://tracing`: one simulated process named after
/// `process_name`, with the main thread, input dispatch, VSync,
/// scheduler, faults, and frame commits as separate threads, and
/// energy/power/frequency as counter tracks. One event per line, so
/// traces diff cleanly.
pub fn chrome_trace_json(buffer: &TraceBuffer, process_name: &str) -> String {
    let mut out = String::with_capacity(256 + buffer.events.len() * 160);
    out.push_str("{\"traceEvents\":[\n");
    // Metadata: process and thread names.
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":");
    push_json_str(&mut out, process_name);
    out.push_str("}}");
    for (tid, name) in THREADS {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
        );
        push_json_str(&mut out, name);
        let _ = write!(
            out,
            "}}}},\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}"
        );
    }
    for record in &buffer.events {
        out.push_str(",\n");
        write_event(&mut out, record);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Renders a compact flamegraph-style summary: main-thread self time
/// per pipeline stage with share bars and percentiles. The engine
/// serializes all stages on one thread, so self time equals span time.
pub fn flame_summary(buffer: &TraceBuffer) -> String {
    let registry = MetricsRegistry::from_trace(buffer);
    let mut rows: Vec<(SpanKind, f64)> = Vec::new();
    let mut total_ms = 0.0;
    for kind in SpanKind::ALL {
        let mut ms = 0.0;
        for record in buffer.spans() {
            if let EventKind::Span { kind: k, dur, .. } = &record.kind {
                if *k == kind {
                    ms += dur.as_millis_f64();
                }
            }
        }
        total_ms += ms;
        rows.push((kind, ms));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flame: pipeline time by stage (total {total_ms:.1} ms)"
    );
    let max_ms = rows.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
    for (kind, ms) in rows {
        let summary = registry.stage_summary(kind);
        let share = if total_ms > 0.0 {
            100.0 * ms / total_ms
        } else {
            0.0
        };
        let width = if max_ms > 0.0 {
            ((ms / max_ms) * 24.0).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            out,
            "  {:<9} {:<24} {:5.1}% {:9.1} ms  n={:<5} p50 {:6.2}  p95 {:6.2}  p99 {:6.2} ms",
            kind.name(),
            "#".repeat(width),
            share,
            ms,
            summary.count,
            summary.p50_ms,
            summary.p95_ms,
            summary.p99_ms,
        );
    }
    if buffer.dropped > 0 {
        let _ = writeln!(
            out,
            "  (ring dropped {} oldest events; totals undercount)",
            buffer.dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceHandle;
    use greenweb_acmp::{CoreType, CpuConfig, Duration};

    fn sample_buffer() -> TraceBuffer {
        let trace = TraceHandle::with_capacity(64);
        trace.record(
            SimTime::from_millis(1),
            EventKind::Span {
                kind: SpanKind::Callback,
                start: SimTime::ZERO,
                dur: Duration::from_millis(1),
                uids: vec![0, 1],
                label: Some("click"),
                ops: 42,
            },
        );
        trace.record(SimTime::from_millis(16), EventKind::Vsync);
        trace.record(
            SimTime::from_millis(16),
            EventKind::Decision {
                target_ms: 33.3,
                predicted_ms: Some(12.5),
                chosen: CpuConfig::new(CoreType::Big, 1000),
                profiling: false,
            },
        );
        trace.record(
            SimTime::from_millis(16),
            EventKind::EnergySample {
                actual_mj: 10.0,
                metered_mj: 9.5,
                power_mw: 750.0,
                config: CpuConfig::new(CoreType::Big, 1000),
                busy: true,
            },
        );
        trace.record(
            SimTime::from_millis(17),
            EventKind::Fault {
                category: "vsync",
                detail: "tick \"dropped\"\n".to_string(),
            },
        );
        trace.snapshot()
    }

    /// A minimal JSON well-formedness check: balanced structure and
    /// properly terminated strings.
    fn assert_balanced_json(json: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced JSON");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced JSON");
    }

    #[test]
    fn chrome_json_is_wellformed_and_typed() {
        let json = chrome_trace_json(&sample_buffer(), "demo \"app\"");
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "span event missing");
        assert!(json.contains("\"ph\":\"I\""), "instant event missing");
        assert!(json.contains("\"ph\":\"C\""), "counter event missing");
        assert!(json.contains("\"name\":\"callback\""));
        assert!(json.contains("\"uids\":[0,1]"));
        assert!(json.contains("\"ops\":42"), "span ops missing");
        assert!(json.contains("\"predicted_ms\":12.5"));
        assert!(json.contains("demo \\\"app\\\""), "escaping broken");
        assert!(json.contains("tick \\\"dropped\\\"\\n"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd").to_string(), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}").to_string(), "\\u0001");
        assert_eq!(json_escape("\r\t\u{1f}é").to_string(), "\\r\\t\\u001fé");
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&sample_buffer(), "x");
        let b = chrome_trace_json(&sample_buffer(), "x");
        assert_eq!(a, b);
    }

    #[test]
    fn flame_summary_lists_all_stages() {
        let text = flame_summary(&sample_buffer());
        for kind in SpanKind::ALL {
            assert!(text.contains(kind.name()), "{} missing", kind.name());
        }
        assert!(text.contains("n=1"));
    }
}
