//! Trace exporters: JSONL, Chrome `trace_event` JSON (Perfetto), and a
//! deterministic text summary.

use crate::span::{Span, SpanKind, Trace};
use serde::{Serialize, Value};

/// One JSON object per span, one span per line — easy to grep and to
/// stream-process.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for span in trace.spans() {
        out.push_str(&serde_json::to_string(span).unwrap_or_default());
        out.push('\n');
    }
    out
}

/// Short human-readable event name for the Chrome trace.
fn event_name(span: &Span) -> String {
    match &span.kind {
        SpanKind::JobRun {
            seq,
            job,
            recompute,
            ..
        } => {
            if *recompute {
                format!("recompute {job} (seq {seq})")
            } else {
                format!("run {job} (seq {seq})")
            }
        }
        SpanKind::Wave {
            phase,
            index,
            tasks,
            ..
        } => format!("{phase:?} wave {index} ({tasks} tasks)"),
        SpanKind::Task { id, .. } => format!("{id}"),
        SpanKind::ShuffleFetch { source, .. } => format!("fetch from {source}"),
        SpanKind::BlockRead { source, .. } => format!("read from {source}"),
        SpanKind::BlockWrite { blocks, .. } => format!("write {blocks} block(s)"),
        SpanKind::BlockVerifyFailed { block } => format!("checksum fail block {block}"),
        SpanKind::Fault { kind, .. } => format!("fault {kind:?}"),
        SpanKind::Loss {
            lost_partitions, ..
        } => format!("loss ({lost_partitions} partitions)"),
        SpanKind::RecoveryPlan { target, steps, .. } => {
            format!("plan recovery of {target} ({steps} steps)")
        }
        SpanKind::ExecutorWave { tasks, workers } => {
            format!("pool wave ({tasks} tasks / {workers} workers)")
        }
        SpanKind::AdaptationPoint {
            interval, switched, ..
        } => match (interval, switched) {
            (Some(k), true) => format!("adapt -> k={k}"),
            (None, true) => "adapt -> never".to_string(),
            (Some(k), false) => format!("adapt k={k}"),
            (None, false) => "adapt never".to_string(),
        },
        SpanKind::Event { label, .. } => label.clone(),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builds the Chrome `trace_event` value tree for a trace.
///
/// Layout: `pid` is the node the work ran on (+1; pid 0 is the
/// driver/master), duration spans are `ph:"X"` complete events and
/// instantaneous spans are `ph:"i"` global instants. Each duration span
/// gets its own `tid` (its span id) so overlapping tasks render as
/// parallel tracks; the kind payload and the parent/cause links ride in
/// `args`. The resulting JSON opens directly in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn chrome_trace_value(trace: &Trace) -> Value {
    let mut events = Vec::with_capacity(trace.len());
    for span in trace.spans() {
        let pid = span.node.map(|n| u64::from(n.0) + 1).unwrap_or(0);
        let mut fields: Vec<(&str, Value)> = vec![
            ("name", Value::String(event_name(span))),
            ("cat", Value::String(span.kind.name().to_string())),
            ("ts", Value::U64(span.start_us)),
            ("pid", Value::U64(pid)),
        ];
        if span.is_instant() {
            fields.push(("ph", Value::String("i".into())));
            fields.push(("tid", Value::U64(0)));
            fields.push(("s", Value::String("g".into())));
        } else {
            fields.push(("ph", Value::String("X".into())));
            fields.push(("tid", Value::U64(span.id.0)));
            fields.push(("dur", Value::U64(span.duration_us())));
        }
        let mut args: Vec<(String, Value)> = vec![("kind".into(), span.kind.to_value())];
        if let Some(p) = span.parent {
            args.push(("parent".into(), Value::U64(p.0)));
        }
        if let Some(c) = span.cause {
            args.push(("cause".into(), Value::U64(c.0)));
        }
        fields.push(("args", Value::Object(args)));
        events.push(obj(fields));
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ms".into())),
    ])
}

/// Renders [`chrome_trace_value`] to a JSON string.
pub fn to_chrome_json(trace: &Trace) -> String {
    serde_json::to_string(&chrome_trace_value(trace)).unwrap_or_default()
}

/// Deterministic text summary of a trace: span-kind counts and a
/// per-run table. Contains no wall-clock quantities, so the output is
/// byte-identical across repeated runs of the same scenario (the
/// examples' determinism probe relies on this).
pub fn summary(trace: &Trace) -> String {
    let mut out = String::from("span kind         count\n");
    let kinds = [
        "JobRun",
        "Wave",
        "Task",
        "ShuffleFetch",
        "BlockRead",
        "BlockWrite",
        "BlockVerifyFailed",
        "Fault",
        "Loss",
        "RecoveryPlan",
        "ExecutorWave",
        "AdaptationPoint",
        "Event",
    ];
    for k in kinds {
        let n = trace.of_kind(k).count();
        if n > 0 {
            out.push_str(&format!("{k:<17} {n:>5}\n"));
        }
    }
    out.push_str("\nseq | job | kind      | waves | tasks | ok\n");
    let occ = crate::analyze::slot_occupancy(trace);
    for run in &occ {
        let (ok, tasks) = run_stats(trace, run.seq);
        out.push_str(&format!(
            "{:>3} | {:>3} | {:<9} | {:>5} | {:>5} | {}\n",
            run.seq,
            run.job.0,
            if run.recompute { "recompute" } else { "full" },
            run.waves.len(),
            tasks,
            if ok { "yes" } else { "no" }
        ));
    }
    out
}

/// `(ok, task-span count)` for the run with sequence number `seq`.
fn run_stats(trace: &Trace, seq: u64) -> (bool, usize) {
    let mut ok = false;
    for s in trace.spans() {
        if let SpanKind::JobRun {
            seq: s_seq,
            ok: s_ok,
            ..
        } = s.kind
        {
            if s_seq == seq {
                ok = s_ok;
            }
        }
    }
    let tasks = trace
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Task { .. }) && trace.run_seq_of(s.id) == Some(seq))
        .count();
    (ok, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, SpanId};
    use rcmp_model::{JobId, NodeId};

    fn sample() -> Trace {
        Trace {
            spans: vec![
                Span {
                    id: SpanId(1),
                    parent: None,
                    cause: None,
                    node: None,
                    start_us: 0,
                    end_us: 100,
                    kind: SpanKind::JobRun {
                        seq: 1,
                        job: JobId(1),
                        recompute: false,
                        live_nodes: 2,
                        map_slots: 1,
                        reduce_slots: 1,
                        ok: true,
                        tenant: None,
                    },
                },
                Span {
                    id: SpanId(2),
                    parent: Some(SpanId(1)),
                    cause: None,
                    node: Some(NodeId(0)),
                    start_us: 1,
                    end_us: 50,
                    kind: SpanKind::Wave {
                        phase: Phase::Map,
                        index: 0,
                        tasks: 2,
                        capacity: 2,
                    },
                },
                Span {
                    id: SpanId(3),
                    parent: Some(SpanId(1)),
                    cause: None,
                    node: Some(NodeId(1)),
                    start_us: 60,
                    end_us: 60,
                    kind: SpanKind::Fault {
                        seq: 1,
                        kind: crate::span::FaultKind::NodeCrash,
                        at: "JobStart".into(),
                    },
                },
            ],
        }
    }

    #[test]
    fn jsonl_one_line_per_span() {
        let text = to_jsonl(&sample());
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with('{')));
        assert!(text.contains("\"JobRun\""));
    }

    #[test]
    fn chrome_trace_structure() {
        let v = chrome_trace_value(&sample());
        let Value::Object(fields) = &v else {
            panic!("expected object")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let Value::Array(events) = events else {
            panic!("expected array")
        };
        assert_eq!(events.len(), 3);
        // Duration spans are ph:"X" with a dur; instants are ph:"i".
        let phs: Vec<String> = events
            .iter()
            .map(|e| match e {
                Value::Object(f) => f
                    .iter()
                    .find(|(k, _)| k == "ph")
                    .map(|(_, v)| match v {
                        Value::String(s) => s.clone(),
                        _ => String::new(),
                    })
                    .unwrap(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(phs, vec!["X", "X", "i"]);
        let json = to_chrome_json(&sample());
        assert!(json.starts_with('{'));
        assert!(json.contains("traceEvents"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn summary_counts_and_run_table() {
        let text = summary(&sample());
        assert!(text.contains("JobRun"));
        assert!(text.contains("Fault"));
        assert!(!text.contains("ShuffleFetch"), "zero-count kinds omitted");
        assert!(text.contains("full"));
        assert!(text.contains("yes"));
    }
}
