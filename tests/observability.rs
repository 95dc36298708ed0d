//! End-to-end acceptance tests for the unified tracing layer: a
//! chaos-injected 7-job chain must produce a structurally valid Chrome
//! trace, a hot-spot report whose top node is the node that recomputed
//! the lost reducer outputs (Fig. 6), and a slot-occupancy profile
//! showing recomputation runs strictly under-utilizing the cluster
//! (Fig. 4).

use rcmp::core::{ChainDriver, ChainEvent, ChainOutcome, Strategy};
use rcmp::engine::failure::{Fault, FaultTrigger};
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{ByteSize, ClusterConfig, Error, NodeId, SlotConfig, TaskId};
use rcmp::obs::{
    chrome_trace_value, hotspot_report, recomputation_critical_path, slot_occupancy, summary,
    Clock, EventCode, FlightRecorder, PhaseKind, SpanId, SpanKind, Trace,
};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use serde::Value;
use std::collections::HashMap;
use std::sync::Arc;

const NODES: u32 = 5;
const JOBS: u32 = 7;
const KILL_SEQ: u64 = 4;
const VICTIM: NodeId = NodeId(2);

fn cluster(max_recovery_attempts: u32) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::kib(4),
        max_recovery_attempts,
        executor: rcmp::model::ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 7,
    })
}

/// Runs the paper's 7-job chain with a node crash at the start of run
/// 4, under RCMP without splitting.
fn chaos_chain(cl: &Cluster) -> ChainOutcome {
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 12_000)).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let injector = Arc::new(ScriptedInjector::single(
        KILL_SEQ,
        TriggerPoint::JobStart,
        VICTIM,
    ));
    let outcome = ChainDriver::new(cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert!(outcome.jobs_started > JOBS as u64, "failure forced reruns");
    assert!(outcome.events.recompute_runs() > 0);
    outcome
}

/// Same scenario, snapshotting only the trace.
fn chaos_chain_trace() -> Trace {
    let cl = cluster(100);
    chaos_chain(&cl);
    cl.tracer().snapshot()
}

fn obj(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    obj(v).iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Seq of the run a span belongs to, via the parent chain.
fn run_seq(index: &HashMap<SpanId, &rcmp::obs::Span>, span: &rcmp::obs::Span) -> Option<u64> {
    let mut s = span;
    loop {
        if let SpanKind::JobRun { seq, .. } = s.kind {
            return Some(seq);
        }
        s = index.get(&s.parent?)?;
    }
}

#[test]
fn chrome_export_is_structurally_valid() {
    let trace = chaos_chain_trace();
    let v = chrome_trace_value(&trace);
    let events = field(&v, "traceEvents").expect("traceEvents key");
    let Value::Array(events) = events else {
        panic!("traceEvents must be an array");
    };
    assert!(events.len() >= trace.len(), "every span exported");
    let mut complete_events = 0usize;
    for e in events {
        for key in ["name", "ph", "ts", "pid"] {
            assert!(field(e, key).is_some(), "event missing {key}: {e:?}");
        }
        if field(e, "ph") == Some(&Value::String("X".to_string())) {
            assert!(field(e, "dur").is_some(), "complete event without dur");
            complete_events += 1;
        }
    }
    assert!(complete_events > 0, "duration events present");
    assert!(
        field(&v, "displayTimeUnit").is_some(),
        "viewer hint present"
    );
    // The trace is non-trivial: the summary lists the core span kinds.
    let s = summary(&trace);
    for kind in [
        "JobRun",
        "Wave",
        "Task",
        "ShuffleFetch",
        "Fault",
        "RecoveryPlan",
    ] {
        assert!(s.contains(kind), "summary missing {kind}:\n{s}");
    }
}

#[test]
fn hotspot_top_node_is_the_recompute_node() {
    let trace = chaos_chain_trace();
    let index: HashMap<SpanId, &rcmp::obs::Span> =
        trace.spans().iter().map(|s| (s.id, s)).collect();

    // The runs that recomputed lost outputs.
    let recompute_seqs: Vec<u64> = trace
        .spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::JobRun {
                seq,
                recompute: true,
                ..
            } => Some(seq),
            _ => None,
        })
        .collect();
    let lo = *recompute_seqs.iter().min().expect("recompute runs traced");

    // Every recomputed reducer ran on the same node (Balance assignment
    // concentrates a single lost partition onto the lowest-index live
    // node) — the paper's hot-spot mechanism.
    let recompute_reduce_nodes: Vec<NodeId> = trace
        .spans()
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                SpanKind::Task {
                    id: TaskId::Reduce(_),
                    ok: true,
                    ..
                }
            ) && run_seq(&index, s).is_some_and(|seq| recompute_seqs.contains(&seq))
        })
        .filter_map(|s| s.node)
        .collect();
    assert!(!recompute_reduce_nodes.is_empty());
    let hot = recompute_reduce_nodes[0];
    assert!(
        recompute_reduce_nodes.iter().all(|&n| n == hot),
        "recomputed reducers concentrated on one node: {recompute_reduce_nodes:?}"
    );
    assert_ne!(hot, VICTIM, "recompute cannot run on the dead node");

    // The cancelled job's rerun reads the recomputed outputs, so over
    // the recovery window that node serves the most bytes.
    let cancelled_job = trace
        .spans()
        .iter()
        .find_map(|s| match s.kind {
            SpanKind::JobRun {
                seq,
                job,
                ok: false,
                ..
            } if seq == KILL_SEQ => Some(job),
            _ => None,
        })
        .expect("run 4 was cancelled");
    let rerun_seq = trace
        .spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::JobRun {
                seq, job, ok: true, ..
            } if job == cancelled_job && seq > KILL_SEQ => Some(seq),
            _ => None,
        })
        .min()
        .expect("cancelled job reran");

    let report = hotspot_report(&trace, lo, rerun_seq);
    assert_eq!(
        report.top(),
        Some(hot),
        "hot-spot top node over seq {lo}..={rerun_seq}:\n{}",
        report.render()
    );
    assert!(report.gini > 0.0, "load is skewed, not uniform");
}

#[test]
fn recompute_runs_underutilize_slots() {
    let trace = chaos_chain_trace();
    let occ = slot_occupancy(&trace);
    let recomputes: Vec<_> = occ
        .iter()
        .filter(|r| r.recompute && !r.waves.is_empty())
        .collect();
    assert!(!recomputes.is_empty(), "recompute runs have waves");
    for rec in recomputes {
        let original = occ
            .iter()
            .find(|o| !o.recompute && o.job == rec.job && !o.waves.is_empty())
            .expect("original full run of the recomputed job");
        assert!(
            rec.avg_occupancy() < original.avg_occupancy(),
            "recompute of {} (seq {}, avg {:.2}) must under-utilize vs full run \
             (seq {}, avg {:.2})",
            rec.job,
            rec.seq,
            rec.avg_occupancy(),
            original.seq,
            original.avg_occupancy()
        );
    }
}

#[test]
fn critical_path_covers_the_cascade() {
    let trace = chaos_chain_trace();
    let path = recomputation_critical_path(&trace).expect("cascade recorded");
    assert!(path.cause.is_some(), "cascade causally linked to its loss");
    let recompute_seqs: Vec<u64> = trace
        .spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::JobRun {
                seq,
                recompute: true,
                ..
            } => Some(seq),
            _ => None,
        })
        .collect();
    assert_eq!(
        path.steps.iter().map(|s| s.seq).collect::<Vec<_>>(),
        recompute_seqs,
        "one cascade: every recompute run lies on the critical path"
    );
    assert!(path.total_us > 0);
    // The cause chain roots at the injected loss, which the fault span
    // caused — walk it explicitly.
    let index: HashMap<SpanId, &rcmp::obs::Span> =
        trace.spans().iter().map(|s| (s.id, s)).collect();
    let mut root = path.cause.unwrap();
    while let Some(up) = index.get(&root).and_then(|s| s.cause) {
        root = up;
    }
    let root_span = index[&root];
    assert!(
        matches!(
            root_span.kind,
            SpanKind::Fault { .. } | SpanKind::Loss { .. }
        ),
        "cascade roots at the injected fault/loss, got {:?}",
        root_span.kind
    );
}

/// The engine's phase profiler and the simulator's projection emit the
/// *same* Fig.-7-style schema for the 7-job chain — every phase row in
/// the same order — so a breakdown from either source renders and
/// diffs through one code path. The engine side must actually have
/// attributed time to the real phases of the chaos chain.
#[test]
fn engine_and_sim_phase_breakdowns_share_one_schema() {
    let cl = cluster(100);
    let outcome = chaos_chain(&cl);

    let mut wl = rcmp::sim::WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.jobs = JOBS;
    wl.per_node_input = wl.per_node_input / 16;
    let sim = rcmp::sim::simulate_chain(&rcmp::sim::ChainSimConfig::new(
        rcmp::sim::HwProfile::stic(),
        wl,
        Strategy::rcmp_no_split(),
    ));
    let sim_phases = sim.phase_breakdown();

    assert_eq!(
        outcome.phases.schema(),
        sim_phases.schema(),
        "engine and simulator must emit identical phase schemas"
    );
    // The engine run attributed real time to the real phases.
    for phase in [
        PhaseKind::MapCompute,
        PhaseKind::MapOutputWrite,
        PhaseKind::ShuffleFetch,
        PhaseKind::DfsRead,
        PhaseKind::DfsWrite,
        PhaseKind::RecoveryPlanning,
        PhaseKind::RecomputeWave,
    ] {
        assert!(
            outcome.phases.entries[phase.index()].count > 0,
            "engine chaos chain attributed nothing to {phase:?}:\n{}",
            outcome.phases.render()
        );
    }
    assert!(sim_phases.total_us(PhaseKind::MapCompute) > 0);
    assert!(sim_phases.total_us(PhaseKind::ReduceUdf) > 0);
    // Per-run deltas cover every successful run and never exceed the
    // whole-chain budget.
    assert_eq!(outcome.job_phases.len(), outcome.runs.len());
    let delta_sum: u64 = outcome
        .job_phases
        .iter()
        .map(|(_, d)| d.grand_total_us())
        .sum();
    assert!(delta_sum <= outcome.phases.grand_total_us());
}

/// Ring overflow at the integration level: a small recorder under a
/// burst keeps exact accounting (`recorded == retained + dropped`),
/// evicts oldest-first, and `snapshot` returns the newest events in
/// global sequence order — from every shard, under concurrency.
#[test]
fn flight_recorder_overflow_keeps_exact_accounting() {
    // Single shard: eviction order is fully observable.
    let rec = FlightRecorder::new(Clock::monotonic(), 64, 1);
    for i in 0..1_000u64 {
        rec.record(EventCode::Probe, None, i, 0);
    }
    let log = rec.snapshot();
    assert_eq!(log.recorded, 1_000);
    assert_eq!(log.events.len(), 64, "capacity bounds retention");
    assert_eq!(log.dropped, 1_000 - 64);
    assert_eq!(
        log.recorded,
        log.events.len() as u64 + log.dropped,
        "no event unaccounted for"
    );
    let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
    assert_eq!(
        seqs,
        (936..1_000).collect::<Vec<u64>>(),
        "oldest evicted first, newest retained in order"
    );

    // Sharded + concurrent: the invariant still holds exactly.
    let rec = Arc::new(FlightRecorder::new(Clock::monotonic(), 32, 4));
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let rec = rec.clone();
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    rec.record(EventCode::Probe, None, t, i);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = rec.stats();
    assert_eq!(stats.recorded, 2_000);
    assert_eq!(stats.recorded, stats.retained + stats.dropped);
    let log = rec.snapshot();
    assert_eq!(log.events.len() as u64, stats.retained);
    assert!(
        log.events.windows(2).all(|w| w[0].seq < w[1].seq),
        "merged snapshot is in global sequence order"
    );
}

/// A chaos-induced chain death parks a blackbox dump whose causal
/// lineage is *complete* — fault → loss → recovery plan → recompute —
/// and whose flight-recorder tail holds the matching compact events.
/// The scenario: the same job loses its input again right after a
/// successful recovery, exceeding a budget of one recovery per job.
#[test]
fn chaos_chain_death_parks_a_complete_blackbox() {
    // Probe run (generous budget): learn which seq the cancelled job's
    // retry lands on. The engine is deterministic for a fixed seed, so
    // the seq replays exactly in the second run.
    let (cancelled_job, retry_seq) = {
        let cl = cluster(100);
        let outcome = chaos_chain(&cl);
        let job = outcome
            .events
            .iter()
            .find_map(|e| match e {
                ChainEvent::JobCancelled { seq, job } if *seq == KILL_SEQ => Some(*job),
                _ => None,
            })
            .expect("run 4 was cancelled");
        let retry = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                ChainEvent::JobStarted {
                    seq,
                    job: j,
                    recompute: false,
                } if *j == job && *seq > KILL_SEQ => Some(*seq),
                _ => None,
            })
            .min()
            .expect("cancelled job retried");
        (job, retry)
    };

    // Real run: budget of one recovery, and a second kill at the
    // retry — the repeated input loss exhausts the budget.
    let cl = cluster(1);
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 12_000)).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
    injector.add_fault(FaultTrigger {
        seq: KILL_SEQ,
        point: TriggerPoint::JobStart,
        fault: Fault::NodeCrash(VICTIM),
    });
    injector.add_fault(FaultTrigger {
        seq: retry_seq,
        point: TriggerPoint::JobStart,
        fault: Fault::NodeCrash(NodeId(1)),
    });
    let err = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap_err();
    assert!(
        matches!(err, Error::RecoveryExhausted { job, .. } if job == cancelled_job),
        "expected RecoveryExhausted for {cancelled_job:?}, got {err}"
    );

    let dump = cl
        .take_blackbox("chain")
        .expect("a typed chain death parks a blackbox dump");
    assert_eq!(dump.reason, err.to_string(), "reason is the typed error");
    assert!(
        dump.lineage_is_complete(),
        "lineage must chain fault -> loss -> plan -> recompute:\n{}",
        dump.render()
    );
    // The recompute run hangs off the recovery plan in the lineage.
    assert!(
        dump.lineage.iter().any(|s| matches!(
            s.kind,
            SpanKind::JobRun {
                recompute: true,
                ..
            }
        )),
        "recompute run missing from lineage:\n{}",
        dump.render()
    );
    // The flight-recorder tail carries the matching compact events.
    for code in [
        EventCode::FaultInjected,
        EventCode::PartitionsLost,
        EventCode::RecoveryPlanned,
        EventCode::RecomputeStarted,
    ] {
        assert!(
            dump.recent.iter().any(|e| e.code == code),
            "recent events missing {code:?}:\n{}",
            dump.render()
        );
    }
    // Nothing was silently lost, and the phase budget rode along.
    assert_eq!(dump.recorded, dump.recent.len() as u64 + dump.dropped);
    assert!(dump.phases.entries[PhaseKind::RecoveryPlanning.index()].count >= 1);
    // A second driver with the same label would overwrite; the dump we
    // took is ours alone (and no other chain key is parked either).
    assert!(cl.take_blackbox("chain").is_none());
    assert!(cl.take_any_blackbox().is_none());
    // The dump is JSON-serializable for `RCMP_BLACKBOX_DIR`-style
    // export, lineage included.
    let json = dump.to_json();
    assert!(json.contains("RecoveryPlan") && json.contains("reason"));
    // The free-text error names the job, matching the typed field.
    assert_eq!(dump.reason, err.to_string());
    // Run 4's wave events reached the recorder before the death.
    assert!(
        dump.recent
            .iter()
            .any(|e| e.code == EventCode::WaveStart || e.code == EventCode::TaskDone),
        "wave-level events missing from the tail:\n{}",
        dump.render()
    );
}
