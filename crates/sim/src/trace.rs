//! Converts a [`SimChainReport`] into the observability span schema.
//!
//! A simulated chain is recorded in the same
//! [`EventLog`](rcmp_policy::EventLog) the chain loop writes for the
//! engine, stamped in simulated seconds. This module lowers that log,
//! with the per-run reports, into the same [`Trace`] the engine's
//! tracer holds, so the analyzers and exporters in `rcmp-obs` (slot
//! occupancy, critical path, Chrome trace export) work on simulated
//! chains at paper scale too.
//!
//! Mapping notes:
//!
//! * Simulated seconds become microseconds (the span clock unit).
//! * A run's `JobRun` span ends at its `JobCompleted` timestamp and
//!   starts `duration` earlier; runs without a completion event (none
//!   in practice) start at 0.
//! * Per-task durations are emitted as `Task` spans starting at the
//!   phase start — the simulator does not retain per-wave placement, so
//!   `Wave` spans use an even split of tasks over the recorded wave
//!   count. Wave capacity is the chain's fullest wave of that phase
//!   (full runs fill the cluster, so this estimates the cluster's slot
//!   capacity); recomputation runs then show Fig. 4's under-utilization.
//! * A `LossObserved` becomes a `Fault` instant at its fault stamp and
//!   a `failure_detected` instant at its detection stamp;
//!   `RecoveryPlanned` becomes a `RecoveryPlan` span for its target,
//!   caused by the latest fault and drawn at the cancellation that
//!   called for it (the backoff before planning is not drawn); each
//!   recompute `JobRun` is caused by the latest plan (or fault) at its
//!   start time — the same causal chain the engine records live.
//!   Restarts and replication points are instants; starts,
//!   cancellations and reclamation add no span.

use crate::report::{SimChainReport, SimJobReport};
use rcmp_model::{JobId, NodeId, TaskId};
use rcmp_obs::{FaultKind, Phase, Span, SpanId, SpanKind, Trace};
use rcmp_policy::ChainEvent;

/// Seconds → span microseconds.
fn us(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

struct Builder {
    spans: Vec<Span>,
    next: u64,
}

impl Builder {
    fn new() -> Self {
        Self {
            spans: Vec::new(),
            next: 1,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        kind: SpanKind,
        parent: Option<SpanId>,
        cause: Option<SpanId>,
        node: Option<NodeId>,
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        let id = SpanId(self.next);
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            cause,
            node,
            start_us,
            end_us,
            kind,
        });
        id
    }

    /// A zero-length span at `at` seconds.
    fn instant(
        &mut self,
        kind: SpanKind,
        cause: Option<SpanId>,
        node: Option<NodeId>,
        at: f64,
    ) -> SpanId {
        self.push(kind, None, cause, node, us(at), us(at))
    }
}

/// Tasks per wave under an even split.
fn per_wave(n: usize, waves: u32) -> usize {
    if waves == 0 {
        0
    } else {
        n.div_ceil(waves as usize)
    }
}

/// Emits `Wave` spans for one phase: `n` tasks spread evenly over
/// `waves` waves across the run's phase window, with `capacity` slots
/// per wave (the chain-wide estimate).
#[allow(clippy::too_many_arguments)]
fn emit_waves(
    b: &mut Builder,
    parent: SpanId,
    phase: Phase,
    n: usize,
    waves: u32,
    capacity: u32,
    start_us: u64,
    end_us: u64,
) {
    if waves == 0 || n == 0 {
        return;
    }
    let per_wave = per_wave(n, waves);
    let width = (end_us.saturating_sub(start_us)) / waves as u64;
    let mut remaining = n;
    for w in 0..waves {
        let tasks = remaining.min(per_wave);
        remaining -= tasks;
        let ws = start_us + width * w as u64;
        let we = if w + 1 == waves { end_us } else { ws + width };
        b.push(
            SpanKind::Wave {
                phase,
                index: w,
                tasks: tasks as u32,
                capacity: capacity.max(tasks as u32),
            },
            Some(parent),
            None,
            None,
            ws,
            we,
        );
    }
}

fn emit_run(
    b: &mut Builder,
    run: &SimJobReport,
    end_at: Option<f64>,
    cause: Option<SpanId>,
    caps: (u32, u32),
) {
    let dur_us = us(run.duration);
    let (start, end) = match end_at {
        Some(at) => (us(at).saturating_sub(dur_us), us(at)),
        None => (0, dur_us),
    };
    let job = JobId(run.job);
    let job_span = b.push(
        SpanKind::JobRun {
            seq: run.seq,
            job,
            recompute: run.recompute,
            live_nodes: 0,
            map_slots: 0,
            reduce_slots: 0,
            ok: true,
            tenant: None,
        },
        None,
        cause,
        None,
        start,
        end,
    );
    // Map phase occupies the window up to the longest mapper; reducers
    // start after it.
    let map_end = start
        + run
            .mapper_durations
            .iter()
            .copied()
            .fold(0u64, |m, d| m.max(us(d)));
    emit_waves(
        b,
        job_span,
        Phase::Map,
        run.mapper_durations.len(),
        run.map_waves,
        caps.0,
        start,
        map_end.min(end),
    );
    emit_waves(
        b,
        job_span,
        Phase::Reduce,
        run.reducer_durations.len(),
        run.reduce_waves,
        caps.1,
        map_end.min(end),
        end,
    );
    for (i, d) in run.mapper_durations.iter().enumerate() {
        b.push(
            SpanKind::Task {
                id: TaskId::Map(rcmp_model::MapTaskId::new(job, i as u32)),
                bytes_in: 0,
                bytes_out: 0,
                input_source: None,
                ok: true,
            },
            Some(job_span),
            None,
            None,
            start,
            (start + us(*d)).min(end),
        );
    }
    for (i, d) in run.reducer_durations.iter().enumerate() {
        let rs = map_end.min(end);
        b.push(
            SpanKind::Task {
                id: TaskId::Reduce(rcmp_model::ReduceTaskId::whole(
                    job,
                    rcmp_model::PartitionId(i as u32),
                )),
                bytes_in: 0,
                bytes_out: 0,
                input_source: None,
                ok: true,
            },
            Some(job_span),
            None,
            None,
            rs,
            (rs + us(*d)).min(end),
        );
    }
}

/// Lowers a simulated chain into the engine's span schema.
pub fn chain_trace(report: &SimChainReport) -> Trace {
    let mut b = Builder::new();

    // Slot-capacity estimate per phase: the chain's fullest wave. Full
    // runs fill the cluster, so this recovers the slot count without the
    // report having to carry the workload config.
    let caps = report.runs.iter().fold((0u32, 0u32), |acc, r| {
        (
            acc.0
                .max(per_wave(r.mapper_durations.len(), r.map_waves) as u32),
            acc.1
                .max(per_wave(r.reducer_durations.len(), r.reduce_waves) as u32),
        )
    });

    // Timeline events first: faults and plans carry the causal chain.
    // `causes` is the chronological list of candidate cause spans.
    let mut completed_at: Vec<(u64, f64)> = Vec::new();
    let mut causes: Vec<(u64, SpanId)> = Vec::new();
    let mut cancelled_at = 0.0f64;
    let mut last_fault: Option<SpanId> = None;
    let event = |label: String| SpanKind::Event { seq: 0, label };
    for (fault, at, e) in report.events.stamped() {
        match *e {
            ChainEvent::JobCompleted { seq, .. } => completed_at.push((seq, at)),
            ChainEvent::LossObserved { node, .. } => {
                let kind = SpanKind::Fault {
                    seq: 0,
                    kind: FaultKind::NodeCrash,
                    at: "Simulated".to_string(),
                };
                let id = b.instant(kind, None, node, fault);
                last_fault = Some(id);
                causes.push((us(fault), id));
                let label = node.map_or("failure_detected".into(), |n| {
                    format!("failure_detected node {}", n.raw())
                });
                b.instant(event(label), None, node, at);
            }
            ChainEvent::JobCancelled { .. } => cancelled_at = at,
            ChainEvent::RecoveryPlanned {
                target,
                steps,
                partitions,
            } => {
                let plan = SpanKind::RecoveryPlan {
                    target,
                    steps: steps as u32,
                    partitions: partitions as u32,
                };
                let id = b.instant(plan, last_fault, None, cancelled_at);
                causes.push((us(cancelled_at), id));
            }
            ChainEvent::ChainRestarted => {
                b.instant(event("chain_restarted".into()), None, None, at);
            }
            ChainEvent::ReplicationPoint { job, .. } => {
                let label = format!("replication_point job {}", job.raw());
                b.instant(event(label), None, None, at);
            }
            ChainEvent::JobStarted { .. } | ChainEvent::StorageReclaimed { .. } => {}
        }
    }

    for run in &report.runs {
        let end_at = completed_at
            .iter()
            .find(|(s, _)| *s == run.seq)
            .map(|(_, at)| *at);
        let cause = if run.recompute {
            let start = end_at.map(|at| us(at).saturating_sub(us(run.duration)));
            match start {
                // Latest cause at or before the run started (tolerance
                // for rounding), else the earliest one.
                Some(s) => causes
                    .iter()
                    .rev()
                    .find(|(at, _)| *at <= s + 1)
                    .or(causes.first())
                    .map(|(_, id)| *id),
                None => causes.last().map(|(_, id)| *id),
            }
        } else {
            None
        };
        emit_run(&mut b, run, end_at, cause, caps);
    }

    b.spans.sort_by_key(|s| (s.start_us, s.id.0));
    Trace { spans: b.spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SimIo;

    fn completed(seq: u64, job: u32) -> ChainEvent {
        ChainEvent::JobCompleted {
            seq,
            job: JobId(job),
            map_tasks_run: 3,
            map_tasks_reused: 0,
            reduce_tasks_run: 2,
        }
    }

    fn run(seq: u64, job: u32, dur: f64, recompute: bool) -> SimJobReport {
        SimJobReport {
            job,
            seq,
            duration: dur,
            map_waves: 2,
            reduce_waves: 1,
            mappers_run: 3,
            mappers_reused: 0,
            reduce_tasks_run: 2,
            mapper_durations: vec![1.0, 1.5, 0.5],
            reducer_durations: vec![2.0, 2.5],
            io: SimIo::default(),
            cache_hits: 0,
            cache_hits_local: 0,
            cache_read_bytes: 0,
            recompute,
            speculation: Default::default(),
        }
    }

    #[test]
    fn lowers_runs_waves_and_tasks() {
        let mut rep = SimChainReport::default();
        rep.runs.push(run(1, 1, 10.0, false));
        let log = &mut rep.events;
        log.push(10.0, completed(1, 1));
        let tr = chain_trace(&rep);
        assert_eq!(tr.of_kind("JobRun").count(), 1);
        assert_eq!(tr.of_kind("Wave").count(), 3, "2 map + 1 reduce");
        assert_eq!(tr.of_kind("Task").count(), 5, "3 mappers + 2 reducers");
        let job = tr.of_kind("JobRun").next().unwrap();
        assert_eq!(job.start_us, 0);
        assert_eq!(job.end_us, 10_000_000);
        // Waves and tasks hang off the run.
        assert!(tr
            .spans()
            .iter()
            .filter(|s| s.id != job.id)
            .all(|s| s.parent == Some(job.id)));
    }

    #[test]
    fn recompute_run_is_caused_by_the_plan() {
        let mut rep = SimChainReport::default();
        rep.runs.push(run(1, 1, 10.0, false));
        rep.runs.push(run(3, 1, 5.0, true));
        let log = &mut rep.events;
        log.push(10.0, completed(1, 1));
        let loss = ChainEvent::LossObserved {
            seq: 2,
            node: Some(NodeId(2)),
            lost_partitions: 4,
        };
        log.push_loss(11.0, 11.5, loss);
        let (seq, job) = (2, JobId(2));
        log.push(11.5, ChainEvent::JobCancelled { seq, job });
        let (steps, partitions) = (1, 4);
        let planned = ChainEvent::RecoveryPlanned {
            target: job,
            steps,
            partitions,
        };
        log.push(11.5, planned);
        log.push(17.0, completed(3, 1));
        let tr = chain_trace(&rep);
        let plan = tr.of_kind("RecoveryPlan").next().expect("plan span");
        let fault = tr.of_kind("Fault").next().expect("fault span");
        assert_eq!(plan.cause, Some(fault.id));
        assert_eq!(fault.start_us, 11_000_000);
        assert_eq!(plan.start_us, 11_500_000);
        let recompute = tr
            .spans()
            .iter()
            .find(|s| {
                matches!(
                    s.kind,
                    SpanKind::JobRun {
                        recompute: true,
                        ..
                    }
                )
            })
            .expect("recompute run span");
        assert_eq!(recompute.cause, Some(plan.id));
        assert_eq!(recompute.start_us, 12_000_000);
    }
}
