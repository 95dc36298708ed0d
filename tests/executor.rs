//! Executor-backend acceptance tests: the async reactor's OS-thread
//! budget at DCO scale, cross-backend agreement on the real engine, and
//! cooperative wave cancellation after a fatal fault.

use rcmp::engine::{Cluster, JobRun, JobTracker, NoFailures, ScriptedInjector, TriggerPoint};
use rcmp::exec::{AsyncExecutor, Executor, SlotOutcome, SlotTask, TaskCtx, WaveSpec};
use rcmp::model::{ByteSize, ClusterConfig, ExecutorConfig, NodeId, SlotConfig, TaskId};
use rcmp::obs::{MetricsRegistry, SnapshotValue, SpanKind, Tracer};
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Acceptance: a DCO-scale wave — every slot of all 60 nodes 80 times
/// over, 4800 logical tasks — runs on the async backend with at most
/// `num_cpus` worker OS threads, observed through the `exec.workers`
/// gauge the reactor sets when it sizes the wave's pool.
#[test]
fn async_dco_wave_runs_on_bounded_worker_pool() {
    const TASKS_PER_NODE: usize = 80;
    let nodes = ClusterConfig::dco().nodes as usize;
    let total = nodes * TASKS_PER_NODE;
    assert_eq!(total, 4800, "the paper's largest wave shape");

    let tracer = Arc::new(Tracer::new());
    let registry = MetricsRegistry::new();
    let exec = AsyncExecutor::new(0).with_obs(tracer, &registry);
    let tasks: Vec<SlotTask<'_, usize>> = (0..total)
        .map(|i| SlotTask::new(move |_: &TaskCtx| i))
        .collect();
    let outcomes = exec.run_wave(&WaveSpec::new("dco-wave", 0xdc0), tasks);

    assert_eq!(outcomes.len(), total);
    for (i, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o, SlotOutcome::Completed(v) if *v == i),
            "outcome {i} not completed in input order: {o:?}"
        );
    }

    let snap = registry.snapshot();
    let workers = match snap.get("exec.workers") {
        Some(SnapshotValue::Gauge(w)) => *w,
        other => panic!("exec.workers gauge missing: {other:?}"),
    };
    assert!(workers >= 1, "at least one worker ran the wave");
    assert!(
        workers as usize <= num_cpus(),
        "4800 slot tasks must not use more than num_cpus ({}) OS threads, used {workers}",
        num_cpus()
    );
    // Admission-yield polling: exactly two polls per completed task.
    assert_eq!(snap.counter("exec.polls"), Some(2 * total as u64));
    assert_eq!(snap.counter("exec.tasks_completed"), Some(total as u64));
    assert_eq!(snap.counter("exec.waves"), Some(1));
}

fn engine_run(
    executor: ExecutorConfig,
) -> (rcmp::engine::JobReport, rcmp::workloads::OutputDigest) {
    let cl = Cluster::new(ClusterConfig {
        nodes: 4,
        slots: SlotConfig::TWO_TWO,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        seed: 9,
        executor,
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
    });
    generate_input(cl.dfs(), &DataGenConfig::test("input", 4, 20_000)).unwrap();
    let chain = ChainBuilder::new(1, 4).build();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    (report, digest)
}

/// Under a fixed cluster seed the backends execute *identical*
/// schedules: same task-to-node-to-wave assignment, same I/O volumes,
/// same output bytes. Wave assignment happens before execution and
/// outcomes are input-ordered, so backend choice cannot leak into
/// anything the policy kernel or the digests observe.
#[test]
fn backends_execute_identical_schedules() {
    let (threaded, threaded_digest) = engine_run(ExecutorConfig::default());
    for cfg in [
        ExecutorConfig::async_auto(),
        ExecutorConfig::async_workers(1),
    ] {
        let (asynced, async_digest) = engine_run(cfg);
        let key = |r: &rcmp::engine::JobReport| -> Vec<(TaskId, NodeId, u32)> {
            r.tasks.iter().map(|t| (t.id, t.node, t.wave)).collect()
        };
        assert_eq!(key(&threaded), key(&asynced), "schedule diverged: {cfg:?}");
        assert_eq!(threaded.map_waves, asynced.map_waves);
        assert_eq!(threaded.reduce_waves, asynced.reduce_waves);
        assert_eq!(threaded.io, asynced.io, "I/O accounting diverged: {cfg:?}");
        assert_eq!(threaded_digest, async_digest, "output diverged: {cfg:?}");
    }
}

fn crash_run(
    executor: ExecutorConfig,
) -> (
    rcmp::engine::JobReport,
    usize,
    rcmp::workloads::OutputDigest,
) {
    let cl = Cluster::new(ClusterConfig {
        nodes: 4,
        slots: SlotConfig::TWO_TWO,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        seed: 11,
        executor,
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
    });
    generate_input(cl.dfs(), &DataGenConfig::test("input", 4, 33_000)).unwrap();
    let chain = ChainBuilder::new(1, 4).build();
    // Kill node 1 after wave 0 is assigned but before it executes: its
    // in-flight map tasks hit fatal node-death failures when they run.
    let injector = Arc::new(ScriptedInjector::single(
        1,
        TriggerPoint::MidMapWave(0),
        NodeId(1),
    ));
    let tracker = JobTracker::new(&cl, injector);
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    let task_spans = cl
        .tracer()
        .snapshot()
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Task { .. }))
        .count();
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    (report, task_spans, digest)
}

/// Cooperative cancellation: with `cancel_on_fatal` on, the first fatal
/// failure of a wave drains the rest of it — the skipped tasks never
/// open task spans and are re-assigned in the next recovery round — so
/// the trace holds strictly fewer task spans than the same crash
/// without cancellation, and the output is still exact.
#[test]
fn cancel_on_fatal_drains_poisoned_wave_early() {
    // Single worker: the wave drains in seeded order, so how many tasks
    // run before the fatal one is a pure function of the seed.
    let (baseline, baseline_spans, baseline_digest) = crash_run(ExecutorConfig::async_workers(1));
    let (cancelled, cancelled_spans, cancelled_digest) =
        crash_run(ExecutorConfig::async_workers(1).with_cancel_on_fatal());

    assert_eq!(baseline.tasks_cancelled, 0);
    assert!(
        cancelled.tasks_cancelled > 0,
        "the fatal fault must cancel at least one queued task"
    );
    assert!(
        cancelled_spans < baseline_spans,
        "cancelled run must attempt fewer tasks ({cancelled_spans} vs {baseline_spans})"
    );
    assert_eq!(
        baseline_digest, cancelled_digest,
        "cancellation must not change the output"
    );
}
