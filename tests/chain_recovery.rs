//! End-to-end multi-job failure-recovery tests (the paper's Fig. 1 and
//! §IV scenarios), driven through the RCMP middleware over the real
//! engine.
//!
//! The central invariant everywhere: the chain's final output digest is
//! a pure function of the input — every strategy, failure pattern and
//! recovery path must reproduce it exactly.

use rcmp::core::driver::RestartMode;
use rcmp::core::strategy::HotspotMitigation;
use rcmp::core::{ChainDriver, ChainEvent, SplitPolicy, Strategy};
use rcmp::engine::failure::Trigger;
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{ClusterConfig, JobId, NodeId, SlotConfig};
use rcmp::workloads::checksum::{digest_file, OutputDigest};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

fn cluster(nodes: u32) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: rcmp::model::ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 7,
    })
}

fn setup(nodes: u32, jobs: u32) -> (Cluster, rcmp::workloads::ChainSpec) {
    let cl = cluster(nodes);
    generate_input(cl.dfs(), &DataGenConfig::test("input", nodes, 25_000)).unwrap();
    let chain = ChainBuilder::new(jobs, nodes).build();
    (cl, chain)
}

/// Failure-free reference digest for a given topology.
fn reference_digest(nodes: u32, jobs: u32) -> OutputDigest {
    let (cl, chain) = setup(nodes, jobs);
    let driver = ChainDriver::new(&cl, Strategy::rcmp_no_split());
    let outcome = driver.run(&chain.jobs).unwrap();
    assert_eq!(outcome.jobs_started, jobs as u64);
    digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0
}

fn final_digest(cl: &Cluster, chain: &rcmp::workloads::ChainSpec) -> OutputDigest {
    digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0
}

#[test]
fn rcmp_failure_free_runs_each_job_once() {
    let (cl, chain) = setup(4, 3);
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_split(3))
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(outcome.jobs_started, 3);
    assert_eq!(outcome.events.recompute_runs(), 0);
    assert_eq!(outcome.events.restarts(), 0);
}

/// The Fig. 1 scenario: a failure late in the chain cascades back and
/// the output is still exact.
#[test]
fn rcmp_cascading_recovery_preserves_output() {
    let reference = reference_digest(5, 3);
    let (cl, chain) = setup(5, 3);
    // Kill a node right as job 3 starts: outputs of jobs 1 and 2 on it
    // are lost, job 3's input is broken.
    let injector = Arc::new(ScriptedInjector::single(
        3,
        TriggerPoint::JobStart,
        NodeId(2),
    ));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();

    assert!(outcome.jobs_started > 3, "recomputation runs were needed");
    assert!(outcome.events.recompute_runs() > 0);
    assert_eq!(
        outcome.events.last_seq(),
        Some(outcome.jobs_started),
        "the event log numbers every run the driver started"
    );
    assert_eq!(
        outcome.events.restarts(),
        0,
        "RCMP never restarts the chain"
    );
    assert_eq!(final_digest(&cl, &chain), reference);
}

/// Recomputation runs execute only a fraction of the tasks (the paper's
/// 1/N claim): reducers only for lost partitions, mappers only where
/// persisted outputs died with the node.
#[test]
fn recomputation_runs_are_minimal() {
    let (cl, chain) = setup(5, 3);
    let injector = Arc::new(ScriptedInjector::single(
        3,
        TriggerPoint::JobStart,
        NodeId(1),
    ));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();

    let full_reduce = 5; // num_reducers per job
    let mut saw_partial = false;
    for (i, run) in outcome.runs.iter().enumerate() {
        let recompute = outcome.events.iter().any(
            |e| matches!(e, ChainEvent::JobStarted { seq, recompute: true, .. } if *seq == run.seq),
        );
        if recompute {
            assert!(
                run.reduce_tasks_run < full_reduce,
                "run {i}: recompute ran {} of {full_reduce} reducers",
                run.reduce_tasks_run
            );
            assert!(
                run.map_tasks_reused > 0,
                "run {i}: persisted map outputs must be reused"
            );
            saw_partial = true;
        }
    }
    assert!(saw_partial, "at least one recomputation run happened");
}

/// Double failure at different jobs (the paper's FAIL X,Y cases).
#[test]
fn rcmp_survives_double_failure() {
    let reference = reference_digest(6, 4);
    let (cl, chain) = setup(6, 4);
    let injector = Arc::new(ScriptedInjector::new([
        Trigger {
            seq: 2,
            point: TriggerPoint::JobStart,
            node: NodeId(1),
        },
        Trigger {
            seq: 5, // after recovery of the first failure, a later run
            point: TriggerPoint::JobStart,
            node: NodeId(3),
        },
    ]));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_split(4))
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(outcome.events.losses(), 2);
    assert!(
        outcome.events.recoveries().count() >= 2,
        "each failure produced at least one recovery plan"
    );
    assert_eq!(final_digest(&cl, &chain), reference);
}

/// Nested failure: the second node dies while RCMP is still recovering
/// from the first (the paper's FAIL 4,7 nested case, §V-B). The driver
/// replans from current state and still converges.
#[test]
fn rcmp_survives_nested_failure_during_recovery() {
    let reference = reference_digest(6, 3);
    let (cl, chain) = setup(6, 3);
    // First kill as job 3 starts (seq 3). Recovery steps follow as seq
    // 4+; kill another node inside the first recovery run.
    let injector = Arc::new(ScriptedInjector::new([
        Trigger {
            seq: 3,
            point: TriggerPoint::JobStart,
            node: NodeId(0),
        },
        Trigger {
            seq: 4,
            point: TriggerPoint::AfterMapWave(0),
            node: NodeId(1),
        },
    ]));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert!(injector_unfired_empty(&outcome), "both kills fired");
    assert_eq!(cl.live_nodes().len(), 4);
    assert_eq!(final_digest(&cl, &chain), reference);
}

fn injector_unfired_empty(outcome: &rcmp::core::ChainOutcome) -> bool {
    // Two loss events recorded means both triggers fired.
    outcome.events.losses() == 2
}

/// OPTIMISTIC: any loss restarts the whole computation; output still
/// exact.
#[test]
fn optimistic_restarts_and_still_correct() {
    let reference = reference_digest(5, 3);
    let (cl, chain) = setup(5, 3);
    let injector = Arc::new(ScriptedInjector::single(
        3,
        TriggerPoint::JobStart,
        NodeId(2),
    ));
    let outcome = ChainDriver::new(&cl, Strategy::Optimistic)
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(outcome.events.restarts(), 1);
    assert_eq!(
        outcome.jobs_started,
        3 + 3,
        "2 jobs before cancel + cancelled job + full 3-job restart"
    );
    assert_eq!(outcome.events.recompute_runs(), 0);
    assert_eq!(final_digest(&cl, &chain), reference);
}

/// REPL-2 absorbs a single failure with zero extra job runs.
#[test]
fn replication_absorbs_single_failure() {
    let reference = reference_digest(5, 3);
    let (cl, chain) = setup(5, 3);
    let injector = Arc::new(ScriptedInjector::single(
        2,
        TriggerPoint::AfterMapWave(0),
        NodeId(4),
    ));
    let outcome = ChainDriver::new(&cl, Strategy::Replication { factor: 2 })
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(outcome.jobs_started, 3, "no resubmissions needed");
    assert_eq!(outcome.events.restarts(), 0);
    assert_eq!(final_digest(&cl, &chain), reference);
}

/// Reducer splitting during recovery: same output, more (smaller)
/// reduce tasks, spread over survivors.
#[test]
fn split_recovery_spreads_reduce_work() {
    let reference = reference_digest(6, 3);
    let (cl, chain) = setup(6, 3);
    let injector = Arc::new(ScriptedInjector::single(
        3,
        TriggerPoint::JobStart,
        NodeId(2),
    ));
    let outcome = ChainDriver::new(
        &cl,
        Strategy::Rcmp {
            split: SplitPolicy::Survivors,
            hotspot: HotspotMitigation::SplitReducers,
        },
    )
    .with_injector(injector)
    .run(&chain.jobs)
    .unwrap();

    // Some recompute run must have executed more reduce tasks than
    // partitions it regenerated (splits), on several distinct nodes.
    let split_run = outcome.runs.iter().find(|r| {
        r.reduce_tasks_run > 0
            && r.reduce_records()
                .any(|t| matches!(t.id, rcmp::model::TaskId::Reduce(rt) if rt.is_split()))
    });
    let split_run = split_run.expect("a split recomputation ran");
    let nodes_used: std::collections::HashSet<_> =
        split_run.reduce_records().map(|t| t.node).collect();
    assert!(
        nodes_used.len() > 1,
        "splits must use multiple nodes, used {nodes_used:?}"
    );
    assert_eq!(final_digest(&cl, &chain), reference);
}

/// Hybrid (§IV-C): replication points bound the cascade, and storage
/// behind the point is reclaimed.
#[test]
fn hybrid_bounds_cascade_and_reclaims() {
    let reference = reference_digest(6, 6);
    let (cl, chain) = setup(6, 6);
    let injector = Arc::new(ScriptedInjector::single(
        6,
        TriggerPoint::JobStart,
        NodeId(3),
    ));
    let outcome = ChainDriver::new(
        &cl,
        Strategy::Hybrid {
            split: SplitPolicy::None,
            every_k: 2,
            factor: 2,
            reclaim: true,
        },
    )
    .with_injector(injector)
    .run(&chain.jobs)
    .unwrap();

    // Replication points after jobs 2, 4, 6.
    let points: Vec<_> = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            ChainEvent::ReplicationPoint { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    assert_eq!(points, vec![JobId(2), JobId(4), JobId(6)]);

    // No recovery step reaches at or below the last replication point
    // (job 4) — out/4 is replicated, the cascade stops above it.
    for e in outcome.events.iter() {
        if let ChainEvent::JobStarted {
            recompute: true,
            job,
            ..
        } = e
        {
            assert!(
                job.raw() > 4,
                "cascade crossed the replication point: recomputed {job}"
            );
        }
    }

    // Reclamation happened and removed old files.
    assert!(outcome
        .events
        .iter()
        .any(|e| matches!(e, ChainEvent::StorageReclaimed { .. })));
    assert!(!cl.dfs().file_exists("out/1"));
    assert!(!cl.dfs().file_exists("out/3"));

    assert_eq!(final_digest(&cl, &chain), reference);
}

/// The resume-partial extension (the paper's "ideal" behaviour, §V-A):
/// the cancelled job re-runs only its lost partitions, reusing its own
/// surviving persisted map outputs — Fig. 1's minimal task set.
#[test]
fn resume_partial_restart_is_minimal_and_correct() {
    let reference = reference_digest(5, 3);
    let (cl, chain) = setup(5, 3);
    let injector = Arc::new(ScriptedInjector::single(
        2,
        TriggerPoint::AfterReduceWave(0),
        NodeId(1),
    ));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_restart_mode(RestartMode::ResumePartial)
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(final_digest(&cl, &chain), reference);

    // If the failure cancelled job 2 (it can also be absorbed
    // intra-job when the damaged partitions' inputs survive), the retry
    // must have been a partial resume.
    let cancelled = outcome
        .events
        .iter()
        .any(|e| matches!(e, ChainEvent::JobCancelled { .. }));
    if cancelled {
        let resumed = outcome.events.events_for_job(JobId(2)).any(|e| {
            matches!(
                e,
                ChainEvent::JobStarted {
                    recompute: true,
                    ..
                }
            )
        });
        assert!(resumed, "job 2 retried as a resume, not Full");
    }
}

/// Losses that break nothing downstream are abandoned, not recomputed
/// (minimality of the plan): killing a node after the chain finishes
/// changes nothing.
#[test]
fn post_completion_loss_requires_no_work() {
    let (cl, chain) = setup(4, 2);
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(outcome.jobs_started, 2);
    // Node dies after completion; final output may lose partitions (a
    // real system would replicate the terminal output), but no driver
    // activity is pending and earlier intermediate losses are moot.
    let _ = cl.fail_node(NodeId(0));
}
