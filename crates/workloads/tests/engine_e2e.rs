//! End-to-end engine tests: real jobs over real data.

use rcmp_engine::{
    Cluster, JobRun, JobTracker, NoFailures, RecomputeInstructions, ScriptedInjector, TriggerPoint,
};
use rcmp_model::{ClusterConfig, Error, NodeId, PartitionId, SlotConfig};
use rcmp_workloads::checksum::digest_file;
use rcmp_workloads::{generate_input, ChainBuilder, DataGenConfig, OutputDigest};
use std::sync::Arc;

fn test_cluster(nodes: u32) -> Cluster {
    let cfg = ClusterConfig {
        nodes,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp_model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: rcmp_model::ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 42,
    };
    Cluster::new(cfg)
}

fn gen_input(cluster: &Cluster, partitions: u32, bytes_per_partition: u64) {
    let cfg = DataGenConfig {
        replication: 3.min(cluster.config().nodes),
        ..DataGenConfig::test("input", partitions, bytes_per_partition)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
}

fn live_reader(cluster: &Cluster) -> NodeId {
    cluster.live_nodes()[0]
}

#[test]
fn single_job_runs_and_conserves_volume() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 20_000);
    let chain = ChainBuilder::new(1, 4).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();

    assert_eq!(report.reduce_tasks_run, 4);
    assert!(report.map_tasks_run > 0);
    assert_eq!(report.map_tasks_reused, 0);
    assert!(report.losses.is_empty());

    let (in_digest, _) = digest_file(cluster.dfs(), "input", live_reader(&cluster)).unwrap();
    let (out_digest, _) = digest_file(cluster.dfs(), "out/1", live_reader(&cluster)).unwrap();
    // 1:1:1 ratios conserve record count and value bytes.
    assert_eq!(out_digest.count, in_digest.count);
    assert_eq!(out_digest.value_bytes, in_digest.value_bytes);
    // Shuffle volume equals map output (all mapper output is consumed).
    assert!(report.io.shuffle_total() > 0);
    assert_eq!(
        report.io.output_written,
        out_digest.value_bytes + 12 * out_digest.count
    );
}

#[test]
fn chain_of_three_jobs_produces_complete_output() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 20_000);
    let chain = ChainBuilder::new(3, 4).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    for (i, spec) in chain.jobs.iter().enumerate() {
        tracker
            .run(&JobRun::full(spec.clone()), (i + 1) as u64)
            .unwrap();
    }
    let (final_digest, _) = digest_file(cluster.dfs(), "out/3", live_reader(&cluster)).unwrap();
    let (in_digest, _) = digest_file(cluster.dfs(), "input", live_reader(&cluster)).unwrap();
    assert_eq!(final_digest.count, in_digest.count);
    assert_eq!(final_digest.value_bytes, in_digest.value_bytes);
}

/// The golden-output property: a failure absorbed by replication yields
/// exactly the same output as a failure-free run.
#[test]
fn replicated_job_survives_node_kill_with_identical_output() {
    // Failure-free reference.
    let reference = {
        let cluster = test_cluster(4);
        gen_input(&cluster, 4, 30_000);
        let chain = ChainBuilder::new(1, 4).replication(2).build();
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
        digest_file(cluster.dfs(), "out/1", live_reader(&cluster))
            .unwrap()
            .0
    };

    // Same workload, node killed after the first map wave.
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 30_000);
    let chain = ChainBuilder::new(1, 4).replication(2).build();
    let injector = Arc::new(ScriptedInjector::single(
        1,
        TriggerPoint::AfterMapWave(0),
        NodeId(2),
    ));
    let tracker = JobTracker::new(&cluster, injector.clone());
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    assert!(injector.unfired().is_empty(), "kill must have fired");
    assert_eq!(report.losses.len(), 1);

    let digest = digest_file(cluster.dfs(), "out/1", live_reader(&cluster))
        .unwrap()
        .0;
    assert_eq!(digest, reference, "failure must not change the output");
}

/// Without input replication, losing a node mid-job is unrecoverable:
/// the tracker reports which input partitions are gone (the RCMP
/// middleware's recovery trigger).
#[test]
fn unreplicated_input_loss_cancels_job() {
    let cluster = test_cluster(4);
    let cfg = DataGenConfig {
        replication: 1,
        ..DataGenConfig::test("input", 4, 30_000)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    let chain = ChainBuilder::new(1, 4).build();
    let injector = Arc::new(ScriptedInjector::single(
        1,
        TriggerPoint::AfterMapWave(0),
        NodeId(1),
    ));
    let tracker = JobTracker::new(&cluster, injector);
    let err = tracker
        .run(&JobRun::full(chain.job(1).clone()), 1)
        .unwrap_err();
    match err {
        Error::JobInputLost {
            job,
            lost_partitions,
        } => {
            assert_eq!(job.raw(), 1);
            assert!(!lost_partitions.is_empty());
        }
        other => panic!("expected JobInputLost, got {other}"),
    }
}

/// Recompute mode re-executes only the tagged partition's reducer and
/// reuses every persisted map output (no mappers re-run), and the
/// regenerated partition is byte-equivalent to the original.
#[test]
fn recompute_single_partition_reuses_map_outputs() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 30_000);
    let chain = ChainBuilder::new(1, 4).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();

    let (_, before_parts) = digest_file(cluster.dfs(), "out/1", live_reader(&cluster)).unwrap();

    // Simulate the partition being damaged, then recompute it.
    let instructions = RecomputeInstructions::new([PartitionId(2)], None);
    let report = tracker
        .run(&JobRun::recompute(chain.job(1).clone(), instructions), 2)
        .unwrap();
    assert_eq!(report.map_tasks_run, 0, "all map outputs reused");
    assert!(report.map_tasks_reused > 0);
    assert_eq!(report.reduce_tasks_run, 1);

    let (_, after_parts) = digest_file(cluster.dfs(), "out/1", live_reader(&cluster)).unwrap();
    assert_eq!(before_parts, after_parts, "recomputed partition identical");
}

/// Splitting a recomputed reducer preserves the partition's record
/// multiset while spreading its bytes over several nodes.
#[test]
fn split_recompute_preserves_partition_contents() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 40_000);
    let chain = ChainBuilder::new(1, 4).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    let (_, before_parts) = digest_file(cluster.dfs(), "out/1", live_reader(&cluster)).unwrap();

    let instructions = RecomputeInstructions::new([PartitionId(1)], Some(3));
    let report = tracker
        .run(&JobRun::recompute(chain.job(1).clone(), instructions), 2)
        .unwrap();
    assert_eq!(report.reduce_tasks_run, 3, "three splits ran");

    let (_, after_parts) = digest_file(cluster.dfs(), "out/1", live_reader(&cluster)).unwrap();
    assert_eq!(before_parts, after_parts);

    // The partition's segments now come from 3 writers.
    let meta = cluster.dfs().file_meta("out/1").unwrap();
    assert_eq!(meta.partitions[1].segments.len(), 3);
}

/// Splitting an unsplittable job is refused.
#[test]
fn unsplittable_job_rejects_split() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 10_000);
    let chain = ChainBuilder::new(1, 4).splittable(false).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    let err = tracker
        .run(
            &JobRun::recompute(
                chain.job(1).clone(),
                RecomputeInstructions::new([PartitionId(0)], Some(2)),
            ),
            2,
        )
        .unwrap_err();
    assert!(matches!(err, Error::UnsplittableJob(_)));
}

/// The Fig.-5 scenario, engine-level: after an upstream partition is
/// regenerated by *split* reducers, the downstream job's persisted map
/// outputs for that partition are invalidated by the fingerprint check —
/// forcing unsafe reuse instead produces duplicated/missing keys.
#[test]
fn fig5_fingerprints_invalidate_stale_map_outputs() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 40_000);
    let chain = ChainBuilder::new(2, 4).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    tracker.run(&JobRun::full(chain.job(2).clone()), 2).unwrap();
    let (good, _) = digest_file(cluster.dfs(), "out/2", live_reader(&cluster)).unwrap();

    // Regenerate out/1 partition 0 with splitting: same records, but
    // block boundaries (and thus fingerprints) change.
    tracker
        .run(
            &JobRun::recompute(
                chain.job(1).clone(),
                RecomputeInstructions::new([PartitionId(0)], Some(2)),
            ),
            3,
        )
        .unwrap();

    // Correct behaviour: recompute job 2's partition 0 with the safe
    // fingerprint rule. Mappers reading the regenerated partition re-run.
    let report = tracker
        .run(
            &JobRun::recompute(
                chain.job(2).clone(),
                RecomputeInstructions::new([PartitionId(0)], None),
            ),
            4,
        )
        .unwrap();
    assert!(
        report.map_tasks_run > 0,
        "stale fingerprints must force mapper re-runs"
    );
    let (after, _) = digest_file(cluster.dfs(), "out/2", live_reader(&cluster)).unwrap();
    assert_eq!(after, good, "safe reuse keeps the output correct");

    // Now the buggy behaviour the paper warns about. Fig. 5 needs a
    // *mix*: one mapper re-run against the regenerated (re-partitioned)
    // blocks while a sibling's stale output is reused — reusing *all*
    // stale outputs would be accidentally correct because the partition
    // holds the same record multiset. Regenerate out/1 partition 1 with
    // splitting, drop one of job 2's map outputs over that partition
    // (M1's loss in the figure), then recompute job 2's partition 1
    // while unsafely reusing the remaining stale outputs (M2 reused).
    tracker
        .run(
            &JobRun::recompute(
                chain.job(1).clone(),
                RecomputeInstructions::new([PartitionId(1)], Some(2)),
            ),
            5,
        )
        .unwrap();
    let store = cluster.map_outputs();
    let stale_keys: Vec<_> = store
        .keys_for_job(rcmp_model::JobId(2))
        .into_iter()
        .filter(|k| k.pid == PartitionId(1))
        .collect();
    assert!(stale_keys.len() >= 2, "need at least two mappers to mix");
    assert!(store.remove(&stale_keys[0]));

    let mut unsafe_instr = RecomputeInstructions::new([PartitionId(1)], None);
    unsafe_instr.unsafe_ignore_fingerprints = true;
    let report = tracker
        .run(&JobRun::recompute(chain.job(2).clone(), unsafe_instr), 6)
        .unwrap();
    assert!(
        report.map_tasks_run >= 1,
        "the dropped mapper re-runs on the regenerated blocks"
    );
    assert!(report.map_tasks_reused > 0, "stale siblings were reused");
    let (bad, _) = digest_file(cluster.dfs(), "out/2", live_reader(&cluster)).unwrap();
    assert_ne!(
        bad, good,
        "Fig. 5: mixing re-run and stale map outputs corrupts the job output"
    );
}

/// Map outputs persist across jobs and are dropped with their node.
#[test]
fn map_outputs_persist_and_die_with_node() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 20_000);
    let chain = ChainBuilder::new(1, 4).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    let total = cluster.map_outputs().len();
    assert!(total > 0);
    cluster.fail_node(NodeId(0));
    assert!(cluster.map_outputs().len() < total);
}

/// Hadoop baseline semantics: persist_map_outputs = false clears the
/// store at job end.
#[test]
fn hadoop_mode_discards_map_outputs() {
    let cluster = test_cluster(4);
    gen_input(&cluster, 4, 20_000);
    let chain = ChainBuilder::new(1, 4).replication(2).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    let mut run = JobRun::full(chain.job(1).clone());
    run.persist_map_outputs = false;
    tracker.run(&run, 1).unwrap();
    assert!(cluster.map_outputs().is_empty());
}

/// Double kill during one replicated job still completes with correct
/// output (REPL-3 survives two failures).
#[test]
fn repl3_survives_double_failure() {
    let reference = {
        let cluster = test_cluster(5);
        gen_input(&cluster, 5, 30_000);
        let chain = ChainBuilder::new(1, 5).replication(3).build();
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
        digest_file(cluster.dfs(), "out/1", live_reader(&cluster))
            .unwrap()
            .0
    };

    let cluster = test_cluster(5);
    gen_input(&cluster, 5, 30_000);
    let chain = ChainBuilder::new(1, 5).replication(3).build();
    let injector = Arc::new(ScriptedInjector::new([
        rcmp_engine::failure::Trigger {
            seq: 1,
            point: TriggerPoint::AfterMapWave(0),
            node: NodeId(1),
        },
        rcmp_engine::failure::Trigger {
            seq: 1,
            point: TriggerPoint::AfterReduceWave(0),
            node: NodeId(3),
        },
    ]));
    let tracker = JobTracker::new(&cluster, injector);
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    assert_eq!(report.losses.len(), 2);
    let digest = digest_file(cluster.dfs(), "out/1", live_reader(&cluster))
        .unwrap()
        .0;
    assert_eq!(digest, reference);
}

/// Sanity for digests: two distinct inputs give distinct outputs.
#[test]
fn digests_distinguish_different_inputs() {
    let d1 = {
        let cluster = test_cluster(3);
        let cfg = DataGenConfig {
            seed: 1,
            ..DataGenConfig::test("input", 3, 10_000)
        };
        generate_input(cluster.dfs(), &cfg).unwrap();
        digest_file(cluster.dfs(), "input", NodeId(0)).unwrap().0
    };
    let d2 = {
        let cluster = test_cluster(3);
        let cfg = DataGenConfig {
            seed: 2,
            ..DataGenConfig::test("input", 3, 10_000)
        };
        generate_input(cluster.dfs(), &cfg).unwrap();
        digest_file(cluster.dfs(), "input", NodeId(0)).unwrap().0
    };
    assert_ne!(d1, d2);
    assert_ne!(OutputDigest::default(), d1);
}
