//! Differential tests for the shuffle data path.
//!
//! The streaming merge, the map-side combiner and the sharded block
//! stores are all *performance* mechanisms; the contract is that none of
//! them is observable in the output. Each test here holds the engine to
//! an oracle — the sort-all shuffle rebuilt from the job's own map
//! outputs, the combiner-less job, the single-lock store — and demands
//! byte-identical digests (and, where the accounting is deterministic,
//! identical I/O numbers).
//!
//! Each proptest case draws its worker-pool size and placement kernel,
//! so the differentials hold on every one of them.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::shuffle::sort_and_group;
use rcmp::engine::{
    Cluster, JobReport, JobRun, JobSpec, JobTracker, NoFailures, RandomizedInjector,
};
use rcmp::model::{
    ByteSize, ClusterConfig, Error, ExecutorConfig, PartitionId, PlacementKernel, RecordReader,
    ReduceTaskId, ShuffleConfig, SlotConfig,
};
use rcmp::obs::SnapshotValue;
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, AggBuilder, ChainBuilder, DataGenConfig, OutputDigest};
use std::sync::Arc;

const NODES: u32 = 4;

/// One (pool size, kernel) leg, drawn by index from a proptest case.
fn leg(pool: usize, kernel: usize) -> (ExecutorConfig, PlacementKernel) {
    let pools = [
        ExecutorConfig::default(),
        ExecutorConfig::async_workers(1),
        ExecutorConfig::async_workers(2),
    ];
    let kernels = [
        PlacementKernel::Default,
        PlacementKernel::RackAware,
        PlacementKernel::Delay { rounds: 3 },
        PlacementKernel::CapacityWeighted,
    ];
    (pools[pool], kernels[kernel])
}

fn cluster(
    seed: u64,
    shuffle: ShuffleConfig,
    (executor, placement): (ExecutorConfig, PlacementKernel),
) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::TWO_TWO,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        seed,
        executor,
        shuffle,
        retry: Default::default(),
        placement,
        chain_cache: Default::default(),
    })
}

/// One fault-free job run, beside the sort-all oracle's view of it.
struct Run {
    report: JobReport,
    /// The output file's digest, and its per-partition digests.
    digest: OutputDigest,
    partitions: Vec<OutputDigest>,
    /// The oracle's per-partition digests.
    oracle: Vec<OutputDigest>,
    /// Payload bytes the oracle fetched over all reduce tasks.
    oracle_shuffle: u64,
}

impl Run {
    fn shuffle_bytes(&self) -> u64 {
        self.report.io.shuffle_local + self.report.io.shuffle_remote
    }
}

fn run(seed: u64, records: u64, spec: JobSpec, leg: (ExecutorConfig, PlacementKernel)) -> Run {
    let cl = cluster(seed, ShuffleConfig::default(), leg);
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, records)).unwrap();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(spec.clone()), 1).unwrap();
    let (digest, partitions) = digest_file(cl.dfs(), &spec.output, cl.live_nodes()[0]).unwrap();
    let (oracle, oracle_shuffle) = sort_all(&cl, &spec);
    Run {
        report,
        digest,
        partitions,
        oracle,
        oracle_shuffle,
    }
}

/// The sort-all shuffle over the map outputs `spec`'s run persisted:
/// for each reduce task, every bucket the store serves it is decoded,
/// the records go through `sort_and_group`, and the job's reducer runs
/// over the groups. Returns each partition's output digest and the
/// payload bytes fetched.
fn sort_all(cl: &Cluster, spec: &JobSpec) -> (Vec<OutputDigest>, u64) {
    let store = cl.map_outputs();
    let inputs = store.keys_for_job(spec.job);
    let mut fetched = 0;
    let digests = (0..spec.num_reducers)
        .map(|p| {
            let fetch = store.fetch_buckets(&inputs, ReduceTaskId::whole(spec.job, PartitionId(p)));
            assert!(
                fetch.missing.is_empty(),
                "a fault-free run keeps every map output"
            );
            let mut records = Vec::new();
            for bucket in fetch.buckets {
                let (payload, _) = bucket.into_payload().unwrap();
                fetched += payload.len() as u64;
                records.extend(RecordReader::decode_all(payload).unwrap());
            }
            let mut out = Vec::new();
            spec.reducer
                .reduce_groups(&sort_and_group(records), &mut |rec| out.push(rec));
            OutputDigest::of_records(&out)
        })
        .collect();
    (digests, fetched)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The streaming k-way merge against the sort-all oracle: every
    /// output partition's digest equals the oracle's, and the shuffle
    /// bytes the job accounted equal the payload bytes the oracle
    /// fetched.
    #[test]
    fn streaming_merge_matches_legacy_oracle(
        seed in 1u64..100_000,
        records in 5_000u64..25_000,
        pool in 0usize..3,
        kernel in 0usize..4,
    ) {
        let leg = leg(pool, kernel);
        let chain = ChainBuilder::new(1, NODES * 2).build();
        let run = run(seed, records, chain.job(1).clone(), leg);
        prop_assert_eq!(&run.partitions, &run.oracle, "output diverged at seed {} on {:?}", seed, leg);
        prop_assert_eq!(run.shuffle_bytes(), run.oracle_shuffle, "shuffle bytes at seed {} on {:?}", seed, leg);
    }

    /// Combiner correctness: the aggregation job's output digest is
    /// byte-identical with the combiner on or off (its partial
    /// aggregates share the reducer's wire format and its merge is
    /// associative + commutative), while the shuffle moves strictly —
    /// in fact drastically — fewer bytes.
    #[test]
    fn combiner_preserves_output_and_shrinks_shuffle(
        seed in 1u64..100_000,
        records in 40_000u64..100_000,
        pool in 0usize..3,
        kernel in 0usize..4,
    ) {
        let leg = leg(pool, kernel);
        let agg = |combine| AggBuilder::new(NODES * 2, 16).combine(combine).build();
        let raw = run(seed, records, agg(false), leg);
        let combined = run(seed, records, agg(true), leg);
        prop_assert_eq!(raw.digest, combined.digest, "combiner changed the output at seed {} on {:?}", seed, leg);
        prop_assert!(
            combined.shuffle_bytes() * 2 < raw.shuffle_bytes(),
            "combiner should at least halve shuffle volume: {} vs {}",
            combined.shuffle_bytes(),
            raw.shuffle_bytes()
        );
        // And the merge over combined buckets must agree with the
        // sort-all oracle.
        prop_assert_eq!(&combined.partitions, &combined.oracle);
        prop_assert_eq!(combined.shuffle_bytes(), combined.oracle_shuffle);
    }
}

/// Sharded block stores against the single-lock oracle, under chaos.
///
/// Runs a chain through randomized fault schedules twice — once with
/// `store_shards: 1` and once with 8 — and demands identical outcomes,
/// identical digests on convergence, and *exactly* equal
/// [`rcmp::dfs::NodeAccessStats`] on every node. The serial pool
/// (one worker) is pinned here on purpose: `max_concurrent_reads` is a
/// high-water mark over wall-clock overlapping reads, so it is only
/// deterministic when one worker drains the waves serially.
#[test]
fn sharded_store_accounting_matches_single_lock_under_chaos() {
    for chaos_seed in [7u64, 1312, 90_210] {
        let mut runs = Vec::new();
        for shards in [1u32, 8] {
            let shuffle = ShuffleConfig {
                store_shards: shards,
            };
            let cl = cluster(
                17,
                shuffle,
                (ExecutorConfig::async_workers(1), PlacementKernel::Default),
            );
            generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 10_000)).unwrap();
            let chain = ChainBuilder::new(2, NODES).build();
            let injector = Arc::new(
                RandomizedInjector::new(chaos_seed, NODES)
                    .kill_probability(0.05)
                    .fault_probability(0.2)
                    .max_kills(1)
                    .max_other_faults(4),
            );
            let outcome = match ChainDriver::new(&cl, Strategy::rcmp_split(3))
                .with_injector(injector)
                .run(&chain.jobs)
            {
                Ok(_) => format!(
                    "{:?}",
                    digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                        .unwrap()
                        .0
                ),
                Err(Error::RecoveryExhausted { .. }) => "exhausted".to_string(),
                Err(Error::DataLoss { ref path, .. }) if path == "input" => "lost".to_string(),
                Err(e) => panic!("seed {chaos_seed}: unexpected error {e}"),
            };
            let stats: Vec<_> = (0..NODES)
                .map(|n| cl.dfs().node_stats(rcmp::model::NodeId(n)))
                .collect();
            runs.push((outcome, stats));
        }
        assert_eq!(
            runs[0], runs[1],
            "seed {chaos_seed}: sharded store diverged from single-lock oracle"
        );
    }
}

/// The per-job pool session observed at engine level: one multi-wave
/// job on two workers spawns exactly two OS worker threads total, while
/// the wave counter keeps climbing — the pool now lives for the job,
/// not for a wave.
#[test]
fn job_reuses_one_worker_pool_across_all_waves() {
    let cl = cluster(
        29,
        ShuffleConfig::default(),
        (ExecutorConfig::async_workers(2), PlacementKernel::Default),
    );
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 15_000)).unwrap();
    let chain = ChainBuilder::new(1, NODES * 2).build();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    assert!(
        report.map_waves + report.reduce_waves >= 2,
        "need a multi-wave job to observe pool reuse"
    );
    let snap = cl.metrics().snapshot();
    let waves = snap.counter("exec.waves").unwrap_or(0);
    assert!(waves >= 2, "expected >= 2 executor waves, got {waves}");
    assert_eq!(
        snap.counter("exec.worker_starts"),
        Some(2),
        "a 2-worker session must spawn exactly 2 OS threads for the whole job"
    );
    assert_eq!(
        snap.get("exec.workers"),
        Some(&SnapshotValue::Gauge(2)),
        "exec.workers reports the session pool size"
    );
}
