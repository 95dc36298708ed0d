//! Differential tests for the shuffle data-path overhaul.
//!
//! The streaming merge, the map-side combiner and the sharded block
//! stores are all *performance* changes; the contract is that none of
//! them is observable in the output. Each test here runs the new path
//! against its kept-alive oracle — the legacy collect-all-then-sort
//! shuffle, the combiner-less job, the single-lock store — and demands
//! byte-identical digests (and, where the accounting is deterministic,
//! identical I/O numbers).
//!
//! The whole binary honours `RCMP_EXECUTOR`, so the CI executor matrix
//! re-runs these differentials under the threaded, `async` and
//! `async:2` backends.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::{Cluster, JobRun, JobTracker, NoFailures, RandomizedInjector};
use rcmp::model::{ByteSize, ClusterConfig, Error, ExecutorConfig, ShuffleConfig, SlotConfig};
use rcmp::obs::SnapshotValue;
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, AggBuilder, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 4;

fn cluster(seed: u64, shuffle: ShuffleConfig, executor: ExecutorConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::TWO_TWO,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        seed,
        executor,
        shuffle,
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
    })
}

/// Runs one chain job and returns its report plus the output digest.
fn chain_run(
    seed: u64,
    records: u64,
    shuffle: ShuffleConfig,
) -> (rcmp::engine::JobReport, rcmp::workloads::OutputDigest) {
    let cl = cluster(seed, shuffle, ExecutorConfig::from_env_or_default());
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, records)).unwrap();
    let chain = ChainBuilder::new(1, NODES * 2).build();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    (report, digest)
}

/// Runs the aggregation job, returning its report plus the digest.
fn agg_run(
    seed: u64,
    records: u64,
    combine: bool,
    shuffle: ShuffleConfig,
) -> (rcmp::engine::JobReport, rcmp::workloads::OutputDigest) {
    let cl = cluster(seed, shuffle, ExecutorConfig::from_env_or_default());
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, records)).unwrap();
    let spec = AggBuilder::new(NODES * 2, 16).combine(combine).build();
    let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
    let report = tracker.run(&JobRun::full(spec.clone()), 1).unwrap();
    let digest = digest_file(cl.dfs(), &spec.output, cl.live_nodes()[0])
        .unwrap()
        .0;
    (report, digest)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The streaming k-way merge against the legacy sort-all oracle:
    /// same cluster seed, same input — byte-identical output digest,
    /// identical schedule shape, identical I/O accounting (down to the
    /// shuffle byte counts, which the merge path recomputes from the
    /// bucket indexes).
    #[test]
    fn streaming_merge_matches_legacy_oracle(
        seed in 1u64..100_000,
        records in 5_000u64..25_000,
    ) {
        let (legacy, legacy_digest) = chain_run(seed, records, ShuffleConfig::legacy());
        let (streaming, streaming_digest) = chain_run(seed, records, ShuffleConfig::default());
        prop_assert_eq!(legacy_digest, streaming_digest, "output diverged at seed {}", seed);
        prop_assert_eq!(legacy.io, streaming.io, "I/O accounting diverged at seed {}", seed);
        prop_assert_eq!(legacy.map_waves, streaming.map_waves);
        prop_assert_eq!(legacy.reduce_waves, streaming.reduce_waves);
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
    ) {
        let (raw, raw_digest) = agg_run(seed, records, false, ShuffleConfig::default());
        let (combined, combined_digest) = agg_run(seed, records, true, ShuffleConfig::default());
        prop_assert_eq!(raw_digest, combined_digest, "combiner changed the output at seed {}", seed);
        let raw_shuffle = raw.io.shuffle_local + raw.io.shuffle_remote;
        let combined_shuffle = combined.io.shuffle_local + combined.io.shuffle_remote;
        prop_assert!(
            combined_shuffle * 2 < raw_shuffle,
            "combiner should at least halve shuffle volume: {} vs {}",
            combined_shuffle,
            raw_shuffle
        );
        // And combining must also agree with the legacy oracle.
        let (_, legacy_digest) = agg_run(seed, records, true, ShuffleConfig::legacy());
        prop_assert_eq!(legacy_digest, combined_digest);
    }
}

/// Sharded block stores against the single-lock oracle, under chaos.
///
/// Runs a chain through randomized fault schedules twice — once with
/// `store_shards: 1` and once with 8 — and demands identical outcomes,
/// identical digests on convergence, and *exactly* equal
/// [`rcmp::dfs::NodeAccessStats`] on every node. The serial reactor
/// (`async:1`) is pinned here on purpose: `max_concurrent_reads` is a
/// high-water mark over wall-clock overlapping reads, so it is only
/// deterministic when one worker drains the waves serially.
#[test]
fn sharded_store_accounting_matches_single_lock_under_chaos() {
    for chaos_seed in [7u64, 1312, 90_210] {
        let mut runs = Vec::new();
        for shards in [1u32, 8] {
            let shuffle = ShuffleConfig {
                store_shards: shards,
                ..ShuffleConfig::default()
            };
            let cl = cluster(17, shuffle, ExecutorConfig::async_workers(1));
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

/// The per-job reactor session observed at engine level: one multi-wave
/// job on `async:2` spawns exactly two OS worker threads total, while
/// the wave counter keeps climbing — the pool now lives for the job,
/// not for a wave.
#[test]
fn job_reuses_one_worker_pool_across_all_waves() {
    let cl = cluster(
        29,
        ShuffleConfig::default(),
        ExecutorConfig::async_workers(2),
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
