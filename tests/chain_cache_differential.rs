//! Differential tests for the in-memory chain cache.
//!
//! The cache is a *pure read-through overlay* over the persisted DFS
//! path: every reducer output is still written through (checksummed,
//! replicated), so turning the cache on must be unobservable in
//! everything except where fault-free reads come from. Each test here
//! runs the cached path against its kept-alive oracle — the identical
//! chain with `chain_cache` disabled — and demands byte-identical
//! output digests; under the serial reactor (`async:1`) it also
//! demands the *exact same recovery event sequence*, fault schedules
//! included, because cache invalidation must never change which
//! partitions are lost, planned or recomputed.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, EventLog, Strategy};
use rcmp::engine::failure::{Fault, FaultTrigger};
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{
    ByteSize, ChainCacheConfig, ClusterConfig, Error, ExecutorConfig, NodeId, PlacementKernel,
    SlotConfig,
};
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 4;
const JOBS: u32 = 4;

fn cluster(cache: ChainCacheConfig, placement: PlacementKernel) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        // The serial reactor is pinned so the recovery event sequence
        // is exactly replayable even when a fault kills a node mid-wave
        // (see `serial_reactor_replays_full_chaos_exactly`).
        executor: ExecutorConfig::async_workers(1),
        shuffle: Default::default(),
        retry: Default::default(),
        placement,
        chain_cache: cache,
        seed: 23,
    })
}

/// Runs the chain with one scripted fault, returning the outcome
/// status (digest on convergence, error text otherwise) plus the
/// recovery event log, and the `cache.hits` counter.
fn faulted_run(
    cache: ChainCacheConfig,
    placement: PlacementKernel,
    fault: Option<FaultTrigger>,
) -> (String, Option<EventLog>, u64) {
    let cl = cluster(cache, placement);
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 8_000)).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let mut driver = ChainDriver::new(&cl, Strategy::rcmp_split(2));
    if let Some(trigger) = fault {
        let injector = Arc::new(ScriptedInjector::default());
        injector.add_fault(trigger);
        driver = driver.with_injector(injector);
    }
    let (status, events) = match driver.run(&chain.jobs) {
        Ok(outcome) => {
            let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                .unwrap()
                .0;
            (format!("{digest:?}"), Some(outcome.events))
        }
        Err(Error::RecoveryExhausted { .. }) => ("exhausted".to_string(), None),
        Err(e) => panic!("unexpected error {e}"),
    };
    let hits = cl.metrics().snapshot().counter("cache.hits").unwrap_or(0);
    (status, events, hits)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Cache on vs. cache off under one scripted mid-chain fault — a
    /// node crash, a silent replica corruption or a graceful drain,
    /// firing at job start or after the first map wave — with the
    /// budget swept from smaller-than-one-partition (pure
    /// spill-through) to everything-fits. Identical digests, identical
    /// event logs, every time: invalidation and spills must be
    /// bookkeeping-only.
    #[test]
    fn cache_is_invisible_under_scripted_faults(
        fault_sel in 0u8..3,
        point_sel in 0u8..2,
        seq in 2u64..=JOBS as u64,
        node in 0u32..NODES,
        budget_kib in 1u64..512,
    ) {
        let fault = match fault_sel {
            0 => Fault::NodeCrash(NodeId(node)),
            1 => Fault::CorruptReplica { node: NodeId(node) },
            _ => Fault::NodeDrain { node: NodeId(node) },
        };
        let point = match point_sel {
            0 => TriggerPoint::JobStart,
            _ => TriggerPoint::AfterMapWave(0),
        };
        let trigger = FaultTrigger { seq, point, fault };
        let (off, off_events, off_hits) = faulted_run(
            ChainCacheConfig::default(),
            PlacementKernel::Default,
            Some(trigger),
        );
        let (on, on_events, _) = faulted_run(
            ChainCacheConfig::enabled(ByteSize::kib(budget_kib)),
            PlacementKernel::Default,
            Some(trigger),
        );
        prop_assert_eq!(off_hits, 0, "cache-off oracle must never hit");
        prop_assert_eq!(&off, &on, "outcome diverged with cache on");
        prop_assert_eq!(
            off_events, on_events,
            "recovery event sequence diverged with cache on"
        );
    }
}

/// The `stable` placement kernel reading from a warm cache against the
/// cache-off `Default` oracle, fault-free: byte-identical digest while
/// every post-first-job map input is served from memory, node-locally.
#[test]
fn stable_kernel_matches_default_oracle_fault_free() {
    let (off, _, off_hits) =
        faulted_run(ChainCacheConfig::default(), PlacementKernel::Default, None);
    let (on, _, on_hits) = faulted_run(
        ChainCacheConfig::enabled(ByteSize::mib(64)),
        PlacementKernel::Stable,
        None,
    );
    assert_eq!(off, on, "stable+cache diverged from default+no-cache");
    assert_eq!(off_hits, 0);
    assert!(on_hits > 0, "a 64 MiB budget must serve hits on this chain");
}

/// Fault-free with one block per partition — tasks, partitions and
/// nodes in 1:1:1 correspondence — the partition-affine claim runs
/// before every other rule, so *every* cached read lands on its
/// holder. (With multi-block partitions, block-count skew lets idle
/// nodes steal a holder's tail blocks, so 100% locality is only a
/// contract in the balanced case; the bench measures the skewed one.)
#[test]
fn stable_kernel_is_fully_local_on_balanced_partitions() {
    let cl = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        // 8k test records over 4 partitions ≈ 224 KiB each: one 1 MiB
        // block per partition.
        block_size: ByteSize::mib(1),
        max_recovery_attempts: 100,
        executor: ExecutorConfig::async_workers(1),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: PlacementKernel::Stable,
        chain_cache: ChainCacheConfig::enabled(ByteSize::mib(64)),
        seed: 23,
    });
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 8_000)).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .run(&chain.jobs)
        .unwrap();
    let snap = cl.metrics().snapshot();
    let hits = snap.counter("cache.hits").unwrap_or(0);
    let local = snap.counter("cache.hits_local").unwrap_or(0);
    assert_eq!(
        hits,
        u64::from((JOBS - 1) * NODES),
        "every post-first-job map input must be served from memory"
    );
    assert_eq!(
        local, hits,
        "every balanced fault-free stable-kernel hit must be node-local"
    );
}

/// A crash mid-chain under the `stable` kernel: the dead node's cached
/// partitions are invalidated, the affected mappers fall back to the
/// DFS replicas / recomputation, and the digest still matches the
/// cache-off `Default` oracle exactly.
#[test]
fn stable_kernel_survives_crash_to_oracle_digest() {
    for node in 0..NODES {
        let trigger = FaultTrigger {
            seq: 2,
            point: TriggerPoint::AfterMapWave(0),
            fault: Fault::NodeCrash(NodeId(node)),
        };
        let (off, _, _) = faulted_run(
            ChainCacheConfig::default(),
            PlacementKernel::Default,
            Some(trigger),
        );
        let (on, _, _) = faulted_run(
            ChainCacheConfig::enabled(ByteSize::mib(64)),
            PlacementKernel::Stable,
            Some(trigger),
        );
        assert_eq!(
            off, on,
            "crash of node {node}: stable+cache diverged from oracle"
        );
    }
}
