//! Quickstart: run a 3-job chain on the real engine, kill a node
//! mid-chain, and watch RCMP recover with minimal recomputation.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rcmp::core::{ChainDriver, ChainEvent, Strategy};
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{ByteSize, ClusterConfig, ExecutorConfig, NodeId, SlotConfig};
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

fn main() {
    // A 5-node collocated cluster with 4 KiB blocks (tiny, so the whole
    // run takes milliseconds — the paper's 256 MiB blocks work the same
    // way, just bigger).
    let cluster = Cluster::new(ClusterConfig {
        nodes: 5,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        // Thread-per-slot; `ExecutorConfig::async_auto()` runs the
        // same seeded schedule on the cooperative reactor instead.
        executor: ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 1,
    });

    // Triple-replicated random input, like the paper's job input.
    generate_input(cluster.dfs(), &DataGenConfig::test("input", 5, 40_000)).unwrap();
    let (input_digest, _) = digest_file(cluster.dfs(), "input", NodeId(0)).unwrap();
    println!(
        "input: {} records, {} value bytes",
        input_digest.count, input_digest.value_bytes
    );

    // The paper's I/O-intensive chain (3 jobs here), every job output
    // written with replication factor 1 — RCMP recovers by
    // recomputation, not replication.
    let chain = ChainBuilder::new(3, 5).build();

    // Kill node 2 right as job 3 starts: outputs of jobs 1 and 2 on that
    // node are lost, so job 3's input is broken and RCMP must cascade.
    let injector = Arc::new(ScriptedInjector::single(
        3,
        TriggerPoint::JobStart,
        NodeId(2),
    ));

    let driver = ChainDriver::new(&cluster, Strategy::rcmp_split(4)).with_injector(injector);
    let outcome = driver.run(&chain.jobs).unwrap();

    println!("\nmiddleware event log:");
    for event in outcome.events.iter() {
        match event {
            ChainEvent::JobStarted { seq, job, recompute } => {
                let kind = if *recompute { "RECOMPUTE" } else { "run" };
                println!("  #{seq}: {kind} {job}");
            }
            ChainEvent::JobCompleted {
                seq,
                map_tasks_run,
                map_tasks_reused,
                reduce_tasks_run,
                ..
            } => println!(
                "  #{seq}: done — {map_tasks_run} mappers run, {map_tasks_reused} reused, {reduce_tasks_run} reducers"
            ),
            ChainEvent::LossObserved { node, lost_partitions, .. } => println!(
                "  !! node {node:?} died, {lost_partitions} partitions irreversibly lost"
            ),
            ChainEvent::JobCancelled { seq, job } => {
                println!("  #{seq}: {job} cancelled (input lost)")
            }
            ChainEvent::RecoveryPlanned { target, steps, partitions } => println!(
                "  -> recovery plan for {target}: {steps} job(s), {partitions} partition(s)"
            ),
            other => println!("  {other:?}"),
        }
    }

    // The final output is byte-equivalent to a failure-free run: the
    // chain's digest is a pure function of the input.
    let (digest, _) =
        digest_file(cluster.dfs(), chain.final_output(), cluster.live_nodes()[0]).unwrap();
    println!(
        "\nfinal output: {} records, {} value bytes (records conserved: {})",
        digest.count,
        digest.value_bytes,
        digest.count == input_digest.count
    );
    println!(
        "total job runs started: {} (3 initial + recomputations)",
        outcome.jobs_started
    );
    assert_eq!(digest.count, input_digest.count);
}
