//! Compares the failure-resilience strategies on the real engine: task
//! counts, I/O volumes, and recovery behaviour under the same late
//! failure — RCMP (split / no-split), Hadoop-style replication, and
//! OPTIMISTIC.
//!
//! ```text
//! cargo run --example strategy_comparison
//! ```
//!
//! Wall-clock times at this (in-memory) scale are meaningless; the
//! interesting columns are how much work each strategy performs, which
//! is what drives the paper's Fig. 8.

use rcmp::core::strategy::HotspotMitigation;
use rcmp::core::{ChainDriver, SplitPolicy, Strategy};
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{ByteSize, ClusterConfig, ExecutorConfig, NodeId, SlotConfig};
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const JOBS: u32 = 5;
const NODES: u32 = 6;

fn run(strategy: Strategy, label: &str) {
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 99,
    });
    generate_input(cluster.dfs(), &DataGenConfig::test("input", NODES, 30_000)).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    // One failure late in the chain (as job 5 starts).
    let injector = Arc::new(ScriptedInjector::single(
        JOBS as u64,
        TriggerPoint::JobStart,
        NodeId(1),
    ));
    let outcome = ChainDriver::new(&cluster, strategy)
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    let io = outcome.total_io();
    let (digest, _) =
        digest_file(cluster.dfs(), chain.final_output(), cluster.live_nodes()[0]).unwrap();
    println!(
        "{label:<22} runs={:<3} restarts={} maps={:<4} reduces={:<3} shuffle={:>9} out+repl={:>9}  records={}",
        outcome.jobs_started,
        outcome.events.restarts(),
        outcome.total_map_tasks(),
        outcome.total_reduce_tasks(),
        format!("{}", ByteSize::bytes(io.shuffle_total())),
        format!(
            "{}",
            ByteSize::bytes(io.output_written + io.replication_written)
        ),
        digest.count,
    );
}

fn main() {
    println!(
        "{}-job chain on {} nodes, one failure as the last job starts:\n",
        JOBS, NODES
    );
    run(Strategy::rcmp_split(5), "RCMP (split 5)");
    run(Strategy::rcmp_no_split(), "RCMP (no split)");
    run(
        Strategy::Rcmp {
            split: SplitPolicy::None,
            hotspot: HotspotMitigation::SpreadOutput,
        },
        "RCMP (spread output)",
    );
    run(Strategy::Replication { factor: 2 }, "Hadoop REPL-2");
    run(Strategy::Replication { factor: 3 }, "Hadoop REPL-3");
    run(Strategy::Optimistic, "OPTIMISTIC");
    run(
        Strategy::Hybrid {
            split: SplitPolicy::Fixed(5),
            every_k: 2,
            factor: 2,
            reclaim: true,
        },
        "Hybrid (k=2, reclaim)",
    );
    println!(
        "\nEvery row ends with the same record count: all strategies are\n\
         output-equivalent; they differ in how much work failures cost.\n\
         Replication rows show the write amplification (out+repl column)\n\
         paid on every run, failure or not; RCMP rows show extra job runs\n\
         only when a failure actually happened."
    );
}
