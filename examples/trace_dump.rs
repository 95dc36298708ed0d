//! End-to-end observability: run a chain with an injected node crash,
//! then export and analyze the causal trace.
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```
//!
//! Writes `target/trace_dump.json` (Chrome `trace_event` format — load
//! it in Perfetto / `chrome://tracing`) and `target/trace_dump.jsonl`
//! (one span per line), then prints the deterministic analyzer views:
//! the span summary, the slot-occupancy profile (Fig. 4), the hot-spot
//! skew report over the recovery window (Fig. 6) and the recomputation
//! critical path.

use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{ByteSize, ClusterConfig, ExecutorConfig, NodeId, SlotConfig};
use rcmp::obs::{
    hotspot_report, recomputation_critical_path, slot_occupancy, summary, to_chrome_json, to_jsonl,
    SpanKind,
};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 5;
const JOBS: u32 = 4;

fn main() {
    let cl = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: ExecutorConfig::from_env_or_default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 7,
    });
    // Replicate the input everywhere so every map read is served by a
    // local replica — the printed analyzer output is byte-identical
    // across runs.
    let mut gen = DataGenConfig::test("input", NODES, 12_000);
    gen.replication = NODES;
    generate_input(cl.dfs(), &gen).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();

    // Kill a node at the start of job 3: its unreplicated intermediate
    // outputs are lost and RCMP recomputes the cascade.
    let injector = Arc::new(ScriptedInjector::single(
        3,
        TriggerPoint::JobStart,
        NodeId(2),
    ));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();

    let trace = cl.tracer().snapshot();

    // Export for interactive inspection.
    std::fs::create_dir_all("target").unwrap();
    std::fs::write("target/trace_dump.json", to_chrome_json(&trace)).unwrap();
    std::fs::write("target/trace_dump.jsonl", to_jsonl(&trace)).unwrap();
    println!(
        "jobs_started={} recompute_runs={}",
        outcome.jobs_started,
        outcome.events.recompute_runs()
    );
    println!("wrote target/trace_dump.json (Perfetto) and target/trace_dump.jsonl\n");

    println!("{}", summary(&trace));

    // Fig. 4: recomputation runs cannot fill the cluster's slots.
    println!("slot occupancy per run:");
    for run in slot_occupancy(&trace) {
        println!(
            "  seq {:>2}  job {:>2}  {}  waves {:>2}  avg occupancy {:.2}",
            run.seq,
            run.job,
            if run.recompute {
                "recompute"
            } else {
                "full     "
            },
            run.waves.len(),
            run.avg_occupancy()
        );
    }

    // Fig. 6: read-load concentration over the recovery window.
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
    if let (Some(&lo), Some(&hi)) = (recompute_seqs.iter().min(), recompute_seqs.iter().max()) {
        println!("\nhot-spot report over recovery window (seq {lo}..={hi}):");
        print!("{}", hotspot_report(&trace, lo, hi).render());
    }

    if let Some(path) = recomputation_critical_path(&trace) {
        println!("\n{}", path.render());
    }

    // The hot-path metric handles the tracker kept updated.
    let metrics = cl.metrics().snapshot();
    for name in ["tracker.task_retries", "tracker.shuffle_transient_failures"] {
        println!("{name} = {}", metrics.counter(name).unwrap_or(0));
    }
}
