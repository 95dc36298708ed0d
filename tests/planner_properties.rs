//! Property-based validation of the recomputation planner (DESIGN.md
//! validation #2): for random chain states and random damage, the plan
//! is **sufficient** (executing it restores the cancelled job's input)
//! and **grounded** (it never regenerates a partition that is intact).

use proptest::prelude::*;
use rcmp::core::planner::plan_recovery;
use rcmp::core::strategy::HotspotMitigation;
use rcmp::core::{JobGraph, SplitPolicy};
use rcmp::engine::{Cluster, JobRun, JobTracker, NoFailures, RunMode};
use rcmp::model::{ClusterConfig, JobId, NodeId, SlotConfig};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 5;
const JOBS: u32 = 3;

fn setup() -> (Cluster, rcmp::workloads::ChainSpec, JobGraph) {
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: rcmp::model::ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 77,
    });
    generate_input(cluster.dfs(), &DataGenConfig::test("input", NODES, 12_000)).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let graph = JobGraph::new(chain.jobs.iter().cloned()).unwrap();
    (cluster, chain, graph)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 10,
        ..ProptestConfig::default()
    })]

    #[test]
    fn plans_are_sufficient_and_grounded(
        completed in 1u32..=JOBS,
        kills in prop::sample::subsequence((0..NODES).collect::<Vec<u32>>(), 1..3),
        split in prop::bool::ANY,
    ) {
        let (cluster, chain, graph) = setup();
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        for j in 1..=completed {
            tracker
                .run(&JobRun::full(chain.job(j).clone()), j as u64)
                .unwrap();
        }
        for &k in &kills {
            let _ = cluster.fail_node(NodeId(k));
        }
        if cluster.live_nodes().is_empty() {
            return Ok(());
        }
        // Target: the first job not yet completed, or the last job.
        let target = JobId((completed + 1).min(JOBS));
        let policy = if split { SplitPolicy::Fixed(3) } else { SplitPolicy::None };
        // External-input loss is legitimately unrecoverable with 2 kills
        // of a 3-replicated input? (3 replicas survive 2 kills — plan
        // must succeed.)
        let plan = plan_recovery(&cluster, &graph, target, policy, HotspotMitigation::None)
            .expect("input is triple-replicated; planning must succeed");

        // Groundedness: every planned partition is currently damaged
        // (lost or unwritten).
        for step in &plan.steps {
            let spec = graph.spec(step.job).unwrap();
            let meta = cluster.dfs().file_meta(&spec.output).unwrap();
            for p in &step.instructions.partitions {
                let part = &meta.partitions[p.index()];
                prop_assert!(
                    part.is_lost() || !part.is_written(),
                    "planned {} of {} is intact",
                    p,
                    spec.output
                );
            }
        }

        // Sufficiency: execute the plan; afterwards the target job's
        // input file must be fully readable.
        for (i, step) in plan.steps.into_iter().enumerate() {
            let run = JobRun {
                spec: graph.spec(step.job).unwrap().clone(),
                mode: RunMode::Recompute(step.instructions),
                persist_map_outputs: true,
            };
            tracker.run(&run, 100 + i as u64).unwrap();
        }
        let input = &graph.spec(target).unwrap().input;
        if input != "input" {
            let meta = cluster.dfs().file_meta(input).unwrap();
            prop_assert!(meta.is_complete(), "target input incomplete after plan");
            prop_assert!(
                meta.lost_partitions().is_empty(),
                "target input still lost after plan"
            );
            // And actually readable end to end.
            let reader = cluster.live_nodes()[0];
            for p in &meta.partitions {
                cluster.dfs().read_partition(input, p.id, reader).unwrap();
            }
        }
    }
}
