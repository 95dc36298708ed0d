//! Real-engine behavioural tests: slot semantics (§II), the observable
//! hot-spot of Fig. 6, and recovery with unsplittable jobs. Each test
//! runs at pool sizes auto, 1 and 2 under every placement kernel.

use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::{
    Cluster, JobRun, JobTracker, NoFailures, RecomputeInstructions, ScriptedInjector, TriggerPoint,
};
use rcmp::model::{
    ByteSize, ClusterConfig, ExecutorConfig, NodeId, PlacementKernel, SlotConfig, TaskId,
};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

/// The pool sizes and placement kernels every test runs under, as
/// (executor, kernel) legs.
fn legs() -> impl Iterator<Item = (ExecutorConfig, PlacementKernel)> {
    let pools = [
        ExecutorConfig::default(),
        ExecutorConfig::async_workers(1),
        ExecutorConfig::async_workers(2),
    ];
    pools.into_iter().flat_map(|exec| {
        [
            PlacementKernel::Default,
            PlacementKernel::RackAware,
            PlacementKernel::Delay { rounds: 3 },
            PlacementKernel::CapacityWeighted,
        ]
        .map(|kernel| (exec, kernel))
    })
}

fn cluster(nodes: u32, slots: SlotConfig, leg: (ExecutorConfig, PlacementKernel)) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        slots,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        seed: 3,
        executor: leg.0,
        shuffle: Default::default(),
        retry: Default::default(),
        placement: leg.1,
        chain_cache: Default::default(),
    })
}

/// "A job runs in multiple waves when the number of tasks is greater
/// than the number of slots" (§II): doubling slots halves map waves and
/// never exceeds the per-node concurrency bound.
#[test]
fn slots_bound_concurrency_and_set_wave_counts() {
    for leg in legs() {
        let run = |slots: SlotConfig| {
            let cl = cluster(4, slots, leg);
            generate_input(cl.dfs(), &DataGenConfig::test("input", 4, 33_000)).unwrap();
            let chain = ChainBuilder::new(1, 4).build();
            let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
            tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap()
        };
        let one = run(SlotConfig::ONE_ONE);
        let two = run(SlotConfig::TWO_TWO);
        assert!(
            one.map_waves > 1,
            "{leg:?}: enough tasks for multiple waves"
        );
        assert_eq!(two.map_waves, one.map_waves.div_ceil(2), "{leg:?}");

        // No (node, wave) pair ever holds more mappers than slots.
        for (report, cap) in [(&one, 1usize), (&two, 2)] {
            let mut per = std::collections::HashMap::new();
            for t in report.map_records() {
                *per.entry((t.node, t.wave)).or_insert(0usize) += 1;
            }
            assert!(
                per.values().all(|&c| c <= cap),
                "{leg:?}: slot bound violated at cap {cap}"
            );
        }
    }
}

/// Fig. 6 on the real engine: after an unsplit recomputation of job 1's
/// lost partition onto one node Z, the recomputation of job 2 re-runs
/// the dead node's mappers — and they all pull their input from Z
/// concurrently (observable via the DFS access counters).
#[test]
fn hotspot_concentrates_reads_on_the_recomputing_node() {
    for leg in legs() {
        let cl = cluster(6, SlotConfig::ONE_ONE, leg);
        generate_input(cl.dfs(), &DataGenConfig::test("input", 6, 40_000)).unwrap();
        let chain = ChainBuilder::new(2, 6).build();
        let tracker = JobTracker::new(&cl, Arc::new(NoFailures));
        tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
        tracker.run(&JobRun::full(chain.job(2).clone()), 2).unwrap();

        cl.fail_node(NodeId(5));
        let lost1 = cl.dfs().file_meta("out/1").unwrap().lost_partitions();
        let lost2 = cl.dfs().file_meta("out/2").unwrap().lost_partitions();
        assert!(!lost1.is_empty() && !lost2.is_empty());

        // Regenerate job 1's partition unsplit: all of it lands on one node.
        tracker
            .run(
                &JobRun::recompute(
                    chain.job(1).clone(),
                    RecomputeInstructions::new(lost1.iter().copied(), None),
                ),
                3,
            )
            .unwrap();
        let meta = cl.dfs().file_meta("out/1").unwrap();
        let hot_partition = &meta.partitions[lost1[0].index()];
        assert_eq!(hot_partition.segments.len(), 1, "unsplit: one segment");
        let z = hot_partition.segments[0].writer;

        // Recompute job 2: the re-run mappers' input reads concentrate on Z.
        let report = tracker
            .run(
                &JobRun::recompute(
                    chain.job(2).clone(),
                    RecomputeInstructions::new(lost2.iter().copied(), None),
                ),
                4,
            )
            .unwrap();
        assert!(report.map_tasks_run > 0);
        let sources = report.input_sources();
        let from_z = sources.get(&z).copied().unwrap_or(0);
        let total: usize = sources.values().sum();
        assert!(
            from_z * 2 >= total,
            "{leg:?}: most recomputed mapper reads should hit {z}: {sources:?}"
        );
        // And they ran on several distinct nodes in few waves — the §IV-B2
        // concurrency that makes the concentration a hot-spot.
        let nodes_used: std::collections::HashSet<NodeId> =
            report.map_records().map(|t| t.node).collect();
        assert!(
            nodes_used.len() > 1,
            "{leg:?}: mappers spread over survivors"
        );
    }
}

/// A chain containing an unsplittable job still recovers (the planner
/// simply never splits its reducers), and splitting elsewhere is
/// unaffected.
#[test]
fn unsplittable_jobs_recover_without_splitting() {
    for leg in legs() {
        let cl = cluster(5, SlotConfig::ONE_ONE, leg);
        generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 20_000)).unwrap();
        // splittable(false) marks every job in the chain unsplittable.
        let chain = ChainBuilder::new(3, 5).splittable(false).build();
        let injector = Arc::new(ScriptedInjector::single(
            3,
            TriggerPoint::JobStart,
            NodeId(1),
        ));
        // Even with a split-requesting strategy, recovery must fall back to
        // whole reducers rather than erroring out.
        let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
            .with_injector(injector)
            .run(&chain.jobs)
            .unwrap();
        assert!(outcome.events.recompute_runs() > 0);
        for run in &outcome.runs {
            for t in run.reduce_records() {
                if let TaskId::Reduce(rt) = t.id {
                    assert!(
                        !rt.is_split(),
                        "{leg:?}: no split tasks on unsplittable jobs"
                    );
                }
            }
        }
    }
}
