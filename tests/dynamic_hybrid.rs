//! The §IV-C future-work strategy end-to-end: dynamic replication
//! points driven by the expected-cost model, on both the real engine
//! and the simulator.

use rcmp::core::{ChainDriver, ChainEvent, DynamicPolicy, SplitPolicy, Strategy};
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::{ClusterConfig, NodeId, SlotConfig};
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 5,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: rcmp::model::ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 31,
    })
}

fn dynamic(failure_prob: f64, reclaim: bool) -> Strategy {
    Strategy::DynamicHybrid {
        split: SplitPolicy::Fixed(4),
        factor: 2,
        policy: DynamicPolicy {
            failure_prob_per_job: failure_prob,
            extra_replicas: 1,
            replication_byte_cost: 1.0,
            recompute_fraction: 0.2,
        },
        reclaim,
    }
}

fn replication_points(outcome: &rcmp::core::ChainOutcome) -> Vec<u32> {
    outcome
        .events
        .iter()
        .filter_map(|e| match e {
            ChainEvent::ReplicationPoint { job, .. } => Some(job.raw()),
            _ => None,
        })
        .collect()
}

#[test]
fn low_failure_rate_places_no_points() {
    let cl = cluster();
    generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
    let chain = ChainBuilder::new(6, 5).build();
    // The paper's moderate-cluster regime: failures days apart.
    let outcome = ChainDriver::new(&cl, dynamic(0.001, false))
        .run(&chain.jobs)
        .unwrap();
    assert!(
        replication_points(&outcome).is_empty(),
        "rare failures: the cost model never pays for replication"
    );
    assert_eq!(outcome.jobs_started, 6);
    assert_eq!(outcome.events.last_seq(), Some(6), "no extra runs logged");
    assert_eq!(outcome.events.recoveries().count(), 0);
}

#[test]
fn high_failure_rate_places_points_periodically() {
    let cl = cluster();
    generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
    let chain = ChainBuilder::new(6, 5).build();
    // Failure nearly every job: break-even interval = 1/(0.9*0.2) → 6…
    // use an extreme probability for interval 2.
    let outcome = ChainDriver::new(&cl, dynamic(2.5, false))
        .run(&chain.jobs)
        .unwrap();
    let points = replication_points(&outcome);
    assert!(
        points.len() >= 2,
        "heavy failures: points every ~2 jobs, got {points:?}"
    );
}

#[test]
fn dynamic_hybrid_recovers_correctly_under_failure() {
    let reference = {
        let cl = cluster();
        generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
        let chain = ChainBuilder::new(6, 5).build();
        ChainDriver::new(&cl, Strategy::rcmp_no_split())
            .run(&chain.jobs)
            .unwrap();
        digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0
    };

    let cl = cluster();
    generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
    let chain = ChainBuilder::new(6, 5).build();
    let injector = Arc::new(ScriptedInjector::single(
        5,
        TriggerPoint::JobStart,
        NodeId(2),
    ));
    let outcome = ChainDriver::new(&cl, dynamic(2.5, true))
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    // Points were placed, the cascade stayed above the last one, and
    // the final output is exact.
    let points = replication_points(&outcome);
    assert!(!points.is_empty());
    let last_point_before_failure = points.iter().copied().filter(|&j| j < 5).max();
    if let Some(p) = last_point_before_failure {
        // Neither the recomputation runs nor the recovery plans reach at
        // or below the point — its output is replicated.
        for e in outcome.events.iter() {
            if let ChainEvent::JobStarted {
                recompute: true,
                job,
                ..
            } = e
            {
                assert!(
                    job.raw() > p,
                    "cascade crossed the dynamic replication point at {p}"
                );
            }
        }
        assert!(
            outcome
                .events
                .recoveries()
                .all(|(target, _, _)| target.raw() > p),
            "recovery plan targeted a job at or below the point {p}"
        );
    }
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, reference);
}

#[test]
fn sim_dynamic_hybrid_matches_static_interval() {
    use rcmp::sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / 8;
    // Policy with break-even interval 2 behaves like Hybrid every_k=2.
    let policy = DynamicPolicy {
        failure_prob_per_job: 2.5,
        extra_replicas: 1,
        replication_byte_cost: 1.0,
        recompute_fraction: 0.2,
    };
    assert_eq!(policy.break_even_interval(), Some(2));
    let dynamic_run = simulate_chain(
        &ChainSimConfig::new(
            HwProfile::stic(),
            wl.clone(),
            Strategy::DynamicHybrid {
                split: SplitPolicy::Fixed(8),
                factor: 2,
                policy,
                reclaim: false,
            },
        )
        .with_failures(vec![FailureAt::at_job(6, 9)]),
    );
    let static_run = simulate_chain(
        &ChainSimConfig::new(
            HwProfile::stic(),
            wl.clone(),
            Strategy::Hybrid {
                split: SplitPolicy::Fixed(8),
                every_k: 2,
                factor: 2,
                reclaim: false,
            },
        )
        .with_failures(vec![FailureAt::at_job(6, 9)]),
    );
    assert!(
        (dynamic_run.total_time - static_run.total_time).abs() < 1e-6,
        "interval-2 dynamic policy ≡ every_k=2 hybrid: {} vs {}",
        dynamic_run.total_time,
        static_run.total_time
    );
}
