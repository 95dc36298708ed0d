//! Closed-loop adaptive resilience end-to-end: trace-calibrated cold
//! starts, the engine's adaptive replication cadence, engine/simulator
//! decision parity through the shared `FaultObserver` kernel, and the
//! seeded retry backoff that replaces the old herd-prone flat retries.

use rcmp::core::{ChainDriver, ChainEvent, SplitPolicy, Strategy};
use rcmp::engine::failure::Fault;
use rcmp::engine::{Cluster, ScriptedInjector, TriggerPoint};
use rcmp::model::rng::derive_indexed;
use rcmp::model::{ClusterConfig, NodeId, RetryPolicy, SlotConfig};
use rcmp::obs::{PhaseKind, SnapshotValue, SpanKind};
use rcmp::policy::{optimal_interval, AdaptConfig, DynamicPolicy};
use rcmp::sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use rcmp::traces::{synthesize, TraceProfile, TraceStats};
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

fn adaptive(adapt: AdaptConfig) -> Strategy {
    Strategy::AdaptiveHybrid {
        split: SplitPolicy::Fixed(4),
        factor: 2,
        adapt,
        reclaim: false,
    }
}

/// A failure-heavy regime: the cold start already replicates after
/// every job, so a mid-chain kill never reaches an unreplicated input.
fn hot() -> AdaptConfig {
    AdaptConfig {
        prior_rate: 0.5,
        prior_weight: 8.0,
        decay: 0.9,
        hysteresis: 0.25,
        horizon: 6,
        replicate_cost: 0.05,
        recompute_cost: 1.0,
        detect_cost: 0.5,
    }
}

/// The paper's moderate-cluster regime: failures so rare replication
/// never pays.
fn quiet() -> AdaptConfig {
    AdaptConfig {
        prior_rate: 0.0005,
        prior_weight: 16.0,
        horizon: 6,
        ..AdaptConfig::default_for(5)
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

/// Satellite 2 — calibration round-trip: synthesizing a Fig.-2-style
/// failure trace, measuring it, and feeding the measurement back
/// through `from_trace_stats` recovers a break-even cadence consistent
/// with the profile's nominal failure intensity.
#[test]
fn calibration_round_trip_recovers_break_even_from_synth_traces() {
    let jobs_per_day = 4.0;
    let common_nodes = 10; // compare both profiles on one cluster size
    let mut break_evens = Vec::new();
    for (profile, nominal) in [(TraceProfile::stic(), 0.17), (TraceProfile::sugar(), 0.12)] {
        let trace = synthesize(&profile, 7);
        let stats = TraceStats::from_trace(&trace);
        assert!(
            (stats.failure_day_fraction - nominal).abs() < 0.05,
            "{}: measured failure-day fraction {} drifted from nominal {nominal}",
            profile.name,
            stats.failure_day_fraction
        );

        let measured = DynamicPolicy::from_trace_stats(
            stats.failure_day_fraction,
            jobs_per_day,
            common_nodes,
            1,
        );
        let ideal = DynamicPolicy::from_trace_stats(nominal, jobs_per_day, common_nodes, 1);
        let (m, i) = (
            measured.break_even_interval().expect("finite rate") as f64,
            ideal.break_even_interval().expect("finite rate") as f64,
        );
        assert!(
            (m - i).abs() / i < 0.35,
            "{}: break-even from measured trace ({m}) inconsistent with nominal ({i})",
            profile.name
        );

        // The adaptive loop's cold start is calibrated from the very
        // same statistic and agrees with the analytic argmin.
        let cfg = AdaptConfig::from_trace_stats(
            stats.failure_day_fraction,
            jobs_per_day,
            profile.nodes,
            1,
        );
        assert_eq!(cfg.prior_rate, measured.failure_prob_per_job);
        assert_eq!(
            cfg.cold_start_interval(),
            optimal_interval(cfg.prior_rate, cfg.horizon, &cfg)
        );
        break_evens.push(m);
    }
    assert!(
        break_evens[0] < break_evens[1],
        "STIC fails more often than SUG@R, so its cadence must be tighter: {break_evens:?}"
    );
}

/// A quiet prior places no replication points, and the closed loop
/// still publishes its full diagnostic surface: one trajectory step and
/// one `AdaptationPoint` span per job, plus the policy gauges.
#[test]
fn quiet_prior_places_no_points_and_exports_gauges() {
    let cl = cluster();
    generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
    let chain = ChainBuilder::new(6, 5).build();
    let outcome = ChainDriver::new(&cl, adaptive(quiet()))
        .run(&chain.jobs)
        .unwrap();
    assert!(
        replication_points(&outcome).is_empty(),
        "rare failures: the cost model never pays for replication"
    );
    assert_eq!(outcome.adaptation.len(), 6, "one step per chain job");
    assert!(
        outcome
            .adaptation
            .iter()
            .all(|s| s.interval.is_none() && !s.switched),
        "clean run at a quiet prior never leaves never-replicate: {:?}",
        outcome.adaptation
    );

    let snap = cl.metrics().snapshot();
    assert_eq!(
        snap.get("policy.k_current"),
        Some(&SnapshotValue::Gauge(0)),
        "0 encodes never-replicate"
    );
    match snap.get("policy.failure_rate_est") {
        Some(SnapshotValue::Gauge(ppm)) => assert!(
            (0..1000).contains(ppm),
            "estimate must stay near the quiet prior, got {ppm} ppm"
        ),
        other => panic!("policy.failure_rate_est gauge missing: {other:?}"),
    }

    let trace = cl.tracer().snapshot();
    let adapt_spans = trace
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::AdaptationPoint { .. }))
        .count();
    assert_eq!(adapt_spans, 6, "one AdaptationPoint span per completed job");
}

/// Under a hot prior the loop replicates aggressively, a mid-chain node
/// kill raises the online estimate, and the final output is exact.
#[test]
fn adaptive_hybrid_recovers_exactly_under_failure() {
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
    let outcome = ChainDriver::new(&cl, adaptive(hot()))
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();

    assert!(
        !replication_points(&outcome).is_empty(),
        "a hot prior must replicate"
    );
    let steps = &outcome.adaptation;
    assert_eq!(steps.last().unwrap().job, 6);
    assert!(
        steps[4].rate > steps[3].rate,
        "the kill during job 5 must raise the online estimate: {steps:?}"
    );
    assert!(
        steps.iter().all(|s| s.interval == Some(1)),
        "at this intensity the argmin cadence is every job: {steps:?}"
    );

    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, reference);
}

/// PR-3 invariant extended to the closed loop: the engine run and the
/// simulator run of the matched scenario — six jobs, one node kill at
/// job 5 — drive the shared kernel through identical fault/completion
/// sequences and therefore produce byte-identical adaptation
/// trajectories (every rate, interval and switch flag).
#[test]
fn engine_and_sim_share_one_adaptation_trajectory() {
    let cl = cluster();
    generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
    let chain = ChainBuilder::new(6, 5).build();
    let injector = Arc::new(ScriptedInjector::single(
        5,
        TriggerPoint::JobStart,
        NodeId(2),
    ));
    let outcome = ChainDriver::new(&cl, adaptive(hot()))
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();

    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / 8;
    wl.jobs = 6;
    let rep = simulate_chain(
        &ChainSimConfig::new(
            HwProfile::stic(),
            wl,
            Strategy::AdaptiveHybrid {
                split: SplitPolicy::Fixed(8),
                factor: 2,
                adapt: hot(),
                reclaim: false,
            },
        )
        .with_failures(vec![FailureAt::at_job(5, 9)]),
    );

    assert_eq!(
        outcome.adaptation, rep.adaptation,
        "engine and simulator must derive identical decision sequences from one kernel"
    );
}

/// Satellite 1 — the retry-herd regression. Concurrent failing fetch
/// sites all derive from ONE cluster seed yet get pairwise-distinct
/// backoff schedules, each attempt bounded by the exponential ceiling,
/// and everything replays bit-for-bit (no RNG state anywhere).
#[test]
fn one_seed_yields_distinct_backoff_schedules_per_site() {
    let retry = RetryPolicy::default();
    let cluster_seed = 23u64;
    // Eight concurrent reduce tasks: (job, partition) sites exactly as
    // the tracker derives them.
    let sites: Vec<u64> = (0..8u64)
        .map(|p| derive_indexed(cluster_seed, "shuffle-backoff", (1 << 32) | p))
        .collect();
    let schedules: Vec<Vec<u64>> = sites.iter().map(|&s| retry.schedule(s, 6)).collect();

    for (site, sched) in sites.iter().zip(&schedules) {
        assert_eq!(sched, &retry.schedule(*site, 6), "replay must be exact");
        for (i, &delay) in sched.iter().enumerate() {
            let ceiling = retry
                .max_backoff_ms
                .min(retry.base_backoff_ms << (i as u32).min(16));
            assert!(delay <= ceiling, "attempt {} over ceiling", i + 1);
        }
    }
    for i in 0..schedules.len() {
        for j in i + 1..schedules.len() {
            assert_ne!(
                schedules[i], schedules[j],
                "sites {i} and {j} share a backoff schedule — that is the retry herd"
            );
        }
    }
    assert!(
        RetryPolicy::no_backoff()
            .schedule(1, 6)
            .iter()
            .all(|&d| d == 0),
        "no_backoff must disable delays entirely"
    );
}

/// Transient shuffle flakes exercise the real backoff path: the
/// tracker sleeps its seeded delays and records every one in the
/// `retry.backoff_ms` histogram.
#[test]
fn shuffle_flakes_record_backoff_histogram() {
    let cl = cluster();
    generate_input(cl.dfs(), &DataGenConfig::test("input", 5, 15_000)).unwrap();
    let chain = ChainBuilder::new(2, 5).build();
    let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
    for node in [0u32, 2, 4] {
        injector.add(FailureAt {
            seq: 1,
            point: TriggerPoint::JobStart,
            fault: Fault::ShuffleFlake {
                node: NodeId(node),
                times: 2,
            },
        });
    }
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(
        outcome.jobs_started, 2,
        "flakes within the retry budget are absorbed in place"
    );
    match cl.metrics().snapshot().get("retry.backoff_ms") {
        Some(SnapshotValue::Histogram { total, .. }) => assert!(
            *total >= 6,
            "three flaky nodes x two transient failures each, got {total} observations"
        ),
        other => panic!("retry.backoff_ms histogram missing: {other:?}"),
    }
    // The sleeps belong to the backoff phase alone. The shuffle-fetch
    // timer brackets the whole retry loop, so a fetch phase that still
    // contained them could not come out below the backoff phase.
    let backoff_us = outcome.phases.total_us(PhaseKind::RetryBackoff);
    let fetch_us = outcome.phases.total_us(PhaseKind::ShuffleFetch);
    assert!(backoff_us > 0, "the seeded schedule sleeps at least once");
    assert!(
        fetch_us < backoff_us,
        "backoff sleeps charged to the fetch phase too: fetch {fetch_us} us, backoff {backoff_us} us"
    );
}

/// The simulator charges the same seeded backoff into its clock: a
/// cancelled job's retry is delayed, the delay is itemized in
/// `backoff_secs`, and disabling backoff removes exactly that time.
#[test]
fn sim_backoff_delays_are_itemized_in_the_report() {
    let strategy = || Strategy::Hybrid {
        split: SplitPolicy::Fixed(8),
        every_k: 0,
        factor: 2,
        reclaim: false,
    };
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / 8;
    wl.jobs = 4;
    let failures = vec![FailureAt::at_job(3, 0)];
    let heavy = RetryPolicy {
        base_backoff_ms: 64,
        max_backoff_ms: 512,
        ..RetryPolicy::default()
    };
    let with_backoff = simulate_chain(
        &ChainSimConfig::new(HwProfile::stic(), wl.clone(), strategy())
            .with_failures(failures.clone())
            .with_retry(heavy, 31),
    );
    let without = simulate_chain(
        &ChainSimConfig::new(HwProfile::stic(), wl, strategy())
            .with_failures(failures)
            .with_retry(RetryPolicy::no_backoff(), 31),
    );
    assert_eq!(without.backoff_secs, 0.0);
    assert!(
        with_backoff.backoff_secs > 0.0,
        "the cancelled job's retry must be delayed"
    );
    assert!(
        (with_backoff.total_time - without.total_time - with_backoff.backoff_secs).abs() < 1e-9,
        "backoff is the only difference between the runs: {} vs {} (+{})",
        with_backoff.total_time,
        without.total_time,
        with_backoff.backoff_secs
    );
}
