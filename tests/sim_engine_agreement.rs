//! Validation #3 (DESIGN.md): on matched configurations the simulator's
//! *accounting* — task counts, wave counts, transfer volumes — must
//! agree with the real engine's measured reports. Time is modeled;
//! volume is arithmetic, and arithmetic has to match.

use rcmp::core::{ChainDriver, ChainEvent, EventLog, Strategy};
use rcmp::engine::{Cluster, JobRun, JobTracker, NoFailures, ScriptedInjector, TriggerPoint};
use rcmp::model::{
    ByteSize, ChainCacheConfig, ClusterConfig, ExecutorConfig, NodeId, PlacementKernel, SlotConfig,
};
use rcmp::policy::Clock;
use rcmp::sim::{
    simulate_chain, ChainSimConfig, FailureAt, HwProfile, JobSim, SimState, WorkloadCfg,
};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 4;
const BLOCK: u64 = 4096;
/// 112-byte records, 36 per 4096-byte block; 72 records = exactly two
/// full blocks per partition, so the engine's record-aligned chunking
/// and the simulator's byte-aligned chunking agree block for block.
const RECORDS_PER_PARTITION: u64 = 72;
const BYTES_PER_PARTITION: u64 = RECORDS_PER_PARTITION * 112;

fn engine_run() -> rcmp::engine::JobReport {
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::bytes(BLOCK),
        max_recovery_attempts: 100,
        seed: 5,
        executor: ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
    });
    let cfg = DataGenConfig {
        value_size: 100,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    let chain = ChainBuilder::new(1, NODES).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap()
}

fn sim_run() -> rcmp::sim::SimJobReport {
    let wl = WorkloadCfg {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        jobs: 1,
        per_node_input: ByteSize::bytes(BYTES_PER_PARTITION),
        block_size: ByteSize::bytes(BLOCK),
        num_reducers: NODES,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };
    let js = JobSim::new(HwProfile::stic(), wl.clone());
    let mut state = SimState::new(&wl);
    js.run_full(&mut state, 1, 1, true).unwrap()
}

#[test]
fn task_and_wave_counts_agree() {
    let engine = engine_run();
    let sim = sim_run();
    assert_eq!(engine.map_tasks_run, sim.mappers_run, "mapper counts");
    assert_eq!(engine.map_waves, sim.map_waves, "map wave counts");
    assert_eq!(
        engine.reduce_tasks_run, sim.reduce_tasks_run,
        "reducer counts"
    );
    assert_eq!(engine.reduce_waves, sim.reduce_waves, "reduce wave counts");
}

#[test]
fn io_volumes_agree() {
    let engine = engine_run();
    let sim = sim_run();

    // Map input: every byte of the input is read exactly once.
    let total_input = (BYTES_PER_PARTITION * NODES as u64) as f64;
    assert_eq!(
        engine.io.map_input_total() as f64,
        total_input,
        "engine reads the whole input"
    );
    assert_eq!(
        sim.io.map_input_local + sim.io.map_input_remote,
        total_input as u64,
        "sim reads the whole input"
    );

    // Shuffle: with a 1:1 map ratio the shuffle volume equals the input
    // (the engine's records carry their 12-byte headers through the
    // mapper unchanged, so encoded sizes are conserved).
    assert_eq!(engine.io.shuffle_total() as f64, total_input);
    assert_eq!(
        (sim.io.shuffle_local + sim.io.shuffle_remote) as f64,
        total_input
    );

    // Output: 1:1 reduce ratio conserves bytes; no replication traffic.
    assert_eq!(engine.io.output_written as f64, total_input);
    assert_eq!(sim.io.output_written as f64, total_input);
    assert_eq!(engine.io.replication_written, 0);
    assert_eq!(sim.io.replication_written, 0);
}

/// Locality profiles agree qualitatively: balanced, replicated input
/// makes the overwhelming majority of mapper reads local in both
/// implementations.
#[test]
fn locality_profiles_agree() {
    let engine = engine_run();
    let sim = sim_run();
    let engine_local = engine.io.map_input_local as f64 / engine.io.map_input_total() as f64;
    let sim_local =
        sim.io.map_input_local as f64 / (sim.io.map_input_local + sim.io.map_input_remote) as f64;
    assert!(engine_local > 0.7, "engine locality {engine_local}");
    assert!(sim_local > 0.7, "sim locality {sim_local}");
}

/// Recompute accounting agrees structurally: after a single node death,
/// both implementations re-run only a small fraction of mappers and
/// exactly the lost partitions' reducers.
#[test]
fn recompute_fractions_agree() {
    // Engine side.
    let cluster = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::bytes(BLOCK),
        max_recovery_attempts: 100,
        seed: 5,
        executor: ExecutorConfig::default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
    });
    let cfg = DataGenConfig {
        value_size: 100,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    let chain = ChainBuilder::new(1, NODES).build();
    let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
    tracker.run(&JobRun::full(chain.job(1).clone()), 1).unwrap();
    cluster.fail_node(rcmp::model::NodeId(NODES - 1));
    let lost = cluster.dfs().file_meta("out/1").unwrap().lost_partitions();
    let engine_rec = tracker
        .run(
            &JobRun::recompute(
                chain.job(1).clone(),
                rcmp::engine::RecomputeInstructions::new(lost.iter().copied(), None),
            ),
            2,
        )
        .unwrap();

    // Sim side.
    let wl = WorkloadCfg {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        jobs: 1,
        per_node_input: ByteSize::bytes(BYTES_PER_PARTITION),
        block_size: ByteSize::bytes(BLOCK),
        num_reducers: NODES,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };
    let js = JobSim::new(HwProfile::stic(), wl.clone());
    let mut state = SimState::new(&wl);
    js.run_full(&mut state, 1, 1, true).unwrap();
    state.fail_node(NODES - 1);
    let sim_lost = state.files[&1].lost_partitions(&state);
    let sim_rec = js
        .run_recompute(
            &mut state,
            1,
            &rcmp::sim::jobsim::RecomputeSpec::new(sim_lost.iter().copied(), 1),
            true,
        )
        .unwrap();

    // Both regenerate exactly the lost partitions with whole reducers.
    assert_eq!(engine_rec.reduce_tasks_run, lost.len());
    assert_eq!(sim_rec.reduce_tasks_run, sim_lost.len());
    // Both reuse most persisted map outputs.
    assert!(engine_rec.map_tasks_reused > engine_rec.map_tasks_run);
    assert!(sim_rec.mappers_reused > sim_rec.mappers_run);
    // Fraction re-run ≈ 1/N in both (placement differs in detail, so
    // allow a factor-2 envelope around the ideal).
    let total = (engine_rec.map_tasks_run + engine_rec.map_tasks_reused) as f64;
    let engine_frac = engine_rec.map_tasks_run as f64 / total;
    let sim_total = (sim_rec.mappers_run + sim_rec.mappers_reused) as f64;
    let sim_frac = sim_rec.mappers_run as f64 / sim_total;
    let ideal = 1.0 / NODES as f64;
    for (name, frac) in [("engine", engine_frac), ("sim", sim_frac)] {
        assert!(
            frac <= ideal * 2.0 + 1e-9,
            "{name} re-ran too many mappers: {frac} vs ideal {ideal}"
        );
    }
}

/// The event stream with the stamps and the backends' own payload
/// counts projected away: what the shared loop decided.
fn skeleton(log: &EventLog) -> Vec<ChainEvent> {
    log.iter()
        .map(|e| match *e {
            ChainEvent::JobCompleted { seq, job, .. } => ChainEvent::JobCompleted {
                seq,
                job,
                map_tasks_run: 0,
                map_tasks_reused: 0,
                reduce_tasks_run: 0,
            },
            ChainEvent::LossObserved { seq, node, .. } => ChainEvent::LossObserved {
                seq,
                node,
                lost_partitions: 0,
            },
            ref other => other.clone(),
        })
        .collect()
}

/// Chain-level agreement (§V-A): both backends run one control loop,
/// so the paper's 7-job chain with node 1 killed as job 7 starts logs
/// one event sequence in both — run 7 started, its loss, its
/// cancellation, one plan of six steps for job 7, six recomputations,
/// job 7 again: 14 runs in all.
#[test]
fn late_failure_starts_fourteen_runs_in_both_backends() {
    const JOBS: u32 = 7;
    let cluster = Cluster::new(ClusterConfig {
        block_size: ByteSize::bytes(BLOCK),
        ..ClusterConfig::small_test(NODES)
    });
    let cfg = DataGenConfig {
        value_size: 100,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let injector = Arc::new(ScriptedInjector::single(
        7,
        TriggerPoint::JobStart,
        NodeId(1),
    ));
    let engine = ChainDriver::new(&cluster, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();

    let wl = WorkloadCfg {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        jobs: JOBS,
        per_node_input: ByteSize::bytes(BYTES_PER_PARTITION),
        block_size: ByteSize::bytes(BLOCK),
        num_reducers: NODES,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };
    let sim = simulate_chain(
        &ChainSimConfig::new(HwProfile::stic(), wl, Strategy::rcmp_no_split())
            .with_failures(vec![FailureAt::at_job(7, 1)]),
    );

    assert_eq!(engine.jobs_started, 14);
    assert_eq!(sim.jobs_started, 14);
    let steps: Vec<usize> = engine.events.recoveries().map(|(_, s, _)| s).collect();
    assert_eq!(steps, [6]);
    assert_eq!(engine.events.clock(), Clock::WallMicros);
    assert_eq!(sim.events.clock(), Clock::SimSeconds);
    assert_eq!(skeleton(&sim.events), skeleton(&engine.events));
}

/// MTTR on the simulated clock, for the paper's STIC FAIL 7: the
/// detection leg is exactly the profile's heartbeat timeout, and the
/// four legs add up to the time from the fault to job 7 starting again.
#[test]
fn recovery_times_on_the_simulated_clock() {
    let hw = HwProfile::stic();
    let wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    let victim = wl.nodes - 1;
    let report = simulate_chain(
        &ChainSimConfig::new(hw.clone(), wl, Strategy::rcmp_no_split())
            .with_failures(vec![FailureAt::at_job(7, victim)]),
    );
    let times = report.events.recovery_times();
    assert_eq!(times.len(), 1, "{times:?}");
    let t = times[0];
    assert_eq!(t.seq, 7);
    assert_eq!(t.detect, hw.detect_timeout, "{t:?}");
    let fault = report
        .events
        .stamped()
        .find_map(|(fault, _, e)| matches!(e, ChainEvent::LossObserved { .. }).then_some(fault))
        .unwrap();
    let resumed = report
        .events
        .stamped()
        .find_map(|(_, at, e)| matches!(e, ChainEvent::JobStarted { seq: 14, .. }).then_some(at))
        .unwrap();
    assert!((t.total() - (resumed - fault)).abs() < 1e-9, "{t:?}");
    assert!(
        t.plan > 0.0 && t.recompute > 0.0 && t.resume == 0.0,
        "{t:?}"
    );
}

/// MTTR on the wall clock, for the benchmark's `chain_kill` shape
/// (async executor, chain cache, stable placement, split recovery):
/// every leg is a real, non-negative duration inside the chain's wall
/// time.
#[test]
fn recovery_times_on_the_wall_clock() {
    const NODES: u32 = 5;
    let cluster = Cluster::new(ClusterConfig {
        block_size: ByteSize::kib(4),
        executor: ExecutorConfig::async_workers(2),
        placement: PlacementKernel::Stable,
        chain_cache: ChainCacheConfig::enabled(ByteSize::mib(64)),
        ..ClusterConfig::small_test(NODES)
    });
    generate_input(cluster.dfs(), &DataGenConfig::test("input", NODES, 20_000)).unwrap();
    let chain = ChainBuilder::new(7, NODES).build();
    let injector = Arc::new(ScriptedInjector::single(
        7,
        TriggerPoint::JobStart,
        NodeId(1),
    ));
    let started = std::time::Instant::now();
    let outcome = ChainDriver::new(&cluster, Strategy::rcmp_split(4))
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    let wall_us = started.elapsed().as_micros() as f64;
    let times = outcome.events.recovery_times();
    assert_eq!(times.len(), 1, "{times:?}");
    let t = times[0];
    for leg in [t.detect, t.plan, t.recompute, t.resume] {
        assert!(leg >= 0.0, "{t:?}");
    }
    assert!(t.recompute > 0.0, "six recomputations take time: {t:?}");
    assert!(t.total() <= wall_us, "{t:?} vs {wall_us} us");
}
