//! Validation #3 (DESIGN.md): on matched configurations the simulator's
//! *accounting* — task counts, wave counts, transfer volumes — must
//! agree with the real engine's measured reports. Time is modeled;
//! volume is arithmetic, and arithmetic has to match.
//!
//! At chain level both backends run one control loop over one fault
//! script, so a script logs one event skeleton in both, or ends both in
//! the same typed error (validation #2). The differences that remain
//! are pinned by named tests that say why.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, ChainEvent, ChainOutcome, EventLog, SplitPolicy, Strategy};
use rcmp::engine::{
    Cluster, Fault, JobRun, JobTracker, NoFailures, ScriptedInjector, TriggerPoint,
};
use rcmp::model::{
    ByteSize, ChainCacheConfig, ClusterConfig, Error, ExecutorConfig, JobId, NodeId, PartitionId,
    PlacementKernel, Result, SlotConfig,
};
use rcmp::obs::{causal_lineage, Span, SpanId, SpanKind, Trace};
use rcmp::policy::{AdaptConfig, Clock, DynamicPolicy};
use rcmp::sim::state::file_path;
use rcmp::sim::{
    simulate_chain, try_simulate_chain, ChainSimConfig, FailureAt, HwProfile, JobSim,
    SimChainReport, SimState, WorkloadCfg,
};
use rcmp::workloads::checksum::{digest_file, OutputDigest};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

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
    let mut state = SimState::new(&wl, 5);
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
    let mut state = SimState::new(&wl, 5);
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
            ChainEvent::StorageReclaimed { files_deleted, .. } => ChainEvent::StorageReclaimed {
                files_deleted,
                map_entries_dropped: 0,
            },
            ref other => other.clone(),
        })
        .collect()
}

/// Chain length of every chain-level agreement case: the paper's 7 jobs.
const JOBS: u32 = 7;

/// A block that holds any one partition of the chain whole. The
/// simulator sizes every partition of a job's output alike; the
/// engine's key scatter does not, so at [`BLOCK`] some partitions span
/// three blocks where the simulator has two, and the two backends
/// schedule different map task sets from job 2 on (see
/// `uneven_partitions_move_steals_but_both_backends_converge`). With
/// one block per partition the task sets are the same.
const WHOLE_PARTITION_BLOCK: u64 = 4 * BLOCK;

/// The seed of both backends in every chain-level case: replica
/// targets and backoff jitter derive from it on either clock.
const SEED: u64 = 0xc0ffee;

/// The engine at the agreement shape with `block`-byte blocks, its
/// input written.
fn chain_cluster(block: u64, kernel: PlacementKernel) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        block_size: ByteSize::bytes(block),
        placement: kernel,
        seed: SEED,
        ..ClusterConfig::small_test(NODES)
    });
    let cfg = DataGenConfig {
        value_size: 100,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &cfg).unwrap();
    cluster
}

/// The simulator's workload at the same shape.
fn chain_wl(block: u64) -> WorkloadCfg {
    WorkloadCfg {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        jobs: JOBS,
        per_node_input: ByteSize::bytes(BYTES_PER_PARTITION),
        block_size: ByteSize::bytes(block),
        num_reducers: NODES,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    }
}

/// The simulator at the same shape.
fn chain_sim(
    block: u64,
    strategy: Strategy,
    kernel: PlacementKernel,
    script: &[FailureAt],
) -> ChainSimConfig {
    let mut cfg = ChainSimConfig::new(HwProfile::stic(), chain_wl(block), strategy)
        .with_failures(script.to_vec())
        .with_placement(kernel);
    cfg.seed = SEED;
    cfg
}

/// One fault script through both backends: the engine's chain (with
/// the digest of its final output) and the simulator's. A script may
/// name runs the chain never reaches; neither backend minds.
fn chain_both(
    block: u64,
    strategy: Strategy,
    kernel: PlacementKernel,
    script: &[FailureAt],
) -> (Result<(ChainOutcome, OutputDigest)>, Result<SimChainReport>) {
    let cluster = chain_cluster(block, kernel);
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let injector = ScriptedInjector::new(script.iter().copied()).tolerate_unfired();
    let engine = ChainDriver::new(&cluster, strategy)
        .with_injector(Arc::new(injector))
        .run(&chain.jobs)
        .and_then(|outcome| {
            let reader = cluster.schedulable_nodes()[0];
            let (digest, _) = digest_file(cluster.dfs(), chain.final_output(), reader)?;
            Ok((outcome, digest))
        });
    let sim = try_simulate_chain(&chain_sim(block, strategy, kernel, script));
    (engine, sim)
}

/// The engine's final digest of a fault-free chain.
fn golden_digest() -> OutputDigest {
    let default = PlacementKernel::Default;
    let (engine, _) = chain_both(BLOCK, Strategy::rcmp_no_split(), default, &[]);
    engine.unwrap().1
}

/// Both backends ran one policy over `script`: the same event skeleton,
/// or the same typed error. Returns the engine's final digest when the
/// chain converged.
fn assert_agree(
    block: u64,
    strategy: Strategy,
    kernel: PlacementKernel,
    script: &[FailureAt],
) -> Option<OutputDigest> {
    let case = format!("{strategy:?} under {kernel:?}, {block}-B blocks, script {script:?}");
    match chain_both(block, strategy, kernel, script) {
        (Ok((engine, digest)), Ok(sim)) => {
            assert_eq!(
                skeleton(&engine.events),
                skeleton(&sim.events),
                "{case}: the backends' event logs diverge"
            );
            Some(digest)
        }
        (Err(engine), Err(sim)) => {
            assert_eq!(
                std::mem::discriminant(&engine),
                std::mem::discriminant(&sim),
                "{case}: engine ended in {engine}, sim in {sim}"
            );
            None
        }
        (engine, sim) => panic!(
            "{case}: engine {:?}, sim {:?}",
            engine.map(|(o, _)| o.jobs_started),
            sim.map(|r| r.jobs_started)
        ),
    }
}

/// Chain-level agreement (§V-A): both backends run one control loop,
/// so the paper's 7-job chain with node 1 killed as job 7 starts logs
/// one event sequence in both — run 7 started, its loss, its
/// cancellation, one plan of six steps for job 7, six recomputations,
/// job 7 again: 14 runs in all.
#[test]
fn late_failure_starts_fourteen_runs_in_both_backends() {
    let script = [FailureAt::at_job(7, 1)];
    let (engine, sim) = chain_both(
        BLOCK,
        Strategy::rcmp_no_split(),
        PlacementKernel::Default,
        &script,
    );
    let (engine, sim) = (engine.unwrap().0, sim.unwrap());
    assert_eq!(engine.jobs_started, 14);
    assert_eq!(sim.jobs_started, 14);
    let steps: Vec<usize> = engine.events.recoveries().map(|(_, s, _)| s).collect();
    assert_eq!(steps, [6]);
    assert_eq!(engine.events.clock(), Clock::WallMicros);
    assert_eq!(sim.events.clock(), Clock::SimSeconds);
    assert_eq!(skeleton(&sim.events), skeleton(&engine.events));
}

/// The paper's own fault scripts — FAIL 2 and FAIL 7 (Fig. 8b/8c) and
/// the FAIL x,y pairs of Fig. 9 — under Fig. 9's three strategies. As
/// in the figure, the first kill takes the last node and the second
/// the one before it, and Hadoop's run numbering never exceeds the
/// chain length. Every script ends in the golden digest. REPL-3 under
/// two kills leaves two Up nodes of four for three copies: both
/// backends write down to HDFS's minimum, one copy per Up node.
#[test]
fn paper_fault_scripts_agree_in_both_backends() {
    let golden = golden_digest();
    let scripts: [&[u64]; 7] = [&[2], &[7], &[2, 2], &[7, 7], &[7, 14], &[2, 4], &[4, 7]];
    let strategies = [
        Strategy::rcmp_split(8),
        Strategy::rcmp_no_split(),
        Strategy::Replication { factor: 3 },
    ];
    for strategy in strategies {
        for runs in scripts {
            let is_repl = matches!(strategy, Strategy::Replication { .. });
            let script: Vec<FailureAt> = (1..)
                .zip(runs)
                .map(|(i, &seq)| {
                    let seq = if is_repl {
                        seq.min(u64::from(JOBS))
                    } else {
                        seq
                    };
                    FailureAt::at_job(seq, NODES - i)
                })
                .collect();
            let digest = assert_agree(BLOCK, strategy, PlacementKernel::Default, &script);
            assert_eq!(digest, Some(golden), "{strategy:?}, script {script:?}");
        }
    }
}

/// A cascade that reaches an input a replication point reclaimed
/// (§IV-C) cannot go on: both backends end with the same typed data
/// loss, naming that input. Hybrid every 3 jobs with reclaim replicates
/// `out/6` and deletes `out/1..=5`; killing both holders of an `out/6`
/// block as job 7 starts sends the cascade into job 6, whose input is
/// gone.
#[test]
fn cascade_into_reclaimed_input_is_typed_data_loss_in_both_backends() {
    let strategy = Strategy::Hybrid {
        split: SplitPolicy::Fixed(3),
        every_k: 3,
        factor: 2,
        reclaim: true,
    };
    let killed = [0, 1];
    let (engine_sets, sim_sets) = replica_sets(BLOCK, strategy);
    for (backend, sets) in [("engine", engine_sets), ("sim", sim_sets)] {
        let lost = sets.iter().any(|((file, _), blocks)| {
            file == "out/6" && blocks.iter().any(|b| b.iter().all(|n| killed.contains(n)))
        });
        assert!(
            lost,
            "{backend}: nodes {killed:?} hold no out/6 block alone"
        );
    }
    let script = killed.map(|node| FailureAt::at_job(7, node));
    let (engine, sim) = chain_both(BLOCK, strategy, PlacementKernel::Default, &script);
    for (backend, result) in [("engine", engine.map(|_| ())), ("sim", sim.map(|_| ()))] {
        match result {
            Err(Error::DataLoss { path, partition }) => {
                assert_eq!((path.as_str(), partition), ("out/5", None), "{backend}");
            }
            other => panic!("{backend}: expected typed data loss on out/5, got {other:?}"),
        }
    }
}

/// A trace as both backends write it: the spans of the job machine and
/// the chain loop in the order they were written, each with its payload
/// and the kinds of its parent and cause, and each run with its ok and
/// failed `Task` spans. Left out: the engine's executor, block and
/// shuffle spans, and the cluster events the simulator's state does not
/// trace (`membership.*`, `dfs.*`).
fn trace_projection(trace: &Trace) -> Vec<String> {
    let index: HashMap<SpanId, &Span> = trace.spans().iter().map(|s| (s.id, s)).collect();
    let kind = |id: Option<SpanId>| id.map(|id| index.get(&id).map_or("?", |s| s.kind.name()));
    let mut tasks: HashMap<SpanId, (u32, u32)> = HashMap::new();
    for s in trace.spans() {
        if let SpanKind::Task { ok, .. } = s.kind {
            let wave = s.parent.and_then(|w| index.get(&w));
            let run = wave
                .and_then(|w| w.parent)
                .expect("a task sits in a wave of a run");
            let (done, failed) = tasks.entry(run).or_default();
            *if ok { done } else { failed } += 1;
        }
    }
    let mut spans: Vec<&Span> = trace.spans().iter().collect();
    spans.sort_by_key(|s| s.id);
    spans
        .into_iter()
        .filter(|s| match &s.kind {
            SpanKind::Event { label, .. } => {
                !label.starts_with("membership.") && !label.starts_with("dfs.")
            }
            SpanKind::JobRun { .. }
            | SpanKind::Wave { .. }
            | SpanKind::Fault { .. }
            | SpanKind::Loss { .. }
            | SpanKind::RecoveryPlan { .. }
            | SpanKind::AdaptationPoint { .. } => true,
            _ => false,
        })
        .map(|s| {
            let tasks = match s.kind {
                SpanKind::JobRun { .. } => format!(" tasks {:?}", tasks.get(&s.id)),
                _ => String::new(),
            };
            let (parent, cause) = (kind(s.parent), kind(s.cause));
            format!(
                "{:?} node={:?} parent={parent:?} cause={cause:?}{tasks}",
                s.kind, s.node
            )
        })
        .collect()
}

/// Both backends ran one policy over `script` and traced it alike: the
/// same event skeleton and trace projection, or the same typed error
/// (the simulator hands no trace back with an error).
fn assert_traces_agree(
    block: u64,
    strategy: Strategy,
    kernel: PlacementKernel,
    script: &[FailureAt],
) {
    let case = format!("{strategy:?} under {kernel:?}, {block}-B blocks, script {script:?}");
    let cluster = chain_cluster(block, kernel);
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let injector = ScriptedInjector::new(script.iter().copied()).tolerate_unfired();
    let engine = ChainDriver::new(&cluster, strategy)
        .with_injector(Arc::new(injector))
        .run(&chain.jobs);
    let sim = try_simulate_chain(&chain_sim(block, strategy, kernel, script));
    match (engine, sim) {
        (Ok(engine), Ok(sim)) => {
            assert_eq!(skeleton(&engine.events), skeleton(&sim.events), "{case}");
            let (engine, sim) = (cluster.tracer().snapshot(), sim.trace);
            let (engine, sim) = (trace_projection(&engine), trace_projection(&sim));
            if let Some(i) = (0..engine.len().max(sim.len())).find(|&i| engine.get(i) != sim.get(i))
            {
                let from = i.saturating_sub(3);
                panic!(
                    "{case}: the traces diverge at span {i}:\nengine {:#?}\nsim {:#?}",
                    &engine[from..engine.len().min(i + 3)],
                    &sim[from..sim.len().min(i + 3)],
                );
            }
        }
        (Err(engine), Err(sim)) => assert_eq!(
            std::mem::discriminant(&engine),
            std::mem::discriminant(&sim),
            "{case}: engine ended in {engine}, sim in {sim}"
        ),
        (engine, sim) => panic!(
            "{case}: engine {:?}, sim {:?}",
            engine.map(|o| o.jobs_started),
            sim.map(|r| r.jobs_started)
        ),
    }
}

/// One trace on both clocks: the job machine writes every run, wave,
/// fault and loss span and the chain loop every plan, adaptation point
/// and event span, for the engine and the simulator alike. The paper's
/// fault scripts under Fig. 9's strategies (as in
/// `paper_fault_scripts_agree_in_both_backends`) and the 256 cases of
/// `every_fault_script_agrees_in_both_backends` project to one trace on
/// both backends. Like the property, the paper's scripts run at one
/// block per partition here: at two, the backends' task sets differ
/// (`uneven_partitions_move_steals_but_both_backends_converge`), and
/// with them the task counts a trace carries.
#[test]
fn chain_traces_agree_in_both_backends() {
    use proptest::strategy::Strategy as _;
    use proptest::test_runner::case_rng;
    let scripts: [&[u64]; 7] = [&[2], &[7], &[2, 2], &[7, 7], &[7, 14], &[2, 4], &[4, 7]];
    let strategies = [
        Strategy::rcmp_split(8),
        Strategy::rcmp_no_split(),
        Strategy::Replication { factor: 3 },
    ];
    for strategy in strategies {
        let last = match strategy {
            Strategy::Replication { .. } => u64::from(JOBS),
            _ => u64::MAX,
        };
        for runs in scripts {
            let script: Vec<FailureAt> = (1..)
                .zip(runs)
                .map(|(i, &seq)| FailureAt::at_job(seq.min(last), NODES - i))
                .collect();
            let default = PlacementKernel::Default;
            assert_traces_agree(WHOLE_PARTITION_BLOCK, strategy, default, &script);
        }
    }
    for case in 0..256 {
        let mut rng = case_rng("every_fault_script_agrees_in_both_backends", case);
        let (strategy, kernel, drawn) = property_case().sample(&mut rng);
        let (strategy, kernel) = (property_strategies()[strategy], KERNELS[kernel]);
        assert_traces_agree(
            WHOLE_PARTITION_BLOCK,
            strategy,
            kernel,
            &fault_script(&drawn),
        );
    }
}

/// Where second replicas live is one rule on both clocks
/// (`rcmp_policy::replica_targets`, keyed by each block's position), so
/// two kills in one run take both copies of the same partitions on
/// both backends: a hybrid's replicated outputs as job 7 starts, and
/// REPL-2's as job 2 starts.
#[test]
fn second_replica_targets_agree_in_both_backends() {
    let hybrid = Strategy::Hybrid {
        split: SplitPolicy::None,
        every_k: 2,
        factor: 2,
        reclaim: false,
    };
    let cases = [
        (hybrid, [FailureAt::at_job(7, 3), FailureAt::at_job(7, 2)]),
        (
            Strategy::Replication { factor: 2 },
            [FailureAt::at_job(2, 0), FailureAt::at_job(2, 2)],
        ),
    ];
    for (strategy, script) in cases {
        let default = PlacementKernel::Default;
        assert_agree(WHOLE_PARTITION_BLOCK, strategy, default, &script);
    }
}

/// Replica sets per `(file, partition)`: each block's replicas, in
/// segment order.
type ReplicaSets = BTreeMap<(String, u32), Vec<Vec<u32>>>;

/// Every file's replica sets after a fault-free chain under `strategy`
/// on each backend: the engine's namespace, and the holders of a
/// simulator state driven through the same runs and replication points.
/// The simulator has one segment per reducer, keyed like its first
/// block, so the two agree exactly at one block per partition.
fn replica_sets(block: u64, strategy: Strategy) -> (ReplicaSets, ReplicaSets) {
    let cluster = chain_cluster(block, PlacementKernel::Default);
    let chain = ChainBuilder::new(JOBS, NODES).build();
    ChainDriver::new(&cluster, strategy)
        .run(&chain.jobs)
        .unwrap();
    let mut engine = ReplicaSets::new();
    for file in (0..=JOBS).map(file_path) {
        let Ok(meta) = cluster.dfs().file_meta(&file) else {
            continue;
        };
        for p in &meta.partitions {
            let blocks = p
                .blocks()
                .map(|b| b.replicas.iter().map(|n| n.raw()).collect());
            engine.insert((file.clone(), p.id.raw()), blocks.collect());
        }
    }

    let wl = chain_wl(block);
    let js = JobSim::new(HwProfile::stic(), wl.clone());
    let mut state = SimState::new(&wl, SEED);
    let point = strategy.replication_point();
    for job in 1..=JOBS {
        let factor = strategy.output_replication();
        js.run_full(&mut state, job, factor, strategy.persists_outputs())
            .unwrap();
        if let (Some((factor, reclaim)), Strategy::Hybrid { every_k, .. }) = (point, strategy) {
            if job % every_k == 0 {
                state.replicate_file(job, factor);
                if reclaim {
                    state.files.retain(|&file, _| file == 0 || file >= job);
                }
            }
        }
    }
    let mut sim = ReplicaSets::new();
    for (&file, f) in &state.files {
        for (pid, p) in (0u32..).zip(&f.partitions) {
            let holders = p.segments.iter().map(|s| s.holders.clone()).collect();
            sim.insert((file_path(file), pid), holders);
        }
    }
    (engine, sim)
}

/// One block per partition, one replica set per block: after REPL-2's
/// fault-free chain, which places every output at write time, and after
/// a hybrid's replication points every 2 jobs, which raise factor-1
/// outputs to 2, every file and partition has the same replicas, in
/// the same order, on both backends (the input's three copies too).
#[test]
fn replica_sets_agree_in_both_backends() {
    let hybrid = Strategy::Hybrid {
        split: SplitPolicy::None,
        every_k: 2,
        factor: 2,
        reclaim: false,
    };
    for strategy in [Strategy::Replication { factor: 2 }, hybrid] {
        let (engine, sim) = replica_sets(WHOLE_PARTITION_BLOCK, strategy);
        assert_eq!(engine.len(), (JOBS + 1) as usize * NODES as usize);
        assert_eq!(engine, sim, "{strategy:?}");
    }
}

/// Decommission re-homing is the replica-target rule on both backends:
/// each replica the leaving node held moves to the node
/// `replica_targets` names with the block's remaining readable copies
/// as holders. Here two racks hold two nodes each, and the input is
/// written at factor 2 from each partition's own node, so partition 0
/// has one copy on node 0 (rack 0) and one on rack 1. Decommissioning
/// the rack-1 copy must put the new one on rack 1's other node, not
/// next to node 0 — the lowest-id free node.
#[test]
fn decommission_rehomes_off_the_remaining_copys_rack_in_both_backends() {
    let membership = rcmp::policy::Membership::with_racks(NODES, 2);
    let dfs_cfg = rcmp::dfs::DfsConfig {
        seed: SEED,
        ..rcmp::dfs::DfsConfig::new(NODES, ByteSize::bytes(WHOLE_PARTITION_BLOCK)).with_racks(2)
    };
    let dfs = rcmp::dfs::Dfs::new(dfs_cfg);
    dfs.create_file("input", 2, NODES).unwrap();
    for p in 0..NODES {
        let chunk = bytes::Bytes::from(vec![p as u8; BYTES_PER_PARTITION as usize]);
        let (pid, policy) = (PartitionId(p), rcmp::dfs::PlacementPolicy::WriterLocal);
        let written = dfs.write_partition_chunks("input", pid, vec![chunk], NodeId(p), policy);
        written.unwrap();
    }
    let wl = WorkloadCfg {
        input_replication: 2,
        ..chain_wl(WHOLE_PARTITION_BLOCK)
    };
    let mut state = SimState::with_membership(&wl, SEED, membership.clone());
    let engine_holders = |p: u32| -> Vec<u32> {
        let meta = dfs.file_meta("input").unwrap();
        let block = meta.partitions[p as usize]
            .blocks()
            .next()
            .unwrap()
            .replicas
            .clone();
        block.into_iter().map(|n| n.raw()).collect()
    };
    let sim_holders = |state: &SimState, p: u32| {
        state.files[&0].partitions[p as usize].segments[0]
            .holders
            .clone()
    };
    for p in 0..NODES {
        assert_eq!(
            engine_holders(p),
            sim_holders(&state, p),
            "partition {p} before"
        );
    }
    let [first, leaving] = engine_holders(0)[..] else {
        panic!("two copies of partition 0");
    };
    assert_eq!((membership.rack(first), membership.rack(leaving)), (0, 1));

    dfs.decommission_node(NodeId(leaving)).unwrap();
    state.decommission_node(leaving).unwrap();
    let moved = engine_holders(0);
    assert_eq!(moved.len(), 2, "the factor is kept: {moved:?}");
    assert!(!moved.contains(&leaving));
    assert_eq!(
        membership.rack(moved[1]),
        1,
        "the new copy is off node {first}'s rack: {moved:?}"
    );
    for p in 0..NODES {
        assert_eq!(
            engine_holders(p),
            sim_holders(&state, p),
            "partition {p} after"
        );
    }
}

/// The simulator sizes every partition of a job's output alike; the
/// engine's key scatter does not, so at two blocks per partition some
/// of its partitions span three. Once a node is gone, the map tasks
/// other nodes steal differ between the backends, and with them which
/// persisted map outputs the next crash takes: here the engine's plan
/// for job 7 regenerates 10 partitions, the simulator's 11. The
/// property runs at one block per partition for this reason. Each
/// backend still converges, and the engine's output is golden.
#[test]
fn uneven_partitions_move_steals_but_both_backends_converge() {
    let drain = FailureAt {
        seq: 2,
        point: TriggerPoint::JobStart,
        fault: Fault::NodeDrain { node: NodeId(2) },
    };
    let script = [drain, FailureAt::at_job(7, 0)];
    let strategy = Strategy::rcmp_no_split();
    let (engine, sim) = chain_both(BLOCK, strategy, PlacementKernel::Default, &script);
    let (engine, digest) = engine.unwrap();
    let sim = sim.unwrap();
    assert_eq!(digest, golden_digest());
    let plans = |log: &EventLog| log.recoveries().collect::<Vec<_>>();
    assert_eq!(plans(&engine.events), [(JobId(7), 6, 10)]);
    assert_eq!(plans(&sim.events), [(JobId(7), 6, 11)]);
    assert_agree(
        WHOLE_PARTITION_BLOCK,
        strategy,
        PlacementKernel::Default,
        &script,
    );
}

/// A crash on a recovery run that spares the inputs the step's mappers
/// re-read does not stop the step: the engine runs it to completion on
/// the survivors, and so does the simulator. Here run 4, the first step
/// of job 3's recovery, is scripted to kill a node that already died in
/// run 3.
#[test]
fn crash_that_spares_a_recovery_step_lets_it_finish_in_both_backends() {
    let script = [FailureAt::at_job(3, 2), FailureAt::at_job(4, 2)];
    for kernel in KERNELS {
        assert_agree(BLOCK, Strategy::rcmp_no_split(), kernel, &script);
    }
}

/// With every node killed as run 1 starts, JobInit finds the input
/// lost and cancels the run on both backends, and the planner ends the
/// chain in typed data loss on the external input. (The simulator used
/// to check for a live node once per run, before JobInit, and end in
/// `NoLiveNodes`; the job machine checks per phase, after JobInit.)
#[test]
fn fully_dead_cluster_typed_error_in_both_backends() {
    let script: Vec<FailureAt> = (0..NODES).map(|n| FailureAt::at_job(1, n)).collect();
    let strategy = Strategy::rcmp_no_split();
    let (engine, sim) = chain_both(BLOCK, strategy, PlacementKernel::Default, &script);
    for (backend, result) in [("engine", engine.map(|_| ())), ("sim", sim.map(|_| ()))] {
        match result {
            Err(Error::DataLoss { path, .. }) => assert_eq!(path, "input", "{backend}"),
            other => panic!("{backend}: expected data loss on the input, got {other:?}"),
        }
    }
}

/// A restart starts the chain over from its input, so it cannot bring
/// a lost input partition back. OPTIMISTIC over an input with one copy
/// per partition, whose holder of partition 1 dies as run 2 starts, ends
/// on both backends in the data loss RCMP's planner names for the same
/// state — where the restart loop used to resubmit job 1 until it ran
/// out of passes and ended in `RecoveryExhausted`.
#[test]
fn restart_over_a_lost_external_input_is_data_loss_in_both_backends() {
    let script = [FailureAt::at_job(2, 1)];
    let cluster = Cluster::new(ClusterConfig {
        block_size: ByteSize::bytes(BLOCK),
        max_recovery_attempts: 5,
        seed: SEED,
        ..ClusterConfig::small_test(NODES)
    });
    let input = DataGenConfig {
        value_size: 100,
        replication: 1,
        ..DataGenConfig::test("input", NODES, BYTES_PER_PARTITION)
    };
    generate_input(cluster.dfs(), &input).unwrap();
    let chain = ChainBuilder::new(JOBS, NODES).build();
    let engine = ChainDriver::new(&cluster, Strategy::Optimistic)
        .with_injector(Arc::new(ScriptedInjector::new(script)))
        .run(&chain.jobs);
    let wl = WorkloadCfg {
        input_replication: 1,
        ..chain_wl(BLOCK)
    };
    let mut sim = ChainSimConfig::new(HwProfile::stic(), wl, Strategy::Optimistic)
        .with_failures(script.to_vec());
    sim.seed = SEED;
    let sim = try_simulate_chain(&sim);
    let lost = Error::DataLoss {
        path: "input".into(),
        partition: Some(PartitionId(1)),
    };
    assert_eq!(engine.map(|_| ()), Err(lost.clone()), "engine");
    assert_eq!(sim.map(|_| ()), Err(lost), "sim");
}

/// The simulated STIC FAIL 7 is traced as the engine traces a chain:
/// 14 runs, run 7 cancelled (`ok: false`); one crash, its `Loss` caused
/// by its `Fault`; a causal lineage fault → loss → plan → the six
/// recomputation runs it submitted; and `Wave` spans carrying the tasks
/// the machine assigned and the slots it assigned them against.
#[test]
fn simulated_fail_7_trace_has_the_engines_shape() {
    let wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    let failures = vec![FailureAt::at_job(7, wl.nodes - 1)];
    let cfg = ChainSimConfig::new(HwProfile::stic(), wl, Strategy::rcmp_no_split())
        .with_failures(failures);
    let report = simulate_chain(&cfg);
    let trace = &report.trace;
    let runs: Vec<&Span> = trace.of_kind("JobRun").collect();
    assert_eq!(runs.len(), 14);
    for run in &runs {
        let SpanKind::JobRun { seq, ok, .. } = run.kind else {
            unreachable!()
        };
        assert_eq!(ok, seq != 7, "run {seq}");
    }
    let (faults, losses): (Vec<&Span>, Vec<&Span>) = (
        trace.of_kind("Fault").collect(),
        trace.of_kind("Loss").collect(),
    );
    assert_eq!((faults.len(), losses.len()), (1, 1));
    assert_eq!(losses[0].cause, Some(faults[0].id));
    let lineage = causal_lineage(trace);
    let plan = lineage.iter().find(|s| s.kind.name() == "RecoveryPlan");
    let plan = plan.expect("the plan is in the lineage");
    assert_eq!(plan.cause, Some(losses[0].id));
    let recomputes = lineage.iter().filter(|s| {
        matches!(
            s.kind,
            SpanKind::JobRun {
                recompute: true,
                ..
            }
        ) && s.cause == Some(plan.id)
    });
    assert_eq!(recomputes.count(), 6);
    for rep in &report.runs {
        let run = runs
            .iter()
            .find(|s| matches!(s.kind, SpanKind::JobRun { seq, .. } if seq == rep.seq));
        let run = run.expect("every completed run is traced");
        let SpanKind::JobRun {
            live_nodes,
            map_slots,
            ..
        } = run.kind
        else {
            unreachable!()
        };
        let (mut maps, mut reduces) = (0, 0);
        for wave in trace.of_kind("Wave").filter(|w| w.parent == Some(run.id)) {
            let SpanKind::Wave {
                phase,
                tasks,
                capacity,
                ..
            } = wave.kind
            else {
                unreachable!()
            };
            assert_eq!(capacity, live_nodes * map_slots, "run {}", rep.seq);
            assert!(tasks <= capacity);
            match phase {
                rcmp::obs::Phase::Map => maps += tasks as usize,
                rcmp::obs::Phase::Reduce => reduces += tasks as usize,
            }
        }
        assert_eq!(
            (maps, reduces),
            (rep.mappers_run, rep.reduce_tasks_run),
            "run {}",
            rep.seq
        );
    }
}

/// Every strategy the property draws.
fn property_strategies() -> Vec<Strategy> {
    let dynamic = DynamicPolicy {
        failure_prob_per_job: 0.3,
        extra_replicas: 1,
        replication_byte_cost: 1.0,
        recompute_fraction: 0.2,
    };
    let adapt = AdaptConfig {
        prior_rate: 0.3,
        horizon: JOBS,
        ..AdaptConfig::default_for(NODES)
    };
    let hybrid = |every_k, split, reclaim| Strategy::Hybrid {
        split,
        every_k,
        factor: 2,
        reclaim,
    };
    vec![
        Strategy::rcmp_no_split(),
        Strategy::rcmp_split(3),
        hybrid(2, SplitPolicy::None, false),
        hybrid(2, SplitPolicy::None, true),
        hybrid(3, SplitPolicy::Fixed(3), false),
        hybrid(3, SplitPolicy::Fixed(3), true),
        Strategy::Replication { factor: 2 },
        Strategy::Optimistic,
        hybrid(dynamic.every_k(), SplitPolicy::Survivors, false),
        Strategy::AdaptiveHybrid {
            split: SplitPolicy::Fixed(3),
            factor: 2,
            adapt,
            reclaim: false,
        },
    ]
}

const KERNELS: [PlacementKernel; 4] = [
    PlacementKernel::Default,
    PlacementKernel::RackAware,
    PlacementKernel::Delay { rounds: 3 },
    PlacementKernel::CapacityWeighted,
];

/// Each node's partners: for every factor-2 output block it holds, the
/// block's other holder (so a node appears once per block the two
/// share). Read from the fault-free REPL-2 chain at one block per
/// partition, where both backends place the same copies
/// (`replica_sets_agree_in_both_backends`); a replication point raises
/// an output to the same pair.
fn factor2_partners() -> &'static BTreeMap<u32, Vec<u32>> {
    static PARTNERS: OnceLock<BTreeMap<u32, Vec<u32>>> = OnceLock::new();
    PARTNERS.get_or_init(|| {
        let repl2 = Strategy::Replication { factor: 2 };
        let (engine, _) = replica_sets(WHOLE_PARTITION_BLOCK, repl2);
        let mut partners: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let outputs = engine.iter().filter(|((file, _), _)| *file != file_path(0));
        for pair in outputs.flat_map(|(_, blocks)| blocks) {
            if let [a, b] = pair[..] {
                partners.entry(a).or_default().push(b);
                partners.entry(b).or_default().push(a);
            }
        }
        partners
    })
}

/// The point a drawn entry fires at: `JobStart` for draws 0 and 1, else
/// one of the four wave points of a wave below `waves`, the waves a
/// phase of the entry's run has.
fn trigger_point(draw: u8, waves: u32) -> TriggerPoint {
    let wave = u32::from(draw.saturating_sub(2) / 4) % waves;
    match draw {
        0..=1 => TriggerPoint::JobStart,
        d => match (d - 2) % 4 {
            0 => TriggerPoint::MidMapWave(wave),
            1 => TriggerPoint::AfterMapWave(wave),
            2 => TriggerPoint::MidReduceWave(wave),
            _ => TriggerPoint::AfterReduceWave(wave),
        },
    }
}

/// A script of up to two entries drawn as `(run, node, shape, point)`:
/// each a crash (shapes 0 and 1) or a drain (shape 2) at runs 1..=14,
/// at the [`trigger_point`] drawn. A phase of a whole job runs its four
/// tasks in one wave on four Up nodes and in two once an earlier run's
/// entry took a node, so only an entry after another draws wave 1. An
/// entry's node is its draw modulo
/// the node count, except that when both entries are crashes, the
/// second draw indexes the first node's [`factor2_partners`]: the pair
/// then takes both copies of some output block, and the two backends'
/// replica sets decide what is lost.
fn fault_script(drawn: &[(u64, u32, u8, u8)]) -> Vec<FailureAt> {
    let nodes: Vec<u32> = match drawn {
        &[(_, first, 0..=1, _), (_, second, 0..=1, _)] => {
            let partners = &factor2_partners()[&(first % NODES)];
            vec![first % NODES, partners[second as usize % partners.len()]]
        }
        _ => drawn.iter().map(|&(_, draw, ..)| draw % NODES).collect(),
    };
    let entry = |(&(seq, _, shape, point), node): (&(u64, u32, u8, u8), u32)| {
        let node = NodeId(node);
        let fault = if shape < 2 {
            Fault::NodeCrash(node)
        } else {
            Fault::NodeDrain { node }
        };
        let taken = drawn.iter().filter(|d| d.0 < seq).count() as u32;
        let point = trigger_point(point, NODES.div_ceil(NODES - taken));
        FailureAt { seq, point, fault }
    };
    drawn.iter().zip(nodes).map(entry).collect()
}

/// One case of the agreement property: a strategy of
/// [`property_strategies`], a kernel of [`KERNELS`] and the entries
/// [`fault_script`] turns into a script.
type Case = (usize, usize, Vec<(u64, u32, u8, u8)>);

fn property_case() -> impl proptest::strategy::Strategy<Value = Case> {
    let entry = (1u64..=14, 0..1024u32, 0..3u8, 0..10u8);
    (
        0..10usize,
        0..KERNELS.len(),
        prop::collection::vec(entry, 0..=2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Engine ≡ sim on fault scripts: every strategy × every kernel ×
    /// random scripts of crashes and drains, at job start or at a wave
    /// boundary, logs one event skeleton in both backends, or ends both
    /// in the same typed error.
    #[test]
    fn every_fault_script_agrees_in_both_backends((strategy, kernel, drawn) in property_case()) {
        let strategy = property_strategies()[strategy];
        let script = fault_script(&drawn);
        assert_agree(WHOLE_PARTITION_BLOCK, strategy, KERNELS[kernel], &script);
    }
}

/// The property's wave-point draws are spent: replaying the property's
/// own 256 cases on the engine, 103 of their 220 wave-point entries
/// fire (0.47), where drawing wave 1 from a run with one wave fired 44
/// (0.20). Most of the rest sit at runs the chain never reaches. The
/// floor is 0.4.
#[test]
fn drawn_wave_points_fire() {
    use proptest::strategy::Strategy as _;
    use proptest::test_runner::case_rng;
    let at_wave = |f: &&FailureAt| f.point != TriggerPoint::JobStart;
    let (mut drawn_points, mut fired) = (0usize, 0usize);
    for case in 0..256 {
        let mut rng = case_rng("every_fault_script_agrees_in_both_backends", case);
        let (strategy, kernel, drawn) = property_case().sample(&mut rng);
        let script = fault_script(&drawn);
        let cluster = chain_cluster(WHOLE_PARTITION_BLOCK, KERNELS[kernel]);
        let chain = ChainBuilder::new(JOBS, NODES).build();
        let injector = Arc::new(ScriptedInjector::new(script.iter().copied()).tolerate_unfired());
        let _ = ChainDriver::new(&cluster, property_strategies()[strategy])
            .with_injector(injector.clone())
            .run(&chain.jobs);
        let points = script.iter().filter(at_wave).count();
        drawn_points += points;
        fired += points - injector.unfired().iter().filter(at_wave).count();
    }
    let share = fired as f64 / drawn_points as f64;
    assert!(
        share >= 0.4,
        "{fired} of {drawn_points} wave-point entries fired"
    );
}

/// A crash in the middle of job 7 replays on both clocks. After its
/// map wave, node 1's death takes map outputs the reducers need and a
/// partition of job 6's output, so the refresh cancels the run; after
/// its reduce wave, it also takes job 7's own output partition. Either
/// way both backends log one event sequence: the loss, the
/// cancellation, one plan, its recomputations, job 7 again.
#[test]
fn crash_at_job_7s_after_map_wave_agrees_in_both_backends() {
    assert_mid_job_crash_agrees(TriggerPoint::AfterMapWave(0));
}

/// See [`crash_at_job_7s_after_map_wave_agrees_in_both_backends`].
#[test]
fn crash_at_job_7s_after_reduce_wave_agrees_in_both_backends() {
    assert_mid_job_crash_agrees(TriggerPoint::AfterReduceWave(0));
}

fn assert_mid_job_crash_agrees(point: TriggerPoint) {
    let script = [FailureAt {
        seq: 7,
        point,
        fault: Fault::NodeCrash(NodeId(1)),
    }];
    let strategy = Strategy::rcmp_no_split();
    let default = PlacementKernel::Default;
    let (engine, sim) = chain_both(WHOLE_PARTITION_BLOCK, strategy, default, &script);
    let ((engine, digest), sim) = (engine.unwrap(), sim.unwrap());
    assert_eq!(digest, golden_digest());
    assert_eq!(skeleton(&engine.events), skeleton(&sim.events), "{point:?}");
    let cancelled = |log: &EventLog| {
        let cancel = |e: &ChainEvent| matches!(e, ChainEvent::JobCancelled { seq: 7, .. });
        log.iter().any(cancel)
    };
    assert!(cancelled(&engine.events), "{point:?}: {:?}", engine.events);
    assert_eq!(engine.events.losses(), 1);
    assert!(engine.jobs_started > 7);
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
/// (two pool workers, chain cache, stable placement, split recovery):
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
