//! Chaos soak: the 7-job chain under seeded randomized fault schedules.
//!
//! The fault injector mixes node kills, silent replica corruption, torn
//! partition writes and transient shuffle flakes. The contract under
//! chaos is binary: the chain either converges to the exact golden
//! output digest, or surfaces a typed [`Error::RecoveryExhausted`] —
//! never a hang, a panic or a silently wrong output. Every schedule is
//! a pure function of its seed, so any failing case replays exactly.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::failure::{Fault, FaultTrigger};
use rcmp::engine::{Cluster, RandomizedInjector, ScriptedInjector, TriggerPoint};
use rcmp::model::{
    ByteSize, ChainCacheConfig, ClusterConfig, Error, ExecutorConfig, NodeId, PlacementKernel,
    SlotConfig,
};
use rcmp::workloads::checksum::{digest_file, OutputDigest};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 5;
const JOBS: u32 = 7;

fn cluster() -> Cluster {
    cluster_with(ExecutorConfig::from_env_or_default())
}

fn cluster_with(executor: ExecutorConfig) -> Cluster {
    cluster_cached(executor, ChainCacheConfig::default())
}

fn cluster_cached(executor: ExecutorConfig, chain_cache: ChainCacheConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor,
        shuffle: Default::default(),
        retry: Default::default(),
        placement: if chain_cache.enabled {
            PlacementKernel::Stable
        } else {
            PlacementKernel::from_env_or_default()
        },
        chain_cache,
        seed: 23,
    })
}

/// Input replicated 3× (`DataGenConfig::test` default): with kills
/// capped at 2, no schedule can make the chain input unrecoverable, so
/// "typed error" outcomes are genuine recovery-budget exhaustions, not
/// unavoidable data loss.
fn setup(cl: &Cluster) -> rcmp::workloads::ChainSpec {
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 15_000)).unwrap();
    ChainBuilder::new(JOBS, NODES).build()
}

fn golden() -> OutputDigest {
    let cl = cluster();
    let chain = setup(&cl);
    ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .run(&chain.jobs)
        .unwrap();
    digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 60,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// ≥50 randomized fault schedules over the 7-job chain: every one
    /// ends in golden-digest success or a typed recovery error.
    #[test]
    fn chaos_schedule_converges_or_fails_typed(chaos_seed in 0u64..1_000_000) {
        let expected = golden();
        let cl = cluster();
        let chain = setup(&cl);
        let injector = Arc::new(
            RandomizedInjector::new(chaos_seed, NODES)
                .kill_probability(0.08)
                .fault_probability(0.25)
                .max_kills(2)
                .max_other_faults(6),
        );
        match ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(injector)
            .run(&chain.jobs)
        {
            Ok(_) => {
                let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                    .unwrap()
                    .0;
                prop_assert_eq!(digest, expected, "seed {} produced wrong output", chaos_seed);
            }
            Err(Error::RecoveryExhausted { .. }) => {
                // Acceptable: the budget surfaced a typed error instead
                // of livelocking.
            }
            Err(Error::DataLoss { ref path, .. }) if path == "input" => {
                // Acceptable: corruption demotes replicas like losses,
                // so kills plus corruption can destroy every replica of
                // an external-input block — unrecoverable by
                // recomputation, and correctly surfaced as typed loss.
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "seed {chaos_seed}: expected success or RecoveryExhausted, got {e}"
                )));
            }
        }
    }
}

/// Golden digest computed once: the cached soaks below compare against
/// the same cache-off oracle on every case, so there is no reason to
/// re-derive it 60 times.
fn golden_once() -> &'static OutputDigest {
    static GOLDEN: std::sync::OnceLock<OutputDigest> = std::sync::OnceLock::new();
    GOLDEN.get_or_init(golden)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 60,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The cached chain under chaos (ISSUE 10): 60 randomized fault
    /// schedules over the 7-job chain with the inter-job cache on and
    /// the `stable` kernel routing mappers to cached partitions. The
    /// binary contract is unchanged from the cache-off soak — exact
    /// golden digest or a typed recovery error — because kills, drains
    /// and corruption all invalidate cached partitions and fall back
    /// to the persisted DFS path.
    #[test]
    fn cached_chaos_schedule_converges_or_fails_typed(chaos_seed in 0u64..1_000_000) {
        let expected = golden_once();
        let cl = cluster_cached(
            ExecutorConfig::from_env_or_default(),
            ChainCacheConfig::enabled(ByteSize::mib(64)),
        );
        let chain = setup(&cl);
        let injector = Arc::new(
            RandomizedInjector::new(chaos_seed, NODES)
                .kill_probability(0.08)
                .fault_probability(0.25)
                .max_kills(2)
                .max_other_faults(6),
        );
        match ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(injector)
            .run(&chain.jobs)
        {
            Ok(_) => {
                let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                    .unwrap()
                    .0;
                prop_assert_eq!(&digest, expected, "seed {} produced wrong output", chaos_seed);
            }
            Err(Error::RecoveryExhausted { .. }) => {}
            Err(Error::DataLoss { ref path, .. }) if path == "input" => {}
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "seed {chaos_seed}: expected success or RecoveryExhausted, got {e}"
                )));
            }
        }
    }
}

/// A budget smaller than any single partition can never admit anything:
/// every committed job spills straight through to the DFS, zero hits,
/// and the chain behaves exactly like the cache-off build — same
/// golden digest, reads served from disk. This is the degradation
/// floor the config documents: sizing the budget wrong costs the
/// speedup, never correctness.
#[test]
fn tiny_budget_degrades_to_pure_spill_through() {
    let expected = golden_once();
    let cl = cluster_cached(
        ExecutorConfig::from_env_or_default(),
        // 1 KiB budget vs ≈300 KiB partitions: nothing ever fits.
        ChainCacheConfig::enabled(ByteSize::kib(1)),
    );
    let chain = setup(&cl);
    ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .run(&chain.jobs)
        .unwrap();
    let snap = cl.metrics().snapshot();
    assert_eq!(
        snap.counter("cache.hits").unwrap_or(0),
        0,
        "a sub-partition budget must never admit, hence never hit"
    );
    assert!(
        snap.counter("cache.spills").unwrap_or(0) > 0,
        "every commit must be recorded as a spill"
    );
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(&digest, expected, "spill-through changed the output");
}

/// Runs the chain once under `exec` with a randomized fault schedule,
/// returning the outcome status plus the recovery event sequence, and
/// asserting any converged run landed on the golden digest.
fn chaos_replay(
    exec: ExecutorConfig,
    chaos_seed: u64,
    kill_prob: f64,
    fault_prob: f64,
    expected: &OutputDigest,
) -> (String, Option<rcmp::core::EventLog>) {
    let cl = cluster_with(exec);
    let chain = setup(&cl);
    let injector = Arc::new(
        RandomizedInjector::new(chaos_seed, NODES)
            .kill_probability(kill_prob)
            .fault_probability(fault_prob)
            .max_kills(2)
            .max_other_faults(6),
    );
    let as_dyn: Arc<dyn rcmp::engine::FailureInjector> = Arc::clone(&injector) as _;
    match ChainDriver::new(&cl, Strategy::rcmp_split(3))
        .with_injector(as_dyn)
        .run(&chain.jobs)
    {
        Ok(outcome) => {
            let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                .unwrap()
                .0;
            assert_eq!(
                digest, *expected,
                "seed {chaos_seed} under {exec:?} produced wrong output"
            );
            let (kills, _) = injector.faults_raised();
            (
                format!("converged after {kills} kills"),
                Some(outcome.events),
            )
        }
        Err(e) => (format!("failed: {e}"), None),
    }
}

/// Backend determinism under the paper's fail-stop failure model: with
/// a crash-only chaos schedule (node kills fire serially at trigger
/// points, never mid-wave) the threaded and async wave executors drive
/// the 7-job chain through *identical* recovery event sequences —
/// every loss, recovery plan and recompute run in the same order — and
/// any converging run lands on the same golden digest. Wave assignment
/// precedes execution and outcomes are input-ordered, so the backend
/// (and its worker count) must be unobservable to the recovery
/// machinery.
///
/// Partial faults are excluded here on purpose: a torn write kills its
/// node *mid-wave* from inside a running task, and which concurrent
/// tasks observe the shrunken live set is inherently timing-dependent
/// under the thread-per-slot backend (see
/// `serial_reactor_replays_full_chaos_exactly` for the guarantee the
/// async reactor adds there).
#[test]
fn backends_replay_identical_recovery_sequences() {
    let expected = golden();
    for chaos_seed in [11u64, 4096, 777_777] {
        let mut replays: Vec<(String, Option<rcmp::core::EventLog>)> = Vec::new();
        for exec in [
            ExecutorConfig::default(),
            ExecutorConfig::async_auto(),
            ExecutorConfig::async_workers(1),
        ] {
            replays.push(chaos_replay(exec, chaos_seed, 0.3, 0.0, &expected));
        }
        let (first, rest) = replays.split_first().expect("three backends ran");
        assert_ne!(
            first.0, "converged after 0 kills",
            "seed {chaos_seed}: schedule injected no kills — test lost its teeth"
        );
        for other in rest {
            assert_eq!(
                first, other,
                "seed {chaos_seed}: backends diverged in outcome or event sequence"
            );
        }
    }
}

/// The serial reactor (`async_workers(1)`) makes even *full-shape*
/// chaos — torn writes that kill nodes mid-wave, shuffle flakes,
/// replica corruption — exactly replayable: two runs of the same seed
/// produce identical outcomes and event sequences. The thread-per-slot
/// backend cannot promise this (mid-wave node death races against
/// in-flight tasks), which is precisely the debugging story the
/// cooperative backend adds: any chaos failure replays deterministically
/// under `RCMP_EXECUTOR=async:1`.
#[test]
fn serial_reactor_replays_full_chaos_exactly() {
    let expected = golden();
    for chaos_seed in [11u64, 4096, 777_777] {
        let first = chaos_replay(
            ExecutorConfig::async_workers(1),
            chaos_seed,
            0.08,
            0.25,
            &expected,
        );
        let second = chaos_replay(
            ExecutorConfig::async_workers(1),
            chaos_seed,
            0.08,
            0.25,
            &expected,
        );
        assert_eq!(
            first, second,
            "seed {chaos_seed}: serial reactor replay diverged"
        );
    }
}

/// A corrupted replica under REPL-2 is caught by the block checksum on
/// read, demoted to a lost replica, and served from the survivor — the
/// chain output is exact and no recomputation is needed for it.
#[test]
fn corrupt_replica_under_repl2_recovers_from_survivor() {
    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    let injector = Arc::new(ScriptedInjector::single_fault(
        2,
        TriggerPoint::JobStart,
        Fault::CorruptReplica { node: NodeId(1) },
    ));
    let outcome = ChainDriver::new(&cl, Strategy::Replication { factor: 2 })
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(
        outcome.events.restarts(),
        0,
        "corruption must not force a restart"
    );
    assert_eq!(
        outcome.jobs_started, JOBS as u64,
        "the surviving replica makes recomputation unnecessary"
    );
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, expected);
}

/// Same fault under RCMP (replication 1): the corrupted block — the
/// most recently written one, a job output — has no surviving replica,
/// so the demotion makes the partition lost and the ordinary
/// recomputation path regenerates it. Output still exact.
#[test]
fn corrupt_replica_under_rcmp_recomputes() {
    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    let injector = Arc::new(ScriptedInjector::single_fault(
        3,
        TriggerPoint::JobStart,
        Fault::CorruptReplica { node: NodeId(2) },
    ));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert_eq!(
        outcome.events.restarts(),
        0,
        "RCMP never restarts the chain"
    );
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, expected);
}

/// A torn write leaves a strict prefix of the partition's chunks
/// committed — a partition that can look healthy while silently missing
/// records. The tracker must detect it, clear the partition and
/// re-reduce; the final digest stays exact.
#[test]
fn torn_write_is_detected_and_repaired() {
    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    let injector = Arc::new(ScriptedInjector::single_fault(
        2,
        TriggerPoint::JobStart,
        Fault::TornWrite { node: NodeId(3) },
    ));
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    // The torn writer dies mid-write; its job-1 output replicas die
    // with it, so the middleware must run recomputations.
    assert!(
        outcome.jobs_started > JOBS as u64,
        "expected recovery runs after the torn writer died, got {}",
        outcome.jobs_started
    );
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, expected);
}

/// Transient shuffle flakes within the retry budget are absorbed
/// without any recovery machinery kicking in.
#[test]
fn transient_shuffle_flakes_are_absorbed() {
    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
    for (seq, node) in [(1u64, 0u32), (3, 2), (5, 4)] {
        injector.add_fault(FaultTrigger {
            seq,
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
        outcome.jobs_started, JOBS as u64,
        "in-place retries must not trigger recomputation runs"
    );
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, expected);
}

/// A node whose shuffle path never stops failing exhausts the per-task
/// retry budget: the run ends in `RecoveryExhausted`, not a livelock.
#[test]
fn permanent_shuffle_flake_exhausts_retry_budget() {
    let cl = Cluster::new(ClusterConfig {
        nodes: 1,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: ExecutorConfig::from_env_or_default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: PlacementKernel::from_env_or_default(),
        chain_cache: Default::default(),
        seed: 23,
    });
    let mut gen = DataGenConfig::test("input", 1, 4_000);
    gen.replication = 1;
    generate_input(cl.dfs(), &gen).unwrap();
    let chain = ChainBuilder::new(1, 1).build();
    let injector = Arc::new(ScriptedInjector::single_fault(
        1,
        TriggerPoint::JobStart,
        Fault::ShuffleFlake {
            node: NodeId(0),
            times: u32::MAX,
        },
    ));
    let err = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap_err();
    assert!(
        matches!(err, Error::RecoveryExhausted { .. }),
        "expected RecoveryExhausted, got {err}"
    );
}

/// Even a run that dies with a typed recovery error leaves a complete
/// fault record in the trace: every injected fault has its span, with
/// the right kind, because the tracer lives on the cluster and survives
/// the error path.
#[test]
fn failed_run_traces_every_injected_fault() {
    use rcmp::obs::{FaultKind, SpanKind};

    let cl = Cluster::new(ClusterConfig {
        nodes: 1,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: ExecutorConfig::from_env_or_default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: PlacementKernel::from_env_or_default(),
        chain_cache: Default::default(),
        seed: 23,
    });
    let mut gen = DataGenConfig::test("input", 1, 4_000);
    gen.replication = 1;
    generate_input(cl.dfs(), &gen).unwrap();
    let chain = ChainBuilder::new(1, 1).build();
    let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
    injector.add_fault(FaultTrigger {
        seq: 1,
        point: TriggerPoint::JobStart,
        fault: Fault::ShuffleFlake {
            node: NodeId(0),
            times: u32::MAX,
        },
    });
    injector.add_fault(FaultTrigger {
        seq: 1,
        point: TriggerPoint::JobStart,
        fault: Fault::CorruptReplica { node: NodeId(0) },
    });
    let err = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap_err();
    // The flake alone exhausts retries; with the corruption also eating
    // the only input replica the run can die either way — both are
    // typed recovery errors, and both must leave the trace intact.
    assert!(
        matches!(
            err,
            Error::RecoveryExhausted { .. } | Error::DataLoss { .. }
        ),
        "expected a typed recovery error, got {err}"
    );

    let trace = cl.tracer().snapshot();
    let mut fault_kinds: Vec<FaultKind> = trace
        .spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Fault { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    fault_kinds.sort_by_key(|k| format!("{k:?}"));
    assert_eq!(
        fault_kinds,
        vec![FaultKind::CorruptReplica, FaultKind::ShuffleFlake],
        "exactly the two injected faults, each with its span"
    );
    // The failed run's JobRun span is closed with ok = false.
    assert!(
        trace
            .spans()
            .iter()
            .any(|s| matches!(s.kind, SpanKind::JobRun { ok: false, .. })),
        "the exhausted run is traced as failed"
    );
}

/// When every replica of an input partition dies and the strategy can
/// only restart, the chain-restart budget surfaces `RecoveryExhausted`
/// instead of restarting forever.
#[test]
fn unrecoverable_input_exhausts_chain_restart_budget() {
    let cl = Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: rcmp::model::ByteSize::kib(4),
        max_recovery_attempts: 3,
        executor: ExecutorConfig::from_env_or_default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: PlacementKernel::from_env_or_default(),
        chain_cache: Default::default(),
        seed: 23,
    });
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 15_000)).unwrap();
    let chain = ChainBuilder::new(2, NODES).build();
    // Kill exactly the nodes holding the replicas of the input's first
    // block: that partition becomes unrecoverable, and OPTIMISTIC can
    // only restart into the same loss again.
    let meta = cl.dfs().file_meta("input").unwrap();
    let victims = meta.partitions[0].block_locations()[0].replicas.clone();
    let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
    for node in victims {
        injector.add_fault(FaultTrigger {
            seq: 1,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(node),
        });
    }
    let err = ChainDriver::new(&cl, Strategy::Optimistic)
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap_err();
    match err {
        Error::RecoveryExhausted { attempts, .. } => {
            assert_eq!(attempts, 4, "budget of 3 restarts, failing on the 4th");
        }
        other => panic!("expected RecoveryExhausted, got {other}"),
    }
}

/// Everything a failing soak needs to be triaged in one string: which
/// scripted faults never fired (a schedule that silently lost its
/// teeth), the adaptive estimator's full trajectory (what the closed
/// loop believed at each job), and — when the chain died with a typed
/// error — the post-mortem blackbox the driver parked on the cluster
/// (flight-recorder tail, causal lineage, phase budget).
fn soak_diagnostics(
    cl: &Cluster,
    injector: &ScriptedInjector,
    adaptation: &[rcmp::policy::AdaptationStep],
) -> String {
    let unfired = injector.unfired_faults();
    let mut out = format!("unfired faults ({}):\n", unfired.len());
    for f in &unfired {
        out.push_str(&format!("  {f:?}\n"));
    }
    out.push_str(&format!(
        "estimator trajectory ({} steps):\n",
        adaptation.len()
    ));
    for s in adaptation {
        out.push_str(&format!(
            "  job {:>2}: rate {:.4} interval {:?} switched {}\n",
            s.job, s.rate, s.interval, s.switched
        ));
    }
    match cl.take_blackbox("chain") {
        Some(dump) => out.push_str(&dump.render()),
        None => out.push_str("no blackbox dump parked (chain did not die with a typed error)\n"),
    }
    out
}

/// The closed-loop strategy under full-shape chaos — a kill, shuffle
/// flakes and replica corruption across the 7-job chain. Converges to
/// the golden digest; any divergence dumps the unfired-fault list and
/// the estimator trajectory so the failure is triageable from the log
/// alone.
#[test]
fn adaptive_hybrid_soaks_through_mixed_chaos() {
    use rcmp::core::SplitPolicy;
    use rcmp::policy::AdaptConfig;

    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
    injector.add_fault(FaultTrigger {
        seq: 2,
        point: TriggerPoint::JobStart,
        fault: Fault::NodeCrash(NodeId(1)),
    });
    injector.add_fault(FaultTrigger {
        seq: 4,
        point: TriggerPoint::JobStart,
        fault: Fault::ShuffleFlake {
            node: NodeId(0),
            times: 2,
        },
    });
    injector.add_fault(FaultTrigger {
        seq: 5,
        point: TriggerPoint::JobStart,
        fault: Fault::CorruptReplica { node: NodeId(3) },
    });
    let strategy = Strategy::AdaptiveHybrid {
        split: SplitPolicy::Fixed(4),
        factor: 2,
        adapt: AdaptConfig {
            prior_rate: 0.3,
            horizon: JOBS,
            ..AdaptConfig::default_for(NODES)
        },
        reclaim: false,
    };
    let as_dyn: Arc<dyn rcmp::engine::FailureInjector> = Arc::clone(&injector) as _;
    match ChainDriver::new(&cl, strategy)
        .with_injector(as_dyn)
        .run(&chain.jobs)
    {
        Ok(outcome) => {
            assert_eq!(
                outcome.adaptation.len(),
                JOBS as usize,
                "one trajectory step per chain job\n{}",
                soak_diagnostics(&cl, &injector, &outcome.adaptation)
            );
            // The kill at job 2 must be visible to the estimator.
            assert!(
                outcome.adaptation[1].rate > outcome.adaptation[0].rate,
                "the job-2 kill never reached the estimator\n{}",
                soak_diagnostics(&cl, &injector, &outcome.adaptation)
            );
            let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                .unwrap()
                .0;
            assert_eq!(
                digest,
                expected,
                "adaptive soak diverged from golden\n{}",
                soak_diagnostics(&cl, &injector, &outcome.adaptation)
            );
        }
        Err(e) => panic!(
            "adaptive soak died with {e}\n{}",
            soak_diagnostics(&cl, &injector, &[])
        ),
    }
}

/// Elastic membership under chaos (ISSUE 8): a node crash forces
/// recomputation, and a scripted `NodeDrain` lands on the recovery
/// run while it is in flight. The drained node stops taking tasks but
/// keeps serving its replicas, so the chain still converges to the
/// exact golden digest — and the node ends the run `Draining`, not
/// dead.
#[test]
fn drain_during_recompute_converges_to_golden() {
    use rcmp::policy::NodeStatus;

    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    let injector = Arc::new(ScriptedInjector::default());
    // Seq 2 (job 2) dies at start → seq 3 is the recomputation of job
    // 1's lost partitions. Drain node 2 after that run's first map
    // wave: the strict injector check proves the drain really fired
    // mid-recompute.
    injector.add_fault(FaultTrigger {
        seq: 2,
        point: TriggerPoint::JobStart,
        fault: Fault::NodeCrash(NodeId(1)),
    });
    injector.add_fault(FaultTrigger {
        seq: 3,
        point: TriggerPoint::AfterMapWave(0),
        fault: Fault::NodeDrain { node: NodeId(2) },
    });
    let outcome = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap();
    assert!(
        outcome.jobs_started > JOBS as u64,
        "the crash must force recovery runs, got {}",
        outcome.jobs_started
    );
    let m = cl.membership();
    assert_eq!(m.status(2), Some(NodeStatus::Draining), "still draining");
    assert_eq!(m.status(1), Some(NodeStatus::Dead));
    assert!(
        !cl.schedulable_nodes().contains(&NodeId(2)),
        "a draining node takes no new tasks"
    );
    let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
        .unwrap()
        .0;
    assert_eq!(digest, expected, "drain mid-recompute changed the output");
}

/// Randomized chaos with graceful drains mixed in (`with_drains`): the
/// binary contract holds — golden digest or a typed recovery error.
#[test]
fn drain_chaos_converges_or_fails_typed() {
    let expected = golden();
    for chaos_seed in [7u64, 1234, 99_999, 424_242] {
        let cl = cluster();
        let chain = setup(&cl);
        let injector = Arc::new(
            RandomizedInjector::new(chaos_seed, NODES)
                .kill_probability(0.08)
                .fault_probability(0.3)
                .max_kills(1)
                .max_other_faults(6)
                .with_drains(),
        );
        match ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(injector)
            .run(&chain.jobs)
        {
            Ok(_) => {
                let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                    .unwrap()
                    .0;
                assert_eq!(digest, expected, "seed {chaos_seed} wrong output");
            }
            Err(Error::RecoveryExhausted { .. }) => {}
            Err(Error::DataLoss { ref path, .. }) if path == "input" => {}
            Err(e) => panic!("seed {chaos_seed}: expected golden or typed error, got {e}"),
        }
    }
}

/// Acceptance gate (ISSUE 8): all four placement kernels drive the
/// chaos-injected 7-job chain — a kill, transient flakes and a replica
/// corruption — to the same golden digest. Placement moves tasks;
/// contents must not move with them.
#[test]
fn every_placement_kernel_converges_chaos_chain_to_golden() {
    let expected = golden();
    for kernel in [
        PlacementKernel::Default,
        PlacementKernel::RackAware,
        PlacementKernel::Delay { rounds: 2 },
        PlacementKernel::CapacityWeighted,
    ] {
        let cl = Cluster::new(ClusterConfig {
            nodes: NODES,
            slots: SlotConfig::ONE_ONE,
            block_size: rcmp::model::ByteSize::kib(4),
            max_recovery_attempts: 100,
            executor: ExecutorConfig::from_env_or_default(),
            shuffle: Default::default(),
            retry: Default::default(),
            placement: kernel,
            chain_cache: Default::default(),
            seed: 23,
        });
        let chain = setup(&cl);
        let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
        injector.add_fault(FaultTrigger {
            seq: 2,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(NodeId(1)),
        });
        injector.add_fault(FaultTrigger {
            seq: 4,
            point: TriggerPoint::JobStart,
            fault: Fault::ShuffleFlake {
                node: NodeId(0),
                times: 2,
            },
        });
        injector.add_fault(FaultTrigger {
            seq: 5,
            point: TriggerPoint::JobStart,
            fault: Fault::CorruptReplica { node: NodeId(3) },
        });
        let outcome = ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(injector)
            .run(&chain.jobs)
            .unwrap_or_else(|e| panic!("kernel {kernel:?} died with {e}"));
        assert!(
            outcome.jobs_started > JOBS as u64,
            "kernel {kernel:?}: the crash must force recovery runs"
        );
        let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0;
        assert_eq!(digest, expected, "kernel {kernel:?} diverged from golden");
    }
}

/// Decommission after a completed chain: the incremental rebalance
/// re-homes every replica the leaver held, so the persisted outputs —
/// and their lineage — survive byte-exact with the node gone.
#[test]
fn decommission_preserves_chain_output() {
    let expected = golden();
    let cl = cluster();
    let chain = setup(&cl);
    ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .run(&chain.jobs)
        .unwrap();
    let report = cl.decommission_node(NodeId(1)).unwrap();
    assert!(
        report.blocks_moved > 0,
        "node 1 held replicas that must re-home: {report:?}"
    );
    let live = cl.live_nodes();
    assert!(!live.contains(&NodeId(1)), "leaver no longer serves");
    let digest = digest_file(cl.dfs(), chain.final_output(), live[0])
        .unwrap()
        .0;
    assert_eq!(digest, expected, "decommission must not disturb outputs");
}

/// The driver's strict end-of-chain injector check: a scripted trigger
/// that never fires fails the run loudly instead of silently testing
/// nothing.
#[test]
fn unfired_scripted_trigger_fails_the_run() {
    let cl = cluster();
    let chain = setup(&cl);
    // Wave 40 of run 99 never happens in a failure-free 7-job chain.
    let injector = Arc::new(ScriptedInjector::single(
        99,
        TriggerPoint::AfterMapWave(40),
        NodeId(0),
    ));
    let err = ChainDriver::new(&cl, Strategy::rcmp_no_split())
        .with_injector(injector)
        .run(&chain.jobs)
        .unwrap_err();
    assert!(
        matches!(err, Error::Config(ref m) if m.contains("never fired")),
        "expected strict-injector Config error, got {err}"
    );
}
