//! Chaos soak: the 7-job chain under seeded randomized fault schedules.
//!
//! The fault injector mixes node kills, silent replica corruption, torn
//! partition writes and transient shuffle flakes. The contract under
//! chaos is binary: the chain either converges to the exact golden
//! output digest, or surfaces a typed [`Error::RecoveryExhausted`] —
//! never a hang, a panic or a silently wrong output. Every schedule is
//! a pure function of its seed and replays byte-identically at every
//! worker-pool size, so a failing case replays from the one-line repro
//! its assertion prints.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, EventLog, HotspotMitigation, SplitPolicy, Strategy};
use rcmp::engine::failure::{FailureAt, Fault};
use rcmp::engine::{
    Cluster, JobRun, JobTracker, NoFailures, RandomizedInjector, ScriptedInjector, TriggerPoint,
};
use rcmp::model::{
    ByteSize, ChainCacheConfig, ClusterConfig, Error, ExecutorConfig, NodeId, PlacementKernel,
    SlotConfig,
};
use rcmp::obs::{FaultKind, SpanKind};
use rcmp::workloads::checksum::{digest_file, OutputDigest};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const NODES: u32 = 5;
const JOBS: u32 = 7;

/// The worker-pool sizes a chaos run can execute on: auto, 1 and 2.
fn pool_sizes() -> [ExecutorConfig; 3] {
    [
        ExecutorConfig::default(),
        ExecutorConfig::async_workers(1),
        ExecutorConfig::async_workers(2),
    ]
}

/// The placement kernels a chaos run can schedule with.
const KERNELS: [PlacementKernel; 4] = [
    PlacementKernel::Default,
    PlacementKernel::RackAware,
    PlacementKernel::Delay { rounds: 3 },
    PlacementKernel::CapacityWeighted,
];

/// Where a chaos run executes: with its seed, everything needed to
/// replay it.
#[derive(Clone, Copy, Debug, Default)]
struct Leg {
    executor: ExecutorConfig,
    kernel: PlacementKernel,
    slots: SlotConfig,
}

impl Leg {
    fn label(&self) -> String {
        let workers = match self.executor.workers {
            0 => "auto".to_string(),
            workers => workers.to_string(),
        };
        format!(
            "workers {workers}, kernel {}, slots {}-{}",
            self.kernel.label(),
            self.slots.map,
            self.slots.reduce
        )
    }

    /// The one-line repro a failing chaos run prints.
    fn repro(&self, seed: u64) -> String {
        format!("seed {seed}, {}", self.label())
    }
}

/// Every pool size under every kernel, at slots 1-1.
fn legs() -> impl Iterator<Item = Leg> {
    pool_sizes().into_iter().flat_map(|executor| {
        KERNELS.map(|kernel| Leg {
            executor,
            kernel,
            slots: SlotConfig::ONE_ONE,
        })
    })
}

/// Runs `test` on every leg; a failing leg prints its label.
fn on_every_leg(test: impl Fn(Leg)) {
    for leg in legs() {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(leg)));
        if let Err(panic) = run {
            eprintln!("failing leg: {}", leg.label());
            std::panic::resume_unwind(panic);
        }
    }
}

fn cluster_on(leg: Leg, chain_cache: ChainCacheConfig) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: leg.slots,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: leg.executor,
        shuffle: Default::default(),
        retry: Default::default(),
        placement: leg.kernel,
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

/// The fault-free, cache-off chain's output digest, which every test
/// below compares against; computed once per test binary.
fn golden_once() -> &'static OutputDigest {
    static GOLDEN: std::sync::OnceLock<OutputDigest> = std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let cl = cluster_on(Leg::default(), ChainCacheConfig::default());
        let chain = setup(&cl);
        ChainDriver::new(&cl, Strategy::rcmp_no_split())
            .run(&chain.jobs)
            .unwrap();
        digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0
    })
}

/// (kill, other-fault) probabilities of the full-shape chaos mix:
/// kills, corruption, torn writes and flakes.
const FULL_SHAPE: (f64, f64) = (0.08, 0.25);
/// The fail-stop mix: kills only.
const CRASH_ONLY: (f64, f64) = (0.3, 0.0);

fn chaos(chaos_seed: u64, (kill_prob, fault_prob): (f64, f64)) -> Arc<RandomizedInjector> {
    Arc::new(
        RandomizedInjector::new(chaos_seed, NODES)
            .kill_probability(kill_prob)
            .fault_probability(fault_prob)
            .max_kills(2)
            .max_other_faults(6),
    )
}

/// The typed errors a chaos run may legitimately end in.
fn typed_chaos_error(e: &Error) -> bool {
    match e {
        // The budget surfaced a typed error instead of livelocking.
        Error::RecoveryExhausted { .. } => true,
        // Corruption demotes replicas like losses, so kills plus
        // corruption can destroy every replica of an external-input
        // block — unrecoverable by recomputation, and correctly
        // surfaced as typed loss.
        Error::DataLoss { path, .. } => path == "input",
        _ => false,
    }
}

/// How one chaos run ended: the golden digest with its recovery event
/// sequence, or a typed error. Any other ending fails the calling test
/// with `repro`.
fn chaos_outcome(
    result: rcmp::model::Result<rcmp::core::ChainOutcome>,
    cl: &Cluster,
    chain: &rcmp::workloads::ChainSpec,
    repro: &str,
) -> std::result::Result<(String, Option<EventLog>), String> {
    match result {
        Ok(outcome) => {
            let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                .unwrap()
                .0;
            if digest != *golden_once() {
                return Err(format!("{repro}: converged on the wrong output"));
            }
            Ok(("golden".to_string(), Some(outcome.events)))
        }
        Err(e) if typed_chaos_error(&e) => Ok((format!("failed: {e}"), None)),
        Err(e) => Err(format!(
            "{repro}: expected golden or a typed error, got {e}"
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 60,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// ≥50 randomized fault schedules over the 7-job chain, each on a
    /// pool size and kernel drawn with it: every one ends in
    /// golden-digest success or a typed recovery error.
    #[test]
    fn chaos_schedule_converges_or_fails_typed(
        chaos_seed in 0u64..1_000_000,
        pool in 0usize..3,
        kernel in 0usize..4,
    ) {
        let leg = Leg {
            executor: pool_sizes()[pool],
            kernel: KERNELS[kernel],
            slots: SlotConfig::ONE_ONE,
        };
        let cl = cluster_on(leg, ChainCacheConfig::default());
        let chain = setup(&cl);
        let result = ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(chaos(chaos_seed, FULL_SHAPE))
            .run(&chain.jobs);
        if let Err(msg) = chaos_outcome(result, &cl, &chain, &leg.repro(chaos_seed)) {
            return Err(TestCaseError::fail(msg));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 60,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The cached chain under chaos (ISSUE 10): 60 randomized fault
    /// schedules over the 7-job chain with the inter-job cache on and
    /// the `stable` kernel routing mappers to cached partitions, each
    /// on a pool size drawn with it. The binary contract is unchanged
    /// from the cache-off soak — exact golden digest or a typed
    /// recovery error — because kills, drains and corruption all
    /// invalidate cached partitions and fall back to the persisted DFS
    /// path.
    #[test]
    fn cached_chaos_schedule_converges_or_fails_typed(
        chaos_seed in 0u64..1_000_000,
        pool in 0usize..3,
    ) {
        let leg = Leg {
            executor: pool_sizes()[pool],
            kernel: PlacementKernel::Stable,
            slots: SlotConfig::ONE_ONE,
        };
        let cl = cluster_on(leg, ChainCacheConfig::enabled(ByteSize::mib(64)));
        let chain = setup(&cl);
        let result = ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(chaos(chaos_seed, FULL_SHAPE))
            .run(&chain.jobs);
        if let Err(msg) = chaos_outcome(result, &cl, &chain, &leg.repro(chaos_seed)) {
            return Err(TestCaseError::fail(msg));
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
    for executor in pool_sizes() {
        let cl = cluster_on(
            Leg {
                executor,
                kernel: PlacementKernel::Stable,
                slots: SlotConfig::ONE_ONE,
            },
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
            "{executor:?}: a sub-partition budget must never admit, hence never hit"
        );
        assert!(
            snap.counter("cache.spills").unwrap_or(0) > 0,
            "{executor:?}: every commit must be recorded as a spill"
        );
        let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0;
        assert_eq!(
            &digest, expected,
            "{executor:?}: spill-through changed the output"
        );
    }
}

/// Runs the 7-job chain once on `leg` under a randomized fault
/// schedule. Returns how it ended (with its recovery event sequence)
/// and the fault classes the schedule raised; panics with the run's
/// repro line on any ending other than golden or a typed error.
fn chaos_replay(
    leg: Leg,
    chaos_seed: u64,
    mix: (f64, f64),
) -> ((String, Option<EventLog>), BTreeSet<String>) {
    let cl = cluster_on(leg, ChainCacheConfig::default());
    let chain = setup(&cl);
    let result = ChainDriver::new(&cl, Strategy::rcmp_split(3))
        .with_injector(chaos(chaos_seed, mix))
        .run(&chain.jobs);
    let outcome = chaos_outcome(result, &cl, &chain, &leg.repro(chaos_seed))
        .unwrap_or_else(|msg| panic!("{msg}"));
    let fired = cl
        .tracer()
        .snapshot()
        .spans()
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::Fault { kind, .. } => Some(format!("{kind:?}")),
            _ => None,
        })
        .collect();
    (outcome, fired)
}

/// One replay guarantee: faults commit at the wave boundary, so a
/// chaos schedule replays byte-identically at any worker count. For
/// both fault mixes — crash-only, and the full shape with corruption,
/// torn writes and shuffle flakes — and under every placement kernel at
/// both slot shapes, the pool at auto, 1 and 2 workers ends each seed
/// with the same outcome and the same recovery event sequence, and
/// every run ends golden or with a typed error. The seeds include every
/// one that raced when partial faults still committed inside tasks.
#[test]
fn every_backend_replays_chaos_identically() {
    const SEEDS: [u64; 8] = [
        11, 4096, 777_777, 24_757, 119_785, 127_704, 175_218, 214_813,
    ];
    let mut fired = BTreeSet::new();
    for mix in [CRASH_ONLY, FULL_SHAPE] {
        for slots in [SlotConfig::ONE_ONE, SlotConfig::TWO_TWO] {
            for kernel in KERNELS {
                for seed in SEEDS {
                    let mut first: Option<(Leg, (String, Option<EventLog>))> = None;
                    for executor in pool_sizes() {
                        let leg = Leg {
                            executor,
                            kernel,
                            slots,
                        };
                        let (outcome, kinds) = chaos_replay(leg, seed, mix);
                        fired.extend(kinds);
                        match &first {
                            None => first = Some((leg, outcome)),
                            Some((base, expected)) => assert_eq!(
                                &outcome,
                                expected,
                                "{} diverged from {}",
                                leg.repro(seed),
                                base.repro(seed)
                            ),
                        }
                    }
                }
            }
        }
    }
    // Every fault class fired somewhere, so the property still has its
    // teeth.
    let classes = [
        FaultKind::NodeCrash,
        FaultKind::CorruptReplica,
        FaultKind::TornWrite,
        FaultKind::ShuffleFlake,
    ];
    for class in classes {
        assert!(
            fired.contains(&format!("{class:?}")),
            "no seed raised a {class:?}: the replay property lost its teeth"
        );
    }
}

/// Pool determinism under the paper's fail-stop failure model, at the
/// default kernel and slots: with a crash-only chaos schedule the pool
/// at auto, 1 and 2 workers drives the 7-job chain through identical
/// recovery event sequences — every loss, recovery plan and recompute
/// run in the same order — and every seed kills at least one node.
#[test]
fn backends_replay_identical_recovery_sequences() {
    for seed in [11u64, 4096, 777_777] {
        let mut first: Option<(Leg, (String, Option<EventLog>))> = None;
        for executor in pool_sizes() {
            let leg = Leg {
                executor,
                ..Leg::default()
            };
            let (outcome, fired) = chaos_replay(leg, seed, CRASH_ONLY);
            assert!(
                fired.contains(&format!("{:?}", FaultKind::NodeCrash)),
                "{}: schedule injected no kills — test lost its teeth",
                leg.repro(seed)
            );
            match &first {
                None => first = Some((leg, outcome)),
                Some((base, expected)) => assert_eq!(
                    &outcome,
                    expected,
                    "{} diverged from {}",
                    leg.repro(seed),
                    base.repro(seed)
                ),
            }
        }
    }
}

/// Every block's replicas, keyed by its position — file, partition,
/// segment (in split order) and index in the segment — never by block
/// id, which concurrent writers draw in a race.
type ReplicaLayout = BTreeMap<(String, u32, usize, usize), Vec<NodeId>>;

fn replica_layout(cl: &Cluster, chain: &rcmp::workloads::ChainSpec) -> ReplicaLayout {
    let mut layout = ReplicaLayout::new();
    let files = std::iter::once("input").chain(chain.jobs.iter().map(|j| j.output.as_str()));
    for file in files {
        let Ok(meta) = cl.dfs().file_meta(file) else {
            continue;
        };
        for p in &meta.partitions {
            for (s, segment) in p.segments.iter().enumerate() {
                for (i, block) in segment.blocks.iter().enumerate() {
                    let at = (file.to_string(), p.id.raw(), s, i);
                    layout.insert(at, block.replicas.clone());
                }
            }
        }
    }
    layout
}

/// Replay covers replica sets: every copy's target is a function of
/// its block's position, not of the order concurrent writers finish.
/// Under crash-only chaos at the default kernel, for outputs written
/// with two replicas (REPL-2), raised to two at replication points
/// (hybrid every 2 jobs) and scattered by the spread-output mitigation
/// (RCMP), the pool at auto, 1 and 2 workers ends each seed with the
/// same outcome, the same event log and the same replicas for every
/// block. Every seed kills a node, and plans a recovery where the
/// strategy recomputes.
#[test]
fn every_backend_replays_replica_sets_identically() {
    let hybrid = Strategy::Hybrid {
        split: SplitPolicy::None,
        every_k: 2,
        factor: 2,
        reclaim: false,
    };
    let spread = Strategy::Rcmp {
        split: SplitPolicy::None,
        hotspot: HotspotMitigation::SpreadOutput,
    };
    for strategy in [Strategy::Replication { factor: 2 }, hybrid, spread] {
        for seed in [2u64, 31, 47] {
            let mut first = None;
            for executor in pool_sizes() {
                let leg = Leg {
                    executor,
                    ..Leg::default()
                };
                let repro = format!("{strategy:?}, {}", leg.repro(seed));
                let cl = cluster_on(leg, ChainCacheConfig::default());
                let chain = setup(&cl);
                let result = ChainDriver::new(&cl, strategy)
                    .with_injector(chaos(seed, CRASH_ONLY))
                    .run(&chain.jobs);
                let outcome = chaos_outcome(result, &cl, &chain, &repro)
                    .unwrap_or_else(|msg| panic!("{msg}"));
                let killed = cl.schedulable_nodes().len() < NODES as usize;
                let recovered = outcome
                    .1
                    .as_ref()
                    .is_some_and(|e| e.recoveries().count() > 0);
                assert!(
                    killed && (recovered || strategy.recovery().is_none()),
                    "{repro}: no kill or no recovery, the test lost its teeth"
                );
                let run = (outcome, replica_layout(&cl, &chain));
                match &first {
                    None => first = Some((repro, run)),
                    Some((base, expected)) => {
                        assert!(&run == expected, "{repro} diverged from {base}")
                    }
                }
            }
        }
    }
}

/// The serial pool (`async_workers(1)`) replays full-shape chaos —
/// torn writes, shuffle flakes, replica corruption — exactly: two runs
/// of the same seed end with the same outcome and event sequence.
#[test]
fn serial_reactor_replays_full_chaos_exactly() {
    let leg = Leg {
        executor: ExecutorConfig::async_workers(1),
        ..Leg::default()
    };
    for seed in [11u64, 4096, 777_777] {
        let first = chaos_replay(leg, seed, FULL_SHAPE);
        let second = chaos_replay(leg, seed, FULL_SHAPE);
        assert_eq!(
            first,
            second,
            "{}: serial pool replay diverged",
            leg.repro(seed)
        );
    }
}

/// An armed shuffle flake belongs to the chain whose injector raised
/// it. Flakes armed after job 1's last reduce wave are never handed to
/// a reducer; they die with job 1's tracker instead of failing the
/// shuffles of a fresh tracker running job 2 — under the job service,
/// one tenant's chaos reaching a neighbour tenant.
#[test]
fn armed_flake_dies_with_its_tracker() {
    for executor in [ExecutorConfig::default(), ExecutorConfig::async_workers(1)] {
        let cl = Cluster::new(ClusterConfig {
            executor,
            ..ClusterConfig::small_test(3)
        });
        generate_input(cl.dfs(), &DataGenConfig::test("input", 3, 4_000)).unwrap();
        let chain = ChainBuilder::new(2, 3).build();
        let flaky = Arc::new(ScriptedInjector::single_fault(
            1,
            TriggerPoint::AfterReduceWave(0),
            Fault::ShuffleFlake {
                node: NodeId(0),
                times: 2,
            },
        ));
        JobTracker::new(&cl, flaky)
            .run(&JobRun::full(chain.job(1).clone()), 1)
            .unwrap();
        let transients = || {
            cl.metrics()
                .snapshot()
                .counter("tracker.shuffle_transient_failures")
                .unwrap_or(0)
        };
        let before = transients();
        JobTracker::new(&cl, Arc::new(NoFailures))
            .run(&JobRun::full(chain.job(2).clone()), 2)
            .unwrap();
        assert_eq!(
            transients(),
            before,
            "{executor:?}: job 1's armed flake failed another tracker's shuffle"
        );
    }
}

/// A corrupted replica under REPL-2 is caught by the block checksum on
/// read, demoted to a lost replica, and served from the survivor — the
/// chain output is exact and no recomputation is needed for it.
#[test]
fn corrupt_replica_under_repl2_recovers_from_survivor() {
    on_every_leg(|leg| {
        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
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
    });
}

/// Same fault under RCMP (replication 1): the corrupted block — the
/// most recently written one, a job output — has no surviving replica,
/// so the demotion makes the partition lost and the ordinary
/// recomputation path regenerates it. Output still exact.
#[test]
fn corrupt_replica_under_rcmp_recomputes() {
    on_every_leg(|leg| {
        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
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
    });
}

/// A torn write leaves a strict prefix of the partition's chunks
/// committed — a partition that can look healthy while silently missing
/// records. The tracker must detect it, clear the partition and
/// re-reduce; the final digest stays exact.
#[test]
fn torn_write_is_detected_and_repaired() {
    on_every_leg(|leg| {
        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
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
    });
}

/// Transient shuffle flakes within the retry budget are absorbed
/// without any recovery machinery kicking in.
#[test]
fn transient_shuffle_flakes_are_absorbed() {
    on_every_leg(|leg| {
        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
        let chain = setup(&cl);
        let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
        for (seq, node) in [(1u64, 0u32), (3, 2), (5, 4)] {
            injector.add(FailureAt {
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
    });
}

/// A node whose shuffle path never stops failing exhausts the per-task
/// retry budget: the run ends in `RecoveryExhausted`, not a livelock.
#[test]
fn permanent_shuffle_flake_exhausts_retry_budget() {
    on_every_leg(|leg| {
        let cl = Cluster::new(ClusterConfig {
            nodes: 1,
            slots: SlotConfig::ONE_ONE,
            block_size: rcmp::model::ByteSize::kib(4),
            max_recovery_attempts: 100,
            executor: leg.executor,
            shuffle: Default::default(),
            retry: Default::default(),
            placement: leg.kernel,
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
    });
}

/// Even a run that dies with a typed recovery error leaves a complete
/// fault record in the trace: every injected fault has its span, with
/// the right kind, because the tracer lives on the cluster and survives
/// the error path.
#[test]
fn failed_run_traces_every_injected_fault() {
    on_every_leg(|leg| {
        let cl = Cluster::new(ClusterConfig {
            nodes: 1,
            slots: SlotConfig::ONE_ONE,
            block_size: rcmp::model::ByteSize::kib(4),
            max_recovery_attempts: 100,
            executor: leg.executor,
            shuffle: Default::default(),
            retry: Default::default(),
            placement: leg.kernel,
            chain_cache: Default::default(),
            seed: 23,
        });
        let mut gen = DataGenConfig::test("input", 1, 4_000);
        gen.replication = 1;
        generate_input(cl.dfs(), &gen).unwrap();
        let chain = ChainBuilder::new(1, 1).build();
        let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
        injector.add(FailureAt {
            seq: 1,
            point: TriggerPoint::JobStart,
            fault: Fault::ShuffleFlake {
                node: NodeId(0),
                times: u32::MAX,
            },
        });
        injector.add(FailureAt {
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
    });
}

/// When every replica of an input partition dies and the strategy can
/// only restart, the chain-restart budget surfaces `RecoveryExhausted`
/// instead of restarting forever.
#[test]
fn unrecoverable_input_exhausts_chain_restart_budget() {
    on_every_leg(|leg| {
        let cl = Cluster::new(ClusterConfig {
            nodes: NODES,
            slots: SlotConfig::ONE_ONE,
            block_size: rcmp::model::ByteSize::kib(4),
            max_recovery_attempts: 3,
            executor: leg.executor,
            shuffle: Default::default(),
            retry: Default::default(),
            placement: leg.kernel,
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
            injector.add(FailureAt {
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
    });
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
    let unfired = injector.unfired();
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
    on_every_leg(|leg| {
        use rcmp::core::SplitPolicy;
        use rcmp::policy::AdaptConfig;

        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
        let chain = setup(&cl);
        let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
        injector.add(FailureAt {
            seq: 2,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(NodeId(1)),
        });
        injector.add(FailureAt {
            seq: 4,
            point: TriggerPoint::JobStart,
            fault: Fault::ShuffleFlake {
                node: NodeId(0),
                times: 2,
            },
        });
        injector.add(FailureAt {
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
    });
}

/// Elastic membership under chaos (ISSUE 8): a node crash forces
/// recomputation, and a scripted `NodeDrain` lands on the recovery
/// run while it is in flight. The drained node stops taking tasks but
/// keeps serving its replicas, so the chain still converges to the
/// exact golden digest — and the node ends the run `Draining`, not
/// dead.
#[test]
fn drain_during_recompute_converges_to_golden() {
    on_every_leg(|leg| {
        use rcmp::policy::NodeStatus;

        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
        let chain = setup(&cl);
        let injector = Arc::new(ScriptedInjector::default());
        // Seq 2 (job 2) dies at start → seq 3 is the recomputation of job
        // 1's lost partitions. Drain node 2 after that run's first map
        // wave: the strict injector check proves the drain really fired
        // mid-recompute.
        injector.add(FailureAt {
            seq: 2,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(NodeId(1)),
        });
        injector.add(FailureAt {
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
    });
}

/// Randomized chaos with graceful drains mixed in (`with_drains`): the
/// binary contract holds — golden digest or a typed recovery error.
#[test]
fn drain_chaos_converges_or_fails_typed() {
    on_every_leg(|leg| {
        for chaos_seed in [7u64, 1234, 99_999, 424_242] {
            let cl = cluster_on(leg, ChainCacheConfig::default());
            let chain = setup(&cl);
            let injector = Arc::new(
                RandomizedInjector::new(chaos_seed, NODES)
                    .kill_probability(0.08)
                    .fault_probability(0.3)
                    .max_kills(1)
                    .max_other_faults(6)
                    .with_drains(),
            );
            let result = ChainDriver::new(&cl, Strategy::rcmp_split(3))
                .with_injector(injector)
                .run(&chain.jobs);
            let repro = leg.repro(chaos_seed);
            chaos_outcome(result, &cl, &chain, &repro).unwrap_or_else(|msg| panic!("{msg}"));
        }
    });
}

/// Acceptance gate (ISSUE 8): all four placement kernels drive the
/// chaos-injected 7-job chain — a kill, transient flakes and a replica
/// corruption — to the same golden digest. Placement moves tasks;
/// contents must not move with them.
#[test]
fn every_placement_kernel_converges_chaos_chain_to_golden() {
    let expected = *golden_once();
    let kernels = [
        PlacementKernel::Default,
        PlacementKernel::RackAware,
        PlacementKernel::Delay { rounds: 2 },
        PlacementKernel::CapacityWeighted,
    ];
    let legs = pool_sizes().into_iter().flat_map(|executor| {
        kernels.map(|kernel| Leg {
            executor,
            kernel,
            slots: SlotConfig::ONE_ONE,
        })
    });
    for leg in legs {
        let cl = cluster_on(leg, ChainCacheConfig::default());
        let chain = setup(&cl);
        let injector = Arc::new(ScriptedInjector::default().tolerate_unfired());
        injector.add(FailureAt {
            seq: 2,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(NodeId(1)),
        });
        injector.add(FailureAt {
            seq: 4,
            point: TriggerPoint::JobStart,
            fault: Fault::ShuffleFlake {
                node: NodeId(0),
                times: 2,
            },
        });
        injector.add(FailureAt {
            seq: 5,
            point: TriggerPoint::JobStart,
            fault: Fault::CorruptReplica { node: NodeId(3) },
        });
        let outcome = ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(injector)
            .run(&chain.jobs)
            .unwrap_or_else(|e| panic!("{} died with {e}", leg.label()));
        assert!(
            outcome.jobs_started > JOBS as u64,
            "{}: the crash must force recovery runs",
            leg.label()
        );
        let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0;
        assert_eq!(digest, expected, "{} diverged from golden", leg.label());
    }
}

/// Decommission after a completed chain: the incremental rebalance
/// re-homes every replica the leaver held, so the persisted outputs —
/// and their lineage — survive byte-exact with the node gone.
#[test]
fn decommission_preserves_chain_output() {
    on_every_leg(|leg| {
        let expected = *golden_once();
        let cl = cluster_on(leg, ChainCacheConfig::default());
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
    });
}

/// The driver's strict end-of-chain injector check: a scripted trigger
/// that never fires fails the run loudly instead of silently testing
/// nothing.
#[test]
fn unfired_scripted_trigger_fails_the_run() {
    on_every_leg(|leg| {
        let cl = cluster_on(leg, ChainCacheConfig::default());
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
    });
}
