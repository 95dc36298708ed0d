//! Multi-tenant job-service behaviour: admission backpressure,
//! fair-share scheduling, cross-tenant digest isolation under chaos,
//! and the 60-seed serve soak (every admitted chain converges to its
//! golden digest or a typed error; no tenant's faults corrupt another
//! tenant's bytes).
//!
//! Every test that builds a cluster runs on both [`executors`]: the
//! service builds a per-chain reactor only when the cluster's backend
//! is async.

use proptest::prelude::*;
use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::{Cluster, FailureAt, Fault, ScriptedInjector, TriggerPoint};
use rcmp::model::rng::derive_indexed;
use rcmp::model::{ClusterConfig, Error, ExecutorConfig, NodeId, ServeConfig, TenantId};
use rcmp::obs::tenant_view;
use rcmp::policy::{DrrArbiter, TenantShare};
use rcmp::serve::soak::{run_scenario, SoakScenario, TenantLoad};
use rcmp::serve::{ChainRequest, JobService};
use rcmp::workloads::checksum::{digest_file, OutputDigest};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;
use std::sync::OnceLock;

/// The cluster backends every test runs on: thread-per-slot, and the
/// serial reactor, under which each chain gets its own reactor session.
fn executors() -> [ExecutorConfig; 2] {
    [ExecutorConfig::default(), ExecutorConfig::async_workers(1)]
}

fn test_config(nodes: u32, executor: ExecutorConfig) -> ClusterConfig {
    let mut cfg = ClusterConfig::small_test(nodes);
    cfg.executor = executor;
    cfg
}

const NODES: u32 = 6;
const PARTITIONS: u32 = 4;
const BYTES: u64 = 20_000;

fn make_input(cluster: &Cluster) {
    generate_input(
        cluster.dfs(),
        &DataGenConfig::test("input", PARTITIONS, BYTES),
    )
    .expect("input generation");
}

/// Golden digest of a `jobs`-job chain run solo on a pristine cluster.
fn solo_golden(jobs: u32) -> OutputDigest {
    let cluster = Cluster::new(test_config(NODES, ExecutorConfig::default()));
    make_input(&cluster);
    let chain = ChainBuilder::new(jobs, PARTITIONS).input("input").build();
    ChainDriver::new(&cluster, Strategy::rcmp_split(3))
        .run(&chain.jobs)
        .expect("solo chain converges");
    let reader = cluster.live_nodes()[0];
    digest_file(cluster.dfs(), chain.final_output(), reader)
        .expect("solo digest")
        .0
}

/// Two concurrent tenants, transient chaos (no node deaths) scripted on
/// tenant 0's chain, beside a tenant 1 that writes two replicas (REPL-2):
/// tenant 1's output must be byte-identical to its solo run, and tenant 0
/// must still converge via recomputation.
#[test]
fn chaos_on_one_tenant_leaves_a_replicated_neighbour_golden() {
    let golden = solo_golden(2);
    for executor in executors() {
        let cluster = Arc::new(Cluster::new(test_config(NODES, executor)));
        make_input(&cluster);
        let service = JobService::new(
            Arc::clone(&cluster),
            ServeConfig {
                queue_depth: 4,
                max_concurrent_chains: 2,
                worker_budget: 4,
                workers_per_chain: 2,
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        let (t0, t1) = (TenantId(0), TenantId(1));
        service.register_tenant(t0, TenantShare::minimal());
        service.register_tenant(t1, TenantShare::minimal());

        // Transient faults only: corruption and a shuffle flake recover via
        // recomputation without changing cluster membership. The corruption
        // hits the most recently written file on node 1, which can be
        // tenant 1's when its chain got there first; tenant 1 writes two replicas, so the corrupt
        // one is demoted and every verified read falls back to the other.
        // (A job's output is written with its strategy's replication
        // factor, whatever the chain spec says.)
        let injector = ScriptedInjector::default().tolerate_unfired();
        injector.add(FailureAt {
            seq: 1,
            point: TriggerPoint::AfterMapWave(0),
            fault: Fault::CorruptReplica { node: NodeId(1) },
        });
        injector.add(FailureAt {
            seq: 2,
            point: TriggerPoint::MidReduceWave(0),
            fault: Fault::ShuffleFlake {
                node: NodeId(2),
                times: 1,
            },
        });

        let chain0 = ChainBuilder::new(2, PARTITIONS)
            .input("input")
            .namespace("t0/c0/", 100)
            .build();
        let chain1 = ChainBuilder::new(2, PARTITIONS)
            .input("input")
            .namespace("t1/c0/", 200)
            .build();
        let ticket0 = service
            .submit(
                ChainRequest::new(t0, chain0.jobs.clone(), Strategy::rcmp_split(3))
                    .with_label("t0/c0")
                    .with_injector(Arc::new(injector)),
            )
            .expect("t0 admitted");
        let ticket1 = service
            .submit(
                ChainRequest::new(t1, chain1.jobs.clone(), Strategy::Replication { factor: 2 })
                    .with_label("t1/c0"),
            )
            .expect("t1 admitted");

        let r0 = ticket0.wait().expect("t0 resolves");
        let r1 = ticket1.wait().expect("t1 resolves");
        r0.outcome.expect("transient chaos is recoverable");
        r1.outcome.expect("undisturbed tenant completes");

        let reader = cluster.live_nodes()[0];
        let (d1, _) = digest_file(cluster.dfs(), chain1.final_output(), reader).expect("t1 digest");
        assert_eq!(
            d1, golden,
            "{executor:?}: tenant 1's bytes diverged from its solo run under tenant 0's chaos"
        );
        let (d0, _) = digest_file(cluster.dfs(), chain0.final_output(), reader).expect("t0 digest");
        assert_eq!(
            d0, golden,
            "{executor:?}: tenant 0's recomputed bytes diverged"
        );

        // Per-tenant observability: the trace filters cleanly by tenant.
        let trace = cluster.tracer().snapshot();
        for (tenant, other) in [(t0, t1), (t1, t0)] {
            let view = tenant_view(&trace, tenant);
            assert!(
                !view.spans.is_empty(),
                "tenant {tenant} ran jobs, its view must not be empty"
            );
            let other_view = tenant_view(&view, other);
            assert!(
                other_view.spans.is_empty(),
                "tenant views must be disjoint: {tenant} view contained {other} runs"
            );
        }
    }
}

/// Golden digest for the 2-job chain, computed once for the proptest.
fn golden_2job() -> OutputDigest {
    static GOLDEN: OnceLock<OutputDigest> = OnceLock::new();
    *GOLDEN.get_or_init(|| solo_golden(2))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// Property: whatever transient fault schedule the seed derives for
    /// tenant 0's chain, tenant 1 — served concurrently on the same
    /// cluster — never silently diverges from its solo run. Shuffle
    /// flakes touch no storage, so flake-only schedules must leave both
    /// tenants converged and byte-golden. Replica corruption lands on a
    /// *node*, and on shared disks that node may hold the neighbour's
    /// blocks — the checksum then surfaces a typed loss on read. Wrong
    /// bytes behind a clean read are never acceptable.
    #[test]
    fn prop_chaos_tenant_never_perturbs_neighbor_bytes(chaos_seed in 0u64..1_000_000) {
        let golden = golden_2job();

        for executor in executors() {
            let cluster = Arc::new(Cluster::new(test_config(NODES, executor)));
            make_input(&cluster);
            let service = JobService::new(
                Arc::clone(&cluster),
                ServeConfig {
                    queue_depth: 4,
                    max_concurrent_chains: 2,
                    worker_budget: 4,
                    workers_per_chain: 2,
                    ..ServeConfig::default()
                },
            )
            .expect("service starts");
            let (t0, t1) = (TenantId(0), TenantId(1));
            service.register_tenant(t0, TenantShare::minimal());
            service.register_tenant(t1, TenantShare::minimal());

            // 1–3 seed-derived transient faults on tenant 0's chain. Some
            // derived (seq, point) pairs may not fire on a given schedule;
            // that only weakens the fault load, never the property.
            let injector = ScriptedInjector::default().tolerate_unfired();
            let mut corruption = false;
            let faults = 1 + chaos_seed % 3;
            for k in 0..faults {
                let node = NodeId((derive_indexed(chaos_seed, "node", k) % u64::from(NODES)) as u32);
                let point = match derive_indexed(chaos_seed, "point", k) % 4 {
                    0 => TriggerPoint::JobStart,
                    1 => TriggerPoint::MidMapWave(0),
                    2 => TriggerPoint::AfterMapWave(0),
                    _ => TriggerPoint::MidReduceWave(0),
                };
                let fault = if derive_indexed(chaos_seed, "kind", k).is_multiple_of(2) {
                    corruption = true;
                    Fault::CorruptReplica { node }
                } else {
                    Fault::ShuffleFlake { node, times: 1 }
                };
                injector.add(FailureAt {
                    seq: 1 + derive_indexed(chaos_seed, "seq", k) % 2,
                    point,
                    fault,
                });
            }

            let chain0 = ChainBuilder::new(2, PARTITIONS)
                .input("input")
                .namespace("t0/c0/", 100)
                .build();
            let chain1 = ChainBuilder::new(2, PARTITIONS)
                .input("input")
                .namespace("t1/c0/", 200)
                .build();
            let ticket0 = service
                .submit(
                    ChainRequest::new(t0, chain0.jobs.clone(), Strategy::rcmp_split(3))
                        .with_label("t0/c0")
                        .with_injector(Arc::new(injector)),
                )
                .expect("t0 admitted");
            let ticket1 = service
                .submit(
                    ChainRequest::new(t1, chain1.jobs.clone(), Strategy::rcmp_split(3))
                        .with_label("t1/c0"),
                )
                .expect("t1 admitted");

            let r0 = ticket0.wait().expect("t0 resolves");
            let r1 = ticket1.wait().expect("t1 resolves");
            prop_assert!(r0.outcome.is_ok(), "seed {} on {:?}: transient chaos must recover", chaos_seed, executor);
            prop_assert!(r1.outcome.is_ok(), "seed {} on {:?}: undisturbed tenant must complete", chaos_seed, executor);

            let reader = cluster.live_nodes()[0];
            for (who, chain) in [("t0", &chain0), ("t1", &chain1)] {
                match digest_file(cluster.dfs(), chain.final_output(), reader) {
                    Ok((d, _)) => prop_assert_eq!(
                        &d, &golden,
                        "seed {} on {:?}: {}'s bytes silently diverged from golden", chaos_seed, executor, who
                    ),
                    Err(Error::DataLoss { .. }) if corruption => {
                        // A corruption landed on this tenant's only output
                        // replica after its chain completed: the checksum
                        // detected it and the read failed typed. Detected
                        // loss, never silent divergence.
                    }
                    Err(e) => prop_assert!(
                        false,
                        "seed {} on {:?}: {} digest read failed unexpectedly: {}", chaos_seed, executor, who, e
                    ),
                }
            }
        }
    }
}

/// Over-offering a queue of depth 1 must produce the typed rejection
/// with a bounded seeded retry-after hint; unknown tenants are refused
/// outright (retrying cannot help them).
#[test]
fn admission_rejects_with_retry_hint_when_queue_overflows() {
    for executor in executors() {
        let cluster = Arc::new(Cluster::new(test_config(4, executor)));
        make_input(&cluster);
        let cfg = ServeConfig {
            queue_depth: 1,
            max_concurrent_chains: 1,
            worker_budget: 2,
            workers_per_chain: 1,
            ..ServeConfig::default()
        };
        let service = JobService::new(Arc::clone(&cluster), cfg).expect("service starts");
        let tenant = TenantId(7);
        service.register_tenant(tenant, TenantShare::minimal());

        match service.submit(ChainRequest::new(
            TenantId(99),
            ChainBuilder::new(1, PARTITIONS).input("input").build().jobs,
            Strategy::rcmp_split(3),
        )) {
            Err(Error::Config(msg)) => assert!(msg.contains("not registered"), "got: {msg}"),
            Err(e) => panic!("unknown tenant must be refused with Config, got {e}"),
            Ok(_) => panic!("unknown tenant must be refused"),
        }

        let mut tickets = Vec::new();
        let mut rejections = 0u32;
        for i in 0..8u32 {
            let chain = ChainBuilder::new(1, PARTITIONS)
                .input("input")
                .namespace(format!("t7/c{i}/"), 100 + i * 10)
                .build();
            match service.submit(
                ChainRequest::new(tenant, chain.jobs, Strategy::rcmp_split(3))
                    .with_label(format!("t7/c{i}")),
            ) {
                Ok(t) => tickets.push(t),
                Err(Error::AdmissionRejected {
                    tenant: rejected_tenant,
                    retry_after_ms,
                }) => {
                    assert_eq!(rejected_tenant, tenant);
                    assert!(
                        retry_after_ms <= cfg.retry.max_backoff_ms,
                        "hint {retry_after_ms} exceeds the backoff ceiling"
                    );
                    rejections += 1;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(
            rejections > 0,
            "{executor:?}: 8 instant submissions against a depth-1 queue must overflow"
        );
        // The hint is the deterministic seeded schedule: recompute it.
        let expected_first = cfg.retry.backoff_ms(
            derive_indexed(cfg.seed, "admission", u64::from(tenant.raw())),
            1,
        );
        assert!(expected_first <= cfg.retry.max_backoff_ms);
        for t in tickets {
            t.wait()
                .expect("admitted chain resolves")
                .outcome
                .expect("no faults injected");
        }

        let snapshot = cluster.metrics().snapshot();
        assert!(
            snapshot.counter("serve.admitted").unwrap_or(0) >= 1,
            "serve.admitted must be published"
        );
        assert_eq!(
            snapshot.counter("serve.rejected"),
            Some(u64::from(rejections)),
            "{executor:?}: serve.rejected must count every overflow"
        );
    }
}

/// Bounded-wait proof over 64 seeded schedules: however heavy and
/// however costly the competing tenants' queues, a minimal-quota
/// tenant's first chain is granted within a fixed number of grants.
#[test]
fn fair_share_never_starves_minimal_tenant_64_schedules() {
    for seed in 0..64u64 {
        let mut arbiter = DrrArbiter::new(4);
        let minimal = TenantId(0);
        arbiter.register(minimal, TenantShare::minimal());
        // Two heavy tenants with seed-derived weights and chain costs.
        for t in 1..=2u32 {
            let weight = 1 + (derive_indexed(seed, "weight", u64::from(t)) % 8) as u32;
            arbiter.register(
                TenantId(t),
                TenantShare {
                    weight,
                    max_in_flight: 4,
                },
            );
            for c in 0..32u64 {
                let cost = 1 + derive_indexed(seed, "cost", u64::from(t) * 100 + c) % 8;
                assert!(arbiter.enqueue(TenantId(t), u64::from(t) * 1000 + c, cost));
            }
        }
        // The minimal tenant asks for one max-cost chain.
        assert!(arbiter.enqueue(minimal, 1, 8));

        let mut grants_before = 0u32;
        let mut granted = false;
        'wait: for _round in 0..64 {
            let grants = arbiter.next_grants(4);
            if grants.is_empty() {
                break;
            }
            for g in &grants {
                if g.tenant == minimal {
                    granted = true;
                    break 'wait;
                }
                grants_before += 1;
            }
            // Free every slot immediately: maximum competing pressure.
            for g in &grants {
                arbiter.complete(g.tenant);
            }
        }
        assert!(granted, "seed {seed}: minimal tenant never granted");
        assert!(
            grants_before <= 24,
            "seed {seed}: minimal tenant waited behind {grants_before} grants"
        );
    }
}

/// The balanced-quota scenario must be fair (Jain ≥ 0.9 over early
/// grants) with every digest verified golden.
#[test]
fn balanced_scenario_is_fair_and_byte_exact() {
    for executor in executors() {
        let report = run_scenario(&SoakScenario {
            executor,
            ..SoakScenario::balanced()
        })
        .expect("scenario runs");
        assert_eq!(
            report.failed, 0,
            "{executor:?}: no chaos: every chain completes"
        );
        assert_eq!(report.digest_mismatches, 0, "{executor:?}");
        assert_eq!(
            report.digests_verified, report.completed,
            "{executor:?}: every completed chain's output must be verifiable"
        );
        assert!(
            report.jain >= 0.9,
            "{executor:?}: balanced quotas must schedule fairly, Jain = {}",
            report.jain
        );
        assert!(
            report.rejected_submissions > 0,
            "{executor:?}: depth-2 queues under 18 round-robin submissions must exercise backpressure"
        );
    }
}

/// 60-seed serve soak: two tenants, seeded chaos on one. Every admitted
/// chain either converges to the golden digest or surfaces a typed
/// error, and no seed ever corrupts the chaos-free tenant's bytes.
#[test]
fn serve_soak_60_seeds_golden_or_typed() {
    for executor in executors() {
        for seed in 0..60u64 {
            let mut sc = SoakScenario::chaos(0x5eed_0000 + seed);
            sc.name = format!("soak-{seed}");
            sc.nodes = 6;
            sc.bytes_per_partition = 10_000;
            sc.executor = executor;
            sc.tenants = vec![
                TenantLoad {
                    tenant: TenantId(0),
                    share: TenantShare::minimal(),
                    chains: 2,
                    jobs_per_chain: 2,
                    chaos: true,
                },
                TenantLoad {
                    tenant: TenantId(1),
                    share: TenantShare::minimal(),
                    chains: 2,
                    jobs_per_chain: 2,
                    chaos: false,
                },
            ];
            // One line that replays a failing scenario.
            let repro = format!("seed {seed}, {executor:?}, default kernel, slots 1-1");
            let report = run_scenario(&sc).unwrap_or_else(|e| panic!("{repro}: {e}"));
            assert_eq!(
                report.digest_mismatches, 0,
                "{repro}: a recomputed chain diverged from golden"
            );
            assert_eq!(
                report.completed + report.failed,
                report.chains,
                "{repro}: every admitted chain must resolve"
            );
            // The chaos-free tenant may fail typed (shared nodes can die)
            // but must never produce wrong bytes — covered by the global
            // mismatch count, since every completed chain is digested.
        }
    }
}
