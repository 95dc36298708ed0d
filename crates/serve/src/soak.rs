//! Multi-tenant soak scenarios and the serve benchmark harness.
//!
//! A [`SoakScenario`] describes one service deployment — cluster size,
//! service limits, per-tenant load (chains, jobs per chain, share,
//! chaos) — and [`run_scenario`] drives it end to end:
//!
//! 1. compute the **golden digest** for each chain shape by running it
//!    solo on a pristine cluster (namespacing keeps digests invariant,
//!    so one solo run vouches for every tenant's copy);
//! 2. start a [`JobService`], register the tenants, and submit every
//!    chain round-robin across tenants (maximum contention), honouring
//!    [`Error::AdmissionRejected`] retry-after hints when a queue
//!    fills;
//! 3. wait for every ticket and verify each successful chain's final
//!    output byte-for-byte against its golden digest.
//!
//! The [`SoakReport`] carries throughput, p50/p99 latency, and Jain's
//! fairness index over *weight-normalised early grants*: of the first
//! half of arbiter grants, how many did each tenant get per unit of
//! weight. Grant order is a pure arbiter decision, so the index
//! measures the scheduler, not thread-timing noise.

use crate::{ChainRequest, ChainResult, ChainTicket, JobService};
use rcmp_core::{ChainDriver, Strategy};
use rcmp_engine::{Cluster, FailureInjector, RandomizedInjector};
use rcmp_model::{ClusterConfig, Error, ExecutorConfig, Result, ServeConfig, TenantId};
use rcmp_policy::{jain_index, TenantShare};
use rcmp_workloads::checksum::{digest_file, OutputDigest};
use rcmp_workloads::{generate_input, ChainBuilder, DataGenConfig};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One tenant's offered load in a scenario.
#[derive(Clone, Copy, Debug)]
pub struct TenantLoad {
    /// The tenant.
    pub tenant: TenantId,
    /// Fair-share weight and in-flight quota.
    pub share: TenantShare,
    /// Chains this tenant submits.
    pub chains: u32,
    /// Jobs per chain (the chain shape; also its golden-digest key).
    pub jobs_per_chain: u32,
    /// Whether this tenant's chains carry the scenario chaos injector.
    pub chaos: bool,
}

/// A full multi-tenant soak configuration.
#[derive(Clone, Debug)]
pub struct SoakScenario {
    /// Scenario name (report key, figure column).
    pub name: String,
    /// Cluster nodes.
    pub nodes: u32,
    /// Input partitions (also the reducer count of every chain job).
    pub partitions: u32,
    /// Input bytes per partition.
    pub bytes_per_partition: u64,
    /// Service limits.
    pub serve: ServeConfig,
    /// The tenants and their load.
    pub tenants: Vec<TenantLoad>,
    /// Seed for the shared chaos injector carried by `chaos` tenants'
    /// chains (`None` disables chaos).
    pub chaos_seed: Option<u64>,
    /// Wave-executor backend of the scenario's clusters. An async
    /// backend also gives every admitted chain its own reactor.
    pub executor: ExecutorConfig,
}

impl SoakScenario {
    fn base(name: &str, nodes: u32) -> Self {
        Self {
            name: name.to_string(),
            nodes,
            partitions: 4,
            bytes_per_partition: 20_000,
            // queue_depth 2 on purpose: round-robin submission overruns
            // it, exercising the AdmissionRejected retry-after path.
            serve: ServeConfig {
                queue_depth: 2,
                max_concurrent_chains: 3,
                worker_budget: 6,
                workers_per_chain: 2,
                ..ServeConfig::default()
            },
            tenants: Vec::new(),
            chaos_seed: None,
            executor: ExecutorConfig::default(),
        }
    }

    /// Three equal tenants, equal quotas, no chaos — the fairness-gate
    /// scenario (Jain over early grants must be ≥ 0.9).
    pub fn balanced() -> Self {
        let mut sc = Self::base("balanced", 6);
        sc.tenants = (0..3)
            .map(|t| TenantLoad {
                tenant: TenantId(t),
                share: TenantShare {
                    weight: 1,
                    max_in_flight: 1,
                },
                chains: 6,
                jobs_per_chain: 2,
                chaos: false,
            })
            .collect();
        sc
    }

    /// Weights 1/2/4 with matching quotas: the heavy tenant should see
    /// proportionally more early grants, not starve the light one.
    pub fn weighted() -> Self {
        let mut sc = Self::base("weighted", 6);
        sc.serve.max_concurrent_chains = 4;
        sc.tenants = [(0u32, 1u32, 4u32), (1, 2, 6), (2, 4, 8)]
            .into_iter()
            .map(|(t, weight, chains)| TenantLoad {
                tenant: TenantId(t),
                share: TenantShare {
                    weight,
                    max_in_flight: weight,
                },
                chains,
                jobs_per_chain: 2,
                chaos: false,
            })
            .collect();
        sc
    }

    /// Balanced quotas with seeded chaos on tenant 0's chains: the
    /// other tenants' digests must stay golden (or their chains end in
    /// a typed error) despite shared-cluster faults.
    pub fn chaos(seed: u64) -> Self {
        let mut sc = Self::base("chaos", 8);
        sc.chaos_seed = Some(seed);
        sc.tenants = (0..3)
            .map(|t| TenantLoad {
                tenant: TenantId(t),
                share: TenantShare {
                    weight: 1,
                    max_in_flight: 1,
                },
                chains: 4,
                jobs_per_chain: 2,
                chaos: t == 0,
            })
            .collect();
        sc
    }

    fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::small_test(self.nodes);
        cfg.executor = self.executor;
        cfg
    }
}

/// Per-tenant slice of a [`SoakReport`].
#[derive(Clone, Debug, Serialize)]
pub struct TenantReport {
    /// Tenant id (display form, e.g. `"t0"`).
    pub tenant: String,
    /// Fair-share weight.
    pub weight: u32,
    /// Chains that completed with a summary.
    pub completed: u32,
    /// Chains that ended in a typed error.
    pub failed: u32,
    /// Median submit → resolve latency, milliseconds.
    pub p50_ms: u64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: u64,
    /// Early grants (first half of the grant sequence) per unit of
    /// weight — the allocation Jain's index is computed over.
    pub early_grants_per_weight: f64,
}

/// The outcome of one soak scenario.
#[derive(Clone, Debug, Serialize)]
pub struct SoakReport {
    /// Scenario name.
    pub scenario: String,
    /// Chains submitted (and eventually admitted).
    pub chains: u32,
    /// Chains that completed with a summary.
    pub completed: u32,
    /// Chains that ended in a typed error (chaos scenarios only).
    pub failed: u32,
    /// Submissions rejected with `AdmissionRejected` before eventually
    /// being admitted on retry.
    pub rejected_submissions: u64,
    /// Wall-clock for the whole scenario, milliseconds.
    pub elapsed_ms: u64,
    /// Completed chains per second.
    pub throughput_cps: f64,
    /// Median chain latency, milliseconds.
    pub p50_ms: u64,
    /// 99th-percentile chain latency, milliseconds.
    pub p99_ms: u64,
    /// Jain's fairness index over weight-normalised early grants
    /// (1.0 = perfectly fair).
    pub jain: f64,
    /// Final outputs verified byte-identical to their golden digest.
    pub digests_verified: u32,
    /// Verified outputs that did NOT match golden — must be zero.
    pub digest_mismatches: u32,
    /// Outputs unverifiable because chaos later killed their replicas
    /// (never counts against correctness; replication is 1 under RCMP).
    pub digests_unavailable: u32,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantReport>,
}

/// Runs one chain shape solo on a pristine cluster and returns the
/// digest every tenant's copy must reproduce.
fn golden_digest(sc: &SoakScenario, jobs: u32) -> Result<OutputDigest> {
    let cluster = Cluster::new(sc.cluster_config());
    generate_input(
        cluster.dfs(),
        &DataGenConfig::test("input", sc.partitions, sc.bytes_per_partition),
    )?;
    let chain = ChainBuilder::new(jobs, sc.partitions)
        .input("input")
        .build();
    let driver = ChainDriver::new(&cluster, Strategy::rcmp_split(3));
    driver.run(&chain.jobs)?;
    let reader = cluster.live_nodes()[0];
    let (digest, _) = digest_file(cluster.dfs(), chain.final_output(), reader)?;
    Ok(digest)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Submits with bounded retries, honouring the rejection's seeded
/// retry-after hint (capped so a soak never sleeps long). Returns the
/// ticket and how many rejections it absorbed.
fn submit_with_backoff(
    service: &JobService,
    mut mk: impl FnMut() -> ChainRequest,
) -> Result<(ChainTicket, u64)> {
    let mut rejections = 0u64;
    loop {
        match service.submit(mk()) {
            Ok(ticket) => return Ok((ticket, rejections)),
            Err(Error::AdmissionRejected { retry_after_ms, .. }) => {
                rejections += 1;
                if rejections > 10_000 {
                    return Err(Error::Config(
                        "admission retries exhausted: queue never drained".into(),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    retry_after_ms.clamp(1, 20),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Drives one scenario end to end (see the module docs for the phases).
pub fn run_scenario(sc: &SoakScenario) -> Result<SoakReport> {
    // Phase 1: golden digests, one per distinct chain shape.
    let mut golden: HashMap<u32, OutputDigest> = HashMap::new();
    for t in &sc.tenants {
        if let std::collections::hash_map::Entry::Vacant(e) = golden.entry(t.jobs_per_chain) {
            e.insert(golden_digest(sc, t.jobs_per_chain)?);
        }
    }

    // Phase 2: the shared service cluster.
    let cluster = Arc::new(Cluster::new(sc.cluster_config()));
    generate_input(
        cluster.dfs(),
        &DataGenConfig::test("input", sc.partitions, sc.bytes_per_partition),
    )?;
    let service = JobService::new(Arc::clone(&cluster), sc.serve)?;
    for t in &sc.tenants {
        service.register_tenant(t.tenant, t.share);
    }
    // One shared chaos injector: its kill budget is global, so
    // concurrent chaos chains can never conspire to wipe the cluster.
    let chaos: Option<Arc<dyn FailureInjector>> = sc.chaos_seed.map(|seed| {
        Arc::new(
            RandomizedInjector::new(seed, sc.nodes)
                .max_kills(1)
                .max_other_faults(2),
        ) as Arc<dyn FailureInjector>
    });

    // Phase 3: round-robin submission across tenants.
    let started = Instant::now();
    let mut tickets: Vec<(TenantLoad, u32, String, ChainTicket)> = Vec::new();
    let mut rejected = 0u64;
    let max_chains = sc.tenants.iter().map(|t| t.chains).max().unwrap_or(0);
    let mut namespace_idx = 0u32;
    for c in 0..max_chains {
        for t in &sc.tenants {
            if c >= t.chains {
                continue;
            }
            // Disjoint job-id ranges and output prefixes per chain keep
            // concurrent chains' map outputs and DFS files apart.
            let prefix = format!("{}/c{}/", t.tenant, c);
            let chain = ChainBuilder::new(t.jobs_per_chain, sc.partitions)
                .input("input")
                .namespace(prefix, namespace_idx * 100)
                .build();
            namespace_idx += 1;
            let final_output = chain.final_output().to_string();
            let label = format!("{}/c{}", t.tenant, c);
            let (ticket, rejections) = submit_with_backoff(&service, || {
                let mut req =
                    ChainRequest::new(t.tenant, chain.jobs.clone(), Strategy::rcmp_split(3))
                        .with_label(label.clone());
                if t.chaos {
                    if let Some(inj) = &chaos {
                        req = req.with_injector(Arc::clone(inj));
                    }
                }
                req
            })?;
            rejected += rejections;
            tickets.push((*t, c, final_output, ticket));
        }
    }

    // Phase 4: collect results and verify digests.
    let mut results: Vec<(TenantLoad, String, ChainResult)> = Vec::new();
    for (t, _c, final_output, ticket) in tickets {
        let result = ticket.wait()?;
        results.push((t, final_output, result));
    }
    let elapsed_ms = started.elapsed().as_millis().max(1) as u64;

    let mut digests_verified = 0u32;
    let mut digest_mismatches = 0u32;
    let mut digests_unavailable = 0u32;
    for (t, final_output, result) in &results {
        if result.outcome.is_err() {
            continue;
        }
        let live = cluster.live_nodes();
        let Some(&reader) = live.first() else {
            digests_unavailable += 1;
            continue;
        };
        match digest_file(cluster.dfs(), final_output, reader) {
            Ok((digest, _)) => {
                let expected = golden
                    .get(&t.jobs_per_chain)
                    .expect("golden digest computed for every shape");
                if digest == *expected {
                    digests_verified += 1;
                } else {
                    digest_mismatches += 1;
                }
            }
            // Chaos after completion can take the output's only replica
            // with it; that is data loss, not recomputation divergence.
            Err(_) if sc.chaos_seed.is_some() => digests_unavailable += 1,
            Err(e) => return Err(e),
        }
    }

    // Phase 5: fairness over weight-normalised early grants.
    let total = results.len() as u64;
    let early_cutoff = total.div_ceil(2);
    let mut early_by_tenant: HashMap<TenantId, u32> = HashMap::new();
    for (t, _, r) in &results {
        if r.grant_seq <= early_cutoff {
            *early_by_tenant.entry(t.tenant).or_insert(0) += 1;
        }
    }
    let allocations: Vec<f64> = sc
        .tenants
        .iter()
        .map(|t| {
            f64::from(early_by_tenant.get(&t.tenant).copied().unwrap_or(0))
                / f64::from(t.share.weight.max(1))
        })
        .collect();
    let jain = jain_index(&allocations);

    let mut all_latencies: Vec<u64> = Vec::new();
    let mut tenants_out = Vec::new();
    for t in &sc.tenants {
        let mut latencies: Vec<u64> = Vec::new();
        let mut completed = 0u32;
        let mut failed = 0u32;
        for (lt, _, r) in &results {
            if lt.tenant != t.tenant {
                continue;
            }
            latencies.push(r.latency_ms);
            match &r.outcome {
                Ok(_) => completed += 1,
                Err(_) => failed += 1,
            }
        }
        latencies.sort_unstable();
        all_latencies.extend_from_slice(&latencies);
        tenants_out.push(TenantReport {
            tenant: t.tenant.to_string(),
            weight: t.share.weight,
            completed,
            failed,
            p50_ms: percentile(&latencies, 50.0),
            p99_ms: percentile(&latencies, 99.0),
            early_grants_per_weight: f64::from(
                early_by_tenant.get(&t.tenant).copied().unwrap_or(0),
            ) / f64::from(t.share.weight.max(1)),
        });
    }
    all_latencies.sort_unstable();

    let completed: u32 = tenants_out.iter().map(|t| t.completed).sum();
    let failed: u32 = tenants_out.iter().map(|t| t.failed).sum();
    Ok(SoakReport {
        scenario: sc.name.clone(),
        chains: results.len() as u32,
        completed,
        failed,
        rejected_submissions: rejected,
        elapsed_ms,
        throughput_cps: f64::from(completed) / (elapsed_ms as f64 / 1_000.0),
        p50_ms: percentile(&all_latencies, 50.0),
        p99_ms: percentile(&all_latencies, 99.0),
        jain,
        digests_verified,
        digest_mismatches,
        digests_unavailable,
        tenants: tenants_out,
    })
}
