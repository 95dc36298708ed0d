//! The five workloads: their shapes, their set-up (cluster, input,
//! golden digest) and one measured repetition of each.
//!
//! Why these five is argued in `README.md`; the short form is in
//! `BENCHMARK.json`. Every repetition runs on a fresh [`Cluster`], the
//! seed feeds `ClusterConfig.seed` and `DataGenConfig.seed` only, and
//! every output is checked against the golden digest of a solo
//! fault-free run.

use crate::spans::At;
use rcmp::core::{ChainDriver, ChainOutcome, Strategy};
use rcmp::dfs::ChainCacheStats;
use rcmp::engine::{Cluster, Fault, JobSpec, ScriptedInjector, TriggerPoint};
use rcmp::model::{
    ByteSize, ChainCacheConfig, ClusterConfig, Error, ExecutorConfig, NodeId, PlacementKernel,
    ServeConfig, SlotConfig, TenantId,
};
use rcmp::obs::{PhaseBreakdown, RecorderStats, Span, SpanKind};
use rcmp::policy::TenantShare;
use rcmp::serve::{ChainRequest, JobService};
use rcmp::workloads::checksum::{digest_file, OutputDigest};
use rcmp::workloads::datagen::expected_records;
use rcmp::workloads::{generate_input, AggBuilder, ChainBuilder, DataGenConfig};
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 5] = [
    "chain_clean",
    "chain_kill",
    "agg_combine",
    "wave_storm",
    "serve_mix",
];

/// Fair-share weights of the `serve_mix` tenants t0/t1/t2.
pub const TENANT_WEIGHTS: [u32; 3] = [1, 2, 4];

/// Engine worker threads wherever the backend lets us choose.
pub fn async_workers() -> u32 {
    nproc().min(4)
}

pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A `jobs`-long chain through `ChainDriver`; `kill` crashes that
    /// node as the last job starts (a logical trigger, so the recovery
    /// repeats exactly).
    Chain {
        jobs: u32,
        split: u32,
        kill: Option<NodeId>,
    },
    /// One aggregation job with the map-side combiner on.
    Agg { keys: u64 },
    /// A closed loop of `clients` callers, each submitting its share of
    /// `chains` namespaced `jobs`-long chains to one `JobService` and
    /// waiting for each result before sending the next.
    Serve {
        chains: u32,
        jobs: u32,
        clients: u32,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: u32,
    pub slots: SlotConfig,
    pub block: ByteSize,
    /// Input bytes per partition; one partition per node.
    pub bytes_per_partition: u64,
    pub reducers: u32,
    /// `Some(workers)` runs waves on the async reactor, `None` on the
    /// thread-per-slot backend.
    pub workers: Option<u32>,
    /// Inter-job chain cache budget (with partition-stable placement).
    pub cache: Option<ByteSize>,
    pub kind: Kind,
}

impl Workload {
    /// The workload called `name`; `scale` > 1 divides the input (and
    /// the number of served chains) for `--smoke` runs of the same code
    /// path.
    pub fn by_name(name: &str, scale: u64) -> Option<Self> {
        const MB: u64 = 1_000_000;
        let scale = scale.max(1);
        let mut w = match name {
            "chain_clean" => Self {
                name: "chain_clean",
                nodes: 4,
                slots: SlotConfig::ONE_ONE,
                block: ByteSize::kib(256),
                bytes_per_partition: 4 * MB,
                reducers: 4,
                workers: None,
                cache: None,
                kind: Kind::Chain {
                    jobs: 7,
                    split: 3,
                    kill: None,
                },
            },
            "chain_kill" => Self {
                name: "chain_kill",
                nodes: 5,
                slots: SlotConfig::ONE_ONE,
                block: ByteSize::kib(256),
                bytes_per_partition: 3_200_000,
                reducers: 5,
                workers: Some(async_workers()),
                cache: Some(ByteSize::gib(1)),
                kind: Kind::Chain {
                    jobs: 7,
                    split: 4,
                    kill: Some(NodeId(1)),
                },
            },
            "agg_combine" => Self {
                name: "agg_combine",
                nodes: 4,
                slots: SlotConfig::ONE_ONE,
                block: ByteSize::kib(256),
                bytes_per_partition: 32 * MB,
                reducers: 4,
                workers: None,
                cache: None,
                kind: Kind::Agg { keys: 4096 },
            },
            "wave_storm" => Self {
                name: "wave_storm",
                nodes: 16,
                slots: SlotConfig::TWO_TWO,
                block: ByteSize::kib(1),
                bytes_per_partition: 64 * 1024,
                reducers: 128,
                workers: Some(async_workers()),
                cache: None,
                kind: Kind::Chain {
                    jobs: 7,
                    split: 3,
                    kill: None,
                },
            },
            "serve_mix" => Self {
                name: "serve_mix",
                nodes: 4,
                slots: SlotConfig::ONE_ONE,
                block: ByteSize::kib(64),
                bytes_per_partition: MB / 8,
                reducers: 4,
                // The cluster's own backend only names the kind; every
                // served chain runs on a session leased from the budget.
                workers: Some(1),
                cache: Some(ByteSize::mib(256)),
                kind: Kind::Serve {
                    chains: 120,
                    jobs: 3,
                    clients: 6,
                },
            },
            _ => return None,
        };
        w.bytes_per_partition = (w.bytes_per_partition / scale).max(16 * 1024);
        if let Kind::Serve {
            chains, clients, ..
        } = &mut w.kind
        {
            *chains = (*chains / scale as u32).max(*clients);
        }
        Some(w)
    }

    pub fn input_bytes(&self) -> u64 {
        u64::from(self.nodes) * self.bytes_per_partition
    }

    /// Jobs in one chain of this workload.
    pub fn chain_len(&self) -> u32 {
        match self.kind {
            Kind::Chain { jobs, .. } | Kind::Serve { jobs, .. } => jobs,
            Kind::Agg { .. } => 1,
        }
    }

    /// Chains one repetition attempts.
    pub fn chains_per_rep(&self) -> u32 {
        match self.kind {
            Kind::Serve { chains, .. } => chains,
            _ => 1,
        }
    }

    /// Job runs one chain must start: a late kill costs the cancelled
    /// run, one recomputation per earlier job and the rerun.
    pub fn jobs_started_per_chain(&self) -> u64 {
        match self.kind {
            Kind::Chain {
                jobs,
                kill: Some(_),
                ..
            } => 2 * u64::from(jobs),
            _ => u64::from(self.chain_len()),
        }
    }

    /// Engine worker threads this workload may run at once (for the
    /// environment fingerprint).
    pub fn engine_threads(&self) -> u32 {
        match (self.kind, self.workers) {
            (Kind::Serve { .. }, _) => self.serve_config().worker_budget,
            (_, Some(workers)) => workers,
            (_, None) => self.nodes * self.slots.map.max(self.slots.reduce),
        }
    }

    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            slots: self.slots,
            block_size: self.block,
            seed,
            executor: self
                .workers
                .map_or_else(ExecutorConfig::default, ExecutorConfig::async_workers),
            placement: if self.cache.is_some() {
                PlacementKernel::Stable
            } else {
                PlacementKernel::Default
            },
            chain_cache: self
                .cache
                .map_or_else(ChainCacheConfig::default, ChainCacheConfig::enabled),
            ..ClusterConfig::small_test(self.nodes)
        }
    }

    pub fn datagen(&self, seed: u64) -> DataGenConfig {
        DataGenConfig {
            seed,
            ..DataGenConfig::test("input", self.nodes, self.bytes_per_partition)
        }
    }

    pub fn input_records(&self) -> u64 {
        expected_records(&self.datagen(0))
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            queue_depth: 4,
            max_concurrent_chains: 2,
            worker_budget: nproc().min(2),
            workers_per_chain: 1,
            ..ServeConfig::default()
        }
    }

    fn strategy(&self) -> Strategy {
        match self.kind {
            Kind::Chain { split, .. } => Strategy::rcmp_split(split),
            _ => Strategy::rcmp_split(3),
        }
    }

    /// The jobs of chain number `idx` (0 for the driver workloads; the
    /// served chains get disjoint output prefixes and job-id ranges).
    pub fn chain_jobs(&self, idx: u32, combine: bool) -> Vec<JobSpec> {
        match self.kind {
            Kind::Agg { keys } => vec![AggBuilder::new(self.reducers, keys)
                .combine(combine)
                .build()],
            Kind::Chain { jobs, .. } => ChainBuilder::new(jobs, self.reducers).build().jobs,
            Kind::Serve { jobs, .. } => {
                ChainBuilder::new(jobs, self.reducers)
                    .namespace(format!("c{idx}/"), idx * 100)
                    .build()
                    .jobs
            }
        }
    }

    /// A fresh cluster holding the generated input.
    fn fresh_cluster(&self, seed: u64, at: At<'_>) -> Cluster {
        let cluster = at.scope("engine.cluster_new", |_| {
            Cluster::new(self.cluster_config(seed))
        });
        at.scope("workloads.generate_input", |_| {
            generate_input(cluster.dfs(), &self.datagen(seed))
                .expect("input generation on a healthy cluster cannot fail")
        });
        cluster
    }

    /// One set-up: cluster, input, and the golden digest from a solo
    /// fault-free run (for `agg_combine`, a run with the combiner off,
    /// so the combiner itself is checked).
    pub fn setup(&self, seed: u64, at: At<'_>) -> Golden {
        let cluster = self.fresh_cluster(seed, at);
        let jobs = self.chain_jobs(0, false);
        let outcome = at.scope("core.golden_run", |_| {
            ChainDriver::new(&cluster, self.strategy())
                .run(&jobs)
                .expect("the fault-free golden run cannot fail")
        });
        let digest = at.scope("workloads.digest_file", |_| {
            output_digest(&cluster, &jobs).expect("the golden output is readable")
        });
        Golden {
            digest,
            counts: Counts::of(&outcome),
        }
    }

    /// One repetition; it is a traced one when `at` records spans. The
    /// timed region is `ChainDriver::run` (or, for `serve_mix`, first
    /// submit to last result); cluster build, input generation and
    /// digest checks are outside it.
    pub fn rep(&self, seed: u64, golden: &Golden, at: At<'_>) -> Rep {
        at.scope("bench.rep", |at| {
            let cluster = Arc::new(self.fresh_cluster(seed, at));
            match self.kind {
                Kind::Serve {
                    chains, clients, ..
                } => self.serve_rep(cluster, chains, clients, golden, at),
                _ => self.driver_rep(&cluster, golden, at),
            }
        })
    }

    fn driver_rep(&self, cluster: &Cluster, golden: &Golden, at: At<'_>) -> Rep {
        let jobs = self.chain_jobs(0, true);
        let mut driver = ChainDriver::new(cluster, self.strategy());
        if let Kind::Chain {
            jobs: n,
            kill: Some(node),
            ..
        } = self.kind
        {
            driver = driver.with_injector(Arc::new(ScriptedInjector::single_fault(
                u64::from(n),
                TriggerPoint::JobStart,
                Fault::NodeCrash(node),
            )));
        }
        let baseline = at.enabled().then(|| Baseline::take(cluster));
        let started = Instant::now();
        let (result, at_run) = at.scope("core.chain_run", |at_run| (driver.run(&jobs), at_run));
        let wall_s = started.elapsed().as_secs_f64();
        let counts = result.as_ref().map(Counts::of).unwrap_or_default();
        // Harvest before the digest check reads the output back.
        let layers = baseline.map(|b| b.close(cluster, result.ok()));
        if let Some(layers) = &layers {
            copy_job_spans(cluster, &layers.spans, at_run);
        }

        let digest = at.scope("workloads.digest_file", |_| output_digest(cluster, &jobs));
        let ok = digest.is_ok_and(|d| d == golden.digest)
            && counts.jobs_started == self.jobs_started_per_chain();
        Rep {
            wall_s,
            latencies_ms: vec![wall_s * 1e3],
            counts,
            failed: u64::from(!ok),
            layers,
        }
    }

    fn serve_rep(
        &self,
        cluster: Arc<Cluster>,
        chains: u32,
        clients: u32,
        golden: &Golden,
        at: At<'_>,
    ) -> Rep {
        let service = at.scope("serve.service_new", |_| {
            JobService::new(Arc::clone(&cluster), self.serve_config())
                .expect("the serve configuration is valid")
        });
        for (t, weight) in TENANT_WEIGHTS.into_iter().enumerate() {
            service.register_tenant(
                TenantId(t as u32),
                TenantShare {
                    weight,
                    max_in_flight: 2,
                },
            );
        }
        let tenants = TENANT_WEIGHTS.len() as u32;
        let baseline = at.enabled().then(|| Baseline::take(&cluster));
        let started = Instant::now();
        // Closed loop: client `c` sends chains c, c+clients, ... one at
        // a time, so `clients` tickets are outstanding throughout and
        // every tenant (chain idx mod tenants) keeps clients/tenants of
        // them. Clients only build the request and block on the ticket.
        let mut served: Vec<Served> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let service = &service;
                    scope.spawn(move || {
                        (c..chains)
                            .step_by(clients as usize)
                            .map(|idx| self.serve_one(service, idx, idx % tenants, at))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a serve client panicked"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        drop(service);
        served.sort_by_key(|s| s.idx);
        let mut layers = baseline.map(|b| b.close(&cluster, None));
        if let Some(layers) = &layers {
            copy_job_spans(&cluster, &layers.spans, at);
        }

        let mut counts = Counts::default();
        let mut failed = 0;
        at.scope("workloads.digest_file", |_| {
            for s in &served {
                let ok = s.counts.is_some_and(|c| {
                    counts.add(&c);
                    c.jobs_started == self.jobs_started_per_chain()
                }) && output_digest(&cluster, &self.chain_jobs(s.idx, true))
                    .is_ok_and(|d| d == golden.digest);
                failed += u64::from(!ok);
            }
        });
        let latencies_ms = served.iter().map(|s| s.latency_ms).collect();
        if let Some(layers) = &mut layers {
            layers.served = served;
        }
        Rep {
            wall_s,
            latencies_ms,
            counts,
            failed,
            layers,
        }
    }

    /// One request of the closed loop: submit, wait, time both.
    fn serve_one(&self, service: &JobService, idx: u32, tenant: u32, at: At<'_>) -> Served {
        let jobs = self.chain_jobs(idx, true);
        let mut rejects = 0;
        let submitted = Instant::now();
        let submit_us;
        let ticket = loop {
            let request = ChainRequest::new(TenantId(tenant), jobs.clone(), self.strategy())
                .with_label(format!("c{idx}"));
            let call = Instant::now();
            let result = at.scope("serve.submit", |_| service.submit(request));
            let call_us = call.elapsed().as_secs_f64() * 1e6;
            match result {
                Ok(ticket) => {
                    submit_us = call_us;
                    break Some(ticket);
                }
                Err(Error::AdmissionRejected { retry_after_ms, .. }) if rejects < 1000 => {
                    rejects += 1;
                    std::thread::sleep(std::time::Duration::from_millis(
                        retry_after_ms.clamp(1, 20),
                    ));
                }
                Err(_) => {
                    submit_us = call_us;
                    break None;
                }
            }
        };
        let result = ticket.and_then(|t| at.scope("serve.wait", |_| t.wait().ok()));
        let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
        Served {
            idx,
            tenant,
            latency_ms,
            submit_us,
            rejects,
            grant_seq: result.as_ref().map_or(0, |r| r.grant_seq),
            counts: result.and_then(|r| r.outcome.ok()).map(|s| Counts {
                jobs_started: s.jobs_started,
                map_tasks: s.map_tasks as u64,
                reduce_tasks: s.reduce_tasks as u64,
            }),
        }
    }
}

/// Digest of the last job's output file.
fn output_digest(cluster: &Cluster, jobs: &[JobSpec]) -> rcmp::model::Result<OutputDigest> {
    let output = &jobs.last().expect("chains are never empty").output;
    let reader = cluster.live_nodes()[0];
    digest_file(cluster.dfs(), output, reader).map(|(digest, _)| digest)
}

/// Copies the program's own `JobRun` spans to `at`, shifted from the
/// cluster tracer's clock onto the benchmark's.
fn copy_job_spans(cluster: &Cluster, program_spans: &[Span], at: At<'_>) {
    let shift = at.now_us() as i64 - cluster.tracer().now_us() as i64;
    let onto = |us: u64| (us as i64 + shift).max(0) as u64;
    for span in program_spans {
        if let SpanKind::JobRun { seq, recompute, .. } = span.kind {
            let name = if recompute {
                format!("engine.job_run.recompute#{seq}")
            } else {
                format!("engine.job_run#{seq}")
            };
            at.record(&name, onto(span.start_us), onto(span.end_us));
        }
    }
}

/// What the set-up hands every repetition to check against.
pub struct Golden {
    pub digest: OutputDigest,
    pub counts: Counts,
}

/// Counts that must repeat exactly from repetition to repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub jobs_started: u64,
    pub map_tasks: u64,
    pub reduce_tasks: u64,
}

impl Counts {
    fn of(outcome: &ChainOutcome) -> Self {
        Self {
            jobs_started: outcome.jobs_started,
            map_tasks: outcome.total_map_tasks() as u64,
            reduce_tasks: outcome.total_reduce_tasks() as u64,
        }
    }

    fn add(&mut self, other: &Counts) {
        self.jobs_started += other.jobs_started;
        self.map_tasks += other.map_tasks;
        self.reduce_tasks += other.reduce_tasks;
    }
}

/// One served chain as its client saw it.
pub struct Served {
    pub idx: u32,
    pub tenant: u32,
    pub latency_ms: f64,
    /// Wall of the (last) `JobService::submit` call.
    pub submit_us: f64,
    pub rejects: u64,
    pub grant_seq: u64,
    /// `None` when the chain ended in a typed error.
    pub counts: Option<Counts>,
}

/// One repetition's result.
pub struct Rep {
    pub wall_s: f64,
    /// Hand-off → result per chain.
    pub latencies_ms: Vec<f64>,
    pub counts: Counts,
    /// Chains that ended in a typed error, produced a wrong digest or
    /// started the wrong number of job runs.
    pub failed: u64,
    /// What the layers reported, harvested in traced repetitions only.
    pub layers: Option<LayerData>,
}

/// What the layers reported about the timed region of one repetition,
/// read from values the program already returns or exposes; `layers.rs`
/// turns it into the per-layer metrics.
pub struct LayerData {
    /// Busy time per phase, summed over tasks.
    pub phases: PhaseBreakdown,
    /// The program's own spans that started inside the timed region.
    pub spans: Vec<Span>,
    pub task_retries: u64,
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub cache: Option<ChainCacheStats>,
    pub dfs_used: ByteSize,
    /// Driver workloads only.
    pub outcome: Option<ChainOutcome>,
    /// `serve_mix` only (empty elsewhere).
    pub served: Vec<Served>,
}

/// Cluster telemetry as it stood when the timed region began (input
/// generation has already run on the same cluster).
struct Baseline {
    phases: PhaseBreakdown,
    since_us: u64,
    task_retries: u64,
    recorder: RecorderStats,
}

fn task_retries(cluster: &Cluster) -> u64 {
    cluster
        .metrics()
        .snapshot()
        .counter("tracker.task_retries")
        .unwrap_or(0)
}

impl Baseline {
    fn take(cluster: &Cluster) -> Self {
        Self {
            phases: cluster.profiler().snapshot(),
            since_us: cluster.tracer().now_us(),
            task_retries: task_retries(cluster),
            recorder: cluster.recorder().stats(),
        }
    }

    fn close(self, cluster: &Cluster, outcome: Option<ChainOutcome>) -> LayerData {
        let recorder = cluster.recorder().stats();
        let mut spans = cluster.tracer().snapshot().spans;
        spans.retain(|s| s.start_us >= self.since_us);
        LayerData {
            phases: cluster.profiler().snapshot().delta(&self.phases),
            spans,
            task_retries: task_retries(cluster) - self.task_retries,
            events_recorded: recorder.recorded - self.recorder.recorded,
            events_dropped: recorder.dropped - self.recorder.dropped,
            cache: cluster.dfs().chain_cache().map(|c| c.stats()),
            dfs_used: cluster.dfs().total_used(),
            outcome,
            served: Vec::new(),
        }
    }
}
