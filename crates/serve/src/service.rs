//! The job service: admission, arbitration, dispatch.
//!
//! One [`JobService`] owns one shared cluster and three cooperating
//! pieces of machinery:
//!
//! * the **submission path** ([`JobService::submit`]) — admission
//!   control against each tenant's bounded queue, then enqueue into the
//!   DRR arbiter;
//! * the **dispatcher thread** — wakes whenever a chain slot or worker
//!   frees up, asks the arbiter for the next grants, and spawns one
//!   runner per granted chain;
//! * the **runner threads** — lease workers from the global budget,
//!   build a per-chain worker pool sized to the lease, and drive the
//!   chain to completion with the tenant tag and chain label threaded
//!   through the whole observability stack.
//!
//! Every scheduling decision is made by the deterministic arbiter;
//! the only wall-clock inputs are chain latencies (reported, never used
//! for decisions), so a replay of the same submission sequence grants
//! in the same order.

use rcmp_core::{ChainDriver, Strategy};
use rcmp_engine::{Cluster, FailureInjector, JobSpec};
use rcmp_exec::{BackendExecutor, WorkerBudget};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{Error, ExecutorConfig, Result, ServeConfig, TenantId};
use rcmp_obs::{Counter, Gauge, Histogram};
use rcmp_policy::{DrrArbiter, TenantShare};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Latency buckets for `serve.chain_latency_ms` (milliseconds).
const LATENCY_BOUNDS_MS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000,
];

/// One tenant's request to run a chain through the service.
pub struct ChainRequest {
    /// Submitting tenant (must be registered).
    pub tenant: TenantId,
    /// The chain's jobs, dependency-ordered as for
    /// [`ChainDriver::run`].
    pub jobs: Vec<JobSpec>,
    /// Resilience strategy to drive the chain under.
    pub strategy: Strategy,
    /// Chain label: keys this chain's blackbox dump and names its
    /// `RCMP_BLACKBOX_DIR` file. Should be unique per submission.
    pub label: String,
    /// Failure injector for this chain (chaos testing); `None` runs
    /// without injected faults.
    pub injector: Option<Arc<dyn FailureInjector>>,
    /// DRR cost in deficit units; defaults to the job count.
    pub cost: u64,
}

impl ChainRequest {
    /// A request with the default label (`"<tenant>/chain"`), no
    /// injector, and cost equal to the job count.
    pub fn new(tenant: TenantId, jobs: Vec<JobSpec>, strategy: Strategy) -> Self {
        let cost = jobs.len().max(1) as u64;
        Self {
            tenant,
            jobs,
            strategy,
            label: format!("{tenant}/chain"),
            injector: None,
            cost,
        }
    }

    /// Sets the chain label (blackbox dump key; make it unique).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Attaches a failure injector to this chain's runs.
    pub fn with_injector(mut self, injector: Arc<dyn FailureInjector>) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// Compact summary of a completed chain (the full
/// [`ChainOutcome`](rcmp_core::ChainOutcome) stays inside the runner;
/// results must stay cheap to buffer for thousands of chains).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainSummary {
    /// Total job runs started (recomputations and restarts included).
    pub jobs_started: u64,
    /// Whole-chain restarts.
    pub restarts: u32,
    /// Mapper tasks actually executed across all runs.
    pub map_tasks: usize,
    /// Reducer tasks actually executed across all runs.
    pub reduce_tasks: usize,
}

/// Delivered to the submitting tenant when its chain resolves.
pub struct ChainResult {
    /// The tenant that submitted the chain.
    pub tenant: TenantId,
    /// The ticket from [`JobService::submit`].
    pub ticket: u64,
    /// The chain label from the request.
    pub label: String,
    /// Wall-clock submit → resolve latency in milliseconds (includes
    /// queueing delay — the number a tenant actually experiences).
    pub latency_ms: u64,
    /// Global grant sequence number (1-based): the `n`-th chain the
    /// arbiter granted a slot. Fairness analysis uses it to ask who got
    /// *scheduled* early under contention — unlike completion order it
    /// is a pure arbiter decision, untouched by wall-clock noise.
    pub grant_seq: u64,
    /// Global completion sequence number (1-based): the `n`-th chain
    /// the service resolved.
    pub done_seq: u64,
    /// The chain's outcome: a summary, or the typed error it surfaced.
    pub outcome: Result<ChainSummary>,
}

/// Handle for one admitted chain; redeem it with [`ChainTicket::wait`].
pub struct ChainTicket {
    ticket: u64,
    tenant: TenantId,
    rx: mpsc::Receiver<ChainResult>,
}

impl ChainTicket {
    /// The service-assigned ticket number (admission order).
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// The submitting tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Blocks until the chain resolves. Errors only if the service shut
    /// down before the chain ran.
    pub fn wait(self) -> Result<ChainResult> {
        self.rx.recv().map_err(|_| {
            Error::Config(format!(
                "job service shut down before ticket {} of {} ran",
                self.ticket, self.tenant
            ))
        })
    }
}

struct Pending {
    req: ChainRequest,
    tx: mpsc::Sender<ChainResult>,
    submitted: Instant,
}

struct Inner {
    arbiter: DrrArbiter,
    pending: HashMap<u64, Pending>,
    /// Consecutive rejections per tenant: the backoff attempt counter
    /// for the retry-after hint. Reset on successful admission.
    rejections: HashMap<TenantId, u32>,
    /// Pre-resolved `serve.tenant.<t>.in_flight` gauges — updated on
    /// grant/complete, potentially while waves are hot elsewhere.
    tenant_gauges: HashMap<TenantId, Gauge>,
    queued: u32,
    in_flight: u32,
    next_ticket: u64,
    grant_seq: u64,
    done_seq: u64,
    shutdown: bool,
    runners: Vec<JoinHandle<()>>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Wakes the dispatcher on submit, completion and shutdown.
    wake: Condvar,
    cluster: Arc<Cluster>,
    cfg: ServeConfig,
    budget: WorkerBudget,
    m_queue_depth: Gauge,
    m_in_flight: Gauge,
    m_admitted: Counter,
    m_rejected: Counter,
    m_latency: Histogram,
}

/// The multi-tenant job service (see the crate docs for the model).
///
/// Dropping the service stops the dispatcher, waits for in-flight
/// chains to finish, and fails any still-queued tickets.
pub struct JobService {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl JobService {
    /// Starts a service over `cluster` with the given limits.
    pub fn new(cluster: Arc<Cluster>, cfg: ServeConfig) -> Result<Self> {
        cfg.validate()?;
        let metrics = cluster.metrics();
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                arbiter: DrrArbiter::new(cfg.quantum),
                pending: HashMap::new(),
                rejections: HashMap::new(),
                tenant_gauges: HashMap::new(),
                queued: 0,
                in_flight: 0,
                next_ticket: 1,
                grant_seq: 0,
                done_seq: 0,
                shutdown: false,
                runners: Vec::new(),
            }),
            wake: Condvar::new(),
            budget: WorkerBudget::new(cfg.worker_budget),
            m_queue_depth: metrics.gauge("serve.queue_depth"),
            m_in_flight: metrics.gauge("serve.chains_in_flight"),
            m_admitted: metrics.counter("serve.admitted"),
            m_rejected: metrics.counter("serve.rejected"),
            m_latency: metrics.histogram("serve.chain_latency_ms", LATENCY_BOUNDS_MS),
            cluster,
            cfg,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rcmp-serve-dispatcher".into())
                .spawn(move || dispatch_loop(&shared))
                .map_err(|e| Error::Config(format!("spawning dispatcher: {e}")))?
        };
        Ok(Self {
            shared,
            dispatcher: Some(dispatcher),
        })
    }

    /// Registers a tenant (or updates its share). Submissions from
    /// unregistered tenants are rejected outright.
    pub fn register_tenant(&self, tenant: TenantId, share: TenantShare) {
        let gauge = self
            .shared
            .cluster
            .metrics()
            .gauge(&format!("serve.tenant.{tenant}.in_flight"));
        let mut inner = lock(&self.shared.inner);
        inner.arbiter.register(tenant, share);
        inner.tenant_gauges.entry(tenant).or_insert(gauge);
    }

    /// Submits a chain. Returns a ticket to wait on, or the typed
    /// admission rejection:
    ///
    /// * an unregistered tenant gets [`Error::Config`] — retrying will
    ///   not help;
    /// * a full per-tenant queue gets [`Error::AdmissionRejected`] with
    ///   a `retry_after_ms` hint from the seeded full-jitter backoff
    ///   (attempt = consecutive rejections), so a polite client's
    ///   retries decorrelate deterministically.
    pub fn submit(&self, req: ChainRequest) -> Result<ChainTicket> {
        let tenant = req.tenant;
        let mut inner = lock(&self.shared.inner);
        if inner.shutdown {
            return Err(Error::Config("job service is shutting down".into()));
        }
        if !inner.arbiter.is_registered(tenant) {
            return Err(Error::Config(format!(
                "tenant {tenant} is not registered with the job service"
            )));
        }
        if inner.arbiter.queue_len(tenant) >= self.shared.cfg.queue_depth as usize {
            let attempt = {
                let n = inner.rejections.entry(tenant).or_insert(0);
                *n = n.saturating_add(1);
                *n
            };
            let retry_after_ms = self.shared.cfg.retry.backoff_ms(
                derive_indexed(self.shared.cfg.seed, "admission", u64::from(tenant.raw())),
                attempt,
            );
            self.shared.m_rejected.inc();
            return Err(Error::AdmissionRejected {
                tenant,
                retry_after_ms,
            });
        }
        inner.rejections.insert(tenant, 0);
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        let cost = req.cost;
        let admitted = inner.arbiter.enqueue(tenant, ticket, cost);
        debug_assert!(admitted, "registration checked above");
        let (tx, rx) = mpsc::channel();
        inner.pending.insert(
            ticket,
            Pending {
                req,
                tx,
                submitted: Instant::now(),
            },
        );
        inner.queued += 1;
        self.shared.m_queue_depth.set(i64::from(inner.queued));
        self.shared.m_admitted.inc();
        drop(inner);
        self.shared.wake.notify_all();
        Ok(ChainTicket { ticket, tenant, rx })
    }

    /// Blocks until every admitted chain has resolved (queue empty and
    /// nothing in flight). New submissions may still arrive afterwards;
    /// this is a drain point, not a shutdown.
    pub fn drain(&self) {
        let mut inner = lock(&self.shared.inner);
        while inner.queued > 0 || inner.in_flight > 0 {
            inner = self
                .shared
                .wake
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The shared cluster this service multiplexes.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        {
            let mut inner = lock(&self.shared.inner);
            inner.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

/// The dispatcher: grants chains whenever slots and workers are free.
/// Exits once shutdown is requested and nothing is in flight, failing
/// still-queued tickets by dropping their senders.
fn dispatch_loop(shared: &Arc<Shared>) {
    let mut inner = lock(&shared.inner);
    loop {
        if inner.shutdown {
            if inner.in_flight > 0 {
                inner = shared
                    .wake
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            inner.pending.clear();
            inner.queued = 0;
            shared.m_queue_depth.set(0);
            let runners = std::mem::take(&mut inner.runners);
            drop(inner);
            for r in runners {
                let _ = r.join();
            }
            return;
        }
        // A chain needs a slot under the concurrency cap and at least
        // one free worker (the lease's floor-of-one otherwise
        // oversubscribes the pool).
        let slots = shared
            .cfg
            .max_concurrent_chains
            .saturating_sub(inner.in_flight)
            .min(shared.budget.available());
        let grants = inner.arbiter.next_grants(slots);
        if grants.is_empty() {
            inner = shared
                .wake
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        for grant in grants {
            let pending = inner
                .pending
                .remove(&grant.ticket)
                .expect("granted ticket has a pending entry");
            inner.queued -= 1;
            inner.in_flight += 1;
            inner.grant_seq += 1;
            let grant_seq = inner.grant_seq;
            if let Some(g) = inner.tenant_gauges.get(&grant.tenant) {
                g.add(1);
            }
            shared.m_queue_depth.set(i64::from(inner.queued));
            shared.m_in_flight.set(i64::from(inner.in_flight));
            let shared2 = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("rcmp-serve-{}", grant.tenant))
                .spawn(move || run_chain(&shared2, grant.tenant, grant.ticket, grant_seq, pending))
                .expect("spawning chain runner");
            inner.runners.push(handle);
        }
    }
}

/// Builds a chain's own worker pool, sized to its worker lease and
/// reporting into the cluster's observability.
fn per_chain_executor(cluster: &Cluster, workers: u32) -> BackendExecutor {
    BackendExecutor::from_config(&ExecutorConfig::async_workers(workers))
        .with_obs(cluster.tracer().clone(), cluster.metrics())
        .with_profiler(cluster.profiler().clone())
}

/// One runner: leases workers, drives the chain, reports the result,
/// releases the slot. The lease is explicitly dropped *before* the
/// dispatcher is woken so freed workers are visible to the next grant.
fn run_chain(
    shared: &Arc<Shared>,
    tenant: TenantId,
    ticket: u64,
    grant_seq: u64,
    pending: Pending,
) {
    let Pending { req, tx, submitted } = pending;
    let lease = shared.budget.lease(shared.cfg.workers_per_chain);
    let executor = Arc::new(per_chain_executor(&shared.cluster, lease.workers()));
    let label = req.label.clone();
    let outcome = {
        let mut driver = ChainDriver::new(&shared.cluster, req.strategy)
            .with_chain_label(label.clone())
            .with_tenant(tenant)
            .with_executor(executor);
        if let Some(injector) = req.injector.clone() {
            driver = driver.with_injector(injector);
        }
        // A panicking chain must release its slot, or the service
        // wedges; surface it as a typed error instead.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver.run(&req.jobs)))
            .unwrap_or_else(|_| Err(Error::Config(format!("chain runner panicked: {label}"))))
            .map(|o| ChainSummary {
                jobs_started: o.jobs_started,
                restarts: o.events.restarts() as u32,
                map_tasks: o.total_map_tasks(),
                reduce_tasks: o.total_reduce_tasks(),
            })
    };
    drop(lease);
    let latency_ms = submitted.elapsed().as_millis() as u64;
    shared.m_latency.observe(latency_ms);
    let done_seq = {
        let mut inner = lock(&shared.inner);
        inner.arbiter.complete(tenant);
        inner.in_flight -= 1;
        inner.done_seq += 1;
        if let Some(g) = inner.tenant_gauges.get(&tenant) {
            g.add(-1);
        }
        shared.m_in_flight.set(i64::from(inner.in_flight));
        inner.done_seq
    };
    shared.wake.notify_all();
    let _ = tx.send(ChainResult {
        tenant,
        ticket,
        label,
        latency_ms,
        grant_seq,
        done_seq,
        outcome,
    });
}
