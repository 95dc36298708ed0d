//! Cluster-level configuration shared by the engine and the simulator.

use crate::error::{Error, Result};
use crate::rng::derive_indexed;
use crate::units::ByteSize;
use serde::{Deserialize, Serialize};

/// Mapper/reducer slots per node ("SLOTS X-Y" in the paper's figures).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotConfig {
    /// Concurrent mapper tasks per node.
    pub map: u32,
    /// Concurrent reducer tasks per node.
    pub reduce: u32,
}

impl SlotConfig {
    pub const fn new(map: u32, reduce: u32) -> Self {
        Self { map, reduce }
    }

    /// The paper's "SLOTS 1-1".
    pub const ONE_ONE: SlotConfig = SlotConfig::new(1, 1);
    /// The paper's "SLOTS 2-2".
    pub const TWO_TWO: SlotConfig = SlotConfig::new(2, 2);
}

impl Default for SlotConfig {
    fn default() -> Self {
        SlotConfig::ONE_ONE
    }
}

/// The wave executor's size, threaded through [`ClusterConfig`] so the
/// engine, the chaos harness and the figure runner all size it in one
/// place. Every size runs the same schedules — wave assignment is
/// decided by the shared policy kernel before any task starts, and
/// outcomes are collected in input order — so the worker count trades
/// OS threads for parallelism, never correctness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Worker threads of the job-scoped pool; `0` means auto: the
    /// machine's available parallelism, capped at the cluster's slot
    /// count.
    pub workers: u32,
}

impl ExecutorConfig {
    /// The pool with a fixed worker count.
    pub fn async_workers(workers: u32) -> Self {
        Self { workers }
    }
}

/// Which placement kernel assigns tasks to nodes.
///
/// All kernels run the same wave arithmetic (§II) and produce
/// schedules byte-identical between the engine and the simulator; they
/// differ only in *which* pending task a node claims (and, for
/// [`PlacementKernel::CapacityWeighted`], how many).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementKernel {
    /// Hadoop's slot-pull: primary-local first, then any local replica,
    /// then steal the oldest pending task (the historical behaviour).
    #[default]
    Default,
    /// Like `Default`, but the steal fallback prefers a task with a
    /// replica anywhere in the claimer's *rack* before going truly
    /// remote (HDFS-style rack locality, §III-A).
    RackAware,
    /// Delay scheduling: a node with no local task skips its claim for
    /// up to `rounds` claim rounds, waiting for a local one to surface,
    /// before falling back to stealing.
    Delay {
        /// Claim rounds a node waits for a local task before stealing.
        rounds: u32,
    },
    /// Heterogeneous slot-pull: each node claims tasks (and packs
    /// waves) in proportion to its capacity weight from the membership
    /// record, so big nodes pull more work per round.
    CapacityWeighted,
    /// Partition-stable chain placement (M3R-style): a node first claims
    /// the map tasks whose input partition it holds in the inter-job
    /// [`ChainCacheConfig`] cache from the previous job, then falls back
    /// to the `Default` locality chain. With no cached affinity
    /// information it behaves exactly like `Default`.
    Stable,
}

impl PlacementKernel {
    /// Short label for figure tables and CI logs.
    pub fn label(&self) -> String {
        match self {
            Self::Default => "default".into(),
            Self::RackAware => "rack".into(),
            Self::Delay { rounds } => format!("delay:{rounds}"),
            Self::CapacityWeighted => "capacity".into(),
            Self::Stable => "stable".into(),
        }
    }
}

/// Memory-budgeted inter-job block cache (the M3R-style fast path over
/// RCMP's persisted lineage): job *i*'s reducer outputs stay resident in
/// node memory so job *i+1*'s mappers read them without a DFS
/// round-trip, while every block is still written through to the DFS
/// (checksummed, replicated) so recomputation lineage is untouched.
///
/// The cache is a pure read-through overlay: turning it on or off never
/// changes job output bytes, only where the fault-free read comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainCacheConfig {
    /// Whether the inter-job cache is active. Disabled by default: every
    /// read goes to the DFS exactly as before this option existed.
    pub enabled: bool,
    /// Total bytes of reducer output the cache may keep resident across
    /// the cluster. Partitions that don't fit are spilled through to the
    /// DFS only (they were persisted anyway); a budget smaller than one
    /// partition degrades to pure spill-through, i.e. today's behaviour.
    pub budget: ByteSize,
}

impl Default for ChainCacheConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            budget: ByteSize::ZERO,
        }
    }
}

impl ChainCacheConfig {
    /// An enabled cache with the given byte budget.
    pub fn enabled(budget: ByteSize) -> Self {
        Self {
            enabled: true,
            budget,
        }
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.budget.is_zero() {
            return Err(Error::Config(
                "chain cache budget must be positive when enabled".into(),
            ));
        }
        Ok(())
    }
}

/// Shuffle data-path tuning: block-store sharding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShuffleConfig {
    /// Shards per node block store (keyed by `BlockId` hash). `1`
    /// degenerates to the old single-lock store and is kept as the
    /// accounting oracle for the sharded path.
    pub store_shards: u32,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        Self { store_shards: 8 }
    }
}

/// Retry budgets and seeded exponential backoff for the engine's
/// recovery paths (and the simulator's model of them).
///
/// The budgets replace the tracker's historical flat constants; the
/// backoff replaces immediate lockstep retries, which under a chaos
/// storm made every failing fetch hammer the flaky path at the same
/// instant (the retry-herd hazard). Delays use *full jitter*: attempt
/// `a` sleeps a uniform value in `[0, min(max, base·2^(a−1))]` ms.
///
/// The jitter is a pure function of `(site_seed, attempt)` — no RNG
/// state, no wall clock — so two retry sites with distinct seeds get
/// distinct schedules while a replay of the same seed reproduces every
/// delay exactly, keeping chaos replays byte-identical on every backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Transient shuffle failures absorbed per reduce-task execution
    /// before the attempt is abandoned and the task rescheduled.
    pub shuffle_attempts: u32,
    /// Times a single reduce task may come back retryable before the
    /// job gives up with a typed `RecoveryExhausted` error.
    pub task_retries: u32,
    /// Backoff ceiling for the first retry, milliseconds.
    pub base_backoff_ms: u64,
    /// Hard cap on any single backoff delay, milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            shuffle_attempts: 4,
            task_retries: 8,
            base_backoff_ms: 2,
            max_backoff_ms: 16,
        }
    }
}

impl RetryPolicy {
    /// Disables backoff delays (budgets still apply) — the historical
    /// immediate-retry behaviour, kept for tests that count retries
    /// without wanting to sleep.
    pub fn no_backoff() -> Self {
        Self {
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            ..Self::default()
        }
    }

    /// Full-jitter delay before retry `attempt` (1-based) at the retry
    /// site identified by `site_seed`: uniform in `[0, min(max_backoff,
    /// base_backoff · 2^(attempt−1))]`, deterministically derived.
    pub fn backoff_ms(&self, site_seed: u64, attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 || self.max_backoff_ms == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(16);
        let ceiling = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms);
        derive_indexed(site_seed, "retry-backoff", u64::from(attempt)) % (ceiling + 1)
    }

    /// The whole backoff schedule a site would follow over its attempt
    /// budget (diagnostics and lockstep-regression tests).
    pub fn schedule(&self, site_seed: u64, attempts: u32) -> Vec<u64> {
        (1..=attempts)
            .map(|a| self.backoff_ms(site_seed, a))
            .collect()
    }

    /// Sanity-checks the policy.
    pub fn validate(&self) -> Result<()> {
        if self.shuffle_attempts == 0 {
            return Err(Error::Config("shuffle attempts must be at least 1".into()));
        }
        if self.task_retries == 0 {
            return Err(Error::Config("task retries must be at least 1".into()));
        }
        if self.max_backoff_ms < self.base_backoff_ms {
            return Err(Error::Config(
                "max backoff must be at least the base backoff".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of the multi-tenant job service (`rcmp-serve`): the
/// long-lived serving layer that admits a stream of chain submissions
/// from many tenants and multiplexes them onto one shared cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Bounded submission-queue depth *per tenant*. A submission that
    /// would exceed it is refused with `Error::AdmissionRejected`
    /// (typed backpressure) instead of queueing unboundedly.
    pub queue_depth: u32,
    /// Chains allowed in flight concurrently across all tenants (the
    /// service's session slots).
    pub max_concurrent_chains: u32,
    /// Global wave-executor worker budget shared by every in-flight
    /// chain session: a new session leases up to
    /// [`ServeConfig::workers_per_chain`] workers from what remains.
    pub worker_budget: u32,
    /// Pool workers requested per chain session (the lease is capped
    /// by what the global budget has left, never below 1).
    pub workers_per_chain: u32,
    /// Deficit round-robin quantum (cost units credited per tenant
    /// weight per arbitration round). Chain cost is its job count, so
    /// the default lets a weight-1 tenant win a short chain each round.
    pub quantum: u64,
    /// Seed for admission-rejection backoff hints.
    pub seed: u64,
    /// Backoff shape for admission retry-after hints (reuses the
    /// engine's seeded full-jitter convention).
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth: 8,
            max_concurrent_chains: 4,
            worker_budget: 8,
            workers_per_chain: 2,
            quantum: 4,
            seed: 0x5e7e,
            retry: RetryPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.queue_depth == 0 {
            return Err(Error::Config("serve queue depth must be at least 1".into()));
        }
        if self.max_concurrent_chains == 0 {
            return Err(Error::Config(
                "serve needs at least one concurrent chain slot".into(),
            ));
        }
        if self.worker_budget == 0 {
            return Err(Error::Config("serve worker budget must be positive".into()));
        }
        if self.workers_per_chain == 0 {
            return Err(Error::Config(
                "serve workers per chain must be positive".into(),
            ));
        }
        if self.quantum == 0 {
            return Err(Error::Config("serve quantum must be positive".into()));
        }
        self.retry.validate()?;
        Ok(())
    }
}

/// Static description of a collocated cluster (every node both computes
/// and stores, §II).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of compute/storage nodes.
    pub nodes: u32,
    /// Slots per node.
    pub slots: SlotConfig,
    /// DFS block size (the paper uses 256 MB).
    pub block_size: ByteSize,
    /// Seed for all placement/scheduling randomness.
    pub seed: u64,
    /// Upper bound on recovery rounds the middleware attempts before
    /// surfacing [`Error::RecoveryExhausted`]: caps chain restarts,
    /// job-cancellation/recovery cycles and nested-failure replanning,
    /// so a permanently-failing scenario ends in a typed error instead
    /// of a livelock.
    pub max_recovery_attempts: u32,
    /// The size of the worker pool the engine runs slot tasks on.
    #[serde(default)]
    pub executor: ExecutorConfig,
    /// Shuffle data-path tuning (store shards).
    #[serde(default)]
    pub shuffle: ShuffleConfig,
    /// Retry budgets and seeded backoff for recovery paths.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Which placement kernel the scheduler assigns waves with.
    #[serde(default)]
    pub placement: PlacementKernel,
    /// Memory-budgeted inter-job block cache (disabled by default).
    #[serde(default)]
    pub chain_cache: ChainCacheConfig,
}

impl ClusterConfig {
    /// A small default suitable for tests: 4 nodes, slots 1-1, 1 MiB blocks.
    pub fn small_test(nodes: u32) -> Self {
        Self {
            nodes,
            slots: SlotConfig::ONE_ONE,
            block_size: ByteSize::mib(1),
            seed: 0xc0ffee,
            max_recovery_attempts: 100,
            executor: ExecutorConfig::default(),
            shuffle: ShuffleConfig::default(),
            retry: RetryPolicy::default(),
            placement: PlacementKernel::default(),
            chain_cache: ChainCacheConfig::default(),
        }
    }

    /// STIC-like config from the paper: 10 nodes, 256 MB blocks.
    pub fn stic(slots: SlotConfig) -> Self {
        Self {
            nodes: 10,
            slots,
            block_size: ByteSize::mib(256),
            seed: 0x57_1c,
            max_recovery_attempts: 100,
            executor: ExecutorConfig::default(),
            shuffle: ShuffleConfig::default(),
            retry: RetryPolicy::default(),
            placement: PlacementKernel::default(),
            chain_cache: ChainCacheConfig::default(),
        }
    }

    /// DCO-like config from the paper: 60 nodes, 256 MB blocks.
    pub fn dco() -> Self {
        Self {
            nodes: 60,
            slots: SlotConfig::ONE_ONE,
            block_size: ByteSize::mib(256),
            seed: 0xdc0,
            max_recovery_attempts: 100,
            executor: ExecutorConfig::default(),
            shuffle: ShuffleConfig::default(),
            retry: RetryPolicy::default(),
            placement: PlacementKernel::default(),
            chain_cache: ChainCacheConfig::default(),
        }
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::Config("cluster needs at least one node".into()));
        }
        if self.slots.map == 0 || self.slots.reduce == 0 {
            return Err(Error::Config("slots per node must be positive".into()));
        }
        if self.block_size.is_zero() {
            return Err(Error::Config("block size must be positive".into()));
        }
        if self.max_recovery_attempts == 0 {
            return Err(Error::Config(
                "max recovery attempts must be at least 1".into(),
            ));
        }
        if self.shuffle.store_shards == 0 {
            return Err(Error::Config("store shards must be at least 1".into()));
        }
        self.retry.validate()?;
        self.chain_cache.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let stic = ClusterConfig::stic(SlotConfig::ONE_ONE);
        assert_eq!(stic.nodes, 10);
        assert_eq!(stic.block_size, ByteSize::mib(256));
        let dco = ClusterConfig::dco();
        assert_eq!(dco.nodes, 60);
        assert!(stic.validate().is_ok());
        assert!(dco.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate() {
        let mut c = ClusterConfig::small_test(0);
        assert!(c.validate().is_err());
        c.nodes = 2;
        c.slots = SlotConfig::new(0, 1);
        assert!(c.validate().is_err());
        c.slots = SlotConfig::ONE_ONE;
        c.block_size = ByteSize::ZERO;
        assert!(c.validate().is_err());
        c.block_size = ByteSize::mib(1);
        c.max_recovery_attempts = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn executor_defaults_to_an_auto_sized_pool() {
        let cfg = ClusterConfig::small_test(4);
        assert_eq!(cfg.executor.workers, 0);
        assert_eq!(
            ExecutorConfig::async_workers(8),
            ExecutorConfig { workers: 8 }
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_site_distinct() {
        let r = RetryPolicy::default();
        // Same (site, attempt) always yields the same delay.
        assert_eq!(r.backoff_ms(42, 1), r.backoff_ms(42, 1));
        assert_eq!(r.schedule(42, 4), r.schedule(42, 4));
        // Every delay respects the per-attempt ceiling and the hard cap.
        for attempt in 1..=32 {
            let ceiling = r
                .base_backoff_ms
                .saturating_mul(1u64 << (attempt - 1).min(16))
                .min(r.max_backoff_ms);
            assert!(r.backoff_ms(7, attempt) <= ceiling);
        }
        // Distinct sites get distinct schedules (no retry herd).
        let schedules: Vec<_> = (0..8u64).map(|s| r.schedule(s, 6)).collect();
        let mut uniq = schedules.clone();
        uniq.sort();
        uniq.dedup();
        assert!(uniq.len() > 1, "all sites backed off in lockstep");
        // Zero base or cap disables delays entirely.
        assert_eq!(RetryPolicy::no_backoff().backoff_ms(42, 5), 0);
    }

    #[test]
    fn retry_validation() {
        assert!(RetryPolicy::default().validate().is_ok());
        let r = RetryPolicy {
            shuffle_attempts: 0,
            ..Default::default()
        };
        assert!(r.validate().is_err());
        let r = RetryPolicy {
            task_retries: 0,
            ..Default::default()
        };
        assert!(r.validate().is_err());
        let r = RetryPolicy {
            max_backoff_ms: RetryPolicy::default().base_backoff_ms - 1,
            ..Default::default()
        };
        assert!(r.validate().is_err());
        let mut c = ClusterConfig::small_test(4);
        c.retry.shuffle_attempts = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn placement_labels() {
        assert_eq!(PlacementKernel::Default.label(), "default");
        assert_eq!(PlacementKernel::RackAware.label(), "rack");
        assert_eq!(PlacementKernel::Delay { rounds: 3 }.label(), "delay:3");
        assert_eq!(PlacementKernel::CapacityWeighted.label(), "capacity");
        assert_eq!(PlacementKernel::Stable.label(), "stable");
        assert_eq!(
            ClusterConfig::small_test(2).placement,
            PlacementKernel::Default
        );
    }

    #[test]
    fn chain_cache_validation() {
        assert!(ChainCacheConfig::default().validate().is_ok());
        assert!(!ChainCacheConfig::default().enabled);
        assert!(ChainCacheConfig::enabled(ByteSize::mib(8))
            .validate()
            .is_ok());
        assert!(ChainCacheConfig::enabled(ByteSize::ZERO)
            .validate()
            .is_err());
        let mut c = ClusterConfig::small_test(4);
        c.chain_cache = ChainCacheConfig::enabled(ByteSize::ZERO);
        assert!(c.validate().is_err());
    }
}
