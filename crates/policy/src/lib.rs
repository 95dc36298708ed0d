//! # rcmp-policy — the shared scheduling & recovery policy kernel
//!
//! Every phenomenon the paper measures — waves (§II), data-locality
//! tie-breaking (§III-A), recomputation spreading and hot-spots (§IV-B),
//! reducer splitting and spread-output mitigation (§IV-B1/2) — is a
//! *decision*, not a mechanism. This crate holds the single
//! implementation of those decisions, expressed over backend-agnostic
//! traits, so the real engine (`rcmp-engine`) and the discrete-event
//! simulator (`rcmp-sim`) execute literally the same code and agree by
//! construction rather than by test discipline.
//!
//! The shape follows M3R's argument for one well-factored execution core
//! reused across running modes, and Binocular Speculation's argument
//! that recovery *policy* should be a first-class module separable from
//! the execution substrate:
//!
//! * [`SliceTopology`] — what the kernel needs to know about a cluster:
//!   live nodes, per-phase slot counts, the placement kernel, and the
//!   capacities and racks that kernel reads. Both backends build it
//!   with [`SliceTopology::for_kernel`] from a [`Membership`] snapshot.
//! * [`MapTaskSet`] / [`ReduceTaskSet`] — what it needs to know about
//!   the work: task count, replica/primary-holder and chain-cache
//!   queries, partition keys. [`FnMapTasks`] / [`FnReduceTasks`] adapt
//!   closures.
//! * [`assign_map_waves`] / [`assign_reduce_waves`] — the wave kernels,
//!   one entry point per phase for every placement kernel (default,
//!   rack-aware, delay scheduling, capacity-weighted, partition-stable;
//!   `rcmp_model::PlacementKernel`), all running one claim loop.
//! * [`RecomputePlan`] — the unified recomputation instruction set that
//!   `rcmp-engine::RecomputeInstructions` and `rcmp-sim::RecomputeSpec`
//!   are re-exports of; [`reduce_task_set`] expands a run into its
//!   whole or split reduce tasks for both backends, and [`job_init`]
//!   decides, over an [`InputView`] of the job's input, which mappers
//!   a run re-runs and whether its input is lost.
//! * [`chain`] — the middleware program itself: [`plan_cascade`] (the
//!   backward lineage walk to the minimum recomputation plan), the
//!   replication cadence, and [`drive_chain`], the chain control loop
//!   generic over a [`ChainBackend`]; the engine's `ChainDriver` and
//!   the simulator's `chainsim` are its two backends. The loop writes
//!   the one [`EventLog`] of [`ChainEvent`]s both report. [`Strategy`]
//!   is the menu it runs under.
//! * [`job`] — one job run: JobInit, the map and reduce rounds in
//!   slot-bounded waves with their fault points, per-task retry budgets
//!   and the damage re-check, as [`run_job`] over a [`JobBackend`]. The
//!   engine's `JobTracker` and the simulator's `JobSim` are its two
//!   backends, so a crash in the middle of a job replays on either
//!   clock. The machine and the chain loop write a chain's spans, so
//!   its trace reads the same on both clocks.
//! * [`choose_mitigation`] — hot-spot mitigation selection (split vs
//!   spread-output, §IV-B2) shared by the middleware and the simulator.
//! * [`PolicyCtx`] — `rcmp-obs` instrumentation of the wave kernels:
//!   the job machine traces every placement decision of a run under its
//!   `JobRun` span, in both backends.
//! * [`adapt`] — closed-loop adaptive resilience: the online
//!   failure-intensity estimator and the [`AdaptivePolicy`] that
//!   re-derives the replication cadence from it, shared (like the wave
//!   kernels) by the engine and the simulator so their decision
//!   sequences agree byte for byte.
//! * [`FailureAt`] — the fault script, `(run, TriggerPoint, Fault)`
//!   with no clock in it: the engine's injector, the simulator and the
//!   chain-machine model replay the same entries.
//! * [`Membership`] — the versioned, mutable node set: each node's
//!   status, capacity and rack, with join / drain / decommission /
//!   rejoin / death transitions and epoch numbers. Each backend keeps
//!   exactly one (the engine's DFS, the simulator's state) and every
//!   scheduling, placement and read decision reads it.
//! * [`CacheLedger`] — chain-cache admission, LRU-with-pin eviction and
//!   spill bookkeeping; the engine hangs payloads off it, the simulator
//!   prices reads against it.
//! * [`replica_targets`] — the one replica-target rule: where each
//!   copy of a block goes, a pure function of the block's position
//!   ([`segment_key`], [`block_key`]), the seed, the writer and the
//!   [`Membership`] (rendezvous weight, then HDFS's rack order over the
//!   racks the rack-aware kernel reads). The engine's DFS writes,
//!   re-replicates and re-homes a decommissioned node's replicas
//!   through it, and so does the simulator; both go ahead with fewer
//!   copies than the factor down to [`MIN_REPLICAS`].
//! * [`DrrArbiter`] — cross-tenant fair-share arbitration (weighted
//!   deficit round-robin with per-tenant in-flight quotas), the tier
//!   *above* the wave kernels that the `rcmp-serve` job service uses to
//!   decide whose chain runs next; [`jain_index`] scores the outcome.

#![deny(missing_docs)]

pub mod adapt;
mod cache;
pub mod chain;
mod fair;
mod fault;
pub mod job;
mod membership;
mod mitigation;
mod plan;
mod strategy;
mod tasks;
mod topology;
mod waves;

pub use adapt::{
    expected_chain_time, optimal_interval, AdaptConfig, AdaptationStep, AdaptivePolicy,
    DynamicPolicy, FailureIntensityEstimator, FaultObserver,
};
pub use cache::CacheLedger;
pub use chain::{
    drive_chain, plan_cascade, ChainBackend, ChainConfig, ChainEvent, ChainSummary, Clock,
    EventLog, LineageView, Loss, Reclaimed, RecoveryPlan, RecoveryStep, RecoveryTimes, RunOutcome,
    Stamp, TaskCounts,
};
pub use fair::{jain_index, DrrArbiter, Grant, TenantShare};
pub use fault::{FailureAt, Fault, TriggerPoint};
pub use job::{run_job, JobBackend, JobShape, JobTally, MapResult, ReduceResult};
pub use membership::{Membership, NodeInfo, NodeStatus};
pub use mitigation::{choose_mitigation, HotspotMitigation, MitigationChoice, SplitPolicy};
pub use plan::{job_init, reduce_task_set, reduce_tasks_for, InputView, MapInput, RecomputePlan};
pub use strategy::Strategy;
pub use tasks::{FnMapTasks, FnReduceTasks, MapTaskSet, ReduceTaskSet};
pub use topology::{
    block_key, decommission_target, replica_targets, segment_key, PlacementPolicy, SliceTopology,
    MIN_REPLICAS,
};
pub use waves::{
    assign_map_waves, assign_reduce_waves, PolicyCtx, ReduceAssignment, WaveAssignment,
};
