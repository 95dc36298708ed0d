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
//!   whole or split reduce tasks for both backends.
//! * [`chain`] — the middleware program itself: [`plan_cascade`] (the
//!   backward lineage walk to the minimum recomputation plan), the
//!   replication cadence, and [`drive_chain`], the chain control loop
//!   generic over a [`ChainBackend`]; the engine's `ChainDriver` and
//!   the simulator's `chainsim` are its two backends. The loop writes
//!   the one [`EventLog`] of [`ChainEvent`]s both report. [`Strategy`]
//!   is the menu it runs under.
//! * [`choose_mitigation`] — hot-spot mitigation selection (split vs
//!   spread-output, §IV-B2) shared by the middleware and the simulator.
//! * [`PolicyCtx`] — optional `rcmp-obs` instrumentation: every
//!   placement decision can emit a span, in both backends.
//! * [`adapt`] — closed-loop adaptive resilience: the online
//!   failure-intensity estimator and the [`AdaptivePolicy`] that
//!   re-derives the replication cadence from it, shared (like the wave
//!   kernels) by the engine and the simulator so their decision
//!   sequences agree byte for byte.
//! * [`Membership`] — the versioned, mutable node set: join / drain /
//!   decommission / rejoin transitions with epoch numbers, snapshotted
//!   identically by both backends.
//! * [`CacheLedger`] — chain-cache admission, LRU-with-pin eviction and
//!   spill bookkeeping; the engine hangs payloads off it, the simulator
//!   prices reads against it. [`rehome_target`] is the matching single
//!   rule for where a decommissioned node's replicas go.
//! * [`RackTopology`] — the single node→rack layout shared by DFS
//!   replica placement and the rack-aware kernel (formerly duplicated
//!   in `rcmp-dfs`).
//! * [`DrrArbiter`] — cross-tenant fair-share arbitration (weighted
//!   deficit round-robin with per-tenant in-flight quotas), the tier
//!   *above* the wave kernels that the `rcmp-serve` job service uses to
//!   decide whose chain runs next; [`jain_index`] scores the outcome.

#![deny(missing_docs)]

pub mod adapt;
mod cache;
pub mod chain;
mod fair;
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
pub use membership::{rehome_target, Membership, NodeInfo, NodeStatus, Rehome};
pub use mitigation::{choose_mitigation, HotspotMitigation, MitigationChoice, SplitPolicy};
pub use plan::{reduce_task_set, reduce_tasks_for, RecomputePlan};
pub use strategy::Strategy;
pub use tasks::{FnMapTasks, FnReduceTasks, MapTaskSet, ReduceTaskSet};
pub use topology::{rack_aware_order, RackTopology, SliceTopology};
pub use waves::{
    assign_map_waves, assign_reduce_waves, PolicyCtx, ReduceAssignment, WaveAssignment,
};
