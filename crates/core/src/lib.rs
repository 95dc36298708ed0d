//! RCMP: recomputation-based failure resilience for multi-job MapReduce.
//!
//! This crate is the paper's contribution, layered as *policy* over the
//! execution engine's mechanisms:
//!
//! * [`dag`] — the middleware's job-dependency graph: which job produces
//!   which file, who consumes it (§IV-A's "middleware program uses the
//!   dependencies to decide the order of job submission");
//! * [`planner`] — on irreversible data loss, walks the dependency graph
//!   backwards and emits the **minimum** recomputation plan: for each
//!   affected job, exactly the reducer partitions to regenerate, in
//!   dependency order (Fig. 1), accounting for persisted map outputs and
//!   for the Fig.-5 invalidation that reducer splitting causes;
//! * [`strategy`] — the failure-resilience strategies the evaluation
//!   compares: RCMP (with/without splitting), Hadoop-style replication
//!   (REPL-2/REPL-3), OPTIMISTIC, and the hybrid of §IV-C;
//! * [`driver`] — runs a job chain under a strategy, reacting to
//!   failures: cancelling broken jobs, executing recovery plans
//!   (including nested failures during recovery), replicating every
//!   k-th output in hybrid mode;
//! * [`reclaim`] — storage reclamation at replication points;
//! * [`events`] — a structured event log of everything the middleware
//!   does, for tests and reports.

pub mod dag;
pub mod driver;
pub mod dynamic;
pub mod events;
pub mod planner;
pub mod reclaim;
pub mod strategy;

pub use dag::JobGraph;
pub use driver::{ChainDriver, ChainOutcome};
pub use dynamic::{
    AdaptConfig, AdaptationStep, AdaptivePolicy, DynamicPolicy, FailureIntensityEstimator,
    FaultObserver,
};
pub use events::{ChainEvent, EventLog};
pub use planner::{plan_recovery, RecoveryPlan, RecoveryStep};
pub use strategy::{HotspotMitigation, SplitPolicy, Strategy};
