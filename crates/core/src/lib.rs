//! RCMP: recomputation-based failure resilience for multi-job MapReduce.
//!
//! This crate is the paper's contribution on the real engine. The
//! decisions themselves — the chain control loop, the backward lineage
//! walk, the strategy menu — live in `rcmp-policy`, shared with the
//! simulator; this crate binds them to the engine's mechanisms:
//!
//! * [`dag`] — the middleware's job-dependency graph: which job produces
//!   which file, who consumes it (§IV-A's "middleware program uses the
//!   dependencies to decide the order of job submission");
//! * [`planner`] — the planner's view of real cluster state (DFS
//!   metadata, persisted map outputs and their fingerprints, which is
//!   where the Fig.-5 invalidation comes from) and [`plan_recovery`]
//!   over it: the **minimum** recomputation plan, in dependency order
//!   (Fig. 1);
//! * [`strategy`] — the failure-resilience strategies the evaluation
//!   compares: RCMP (with/without splitting), Hadoop-style replication
//!   (REPL-2/REPL-3), OPTIMISTIC, and the hybrid of §IV-C;
//! * [`driver`] — [`ChainDriver`], the engine backend of the chain
//!   loop: real job runs, cancellations, recovery runs, replication
//!   points, mirrored into the cluster's tracer as the loop logs them;
//! * [`reclaim`] — storage reclamation at replication points.
//!
//! [`ChainEvent`] and [`EventLog`] — the structured record of
//! everything the middleware does — are the loop's, re-exported here.

pub mod dag;
pub mod driver;
pub mod planner;
pub mod reclaim;
pub mod strategy;

pub use dag::JobGraph;
pub use driver::{ChainDriver, ChainOutcome};
pub use planner::{plan_recovery, RecoveryPlan, RecoveryStep};
pub use rcmp_policy::adapt::{
    AdaptConfig, AdaptationStep, AdaptivePolicy, DynamicPolicy, FailureIntensityEstimator,
    FaultObserver,
};
pub use rcmp_policy::{ChainEvent, EventLog};
pub use strategy::{HotspotMitigation, SplitPolicy, Strategy};
