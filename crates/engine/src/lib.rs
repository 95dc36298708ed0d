//! A real, multi-threaded MapReduce execution engine.
//!
//! This crate is the Hadoop-equivalent substrate the RCMP paper modifies:
//! jobs with user-defined [`udf::Mapper`]s and [`udf::Reducer`]s run over
//! a replicated DFS (`rcmp-dfs`) on a cluster of node executors with
//! mapper/reducer **slots**, **wave** scheduling, an all-to-all
//! **shuffle**, and **failure injection** at wave boundaries.
//!
//! RCMP-specific mechanisms live here as *mechanism*, with the *policy*
//! in `rcmp-core`:
//!
//! * the [`mapstore::MapOutputStore`] persists map outputs across jobs,
//!   keyed by the input block's position and content fingerprint — the
//!   fingerprint check is what makes persisted-output reuse safe in the
//!   presence of reducer splitting (the paper's Fig.-5 rule);
//! * a [`job::RunMode::Recompute`] run executes only the minimum task
//!   set: the reducers named in the instructions (optionally split
//!   `k`-ways) plus the mappers whose persisted outputs are missing or
//!   invalidated;
//! * split reducers fetch from persisted whole-partition buckets with
//!   server-side filtering by the second-level hash, and write their
//!   output as separate partition *segments*, which spreads the
//!   partition over many nodes (the hot-spot mitigation of §IV-B2).
//!
//! Everything executes for real — real bytes through real threads — so
//! correctness properties (exact output equivalence under arbitrary
//! failure/recovery sequences) are checked on actual data paths. Timing
//! at paper scale is the job of `rcmp-sim`.

pub mod cluster;
pub mod codec;
pub mod failure;
pub mod job;
pub mod mapstore;
pub mod metrics;
pub mod scheduler;
pub mod shuffle;
pub mod task;
pub mod tracker;
pub mod udf;

pub use cluster::Cluster;
pub use failure::{
    FailureAt, FailureInjector, Fault, NoFailures, ProgressEvent, RandomizedInjector,
    ScriptedInjector, TriggerPoint,
};
pub use job::{JobRun, JobSpec, RecomputeInstructions, RunMode};
pub use mapstore::{BucketIndex, MapInputKey, MapOutputStore};
pub use metrics::{IoBytes, JobReport, TaskRecord};
pub use shuffle::{MergeStats, ShuffleFailure, StreamingShuffle};
pub use tracker::JobTracker;
pub use udf::{
    Combiner, FnCombiner, FnMapper, FnReducer, IdentityMapper, IdentityReducer, Mapper, Reducer,
};
