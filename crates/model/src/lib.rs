//! Shared domain types for the RCMP reproduction.
//!
//! This crate defines the vocabulary used by every other crate in the
//! workspace: identifiers for nodes, jobs, tasks, partitions and blocks;
//! the key-value [`record`] representation and its binary codec; cluster
//! and job [`config`]; the hash [`partition`]er (including the
//! second-level *split* partitioner used by RCMP's reducer splitting);
//! byte-size [`units`]; deterministic [`rng`] helpers; and the common
//! [`error`] type.
//!
//! Nothing in this crate is RCMP-specific policy — it is the neutral
//! substrate shared by the real execution engine (`rcmp-engine`), the
//! discrete-event simulator (`rcmp-sim`) and the recomputation planner
//! (`rcmp-core`).

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod partition;
pub mod record;
pub mod rng;
pub mod units;

pub use config::{
    ChainCacheConfig, ClusterConfig, ExecutorConfig, PlacementKernel, RetryPolicy, ServeConfig,
    ShuffleConfig, SlotConfig,
};
pub use error::{Error, Result};
pub use ids::{
    BlockId, JobId, MapTaskId, NodeId, PartitionId, ReduceTaskId, SplitId, TaskId, TenantId,
};
pub use partition::{HashPartitioner, Partitioner, SplitPartitioner};
pub use record::{Record, RecordReader, RecordWriter};
pub use units::ByteSize;
