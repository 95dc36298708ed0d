//! An HDFS-like distributed file system substrate.
//!
//! The RCMP paper runs on Hadoop's HDFS; this crate provides the
//! equivalent substrate for the real execution engine in `rcmp-engine`:
//!
//! * files are **partitioned**: a job's output file has one partition
//!   per reducer, which is what lets lost key-value pairs be traced back
//!   to the reducer that produced them (the paper's §IV assumption);
//! * partitions are stored as **segments** of replicated, fixed-size
//!   **blocks** — a segment is what one writer (a reducer, or one split
//!   of a reducer) produced, so a split recomputation naturally spreads
//!   a partition's data over many nodes;
//! * replica **placement** is writer-local first (collocated clusters,
//!   §II), remote replicas on random distinct live nodes; a `Spread`
//!   policy implements the paper's alternative hot-spot mitigation
//!   (§IV-B2) where reducers scatter their output over many nodes;
//! * **node failure** atomically drops the node's block store and
//!   reports which partitions of which files lost *all* replicas —
//!   the irreversible-data-loss events that trigger RCMP recovery;
//! * **membership is elastic**: nodes can join (fresh, empty,
//!   immediately placable), drain (readable but no longer a placement
//!   target), decommission (replicas rebalanced away deterministically,
//!   then the store is wiped — nothing is ever lost) and rejoin. The
//!   lifecycle states are `rcmp_policy::NodeStatus`, the same model the
//!   scheduler's membership snapshots use.
//!
//! Everything is in-memory (a node's "disk" is a locked hash map): the
//! engine exercises real data paths and real concurrency, while wall
//! clock performance at cluster scale is the job of `rcmp-sim`.

pub mod block;
pub mod chain_cache;
pub mod namespace;
pub mod placement;
pub mod report;
pub mod storage;

mod dfs;

pub use block::{BlockInfo, BlockLocation};
pub use chain_cache::{ChainCache, ChainCacheStats};
pub use dfs::{Dfs, DfsConfig};
pub use namespace::{FileMeta, PartitionMeta, SegmentMeta};
pub use placement::PlacementPolicy;
pub use report::{LossReport, RebalanceReport};
pub use storage::NodeAccessStats;
