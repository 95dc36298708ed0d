//! Strongly-typed identifiers.
//!
//! Every entity that crosses a crate boundary gets a newtype id so that
//! a mapper index can never be confused with a node index or a reducer
//! partition. All ids are small `Copy` integers; collections key on them
//! with the standard hasher (ids are dense, so hashing is never hot
//! enough to matter — see the workspace perf notes).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name(pub $repr);

        impl $name {
            /// Returns the raw integer value.
            #[inline]
            pub fn raw(self) -> $repr {
                self.0
            }

            /// Returns the id as a `usize` index (for dense vectors).
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$repr> for $name {
            #[inline]
            fn from(v: $repr) -> Self {
                Self(v)
            }
        }

        impl From<$name> for $repr {
            #[inline]
            fn from(id: $name) -> Self {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }
    };
}

id_type!(
    /// A compute/storage node in the (collocated) cluster.
    NodeId,
    "n",
    u32
);
id_type!(
    /// A logical job in a multi-job computation. This is the *position in
    /// the chain/DAG* (stable across recomputations), not the paper's
    /// "next available integer" run counter — runs are counted separately
    /// by the middleware.
    JobId,
    "j",
    u32
);
id_type!(
    /// A reducer output partition within one job's output file. The paper
    /// assumes job output files are divided into one partition per
    /// reducer so lost key-value pairs can be traced to the reducer that
    /// produced them (§IV).
    PartitionId,
    "p",
    u32
);
id_type!(
    /// A split of a recomputed reducer (RCMP's finer scheduling
    /// granularity, §IV-B1). `SplitId(i)` of `k` handles the keys with
    /// `hash2(key) % k == i`.
    SplitId,
    "s",
    u32
);
id_type!(
    /// A block of a DFS file (unit of replication and of mapper input).
    BlockId,
    "b",
    u64
);
id_type!(
    /// A tenant of the multi-tenant job service (`rcmp-serve`). Every
    /// admitted chain belongs to exactly one tenant; the id scopes
    /// fair-share accounting, quota enforcement, span attribution and
    /// per-tenant observability.
    TenantId,
    "t",
    u32
);

/// Identifies one mapper task: the `index`-th input block of `job`.
///
/// Mapper identity is stable across recomputations: recomputing job `j`
/// re-runs a *subset* of the same mapper ids, which is what lets RCMP
/// reuse persisted map outputs from the initial run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MapTaskId {
    pub job: JobId,
    pub index: u32,
}

impl MapTaskId {
    pub fn new(job: JobId, index: u32) -> Self {
        Self { job, index }
    }
}

impl fmt::Display for MapTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/M{}", self.job, self.index)
    }
}

impl fmt::Debug for MapTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Identifies one reducer task: the reducer producing `partition` of
/// `job`'s output, optionally one *split* of it during a recomputation
/// run (`split = Some((id, of))` means split `id` out of `of`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReduceTaskId {
    pub job: JobId,
    pub partition: PartitionId,
    /// `None` for a whole (unsplit) reducer; `Some((i, k))` for split `i`
    /// of `k` during recomputation.
    pub split: Option<(SplitId, u32)>,
}

impl ReduceTaskId {
    /// A whole (unsplit) reducer.
    pub fn whole(job: JobId, partition: PartitionId) -> Self {
        Self {
            job,
            partition,
            split: None,
        }
    }

    /// Split `i` of `k` of the reducer for `partition`.
    pub fn split(job: JobId, partition: PartitionId, i: SplitId, of: u32) -> Self {
        debug_assert!(i.raw() < of, "split index out of range");
        Self {
            job,
            partition,
            split: Some((i, of)),
        }
    }

    /// True if this task is a split of a reducer rather than a whole one.
    pub fn is_split(&self) -> bool {
        self.split.is_some()
    }
}

impl fmt::Display for ReduceTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.split {
            None => write!(f, "{}/R{}", self.job, self.partition.raw()),
            Some((i, k)) => write!(
                f,
                "{}/R{}.{}of{}",
                self.job,
                self.partition.raw(),
                i.raw(),
                k
            ),
        }
    }
}

impl fmt::Debug for ReduceTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Either kind of task (for schedulers, metrics and failure reports).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum TaskId {
    Map(MapTaskId),
    Reduce(ReduceTaskId),
}

impl TaskId {
    pub fn job(&self) -> JobId {
        match self {
            TaskId::Map(m) => m.job,
            TaskId::Reduce(r) => r.job,
        }
    }

    pub fn is_map(&self) -> bool {
        matches!(self, TaskId::Map(_))
    }
}

impl From<MapTaskId> for TaskId {
    fn from(m: MapTaskId) -> Self {
        TaskId::Map(m)
    }
}

impl From<ReduceTaskId> for TaskId {
    fn from(r: ReduceTaskId) -> Self {
        TaskId::Reduce(r)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskId::Map(m) => write!(f, "{m}"),
            TaskId::Reduce(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(JobId(1).to_string(), "j1");
        assert_eq!(MapTaskId::new(JobId(2), 7).to_string(), "j2/M7");
        assert_eq!(
            ReduceTaskId::whole(JobId(2), PartitionId(4)).to_string(),
            "j2/R4"
        );
        assert_eq!(
            ReduceTaskId::split(JobId(2), PartitionId(4), SplitId(1), 8).to_string(),
            "j2/R4.1of8"
        );
    }

    #[test]
    fn index_roundtrip() {
        let n = NodeId::from(42u32);
        assert_eq!(n.index(), 42);
        assert_eq!(n.raw(), 42);
    }

    #[test]
    fn task_id_job_accessor() {
        let m: TaskId = MapTaskId::new(JobId(5), 0).into();
        let r: TaskId = ReduceTaskId::whole(JobId(6), PartitionId(0)).into();
        assert_eq!(m.job(), JobId(5));
        assert_eq!(r.job(), JobId(6));
        assert!(m.is_map());
        assert!(!r.is_map());
    }

    #[test]
    fn split_predicate() {
        assert!(!ReduceTaskId::whole(JobId(0), PartitionId(0)).is_split());
        assert!(ReduceTaskId::split(JobId(0), PartitionId(0), SplitId(0), 2).is_split());
    }

    #[test]
    fn ordering_is_by_fields() {
        let a = ReduceTaskId::whole(JobId(1), PartitionId(0));
        let b = ReduceTaskId::whole(JobId(1), PartitionId(1));
        let c = ReduceTaskId::whole(JobId(2), PartitionId(0));
        assert!(a < b && b < c);
    }
}
