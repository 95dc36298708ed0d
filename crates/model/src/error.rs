//! The workspace-wide error type.
//!
//! One flat enum keeps error plumbing simple across the DFS, engine and
//! planner crates; variants carry enough context to render a useful
//! message without borrowing.

use crate::ids::{JobId, NodeId, PartitionId, TaskId, TenantId};
use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the DFS, the engine and the RCMP middleware.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// A DFS path does not exist in the namespace.
    FileNotFound(String),
    /// A DFS path already exists and overwrite was not requested.
    FileExists(String),
    /// All replicas of a block (or a whole partition) are gone.
    DataLoss {
        path: String,
        partition: Option<PartitionId>,
    },
    /// A node id is unknown or the node is dead.
    NodeUnavailable(NodeId),
    /// Every node in the cluster is dead: there is nowhere to place a
    /// task. Surfaced by the scheduling kernel instead of aborting, so
    /// a fully-failed cluster escalates through normal error plumbing.
    NoLiveNodes,
    /// Not enough live nodes to place the requested number of replicas.
    InsufficientReplicaTargets { wanted: usize, alive: usize },
    /// A task failed (node death mid-task, or a UDF error).
    TaskFailed { task: TaskId, reason: String },
    /// A job cannot continue: some of its input was irreversibly lost.
    /// Carries what the middleware needs to plan recovery.
    JobInputLost {
        job: JobId,
        lost_partitions: Vec<PartitionId>,
    },
    /// The whole job failed for a non-recoverable reason.
    JobFailed { job: JobId, reason: String },
    /// Recovery gave up: the configured retry/replanning budget
    /// (`ClusterConfig::max_recovery_attempts`, or the engine's per-task
    /// retry budget) was exhausted without converging. Surfaced instead
    /// of looping forever on a permanently-failing scenario.
    RecoveryExhausted {
        job: JobId,
        attempts: u32,
        reason: String,
    },
    /// The job service refused a chain submission: the tenant's bounded
    /// submission queue is full (or the tenant is unknown). Carries a
    /// seeded-backoff retry hint so rejected clients don't hammer the
    /// admission path in lockstep (the PR 6 retry-herd convention).
    AdmissionRejected {
        tenant: TenantId,
        /// Suggested wait before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// The wave executor shut down before running a task to completion:
    /// a worker observed a poisoned wave (panicked task or fatal-fault
    /// cancellation) and abandoned the remaining slot tasks.
    ExecutorShutdown { reason: String },
    /// A job was cancelled by the middleware (e.g. to start recovery).
    JobCancelled(JobId),
    /// The user asked to split a reducer of a job marked unsplittable
    /// (e.g. the paper's top-k example, §IV-B1).
    UnsplittableJob(JobId),
    /// Malformed record stream (codec error).
    Codec(String),
    /// Invalid configuration (zero nodes, zero slots, …).
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::FileNotFound(p) => write!(f, "file not found: {p}"),
            Error::FileExists(p) => write!(f, "file already exists: {p}"),
            Error::DataLoss { path, partition } => match partition {
                Some(pt) => write!(f, "irreversible data loss: {path} partition {pt}"),
                None => write!(f, "irreversible data loss: {path}"),
            },
            Error::NodeUnavailable(n) => write!(f, "node unavailable: {n}"),
            Error::NoLiveNodes => write!(f, "no live nodes to schedule on"),
            Error::InsufficientReplicaTargets { wanted, alive } => {
                write!(f, "cannot place {wanted} replicas: only {alive} live nodes")
            }
            Error::TaskFailed { task, reason } => write!(f, "task {task} failed: {reason}"),
            Error::JobInputLost {
                job,
                lost_partitions,
            } => write!(
                f,
                "job {job} input lost ({} partitions)",
                lost_partitions.len()
            ),
            Error::JobFailed { job, reason } => write!(f, "job {job} failed: {reason}"),
            Error::RecoveryExhausted {
                job,
                attempts,
                reason,
            } => write!(
                f,
                "recovery exhausted for job {job} after {attempts} attempts: {reason}"
            ),
            Error::AdmissionRejected {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "admission rejected for tenant {tenant}: queue full, retry after {retry_after_ms} ms"
            ),
            Error::ExecutorShutdown { reason } => {
                write!(f, "executor shut down: {reason}")
            }
            Error::JobCancelled(j) => write!(f, "job {j} cancelled"),
            Error::UnsplittableJob(j) => write!(f, "job {j} does not allow reducer splitting"),
            Error::Codec(m) => write!(f, "record codec error: {m}"),
            Error::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MapTaskId;

    #[test]
    fn display_messages() {
        assert_eq!(
            Error::FileNotFound("out/1".into()).to_string(),
            "file not found: out/1"
        );
        assert_eq!(
            Error::NodeUnavailable(NodeId(2)).to_string(),
            "node unavailable: n2"
        );
        assert_eq!(
            Error::NoLiveNodes.to_string(),
            "no live nodes to schedule on"
        );
        let e = Error::TaskFailed {
            task: MapTaskId::new(JobId(1), 3).into(),
            reason: "node died".into(),
        };
        assert_eq!(e.to_string(), "task j1/M3 failed: node died");
    }

    #[test]
    fn recovery_exhausted_message() {
        let e = Error::RecoveryExhausted {
            job: JobId(3),
            attempts: 8,
            reason: "reduce task kept failing".into(),
        };
        assert_eq!(
            e.to_string(),
            "recovery exhausted for job j3 after 8 attempts: reduce task kept failing"
        );
    }

    #[test]
    fn admission_rejected_message() {
        let e = Error::AdmissionRejected {
            tenant: TenantId(3),
            retry_after_ms: 12,
        };
        assert_eq!(
            e.to_string(),
            "admission rejected for tenant t3: queue full, retry after 12 ms"
        );
    }

    #[test]
    fn executor_shutdown_message() {
        let e = Error::ExecutorShutdown {
            reason: "map task panicked in wave 0".into(),
        };
        assert_eq!(
            e.to_string(),
            "executor shut down: map task panicked in wave 0"
        );
    }

    #[test]
    fn data_loss_with_partition() {
        let e = Error::DataLoss {
            path: "out/2".into(),
            partition: Some(PartitionId(5)),
        };
        assert!(e.to_string().contains("partition p5"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::JobCancelled(JobId(1)));
    }
}
