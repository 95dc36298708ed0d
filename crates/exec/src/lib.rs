//! `rcmp-exec`: the wave executor of the RCMP engine.
//!
//! The engine executes a job as a sequence of *waves*: a batch of slot
//! tasks assigned by the policy kernel, run concurrently, whose
//! outcomes are collected in input order before the next wave starts.
//! Every wave takes one path: the job opens a session with
//! [`BackendExecutor::with_session`] and submits each wave through
//! [`Session::run_wave`].
//!
//! One executor serves it: a job-scoped worker pool. The session spawns
//! `workers` scoped threads once per job (M3R's long-lived workers, not
//! Hadoop's process per slot); each wave publishes its tasks in a
//! seeded permutation, workers claim indices with one atomic cursor,
//! run each body under `catch_unwind`, and store each outcome at its
//! input index. A worker with nothing left to claim parks on the wave
//! until its last task resolves. Thousands of simulated slots run in
//! one process with at most `workers` OS threads.
//!
//! Faults commit at the wave boundary and outcomes are input-ordered,
//! so the worker count decides nothing the engine observes: recovery
//! event logs and golden chain digests are the same at 1, 2 and auto
//! workers.

#![deny(missing_docs)]

mod budget;
mod metrics;
mod pool;
mod task;

pub use budget::{WorkerBudget, WorkerLease};
pub use pool::{BackendExecutor, Session};
pub use task::{SlotOutcome, SlotTask, TaskCtx};

use rcmp_obs::SpanId;

/// Identity and instrumentation for one wave submission.
#[derive(Clone, Copy, Debug)]
pub struct WaveSpec {
    /// Domain label for the wave's seed stream (e.g. `"map-wave"`).
    pub label: &'static str,
    /// Seed for the wave's claim order. Derive it from the cluster seed
    /// and the wave index so replays are bit-identical.
    pub seed: u64,
    /// Span to parent the pool's `ExecutorWave` span under.
    pub parent: Option<SpanId>,
}

impl WaveSpec {
    /// A spec with no span parent.
    pub fn new(label: &'static str, seed: u64) -> Self {
        Self {
            label,
            seed,
            parent: None,
        }
    }

    /// Parents the pool's instrumentation span under `parent`.
    pub fn with_parent(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }
}
