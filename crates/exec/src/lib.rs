//! `rcmp-exec`: wave-executor backends for the RCMP engine.
//!
//! The engine executes a job as a sequence of *waves*: a batch of slot
//! tasks assigned by the policy kernel, run concurrently, whose
//! outcomes are collected in input order before the next wave starts.
//! Every wave takes one path: the job opens a session with
//! [`BackendExecutor::with_session`] and submits each wave through
//! [`SessionExecutor::run_wave`]. Two backends serve it:
//!
//! * [`ThreadedExecutor`] — one OS thread per occupied slot per wave
//!   (Hadoop 1.0.3's process-per-slot model, and the engine's original
//!   behaviour, extracted verbatim).
//! * [`AsyncExecutor`] — a hand-rolled cooperative reactor: the session
//!   spawns a bounded pool of worker threads once per job, slot tasks
//!   become futures, a seeded-deterministic ready queue feeds the pool,
//!   and a wake/park condvar keeps idle workers cheap. Thousands of
//!   simulated slots run in one process with at most `workers` OS
//!   threads.
//!
//! Backend choice is configuration (`ExecutorConfig` on
//! `ClusterConfig`), threaded through [`BackendExecutor`] so the
//! engine, the chaos harness and the figure runner never name a
//! concrete backend. Under a fixed seed both backends produce identical
//! schedules and outcome vectors — assignment happens before execution
//! and outcomes are input-ordered — so recovery event logs and golden
//! chain digests agree across backends.

#![deny(missing_docs)]

mod budget;
mod future;
mod metrics;
mod reactor;
mod task;
mod threaded;

pub use budget::{WorkerBudget, WorkerLease};
pub use reactor::{AsyncExecutor, AsyncSession};
pub use task::{SlotOutcome, SlotTask, TaskCtx};
pub use threaded::ThreadedExecutor;

use rcmp_model::{ExecutorConfig, ExecutorKind};
use rcmp_obs::{MetricsRegistry, SpanId, Tracer};
use std::sync::Arc;

/// Identity and instrumentation for one wave submission.
#[derive(Clone, Copy, Debug)]
pub struct WaveSpec {
    /// Domain label for the wave's seed stream (e.g. `"map-wave"`).
    pub label: &'static str,
    /// Seed for the reactor's initial ready-queue order. Derive it from
    /// the cluster seed and the wave index so replays are bit-identical.
    pub seed: u64,
    /// Span to parent the backend's `ExecutorWave` span under.
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

    /// Parents the backend's instrumentation span under `parent`.
    pub fn with_parent(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }
}

/// Configuration-selected backend, so callers hold one concrete type.
pub enum BackendExecutor {
    /// Per-slot OS threads.
    Threaded(ThreadedExecutor),
    /// Cooperative reactor.
    Async(AsyncExecutor),
}

impl BackendExecutor {
    /// Builds the backend named by `cfg` (uninstrumented).
    pub fn from_config(cfg: &ExecutorConfig) -> Self {
        match cfg.backend {
            ExecutorKind::Threaded => BackendExecutor::Threaded(ThreadedExecutor::new()),
            ExecutorKind::Async => BackendExecutor::Async(AsyncExecutor::new(cfg.workers)),
        }
    }

    /// Attaches observability (a no-op for the threaded backend, which
    /// stays byte-identical to the pre-executor engine).
    pub fn with_obs(self, tracer: Arc<Tracer>, registry: &MetricsRegistry) -> Self {
        match self {
            BackendExecutor::Threaded(t) => BackendExecutor::Threaded(t),
            BackendExecutor::Async(a) => BackendExecutor::Async(a.with_obs(tracer, registry)),
        }
    }

    /// Attaches a phase profiler for reactor poll/park attribution (a
    /// no-op for the threaded backend, which has no reactor).
    pub fn with_profiler(self, profiler: Arc<rcmp_obs::PhaseProfiler>) -> Self {
        match self {
            BackendExecutor::Threaded(t) => BackendExecutor::Threaded(t),
            BackendExecutor::Async(a) => BackendExecutor::Async(a.with_profiler(profiler)),
        }
    }

    /// Stable backend name (`"threaded"` / `"async"`).
    pub fn name(&self) -> &'static str {
        match self {
            BackendExecutor::Threaded(_) => "threaded",
            BackendExecutor::Async(_) => "async",
        }
    }

    /// Runs `f` with a job-scoped [`SessionExecutor`].
    ///
    /// For the async backend this spawns the reactor's worker pool once
    /// and serves every wave submitted through the session with it —
    /// a multi-wave job no longer rebuilds its thread pool at every
    /// wave boundary. The threaded backend is stateless (one OS thread
    /// per occupied slot per wave is its *semantics*), so its session
    /// is a plain pass-through.
    pub fn with_session<'env, R>(&'env self, f: impl FnOnce(&SessionExecutor<'_, 'env>) -> R) -> R {
        match self {
            BackendExecutor::Threaded(t) => f(&SessionExecutor::Threaded(*t)),
            BackendExecutor::Async(a) => a.with_session(|s| f(&SessionExecutor::Async(s))),
        }
    }
}

/// A backend handle scoped to one job, obtained from
/// [`BackendExecutor::with_session`]: the async reactor keeps one
/// worker pool alive across every wave submitted through it, while the
/// threaded backend passes straight through to its per-wave threads.
///
/// `'s` is the session scope, `'env` the environment slot tasks may
/// borrow from (fixed for the whole session).
pub enum SessionExecutor<'s, 'env> {
    /// Stateless pass-through to the per-slot-thread backend.
    Threaded(ThreadedExecutor),
    /// Handle onto a live reactor session (shared worker pool).
    Async(&'s AsyncSession<'s, 'env>),
}

impl<'env> SessionExecutor<'_, 'env> {
    /// Executes one wave through the session: runs every slot task
    /// exactly once and returns one [`SlotOutcome`] per task *in input
    /// order*. A task panic is contained as [`SlotOutcome::Abandoned`],
    /// and the call returns only once every task has resolved — the
    /// engine processes a wave's outcomes as a unit before consulting
    /// the failure injector again.
    pub fn run_wave<T: Send + 'env>(
        &self,
        spec: &WaveSpec,
        tasks: Vec<SlotTask<'env, T>>,
    ) -> Vec<SlotOutcome<T>> {
        match self {
            SessionExecutor::Threaded(t) => t.run_wave(spec, tasks),
            SessionExecutor::Async(s) => s.run_wave(spec, tasks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_from_config() {
        let t = BackendExecutor::from_config(&ExecutorConfig::default());
        assert_eq!(t.name(), "threaded");
        let a = BackendExecutor::from_config(&ExecutorConfig::async_workers(3));
        assert_eq!(a.name(), "async");
        match a {
            BackendExecutor::Async(a) => assert_eq!(a.workers(), 3),
            BackendExecutor::Threaded(_) => panic!("expected async"),
        }
    }

    #[test]
    fn backends_agree_on_outcomes() {
        let run = |cfg: &ExecutorConfig| -> Vec<Option<usize>> {
            let tasks: Vec<SlotTask<'_, usize>> = (0..200)
                .map(|i| SlotTask::new(move |_: &TaskCtx| i * 3))
                .collect();
            BackendExecutor::from_config(cfg)
                .with_session(|s| s.run_wave(&WaveSpec::new("agree", 42), tasks))
                .into_iter()
                .map(SlotOutcome::completed)
                .collect()
        };
        assert_eq!(
            run(&ExecutorConfig::default()),
            run(&ExecutorConfig::async_workers(4))
        );
    }

    #[test]
    fn sessions_agree_across_backends() {
        let run = |cfg: &ExecutorConfig| {
            let exec = BackendExecutor::from_config(cfg);
            exec.with_session(|session| {
                (0..3u64)
                    .map(|w| {
                        let tasks: Vec<SlotTask<'_, u64>> = (0..50)
                            .map(|i| SlotTask::new(move |_: &TaskCtx| i + w))
                            .collect();
                        session
                            .run_wave(&WaveSpec::new("sess", w), tasks)
                            .into_iter()
                            .map(|o| o.completed().expect("completed"))
                            .collect::<Vec<u64>>()
                    })
                    .collect::<Vec<_>>()
            })
        };
        let threaded = run(&ExecutorConfig::default());
        let async1 = run(&ExecutorConfig::async_workers(1));
        let async4 = run(&ExecutorConfig::async_workers(4));
        assert_eq!(threaded, async1);
        assert_eq!(threaded, async4);
    }
}
