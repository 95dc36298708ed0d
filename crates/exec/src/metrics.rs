//! Pre-resolved `rcmp-obs` metric handles for the executor hot path.

use rcmp_obs::{Counter, Gauge, MetricsRegistry};

/// Executor health metrics, resolved once against a registry so wave
/// execution never takes the registry lock.
///
/// All handles live under the `exec.` prefix; the async reactor updates
/// them, while the threaded backend — kept byte-identical to the
/// pre-executor code — records nothing.
#[derive(Clone)]
pub(crate) struct ExecMetrics {
    /// Instantaneous ready-queue depth (last observed).
    pub ready_depth: Gauge,
    /// Worker threads currently parked waiting for work.
    pub parked_workers: Gauge,
    /// OS worker threads of the current session's pool.
    pub workers: Gauge,
    /// Average polls per task of the most recent wave (×1000, so the
    /// nominal 2.0 polls/task reads as 2000).
    pub polls_per_task_milli: Gauge,
    /// Total future polls across all waves.
    pub polls: Counter,
    /// Nanoseconds spent inside `Future::poll` across all waves.
    pub poll_ns: Counter,
    /// Nanoseconds workers spent parked waiting for ready tasks.
    pub park_ns: Counter,
    /// Tasks that ran to completion.
    pub tasks_completed: Counter,
    /// Tasks whose body panicked.
    pub tasks_abandoned: Counter,
    /// Waves executed.
    pub waves: Counter,
    /// OS worker threads spawned. This stays at the pool size while
    /// `waves` climbs — the observable for the pool-per-job (rather
    /// than pool-per-wave) lifetime.
    pub worker_starts: Counter,
}

impl ExecMetrics {
    /// Resolves every handle against `registry` (get-or-create).
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            ready_depth: registry.gauge("exec.ready_depth"),
            parked_workers: registry.gauge("exec.parked_workers"),
            workers: registry.gauge("exec.workers"),
            polls_per_task_milli: registry.gauge("exec.polls_per_task_milli"),
            polls: registry.counter("exec.polls"),
            poll_ns: registry.counter("exec.poll_ns"),
            park_ns: registry.counter("exec.park_ns"),
            tasks_completed: registry.counter("exec.tasks_completed"),
            tasks_abandoned: registry.counter("exec.tasks_abandoned"),
            waves: registry.counter("exec.waves"),
            worker_starts: registry.counter("exec.worker_starts"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_attached_to_registry() {
        let reg = MetricsRegistry::new();
        let m = ExecMetrics::register(&reg);
        m.polls.add(4);
        m.workers.set(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.polls"), Some(4));
        assert_eq!(
            snap.get("exec.workers"),
            Some(&rcmp_obs::SnapshotValue::Gauge(2))
        );
    }
}
