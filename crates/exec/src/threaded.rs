//! The per-slot OS-thread backend (Hadoop 1.0.3's TaskTracker model).

use crate::task::{SlotOutcome, SlotTask, TaskCtx};
use crate::WaveSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One OS thread per occupied slot per wave, spawned in input order
/// under `std::thread::scope` and joined in input order — exactly the
/// engine's original wave loop, extracted behind the wave contract
/// (see `SessionExecutor::run_wave`). The only behavioural delta is
/// hardening: a panicking task used to abort the whole process via
/// `join().expect(...)`; here it is contained as
/// [`SlotOutcome::Abandoned`] and surfaced as a typed error by the
/// engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedExecutor;

impl ThreadedExecutor {
    /// Creates the backend (stateless).
    pub fn new() -> Self {
        Self
    }

    /// Executes one wave: outcomes in input order, panics contained.
    pub fn run_wave<'env, T: Send + 'env>(
        &self,
        _spec: &WaveSpec,
        tasks: Vec<SlotTask<'env, T>>,
    ) -> Vec<SlotOutcome<T>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let ctx = TaskCtx::new(i);
                    s.spawn(move || {
                        let run = t.into_fn();
                        match catch_unwind(AssertUnwindSafe(move || run(&ctx))) {
                            Ok(v) => SlotOutcome::Completed(v),
                            Err(_) => SlotOutcome::Abandoned,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(SlotOutcome::Abandoned))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_tasks_in_input_order() {
        let tasks: Vec<SlotTask<'_, usize>> = (0..40)
            .map(|i| {
                SlotTask::new(move |ctx: &TaskCtx| {
                    assert_eq!(ctx.index(), i);
                    i + 100
                })
            })
            .collect();
        let out = ThreadedExecutor::new().run_wave(&WaveSpec::new("t", 0), tasks);
        for (i, o) in out.into_iter().enumerate() {
            assert_eq!(o.completed(), Some(i + 100));
        }
    }

    #[test]
    fn panic_is_contained() {
        let tasks: Vec<SlotTask<'_, u32>> = (0..4)
            .map(|i| {
                SlotTask::new(move |_: &TaskCtx| {
                    assert!(i != 2, "scripted task panic");
                    i
                })
            })
            .collect();
        let out = ThreadedExecutor::new().run_wave(&WaveSpec::new("p", 0), tasks);
        assert!(out[2].is_abandoned());
        assert_eq!(
            out.iter()
                .filter(|o| matches!(o, SlotOutcome::Completed(_)))
                .count(),
            3
        );
    }
}
