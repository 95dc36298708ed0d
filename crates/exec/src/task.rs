//! The unit of executor work: a boxed slot-task closure plus the
//! context (slot index) it runs with.

/// Per-task execution context handed to the slot-task closure.
pub struct TaskCtx {
    index: usize,
}

impl TaskCtx {
    pub(crate) fn new(index: usize) -> Self {
        Self { index }
    }

    /// The task's position in the wave's input order (also the index of
    /// its outcome in the returned vector).
    pub fn index(&self) -> usize {
        self.index
    }
}

pub(crate) type TaskFn<'env, T> = Box<dyn FnOnce(&TaskCtx) -> T + Send + 'env>;

/// One logical slot task: a closure the executor will run exactly once.
///
/// The closure borrows from the caller's environment (`'env`), so the
/// engine's task bodies can capture `&JobTracker` without `'static`
/// gymnastics — the pool's workers are scoped threads.
pub struct SlotTask<'env, T> {
    run: TaskFn<'env, T>,
}

impl<'env, T> SlotTask<'env, T> {
    /// Wraps a task body.
    pub fn new(run: impl FnOnce(&TaskCtx) -> T + Send + 'env) -> Self {
        Self { run: Box::new(run) }
    }

    pub(crate) fn into_fn(self) -> TaskFn<'env, T> {
        self.run
    }
}

/// How one slot task ended.
#[derive(Debug)]
pub enum SlotOutcome<T> {
    /// The task body ran to completion and returned this value.
    Completed(T),
    /// The task body panicked; the pool contained the panic. The
    /// engine surfaces this as `Error::ExecutorShutdown`.
    Abandoned,
}

impl<T> SlotOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            SlotOutcome::Completed(v) => Some(v),
            SlotOutcome::Abandoned => None,
        }
    }

    /// Whether the task body panicked.
    pub fn is_abandoned(&self) -> bool {
        matches!(self, SlotOutcome::Abandoned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_exposes_index() {
        assert_eq!(TaskCtx::new(7).index(), 7);
    }

    #[test]
    fn outcome_accessors() {
        assert_eq!(SlotOutcome::Completed(3).completed(), Some(3));
        assert!(SlotOutcome::<u32>::Abandoned.is_abandoned());
        assert_eq!(SlotOutcome::<u32>::Abandoned.completed(), None);
    }
}
