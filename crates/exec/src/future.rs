//! [`TaskFuture`]: the slot-task closure lifted into a hand-rolled
//! [`Future`] state machine for the cooperative reactor.

use crate::task::{SlotOutcome, TaskCtx, TaskFn};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::task::{Context, Poll};

enum State<'env, T> {
    /// Not yet admitted: the first poll performs an *admission yield* —
    /// it wakes itself and returns `Pending` — so every task round-trips
    /// through the reactor's wake/park machinery exactly once before
    /// running. This keeps the wake path exercised on every wave (not
    /// just under contention) and makes polls-per-task a meaningful
    /// health signal (exactly 2 for a completed task).
    Queued(TaskFn<'env, T>, TaskCtx),
    /// Admitted: the next poll runs the body to completion.
    Yielded(TaskFn<'env, T>, TaskCtx),
    /// Terminal.
    Done,
}

/// A slot task as a [`Future`] resolving to its [`SlotOutcome`].
///
/// The state machine is `Queued → Yielded → Done`. A panicking body is
/// contained with [`catch_unwind`] and resolves to
/// [`SlotOutcome::Abandoned`] — poll itself never unwinds, so reactor
/// locks are never poisoned by task bodies (the engine escalates any
/// abandoned task to a typed `Error::ExecutorShutdown`).
pub(crate) struct TaskFuture<'env, T> {
    state: State<'env, T>,
}

impl<'env, T> TaskFuture<'env, T> {
    /// Lifts a task body and its context into a future.
    pub(crate) fn new(run: TaskFn<'env, T>, ctx: TaskCtx) -> Self {
        Self {
            state: State::Queued(run, ctx),
        }
    }
}

// No self-references: the state machine owns a Box and a TaskCtx.
impl<T> Unpin for TaskFuture<'_, T> {}

impl<T> Future for TaskFuture<'_, T> {
    type Output = SlotOutcome<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match std::mem::replace(&mut this.state, State::Done) {
            State::Queued(run, ctx) => {
                cx.waker().wake_by_ref();
                this.state = State::Yielded(run, ctx);
                Poll::Pending
            }
            State::Yielded(run, ctx) => match catch_unwind(AssertUnwindSafe(move || run(&ctx))) {
                Ok(v) => Poll::Ready(SlotOutcome::Completed(v)),
                Err(_) => Poll::Ready(SlotOutcome::Abandoned),
            },
            // The reactor never polls a resolved future; if something
            // did, the body is gone and there is no value to return.
            State::Done => Poll::Ready(SlotOutcome::Abandoned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    struct CountingWaker(AtomicUsize);
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn poll_once<T>(fut: &mut TaskFuture<'_, T>, waker: &Waker) -> Poll<SlotOutcome<T>> {
        let mut cx = Context::from_waker(waker);
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn admission_yield_then_complete() {
        let counting = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(counting.clone());
        let mut fut = TaskFuture::new(Box::new(|_: &TaskCtx| 41 + 1), TaskCtx::new(0));
        assert!(matches!(poll_once(&mut fut, &waker), Poll::Pending));
        assert_eq!(counting.0.load(Ordering::SeqCst), 1, "woke itself");
        match poll_once(&mut fut, &waker) {
            Poll::Ready(SlotOutcome::Completed(42)) => {}
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn panic_is_contained_as_abandoned() {
        let waker = Waker::from(Arc::new(CountingWaker(AtomicUsize::new(0))));
        let mut fut: TaskFuture<'_, u32> =
            TaskFuture::new(Box::new(|_: &TaskCtx| panic!("boom")), TaskCtx::new(0));
        assert!(matches!(poll_once(&mut fut, &waker), Poll::Pending));
        assert!(matches!(
            poll_once(&mut fut, &waker),
            Poll::Ready(SlotOutcome::Abandoned)
        ));
    }
}
