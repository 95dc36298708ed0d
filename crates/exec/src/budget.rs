//! A shared worker budget for concurrent executor sessions.
//!
//! The job service multiplexes many chains onto one cluster, each chain
//! running its waves on its own pool session. Without a cap, N
//! concurrent chains × `workers` threads each would oversubscribe the
//! host. [`WorkerBudget`] is the global cap: a session leases workers
//! before it spawns, gets at least one (so an admitted chain always
//! makes progress) and at most what remains, and the lease returns its
//! workers on drop — including on panic unwind.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Inner {
    available: Mutex<u32>,
    total: u32,
}

/// A global pool of wave-executor workers shared by every concurrent
/// chain session. Cloneable handle (`Arc` semantics).
#[derive(Clone)]
pub struct WorkerBudget {
    inner: Arc<Inner>,
}

impl WorkerBudget {
    /// A budget of `total` workers (clamped to ≥ 1).
    pub fn new(total: u32) -> Self {
        let total = total.max(1);
        Self {
            inner: Arc::new(Inner {
                available: Mutex::new(total),
                total,
            }),
        }
    }

    /// The configured pool size.
    pub fn total(&self) -> u32 {
        self.inner.total
    }

    /// Workers not currently leased.
    pub fn available(&self) -> u32 {
        *lock(&self.inner.available)
    }

    /// Leases up to `want` workers without blocking. The lease holds
    /// `min(want, available)` workers but never less than one — a
    /// zero-worker chain could not run — so the budget can go
    /// transiently negative-in-spirit only via this floor: when the
    /// pool is empty the lease still grants 1 and the pool owes it.
    ///
    /// Callers that must not oversubscribe should gate admission on
    /// [`WorkerBudget::available`] first (the job service does: it
    /// grants a chain slot only when at least one worker is free).
    pub fn lease(&self, want: u32) -> WorkerLease {
        let want = want.max(1);
        let mut avail = lock(&self.inner.available);
        let granted = want.min((*avail).max(1));
        *avail = avail.saturating_sub(granted);
        WorkerLease {
            budget: self.clone(),
            workers: granted,
        }
    }

    fn give_back(&self, workers: u32) {
        let mut avail = lock(&self.inner.available);
        *avail = (*avail + workers).min(self.inner.total);
    }
}

/// A granted slice of the worker budget; returns its workers on drop.
pub struct WorkerLease {
    budget: WorkerBudget,
    workers: u32,
}

impl WorkerLease {
    /// Workers this lease holds (≥ 1).
    pub fn workers(&self) -> u32 {
        self.workers
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        self.budget.give_back(self.workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_return() {
        let b = WorkerBudget::new(8);
        assert_eq!(b.total(), 8);
        let l1 = b.lease(3);
        assert_eq!(l1.workers(), 3);
        assert_eq!(b.available(), 5);
        {
            let l2 = b.lease(10);
            assert_eq!(l2.workers(), 5, "capped at what remains");
            assert_eq!(b.available(), 0);
        }
        assert_eq!(b.available(), 5, "drop returns the lease");
        drop(l1);
        assert_eq!(b.available(), 8);
    }

    #[test]
    fn empty_pool_still_grants_one() {
        let b = WorkerBudget::new(2);
        let _l1 = b.lease(2);
        let l2 = b.lease(4);
        assert_eq!(l2.workers(), 1, "floor of one keeps chains live");
    }

    #[test]
    fn zero_total_clamps_to_one() {
        let b = WorkerBudget::new(0);
        assert_eq!(b.total(), 1);
        assert_eq!(b.lease(5).workers(), 1);
    }
}
