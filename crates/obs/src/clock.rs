//! The clock seam.
//!
//! Everything in this crate that timestamps (the [`crate::Tracer`], the
//! flight recorder, the phase profiler) reads time through a [`Clock`]
//! instead of calling [`Instant::now`] directly. The engine uses
//! [`Clock::monotonic`]; tests and the simulator use [`Clock::manual`],
//! which is driven explicitly — the simulator sets its tracer's clock
//! from its own chain clock, simulated seconds as microseconds — so
//! ordering assertions and phase-timer arithmetic are deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond clock, cloneable and thread-safe.
///
/// Clones share the same time source: two clones of a manual clock see
/// every [`ManualClock::advance_us`] identically, and two clones of a
/// monotonic clock share one epoch.
#[derive(Clone)]
pub struct Clock(Source);

#[derive(Clone)]
enum Source {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

impl Default for Clock {
    fn default() -> Self {
        Self::monotonic()
    }
}

impl Clock {
    /// Real wall-clock time; the epoch is the creation instant.
    pub fn monotonic() -> Self {
        Self(Source::Monotonic(Instant::now()))
    }

    /// A manually driven clock starting at 0 µs, plus the handle that
    /// advances it.
    pub fn manual() -> (Self, ManualClock) {
        let cell = Arc::new(AtomicU64::new(0));
        (Self(Source::Manual(cell.clone())), ManualClock { cell })
    }

    /// Microseconds since the clock's epoch.
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Source::Monotonic(epoch) => epoch.elapsed().as_micros() as u64,
            Source::Manual(cell) => cell.load(Ordering::SeqCst),
        }
    }
}

/// Writer handle for a manual [`Clock`].
#[derive(Clone)]
pub struct ManualClock {
    cell: Arc<AtomicU64>,
}

impl ManualClock {
    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.cell.fetch_add(us, Ordering::SeqCst);
    }

    /// Sets the clock to `us` microseconds since its epoch.
    pub fn set_us(&self, us: u64) {
        self.cell.store(us, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic_and_shared() {
        let (clock, hand) = Clock::manual();
        let clone = clock.clone();
        assert_eq!(clock.now_us(), 0);
        hand.advance_us(250);
        assert_eq!(clock.now_us(), 250);
        assert_eq!(clone.now_us(), 250);
        hand.set_us(1_000);
        assert_eq!(clone.now_us(), 1_000);
    }

    #[test]
    fn monotonic_clock_advances() {
        let clock = Clock::monotonic();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }
}
