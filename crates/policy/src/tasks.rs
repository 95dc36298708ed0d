//! The kernel's view of a phase's task list.
//!
//! Tasks are addressed by index `0..len()`; the kernel returns indices
//! and the caller maps them back onto its own tasks (the engine onto
//! `MapTask` structs, the simulator onto its input blocks, the job
//! machine onto reducer ids). The queries are exactly the facts the paper's placement
//! policies consume: which node holds a map input block (and which copy
//! is the primary), and which partition a reduce task belongs to.

/// What map-wave assignment needs to know about the tasks of a job.
pub trait MapTaskSet<N> {
    /// Number of tasks; the kernel schedules indices `0..len()`.
    fn len(&self) -> usize;

    /// `true` when there are no tasks to place.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does `node` hold the *primary* (writer-local) replica of task
    /// `task`'s input block? Preferred over any other local block:
    /// without the primary preference nodes eat each other's blocks
    /// early and leave a contended non-local tail, which real Hadoop
    /// avoids.
    fn is_primary_holder(&self, task: usize, node: N) -> bool;

    /// Does `node` hold *any* replica of task `task`'s input block
    /// (data-locality tie-breaking, §III-A)?
    fn holds_replica(&self, task: usize, node: N) -> bool;

    /// The node holding task `task`'s input partition *in memory* in
    /// the inter-job chain cache, if any (M3R-style partition
    /// stability). Only the `Stable` kernel consults it; the default —
    /// nothing cached — makes every kernel behave exactly as before the
    /// cache existed.
    fn cache_holder(&self, _task: usize) -> Option<N> {
        None
    }
}

/// What reduce-wave assignment needs to know about the tasks of a job.
pub trait ReduceTaskSet {
    /// Number of tasks; the kernel schedules indices `0..len()`.
    fn len(&self) -> usize;

    /// `true` when there are no tasks to place.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition this reduce task serves — the round-robin key that
    /// gives the paper's deterministic `WR = R/(N·S)` wave count.
    fn partition_index(&self, task: usize) -> usize;
}

/// A [`MapTaskSet`] over closures, with nothing cached — handy in tests
/// and benches.
pub struct FnMapTasks<P, Q> {
    len: usize,
    primary: Q,
    replica: P,
}

impl<P, Q> FnMapTasks<P, Q> {
    /// `primary(task, node)` / `replica(task, node)` answer the two
    /// holder queries for tasks `0..len`.
    pub fn new(len: usize, primary: Q, replica: P) -> Self {
        Self {
            len,
            primary,
            replica,
        }
    }
}

impl<N, P, Q> MapTaskSet<N> for FnMapTasks<P, Q>
where
    P: Fn(usize, N) -> bool,
    Q: Fn(usize, N) -> bool,
{
    fn len(&self) -> usize {
        self.len
    }

    fn is_primary_holder(&self, task: usize, node: N) -> bool {
        (self.primary)(task, node)
    }

    fn holds_replica(&self, task: usize, node: N) -> bool {
        (self.replica)(task, node)
    }
}

/// A [`ReduceTaskSet`] over a key closure.
pub struct FnReduceTasks<K> {
    len: usize,
    key: K,
}

impl<K: Fn(usize) -> usize> FnReduceTasks<K> {
    /// `key(task)` yields the partition index for tasks `0..len`.
    pub fn new(len: usize, key: K) -> Self {
        Self { len, key }
    }
}

impl<K: Fn(usize) -> usize> ReduceTaskSet for FnReduceTasks<K> {
    fn len(&self) -> usize {
        self.len
    }

    fn partition_index(&self, task: usize) -> usize {
        (self.key)(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_adapters_answer_queries() {
        let maps = FnMapTasks::new(3, |t, n: u32| t as u32 == n, |t, n: u32| t as u32 <= n);
        assert_eq!(maps.len(), 3);
        assert!(!maps.is_empty());
        assert!(maps.is_primary_holder(1, 1));
        assert!(!maps.is_primary_holder(1, 2));
        assert!(maps.holds_replica(1, 2));
        assert_eq!(
            MapTaskSet::<u32>::cache_holder(&maps, 1),
            None,
            "closures carry no cache"
        );

        let reds = FnReduceTasks::new(4, |t| t * 2);
        assert_eq!(reds.len(), 4);
        assert_eq!(reds.partition_index(3), 6);
    }
}
