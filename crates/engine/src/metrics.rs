//! Execution metrics.
//!
//! The engine reports exact I/O accounting per task and per job. These
//! volumes are what the simulator's cost model must agree with
//! (validation strategy #3 in DESIGN.md), and what the hot-spot tests
//! assert on.

use rcmp_dfs::LossReport;
use rcmp_model::{JobId, NodeId, TaskId};
use rcmp_obs::{Counter, Gauge, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Pre-resolved handles for the `shuffle.*` metric family, registered
/// once per tracker so the reducer hot path never touches the registry
/// map. Mirrors [`crate::shuffle::MergeStats`] plus the combiner
/// volume counters.
#[derive(Clone)]
pub struct ShuffleMetrics {
    /// `shuffle.runs_merged`: sorted runs fed through the k-way heap.
    pub runs_merged: Counter,
    /// `shuffle.runs_presorted`: runs streamed straight from an
    /// index-attested sorted bucket (no decode-and-sort pass).
    pub runs_presorted: Counter,
    /// `shuffle.index_bytes_skipped`: payload bytes of those runs.
    pub index_bytes_skipped: Counter,
    /// `shuffle.empty_runs_skipped`: empty buckets skipped via index.
    pub empty_runs_skipped: Counter,
    /// `shuffle.runs_coalesced`: runs placed under the nested merger to
    /// respect the fan-in.
    pub runs_coalesced: Counter,
    /// `shuffle.heap_peak`: peak merge-heap size of the latest reducer.
    pub heap_peak: Gauge,
    /// `shuffle.combiner_records_in`: records entering map-side combine.
    pub combiner_records_in: Counter,
    /// `shuffle.combiner_records_out`: records left after combining.
    pub combiner_records_out: Counter,
}

impl ShuffleMetrics {
    /// Resolves every handle against `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            runs_merged: registry.counter("shuffle.runs_merged"),
            runs_presorted: registry.counter("shuffle.runs_presorted"),
            index_bytes_skipped: registry.counter("shuffle.index_bytes_skipped"),
            empty_runs_skipped: registry.counter("shuffle.empty_runs_skipped"),
            runs_coalesced: registry.counter("shuffle.runs_coalesced"),
            heap_peak: registry.gauge("shuffle.heap_peak"),
            combiner_records_in: registry.counter("shuffle.combiner_records_in"),
            combiner_records_out: registry.counter("shuffle.combiner_records_out"),
        }
    }

    /// Folds one reducer's merge counters into the registry handles.
    pub fn observe_merge(&self, stats: &crate::shuffle::MergeStats) {
        self.runs_merged.add(stats.runs_merged);
        self.runs_presorted.add(stats.runs_presorted);
        self.index_bytes_skipped.add(stats.index_bytes_skipped);
        self.empty_runs_skipped.add(stats.empty_runs_skipped);
        self.runs_coalesced.add(stats.runs_coalesced);
        self.heap_peak.set(stats.heap_peak as i64);
    }
}

/// I/O volume accounting, in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoBytes {
    /// Mapper input read from a replica on the mapper's own node.
    pub map_input_local: u64,
    /// Mapper input fetched from another node (non-local mappers).
    pub map_input_remote: u64,
    /// Shuffle bytes served from the reducer's own node.
    pub shuffle_local: u64,
    /// Shuffle bytes transferred across the network.
    pub shuffle_remote: u64,
    /// Reducer output written to the DFS (before replication).
    pub output_written: u64,
    /// Extra bytes written for replication (factor − 1 additional
    /// copies of every output block).
    pub replication_written: u64,
}

impl IoBytes {
    /// Total shuffle volume.
    pub fn shuffle_total(&self) -> u64 {
        self.shuffle_local + self.shuffle_remote
    }

    /// Total mapper input volume.
    pub fn map_input_total(&self) -> u64 {
        self.map_input_local + self.map_input_remote
    }
}

impl std::ops::AddAssign for IoBytes {
    fn add_assign(&mut self, o: IoBytes) {
        self.map_input_local += o.map_input_local;
        self.map_input_remote += o.map_input_remote;
        self.shuffle_local += o.shuffle_local;
        self.shuffle_remote += o.shuffle_remote;
        self.output_written += o.output_written;
        self.replication_written += o.replication_written;
    }
}

impl std::ops::Add for IoBytes {
    type Output = IoBytes;
    fn add(mut self, o: IoBytes) -> IoBytes {
        self += o;
        self
    }
}

impl std::iter::Sum for IoBytes {
    fn sum<I: Iterator<Item = IoBytes>>(iter: I) -> IoBytes {
        iter.fold(IoBytes::default(), std::ops::Add::add)
    }
}

impl<'a> std::iter::Sum<&'a IoBytes> for IoBytes {
    fn sum<I: Iterator<Item = &'a IoBytes>>(iter: I) -> IoBytes {
        iter.copied().sum()
    }
}

/// Per-task execution record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskRecord {
    pub id: TaskId,
    /// Node the task ran on.
    pub node: NodeId,
    /// Wave index within its phase.
    pub wave: u32,
    pub io: IoBytes,
    /// Wall-clock duration of the task body on its slot.
    pub duration: Duration,
    /// For mappers: the node the input block was read from.
    pub input_source: Option<NodeId>,
}

/// Outcome of one job run.
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    pub job: JobId,
    /// Global run sequence number.
    pub seq: u64,
    /// Mappers actually executed this run.
    pub map_tasks_run: usize,
    /// Mappers whose persisted output was reused (skipped).
    pub map_tasks_reused: usize,
    /// Reduce tasks executed (splits count individually).
    pub reduce_tasks_run: usize,
    /// Map waves executed (max over nodes).
    pub map_waves: u32,
    /// Reduce waves executed (max over nodes).
    pub reduce_waves: u32,
    pub io: IoBytes,
    pub tasks: Vec<TaskRecord>,
    /// Data-loss events that occurred during this run (node kills).
    pub losses: Vec<LossReport>,
    /// Tasks that failed and were re-executed within this run
    /// (Hadoop-style task-level recovery).
    pub task_retries: usize,
    /// Tasks skipped by cooperative wave cancellation
    /// (`ExecutorConfig::cancel_on_fatal`); they stay pending and are
    /// reassigned in the next round, like retried tasks, but never ran.
    pub tasks_cancelled: usize,
    pub duration: Duration,
}

impl JobReport {
    /// Records of mapper tasks only.
    pub fn map_records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.iter().filter(|t| t.id.is_map())
    }

    /// Records of reduce tasks only.
    pub fn reduce_records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.iter().filter(|t| !t.id.is_map())
    }

    /// Nodes that served mapper input, with how many reads each served —
    /// the hot-spot observable (Fig. 6/12).
    pub fn input_sources(&self) -> std::collections::BTreeMap<NodeId, usize> {
        let mut m = std::collections::BTreeMap::new();
        for t in self.map_records() {
            if let Some(src) = t.input_source {
                *m.entry(src).or_insert(0) += 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::{MapTaskId, PartitionId, ReduceTaskId};

    #[test]
    fn io_bytes_aggregation() {
        let mut a = IoBytes {
            map_input_local: 1,
            map_input_remote: 2,
            shuffle_local: 3,
            shuffle_remote: 4,
            output_written: 5,
            replication_written: 6,
        };
        a += a;
        assert_eq!(a.map_input_total(), 6);
        assert_eq!(a.shuffle_total(), 14);
        assert_eq!(a.output_written, 10);
    }

    #[test]
    fn io_bytes_sum_matches_manual_fold() {
        let parts = [
            IoBytes {
                map_input_local: 1,
                output_written: 10,
                ..IoBytes::default()
            },
            IoBytes {
                map_input_remote: 2,
                replication_written: 3,
                ..IoBytes::default()
            },
            IoBytes {
                shuffle_local: 4,
                shuffle_remote: 5,
                ..IoBytes::default()
            },
        ];
        let by_value: IoBytes = parts.iter().copied().sum();
        let by_ref: IoBytes = parts.iter().sum();
        let mut manual = IoBytes::default();
        for p in &parts {
            manual += *p;
        }
        assert_eq!(by_value, manual);
        assert_eq!(by_ref, manual);
        assert_eq!(by_value.map_input_total(), 3);
        assert_eq!((parts[0] + parts[1]).output_written, 10);
    }

    #[test]
    fn report_filters_and_sources() {
        let mut r = JobReport::default();
        r.tasks.push(TaskRecord {
            id: MapTaskId::new(JobId(1), 0).into(),
            node: NodeId(0),
            wave: 0,
            io: IoBytes::default(),
            duration: Duration::ZERO,
            input_source: Some(NodeId(2)),
        });
        r.tasks.push(TaskRecord {
            id: ReduceTaskId::whole(JobId(1), PartitionId(0)).into(),
            node: NodeId(1),
            wave: 0,
            io: IoBytes::default(),
            duration: Duration::ZERO,
            input_source: None,
        });
        assert_eq!(r.map_records().count(), 1);
        assert_eq!(r.reduce_records().count(), 1);
        assert_eq!(r.input_sources()[&NodeId(2)], 1);
    }
}
