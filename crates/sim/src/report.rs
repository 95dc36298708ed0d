//! Simulation reports.

use crate::speculate::SpeculationStats;
use rcmp_obs::{PhaseBreakdown, PhaseKind};
use rcmp_policy::EventLog;
use serde::{Deserialize, Serialize};

/// Simulated seconds → profiler microseconds.
fn secs_to_us(s: f64) -> u64 {
    (s * 1e6).round() as u64
}

/// Byte volumes of one simulated job run (mirrors the engine's
/// `IoBytes`, validated against it on matched configurations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimIo {
    pub map_input_local: u64,
    pub map_input_remote: u64,
    pub shuffle_local: u64,
    pub shuffle_remote: u64,
    pub output_written: u64,
    pub replication_written: u64,
}

impl SimIo {
    pub fn add(&mut self, o: &SimIo) {
        self.map_input_local += o.map_input_local;
        self.map_input_remote += o.map_input_remote;
        self.shuffle_local += o.shuffle_local;
        self.shuffle_remote += o.shuffle_remote;
        self.output_written += o.output_written;
        self.replication_written += o.replication_written;
    }
}

/// Outcome of one simulated job run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimJobReport {
    /// Logical job (1-based position in the chain).
    pub job: u32,
    /// Global run sequence number.
    pub seq: u64,
    /// Simulated wall-clock duration, seconds.
    pub duration: f64,
    pub map_waves: u32,
    pub reduce_waves: u32,
    pub mappers_run: usize,
    pub mappers_reused: usize,
    pub reduce_tasks_run: usize,
    /// Per-mapper durations (seconds) — the Fig. 12 CDF data.
    pub mapper_durations: Vec<f64>,
    /// Per-reduce-task durations (seconds).
    pub reducer_durations: Vec<f64>,
    pub io: SimIo,
    /// Chain-cache hits (map inputs served from memory), total and
    /// node-local; zero when the cache is off. Mirrors the engine's
    /// `cache.hits` / `cache.hits_local` counters.
    #[serde(default)]
    pub cache_hits: u64,
    #[serde(default)]
    pub cache_hits_local: u64,
    /// Bytes served out of the chain cache instead of the DFS.
    #[serde(default)]
    pub cache_read_bytes: u64,
    /// True for recomputation runs.
    pub recompute: bool,
    /// Speculative-execution statistics (zero unless enabled).
    #[serde(default)]
    pub speculation: SpeculationStats,
}

/// Outcome of one simulated chain execution.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimChainReport {
    /// Total simulated time, seconds.
    pub total_time: f64,
    pub runs: Vec<SimJobReport>,
    /// Everything the chain loop did, stamped in simulated seconds.
    pub events: EventLog,
    pub jobs_started: u64,
    /// Simulated time spent in seeded retry backoff (modelled from
    /// `rcmp_model::RetryPolicy`, mirroring the engine's delays).
    #[serde(default)]
    pub backoff_secs: f64,
    /// The adaptive policy's decision after each completed chain job
    /// (empty unless the strategy is `AdaptiveHybrid`).
    #[serde(default)]
    pub adaptation: Vec<rcmp_policy::AdaptationStep>,
}

impl SimChainReport {
    /// Job runs that were recomputations.
    pub fn recompute_runs(&self) -> impl Iterator<Item = &SimJobReport> {
        self.runs.iter().filter(|r| r.recompute)
    }

    /// Projects the simulated chain onto the engine's 14-phase
    /// time-budget schema: the returned [`PhaseBreakdown`] has the same
    /// rows in the same order as the engine profiler's snapshot, so
    /// engine and simulator figures render and diff through one code
    /// path. Phases the simulator does not model (reactor poll/park,
    /// block verify, DFS byte I/O timing) stay at zero — visible,
    /// rather than silently absent from the schema.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let (mut map_us, mut map_n) = (0u64, 0u64);
        let (mut reduce_us, mut reduce_n) = (0u64, 0u64);
        let (mut rc_us, mut rc_n) = (0u64, 0u64);
        for run in &self.runs {
            map_n += run.mapper_durations.len() as u64;
            map_us += run
                .mapper_durations
                .iter()
                .map(|&d| secs_to_us(d))
                .sum::<u64>();
            reduce_n += run.reducer_durations.len() as u64;
            reduce_us += run
                .reducer_durations
                .iter()
                .map(|&d| secs_to_us(d))
                .sum::<u64>();
            if run.recompute {
                rc_us += secs_to_us(run.duration);
                rc_n += u64::from(run.map_waves + run.reduce_waves);
            }
        }
        let planned = self.events.recoveries().count() as u64;
        PhaseBreakdown::from_parts(&[
            (PhaseKind::MapCompute, map_us, map_n),
            (PhaseKind::ReduceUdf, reduce_us, reduce_n),
            (PhaseKind::RecomputeWave, rc_us, rc_n),
            (
                PhaseKind::RetryBackoff,
                secs_to_us(self.backoff_secs),
                u64::from(self.backoff_secs > 0.0),
            ),
            // Simulated planning is instantaneous; the count still
            // records how many plans were drawn up.
            (PhaseKind::RecoveryPlanning, 0, planned),
        ])
    }

    /// Average duration of the initial (non-recompute) runs of jobs that
    /// completed before any failure — the per-job baseline used by the
    /// paper's numerical analysis (Fig. 10).
    pub fn mean_initial_job_time(&self) -> f64 {
        let initial: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| !r.recompute)
            .map(|r| r.duration)
            .collect();
        if initial.is_empty() {
            0.0
        } else {
            initial.iter().sum::<f64>() / initial.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::JobId;
    use rcmp_policy::ChainEvent;

    #[test]
    fn io_aggregation() {
        let mut a = SimIo {
            map_input_local: 1,
            shuffle_remote: 2,
            ..Default::default()
        };
        a.add(&SimIo {
            map_input_local: 3,
            output_written: 4,
            ..Default::default()
        });
        assert_eq!(a.map_input_local, 4);
        assert_eq!(a.output_written, 4);
    }

    #[test]
    fn mean_initial_time_ignores_recomputes() {
        let mut r = SimChainReport::default();
        r.runs.push(SimJobReport {
            duration: 10.0,
            ..Default::default()
        });
        r.runs.push(SimJobReport {
            duration: 99.0,
            recompute: true,
            ..Default::default()
        });
        r.runs.push(SimJobReport {
            duration: 20.0,
            ..Default::default()
        });
        assert!((r.mean_initial_job_time() - 15.0).abs() < 1e-9);
        assert_eq!(r.recompute_runs().count(), 1);
    }

    #[test]
    fn phase_breakdown_matches_engine_schema() {
        let mut r = SimChainReport::default();
        r.runs.push(SimJobReport {
            duration: 2.0,
            map_waves: 1,
            reduce_waves: 1,
            mapper_durations: vec![0.5, 0.5],
            reducer_durations: vec![1.0],
            ..Default::default()
        });
        r.runs.push(SimJobReport {
            duration: 3.0,
            map_waves: 1,
            reduce_waves: 1,
            mapper_durations: vec![1.5],
            recompute: true,
            ..Default::default()
        });
        r.backoff_secs = 0.25;
        let plan = ChainEvent::RecoveryPlanned {
            target: JobId(2),
            steps: 1,
            partitions: 4,
        };
        let log = &mut r.events;
        log.push(0.0, plan);

        let b = r.phase_breakdown();
        // Same rows, same order as an engine profiler snapshot.
        let engine_schema: Vec<&str> = PhaseKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(b.schema(), engine_schema);
        assert_eq!(b.total_us(PhaseKind::MapCompute), 2_500_000);
        assert_eq!(b.total_us(PhaseKind::ReduceUdf), 1_000_000);
        assert_eq!(b.total_us(PhaseKind::RecomputeWave), 3_000_000);
        assert_eq!(b.total_us(PhaseKind::RetryBackoff), 250_000);
        assert_eq!(b.entries[PhaseKind::RecoveryPlanning.index()].count, 1);
        assert_eq!(b.total_us(PhaseKind::ReactorPoll), 0);
    }
}
