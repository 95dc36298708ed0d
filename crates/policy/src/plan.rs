//! The unified recomputation instruction set.
//!
//! One plan type serves both backends: the engine executes it against
//! real data (`rcmp-engine` re-exports it as `RecomputeInstructions`),
//! the simulator accounts it at tuple granularity (`rcmp-sim` re-exports
//! it as `RecomputeSpec`). Keeping one type makes "what should this
//! recovery run do" a single value that planners produce and either
//! backend consumes.

use crate::waves::ReduceAssignment;
use rcmp_model::{JobId, PartitionId, ReduceTaskId, SplitId};
use std::collections::BTreeSet;

/// Instructions for one recomputation run (§IV-B).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecomputePlan {
    /// Output partitions to regenerate (the lost reducer outputs,
    /// possibly merged across several data-loss events).
    pub partitions: BTreeSet<PartitionId>,
    /// Split each recomputed reducer this many ways (`None` = no
    /// splitting, the paper's RCMP NO-SPLIT; `Some(k ≤ 1)` also means
    /// whole reducers — see [`RecomputePlan::split_factor`]).
    pub split: Option<u32>,
    /// Reuse persisted map outputs whose input fingerprints still match
    /// (RCMP behaviour). `false` re-runs every mapper — used by the
    /// paper's Fig.-13 isolation experiment and the OPTIMISTIC baseline.
    pub reuse_map_outputs: bool,
    /// Scatter recomputed reducer output blocks over all nodes — the
    /// paper's alternative hot-spot mitigation (§IV-B2). Honored by the
    /// engine (placement policy override) and the simulator alike.
    pub spread_output: bool,
    /// Experiment knob (Figs. 13/14): re-run exactly this many mappers
    /// regardless of persisted-output validity, reusing the rest. Used
    /// by the simulator to control recomputation map waves directly;
    /// the engine ignores it (real map outputs carry fingerprints that
    /// decide reuse).
    pub force_rerun_mappers: Option<usize>,
    /// DANGEROUS, test/ablation only: reuse persisted map outputs even
    /// when the input fingerprint no longer matches. Reproduces the
    /// incorrect-reuse bug of Fig. 5 (duplicated and missing keys).
    pub unsafe_ignore_fingerprints: bool,
}

impl RecomputePlan {
    /// Recompute the given partitions with optional splitting, reusing
    /// persisted map outputs (the standard RCMP recomputation).
    ///
    /// `partitions` accepts anything convertible to [`PartitionId`]
    /// (the engine passes `PartitionId`s, the simulator raw `u32`s);
    /// `split` accepts `None`, `Some(k)`, or a bare `k`.
    pub fn new(
        partitions: impl IntoIterator<Item = impl Into<PartitionId>>,
        split: impl Into<Option<u32>>,
    ) -> Self {
        Self {
            partitions: partitions.into_iter().map(Into::into).collect(),
            split: split.into(),
            reuse_map_outputs: true,
            spread_output: false,
            force_rerun_mappers: None,
            unsafe_ignore_fingerprints: false,
        }
    }

    /// A plan that recomputes nothing — placeholder for full runs.
    pub fn empty() -> Self {
        Self::new(std::iter::empty::<PartitionId>(), None)
    }

    /// The effective split factor: `1` means whole reducers.
    pub fn split_factor(&self) -> u32 {
        self.split.map_or(1, |k| k.max(1))
    }

    /// Effective number of reduce tasks this run will execute.
    pub fn reduce_task_count(&self) -> usize {
        self.partitions.len() * self.split_factor() as usize
    }
}

/// The reduce tasks that regenerate `partition` of `job`: one whole
/// reducer on a full run (`plan == None`) or an unsplit recomputation,
/// `split_factor()` split reducers otherwise (§IV-B1).
pub fn reduce_tasks_for(
    plan: Option<&RecomputePlan>,
    job: JobId,
    partition: PartitionId,
) -> impl Iterator<Item = ReduceTaskId> {
    let k = plan.map_or(1, RecomputePlan::split_factor);
    (0..k).map(move |s| match k {
        1 => ReduceTaskId::whole(job, partition),
        _ => ReduceTaskId::split(job, partition, SplitId(s), k),
    })
}

/// The reduce task set of one run, in ascending (partition, split)
/// order, and how its tasks pick nodes: a full run reduces every
/// partition round-robin (the `WR = R/(N·S)` layout of the paper's
/// model); a recomputation reduces only its plan's partitions and
/// balances them over the survivors (Fig. 4).
pub fn reduce_task_set(
    plan: Option<&RecomputePlan>,
    job: JobId,
    num_reducers: u32,
) -> (Vec<ReduceTaskId>, ReduceAssignment) {
    match plan {
        None => (
            (0..num_reducers)
                .map(|p| ReduceTaskId::whole(job, PartitionId(p)))
                .collect(),
            ReduceAssignment::RoundRobinByPartition,
        ),
        Some(plan) => (
            plan.partitions
                .iter()
                .flat_map(|&p| reduce_tasks_for(Some(plan), job, p))
                .collect(),
            ReduceAssignment::Balance,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_set_expands_whole_and_split_reducers() {
        let job = JobId(3);
        let (full, style) = reduce_task_set(None, job, 3);
        assert_eq!(style, ReduceAssignment::RoundRobinByPartition);
        assert_eq!(
            full,
            (0..3)
                .map(|p| ReduceTaskId::whole(job, PartitionId(p)))
                .collect::<Vec<_>>()
        );
        // `Some(1)` and `None` both mean whole reducers.
        for split in [None, Some(1)] {
            let plan = RecomputePlan::new([2u32, 0], split);
            let (tasks, style) = reduce_task_set(Some(&plan), job, 3);
            assert_eq!(style, ReduceAssignment::Balance);
            assert_eq!(
                tasks,
                [0, 2].map(|p| ReduceTaskId::whole(job, PartitionId(p)))
            );
        }
        let plan = RecomputePlan::new([1u32], 2);
        let (tasks, _) = reduce_task_set(Some(&plan), job, 3);
        assert_eq!(
            tasks,
            [0, 1].map(|s| ReduceTaskId::split(job, PartitionId(1), SplitId(s), 2))
        );
        assert_eq!(tasks.len(), plan.reduce_task_count());
    }

    #[test]
    fn new_accepts_both_backend_idioms() {
        // Engine idiom: PartitionIds + Option<u32>.
        let a = RecomputePlan::new([PartitionId(0), PartitionId(3)], Some(4));
        // Sim idiom: raw u32 partitions + bare split factor.
        let b = RecomputePlan::new([0u32, 3], 4);
        assert_eq!(a, b);
        assert_eq!(a.split_factor(), 4);
        assert_eq!(a.reduce_task_count(), 8);
    }

    #[test]
    fn split_factor_clamps() {
        assert_eq!(RecomputePlan::new([0u32], None).split_factor(), 1);
        assert_eq!(RecomputePlan::new([0u32], 0).split_factor(), 1);
        assert_eq!(RecomputePlan::new([0u32], 1).reduce_task_count(), 1);
    }

    #[test]
    fn empty_plan() {
        let p = RecomputePlan::empty();
        assert!(p.partitions.is_empty());
        assert_eq!(p.reduce_task_count(), 0);
        assert!(p.reuse_map_outputs);
        assert!(!p.spread_output);
    }
}
