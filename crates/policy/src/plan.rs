//! The unified recomputation instruction set.
//!
//! One plan type serves both backends: the engine executes it against
//! real data (`rcmp-engine` re-exports it as `RecomputeInstructions`),
//! the simulator accounts it at tuple granularity (`rcmp-sim` re-exports
//! it as `RecomputeSpec`). Keeping one type makes "what should this
//! recovery run do" a single value that planners produce and either
//! backend consumes.
//!
//! [`job_init`] is the other half of a run's start (§IV-A): over an
//! [`InputView`] each backend snapshots, it decides which mappers run
//! and whether the run is cancelled because its input is lost.

use crate::waves::ReduceAssignment;
use rcmp_model::{Error, JobId, PartitionId, ReduceTaskId, Result, SplitId};
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
    /// Experiment knob (Figs. 13/14): re-run exactly this many mappers,
    /// strided over the input, regardless of persisted-output validity,
    /// reusing the rest. Used by the simulator, through [`job_init`], to
    /// control recomputation map waves directly; the engine rejects it
    /// (real map outputs carry fingerprints that decide reuse).
    pub force_rerun_mappers: Option<usize>,
    /// DANGEROUS, test/ablation only: reuse persisted map outputs even
    /// when the input fingerprint no longer matches. Reproduces the
    /// incorrect-reuse bug of Fig. 5 (duplicated and missing keys).
    /// Both backends honour it through [`job_init`]; only engine tests
    /// set it.
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

    /// Rejects a plan `job` cannot run: a split factor of 0, a split of
    /// an unsplittable job (§IV-B1), or a partition outside its
    /// `num_reducers`.
    pub fn validate(&self, job: JobId, num_reducers: u32, splittable: bool) -> Result<()> {
        if let Some(k) = self.split {
            if k == 0 {
                return Err(Error::Config("split factor must be >= 1".into()));
            }
            if k > 1 && !splittable {
                return Err(Error::UnsplittableJob(job));
            }
        }
        if self.partitions.iter().any(|p| p.raw() >= num_reducers) {
            return Err(Error::Config(format!(
                "recompute partition out of range for {num_reducers} reducers"
            )));
        }
        Ok(())
    }
}

/// One input block of a job, as JobInit sees it: one mapper reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapInput {
    /// The input partition the block belongs to.
    pub partition: PartitionId,
    /// Some live node holds a replica.
    pub readable: bool,
    /// The input fingerprint of this mapper's persisted output, if one
    /// is stored on a live node.
    pub stored: Option<u64>,
    /// The block's fingerprint now (the engine's content hash, the
    /// simulator's partition version).
    pub current: u64,
}

impl MapInput {
    /// The persisted output may stand in for a run of this mapper: it
    /// was computed from the block as it is now (the Fig. 5 rule), or
    /// any stored output will do when fingerprints are ignored.
    pub fn reusable(&self, ignore_fingerprints: bool) -> bool {
        self.stored
            .is_some_and(|s| ignore_fingerprints || s == self.current)
    }
}

/// A snapshot of one job's input, which each backend builds from its
/// own state: what [`job_init`] and the lineage walk decide over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InputView {
    /// Input partitions never (re)written — e.g. cleared by a recompute
    /// a nested failure cancelled. They have no blocks to miss.
    pub unwritten: BTreeSet<PartitionId>,
    /// Every input block, in `(partition, block)` order.
    pub blocks: Vec<MapInput>,
}

impl InputView {
    /// Partitions that must be regenerated before the job can consume
    /// them: the unwritten ones and those with a block no live node
    /// holds.
    pub fn lost(&self) -> BTreeSet<PartitionId> {
        let unreadable = self.blocks.iter().filter(|b| !b.readable);
        let unreadable = unreadable.map(|b| b.partition);
        self.unwritten.iter().copied().chain(unreadable).collect()
    }

    /// Partitions read by the mappers a reusing run would re-run: no
    /// persisted output, or one computed from an input that has since
    /// been regenerated differently (the Fig. 5 rule).
    pub fn rerun(&self) -> BTreeSet<PartitionId> {
        let rerun = self.blocks.iter().filter(|b| !b.reusable(false));
        rerun.map(|b| b.partition).collect()
    }
}

/// JobInit (§IV-A), decided once for both backends and taken before a
/// run touches anything: the blocks whose mappers run, as ascending
/// indices into [`InputView::blocks`]; persisted outputs stand in for
/// the rest. In order:
///
/// 1. an unwritten input partition cancels the run;
/// 2. a block's mapper re-runs unless `plan` reuses map outputs and the
///    stored one is [`MapInput::reusable`] — a full run (`plan ==
///    None`) re-runs every mapper;
/// 3. `force_rerun_mappers = Some(n)` instead re-runs `n` mappers
///    strided evenly over the input;
/// 4. a re-running mapper whose block is unreadable cancels the run.
///
/// A cancellation is [`Error::JobInputLost`] naming the partitions of
/// rule 1, or else those of rule 4, sorted and deduplicated.
pub fn job_init(job: JobId, plan: Option<&RecomputePlan>, input: &InputView) -> Result<Vec<usize>> {
    let total = input.blocks.len();
    let rerun: Vec<usize> = match plan.and_then(|p| p.force_rerun_mappers) {
        Some(n) => {
            // Stride evenly across the input so the forced set is
            // spread over partitions (and their holders) the way real
            // invalidation is — taking a prefix would pile all reads
            // onto one partition's few replica holders.
            let n = n.min(total);
            let mut picked: Vec<usize> = (0..n).map(|i| i * total / n.max(1)).collect();
            picked.dedup();
            picked
        }
        None => {
            let reuse = plan.is_some_and(|p| p.reuse_map_outputs);
            let ignore = plan.is_some_and(|p| p.unsafe_ignore_fingerprints);
            (0..total)
                .filter(|&i| !(reuse && input.blocks[i].reusable(ignore)))
                .collect()
        }
    };
    let mut lost = input.unwritten.clone();
    if lost.is_empty() {
        let unreadable = rerun
            .iter()
            .map(|&i| &input.blocks[i])
            .filter(|b| !b.readable);
        lost = unreadable.map(|b| b.partition).collect();
    }
    if lost.is_empty() {
        return Ok(rerun);
    }
    Err(Error::JobInputLost {
        job,
        lost_partitions: lost.into_iter().collect(),
    })
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

    /// One block: its partition, whether it is readable, and the stored
    /// and current fingerprints.
    fn block(p: u32, readable: bool, stored: Option<u64>, current: u64) -> MapInput {
        MapInput {
            partition: PartitionId(p),
            readable,
            stored,
            current,
        }
    }

    /// One row per JobInit rule, in the order `job_init` applies them.
    #[test]
    fn job_init_table() {
        let job = JobId(2);
        let reuse = RecomputePlan::new([0u32], None);
        let no_reuse = RecomputePlan {
            reuse_map_outputs: false,
            ..reuse.clone()
        };
        let ignore_fp = RecomputePlan {
            unsafe_ignore_fingerprints: true,
            ..reuse.clone()
        };
        let forced = RecomputePlan {
            force_rerun_mappers: Some(5),
            ..reuse.clone()
        };
        let view = |unwritten: &[u32], blocks: Vec<MapInput>| InputView {
            unwritten: unwritten.iter().copied().map(PartitionId).collect(),
            blocks,
        };
        let lost = |ps: &[u32]| {
            Err(Error::JobInputLost {
                job,
                lost_partitions: ps.iter().copied().map(PartitionId).collect(),
            })
        };
        let run = |rerun: &[usize]| Ok(rerun.to_vec());
        let fresh = (0..12).map(|i| block(i / 4, true, Some(7), 7)).collect();
        let rows = [
            (
                "an unwritten partition cancels though every output is reusable",
                Some(&reuse),
                view(&[3, 1], vec![block(0, true, Some(7), 7)]),
                lost(&[1, 3]),
            ),
            (
                "a lost block whose output is reusable does not cancel",
                Some(&reuse),
                view(
                    &[],
                    vec![block(0, false, Some(7), 7), block(1, true, None, 7)],
                ),
                run(&[1]),
            ),
            (
                "without reuse, one unreadable block cancels",
                Some(&no_reuse),
                view(
                    &[],
                    vec![block(0, true, Some(7), 7), block(1, false, Some(7), 7)],
                ),
                lost(&[1]),
            ),
            (
                "a full run re-runs every mapper",
                None,
                view(
                    &[],
                    vec![block(0, true, Some(7), 7), block(0, true, Some(7), 7)],
                ),
                run(&[0, 1]),
            ),
            (
                "a stale output re-runs; cancelled partitions are deduplicated",
                Some(&reuse),
                view(
                    &[],
                    vec![block(2, false, Some(6), 7), block(2, false, None, 7)],
                ),
                lost(&[2]),
            ),
            (
                "ignored fingerprints reuse a stale output",
                Some(&ignore_fp),
                view(
                    &[],
                    vec![block(0, true, Some(6), 7), block(1, true, None, 7)],
                ),
                run(&[1]),
            ),
            (
                "the forced stride of Figs. 13/14, spread and without duplicates",
                Some(&forced),
                view(&[], fresh),
                run(&[0, 2, 4, 7, 9]),
            ),
        ];
        for (what, plan, input, want) in rows {
            assert_eq!(job_init(job, plan, &input), want, "{what}");
        }
        // Forcing more mappers than there are re-runs them all once.
        let few = view(&[], vec![block(0, true, Some(7), 7); 3]);
        let mut all = forced.clone();
        all.force_rerun_mappers = Some(9);
        assert_eq!(job_init(job, Some(&all), &few), run(&[0, 1, 2]));
    }

    #[test]
    fn validate_rejects_what_no_backend_can_run() {
        let job = JobId(1);
        let ok = RecomputePlan::new([3u32], 2);
        assert_eq!(ok.validate(job, 4, true), Ok(()));
        assert_eq!(ok.validate(job, 4, false), Err(Error::UnsplittableJob(job)));
        assert!(matches!(
            RecomputePlan::new([3u32], 0).validate(job, 4, true),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            RecomputePlan::new([4u32], None).validate(job, 4, true),
            Err(Error::Config(_))
        ));
        // A whole-reducer plan of an unsplittable job is fine.
        assert_eq!(
            RecomputePlan::new([3u32], 1).validate(job, 4, false),
            Ok(())
        );
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
