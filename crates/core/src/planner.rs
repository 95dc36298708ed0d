//! Cascading-recomputation planning.
//!
//! On irreversible data loss, the middleware must decide *which jobs to
//! recompute, which reducer partitions of each, and in which order* so
//! that the cancelled job's input is regenerated (Fig. 1). The planner
//! walks the dependency graph backwards from the cancelled job:
//!
//! * the cancelled job restarts in full, so every lost partition of its
//!   input file must be regenerated by the producing job;
//! * a recomputation run of the producing job shuffles from **all** of
//!   that job's mappers; the mappers whose persisted outputs are missing
//!   (their node died) or stale (input fingerprint mismatch) must
//!   re-run, and *their* input partitions — if lost — must be
//!   regenerated one job deeper; and so on, possibly all the way back to
//!   the (replicated) external input.
//!
//! The plan is **minimal**: a lost partition is regenerated only if some
//! re-running task actually reads it. Lost partitions of already-consumed
//! outputs that no re-running mapper touches are simply abandoned —
//! recomputing them would be wasted work (property-tested in the
//! integration suite).
//!
//! Reducer splitting (§IV-B1) is applied per step via the
//! [`SplitPolicy`]; the engine's fingerprint rule then automatically
//! invalidates persisted map outputs over split-regenerated partitions
//! (Fig. 5), and those mappers re-read partitions this plan already
//! regenerates, so no extra planning is needed for correctness.

use crate::dag::JobGraph;
use crate::strategy::{HotspotMitigation, SplitPolicy};
use rcmp_engine::{Cluster, MapInputKey, RecomputeInstructions};
use rcmp_model::{Error, JobId, PartitionId, Result};
use rcmp_policy::choose_mitigation;
use std::collections::BTreeSet;

/// One recomputation submission: run `job` with the given instructions.
/// The instructions carry the whole decision, including the
/// `SpreadOutput` hot-spot mitigation (`instructions.spread_output`),
/// which the engine turns into a placement override.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryStep {
    pub job: JobId,
    pub instructions: RecomputeInstructions,
}

/// An ordered recovery plan (dependencies first). Executing every step
/// in order makes the cancelled job's input readable again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    pub steps: Vec<RecoveryStep>,
}

impl RecoveryPlan {
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total partitions regenerated across all steps.
    pub fn partition_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.instructions.partitions.len())
            .sum()
    }
}

/// Plans recovery so that `target` (the cancelled job) can restart.
///
/// Reads the *current* cluster state (DFS metadata + persisted map
/// outputs), so it can be re-invoked after nested failures and merges
/// the damage of any number of loss events (§IV-A).
pub fn plan_recovery(
    cluster: &Cluster,
    graph: &JobGraph,
    target: JobId,
    split: SplitPolicy,
    hotspot: HotspotMitigation,
) -> Result<RecoveryPlan> {
    let target_spec = graph
        .spec(target)
        .ok_or_else(|| Error::Config(format!("unknown job {target}")))?;
    let survivors = cluster.live_nodes().len();
    let mitigation = choose_mitigation(split, hotspot, survivors);

    let mut steps_rev: Vec<RecoveryStep> = Vec::new();

    // The cancelled job restarts in full: every lost partition of its
    // input must come back.
    let mut need_file = target_spec.input.clone();
    let mut need: BTreeSet<PartitionId> = lost_partitions(cluster, &need_file)?;

    while !need.is_empty() {
        let Some(producer) = graph.producer_of(&need_file) else {
            // External input with irreversible loss: unrecoverable by
            // recomputation (the paper replicates external inputs).
            return Err(Error::DataLoss {
                path: need_file,
                partition: need.first().copied(),
            });
        };
        let spec = graph
            .spec(producer)
            .ok_or_else(|| Error::Config(format!("unknown producer {producer}")))?;

        // Which of the producer's mappers will have to re-run? Those
        // without a valid persisted output (missing node, or stale
        // fingerprint from a previous regeneration).
        let rerun_pids = rerun_mapper_partitions(cluster, producer, &spec.input)?;

        let mut instructions = RecomputeInstructions::new(need.iter().copied(), mitigation.split);
        instructions.spread_output = mitigation.spread_output;
        steps_rev.push(RecoveryStep {
            job: producer,
            instructions,
        });

        // One job deeper: partitions the re-running mappers read that
        // are lost must themselves be regenerated.
        need_file = spec.input.clone();
        let lost_deeper = lost_partitions(cluster, &need_file)?;
        need = rerun_pids.intersection(&lost_deeper).copied().collect();
    }

    steps_rev.reverse();
    Ok(RecoveryPlan { steps: steps_rev })
}

/// Partitions of a file that must be regenerated before it can be
/// consumed: partitions that lost all replicas, plus partitions that are
/// *unwritten* — a recomputation run clears its target partitions before
/// regenerating them, so a nested failure can leave a partition empty
/// without it being "lost"; treating it as intact would silently drop
/// its records from every downstream job. Missing files need nothing
/// (never created).
fn lost_partitions(cluster: &Cluster, file: &str) -> Result<BTreeSet<PartitionId>> {
    match cluster.dfs().file_meta(file) {
        Ok(meta) => Ok(meta
            .partitions
            .iter()
            .filter(|p| p.is_lost() || !p.is_written())
            .map(|p| p.id)
            .collect()),
        Err(Error::FileNotFound(_)) => Ok(BTreeSet::new()),
        Err(e) => Err(e),
    }
}

/// Input partitions read by mappers of `job` that would have to re-run
/// today (no persisted output, or a stale input fingerprint).
fn rerun_mapper_partitions(
    cluster: &Cluster,
    job: JobId,
    input: &str,
) -> Result<BTreeSet<PartitionId>> {
    let meta = cluster.dfs().file_meta(input)?;
    let store = cluster.map_outputs();
    let mut pids = BTreeSet::new();
    for p in &meta.partitions {
        for (idx, block) in p.blocks().enumerate() {
            let key = MapInputKey::new(job, p.id, idx as u32);
            if store.input_hash(&key) != Some(block.content_hash) {
                pids.insert(p.id);
                break; // one invalid mapper already forces the partition
            }
        }
        // A partition with zero blocks but no persisted outputs can't
        // force anything; a *lost* partition's blocks are still listed
        // in the metadata (with empty replica sets), so enumeration is
        // complete even for lost data.
    }
    Ok(pids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_dfs::PlacementPolicy;
    use rcmp_engine::{IdentityMapper, IdentityReducer, JobSpec};
    use rcmp_model::{ClusterConfig, NodeId};
    use std::sync::Arc;

    fn spec(job: u32, input: &str, output: &str) -> JobSpec {
        JobSpec {
            job: JobId(job),
            input: input.into(),
            output: output.into(),
            num_reducers: 2,
            output_replication: 1,
            placement: PlacementPolicy::WriterLocal,
            mapper: Arc::new(IdentityMapper),
            reducer: Arc::new(IdentityReducer),
            combiner: None,
            splittable: true,
        }
    }

    fn chain_graph(n: u32) -> JobGraph {
        JobGraph::new((1..=n).map(|j| {
            let input = if j == 1 {
                "input".to_string()
            } else {
                format!("out/{}", j - 1)
            };
            spec(j, &input, &format!("out/{j}"))
        }))
        .unwrap()
    }

    /// Creates a file with every partition written (one tiny segment by
    /// `writer` each) — the planner treats unwritten partitions as
    /// needing regeneration, so fixtures must be complete files.
    fn complete_file(cluster: &Cluster, path: &str, partitions: u32, writer: NodeId) {
        cluster.dfs().create_file(path, 1, partitions).unwrap();
        for p in 0..partitions {
            cluster
                .dfs()
                .write_partition_segment(
                    path,
                    PartitionId(p),
                    bytes::Bytes::from(vec![p as u8; 10]),
                    writer,
                    PlacementPolicy::WriterLocal,
                )
                .unwrap();
        }
    }

    #[test]
    fn no_loss_empty_plan() {
        let cluster = Cluster::new(ClusterConfig::small_test(3));
        complete_file(&cluster, "input", 2, NodeId(0));
        complete_file(&cluster, "out/1", 2, NodeId(1));
        let g = chain_graph(2);
        let plan = plan_recovery(
            &cluster,
            &g,
            JobId(2),
            SplitPolicy::None,
            HotspotMitigation::None,
        )
        .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn unknown_job_rejected() {
        let cluster = Cluster::new(ClusterConfig::small_test(2));
        let g = chain_graph(1);
        assert!(plan_recovery(
            &cluster,
            &g,
            JobId(9),
            SplitPolicy::None,
            HotspotMitigation::None
        )
        .is_err());
    }

    #[test]
    fn lost_external_input_is_unrecoverable() {
        let cluster = Cluster::new(ClusterConfig::small_test(3));
        cluster.dfs().create_file("input", 1, 1).unwrap();
        cluster
            .dfs()
            .write_partition_segment(
                "input",
                PartitionId(0),
                bytes::Bytes::from(vec![1u8; 10]),
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        cluster.fail_node(NodeId(0));
        let g = chain_graph(1);
        let err = plan_recovery(
            &cluster,
            &g,
            JobId(1),
            SplitPolicy::None,
            HotspotMitigation::None,
        )
        .unwrap_err();
        assert!(matches!(err, Error::DataLoss { .. }));
    }

    #[test]
    fn spread_output_sets_plan_flag() {
        let cluster = Cluster::new(ClusterConfig::small_test(3));
        complete_file(&cluster, "input", 1, NodeId(1));
        complete_file(&cluster, "out/1", 2, NodeId(2));
        // Move partition 0 of out/1 onto the doomed node.
        cluster
            .dfs()
            .clear_partition("out/1", PartitionId(0))
            .unwrap();
        cluster
            .dfs()
            .write_partition_segment(
                "out/1",
                PartitionId(0),
                bytes::Bytes::from(vec![1u8; 10]),
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        cluster.fail_node(NodeId(0));
        let g = chain_graph(2);
        let plan = plan_recovery(
            &cluster,
            &g,
            JobId(2),
            SplitPolicy::None,
            HotspotMitigation::SpreadOutput,
        )
        .unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].instructions.spread_output);
    }

    #[test]
    fn split_policy_survivors_reflected_in_instructions() {
        let cluster = Cluster::new(ClusterConfig::small_test(4));
        complete_file(&cluster, "input", 1, NodeId(0));
        complete_file(&cluster, "out/1", 2, NodeId(1));
        cluster
            .dfs()
            .clear_partition("out/1", PartitionId(1))
            .unwrap();
        cluster
            .dfs()
            .write_partition_segment(
                "out/1",
                PartitionId(1),
                bytes::Bytes::from(vec![1u8; 10]),
                NodeId(2),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        cluster.fail_node(NodeId(2));
        let g = chain_graph(2);
        let plan = plan_recovery(
            &cluster,
            &g,
            JobId(2),
            SplitPolicy::Survivors,
            HotspotMitigation::SplitReducers,
        )
        .unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].job, JobId(1));
        assert_eq!(plan.steps[0].instructions.split, Some(3));
        assert_eq!(
            plan.steps[0].instructions.partitions,
            [PartitionId(1)].into_iter().collect()
        );
    }
}
