//! Cascading-recomputation planning against real cluster state.
//!
//! The backward lineage walk that decides *which jobs to recompute,
//! which reducer partitions of each, and in which order* (Fig. 1) is
//! `rcmp_policy::chain::plan_cascade`, shared with the simulator. This
//! module supplies what it walks over on the engine side —
//! [`ClusterLineage`], a [`LineageView`] of DFS metadata, the persisted
//! map-output store and the job graph — and [`plan_recovery`], the
//! planner entry point over it.

use crate::dag::JobGraph;
use crate::strategy::{HotspotMitigation, SplitPolicy};
use rcmp_engine::{Cluster, JobSpec, MapInputKey};
use rcmp_model::{Error, JobId, PartitionId, Result};
use rcmp_policy::{plan_cascade, LineageView};
use std::collections::BTreeSet;

pub use rcmp_policy::{RecoveryPlan, RecoveryStep};

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
    plan_cascade(&ClusterLineage { cluster, graph }, target, split, hotspot)
}

/// The engine's lineage state: a job graph over a live cluster.
#[derive(Clone, Copy)]
pub struct ClusterLineage<'a> {
    pub cluster: &'a Cluster,
    pub graph: &'a JobGraph,
}

impl<'a> ClusterLineage<'a> {
    /// The spec of a job of this chain.
    pub fn spec(&self, job: JobId) -> Result<&'a JobSpec> {
        self.graph
            .spec(job)
            .ok_or_else(|| Error::Config(format!("unknown job {job}")))
    }
}

impl LineageView for ClusterLineage<'_> {
    fn producer(&self, job: JobId) -> Option<JobId> {
        self.graph.producer_of(&self.graph.spec(job)?.input)
    }

    /// Partitions that lost all replicas, plus partitions that are
    /// *unwritten* — a recomputation run clears its target partitions
    /// before regenerating them, so a nested failure can leave a
    /// partition empty without it being "lost"; treating it as intact
    /// would silently drop its records from every downstream job.
    /// Missing files need nothing (never created).
    fn lost_input(&self, job: JobId) -> Result<BTreeSet<PartitionId>> {
        match self.cluster.dfs().file_meta(&self.spec(job)?.input) {
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

    /// A mapper must re-run when the store holds no output for it or
    /// one whose input fingerprint is stale. A *lost* partition's
    /// blocks are still listed in the metadata (with empty replica
    /// sets), so enumeration is complete even for lost data.
    fn rerun_input(&self, job: JobId) -> Result<BTreeSet<PartitionId>> {
        let meta = self.cluster.dfs().file_meta(&self.spec(job)?.input)?;
        let store = self.cluster.map_outputs();
        Ok(meta
            .partitions
            .iter()
            .filter(|p| {
                p.blocks().enumerate().any(|(idx, block)| {
                    let key = MapInputKey::new(job, p.id, idx as u32);
                    store.input_hash(&key) != Some(block.content_hash)
                })
            })
            .map(|p| p.id)
            .collect())
    }

    fn survivors(&self) -> usize {
        self.cluster.live_nodes().len()
    }

    fn input_path(&self, job: JobId) -> String {
        self.graph
            .spec(job)
            .map(|s| s.input.clone())
            .unwrap_or_default()
    }
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
