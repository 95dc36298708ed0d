//! Storage reclamation (§IV-C).
//!
//! RCMP trades storage for recomputation speed; hybrid mode's
//! replication points bound how far cascades revert, which makes the
//! state behind a point dead weight: once `out(k)` is replicated, no
//! recovery ever needs `out(j)` for `j < k`, nor any persisted map
//! output of a job at or before `k`. [`reclaim_before`] frees both.

use crate::dag::JobGraph;
use rcmp_engine::Cluster;
use rcmp_model::{JobId, Result};
use rcmp_policy::Reclaimed;

/// Frees recovery state made obsolete by a replication point at
/// `replicated` (whose output was just raised to factor ≥ 2):
///
/// * deletes the output files of all jobs strictly before `replicated`
///   in submission order (already consumed, never needed again);
/// * drops the persisted map outputs of `replicated` and everything
///   before it (their reducer outputs are replicated or deleted).
pub fn reclaim_before(cluster: &Cluster, graph: &JobGraph, replicated: JobId) -> Result<Reclaimed> {
    let order = graph.submission_order()?;
    let pos = order
        .iter()
        .position(|&j| j == replicated)
        .ok_or_else(|| rcmp_model::Error::Config(format!("unknown job {replicated}")))?;
    let mut stats = Reclaimed::default();
    for (i, &job) in order.iter().enumerate() {
        if i > pos {
            break;
        }
        stats.map_entries_dropped += cluster.map_outputs().clear_job(job);
        if i < pos {
            if let Some(spec) = graph.spec(job) {
                if cluster.dfs().file_exists(&spec.output) {
                    cluster.dfs().delete_file(&spec.output)?;
                    stats.files_deleted += 1;
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_dfs::PlacementPolicy;
    use rcmp_engine::{IdentityMapper, IdentityReducer, JobSpec, MapInputKey};
    use rcmp_model::{ClusterConfig, NodeId, PartitionId};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn spec(job: u32, input: &str, output: &str) -> JobSpec {
        JobSpec {
            job: JobId(job),
            input: input.into(),
            output: output.into(),
            num_reducers: 1,
            output_replication: 1,
            placement: PlacementPolicy::WriterLocal,
            mapper: Arc::new(IdentityMapper),
            reducer: Arc::new(IdentityReducer),
            combiner: None,
            splittable: true,
        }
    }

    fn put_map_output(cluster: &Cluster, job: u32, idx: u32) {
        cluster.map_outputs().insert_indexed(
            MapInputKey::new(JobId(job), PartitionId(0), idx),
            NodeId(0),
            0,
            HashMap::new(),
        );
    }

    #[test]
    fn reclaim_frees_old_files_and_entries() {
        let cluster = Cluster::new(ClusterConfig::small_test(3));
        let g = JobGraph::new([
            spec(1, "input", "out/1"),
            spec(2, "out/1", "out/2"),
            spec(3, "out/2", "out/3"),
        ])
        .unwrap();
        for j in 1..=3 {
            cluster
                .dfs()
                .create_file(&format!("out/{j}"), 1, 1)
                .unwrap();
            cluster
                .dfs()
                .write_partition_segment(
                    &format!("out/{j}"),
                    PartitionId(0),
                    bytes::Bytes::from(vec![j as u8; 50]),
                    NodeId(0),
                    PlacementPolicy::WriterLocal,
                )
                .unwrap();
            put_map_output(&cluster, j, 0);
        }

        let stats = reclaim_before(&cluster, &g, JobId(2)).unwrap();
        assert_eq!(stats.files_deleted, 1, "out/1 deleted");
        assert_eq!(stats.map_entries_dropped, 2, "jobs 1 and 2 cleared");
        assert!(!cluster.dfs().file_exists("out/1"));
        assert!(
            cluster.dfs().file_exists("out/2"),
            "the replicated file stays"
        );
        assert!(cluster.dfs().file_exists("out/3"));
        assert_eq!(cluster.map_outputs().keys_for_job(JobId(3)).len(), 1);
    }
}
