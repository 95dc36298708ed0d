//! The middleware's job-dependency graph.
//!
//! The user submits a multi-job computation with explicit dependencies;
//! the middleware submits each job only after its producers completed
//! (§IV-A). The graph also answers the question recovery planning
//! needs: *which job produced this file*.

use rcmp_engine::JobSpec;
use rcmp_model::{Error, JobId, Result};
use std::collections::BTreeMap;

/// Dependency graph over a set of job specs, derived from their
/// input/output file paths.
#[derive(Clone, Debug, Default)]
pub struct JobGraph {
    specs: BTreeMap<JobId, JobSpec>,
    /// file path → producing job.
    producer: BTreeMap<String, JobId>,
}

impl JobGraph {
    /// Builds the graph from specs. Paths define the edges: job B
    /// depends on job A iff B's input is A's output.
    pub fn new(specs: impl IntoIterator<Item = JobSpec>) -> Result<Self> {
        let mut g = JobGraph::default();
        for spec in specs {
            if g.producer.contains_key(&spec.output) {
                return Err(Error::Config(format!("two jobs produce {}", spec.output)));
            }
            g.producer.insert(spec.output.clone(), spec.job);
            if g.specs.insert(spec.job, spec).is_some() {
                return Err(Error::Config("duplicate job id".into()));
            }
        }
        Ok(g)
    }

    pub fn spec(&self, job: JobId) -> Option<&JobSpec> {
        self.specs.get(&job)
    }

    /// The job producing `file`, if any (external inputs have none).
    pub fn producer_of(&self, file: &str) -> Option<JobId> {
        self.producer.get(file).copied()
    }

    /// The jobs `job` directly depends on.
    pub fn dependencies(&self, job: JobId) -> Vec<JobId> {
        self.specs
            .get(&job)
            .and_then(|s| self.producer_of(&s.input))
            .into_iter()
            .collect()
    }

    /// Topological submission order (dependencies first). Errors on
    /// cycles.
    pub fn submission_order(&self) -> Result<Vec<JobId>> {
        let mut order = Vec::with_capacity(self.specs.len());
        let mut state: BTreeMap<JobId, u8> = BTreeMap::new(); // 0 new, 1 visiting, 2 done
        fn visit(
            g: &JobGraph,
            j: JobId,
            state: &mut BTreeMap<JobId, u8>,
            order: &mut Vec<JobId>,
        ) -> Result<()> {
            match state.get(&j).copied().unwrap_or(0) {
                2 => return Ok(()),
                1 => return Err(Error::Config(format!("dependency cycle at {j}"))),
                _ => {}
            }
            state.insert(j, 1);
            for d in g.dependencies(j) {
                visit(g, d, state, order)?;
            }
            state.insert(j, 2);
            order.push(j);
            Ok(())
        }
        for &j in self.specs.keys() {
            visit(self, j, &mut state, &mut order)?;
        }
        Ok(order)
    }

    pub fn jobs(&self) -> impl Iterator<Item = (&JobId, &JobSpec)> {
        self.specs.iter()
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_dfs::PlacementPolicy;
    use rcmp_engine::{IdentityMapper, IdentityReducer};
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

    #[test]
    fn chain_graph() {
        let g = JobGraph::new([
            spec(1, "input", "out/1"),
            spec(2, "out/1", "out/2"),
            spec(3, "out/2", "out/3"),
        ])
        .unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.producer_of("out/2"), Some(JobId(2)));
        assert_eq!(g.producer_of("input"), None);
        assert_eq!(g.dependencies(JobId(3)), vec![JobId(2)]);
        assert!(g.dependencies(JobId(1)).is_empty());
        assert_eq!(
            g.submission_order().unwrap(),
            vec![JobId(1), JobId(2), JobId(3)]
        );
    }

    #[test]
    fn fan_out_graph() {
        // Two consumers of one file (a DAG beyond the paper's chain).
        let g = JobGraph::new([
            spec(1, "input", "shared"),
            spec(2, "shared", "out/a"),
            spec(3, "shared", "out/b"),
        ])
        .unwrap();
        let order = g.submission_order().unwrap();
        assert_eq!(order[0], JobId(1));
    }

    #[test]
    fn duplicate_output_rejected() {
        let err = JobGraph::new([spec(1, "input", "same"), spec(2, "x", "same")]);
        assert!(err.is_err());
    }

    #[test]
    fn cycle_rejected() {
        let g = JobGraph::new([spec(1, "a", "b"), spec(2, "b", "a")]).unwrap();
        assert!(g.submission_order().is_err());
    }
}
