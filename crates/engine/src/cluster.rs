//! The collocated cluster: DFS + map-output store + liveness.

use crate::mapstore::{MapInputKey, MapOutputStore};
use crate::task::MapTask;
use parking_lot::Mutex;
use rcmp_dfs::{BlockLocation, Dfs, DfsConfig, LossReport, RebalanceReport};
use rcmp_exec::BackendExecutor;
use rcmp_model::{ClusterConfig, JobId, MapTaskId, NodeId, Result};
use rcmp_obs::{
    BlackboxDump, Clock, FlightRecorder, Gauge, MetricsRegistry, PhaseProfiler, SpanKind, Tracer,
};
use rcmp_policy::{InputView, MapInput, Membership};
use std::collections::HashMap;
use std::sync::Arc;

/// A collocated cluster (§II): every node is both a storage node (DFS
/// blocks + persisted map outputs) and a compute node (task slots).
/// Killing a node therefore loses computation *and* data — the scenario
/// that makes recomputation-based resilience challenging.
///
/// The cluster owns the run's observability state: one [`Tracer`]
/// shared with the DFS (so block spans and task spans merge into a
/// single trace), one [`MetricsRegistry`] the tracker registers its
/// hot-path counters in, plus the production telemetry tier — an
/// always-on [`FlightRecorder`], a [`PhaseProfiler`] fed by the
/// tracker, the DFS and the executor pool, and a slot the driver parks a
/// post-mortem [`BlackboxDump`] in when a chain dies. All timestamps
/// flow through one shared [`Clock`].
pub struct Cluster {
    cfg: ClusterConfig,
    dfs: Arc<Dfs>,
    map_outputs: MapOutputStore,
    epoch_gauge: Gauge,
    live_gauge: Gauge,
    tracer: Arc<Tracer>,
    metrics: Arc<MetricsRegistry>,
    executor: BackendExecutor,
    recorder: Arc<FlightRecorder>,
    profiler: Arc<PhaseProfiler>,
    blackbox: Mutex<HashMap<String, BlackboxDump>>,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.validate().expect("invalid cluster config");
        // One clock for the whole run: tracer spans, flight-recorder
        // timestamps and phase-profiler guards all agree on an epoch.
        let clock = Clock::monotonic();
        let tracer = Arc::new(Tracer::with_clock(clock.clone()));
        let metrics = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(FlightRecorder::with_defaults(clock.clone()));
        let profiler = Arc::new(PhaseProfiler::new(clock));
        let slots = cfg.nodes * cfg.slots.map.max(cfg.slots.reduce);
        let executor = BackendExecutor::for_slots(&cfg.executor, slots)
            .with_obs(tracer.clone(), &metrics)
            .with_profiler(profiler.clone());
        let dfs_cfg = DfsConfig {
            nodes: cfg.nodes,
            block_size: cfg.block_size,
            seed: cfg.seed,
            racks: 1,
            store_shards: cfg.shuffle.store_shards,
        };
        let mut dfs = Dfs::new_traced(dfs_cfg, tracer.clone()).with_obs(
            &metrics,
            profiler.clone(),
            recorder.clone(),
        );
        if cfg.chain_cache.enabled {
            dfs = dfs.with_chain_cache(Arc::new(
                rcmp_dfs::ChainCache::new(cfg.chain_cache.budget).with_obs(&metrics),
            ));
        }
        let epoch_gauge = metrics.gauge("membership.epoch");
        let live_gauge = metrics.gauge("membership.live_nodes");
        live_gauge.set(dfs.placement_targets().len() as i64);
        Self {
            cfg,
            dfs: Arc::new(dfs),
            map_outputs: MapOutputStore::new(),
            epoch_gauge,
            live_gauge,
            tracer,
            metrics,
            executor,
            recorder,
            profiler,
            blackbox: Mutex::new(HashMap::new()),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The cluster-wide span tracer (shared with the DFS). Snapshot it
    /// after a run to analyze or export the trace.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The cluster-wide metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The always-on flight recorder: compact events from the tracker,
    /// the DFS and the driver, retained in fixed-capacity rings.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The phase profiler: the cluster-wide time-budget decomposition
    /// the tracker, the DFS and the executor pool accumulate into.
    pub fn profiler(&self) -> &Arc<PhaseProfiler> {
        &self.profiler
    }

    /// Parks a post-mortem dump on the cluster under the dying chain's
    /// key (the driver calls this when a chain dies with a typed
    /// error). Dumps are keyed so concurrent chains — e.g. different
    /// tenants on the job service — can neither clobber nor steal each
    /// other's post-mortems; a later failure of the *same* chain
    /// replaces its unclaimed earlier dump (newest death wins).
    pub fn store_blackbox(&self, chain: &str, dump: BlackboxDump) {
        self.blackbox.lock().insert(chain.to_string(), dump);
    }

    /// Takes the parked post-mortem dump for one chain key, if that
    /// chain's death produced one.
    pub fn take_blackbox(&self, chain: &str) -> Option<BlackboxDump> {
        self.blackbox.lock().remove(chain)
    }

    /// Takes any parked post-mortem dump (smallest chain key first, so
    /// the choice is deterministic). Single-chain drivers that don't
    /// track chain keys use this.
    pub fn take_any_blackbox(&self) -> Option<BlackboxDump> {
        let mut parked = self.blackbox.lock();
        let key = parked.keys().min().cloned()?;
        parked.remove(&key)
    }

    /// The wave executor sized by `ClusterConfig::executor` — the
    /// tracker runs every map and reduce wave through it.
    pub fn executor(&self) -> &BackendExecutor {
        &self.executor
    }

    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    pub fn map_outputs(&self) -> &MapOutputStore {
        &self.map_outputs
    }

    /// Nodes whose data is reachable (Up or Draining), ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.dfs.live_nodes()
    }

    /// Nodes tasks may be scheduled on (Up only), ascending. A draining
    /// node keeps serving its data but takes no new work.
    pub fn schedulable_nodes(&self) -> Vec<NodeId> {
        self.dfs.placement_targets()
    }

    pub fn is_alive(&self, node: NodeId) -> bool {
        self.dfs.is_alive(node)
    }

    // ----------------------------------------------------------- membership

    /// A snapshot of the cluster's one membership record, which the
    /// DFS owns. Every scheduling decision is made against such a
    /// snapshot; the simulator builds the identical record from the
    /// same transition sequence, which is what keeps engine and sim
    /// schedules byte-identical across membership epochs.
    pub fn membership(&self) -> Membership {
        self.dfs.membership()
    }

    /// Updates the membership gauges and emits a `membership.*` span
    /// after a successful transition.
    fn note_transition(&self, what: &str, node: NodeId) {
        let m = self.membership();
        let (epoch, live) = (m.epoch(), m.schedulable().len());
        self.epoch_gauge.set(epoch as i64);
        self.live_gauge.set(live as i64);
        self.tracer.instant(
            SpanKind::Event {
                seq: 0,
                label: format!("membership.{what} epoch={epoch} live={live}"),
            },
            None,
            None,
            Some(node),
        );
    }

    /// Adds a fresh node (Up, empty) and returns its id. Bumps the
    /// membership epoch.
    pub fn join_node(&self, capacity: u32, rack: u32) -> NodeId {
        let id = self.dfs.join_node(capacity, rack);
        self.note_transition("join", id);
        id
    }

    /// Starts draining `node` (Up → Draining): no new tasks or replicas,
    /// data stays readable. Bumps the membership epoch.
    pub fn drain_node(&self, node: NodeId) -> Result<()> {
        self.dfs.drain_node(node)?;
        self.note_transition("drain", node);
        Ok(())
    }

    /// Brings a drained or decommissioned node back (→ Up). Bumps the
    /// membership epoch.
    pub fn rejoin_node(&self, node: NodeId) -> Result<()> {
        self.dfs.rejoin_node(node)?;
        self.note_transition("rejoin", node);
        Ok(())
    }

    /// Gracefully removes `node`: its DFS replicas are rebalanced onto
    /// the remaining Up nodes first (preserving the persisted-output
    /// lineage — nothing is lost, nothing recomputed), then its store is
    /// wiped and its persisted map outputs dropped. Bumps the membership
    /// epoch.
    pub fn decommission_node(&self, node: NodeId) -> Result<RebalanceReport> {
        let report = self.dfs.decommission_node(node)?;
        self.map_outputs.drop_node(node);
        self.note_transition("decommission", node);
        Ok(report)
    }

    /// Kills a node: DFS blocks *and* persisted map outputs on it are
    /// gone. Returns the DFS loss report (irreversibly lost partitions
    /// per file). Bumps the membership epoch if the node was readable;
    /// killing it again changes nothing.
    pub fn fail_node(&self, node: NodeId) -> LossReport {
        let was_alive = self.dfs.is_alive(node);
        let report = self.dfs.fail_node(node);
        self.map_outputs.drop_node(node);
        if was_alive {
            self.note_transition("dead", node);
        }
        report
    }

    /// `job`'s mappers over its input file `input`, one per block, and
    /// the snapshot `rcmp_policy::job_init` and the planner decide over:
    /// one metadata read and one map-output lookup per block.
    pub fn map_inputs(&self, job: JobId, input: &str) -> Result<(Vec<MapTask>, InputView)> {
        let meta = self.dfs.file_meta(input)?;
        let live = self.dfs.live_nodes();
        let mut tasks = Vec::new();
        let mut view = InputView::default();
        for p in &meta.partitions {
            if !p.is_written() {
                view.unwritten.insert(p.id);
            }
            for (bi, block) in p.blocks().enumerate() {
                let key = MapInputKey::new(job, p.id, bi as u32);
                view.blocks.push(MapInput {
                    partition: p.id,
                    readable: block.replicas.iter().any(|n| live.contains(n)),
                    stored: self.map_outputs.input_hash(&key),
                    current: block.content_hash,
                });
                tasks.push(MapTask {
                    id: MapTaskId::new(job, tasks.len() as u32),
                    key,
                    block: BlockLocation::from(block),
                });
            }
        }
        Ok((tasks, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapstore::{BucketIndex, MapInputKey};
    use bytes::Bytes;
    use rcmp_dfs::PlacementPolicy;
    use rcmp_model::{ByteSize, JobId, PartitionId, ReduceTaskId};
    use std::collections::HashMap;

    #[test]
    fn failure_hits_both_stores() {
        let cl = Cluster::new(ClusterConfig::small_test(3));
        cl.dfs().create_file("f", 1, 1).unwrap();
        cl.dfs()
            .write_partition_segment(
                "f",
                PartitionId(0),
                Bytes::from(vec![1u8; 100]),
                NodeId(1),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        let key = MapInputKey::new(JobId(1), PartitionId(0), 0);
        let mut buckets = HashMap::new();
        buckets.insert(
            ReduceTaskId::whole(JobId(1), PartitionId(0)),
            (Bytes::new(), BucketIndex::empty()),
        );
        cl.map_outputs().insert_indexed(key, NodeId(1), 0, buckets);

        let report = cl.fail_node(NodeId(1));
        assert_eq!(report.lost_in("f"), &[PartitionId(0)]);
        assert!(cl.map_outputs().input_hash(&key).is_none());
        assert_eq!(cl.live_nodes(), vec![NodeId(0), NodeId(2)]);
        assert!(!cl.is_alive(NodeId(1)));
    }

    #[test]
    fn membership_transitions_track_epoch_and_gauges() {
        let cl = Cluster::new(ClusterConfig::small_test(3));
        assert_eq!(cl.membership().epoch(), 0);
        assert_eq!(cl.schedulable_nodes().len(), 3);

        cl.drain_node(NodeId(1)).unwrap();
        assert_eq!(cl.membership().epoch(), 1);
        assert_eq!(cl.schedulable_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(cl.live_nodes().len(), 3, "draining stays readable");

        let joined = cl.join_node(1, 0);
        assert_eq!(joined, NodeId(3));
        assert_eq!(cl.membership().epoch(), 2);

        cl.rejoin_node(NodeId(1)).unwrap();
        assert_eq!(cl.schedulable_nodes().len(), 4);

        cl.fail_node(NodeId(2));
        assert_eq!(cl.membership().epoch(), 4);
        let snap = cl.metrics().snapshot();
        assert!(snap.get("membership.epoch").is_some());
        assert_eq!(
            cl.schedulable_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        // The membership snapshot agrees with the DFS view.
        let m = cl.membership();
        assert_eq!(
            m.schedulable(),
            cl.schedulable_nodes()
                .iter()
                .map(|n| n.raw())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejected_transitions_change_nothing() {
        let cl = Cluster::new(ClusterConfig::small_test(3));
        cl.dfs().create_file("f", 1, 1).unwrap();
        cl.dfs()
            .write_partition_segment(
                "f",
                PartitionId(0),
                Bytes::from(vec![3u8; 100]),
                NodeId(1),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        cl.fail_node(NodeId(2));
        cl.decommission_node(NodeId(1)).unwrap();
        // Node 0 is Up, node 1 Decommissioned, node 2 Dead.
        let state = || {
            (
                cl.membership(),
                cl.metrics().gauge("membership.epoch").get(),
                cl.metrics().gauge("membership.live_nodes").get(),
                cl.dfs().total_used(),
                cl.dfs().file_meta("f").unwrap(),
            )
        };
        let before = state();
        assert_eq!((before.1, before.2), (2, 1));
        assert!(cl.drain_node(NodeId(2)).is_err(), "drain a dead node");
        assert!(cl.rejoin_node(NodeId(0)).is_err(), "rejoin an Up node");
        assert!(
            cl.decommission_node(NodeId(1)).is_err(),
            "decommission a decommissioned node"
        );
        assert!(cl.fail_node(NodeId(9)).is_benign(), "kill an unknown node");
        assert_eq!(state(), before);
    }

    #[test]
    fn decommission_preserves_lineage() {
        let cl = Cluster::new(ClusterConfig::small_test(3));
        cl.dfs().create_file("f", 1, 1).unwrap();
        let data = Bytes::from(vec![5u8; 200]);
        cl.dfs()
            .write_partition_segment(
                "f",
                PartitionId(0),
                data.clone(),
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        let report = cl.decommission_node(NodeId(0)).unwrap();
        assert!(report.blocks_moved > 0);
        assert_eq!(
            cl.dfs()
                .read_partition("f", PartitionId(0), NodeId(1))
                .unwrap(),
            data,
            "rebalanced data reads back byte-identical"
        );
        assert_eq!(cl.schedulable_nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn config_accessible() {
        let cl = Cluster::new(ClusterConfig::small_test(2));
        assert_eq!(cl.config().nodes, 2);
        assert_eq!(cl.config().block_size, ByteSize::mib(1));
    }
}
