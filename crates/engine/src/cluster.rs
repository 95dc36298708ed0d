//! The collocated cluster: DFS + map-output store + liveness.

use crate::mapstore::MapOutputStore;
use parking_lot::Mutex;
use rcmp_dfs::{Dfs, DfsConfig, LossReport, RebalanceReport};
use rcmp_exec::BackendExecutor;
use rcmp_model::{ClusterConfig, NodeId, Result};
use rcmp_obs::{
    BlackboxDump, Clock, FlightRecorder, Gauge, MetricsRegistry, PhaseProfiler, SpanKind, Tracer,
};
use rcmp_policy::Membership;
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
/// tracker, the DFS and the reactor, and a slot the driver parks a
/// post-mortem [`BlackboxDump`] in when a chain dies. All timestamps
/// flow through one shared [`Clock`].
pub struct Cluster {
    cfg: ClusterConfig,
    dfs: Arc<Dfs>,
    map_outputs: MapOutputStore,
    membership: Mutex<Membership>,
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
        Self::build(cfg, None)
    }

    /// Like [`Cluster::new`] but with a rack topology: remote replicas
    /// are placed rack-aware (HDFS-style, §III-A).
    pub fn with_topology(cfg: ClusterConfig, topology: rcmp_policy::RackTopology) -> Self {
        Self::build(cfg, Some(topology))
    }

    fn build(cfg: ClusterConfig, topology: Option<rcmp_policy::RackTopology>) -> Self {
        cfg.validate().expect("invalid cluster config");
        // One clock for the whole run: tracer spans, flight-recorder
        // timestamps and phase-profiler guards all agree on an epoch.
        let clock = Clock::monotonic();
        let tracer = Arc::new(Tracer::with_clock(clock.clone()));
        let metrics = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(FlightRecorder::with_defaults(clock.clone()));
        let profiler = Arc::new(PhaseProfiler::new(clock));
        let executor = BackendExecutor::from_config(&cfg.executor)
            .with_obs(tracer.clone(), &metrics)
            .with_profiler(profiler.clone());
        let dfs_cfg = DfsConfig {
            nodes: cfg.nodes,
            block_size: cfg.block_size,
            seed: cfg.seed,
            topology,
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
        // The authoritative membership record both backends schedule
        // against: same node→rack layout as the DFS placement topology.
        let membership = match &dfs.config().topology {
            Some(t) => Membership::with_racks(cfg.nodes, t.racks),
            None => Membership::uniform(cfg.nodes),
        };
        let epoch_gauge = metrics.gauge("membership.epoch");
        let live_gauge = metrics.gauge("membership.live_nodes");
        live_gauge.set(membership.schedulable().len() as i64);
        Self {
            cfg,
            dfs: Arc::new(dfs),
            map_outputs: MapOutputStore::new(),
            membership: Mutex::new(membership),
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
    /// the tracker, the DFS and the reactor accumulate into.
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

    /// The wave-executor backend selected by
    /// `ClusterConfig::executor` — the tracker runs every map and
    /// reduce wave through it.
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

    /// A snapshot of the authoritative membership record. Every
    /// scheduling decision is made against such a snapshot; the
    /// simulator builds the identical record from the same transition
    /// sequence, which is what keeps engine and sim schedules
    /// byte-identical across membership epochs.
    pub fn membership(&self) -> Membership {
        self.membership.lock().clone()
    }

    /// Current membership epoch: bumped by every join / drain /
    /// decommission / rejoin / death.
    pub fn membership_epoch(&self) -> u64 {
        self.membership.lock().epoch()
    }

    /// Updates the membership gauges and emits a `membership.*` span
    /// after a successful transition.
    fn note_transition(&self, what: &str, node: NodeId) {
        let (epoch, live) = {
            let m = self.membership.lock();
            (m.epoch(), m.schedulable().len())
        };
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
        let id = self.dfs.join_node();
        let idx = self.membership.lock().join(capacity, rack);
        debug_assert_eq!(idx, id.raw(), "dfs and membership indices agree");
        self.note_transition("join", id);
        id
    }

    /// Starts draining `node` (Up → Draining): no new tasks or replicas,
    /// data stays readable. Bumps the membership epoch.
    pub fn drain_node(&self, node: NodeId) -> Result<()> {
        self.dfs.drain_node(node)?;
        self.membership.lock().drain(node.raw())?;
        self.note_transition("drain", node);
        Ok(())
    }

    /// Brings a drained or decommissioned node back (→ Up). Bumps the
    /// membership epoch.
    pub fn rejoin_node(&self, node: NodeId) -> Result<()> {
        self.dfs.rejoin_node(node)?;
        self.membership.lock().rejoin(node.raw())?;
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
        self.membership.lock().decommission(node.raw())?;
        self.map_outputs.drop_node(node);
        self.note_transition("decommission", node);
        Ok(report)
    }

    /// Kills a node: DFS blocks *and* persisted map outputs on it are
    /// gone. Returns the DFS loss report (irreversibly lost partitions
    /// per file).
    pub fn fail_node(&self, node: NodeId) -> LossReport {
        let report = self.dfs.fail_node(node);
        self.map_outputs.drop_node(node);
        if self.membership.lock().mark_dead(node.raw()).is_ok() {
            self.note_transition("dead", node);
        }
        report
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
        assert_eq!(cl.membership_epoch(), 0);
        assert_eq!(cl.schedulable_nodes().len(), 3);

        cl.drain_node(NodeId(1)).unwrap();
        assert_eq!(cl.membership_epoch(), 1);
        assert_eq!(cl.schedulable_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(cl.live_nodes().len(), 3, "draining stays readable");

        let joined = cl.join_node(1, 0);
        assert_eq!(joined, NodeId(3));
        assert_eq!(cl.membership_epoch(), 2);

        cl.rejoin_node(NodeId(1)).unwrap();
        assert_eq!(cl.schedulable_nodes().len(), 4);

        cl.fail_node(NodeId(2));
        assert_eq!(cl.membership_epoch(), 4);
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
