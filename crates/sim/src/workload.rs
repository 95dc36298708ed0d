//! Simulated workload description (the paper's chain, §V-A).

use rcmp_model::{ByteSize, SlotConfig};
use serde::{Deserialize, Serialize};

/// Parameters of a simulated multi-job chain on a cluster.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCfg {
    /// Number of nodes at chain start.
    pub nodes: u32,
    pub slots: SlotConfig,
    /// Jobs in the chain (7 in the paper).
    pub jobs: u32,
    /// Input bytes per node (4 GiB on STIC, 20 GiB on DCO).
    pub per_node_input: ByteSize,
    /// DFS block size (256 MiB in the paper).
    pub block_size: ByteSize,
    /// Reducers per job. The paper sets it so WR = 1 (one reducer wave):
    /// `nodes * reduce_slots`.
    pub num_reducers: u32,
    /// Shuffle bytes per input byte (paper ratio 1:1:1 → 1.0).
    pub map_ratio: f64,
    /// Output bytes per shuffle byte.
    pub reduce_ratio: f64,
    /// Replication factor of the external input (3 in the paper).
    pub input_replication: u32,
}

impl WorkloadCfg {
    /// STIC-like: 10 nodes × 4 GiB = 40 GiB, 256 MiB blocks → 16
    /// mappers/node.
    pub fn stic(slots: SlotConfig) -> Self {
        let nodes = 10;
        Self {
            nodes,
            slots,
            jobs: 7,
            per_node_input: ByteSize::gib(4),
            block_size: ByteSize::mib(256),
            num_reducers: nodes * slots.reduce,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_replication: 3,
        }
    }

    /// DCO-like: 60 nodes × 20 GiB = 1.2 TiB, ~80 mappers/node.
    pub fn dco() -> Self {
        let nodes = 60;
        let slots = SlotConfig::ONE_ONE;
        Self {
            nodes,
            slots,
            jobs: 7,
            per_node_input: ByteSize::gib(20),
            block_size: ByteSize::mib(256),
            num_reducers: nodes * slots.reduce,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_replication: 3,
        }
    }

    /// Total input bytes.
    pub fn total_input(&self) -> ByteSize {
        self.per_node_input * self.nodes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's model counts for an initial run: mappers per job (one
    /// per input block) and the map and reduce waves (WM, WR).
    impl WorkloadCfg {
        fn mappers_per_job(&self) -> u64 {
            self.per_node_input.blocks_of(self.block_size) * self.nodes as u64
        }

        fn initial_map_waves(&self) -> u64 {
            let slots_total = (self.nodes * self.slots.map) as u64;
            self.mappers_per_job().div_ceil(slots_total)
        }

        fn initial_reduce_waves(&self) -> u64 {
            let slots_total = (self.nodes * self.slots.reduce) as u64;
            (self.num_reducers as u64).div_ceil(slots_total)
        }
    }

    #[test]
    fn paper_scale_counts() {
        let stic = WorkloadCfg::stic(SlotConfig::ONE_ONE);
        assert_eq!(stic.total_input(), ByteSize::gib(40));
        assert_eq!(stic.mappers_per_job(), 160); // 16 per node × 10
        assert_eq!(stic.initial_map_waves(), 16);
        assert_eq!(stic.initial_reduce_waves(), 1); // WR = 1 by default

        let dco = WorkloadCfg::dco();
        assert_eq!(dco.total_input(), ByteSize::gib(1200));
        assert_eq!(dco.mappers_per_job(), 80 * 60);
        assert_eq!(dco.initial_map_waves(), 80);
    }

    #[test]
    fn slots_two_two_halves_waves() {
        let s = WorkloadCfg::stic(SlotConfig::TWO_TWO);
        assert_eq!(s.initial_map_waves(), 8);
        assert_eq!(s.num_reducers, 20);
        assert_eq!(s.initial_reduce_waves(), 1);
    }
}
