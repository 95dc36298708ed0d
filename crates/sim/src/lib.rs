//! A discrete cluster simulator for the RCMP evaluation.
//!
//! The paper's performance results (Figs. 8–14) come from two physical
//! clusters (STIC: 10 nodes / 40 GB, DCO: 60 nodes / 1.2 TB). Those
//! phenomena — replication write amplification, wave counts, shuffle
//! bottlenecks, recomputation under-utilization, disk hot-spots — are
//! all *resource contention* effects, so this crate models exactly the
//! resources involved and nothing else:
//!
//! * per-node **disk** bandwidth with a concurrency-dependent seek
//!   penalty (the hot-spot mechanism of §IV-B2);
//! * per-node **NIC** bandwidth and an oversubscribed fabric;
//! * mapper/reducer **slots** and wave scheduling by the very kernel the
//!   real engine calls (`rcmp_policy::assign_{map,reduce}_waves` over a
//!   `SliceTopology::for_kernel`; `jobsim` implements its `MapTaskSet`),
//!   so wave counts and transfer volumes can be validated against real
//!   engine runs;
//! * **placement** of input blocks, reducer output segments and
//!   persisted map outputs at task granularity, so node death computes
//!   exactly which partitions and map outputs are lost;
//! * the **strategy** semantics of the real middleware (RCMP
//!   with/without splitting, REPL-k, OPTIMISTIC, hybrid) by running the
//!   same `rcmp-policy` chain loop and planner it runs, including
//!   cascading recomputation with the fingerprint-reuse rule and
//!   failure-detection timeouts.
//!
//! Time advances per task phase from bandwidth shares; per-task
//! durations are recorded so distributions (the mapper-time CDF of
//! Fig. 12) fall out directly.

pub mod chainsim;
pub mod hw;
pub mod jobsim;
pub mod report;
pub mod speculate;
pub mod state;
pub mod trace;
pub mod workload;

pub use chainsim::{simulate_chain, ChainSimConfig, FailureAt};
pub use hw::HwProfile;
pub use jobsim::JobSim;
pub use report::{SimChainReport, SimJobReport};
pub use speculate::{SpeculationCfg, SpeculationStats};
pub use state::SimState;
pub use trace::chain_trace;
pub use workload::WorkloadCfg;
