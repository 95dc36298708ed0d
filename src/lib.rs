//! RCMP: recomputation-based failure resilience for big data analytics.
//!
//! A from-scratch Rust reproduction of *"RCMP: Enabling Efficient
//! Recomputation Based Failure Resilience for Big Data Analytics"*
//! (Dinu & Ng, IPDPS 2014), including the MapReduce engine and DFS
//! substrate it runs on, the RCMP middleware (lineage, cascading
//! recomputation planning, reducer splitting, hybrid replication), a
//! discrete-event cluster simulator that regenerates the paper's
//! figures at paper scale, and the evaluation workloads.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] — shared types (ids, records, configs, partitioners);
//! * [`dfs`] — the HDFS-like replicated, partitioned block store;
//! * [`engine`] — the real multi-threaded MapReduce engine;
//! * [`exec`] — the wave executor: a job-scoped worker pool that runs
//!   thousands of simulated slots on a bounded set of threads;
//! * [`policy`] — the shared scheduling/recomputation policy kernel
//!   (wave assignment, hot-spot mitigation, [`policy::RecomputePlan`])
//!   that both the engine and the simulator execute;
//! * [`core`] — RCMP itself: planner, strategies, driver;
//! * [`obs`] — causal span tracing, metrics, and trace analyzers
//!   (slot occupancy, hot-spot skew, recomputation critical path);
//! * [`serve`] — the multi-tenant job service: admission control,
//!   fair-share (DRR) scheduling, per-tenant execution sessions and
//!   observability over one shared cluster;
//! * [`sim`] — the discrete-event cluster simulator;
//! * [`workloads`] — the paper's 7-job I/O-intensive chain;
//! * [`traces`] — failure-trace synthesis and CDF analysis (Fig. 2).
//!
//! # Quickstart
//!
//! ```
//! use rcmp::core::{ChainDriver, Strategy};
//! use rcmp::engine::Cluster;
//! use rcmp::model::ClusterConfig;
//! use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::small_test(4));
//! generate_input(cluster.dfs(), &DataGenConfig::test("input", 4, 20_000)).unwrap();
//! let chain = ChainBuilder::new(3, 4).build();
//! let driver = ChainDriver::new(&cluster, Strategy::rcmp_split(3));
//! let outcome = driver.run(&chain.jobs).unwrap();
//! assert_eq!(outcome.jobs_started, 3); // no failures: 3 runs
//! ```

pub use rcmp_core as core;
pub use rcmp_dfs as dfs;
pub use rcmp_engine as engine;
pub use rcmp_exec as exec;
pub use rcmp_model as model;
pub use rcmp_obs as obs;
pub use rcmp_policy as policy;
pub use rcmp_serve as serve;
pub use rcmp_sim as sim;
pub use rcmp_traces as traces;
pub use rcmp_workloads as workloads;
