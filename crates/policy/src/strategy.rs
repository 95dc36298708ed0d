//! The failure-resilience strategies compared in the evaluation (§V-A).
//!
//! The strategy *menu* sits beside the per-run decision types it is
//! built from ([`SplitPolicy`], [`HotspotMitigation`], [`DynamicPolicy`],
//! [`AdaptConfig`]) so the chain machine (`crate::chain`) and both of
//! its backends name one enum.

use crate::adapt::{AdaptConfig, DynamicPolicy};
use crate::mitigation::{HotspotMitigation, SplitPolicy};
use serde::{Deserialize, Serialize};

/// A failure-resilience strategy for a multi-job computation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// RCMP: replication factor 1, persisted task outputs, cascading
    /// minimum recomputation on data loss.
    Rcmp {
        /// Reducer splitting applied to recomputation runs (§IV-B1).
        split: SplitPolicy,
        /// Hot-spot mitigation for recomputed output (§IV-B2).
        hotspot: HotspotMitigation,
    },
    /// Hadoop with data replication: every job output written `factor`
    /// times; resubmissions (never needed unless more than `factor − 1`
    /// failures hit) re-execute entire jobs.
    Replication {
        /// Replicas written per output block.
        factor: u32,
    },
    /// Assumes failures never happen: factor 1, nothing persisted;
    /// on any data loss the whole computation restarts from job 1.
    Optimistic,
    /// RCMP plus a replication point every `every_k` jobs (§IV-C):
    /// cascades stop at the last replicated output, and storage for
    /// older persisted outputs can be reclaimed.
    Hybrid {
        /// Reducer splitting applied to recomputation runs.
        split: SplitPolicy,
        /// Replicate the output of every `every_k`-th job (`0` = never).
        every_k: u32,
        /// Replicas a replication point raises the output to.
        factor: u32,
        /// Reclaim persisted outputs behind each replication point.
        reclaim: bool,
    },
    /// The paper's §IV-C future work: hybrid with replication points
    /// placed by an expected-cost model instead of a static modulus.
    DynamicHybrid {
        /// Reducer splitting applied to recomputation runs.
        split: SplitPolicy,
        /// Replicas a replication point raises the output to.
        factor: u32,
        /// The expected-cost threshold deciding when a point is due.
        policy: DynamicPolicy,
        /// Reclaim persisted outputs behind each replication point.
        reclaim: bool,
    },
    /// The closed loop: hybrid whose replication interval is re-derived
    /// after every job from an online failure-intensity estimate fed by
    /// the faults the chain actually observes (`rcmp_policy::adapt`),
    /// instead of a frozen prior.
    AdaptiveHybrid {
        /// Reducer splitting applied to recomputation runs.
        split: SplitPolicy,
        /// Replicas a replication point raises the output to.
        factor: u32,
        /// Estimator prior, decay and cost model of the closed loop.
        adapt: AdaptConfig,
        /// Reclaim persisted outputs behind each replication point.
        reclaim: bool,
    },
}

impl Strategy {
    /// The paper's RCMP SPLIT with a fixed ratio.
    pub fn rcmp_split(k: u32) -> Self {
        Strategy::Rcmp {
            split: SplitPolicy::Fixed(k),
            hotspot: HotspotMitigation::SplitReducers,
        }
    }

    /// The paper's RCMP NO-SPLIT.
    pub fn rcmp_no_split() -> Self {
        Strategy::Rcmp {
            split: SplitPolicy::None,
            hotspot: HotspotMitigation::None,
        }
    }

    /// Replication factor each job's output is written with.
    pub fn output_replication(&self) -> u32 {
        match self {
            Strategy::Replication { factor } => *factor,
            _ => 1,
        }
    }

    /// `(factor, reclaim)` of the replication points a hybrid strategy
    /// places; `None` for strategies that place none.
    pub fn replication_point(&self) -> Option<(u32, bool)> {
        match *self {
            Strategy::Hybrid {
                factor, reclaim, ..
            }
            | Strategy::DynamicHybrid {
                factor, reclaim, ..
            }
            | Strategy::AdaptiveHybrid {
                factor, reclaim, ..
            } => Some((factor, reclaim)),
            _ => None,
        }
    }

    /// How a strategy that recovers by recomputation splits reducers and
    /// mitigates hot-spots; `None` for strategies that restart the chain
    /// instead (OPTIMISTIC, and replication once its replicas are gone).
    pub fn recovery(&self) -> Option<(SplitPolicy, HotspotMitigation)> {
        match *self {
            Strategy::Optimistic | Strategy::Replication { .. } => None,
            Strategy::Rcmp { split, hotspot } => Some((split, hotspot)),
            Strategy::Hybrid { split, .. }
            | Strategy::DynamicHybrid { split, .. }
            | Strategy::AdaptiveHybrid { split, .. } => {
                Some((split, HotspotMitigation::SplitReducers))
            }
        }
    }

    /// Whether task outputs persist across jobs.
    pub fn persists_outputs(&self) -> bool {
        matches!(
            self,
            Strategy::Rcmp { .. }
                | Strategy::Hybrid { .. }
                | Strategy::DynamicHybrid { .. }
                | Strategy::AdaptiveHybrid { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_properties() {
        assert_eq!(Strategy::Replication { factor: 3 }.output_replication(), 3);
        assert_eq!(Strategy::rcmp_split(8).output_replication(), 1);
        assert!(Strategy::rcmp_no_split().persists_outputs());
        assert!(!Strategy::Optimistic.persists_outputs());
        assert!(!Strategy::Replication { factor: 2 }.persists_outputs());
        let hybrid = Strategy::Hybrid {
            split: SplitPolicy::None,
            every_k: 5,
            factor: 2,
            reclaim: true,
        };
        assert!(hybrid.persists_outputs());
        assert_eq!(Strategy::Optimistic.recovery(), None);
        assert_eq!(Strategy::Replication { factor: 2 }.recovery(), None);
        let split = (SplitPolicy::Fixed(8), HotspotMitigation::SplitReducers);
        assert_eq!(Strategy::rcmp_split(8).recovery(), Some(split));
        let hybrid_split = (SplitPolicy::None, HotspotMitigation::SplitReducers);
        assert_eq!(hybrid.recovery(), Some(hybrid_split));
        assert!(Strategy::DynamicHybrid {
            split: SplitPolicy::None,
            factor: 2,
            policy: DynamicPolicy::from_trace_stats(0.17, 10.0, 10, 1),
            reclaim: false,
        }
        .persists_outputs());
        assert!(Strategy::AdaptiveHybrid {
            split: SplitPolicy::None,
            factor: 2,
            adapt: AdaptConfig::default_for(10),
            reclaim: false,
        }
        .persists_outputs());
    }
}
