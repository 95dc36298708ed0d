//! Fair-share arbitration across tenants (the job service's cross-job
//! scheduling tier).
//!
//! The wave kernels in [`crate::waves`] decide *where tasks of one job
//! run*; this module decides *whose chain runs next* when many tenants
//! compete for the cluster's chain slots. The kernel is weighted
//! deficit round-robin (DRR) over per-tenant FIFO queues:
//!
//! * each tenant carries a `weight` (its fair share) and a
//!   `max_in_flight` quota (hard cap on concurrently granted chains);
//! * each arbitration round credits every backlogged tenant
//!   `weight × quantum` deficit units; a queued chain is granted when
//!   the tenant's deficit covers the chain's `cost` (its job count)
//!   and the tenant is under quota;
//! * deficit is capped so an idle or quota-capped tenant cannot hoard
//!   credit and later burst past its share.
//!
//! The arbiter is purely deterministic — no clock, no RNG — so a replay
//! of the same submission sequence grants in the same order, which is
//! what the serve soak relies on to replay a seed.

use rcmp_model::TenantId;
use std::collections::{BTreeMap, VecDeque};

/// One tenant's share configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantShare {
    /// Relative fair-share weight (≥ 1): deficit accrues at
    /// `weight × quantum` per round.
    pub weight: u32,
    /// Hard cap on chains in flight concurrently for this tenant.
    pub max_in_flight: u32,
}

impl TenantShare {
    /// An equal-share tenant: weight 1, `max_in_flight` 1.
    pub fn minimal() -> Self {
        Self {
            weight: 1,
            max_in_flight: 1,
        }
    }
}

/// One admitted-but-not-yet-granted chain in a tenant's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Queued {
    /// Caller-chosen ticket identifying the chain.
    ticket: u64,
    /// Cost in deficit units (the chain's job count, ≥ 1).
    cost: u64,
}

/// A grant decision: run `ticket` of `tenant` now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The tenant whose chain was granted.
    pub tenant: TenantId,
    /// The ticket passed to [`DrrArbiter::enqueue`].
    pub ticket: u64,
    /// The chain's cost, as enqueued.
    pub cost: u64,
}

struct TenantState {
    share: TenantShare,
    queue: VecDeque<Queued>,
    deficit: u64,
    in_flight: u32,
}

/// Weighted deficit-round-robin arbiter over per-tenant chain queues.
///
/// Deterministic and clock-free: rounds advance only inside
/// [`DrrArbiter::next_grants`], and ties between tenants break by
/// ascending [`TenantId`]. The service layer calls `enqueue` on
/// admission, `next_grants` whenever a chain slot frees up, and
/// `complete` when a granted chain finishes.
pub struct DrrArbiter {
    quantum: u64,
    tenants: BTreeMap<TenantId, TenantState>,
}

impl DrrArbiter {
    /// Creates an arbiter with the given DRR quantum (cost units
    /// credited per tenant weight per round; must be ≥ 1).
    pub fn new(quantum: u64) -> Self {
        Self {
            quantum: quantum.max(1),
            tenants: BTreeMap::new(),
        }
    }

    /// Registers a tenant (or replaces its share configuration; queue
    /// and in-flight state survive a reconfiguration).
    pub fn register(&mut self, tenant: TenantId, share: TenantShare) {
        let share = TenantShare {
            weight: share.weight.max(1),
            max_in_flight: share.max_in_flight.max(1),
        };
        self.tenants
            .entry(tenant)
            .and_modify(|s| s.share = share)
            .or_insert_with(|| TenantState {
                share,
                queue: VecDeque::new(),
                deficit: 0,
                in_flight: 0,
            });
    }

    /// True if the tenant has been registered.
    pub fn is_registered(&self, tenant: TenantId) -> bool {
        self.tenants.contains_key(&tenant)
    }

    /// Queued (not yet granted) chains for a tenant.
    pub fn queue_len(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |s| s.queue.len())
    }

    /// Chains currently granted and not yet completed for a tenant.
    pub fn in_flight(&self, tenant: TenantId) -> u32 {
        self.tenants.get(&tenant).map_or(0, |s| s.in_flight)
    }

    /// Enqueues a chain of `cost` deficit units for `tenant`. The
    /// caller enforces queue-depth admission *before* calling this.
    /// Returns `false` (and drops the request) for an unknown tenant.
    #[must_use]
    pub fn enqueue(&mut self, tenant: TenantId, ticket: u64, cost: u64) -> bool {
        match self.tenants.get_mut(&tenant) {
            Some(s) => {
                s.queue.push_back(Queued {
                    ticket,
                    cost: cost.max(1),
                });
                true
            }
            None => false,
        }
    }

    /// Marks a granted chain of `tenant` complete, freeing one of its
    /// in-flight slots.
    pub fn complete(&mut self, tenant: TenantId) {
        if let Some(s) = self.tenants.get_mut(&tenant) {
            s.in_flight = s.in_flight.saturating_sub(1);
        }
    }

    /// Total queued chains across all tenants.
    pub fn backlog(&self) -> usize {
        self.tenants.values().map(|s| s.queue.len()).sum()
    }

    /// Runs DRR rounds until either `slots` grants have been issued or
    /// no further grant is possible (empty queues or every backlogged
    /// tenant at quota). Grants are returned in issue order.
    pub fn next_grants(&mut self, slots: u32) -> Vec<Grant> {
        let mut grants = Vec::new();
        if slots == 0 {
            return grants;
        }
        loop {
            let mut progressed = false;
            // One DRR round: credit + drain each tenant in id order.
            let ids: Vec<TenantId> = self.tenants.keys().copied().collect();
            for id in ids {
                let quantum = self.quantum;
                let s = self.tenants.get_mut(&id).expect("registered tenant");
                if s.queue.is_empty() {
                    // Idle tenants accrue nothing: DRR's anti-burst rule.
                    s.deficit = 0;
                    continue;
                }
                s.deficit = s
                    .deficit
                    .saturating_add(u64::from(s.share.weight).saturating_mul(quantum));
                // Cap so a quota-blocked tenant cannot bank unbounded
                // credit: one round's worth beyond its costliest head.
                let head_cost = s.queue.front().map_or(1, |q| q.cost);
                let cap = u64::from(s.share.weight)
                    .saturating_mul(quantum)
                    .saturating_add(head_cost);
                s.deficit = s.deficit.min(cap);
                while let Some(&head) = s.queue.front() {
                    if s.in_flight >= s.share.max_in_flight
                        || s.deficit < head.cost
                        || grants.len() as u32 >= slots
                    {
                        break;
                    }
                    s.queue.pop_front();
                    s.deficit -= head.cost;
                    s.in_flight += 1;
                    progressed = true;
                    grants.push(Grant {
                        tenant: id,
                        ticket: head.ticket,
                        cost: head.cost,
                    });
                }
                if grants.len() as u32 >= slots {
                    return grants;
                }
            }
            if !progressed {
                // A full round issued nothing: either no backlog, or
                // every backlogged tenant is at its in-flight quota.
                // Deficits are capped, so looping further cannot help.
                let stuck = self
                    .tenants
                    .values()
                    .all(|s| s.queue.is_empty() || s.in_flight >= s.share.max_in_flight);
                if stuck {
                    return grants;
                }
            }
        }
    }
}

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)`. `1.0` is perfectly fair; `1/n` is maximally
/// unfair (one tenant gets everything). Empty input yields `1.0`.
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arbiter(shares: &[(u32, TenantShare)]) -> DrrArbiter {
        let mut a = DrrArbiter::new(4);
        for &(id, share) in shares {
            a.register(TenantId(id), share);
        }
        a
    }

    #[test]
    fn grants_in_weight_proportion() {
        let heavy = TenantShare {
            weight: 3,
            max_in_flight: 100,
        };
        let light = TenantShare {
            weight: 1,
            max_in_flight: 100,
        };
        let mut a = arbiter(&[(0, heavy), (1, light)]);
        for i in 0..40 {
            assert!(a.enqueue(TenantId(0), i, 4));
            assert!(a.enqueue(TenantId(1), 100 + i, 4));
        }
        let grants = a.next_grants(40);
        assert_eq!(grants.len(), 40);
        let t0 = grants.iter().filter(|g| g.tenant == TenantId(0)).count();
        let t1 = grants.iter().filter(|g| g.tenant == TenantId(1)).count();
        // 3:1 weights with equal costs → roughly 3:1 grant split.
        assert!(t0 >= 2 * t1, "expected weighted skew, got {t0}:{t1}");
        assert!(t1 >= 8, "light tenant must not starve, got {t1}");
    }

    #[test]
    fn quota_caps_in_flight() {
        let capped = TenantShare {
            weight: 10,
            max_in_flight: 2,
        };
        let mut a = arbiter(&[(0, capped), (1, TenantShare::minimal())]);
        for i in 0..8 {
            assert!(a.enqueue(TenantId(0), i, 1));
        }
        assert!(a.enqueue(TenantId(1), 100, 1));
        let grants = a.next_grants(8);
        // Tenant 0 capped at 2 despite weight 10; tenant 1 gets its one.
        assert_eq!(a.in_flight(TenantId(0)), 2);
        assert_eq!(a.in_flight(TenantId(1)), 1);
        assert_eq!(grants.len(), 3);
        // Completion frees a slot for the backlog.
        a.complete(TenantId(0));
        let more = a.next_grants(8);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].tenant, TenantId(0));
    }

    #[test]
    fn minimal_tenant_bounded_wait() {
        // A weight-1 tenant among heavyweights is granted within a
        // bounded number of rounds: with quantum Q it banks Q per round
        // and any cost c chain needs at most ceil(c / Q) rounds.
        let big = TenantShare {
            weight: 8,
            max_in_flight: 100,
        };
        let mut a = arbiter(&[(0, big), (1, big), (2, TenantShare::minimal())]);
        for i in 0..50 {
            assert!(a.enqueue(TenantId(0), i, 4));
            assert!(a.enqueue(TenantId(1), 100 + i, 4));
        }
        assert!(a.enqueue(TenantId(2), 999, 8)); // cost 8, quantum 4 → ≤ 2 rounds
        let grants = a.next_grants(200);
        let pos = grants
            .iter()
            .position(|g| g.tenant == TenantId(2))
            .expect("minimal tenant granted");
        // Two rounds of two heavyweight tenants grant at most
        // 2 rounds × 2 tenants × (8·4)/4 chains = 32 before it.
        assert!(pos <= 32, "minimal tenant waited {pos} grants");
    }

    #[test]
    fn deterministic_replay() {
        let mk = || {
            let mut a = arbiter(&[
                (
                    0,
                    TenantShare {
                        weight: 2,
                        max_in_flight: 3,
                    },
                ),
                (1, TenantShare::minimal()),
            ]);
            for i in 0..10 {
                assert!(a.enqueue(TenantId(0), i, 1 + i % 3));
                assert!(a.enqueue(TenantId(1), 50 + i, 2));
            }
            a.next_grants(6)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn unknown_tenant_rejected() {
        let mut a = DrrArbiter::new(4);
        assert!(!a.enqueue(TenantId(9), 1, 1));
        assert!(!a.is_registered(TenantId(9)));
        assert_eq!(a.backlog(), 0);
    }

    #[test]
    fn idle_tenant_banks_no_deficit() {
        let wide = TenantShare {
            weight: 1,
            max_in_flight: 5,
        };
        let mut a = arbiter(&[(0, wide), (1, TenantShare::minimal())]);
        // Tenant 1 stays idle for many rounds while tenant 0 drains.
        for i in 0..5 {
            assert!(a.enqueue(TenantId(0), i, 1));
        }
        assert_eq!(a.next_grants(5).len(), 5);
        for _ in 0..5 {
            a.complete(TenantId(0));
        }
        // Tenant 1 wakes up: its deficit starts from zero, so it can't
        // burst past its quota or ahead of its share.
        for i in 0..4 {
            assert!(a.enqueue(TenantId(1), 100 + i, 1));
        }
        let grants = a.next_grants(4);
        assert_eq!(grants.len(), 1, "quota 1 limits the burst");
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        let near = jain_index(&[10.0, 9.0, 11.0]);
        assert!(near > 0.99);
    }
}
