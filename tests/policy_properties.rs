//! Property-based validation of the shared policy kernel: the engine's
//! wave-assignment adapter (owned `MapTask`/`ReduceTask`s, chain-cache
//! holders) is a view of ONE implementation, so over randomized
//! clusters, membership churn, slot counts and replica layouts it must
//! produce *identical* schedules to the kernel run over plain task
//! indices, as the simulator runs it.

use proptest::prelude::*;
use rcmp::dfs::BlockLocation;
use rcmp::engine::scheduler as eng;
use rcmp::engine::task::{MapTask, ReduceTask};
use rcmp::engine::MapInputKey;
use rcmp::model::PlacementKernel;
use rcmp::model::{BlockId, ByteSize, Error, JobId, MapTaskId, NodeId, PartitionId, ReduceTaskId};
use rcmp::policy::{
    assign_map_waves, assign_reduce_waves, expected_chain_time, optimal_interval, AdaptConfig,
    AdaptivePolicy, FaultObserver, FnReduceTasks, MapTaskSet, Membership, PolicyCtx,
    ReduceAssignment, SliceTopology,
};
use std::collections::BTreeMap;

/// Engine map task `idx` whose block replicas live on `holders`.
fn map_task(idx: usize, holders: &[u32]) -> MapTask {
    MapTask {
        id: MapTaskId::new(JobId(1), idx as u32),
        key: MapInputKey::new(JobId(1), PartitionId(0), idx as u32),
        block: BlockLocation {
            id: BlockId(idx as u64),
            size: ByteSize::mib(1),
            content_hash: 0,
            replicas: holders.iter().map(|&n| NodeId(n)).collect(),
        },
    }
}

/// Plain map tasks over node indices: task `t`'s replicas are
/// `layout[t]` (the first is the primary) and `cached[t]` names the node
/// whose chain cache holds its input partition.
struct Layout<'a> {
    layout: &'a [Vec<u32>],
    cached: &'a [Option<u32>],
}

impl MapTaskSet<u32> for Layout<'_> {
    fn len(&self) -> usize {
        self.layout.len()
    }

    fn is_primary_holder(&self, task: usize, node: u32) -> bool {
        self.layout[task].first() == Some(&node)
    }

    fn holds_replica(&self, task: usize, node: u32) -> bool {
        self.layout[task].contains(&node)
    }

    fn cache_holder(&self, task: usize) -> Option<u32> {
        self.cached[task]
    }
}

/// Flattens engine map waves into `(wave, node, task_index)` triples,
/// recovering the task index from the block id.
fn flatten_engine(waves: &[Vec<(NodeId, MapTask)>]) -> Vec<(usize, u32, usize)> {
    waves
        .iter()
        .enumerate()
        .flat_map(|(w, wave)| {
            wave.iter()
                .map(move |(n, t)| (w, n.raw(), t.block.id.raw() as usize))
        })
        .collect()
}

fn flatten_plain(waves: &[Vec<(u32, usize)>]) -> Vec<(usize, u32, usize)> {
    waves
        .iter()
        .enumerate()
        .flat_map(|(w, wave)| wave.iter().map(move |&(n, t)| (w, n, t)))
        .collect()
}

fn per_node_counts(flat: &[(usize, u32, usize)]) -> BTreeMap<u32, usize> {
    flat.iter().fold(BTreeMap::new(), |mut m, &(_, n, _)| {
        *m.entry(n).or_insert(0) += 1;
        m
    })
}

/// Fraction of assignments whose node holds a replica of the task.
fn locality_fraction(flat: &[(usize, u32, usize)], layout: &[Vec<u32>]) -> f64 {
    if flat.is_empty() {
        return 1.0;
    }
    let local = flat
        .iter()
        .filter(|&&(_, n, t)| layout[t].contains(&n))
        .count();
    local as f64 / flat.len() as f64
}

/// Applies one random membership transition; failed transitions are
/// typed no-ops, so whatever lands is applied.
fn churn_step(m: &mut Membership, op: u8, target: u32) {
    let t = target % m.len() as u32;
    match op {
        0 => drop(m.drain(t)),
        1 => drop(m.rejoin(t)),
        2 => drop(m.decommission(t)),
        3 => drop(m.mark_dead(t)),
        _ => drop(m.join(1 + target % 4, target % 3)),
    }
}

/// Marks every node dead: the schedule check then runs against a
/// cluster with no survivors.
fn kill_all(m: &mut Membership) {
    for n in 0..m.len() as u32 {
        drop(m.mark_dead(n));
    }
}

fn kernel_of(sel: u8, delay_rounds: u32) -> PlacementKernel {
    match sel {
        0 => PlacementKernel::Default,
        1 => PlacementKernel::RackAware,
        2 => PlacementKernel::Delay {
            rounds: delay_rounds,
        },
        3 => PlacementKernel::CapacityWeighted,
        _ => PlacementKernel::Stable,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 50,
        ..ProptestConfig::default()
    })]

    /// Map scheduling on a flat, fully live cluster: for random replica
    /// layouts the engine adapter and the plain kernel emit the exact
    /// same (wave, node, task) schedule.
    #[test]
    fn map_waves_agree(
        nodes in 1u32..12,
        slots in 1u32..4,
        raw_layout in prop::collection::vec(
            prop::collection::vec(0u32..12, 0usize..4),
            0usize..48,
        ),
    ) {
        // Clamp replica holders onto the live node range, dropping
        // duplicates but keeping order (first holder = primary).
        let layout: Vec<Vec<u32>> = raw_layout
            .iter()
            .map(|hs| {
                let mut seen = Vec::new();
                for &h in hs {
                    let n = h % nodes;
                    if !seen.contains(&n) {
                        seen.push(n);
                    }
                }
                seen
            })
            .collect();
        let uncached = vec![None; layout.len()];
        let live_plain: Vec<u32> = (0..nodes).collect();
        let live_eng: Vec<NodeId> = (0..nodes).map(NodeId).collect();

        let eng_tasks: Vec<MapTask> = layout
            .iter()
            .enumerate()
            .map(|(i, hs)| map_task(i, hs))
            .collect();
        let eng_waves = eng::assign_map_waves(
            eng_tasks,
            &SliceTopology::new(&live_eng, slots, slots),
            &vec![None; layout.len()],
            PolicyCtx::disabled(),
        )
        .unwrap();
        let plain_waves = assign_map_waves(
            &SliceTopology::new(&live_plain, slots, slots),
            &Layout { layout: &layout, cached: &uncached },
            PolicyCtx::disabled(),
        )
        .unwrap();

        let ef = flatten_engine(&eng_waves);
        let pf = flatten_plain(&plain_waves);
        prop_assert_eq!(eng_waves.len(), plain_waves.len(), "wave counts");
        prop_assert_eq!(
            per_node_counts(&ef),
            per_node_counts(&pf),
            "per-node task counts"
        );
        prop_assert_eq!(
            locality_fraction(&ef, &layout),
            locality_fraction(&pf, &layout),
            "locality fractions"
        );
        // Strongest form: one kernel ⇒ byte-identical schedules.
        prop_assert_eq!(ef, pf, "schedules");
    }

    /// Reduce scheduling on a flat, fully live cluster agrees under both
    /// assignment styles.
    #[test]
    fn reduce_waves_agree(
        nodes in 1u32..12,
        slots in 1u32..4,
        parts in prop::collection::vec(0u32..40, 0usize..48),
        balance in prop::bool::ANY,
    ) {
        let style = if balance {
            ReduceAssignment::Balance
        } else {
            ReduceAssignment::RoundRobinByPartition
        };
        let live_plain: Vec<u32> = (0..nodes).collect();
        let live_eng: Vec<NodeId> = (0..nodes).map(NodeId).collect();

        let eng_tasks: Vec<ReduceTask> = parts
            .iter()
            .map(|&p| ReduceTask::new(ReduceTaskId::whole(JobId(1), PartitionId(p))))
            .collect();
        let eng_waves = eng::assign_reduce_waves(
            eng_tasks,
            &SliceTopology::new(&live_eng, slots, slots),
            style,
            PolicyCtx::disabled(),
        )
        .unwrap();
        let plain_waves = assign_reduce_waves(
            &SliceTopology::new(&live_plain, slots, slots),
            &FnReduceTasks::new(parts.len(), |t| parts[t] as usize),
            style,
            PolicyCtx::disabled(),
        )
        .unwrap();

        prop_assert_eq!(eng_waves.len(), plain_waves.len(), "wave counts");
        // Compare (wave, node, partition) triples: the engine returns
        // owned tasks, so the partition id is the common currency.
        let ef: Vec<(usize, u32, u32)> = eng_waves
            .iter()
            .enumerate()
            .flat_map(|(w, wave)| {
                wave.iter()
                    .map(move |(n, t)| (w, n.raw(), t.id.partition.raw()))
            })
            .collect();
        let parts_ref = &parts;
        let pf: Vec<(usize, u32, u32)> = plain_waves
            .iter()
            .enumerate()
            .flat_map(|(w, wave)| wave.iter().map(move |&(n, t)| (w, n, parts_ref[t])))
            .collect();
        prop_assert_eq!(ef, pf, "schedules");
    }

    /// A fully-dead cluster is the same typed error everywhere.
    #[test]
    fn dead_cluster_agrees(tasks in 1usize..20) {
        let eng_tasks: Vec<MapTask> =
            (0..tasks).map(|i| map_task(i, &[0])).collect();
        let no_nodes_eng: [NodeId; 0] = [];
        let no_nodes_plain: [u32; 0] = [];
        let layout = vec![vec![0u32]; tasks];
        let uncached = vec![None; tasks];
        let e = eng::assign_map_waves(
            eng_tasks,
            &SliceTopology::new(&no_nodes_eng, 1, 1),
            &vec![None; tasks],
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        let p = assign_map_waves(
            &SliceTopology::new(&no_nodes_plain, 1, 1),
            &Layout { layout: &layout, cached: &uncached },
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        prop_assert!(matches!(e, Error::NoLiveNodes));
        prop_assert!(matches!(p, Error::NoLiveNodes));
    }

    /// Elastic membership churn: drive a shared membership through
    /// random join/drain/decommission/rejoin/crash transitions, then
    /// kill every node, and re-derive map schedules at *every epoch*
    /// with each placement kernel — the engine adapter and the plain
    /// kernel must stay byte-identical the whole way through, and a
    /// dead cluster is the same typed error on both.
    #[test]
    fn kernel_map_waves_agree_across_membership_churn(
        nodes in 1u32..12,
        slots in 1u32..4,
        kernel_sel in 0u8..5,
        delay_rounds in 0u32..4,
        churn in prop::collection::vec((0u8..5, 0u32..64), 1usize..12),
        raw_layout in prop::collection::vec(
            prop::collection::vec(0u32..16, 0usize..4),
            0usize..48,
        ),
        cache_sel in prop::collection::vec((any::<bool>(), 0u32..16), 0usize..48),
    ) {
        let kernel = kernel_of(kernel_sel, delay_rounds);
        let mut m = Membership::with_racks(nodes, 1 + nodes / 3);

        let check = |m: &Membership| -> Result<(), TestCaseError> {
            let live_plain = m.schedulable();
            let live_eng: Vec<NodeId> =
                live_plain.iter().copied().map(NodeId).collect();
            // Holders land on any known node, live or not, dropping
            // duplicates but keeping order (first holder = primary).
            let layout: Vec<Vec<u32>> = raw_layout
                .iter()
                .map(|hs| {
                    let mut seen = Vec::new();
                    for &h in hs {
                        let n = h % m.len() as u32;
                        if !seen.contains(&n) {
                            seen.push(n);
                        }
                    }
                    seen
                })
                .collect();
            let eng_tasks: Vec<MapTask> = layout
                .iter()
                .enumerate()
                .map(|(i, hs)| map_task(i, hs))
                .collect();
            // Chain-cache holders, identical on both sides (only the
            // Stable kernel reads them).
            let cached: Vec<Option<u32>> = (0..layout.len())
                .map(|t| match cache_sel.get(t) {
                    Some(&(true, n)) => Some(n % m.len() as u32),
                    _ => None,
                })
                .collect();
            let cached_eng: Vec<Option<NodeId>> =
                cached.iter().map(|o| o.map(NodeId)).collect();
            let eng = eng::assign_map_waves(
                eng_tasks,
                &SliceTopology::for_kernel(&live_eng, slots, kernel, m),
                &cached_eng,
                PolicyCtx::disabled(),
            );
            let plain = assign_map_waves(
                &SliceTopology::for_kernel(&live_plain, slots, kernel, m),
                &Layout { layout: &layout, cached: &cached },
                PolicyCtx::disabled(),
            );
            match (eng, plain) {
                (Ok(e), Ok(p)) => {
                    prop_assert_eq!(
                        flatten_engine(&e),
                        flatten_plain(&p),
                        "schedules diverged at epoch {}",
                        m.epoch()
                    );
                }
                (Err(e), Err(p)) => {
                    prop_assert!(live_plain.is_empty());
                    prop_assert!(matches!(e, Error::NoLiveNodes));
                    prop_assert!(matches!(p, Error::NoLiveNodes));
                }
                (e, p) => prop_assert!(
                    false,
                    "one side failed at epoch {}: {e:?} vs {p:?}",
                    m.epoch()
                ),
            }
            Ok(())
        };

        check(&m)?;
        for &(op, target) in &churn {
            churn_step(&mut m, op, target);
            check(&m)?;
        }
        kill_all(&mut m);
        check(&m)?;
    }

    /// Same churn property for reduce scheduling, both styles, all
    /// kernels.
    #[test]
    fn kernel_reduce_waves_agree_across_membership_churn(
        nodes in 1u32..12,
        slots in 1u32..4,
        kernel_sel in 0u8..5,
        delay_rounds in 0u32..4,
        balance in prop::bool::ANY,
        churn in prop::collection::vec((0u8..5, 0u32..64), 1usize..10),
        parts in prop::collection::vec(0u32..40, 0usize..48),
    ) {
        let kernel = kernel_of(kernel_sel, delay_rounds);
        let style = if balance {
            ReduceAssignment::Balance
        } else {
            ReduceAssignment::RoundRobinByPartition
        };
        let mut m = Membership::with_racks(nodes, 1 + nodes / 3);

        let check = |m: &Membership| -> Result<(), TestCaseError> {
            let live_plain = m.schedulable();
            let live_eng: Vec<NodeId> =
                live_plain.iter().copied().map(NodeId).collect();
            let eng_tasks: Vec<ReduceTask> = parts
                .iter()
                .map(|&p| ReduceTask::new(ReduceTaskId::whole(JobId(1), PartitionId(p))))
                .collect();
            let eng = eng::assign_reduce_waves(
                eng_tasks,
                &SliceTopology::for_kernel(&live_eng, slots, kernel, m),
                style,
                PolicyCtx::disabled(),
            );
            let plain = assign_reduce_waves(
                &SliceTopology::for_kernel(&live_plain, slots, kernel, m),
                &FnReduceTasks::new(parts.len(), |t| parts[t] as usize),
                style,
                PolicyCtx::disabled(),
            );
            match (eng, plain) {
                (Ok(e), Ok(p)) => {
                    // Compare (wave, node, partition) triples: the engine
                    // returns owned tasks, so the partition id is the
                    // common currency.
                    let ef: Vec<(usize, u32, u32)> = e
                        .iter()
                        .enumerate()
                        .flat_map(|(w, wave)| {
                            wave.iter()
                                .map(move |(n, t)| (w, n.raw(), t.id.partition.raw()))
                        })
                        .collect();
                    let parts_ref = &parts;
                    let pf: Vec<(usize, u32, u32)> = p
                        .iter()
                        .enumerate()
                        .flat_map(|(w, wave)| {
                            wave.iter().map(move |&(n, t)| (w, n, parts_ref[t]))
                        })
                        .collect();
                    prop_assert_eq!(ef, pf, "schedules diverged at epoch {}", m.epoch());
                }
                (Err(e), Err(p)) => {
                    prop_assert!(live_plain.is_empty());
                    prop_assert!(matches!(e, Error::NoLiveNodes));
                    prop_assert!(matches!(p, Error::NoLiveNodes));
                }
                (e, p) => prop_assert!(
                    false,
                    "one side failed at epoch {}: {e:?} vs {p:?}",
                    m.epoch()
                ),
            }
            Ok(())
        };

        check(&m)?;
        for &(op, target) in &churn {
            churn_step(&mut m, op, target);
            check(&m)?;
        }
        kill_all(&mut m);
        check(&m)?;
    }

    /// The adaptive cadence is the argmin of the analytic chain-time
    /// model, so it dominates every fixed cadence — any rate, chain
    /// length or cost mix (the guarantee `BENCH_resilience` documents).
    #[test]
    fn adaptive_cadence_dominates_every_fixed(
        rate_m in 0u32..1500,
        jobs in 1u32..40,
        replicate_m in 10u32..2000,
        recompute_m in 10u32..2000,
        detect_m in 0u32..3000,
    ) {
        // The vendored proptest has no float strategies; sample
        // millis and scale.
        let rate = f64::from(rate_m) / 1000.0;
        let cfg = AdaptConfig {
            horizon: jobs,
            replicate_cost: f64::from(replicate_m) / 1000.0,
            recompute_cost: f64::from(recompute_m) / 1000.0,
            detect_cost: f64::from(detect_m) / 1000.0,
            ..AdaptConfig::default_for(10)
        };
        let best = optimal_interval(rate, jobs, &cfg);
        let t_best = expected_chain_time(best, rate, jobs, &cfg);
        for k in (1..=jobs).map(Some).chain([None]) {
            let t = expected_chain_time(k, rate, jobs, &cfg);
            prop_assert!(
                t_best <= t + 1e-9,
                "argmin {best:?} ({t_best}) beaten by fixed {k:?} ({t}) at rate {rate}"
            );
        }
    }

    /// The closed loop through the `FaultObserver` seam: the engine
    /// reports a job's losses in one batch, the simulator one fault per
    /// `fail_node` — identical fault/completion sequences must yield
    /// byte-identical trajectories either way.
    #[test]
    fn adaptation_trajectories_agree_across_observers(
        faults in prop::collection::vec(0u32..3, 1usize..60),
        prior_m in 0u32..800,
        hysteresis_m in 0u32..600,
    ) {
        let cfg = AdaptConfig {
            prior_rate: f64::from(prior_m) / 1000.0,
            hysteresis: f64::from(hysteresis_m) / 1000.0,
            ..AdaptConfig::default_for(8)
        };
        let mut engine_side = AdaptivePolicy::new(cfg);
        let mut sim_side = AdaptivePolicy::new(cfg);
        for &f in &faults {
            engine_side.record_fault(f);
            for _ in 0..f {
                sim_side.record_fault(1);
            }
            prop_assert_eq!(engine_side.job_completed(), sim_side.job_completed());
            prop_assert_eq!(
                engine_side.current_interval(),
                sim_side.current_interval()
            );
        }
        prop_assert_eq!(engine_side.trajectory(), sim_side.trajectory());
    }
}
