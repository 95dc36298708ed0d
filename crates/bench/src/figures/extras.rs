//! Supplementary experiments beyond the paper's figures, quantifying
//! three of its *arguments* (§III, §IV-C):
//!
//! * **Locality ablation** (§III-A "data locality is oftentimes
//!   inconsequential"): collocated vs non-collocated job time across
//!   fabric speeds — locality only matters when the network is the
//!   bottleneck.
//! * **Speculation futility** (§III-A "up to 90% of speculatively
//!   executed tasks provide no benefits"): speculation statistics under
//!   the post-failure hot-spot, with and without alternate replicas.
//! * **Dynamic replication intervals** (§IV-C future work): the
//!   break-even replication-point interval as a function of the failure
//!   rate — making "occasional failures ⇒ replication unwarranted"
//!   quantitative.

use crate::table;
use rcmp_core::DynamicPolicy;
use rcmp_model::{ByteSize, SlotConfig};
use rcmp_sim::jobsim::RecomputeSpec;
use rcmp_sim::{HwProfile, JobSim, SimState, SpeculationCfg, WorkloadCfg};
use serde::{Deserialize, Serialize};

// ------------------------------------------------------ locality ablation

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LocalityPoint {
    /// Fraction of the 10 GbE fabric available.
    pub fabric_factor: f64,
    pub collocated_secs: f64,
    pub noncollocated_secs: f64,
    pub penalty: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LocalityAblation {
    pub points: Vec<LocalityPoint>,
}

fn ablation_workload(scale_down: u64) -> WorkloadCfg {
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = ByteSize::gib(4) / scale_down.max(1);
    wl
}

/// Sweeps fabric speed, comparing collocated vs non-collocated runs.
pub fn locality_ablation(scale_down: u64) -> LocalityAblation {
    let wl = ablation_workload(scale_down);
    let points = [1.0f64, 0.5, 0.1, 0.05, 0.01]
        .into_iter()
        .map(|fabric| {
            let mut hw = HwProfile::stic();
            hw.fabric_factor = fabric;
            let run = |noncol: bool| {
                let mut js = JobSim::new(hw.clone(), wl.clone());
                if noncol {
                    js = js.noncollocated();
                }
                let mut st = SimState::new(&wl, 0);
                js.run_full(&mut st, 1, 1, true).unwrap().duration
            };
            let collocated = run(false);
            let noncollocated = run(true);
            LocalityPoint {
                fabric_factor: fabric,
                collocated_secs: collocated,
                noncollocated_secs: noncollocated,
                penalty: noncollocated / collocated,
            }
        })
        .collect();
    LocalityAblation { points }
}

impl LocalityAblation {
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "fabric".to_string(),
            "collocated".to_string(),
            "non-collocated".to_string(),
            "penalty".to_string(),
        ]];
        for p in &self.points {
            rows.push(vec![
                format!("{:.0}%", p.fabric_factor * 100.0),
                table::secs(p.collocated_secs),
                table::secs(p.noncollocated_secs),
                table::factor(p.penalty),
            ]);
        }
        format!(
            "Extra — locality ablation (§III-A): giving up locality costs\n\
             little until the network becomes the bottleneck\n{}",
            table::render(&rows)
        )
    }
}

// -------------------------------------------------- speculation futility

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeculationReport {
    pub scenario: String,
    pub speculated: usize,
    pub wins: usize,
    pub futile_fraction: f64,
}

/// Speculation statistics in the post-failure hot-spot recomputation
/// (single-replicated intermediates: duplicates have nowhere better to
/// read) vs a replicated-input run with a dead node (alternates exist).
pub fn speculation_futility(scale_down: u64) -> Vec<SpeculationReport> {
    let mut wl = ablation_workload(scale_down);
    wl.jobs = 2;
    let mk = || {
        JobSim::new(HwProfile::stic(), wl.clone())
            .with_speculation(SpeculationCfg { slow_factor: 1.3 })
    };

    // Scenario 1: hot-spot recompute over single-replicated data.
    let js = mk();
    let mut st = SimState::new(&wl, 0);
    js.run_full(&mut st, 1, 1, true).unwrap();
    js.run_full(&mut st, 2, 1, true).unwrap();
    st.fail_node(wl.nodes - 1);
    let lost1 = st.files[&1].lost_partitions(&st);
    let lost2 = st.files[&2].lost_partitions(&st);
    js.run_recompute(
        &mut st,
        1,
        &RecomputeSpec::new(lost1.iter().copied(), 1),
        true,
    )
    .unwrap();
    // Re-run every mapper of job 2 so the wave mixes fast local reads
    // with the slow reads of the regenerated (single-replica) partition:
    // the relative stragglers the speculator looks for.
    let mut spec2 = RecomputeSpec::new(lost2.iter().copied(), 1);
    spec2.reuse_map_outputs = false;
    let rec = js.run_recompute(&mut st, 2, &spec2, true).unwrap();
    let hot = SpeculationReport {
        scenario: "hot-spot recompute (1 replica)".to_string(),
        speculated: rec.speculation.speculated,
        wins: rec.speculation.wins,
        futile_fraction: rec.speculation.futile_fraction(),
    };

    // Scenario 2: replicated input with a dead node (alternates exist).
    let js = mk();
    let mut st = SimState::new(&wl, 0);
    st.fail_node(wl.nodes - 1);
    let r = js.run_full(&mut st, 1, 1, true).unwrap();
    let replicated = SpeculationReport {
        scenario: "replicated input, 1 node dead".to_string(),
        speculated: r.speculation.speculated,
        wins: r.speculation.wins,
        futile_fraction: r.speculation.futile_fraction(),
    };

    vec![hot, replicated]
}

pub fn render_speculation(reports: &[SpeculationReport]) -> String {
    let mut rows = vec![vec![
        "scenario".to_string(),
        "speculated".to_string(),
        "wins".to_string(),
        "futile".to_string(),
    ]];
    for r in reports {
        rows.push(vec![
            r.scenario.clone(),
            r.speculated.to_string(),
            r.wins.to_string(),
            format!("{:.0}%", r.futile_fraction * 100.0),
        ]);
    }
    format!(
        "Extra — speculation futility (§III-A): duplicates only win when\n\
         an alternate replica exists and the slowness is input-bound\n{}",
        table::render(&rows)
    )
}

// --------------------------------------------- dynamic hybrid intervals

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DynamicIntervalPoint {
    pub failure_prob_per_job: f64,
    /// Break-even replication-point interval (None = never replicate).
    pub interval: Option<u32>,
}

/// Break-even intervals across failure rates for a 10-node cluster with
/// factor-2 points.
pub fn dynamic_intervals() -> Vec<DynamicIntervalPoint> {
    [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0]
        .into_iter()
        .map(|p| {
            let policy = DynamicPolicy {
                failure_prob_per_job: p,
                extra_replicas: 1,
                replication_byte_cost: 1.0,
                recompute_fraction: 0.1,
            };
            DynamicIntervalPoint {
                failure_prob_per_job: p,
                interval: policy.break_even_interval(),
            }
        })
        .collect()
}

pub fn render_dynamic(points: &[DynamicIntervalPoint]) -> String {
    let mut rows = vec![vec![
        "P(failure per job)".to_string(),
        "replicate every N jobs".to_string(),
    ]];
    for p in points {
        rows.push(vec![
            format!("{}", p.failure_prob_per_job),
            match p.interval {
                Some(k) => k.to_string(),
                None => "never".to_string(),
            },
        ]);
    }
    format!(
        "Extra — dynamic replication points (§IV-C future work):\n\
         break-even interval vs failure rate (10 nodes, factor 2)\n{}",
        table::render(&rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_penalty_grows_as_fabric_shrinks() {
        let a = locality_ablation(8);
        assert!(
            a.points.first().unwrap().penalty < 1.3,
            "fast fabric: small penalty"
        );
        assert!(
            a.points.last().unwrap().penalty > a.points.first().unwrap().penalty,
            "penalty grows as the fabric shrinks"
        );
        assert!(a.render().contains("penalty"));
    }

    #[test]
    fn hotspot_speculation_is_futile() {
        let reports = speculation_futility(8);
        let hot = &reports[0];
        assert!(hot.speculated > 0, "hot-spot triggers speculation");
        assert!(
            hot.futile_fraction >= 0.9,
            "single-replicated duplicates mostly futile: {hot:?}"
        );
        assert!(render_speculation(&reports).contains("futile"));
    }

    #[test]
    fn dynamic_interval_monotone() {
        let pts = dynamic_intervals();
        let mut last = u32::MAX;
        for p in &pts {
            let k = p.interval.unwrap_or(u32::MAX);
            assert!(k <= last, "interval shrinks as failures grow");
            last = k;
        }
        // Rare failures: effectively never replicate.
        assert!(pts[0].interval.unwrap_or(u32::MAX) > 10_000);
        assert!(render_dynamic(&pts).contains("never") || pts.iter().all(|p| p.interval.is_some()));
    }
}
