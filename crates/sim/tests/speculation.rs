//! §III-A reproduced: the limits of speculative execution.
//!
//! * With triple-replicated, balanced input, hardly anything straggles,
//!   so speculation rarely fires and mostly provides no benefit.
//! * With single-replicated intermediate data (RCMP's regime), an
//!   input-bound straggler has no alternate replica to read — the
//!   paper's point that replication's speculation benefit "only applies
//!   when the slowness is caused by inefficiencies in reading input".
//! * Under the post-failure hot-spot, speculation *with* replicas can
//!   rescue stragglers — but splitting removes the stragglers at the
//!   source, which is RCMP's answer.

use rcmp_model::{ByteSize, SlotConfig};
use rcmp_sim::jobsim::RecomputeSpec;
use rcmp_sim::{HwProfile, JobSim, SimState, SpeculationCfg, WorkloadCfg};

fn wl(nodes: u32, replication: u32) -> WorkloadCfg {
    WorkloadCfg {
        nodes,
        slots: SlotConfig::ONE_ONE,
        jobs: 2,
        per_node_input: ByteSize::mib(512),
        block_size: ByteSize::mib(128),
        num_reducers: nodes,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: replication,
    }
}

#[test]
fn balanced_local_runs_rarely_speculate() {
    let w = wl(6, 3);
    let js = JobSim::new(HwProfile::stic(), w.clone()).with_speculation(SpeculationCfg::default());
    let mut st = SimState::new(&w, 0);
    let r = js.run_full(&mut st, 1, 1, true).unwrap();
    // Balanced local reads: no 1.5x-median stragglers at all.
    assert_eq!(
        r.speculation.speculated, 0,
        "balanced run should not straggle: {:?}",
        r.speculation
    );
}

#[test]
fn hotspot_stragglers_speculate_and_replicas_decide_the_benefit() {
    // Create the Fig.-6 hot-spot: node dies, its partition is
    // regenerated unsplit on one node (single replica), then the next
    // job's invalidated mappers all read that node.
    let run = |spec_on: bool| {
        let w = wl(6, 3);
        let mut js = JobSim::new(HwProfile::stic(), w.clone());
        if spec_on {
            js = js.with_speculation(SpeculationCfg::default());
        }
        let mut st = SimState::new(&w, 0);
        js.run_full(&mut st, 1, 1, true).unwrap();
        js.run_full(&mut st, 2, 1, true).unwrap();
        st.fail_node(5);
        let lost1 = st.files[&1].lost_partitions(&st);
        let lost2 = st.files[&2].lost_partitions(&st);
        js.run_recompute(
            &mut st,
            1,
            &RecomputeSpec::new(lost1.iter().copied(), 1),
            true,
        )
        .unwrap();
        js.run_recompute(
            &mut st,
            2,
            &RecomputeSpec::new(lost2.iter().copied(), 1),
            true,
        )
        .unwrap()
    };
    let plain = run(false);
    let spec = run(true);
    // The hot-spot produces stragglers; speculation fires…
    assert!(
        spec.speculation.speculated > 0,
        "hot-spot must trigger speculation: {:?}",
        spec.speculation
    );
    // …but the contended data is the regenerated partition with ONE
    // replica (RCMP writes intermediates single-replicated): duplicates
    // have nowhere better to read from, so speculation cannot beat the
    // original — §III-A's "may succeed even in a single-replicated
    // system" applies only to compute-bound slowness.
    assert_eq!(
        spec.speculation.wins, 0,
        "single-replicated hot-spot reads cannot be rescued: {:?}",
        spec.speculation
    );
    assert!(
        (spec.duration - plain.duration).abs() < 1e-6,
        "futile speculation does not change the job time"
    );
}

#[test]
fn replicated_input_stragglers_can_be_rescued() {
    // Force a contended read of *replicated* input: kill a node so its
    // primary input blocks are re-read remotely from scattered replicas
    // while everything else reads locally — mild stragglers with
    // alternates available.
    let w = wl(6, 3);
    let js = JobSim::new(HwProfile::stic(), w.clone())
        .with_speculation(SpeculationCfg { slow_factor: 1.2 });
    let mut st = SimState::new(&w, 0);
    st.fail_node(5);
    let r = js.run_full(&mut st, 1, 1, true).unwrap();
    if r.speculation.speculated > 0 {
        // Whenever speculation fires here, alternates exist (input is
        // triple-replicated), so at least the accounting is consistent.
        assert!(r.speculation.wins <= r.speculation.speculated);
        assert!(r.speculation.futile_fraction() <= 1.0);
    }
    // Either way the run completes with every mapper accounted for
    // (24 blocks over 5 survivors → an uneven final wave).
    assert_eq!(r.mappers_run, 24);
    assert_eq!(r.mapper_durations.len(), 24);
}
