//! §II / §III-A: the non-collocated deployment and the (ir)relevance of
//! data locality.
//!
//! * "Data locality is not even applicable to non-collocated
//!   environments. All transfers are remote in this case."
//! * "Data locality is inconsequential when the network is not the
//!   bottleneck." — with a 10 GbE fabric faster than the disks, moving
//!   every read across the network barely changes job time.
//! * Conversely, on a heavily oversubscribed network the non-collocated
//!   penalty is real — locality matters exactly when the paper says it
//!   does.

use rcmp_model::{ByteSize, SlotConfig};
use rcmp_sim::{HwProfile, JobSim, SimState, WorkloadCfg};

fn wl() -> WorkloadCfg {
    WorkloadCfg {
        nodes: 8,
        slots: SlotConfig::ONE_ONE,
        jobs: 1,
        per_node_input: ByteSize::mib(512),
        block_size: ByteSize::mib(128),
        num_reducers: 8,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    }
}

fn run(hw: HwProfile, noncollocated: bool) -> rcmp_sim::SimJobReport {
    let w = wl();
    let mut js = JobSim::new(hw, w.clone());
    if noncollocated {
        js = js.noncollocated();
    }
    let mut st = SimState::new(&w, 0);
    js.run_full(&mut st, 1, 1, true).unwrap()
}

#[test]
fn all_transfers_remote_in_noncollocated_mode() {
    let r = run(HwProfile::stic(), true);
    assert_eq!(r.io.map_input_local, 0, "no local reads exist");
    assert_eq!(r.io.shuffle_local, 0, "no local shuffle exists");
    assert!(r.io.map_input_remote > 0);
}

#[test]
fn locality_inconsequential_on_fast_network() {
    // 10 GbE, disks ~100 MB/s: the network is not the bottleneck, so
    // giving up locality costs little (§III-A).
    let collocated = run(HwProfile::stic(), false);
    let noncol = run(HwProfile::stic(), true);
    let penalty = noncol.duration / collocated.duration;
    assert!(
        penalty < 1.25,
        "fast network: non-collocated penalty should be small, got {penalty:.2}"
    );
}

#[test]
fn locality_matters_on_oversubscribed_network() {
    // Throttle the fabric to ~1% of 10 GbE (≈ 11 MB/s per stream, an
    // order of magnitude below the disks): remote reads and writes
    // become the bottleneck and non-collocation hurts badly.
    let mut slow_net = HwProfile::stic();
    slow_net.fabric_factor = 0.01;
    let collocated = run(slow_net.clone(), false);
    let noncol = run(slow_net, true);
    let penalty = noncol.duration / collocated.duration;
    assert!(
        penalty > 1.3,
        "slow network: non-collocated penalty should be large, got {penalty:.2}"
    );
}

#[test]
fn recomputation_works_noncollocated() {
    // §II: "our contributions directly apply also to the non-collocated
    // case" — recomputation with splitting still functions and helps.
    use rcmp_sim::jobsim::RecomputeSpec;
    let w = wl();
    let js = JobSim::new(HwProfile::stic(), w.clone()).noncollocated();
    let mut st = SimState::new(&w, 0);
    let init = js.run_full(&mut st, 1, 1, true).unwrap();
    st.fail_node(7);
    let lost = st.files[&1].lost_partitions(&st);
    assert!(!lost.is_empty());
    let whole = js
        .run_recompute(
            &mut st.clone(),
            1,
            &RecomputeSpec::new(lost.iter().copied(), 1),
            true,
        )
        .unwrap();
    let split = js
        .run_recompute(
            &mut st,
            1,
            &RecomputeSpec::new(lost.iter().copied(), 7),
            true,
        )
        .unwrap();
    assert!(whole.duration < init.duration, "recompute beats rerun");
    assert!(split.duration <= whole.duration, "splitting still helps");
}

/// Pinned difference (DESIGN §3.7): the engine has no non-collocated
/// deployment, and the simulator's one never reads a chain-cached input,
/// since storage and compute are separate tiers. The same two jobs with
/// the cache on read from it when collocated.
#[test]
fn noncollocated_runs_read_no_chain_cached_input() {
    let hits = |noncollocated: bool| {
        let w = wl();
        let mut js = JobSim::new(HwProfile::stic(), w.clone());
        if noncollocated {
            js = js.noncollocated();
        }
        let mut st = SimState::new(&w, 0);
        st.enable_chain_cache(u64::MAX);
        js.run_full(&mut st, 1, 1, true).unwrap();
        js.run_full(&mut st, 2, 1, true).unwrap().cache_hits
    };
    assert!(
        hits(false) > 0,
        "collocated runs read the cached partitions"
    );
    assert_eq!(hits(true), 0);
}
