//! Chaos fault injection at the public API surface: scripted replica
//! corruption, a seeded randomized fault schedule, and typed
//! escalation when the retry budget runs out.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use rcmp::core::{ChainDriver, Strategy};
use rcmp::engine::failure::Fault;
use rcmp::engine::{Cluster, RandomizedInjector, ScriptedInjector, TriggerPoint};
use rcmp::model::{ByteSize, ClusterConfig, Error, ExecutorConfig, NodeId, SlotConfig};
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 5;
const JOBS: u32 = 4;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: NODES,
        slots: SlotConfig::ONE_ONE,
        block_size: ByteSize::kib(4),
        max_recovery_attempts: 100,
        executor: ExecutorConfig::from_env_or_default(),
        shuffle: Default::default(),
        retry: Default::default(),
        placement: Default::default(),
        chain_cache: Default::default(),
        seed: 7,
    })
}

fn setup(cl: &Cluster) -> rcmp::workloads::ChainSpec {
    generate_input(cl.dfs(), &DataGenConfig::test("input", NODES, 12_000)).unwrap();
    ChainBuilder::new(JOBS, NODES).build()
}

fn main() {
    // Failure-free reference digest for the 4-job chain.
    let golden = {
        let cl = cluster();
        let chain = setup(&cl);
        ChainDriver::new(&cl, Strategy::rcmp_no_split())
            .run(&chain.jobs)
            .unwrap();
        digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0
    };
    println!("golden digest (failure-free run): {golden:?}\n");

    // 1. Silent replica corruption under REPL-2: the block checksum
    //    catches it on read, the replica is demoted, and the survivor
    //    serves the data — no recomputation, exact output.
    {
        let cl = cluster();
        let chain = setup(&cl);
        let injector = Arc::new(ScriptedInjector::single_fault(
            2,
            TriggerPoint::JobStart,
            Fault::CorruptReplica { node: NodeId(1) },
        ));
        let outcome = ChainDriver::new(&cl, Strategy::Replication { factor: 2 })
            .with_injector(injector)
            .run(&chain.jobs)
            .unwrap();
        let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
            .unwrap()
            .0;
        println!(
            "corrupt replica under REPL-2: jobs_started={} restarts={} digest_ok={}",
            outcome.jobs_started,
            outcome.events.restarts(),
            digest == golden
        );
    }

    // 2. Seeded randomized chaos: kills, corruption, torn writes and
    //    shuffle flakes mixed by seed. The contract is binary — exact
    //    golden digest or a typed recovery error — and the schedule is
    //    a pure function of the seed.
    for seed in [3u64, 17, 41] {
        let cl = cluster();
        let chain = setup(&cl);
        let injector = Arc::new(
            RandomizedInjector::new(seed, NODES)
                .kill_probability(0.08)
                .fault_probability(0.25),
        );
        let result = ChainDriver::new(&cl, Strategy::rcmp_split(3))
            .with_injector(injector.clone())
            .run(&chain.jobs);
        match result {
            Ok(outcome) => {
                let digest = digest_file(cl.dfs(), chain.final_output(), cl.live_nodes()[0])
                    .unwrap()
                    .0;
                println!(
                    "chaos seed {seed}: converged, jobs_started={} faults_injected={:?} digest_ok={}",
                    outcome.jobs_started,
                    injector.faults_raised(),
                    digest == golden
                );
            }
            Err(e) => println!("chaos seed {seed}: typed error: {e}"),
        }
    }

    // 3. Typed escalation: a shuffle path that never stops failing
    //    exhausts the bounded retry budget instead of livelocking.
    {
        let cl = Cluster::new(ClusterConfig {
            nodes: 1,
            slots: SlotConfig::ONE_ONE,
            block_size: ByteSize::kib(4),
            max_recovery_attempts: 100,
            executor: ExecutorConfig::from_env_or_default(),
            shuffle: Default::default(),
            retry: Default::default(),
            placement: Default::default(),
            chain_cache: Default::default(),
            seed: 7,
        });
        let mut gen = DataGenConfig::test("input", 1, 4_000);
        gen.replication = 1;
        generate_input(cl.dfs(), &gen).unwrap();
        let chain = ChainBuilder::new(1, 1).build();
        let injector = Arc::new(ScriptedInjector::single_fault(
            1,
            TriggerPoint::JobStart,
            Fault::ShuffleFlake {
                node: NodeId(0),
                times: u32::MAX,
            },
        ));
        let err = ChainDriver::new(&cl, Strategy::rcmp_no_split())
            .with_injector(injector)
            .run(&chain.jobs)
            .unwrap_err();
        assert!(matches!(err, Error::RecoveryExhausted { .. }));
        println!("\npermanent shuffle flake escalates: {err}");
    }

    // 4. Config validation: a zero recovery budget is rejected up
    //    front, and out-of-range injector probabilities clamp instead
    //    of panicking mid-chain.
    {
        let mut cfg = ClusterConfig::small_test(NODES);
        cfg.max_recovery_attempts = 0;
        println!("zero recovery budget: {}", cfg.validate().unwrap_err());

        let cl = cluster();
        let chain = setup(&cl);
        let injector = Arc::new(RandomizedInjector::new(5, NODES).kill_probability(1.5));
        let result = ChainDriver::new(&cl, Strategy::rcmp_no_split())
            .with_injector(injector)
            .run(&chain.jobs);
        println!(
            "kill_probability(1.5) clamps to certainty, no panic: outcome={}",
            match result {
                Ok(o) => format!("converged after {} job runs", o.jobs_started),
                Err(e) => format!("typed error: {e}"),
            }
        );
    }
}
