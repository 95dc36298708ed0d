//! The multi-tenant job service at the public API surface: three
//! tenants share one cluster through `rcmp::serve::JobService` —
//! admission backpressure, weighted fair-share scheduling, per-tenant
//! tracing — then the canonical soak scenarios run end to end and
//! print the serve benchmark table (throughput, p50/p99, Jain's
//! fairness index).
//!
//! ```text
//! cargo run --release --example serve_soak
//! ```

use rcmp::core::Strategy;
use rcmp::engine::Cluster;
use rcmp::model::{ClusterConfig, Error, ServeConfig, TenantId};
use rcmp::obs::tenant_view;
use rcmp::policy::TenantShare;
use rcmp::serve::soak::{run_scenario, SoakScenario};
use rcmp::serve::{ChainRequest, JobService};
use rcmp::workloads::{generate_input, ChainBuilder, DataGenConfig};
use std::sync::Arc;

const NODES: u32 = 6;
const PARTITIONS: u32 = 4;

fn main() {
    // --- Part 1: the submission loop, spelled out. -------------------
    let cluster = Arc::new(Cluster::new(ClusterConfig::small_test(NODES)));
    generate_input(
        cluster.dfs(),
        &DataGenConfig::test("input", PARTITIONS, 20_000),
    )
    .unwrap();

    let service = JobService::new(
        Arc::clone(&cluster),
        ServeConfig {
            queue_depth: 2,
            max_concurrent_chains: 3,
            worker_budget: 6,
            workers_per_chain: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Three tenants: two equal-share, one with double weight.
    let tenants = [(TenantId(0), 1u32), (TenantId(1), 1), (TenantId(2), 2)];
    for (tenant, weight) in tenants {
        service.register_tenant(
            tenant,
            TenantShare {
                weight,
                max_in_flight: weight,
            },
        );
    }

    // Each tenant submits 3 chains; a full queue answers with the
    // typed rejection and a seeded retry-after hint we honour.
    let mut tickets = Vec::new();
    for round in 0..3u32 {
        for (i, (tenant, _)) in tenants.iter().enumerate() {
            let chain = ChainBuilder::new(2, PARTITIONS)
                .input("input")
                .namespace(format!("{tenant}/c{round}/"), (i as u32 * 3 + round) * 100)
                .build();
            let submit = || {
                ChainRequest::new(*tenant, chain.jobs.clone(), Strategy::rcmp_split(3))
                    .with_label(format!("{tenant}/c{round}"))
            };
            loop {
                match service.submit(submit()) {
                    Ok(ticket) => {
                        tickets.push(ticket);
                        break;
                    }
                    Err(Error::AdmissionRejected {
                        tenant,
                        retry_after_ms,
                    }) => {
                        println!("{tenant}: queue full, retrying in {retry_after_ms} ms");
                        std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.max(1)));
                    }
                    Err(e) => panic!("submission failed: {e}"),
                }
            }
        }
    }
    for ticket in tickets {
        let result = ticket.wait().unwrap();
        let summary = result.outcome.expect("no faults injected");
        println!(
            "{} resolved: {} job runs, granted #{}, {} ms",
            result.label, summary.jobs_started, result.grant_seq, result.latency_ms
        );
    }

    // Per-tenant observability: each tenant's runs filter cleanly out
    // of the shared trace.
    let trace = cluster.tracer().snapshot();
    for (tenant, _) in tenants {
        let view = tenant_view(&trace, tenant);
        println!("{tenant}: {} spans in its tenant view", view.spans.len());
    }
    let snapshot = cluster.metrics().snapshot();
    println!(
        "admitted = {}, rejected = {}",
        snapshot.counter("serve.admitted").unwrap_or(0),
        snapshot.counter("serve.rejected").unwrap_or(0)
    );

    // --- Part 2: the canonical soak scenarios. -----------------------
    for scenario in [
        SoakScenario::balanced(),
        SoakScenario::weighted(),
        SoakScenario::chaos(0x5eed),
    ] {
        let report = run_scenario(&scenario).unwrap();
        println!(
            "\n[{}] {} chains: {} ok / {} failed, {:.1} chains/s, p50 {} ms, p99 {} ms, jain {:.3}, {} verified / {} mismatched",
            report.scenario,
            report.chains,
            report.completed,
            report.failed,
            report.throughput_cps,
            report.p50_ms,
            report.p99_ms,
            report.jain,
            report.digests_verified,
            report.digest_mismatches,
        );
        assert_eq!(report.digest_mismatches, 0);
    }
}
