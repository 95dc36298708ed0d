//! Every metric the benchmark emits, by name, with its unit and
//! direction. `BENCHMARK.json` declares the same sets; a unit test
//! holds the two together in both directions.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    /// Per-layer metrics have none (0.0).
    pub bound: f64,
    /// A count that must be identical in every repetition and every run.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off, on every
/// workload, and never zero.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("chain_wall_s", "s", Lower, 0.15),
    e2e("chain_mb_per_s", "MB/s", Higher, 0.15),
    e2e("chain_records_per_s", "rec/s", Higher, 0.15),
    e2e("tasks_per_s", "tasks/s", Higher, 0.15),
    e2e("chains_per_s", "chains/s", Higher, 0.15),
    e2e("latency_p50_ms", "ms", Lower, 0.15),
    e2e("latency_tail_ms", "ms", Lower, 0.15),
];

/// One layer each, from the traced repetitions (read from what the
/// program already returns) and from probes that time a layer's public
/// functions directly. Zero where a layer does no work on a workload.
pub const PER_LAYER: &[Metric] = &[
    // model
    layer("model.encode_mb_per_s", "MB/s", Higher),
    layer("model.decode_mb_per_s", "MB/s", Higher),
    // workloads
    layer("workloads.map_udf_mb_per_s", "MB/s", Higher),
    layer("workloads.reduce_udf_mb_per_s", "MB/s", Higher),
    layer("workloads.md5_mb_per_s", "MB/s", Higher),
    layer("workloads.datagen_mb_per_s", "MB/s", Higher),
    layer("workloads.digest_mb_per_s", "MB/s", Higher),
    // dfs
    layer("dfs.write_mb_per_s", "MB/s", Higher),
    layer("dfs.write_repl3_mb_per_s", "MB/s", Higher),
    layer("dfs.read_mb_per_s", "MB/s", Higher),
    layer("dfs.fail_node_ms", "ms", Lower),
    layer("dfs.read_ms", "ms", Lower),
    layer("dfs.write_ms", "ms", Lower),
    layer("dfs.verify_ms", "ms", Lower),
    layer("dfs.cache_read_ms", "ms", Lower),
    exact("dfs.blocks_read", "count", Lower),
    exact("dfs.blocks_written", "count", Lower),
    layer("dfs.remote_read_share", "ratio", Lower),
    layer("dfs.cache_hit_share", "ratio", Higher),
    layer("dfs.cache_local_hit_share", "ratio", Higher),
    layer("dfs.cache_spills", "count", Lower),
    layer("dfs.used_mb", "MB", Lower),
    // engine
    layer("engine.map_compute_ms", "ms", Lower),
    layer("engine.combine_ms", "ms", Lower),
    layer("engine.map_output_write_ms", "ms", Lower),
    layer("engine.shuffle_fetch_ms", "ms", Lower),
    layer("engine.merge_ms", "ms", Lower),
    layer("engine.reduce_udf_ms", "ms", Lower),
    exact("engine.map_tasks_run", "count", Lower),
    exact("engine.map_tasks_reused", "count", Higher),
    exact("engine.reduce_tasks_run", "count", Lower),
    exact("engine.task_retries", "count", Lower),
    layer("engine.shuffle_mb", "MB", Lower),
    layer("engine.shuffle_remote_share", "ratio", Lower),
    layer("engine.combine_ratio", "ratio", Lower),
    layer("engine.job_wall_ms_p50", "ms", Lower),
    layer("engine.job_wall_ms_max", "ms", Lower),
    layer("engine.mapstore_insert_mb_per_s", "MB/s", Higher),
    layer("engine.mapstore_fetch_us", "us", Lower),
    layer("engine.merge_records_per_s", "rec/s", Higher),
    layer("engine.shuffle_plan_us", "us", Lower),
    // exec
    layer("exec.wave_tasks_per_s", "tasks/s", Higher),
    layer("exec.reactor_poll_ms", "ms", Lower),
    layer("exec.reactor_park_ms", "ms", Lower),
    exact("exec.waves", "count", Lower),
    // policy
    layer("policy.assign_map_waves_us", "us", Lower),
    layer("policy.assign_reduce_waves_us", "us", Lower),
    layer("policy.drr_grants_per_s", "1/s", Higher),
    // core
    layer("core.plan_recovery_us", "us", Lower),
    layer("core.recovery_ms", "ms", Lower),
    layer("core.planning_ms", "ms", Lower),
    layer("core.recompute_wave_ms", "ms", Lower),
    layer("core.backoff_ms", "ms", Lower),
    exact("core.jobs_started", "count", Lower),
    exact("core.recompute_runs", "count", Lower),
    exact("core.restarts", "count", Lower),
    exact("core.recomputed_map_tasks", "count", Lower),
    exact("core.recomputed_reduce_tasks", "count", Lower),
    exact("core.losses", "count", Lower),
    layer("core.driver_overhead_ms", "ms", Lower),
    // obs
    layer("obs.recorder_ns_per_event", "ns", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("obs.phase_timer_ns", "ns", Lower),
    layer("obs.spans_recorded", "count", Lower),
    layer("obs.events_recorded", "count", Lower),
    layer("obs.events_dropped", "count", Lower),
    layer("obs.phase_sum_ms", "ms", Lower),
    // serve
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.reject_share", "ratio", Lower),
    layer("serve.jain_early_grants", "ratio", Higher),
    layer("serve.t0_latency_p50_ms", "ms", Lower),
    layer("serve.t1_latency_p50_ms", "ms", Lower),
    layer("serve.t2_latency_p50_ms", "ms", Lower),
    // sim: simulated seconds are their own unit, never `s`
    layer("sim.host_ms_per_chain", "ms", Lower),
    exact("sim.chain_secs_rcmp", "sim_s", Lower),
    exact("sim.chain_secs_repl3", "sim_s", Lower),
    // bench: the ruler's own health
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.rep_spread", "ratio", Lower),
    layer("bench.warmup_ratio", "ratio", Lower),
    layer("bench.peak_rss_mb", "MB", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_array, as_f64, as_str, get, parse};
    use crate::workloads::NAMES;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for w in NAMES {
            assert!(well_formed(w), "{w}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(
            find("setup_s").map(|m| (m.unit, m.better)),
            Some(("s", Lower))
        );
    }

    /// The `(name, unit, better)` triples of one list in BENCHMARK.json.
    fn declared(doc: &serde_json::Value, list: &str) -> BTreeSet<(String, String, String)> {
        as_array(get(doc, list).expect(list))
            .iter()
            .map(|m| {
                let field = |k| as_str(get(m, k).expect(k)).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(list: &[Metric]) -> BTreeSet<(String, String, String)> {
        list.iter()
            .map(|m| {
                let better = match m.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                (m.name.into(), m.unit.into(), better.into())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runner_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        for m in as_array(get(&doc, "end_to_end").unwrap()) {
            let name = as_str(get(m, "name").unwrap()).unwrap();
            let bound = as_f64(get(m, "bound").unwrap()).unwrap();
            assert_eq!(Some(bound), find(name).map(|m| m.bound), "{name}");
        }
        let workloads: Vec<&str> = as_array(get(&doc, "workloads").unwrap())
            .iter()
            .map(|w| as_str(get(w, "name").unwrap()).unwrap())
            .collect();
        assert_eq!(workloads, NAMES);
    }
}
