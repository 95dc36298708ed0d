//! Per-layer metrics read from a traced repetition: everything here
//! comes from values the program already returns or exposes
//! ([`LayerData`]); no program file knows about the benchmark.

use crate::stats::{median, percentile};
use crate::workloads::{LayerData, Rep, TENANT_WEIGHTS};
use rcmp::obs::{PhaseKind, SpanKind};
use rcmp::policy::jain_index;

pub type Values = Vec<(&'static str, f64)>;

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The read (R) per-layer metrics of one traced repetition.
pub fn read(rep: &Rep) -> Values {
    let data = rep
        .layers
        .as_ref()
        .expect("traced repetitions carry layer data");
    let wall_ms = rep.wall_s * 1e3;
    let ms = |kind| data.phases.total_us(kind) as f64 / 1e3;
    let mut out: Values = vec![
        ("dfs.read_ms", ms(PhaseKind::DfsRead)),
        ("dfs.write_ms", ms(PhaseKind::DfsWrite)),
        ("dfs.verify_ms", ms(PhaseKind::BlockVerify)),
        ("dfs.cache_read_ms", ms(PhaseKind::ChainCacheRead)),
        ("engine.map_compute_ms", ms(PhaseKind::MapCompute)),
        ("engine.combine_ms", ms(PhaseKind::Combine)),
        ("engine.map_output_write_ms", ms(PhaseKind::MapOutputWrite)),
        ("engine.shuffle_fetch_ms", ms(PhaseKind::ShuffleFetch)),
        ("engine.merge_ms", ms(PhaseKind::StreamingMerge)),
        ("engine.reduce_udf_ms", ms(PhaseKind::ReduceUdf)),
        ("exec.reactor_poll_ms", ms(PhaseKind::ReactorPoll)),
        ("exec.reactor_park_ms", ms(PhaseKind::ReactorPark)),
        ("core.planning_ms", ms(PhaseKind::RecoveryPlanning)),
        ("core.recompute_wave_ms", ms(PhaseKind::RecomputeWave)),
        ("core.backoff_ms", ms(PhaseKind::RetryBackoff)),
        (
            "obs.phase_sum_ms",
            data.phases.grand_total_us() as f64 / 1e3,
        ),
        ("obs.spans_recorded", data.spans.len() as f64),
        ("obs.events_recorded", data.events_recorded as f64),
        ("obs.events_dropped", data.events_dropped as f64),
        ("engine.map_tasks_run", rep.counts.map_tasks as f64),
        ("engine.reduce_tasks_run", rep.counts.reduce_tasks as f64),
        ("engine.task_retries", data.task_retries as f64),
        ("core.jobs_started", rep.counts.jobs_started as f64),
        ("dfs.used_mb", data.dfs_used.as_f64() / 1e6),
    ];

    // Volumes, locality and job walls from the program's own spans.
    let (mut blocks_read, mut blocks_written, mut waves) = (0u64, 0u64, 0u64);
    let (mut map_in, mut map_in_remote, mut shuffle, mut shuffle_remote) = (0u64, 0u64, 0u64, 0u64);
    let mut job_walls_ms = Vec::new();
    let mut first_pass_ms = 0.0;
    for span in &data.spans {
        match &span.kind {
            SpanKind::BlockRead { .. } => blocks_read += 1,
            SpanKind::BlockWrite { blocks, .. } => blocks_written += u64::from(*blocks),
            SpanKind::Wave { .. } => waves += 1,
            SpanKind::Task {
                id,
                bytes_in,
                input_source,
                ok: true,
                ..
            } if id.is_map() => {
                map_in += bytes_in;
                if input_source.is_some() && *input_source != span.node {
                    map_in_remote += bytes_in;
                }
            }
            SpanKind::ShuffleFetch { source, bytes } => {
                shuffle += bytes;
                if Some(*source) != span.node {
                    shuffle_remote += bytes;
                }
            }
            SpanKind::JobRun { recompute, ok, .. } => {
                let dur_ms = span.duration_us() as f64 / 1e3;
                job_walls_ms.push(dur_ms);
                if *ok && !recompute {
                    first_pass_ms += dur_ms;
                }
            }
            _ => {}
        }
    }
    out.extend([
        ("dfs.blocks_read", blocks_read as f64),
        ("dfs.blocks_written", blocks_written as f64),
        (
            "dfs.remote_read_share",
            share(map_in_remote as f64, map_in as f64),
        ),
        ("exec.waves", waves as f64),
        ("engine.shuffle_mb", shuffle as f64 / 1e6),
        (
            "engine.shuffle_remote_share",
            share(shuffle_remote as f64, shuffle as f64),
        ),
        ("engine.combine_ratio", share(shuffle as f64, map_in as f64)),
        ("engine.job_wall_ms_p50", median(&job_walls_ms)),
        ("engine.job_wall_ms_max", percentile(&job_walls_ms, 100.0)),
    ]);

    let cache = data.cache.unwrap_or_default();
    out.extend([
        (
            "dfs.cache_hit_share",
            share(cache.hits as f64, (cache.hits + cache.misses) as f64),
        ),
        (
            "dfs.cache_local_hit_share",
            share(cache.hits_local as f64, cache.hits as f64),
        ),
        ("dfs.cache_spills", cache.spills as f64),
    ]);

    // The middleware's own cost: what the chain's wall holds beyond
    // its job runs, and (after a loss) beyond the runs a fault-free
    // chain would have made — everything the failure cost, in one run.
    let (mut reused, mut recompute_runs, mut restarts, mut losses) = (0, 0, 0, 0);
    let (mut re_maps, mut re_reduces) = (0, 0);
    let (mut overhead_ms, mut recovery_ms) = (0.0, 0.0);
    if let Some(outcome) = &data.outcome {
        recompute_runs = outcome.events.recompute_runs();
        restarts = outcome.events.restarts();
        losses = outcome.events.losses();
        for run in &outcome.runs {
            reused += run.map_tasks_reused;
        }
        let recompute_seqs: Vec<u64> = data
            .spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::JobRun {
                    seq,
                    recompute: true,
                    ..
                } => Some(seq),
                _ => None,
            })
            .collect();
        for run in outcome
            .runs
            .iter()
            .filter(|r| recompute_seqs.contains(&r.seq))
        {
            re_maps += run.map_tasks_run;
            re_reduces += run.reduce_tasks_run;
        }
        overhead_ms = wall_ms - job_walls_ms.iter().sum::<f64>();
        if losses > 0 {
            recovery_ms = wall_ms - first_pass_ms;
        }
    }
    out.extend([
        ("engine.map_tasks_reused", reused as f64),
        ("core.recompute_runs", recompute_runs as f64),
        ("core.restarts", restarts as f64),
        ("core.losses", losses as f64),
        ("core.recomputed_map_tasks", re_maps as f64),
        ("core.recomputed_reduce_tasks", re_reduces as f64),
        ("core.driver_overhead_ms", overhead_ms),
        ("core.recovery_ms", recovery_ms),
    ]);

    out.extend(serve(data));
    out
}

/// The serving tier as its clients saw it (zeros off `serve_mix`).
fn serve(data: &LayerData) -> Values {
    let served = &data.served;
    let submits: Vec<f64> = served.iter().map(|s| s.submit_us).collect();
    let rejects: u64 = served.iter().map(|s| s.rejects).sum();
    let tenant_p50 = |t: u32| {
        let lat: Vec<f64> = served
            .iter()
            .filter(|s| s.tenant == t)
            .map(|s| s.latency_ms)
            .collect();
        median(&lat)
    };
    // Jain's index over weight-normalised early grants: of the first
    // half of the arbiter's grants, how many each tenant got per unit
    // of weight.
    let early = served.len() as u64 / 2;
    let per_weight: Vec<f64> = TENANT_WEIGHTS
        .iter()
        .enumerate()
        .map(|(t, &weight)| {
            let grants = served
                .iter()
                .filter(|s| s.tenant == t as u32 && (1..=early).contains(&s.grant_seq))
                .count();
            grants as f64 / f64::from(weight)
        })
        .collect();
    vec![
        ("serve.submit_us_p50", median(&submits)),
        (
            "serve.reject_share",
            share(rejects as f64, (rejects + served.len() as u64) as f64),
        ),
        (
            "serve.jain_early_grants",
            if served.is_empty() {
                0.0
            } else {
                jain_index(&per_weight)
            },
        ),
        ("serve.t0_latency_p50_ms", tenant_p50(0)),
        ("serve.t1_latency_p50_ms", tenant_p50(1)),
        ("serve.t2_latency_p50_ms", tenant_p50(2)),
    ]
}
