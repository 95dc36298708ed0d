//! One workload in one process: set-up, a discarded warm-up, the
//! measured repetitions, the correctness gate, and the result line.
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's span
//! recorder off. `--trace 1` reports the per-layer metrics: untraced and
//! traced repetitions alternate (their ratio is the tracing overhead),
//! then the probes run.

use crate::json::{floats, object};
use crate::layers::{self, Values};
use crate::metrics::{self, Metric, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{iqr_share, median, percentile, tail_percentile};
use crate::workloads::{nproc, Counts, Golden, Kind, Rep, Workload};
use crate::{out_dir, probes};
use serde_json::Value;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured repetitions, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Share of a traced run's `--seconds` kept for the probes.
const PROBE_SHARE: f64 = 0.25;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Input divisor (`--smoke`).
    pub scale: u64,
}

/// Runs the workload, writes `out/<workload>.trace<0|1>.json` (and the
/// spans of a traced run), prints the result line. `Ok(false)` when an
/// output was wrong.
pub fn run(opts: &Opts) -> Result<bool, String> {
    let w = Workload::by_name(&opts.workload, opts.scale)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let mut run = Run::new(w, opts);
    let (declared, values) = if opts.trace {
        (PER_LAYER, run.traced())
    } else {
        (END_TO_END, run.untraced())
    };
    let result = run.result(declared, &values)?;
    let correct = run.correct();

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: String, doc: &Value| {
        let text = serde_json::to_string_pretty(doc).expect("value trees always render");
        std::fs::write(dir.join(&file), text).map_err(|e| format!("{file}: {e}"))
    };
    let trace = u8::from(opts.trace);
    write(
        format!("{}.trace{trace}.json", w.name),
        &run.detail(&result),
    )?;
    if opts.trace {
        write(format!("{}.trace.json", w.name), &run.spans.to_json(w.name))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("value trees always render")
    );
    Ok(correct)
}

struct Run<'a> {
    w: Workload,
    opts: &'a Opts,
    /// Records in traced runs; `off` takes the untraced repetitions.
    spans: Spans,
    off: Spans,
    setup_s: Vec<f64>,
    warmup_wall_s: f64,
    /// Measured repetitions with the span recorder off.
    reps: Vec<Rep>,
    /// Repetitions with the span recorder on (traced runs only).
    traced: Vec<Rep>,
    counts: Option<Counts>,
    attempted: u64,
    failed: u64,
    /// Goldens of repeated set-ups agree, counts repeat, exact
    /// per-layer counts repeat.
    consistent: bool,
}

impl<'a> Run<'a> {
    fn new(w: Workload, opts: &'a Opts) -> Self {
        Self {
            w,
            opts,
            spans: Spans::new(opts.trace),
            off: Spans::new(false),
            setup_s: Vec::new(),
            warmup_wall_s: 0.0,
            reps: Vec::new(),
            traced: Vec::new(),
            counts: None,
            attempted: 0,
            failed: 0,
            consistent: true,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.consistent
    }

    fn setups(&mut self, n: usize) -> Golden {
        let mut golden: Option<Golden> = None;
        for _ in 0..n {
            let started = Instant::now();
            let g = self
                .spans
                .root(0)
                .scope("bench.setup", |at| self.w.setup(self.opts.seed, at));
            self.setup_s.push(started.elapsed().as_secs_f64());
            self.consistent &= golden.as_ref().is_none_or(|first| first.digest == g.digest);
            golden = Some(g);
        }
        golden.expect("at least one set-up")
    }

    /// One repetition through the correctness gate.
    fn rep(&mut self, golden: &Golden, traced: bool) -> Rep {
        let n = (self.reps.len() + self.traced.len()) as u32 + 1;
        let spans = if traced { &self.spans } else { &self.off };
        let rep = self.w.rep(self.opts.seed, golden, spans.root(n));
        self.attempted += u64::from(self.w.chains_per_rep());
        self.failed += rep.failed;
        // Task and job-run counts must repeat exactly; without a fault
        // they must also be the golden run's, once per chain.
        let first = *self.counts.get_or_insert(rep.counts);
        self.consistent &= rep.counts == first;
        if !matches!(self.w.kind, Kind::Chain { kill: Some(_), .. }) {
            let chains = u64::from(self.w.chains_per_rep());
            self.consistent &= rep.counts.map_tasks == chains * golden.counts.map_tasks
                && rep.counts.reduce_tasks == chains * golden.counts.reduce_tasks;
        }
        rep
    }

    fn untraced(&mut self) -> Values {
        let golden = self.setups(SETUPS);
        self.warmup_wall_s = self.rep(&golden, false).wall_s;
        let started = Instant::now();
        while self.reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < self.opts.seconds {
            let rep = self.rep(&golden, false);
            self.reps.push(rep);
        }

        let w = &self.w;
        let chains = f64::from(w.chains_per_rep());
        let per_chain_mb = (w.input_bytes() * u64::from(w.chain_len())) as f64 / 1e6;
        let per_chain_records = (w.input_records() * u64::from(w.chain_len())) as f64;
        let over_reps =
            |f: &dyn Fn(&Rep) -> f64| median(&self.reps.iter().map(f).collect::<Vec<_>>());
        let latencies = self.latencies();
        vec![
            ("setup_s", median(&self.setup_s)),
            ("chain_wall_s", over_reps(&|r| r.wall_s / chains)),
            (
                "chain_mb_per_s",
                over_reps(&|r| chains * per_chain_mb / r.wall_s),
            ),
            (
                "chain_records_per_s",
                over_reps(&|r| chains * per_chain_records / r.wall_s),
            ),
            (
                "tasks_per_s",
                over_reps(&|r| (r.counts.map_tasks + r.counts.reduce_tasks) as f64 / r.wall_s),
            ),
            ("chains_per_s", over_reps(&|r| chains / r.wall_s)),
            ("latency_p50_ms", median(&latencies)),
            // The percentile is chosen by the sample count every run is
            // sure to reach, so that one repetition more or less never
            // changes which percentile is reported.
            (
                "latency_tail_ms",
                percentile(
                    &latencies,
                    tail_percentile(MIN_REPS * w.chains_per_rep() as usize),
                ),
            ),
        ]
    }

    fn traced(&mut self) -> Values {
        let golden = self.setups(1);
        self.warmup_wall_s = self.rep(&golden, false).wall_s;
        let budget = self.opts.seconds * (1.0 - PROBE_SHARE);
        let started = Instant::now();
        while self.traced.len() < 2 || started.elapsed().as_secs_f64() < budget {
            let rep = self.rep(&golden, false);
            self.reps.push(rep);
            let rep = self.rep(&golden, true);
            self.traced.push(rep);
        }

        // Times are the median over the traced repetitions; counts that
        // must repeat exactly are checked too.
        let per_rep: Vec<Values> = self.traced.iter().map(layers::read).collect();
        let mut values: Values = per_rep[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, first))| {
                let samples: Vec<f64> = per_rep.iter().map(|v| v[i].1).collect();
                if metrics::find(name).is_some_and(|m| m.exact) {
                    self.consistent &= samples.iter().all(|&x| x == first);
                }
                (name, median(&samples))
            })
            .collect();
        // The repetitions' high-water mark, before the probes add theirs.
        values.push(("bench.peak_rss_mb", peak_rss_mb()));
        values.extend(probes::run(&self.w, &self.spans));

        let untraced: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
        let traced: Vec<f64> = self.traced.iter().map(|r| r.wall_s).collect();
        values.extend([
            (
                "bench.trace_overhead_ratio",
                median(&traced) / median(&untraced),
            ),
            ("bench.rep_spread", iqr_share(&untraced)),
            ("bench.warmup_ratio", self.warmup_wall_s / median(&untraced)),
        ]);
        values
    }

    /// Hand-off → result of every chain of the untraced repetitions.
    fn latencies(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect()
    }

    /// The result line: exactly the declared metrics, each with its unit.
    fn result(&self, declared: &[Metric], values: &Values) -> Result<Value, String> {
        let metrics = declared
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|&(_, v)| v)
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                let entry = object([
                    ("value", Value::F64(value)),
                    ("unit", Value::String(m.unit.into())),
                ]);
                Ok((m.name, entry))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if values.len() != declared.len() {
            return Err(format!(
                "{} values measured, {} metrics declared",
                values.len(),
                declared.len()
            ));
        }
        Ok(object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", object(metrics)),
        ]))
    }

    /// The result plus what it was measured with and every sample.
    fn detail(&self, result: &Value) -> Value {
        let (w, opts) = (&self.w, self.opts);
        let per_rep = |f: &dyn Fn(&Rep) -> f64| self.reps.iter().map(f).collect::<Vec<_>>();
        let walls = |reps: &[Rep]| floats(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let counts = self.counts.unwrap_or_default();
        let load_threads = match w.kind {
            Kind::Serve { clients, .. } => clients,
            _ => 1,
        };
        object([
            ("workload", Value::String(w.name.into())),
            ("trace", Value::Bool(opts.trace)),
            ("seed", Value::U64(opts.seed)),
            ("seconds", Value::F64(opts.seconds)),
            ("scale", Value::U64(opts.scale)),
            ("nproc", Value::U64(u64::from(nproc()))),
            ("engine_threads", Value::U64(u64::from(w.engine_threads()))),
            ("load_threads", Value::U64(u64::from(load_threads))),
            ("input_bytes", Value::U64(w.input_bytes())),
            ("input_records", Value::U64(w.input_records())),
            ("chain_len", Value::U64(u64::from(w.chain_len()))),
            ("chains_per_rep", Value::U64(u64::from(w.chains_per_rep()))),
            ("reps", Value::U64(self.reps.len() as u64)),
            ("traced_reps", Value::U64(self.traced.len() as u64)),
            (
                "counts_per_rep",
                object([
                    ("jobs_started", Value::U64(counts.jobs_started)),
                    ("map_tasks", Value::U64(counts.map_tasks)),
                    ("reduce_tasks", Value::U64(counts.reduce_tasks)),
                ]),
            ),
            (
                "samples",
                object([
                    ("setup_s", floats(&self.setup_s)),
                    ("warmup_wall_s", Value::F64(self.warmup_wall_s)),
                    ("rep_wall_s", walls(&self.reps)),
                    ("traced_rep_wall_s", walls(&self.traced)),
                    (
                        "rep_latency_p50_ms",
                        floats(&per_rep(&|r| median(&r.latencies_ms))),
                    ),
                ]),
            ),
            ("result", result.clone()),
        ])
    }
}

/// High-water mark of this process's resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_object, get};
    use crate::{SMOKE_SCALE, SMOKE_SECONDS};

    /// The names of the `metrics` object of a result line.
    fn emitted(result: &Value) -> Vec<String> {
        as_object(get(result, "metrics").expect("metrics"))
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// A smoke-scale run of the recovery workload and of the serving
    /// workload, both ways: outputs are correct, the exact counts are
    /// the paper's, and the result line carries exactly the declared
    /// metrics.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        for workload in ["chain_kill", "serve_mix"] {
            for trace in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 11,
                    seconds: SMOKE_SECONDS,
                    trace,
                    scale: SMOKE_SCALE,
                };
                let w = Workload::by_name(workload, opts.scale).expect("a known workload");
                let mut run = Run::new(w, &opts);
                let (declared, values) = if trace {
                    (PER_LAYER, run.traced())
                } else {
                    (END_TO_END, run.untraced())
                };
                let result = run
                    .result(declared, &values)
                    .expect("every metric measured");
                assert!(run.correct(), "{workload} trace={trace}: wrong output");
                let names: Vec<&str> = declared.iter().map(|m| m.name).collect();
                assert_eq!(emitted(&result), names, "{workload} trace={trace}");
                let value = |name: &str| values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                if trace && workload == "chain_kill" {
                    assert_eq!(value("core.jobs_started"), Some(14.0));
                    assert_eq!(value("core.losses"), Some(1.0));
                    assert_eq!(value("core.recompute_runs"), Some(6.0));
                }
                if !trace {
                    assert!(
                        values.iter().all(|&(_, v)| v > 0.0),
                        "{workload}: a zero metric"
                    );
                }
            }
        }
    }
}
