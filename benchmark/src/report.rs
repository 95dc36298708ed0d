//! `run`: every workload, one process per run, into one result file
//! that carries each run's samples and an environment fingerprint, and
//! onto the terminal as one table per workload.

use crate::json::{as_f64, as_object, as_str, get, object, parse};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::{nproc, NAMES};
use crate::{out_dir, Flags};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

/// First line of a tool's `--version`-style output, or `"unknown"`
/// (the driver's checkout, for one, is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process; returns its detail file.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr is shown as it comes.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if out.status.code().is_none_or(|c| c > 1) {
        return Err(format!(
            "{workload} (seed {seed}) ended with {}",
            out.status
        ));
    }
    let file = out_dir().join(format!("{workload}.trace{}.json", u8::from(trace)));
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    parse(&text)
}

fn metric_value(detail: &Value, name: &str) -> Option<f64> {
    let metrics = get(get(detail, "result")?, "metrics")?;
    as_f64(get(get(metrics, name)?, "value")?)
}

fn is_correct(detail: &Value) -> bool {
    get(detail, "result").and_then(|r| get(r, "correct")) == Some(&Value::Bool(true))
}

pub fn run(flags: &Flags) -> Result<bool, String> {
    let (_, seconds) = flags.sizing()?;
    let smoke = flags.has("--smoke");
    let runs: u64 = flags.parsed("--runs", 1)?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let out = flags
        .get("--out")
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    let chosen: Vec<&str> = match flags.get("--workload") {
        Some(name) if NAMES.contains(&name) => vec![name],
        Some(name) => return Err(format!("unknown workload {name:?}")),
        None => NAMES.to_vec(),
    };

    let mut all_correct = true;
    let mut sections = Vec::new();
    for workload in chosen {
        // End-to-end metrics: one untraced run per seed. Per-layer
        // metrics: one traced run on the first seed.
        let mut untraced = Vec::new();
        for i in 0..runs.max(1) {
            eprintln!("{workload}: run {} of {runs} (seed {})", i + 1, seed + i);
            untraced.push(child(workload, seed + i, seconds, false, smoke)?);
        }
        eprintln!("{workload}: traced run (seed {seed})");
        let traced = child(workload, seed, seconds, true, smoke)?;
        all_correct &= untraced.iter().chain([&traced]).all(is_correct);

        let end_to_end: Vec<(&str, Vec<f64>)> = END_TO_END
            .iter()
            .map(|m| {
                let values = untraced
                    .iter()
                    .filter_map(|d| metric_value(d, m.name))
                    .collect();
                (m.name, values)
            })
            .collect();
        let per_layer: Vec<(&str, f64)> = PER_LAYER
            .iter()
            .filter_map(|m| Some((m.name, metric_value(&traced, m.name)?)))
            .collect();
        let chains_per_rep = get(&traced, "chains_per_rep")
            .and_then(as_f64)
            .unwrap_or(1.0);
        print_section(workload, &end_to_end, &per_layer, chains_per_rep);
        sections.push((
            workload,
            object([
                (
                    "end_to_end",
                    object(
                        end_to_end
                            .into_iter()
                            .map(|(k, v)| (k, crate::json::floats(&v))),
                    ),
                ),
                (
                    "per_layer",
                    object(per_layer.into_iter().map(|(k, v)| (k, Value::F64(v)))),
                ),
                ("runs", Value::Array(untraced)),
                ("traced_run", traced),
            ]),
        ));
    }

    let doc = object([
        (
            "fingerprint",
            object([
                ("nproc", Value::U64(u64::from(nproc()))),
                ("rustc", Value::String(tool_line("rustc", &["--version"]))),
                (
                    "git_commit",
                    Value::String(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Value::U64(seed)),
                ("runs", Value::U64(runs)),
                ("seconds", Value::F64(seconds)),
                ("smoke", Value::Bool(smoke)),
            ]),
        ),
        ("workloads", object(sections)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).expect("value trees always render");
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult file: {}", out.display());
    println!(
        "outputs: {}",
        if all_correct { "all correct" } else { "WRONG" }
    );
    Ok(all_correct)
}

/// The task-level phase timers of the program's profiler: busy time
/// summed over tasks, each disjoint from the others.
const BUSY_TIME: [&str; 12] = [
    "engine.map_compute_ms",
    "engine.combine_ms",
    "engine.map_output_write_ms",
    "engine.shuffle_fetch_ms",
    "engine.merge_ms",
    "engine.reduce_udf_ms",
    "dfs.read_ms",
    "dfs.write_ms",
    "dfs.verify_ms",
    "dfs.cache_read_ms",
    "core.planning_ms",
    "core.backoff_ms",
];

/// Timers that contain the task phases above (a recompute wave's wall,
/// the reactor's time inside `poll`) or are idle time (park): shown
/// beside the breakdown, never added into it.
const AROUND_THE_TASKS: [&str; 3] = [
    "core.recompute_wave_ms",
    "exec.reactor_poll_ms",
    "exec.reactor_park_ms",
];

/// One workload's tables: the end-to-end metrics (median and quartiles
/// over the runs), the busy-time breakdown beside the wall of one
/// repetition, then every per-layer metric of the traced run.
fn print_section(
    workload: &str,
    end_to_end: &[(&str, Vec<f64>)],
    per_layer: &[(&str, f64)],
    chains_per_rep: f64,
) {
    println!("\n== {workload}");
    println!(
        "{:<34} {:>14} {:>14} {:>14}  unit",
        "end to end", "median", "q1", "q3"
    );
    for (m, (name, values)) in END_TO_END.iter().zip(end_to_end) {
        let (q1, q3) = quartiles(values);
        println!(
            "{name:<34} {:>14.4} {q1:>14.4} {q3:>14.4}  {}",
            median(values),
            m.unit
        );
    }

    let layer = |name: &str| {
        per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let busy_ms: f64 = BUSY_TIME.iter().map(|name| layer(name)).sum();
    let rep_wall_ms = end_to_end
        .iter()
        .find(|(name, _)| *name == "chain_wall_s")
        .map_or(0.0, |(_, v)| median(v) * 1e3 * chains_per_rep);
    println!(
        "busy time by layer in one repetition of {chains_per_rep} chain(s), summed over tasks: \
         {busy_ms:.1} ms busy beside {rep_wall_ms:.1} ms wall"
    );
    for name in BUSY_TIME {
        let ms = layer(name);
        if ms > 0.0 {
            println!("  {name:<32} {ms:>14.3} ms {:>6.1} %", 100.0 * ms / busy_ms);
        }
    }
    for name in AROUND_THE_TASKS {
        let ms = layer(name);
        if ms > 0.0 {
            println!("  {name:<32} {ms:>14.3} ms  (around the task phases)");
        }
    }

    println!("{:<34} {:>14}  unit", "per layer (traced run)", "value");
    for (m, &(name, value)) in PER_LAYER.iter().zip(per_layer) {
        println!("{name:<34} {value:>14.4}  {}", m.unit);
    }
}

/// The end-to-end samples of one workload in a result file.
pub fn samples(doc: &Value, workload: &str, list: &str) -> Vec<(String, Vec<f64>)> {
    let Some(section) = get(doc, "workloads")
        .and_then(|w| get(w, workload))
        .and_then(|s| get(s, list))
    else {
        return Vec::new();
    };
    as_object(section)
        .iter()
        .map(|(name, v)| {
            let values = match v {
                Value::Array(items) => items.iter().filter_map(as_f64).collect(),
                other => as_f64(other).into_iter().collect(),
            };
            (name.clone(), values)
        })
        .collect()
}

/// The workloads a result file holds, in file order.
pub fn workloads_of(doc: &Value) -> Vec<String> {
    get(doc, "workloads")
        .map(as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

/// `fingerprint.<key>` as text, for the compare header.
pub fn fingerprint(doc: &Value, key: &str) -> String {
    match get(doc, "fingerprint").and_then(|f| get(f, key)) {
        Some(v) => as_str(v).map_or_else(
            || serde_json::to_string(v).expect("value trees always render"),
            str::to_string,
        ),
        None => "?".to_string(),
    }
}
