//! Regenerates the paper's figures.
//!
//! ```text
//! fig_runner [all|fig02|fig08a|fig08b|fig08c|fig09|fig10|fig11|fig12|fig13|fig14|trace|extras|placement|resilience|obs|chain]...
//!            [--quick] [--json <dir>]
//! ```
//!
//! `all` stands for the paper's figures plus `trace` and `extras`, in
//! place, so it combines with the other names. `--quick` scales the
//! workloads down (fast sanity runs); the default runs at paper scale
//! (40 GB STIC / 1.2 TB DCO — simulated, so still seconds of wall
//! clock). `--json <dir>` additionally writes each figure's data as
//! JSON. An unknown name exits 2 before anything runs; a failed `chain`
//! or `obs` gate exits 1.

use rcmp_bench::figures::*;
use serde::Serialize;
use std::io::Write;

/// What `all` expands to.
const ALL: [&str; 12] = [
    "fig02", "fig08a", "fig08b", "fig08c", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "trace", "extras",
];
/// The figures outside `all`: wall-clock gates and simulator sweeps.
const OTHERS: [&str; 4] = ["placement", "resilience", "chain", "obs"];

/// Prints a figure's table and, given `--json <dir>`, writes its data
/// to `<dir>/<name>.json`.
fn show(json_dir: Option<&str>, name: &str, table: String, data: &impl Serialize) {
    println!("{table}");
    if let Some(dir) = json_dir {
        let path = format!("{dir}/{name}.json");
        let json = serde_json::to_string_pretty(data).expect("figure data serializes");
        let mut f = std::fs::File::create(&path).expect("create json file");
        f.write_all(json.as_bytes()).expect("write json");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let named: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| Some(*a) != json_dir.as_deref())
        .collect();
    let figs: Vec<&str> = if named.is_empty() {
        ALL.to_vec()
    } else {
        named
            .iter()
            .flat_map(|&f| if f == "all" { ALL.to_vec() } else { vec![f] })
            .collect()
    };
    if let Some(unknown) = figs
        .iter()
        .find(|f| !ALL.contains(f) && !OTHERS.contains(f))
    {
        eprintln!("unknown figure: {unknown}");
        std::process::exit(2);
    }
    let scale = if quick { 8 } else { 1 };
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    let json = json_dir.as_deref();

    for fig in figs {
        match fig {
            "fig02" => {
                let r = fig02::run(42);
                show(json, "fig02", r.render(), &r);
            }
            "fig08a" | "fig08b" | "fig08c" => {
                let case = match fig {
                    "fig08a" => fig08::FailCase::None,
                    "fig08b" => fig08::FailCase::Early,
                    _ => fig08::FailCase::Late,
                };
                let scen = if quick {
                    quick_scenarios()
                } else {
                    paper_scenarios()
                };
                let r = fig08::run_with(case, &scen);
                show(json, fig, r.render(), &r);
            }
            "fig09" => {
                let r = fig09::run_scaled(scale);
                show(json, "fig09", r.render(), &r);
            }
            "fig10" => {
                let r = fig10::run_scaled(scale);
                show(json, "fig10", r.render(), &r);
            }
            "fig11" => {
                let r = fig11::run_scaled(scale);
                show(json, "fig11", r.render(), &r);
            }
            "fig12" => {
                let r = fig12::run_scaled(scale);
                show(json, "fig12", r.render(), &r);
            }
            "fig13" => {
                let r = fig13::run_scaled(scale);
                show(json, "fig13", r.render(), &r);
            }
            "fig14" => {
                // Fig. 14 cannot scale down: the wave sweep needs the
                // full mapper population.
                let r = fig14::run_scaled(1);
                show(json, "fig14", r.render(), &r);
            }
            "trace" => {
                let r = tracefig::run_scaled(scale);
                show(json, "trace", r.render(), &r);
            }
            "placement" => {
                let r = placementfig::run_scaled(scale);
                show(json, "BENCH_placement", r.render(), &r);
            }
            "resilience" => {
                let r = resiliencefig::run_scaled(scale);
                show(json, "BENCH_resilience", r.render(), &r);
            }
            "chain" => {
                let r = chainfig::run_scaled(scale);
                show(json, "BENCH_chain", r.render(), &r);
                if !r.gate_passed {
                    eprintln!(
                        "chain: cached chain not faster than uncached, or node-local hits \
                         below {:.0}%, or tiny budget failed to spill through",
                        chainfig::GATE_LOCAL_PCT
                    );
                    std::process::exit(1);
                }
            }
            "obs" => {
                let r = obsfig::run_scaled(scale);
                show(json, "BENCH_obs", r.render(), &r);
                if !r.within_budget {
                    eprintln!(
                        "obs: telemetry overhead {:.2}% exceeds the {:.1}% budget",
                        r.overhead_pct, r.budget_pct
                    );
                    std::process::exit(1);
                }
            }
            "extras" => {
                let loc = extras::locality_ablation(scale);
                show(json, "extra_locality", loc.render(), &loc);
                let spec = extras::speculation_futility(scale);
                show(
                    json,
                    "extra_speculation",
                    extras::render_speculation(&spec),
                    &spec,
                );
                let dynp = extras::dynamic_intervals();
                show(json, "extra_dynamic", extras::render_dynamic(&dynp), &dynp);
            }
            _ => unreachable!("names were checked against ALL and OTHERS"),
        }
    }
}
