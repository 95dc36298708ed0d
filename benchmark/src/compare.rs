//! `compare <a.json> <b.json>`: holds two result files of `run` against
//! the bounds `BENCHMARK.json` declares. `a` is the reference (a parent
//! commit, or the first of two sets of the same commit).

use crate::json::parse;
use crate::metrics::{self, Better, Metric};
use crate::report::{fingerprint, samples, workloads_of};
use crate::stats::{iqr_share, median, quartiles};

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// Either side's spread exceeds the bound, so a difference of that
    /// size could not be told from noise.
    Unresolved,
}

/// By what share of `a`'s median `b`'s median is worse (negative:
/// better).
pub fn worsening(m: &Metric, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    if iqr_share(a) > m.bound || iqr_share(b) > m.bound {
        Verdict::Unresolved
    } else if worsening(m, a, b) > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(false)` when any end-to-end metric is
/// `worse` or any exact count differs.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("a", &a), ("b", &b)] {
        println!(
            "{label}: commit {} seed {} runs {} seconds {} nproc {} {}",
            fingerprint(doc, "git_commit"),
            fingerprint(doc, "seed"),
            fingerprint(doc, "runs"),
            fingerprint(doc, "seconds"),
            fingerprint(doc, "nproc"),
            fingerprint(doc, "rustc"),
        );
    }

    let mut clean = true;
    for workload in workloads_of(&a) {
        println!("\n== {workload}");
        println!(
            "{:<22} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
            "end to end", "a median", "a q1..q3", "b median", "b q1..q3", "worse by", "bound"
        );
        let b_samples = samples(&b, &workload, "end_to_end");
        for (name, va) in samples(&a, &workload, "end_to_end") {
            let Some(m) = metrics::find(&name) else {
                continue;
            };
            let Some((_, vb)) = b_samples.iter().find(|(n, _)| *n == name) else {
                println!("{name:<22} missing from b");
                clean = false;
                continue;
            };
            let v = verdict(m, &va, vb);
            clean &= v != Verdict::Worse;
            let range = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{q1:.4}..{q3:.4}")
            };
            println!(
                "{name:<22} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                median(&va),
                range(&va),
                median(vb),
                range(vb),
                100.0 * worsening(m, &va, vb),
                100.0 * m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }

        // Per-layer metrics have no bound; exact counts must not move.
        println!(
            "{:<34} {:>14} {:>14} {:>9}",
            "per layer", "a", "b", "change"
        );
        let b_layers = samples(&b, &workload, "per_layer");
        for (name, va) in samples(&a, &workload, "per_layer") {
            let (Some(m), Some((_, vb))) = (
                metrics::find(&name),
                b_layers.iter().find(|(n, _)| *n == name),
            ) else {
                continue;
            };
            let (xa, xb) = (median(&va), median(vb));
            let note = if m.exact && xa != xb {
                clean = false;
                "  exact count differs"
            } else {
                ""
            };
            let change = if xa == 0.0 {
                0.0
            } else {
                100.0 * (xb - xa) / xa.abs()
            };
            println!("{name:<34} {xa:>14.4} {xb:>14.4} {change:>+8.1}%{note}");
        }
    }
    println!("\n{}", if clean { "no metric is worse" } else { "WORSE" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        metrics::find(name).expect(name)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = metric("chain_wall_s"); // lower is better, bound 0.15
        let steady = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(wall, &steady, &[1.05, 1.06, 1.05, 1.04]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(wall, &steady, &[1.20, 1.21, 1.19, 1.20]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &steady, &[0.50, 0.51, 0.50, 0.49]),
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            verdict(wall, &steady, &[0.8, 1.2, 1.6, 1.0]),
            Verdict::Unresolved
        );

        let rate = metric("chain_mb_per_s"); // higher is better
        assert_eq!(verdict(rate, &[100.0; 4], &[80.0; 4]), Verdict::Worse);
        assert_eq!(verdict(rate, &[100.0; 4], &[120.0; 4]), Verdict::Ok);
        assert!((worsening(rate, &[100.0], &[80.0]) - 0.2).abs() < 1e-12);
        // A single run per side has no spread to object to.
        assert_eq!(verdict(wall, &[1.0], &[1.05]), Verdict::Ok);
    }
}
