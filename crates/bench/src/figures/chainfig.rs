//! BENCH: in-memory chain execution (the `chain` pseudo-figure,
//! ISSUE 10).
//!
//! The paper's 7-job STIC chain, three ways: the plain DFS read path
//! (`uncached`), the memory-budgeted inter-job cache with the `stable`
//! placement kernel (`cached`), and the cache with a budget smaller
//! than a single partition (`tiny-budget`) — the degradation floor
//! where every commit spills through and behaviour must collapse back
//! to the uncached baseline exactly.
//!
//! Columns per variant: fault-free and failure-injected chain seconds,
//! cache hits and their node-local percentage, bytes served from
//! memory, bytes read from the DFS, and bytes moved over the network.
//! The acceptance gate holds the cached fault-free chain strictly
//! faster than the uncached one with at least [`GATE_LOCAL_PCT`]%
//! node-local hits; `fig_runner chain` exits non-zero when it fails.

use rcmp_core::strategy::Strategy;
use rcmp_model::SlotConfig;
use rcmp_model::{ByteSize, PlacementKernel};
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, SimChainReport, WorkloadCfg};
use serde::{Deserialize, Serialize};

/// Minimum node-local share of cache hits the gate demands on a
/// stable (failure-free) topology.
pub const GATE_LOCAL_PCT: f64 = 90.0;

/// One variant of the chain (a row block of `BENCH_chain.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChainRow {
    /// `uncached`, `cached` or `tiny-budget`.
    pub variant: String,
    /// Placement kernel label the variant ran under.
    pub kernel: String,
    /// Cache budget (`-` when the cache is off).
    pub budget: String,
    /// Fault-free 7-job chain seconds.
    pub clean_secs: f64,
    /// Chain seconds with a node kill at job 4 (recomputation path).
    pub failed_secs: f64,
    /// Map-input reads served from the cache (fault-free chain).
    pub cache_hits: u64,
    /// Node-local percentage of those hits.
    pub cache_local_pct: f64,
    /// Bytes served out of memory instead of the DFS.
    pub cache_read_bytes: u64,
    /// Map-input bytes that still went to the DFS (disk).
    pub dfs_read_bytes: u64,
    /// Bytes crossing the network (remote map inputs + remote shuffle).
    pub net_bytes_moved: u64,
}

/// The full chain benchmark result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChainResult {
    pub rows: Vec<ChainRow>,
    /// Fault-free speedup of `cached` over `uncached`, percent.
    pub speedup_pct: f64,
    /// `cached` strictly faster than `uncached` fault-free, with at
    /// least [`GATE_LOCAL_PCT`]% node-local hits, and `tiny-budget`
    /// serving zero hits.
    pub gate_passed: bool,
}

fn workload(scale: u64) -> WorkloadCfg {
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / scale.max(1);
    wl
}

fn row_from(
    variant: &str,
    kernel: PlacementKernel,
    budget: &str,
    clean: &SimChainReport,
    failed: &SimChainReport,
) -> ChainRow {
    let mut hits = 0u64;
    let mut local = 0u64;
    let mut cache_bytes = 0u64;
    let mut input_bytes = 0u64;
    let mut net = 0u64;
    for r in &clean.runs {
        hits += r.cache_hits;
        local += r.cache_hits_local;
        cache_bytes += r.cache_read_bytes;
        input_bytes += r.io.map_input_local + r.io.map_input_remote;
        net += r.io.map_input_remote + r.io.shuffle_remote;
    }
    ChainRow {
        variant: variant.to_string(),
        kernel: kernel.label(),
        budget: budget.to_string(),
        clean_secs: clean.total_time,
        failed_secs: failed.total_time,
        cache_hits: hits,
        cache_local_pct: if hits == 0 {
            0.0
        } else {
            100.0 * local as f64 / hits as f64
        },
        cache_read_bytes: cache_bytes,
        dfs_read_bytes: input_bytes.saturating_sub(cache_bytes),
        net_bytes_moved: net,
    }
}

fn run_one(
    variant: &str,
    kernel: PlacementKernel,
    budget: Option<ByteSize>,
    scale: u64,
) -> ChainRow {
    let mut cfg = ChainSimConfig::new(HwProfile::stic(), workload(scale), Strategy::rcmp_split(8))
        .with_placement(kernel);
    if let Some(b) = budget {
        cfg = cfg.with_chain_cache(b);
    }
    let clean = simulate_chain(&cfg);
    let failed = simulate_chain(&cfg.with_failures(vec![FailureAt::at_job(4, 3)]));
    let label = budget.map_or_else(|| "-".to_string(), |b| format!("{b:?}"));
    row_from(variant, kernel, &label, &clean, &failed)
}

/// Runs the benchmark. `scale` shrinks per-node input (`--quick`
/// passes 8) but keeps the 7-job chain and the 10-node width.
pub fn run_scaled(scale: u64) -> ChainResult {
    // Budget sized for two full 40 GB job outputs resident at once:
    // the pinned input file plus the committing output.
    let rows = vec![
        run_one("uncached", PlacementKernel::Default, None, scale),
        run_one(
            "cached",
            PlacementKernel::Stable,
            Some(ByteSize::gib(96)),
            scale,
        ),
        // Smaller than any single partition at every scale this runs
        // at: nothing is ever admitted, every commit spills through.
        run_one(
            "tiny-budget",
            PlacementKernel::Stable,
            Some(ByteSize::mib(64)),
            scale,
        ),
    ];
    let (uncached, cached, tiny) = (&rows[0], &rows[1], &rows[2]);
    let speedup_pct = if uncached.clean_secs > 0.0 {
        100.0 * (uncached.clean_secs - cached.clean_secs) / uncached.clean_secs
    } else {
        0.0
    };
    let gate_passed = cached.clean_secs < uncached.clean_secs
        && cached.cache_local_pct >= GATE_LOCAL_PCT
        && tiny.cache_hits == 0;
    ChainResult {
        rows,
        speedup_pct,
        gate_passed,
    }
}

impl ChainResult {
    /// ASCII table, one row per variant.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "BENCH chain: in-memory chain execution (7-job STIC chain)\n\
             variant     | kernel  | clean s  | failed s | hits  | local % | mem GB | dfs GB | net GB\n",
        );
        let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
        for r in &self.rows {
            out.push_str(&format!(
                "{:<11} | {:<7} | {:8.1} | {:8.1} | {:>5} | {:7.1} | {:6.1} | {:6.1} | {:6.1}\n",
                r.variant,
                r.kernel,
                r.clean_secs,
                r.failed_secs,
                r.cache_hits,
                r.cache_local_pct,
                gb(r.cache_read_bytes),
                gb(r.dfs_read_bytes),
                gb(r.net_bytes_moved),
            ));
        }
        out.push_str(&format!(
            "\nfault-free speedup: {:.1}%  gate(cached faster, local >= {:.0}%, tiny spills through): {}\n",
            self.speedup_pct,
            GATE_LOCAL_PCT,
            if self.gate_passed { "PASS" } else { "FAIL" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_at_quick_scale() {
        let r = run_scaled(8);
        assert!(r.gate_passed, "{}", r.render());
        assert!(r.speedup_pct > 0.0);
        let cached = &r.rows[1];
        assert!(cached.cache_hits > 0);
        assert!(
            cached.cache_local_pct >= GATE_LOCAL_PCT,
            "local {}%",
            cached.cache_local_pct
        );
        // Memory reads displace DFS reads one-for-one.
        assert!(cached.dfs_read_bytes < r.rows[0].dfs_read_bytes);
    }

    #[test]
    fn tiny_budget_is_exactly_the_uncached_baseline() {
        let r = run_scaled(8);
        let (uncached, tiny) = (&r.rows[0], &r.rows[2]);
        assert_eq!(tiny.cache_hits, 0, "sub-partition budget must never hit");
        // With an empty cache the stable kernel degrades to the default
        // claim chain, so the two variants are the *same* simulation.
        assert!(
            (tiny.clean_secs - uncached.clean_secs).abs() < 1e-9,
            "spill-through drifted from the uncached baseline: {} vs {}",
            tiny.clean_secs,
            uncached.clean_secs
        );
        assert_eq!(tiny.dfs_read_bytes, uncached.dfs_read_bytes);
    }

    #[test]
    fn failure_still_recomputes_under_cache() {
        let r = run_scaled(8);
        for row in &r.rows {
            assert!(
                row.failed_secs > row.clean_secs,
                "{}: the job-4 kill must cost time",
                row.variant
            );
        }
    }
}
