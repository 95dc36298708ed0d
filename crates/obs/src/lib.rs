//! Unified observability for the RCMP reproduction.
//!
//! The paper's core claims are *observability claims*: Fig. 4 shows
//! under-utilized compute slots during recomputation, Fig. 6 shows one
//! node's disk saturating while a cascade replays, and the STIC/DCO
//! breakdowns are per-phase timing decompositions. This crate makes
//! those observables first-class for every run of the real engine (and
//! the simulator), instead of leaving them to ad-hoc test assertions:
//!
//! * [`span`] / [`tracer`] — a causal **span tracer**: every job run,
//!   wave, task attempt, shuffle fetch, DFS block access, recovery plan
//!   and injected fault becomes a [`span::Span`] with parent links
//!   (job → wave → task → fetch) and *lineage* links (a recomputation
//!   run → its plan → the loss that called for it), which their writers
//!   pass as values. Spans are recorded through contention-free
//!   per-thread shards and merged into a [`span::Trace`] at the driver.
//! * [`metrics`] — a **metrics registry** of counters, gauges and
//!   fixed-bucket histograms with cheap atomic handles usable from the
//!   scheduler/tracker/shuffle hot paths.
//! * [`analyze`] — trace **analyzers**: the per-run slot-occupancy
//!   profile (Fig. 4's parallelism gap), the shuffle-source / map-input
//!   hot-spot report with a Gini-style concentration index (Fig. 6),
//!   and recomputation critical-path extraction (which cascade chain
//!   bounded recovery time).
//! * [`export`] — **exporters**: JSONL span dump, Chrome `trace_event`
//!   JSON (opens directly in Perfetto / `chrome://tracing`), and a
//!   deterministic text summary table.
//!
//! The production telemetry tier sits next to the full-fidelity tracer:
//!
//! * [`clock`] — the **clock seam**: every timestamp in this crate goes
//!   through an injectable [`clock::Clock`], so tests and the simulator
//!   can drive virtual time deterministically.
//! * [`ring`] — the always-on **flight recorder**: fixed-capacity
//!   per-shard ring buffers of compact events with exact drop
//!   accounting and self-measured record cost.
//! * [`profile`] — the **phase profiler**: pre-resolved atomic timers
//!   around the engine's real phases, emitting a Fig.-7-style
//!   [`profile::PhaseBreakdown`] with one schema for engine and sim.
//! * [`blackbox`] — **post-mortem dumps**: last-N flight events + the
//!   causal failure lineage + metrics + phases, frozen when a chain
//!   dies.

#![deny(missing_docs)]

pub mod analyze;
pub mod blackbox;
pub mod clock;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod span;
pub mod tracer;

pub use analyze::{
    hotspot_report, recomputation_critical_path, slot_occupancy, tenant_view, CriticalPath,
    HotspotReport, NodeLoad, PathStep, RunOccupancy, WaveOccupancy,
};
pub use blackbox::{causal_lineage, BlackboxDump};
pub use clock::{Clock, ManualClock};
pub use export::{chrome_trace_value, summary, to_chrome_json, to_jsonl};
pub use metrics::{
    Counter, Gauge, Histogram, HotScopeGuard, MetricsRegistry, MetricsSnapshot, SnapshotValue,
};
pub use profile::{PhaseBreakdown, PhaseEntry, PhaseKind, PhaseProfiler, PhaseTimer};
pub use ring::{EventCode, FlightEvent, FlightLog, FlightRecorder, RecorderStats};
pub use span::{FaultKind, Phase, Span, SpanId, SpanKind, Trace};
pub use tracer::{OpenSpan, Tracer};
