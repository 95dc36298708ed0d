//! `rcmp-serve`: the multi-tenant job service.
//!
//! Everything below the driver runs *one* chain for *one* caller. This
//! crate turns the stack into a long-lived service: many tenants submit
//! [`ChainRequest`]s concurrently, all multiplexed onto one shared
//! [`Cluster`](rcmp_engine::Cluster). The service adds the three things
//! a shared deployment needs that a single-chain driver does not:
//!
//! * **Admission control** — each tenant owns a bounded submission
//!   queue; overflow is rejected with the typed
//!   [`Error::AdmissionRejected`](rcmp_model::Error::AdmissionRejected)
//!   carrying a seeded-backoff retry-after hint, so clients back off
//!   deterministically instead of hammering a full queue.
//! * **Fair-share arbitration** — whose chain runs next is decided by
//!   the weighted deficit-round-robin kernel in
//!   [`rcmp_policy::DrrArbiter`]: per-tenant weights and in-flight
//!   quotas above the existing slot-pull wave assignment, so one noisy
//!   tenant cannot starve a minimal-quota one.
//! * **Per-tenant execution and observability** — every admitted chain
//!   runs on its own wave-executor session leased from a global
//!   [`WorkerBudget`](rcmp_exec::WorkerBudget), its `JobRun` spans are
//!   tenant-tagged (filterable with
//!   [`rcmp_obs::tenant_view`]), its post-mortem blackbox dump is keyed
//!   by chain label, and the service publishes `serve.*` metrics
//!   (queue depth, admit/reject counts, per-tenant in-flight, chain
//!   latency histogram).
//!
//! The [`soak`] module drives the service with multi-tenant scenarios
//! and reports throughput, latency percentiles and Jain's fairness
//! index — the serve soak tests and the `serve_soak` example are built
//! on it.

#![deny(missing_docs)]

mod service;
pub mod soak;

pub use service::{ChainRequest, ChainResult, ChainSummary, ChainTicket, JobService};
