//! The failure-resilience strategies compared in the evaluation (§V-A).
//!
//! The menu and the per-run decision types live in the shared policy
//! kernel (`rcmp-policy`), where the chain machine and the simulator
//! read them; this module keeps their historical `rcmp-core` paths.

pub use rcmp_policy::{HotspotMitigation, SplitPolicy, Strategy};
