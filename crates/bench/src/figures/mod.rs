//! One module per paper figure. Every module exposes `run()` returning
//! a serializable result with a `render()` ASCII table matching the
//! figure's rows/series.

pub mod chainfig;
pub mod extras;
pub mod fig02;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod obsfig;
pub mod placementfig;
pub mod resiliencefig;
pub mod tracefig;

use rcmp_model::SlotConfig;
use rcmp_sim::{HwProfile, WorkloadCfg};

/// One evaluation cluster scenario (the paper's legend entries).
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: &'static str,
    pub hw: HwProfile,
    pub wl: WorkloadCfg,
    /// The paper's reducer split ratio for this cluster (8 on STIC, 59
    /// on DCO).
    pub split: u32,
}

/// The three scenarios of Fig. 8: SLOTS 1-1 STIC 40GB, SLOTS 2-2 STIC
/// 40GB, SLOTS 1-1 DCO 1.2TB.
pub fn paper_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "SLOTS 1-1, STIC, 40GB",
            hw: HwProfile::stic(),
            wl: WorkloadCfg::stic(SlotConfig::ONE_ONE),
            split: 8,
        },
        Scenario {
            name: "SLOTS 2-2, STIC, 40GB",
            hw: HwProfile::stic(),
            wl: WorkloadCfg::stic(SlotConfig::TWO_TWO),
            split: 8,
        },
        Scenario {
            name: "SLOTS 1-1, DCO, 1.2TB",
            hw: HwProfile::dco(),
            wl: WorkloadCfg::dco(),
            split: 59,
        },
    ]
}

/// A quick variant for unit tests and `--quick` runs: same shape, a
/// fraction of the task counts.
pub fn quick_scenarios() -> Vec<Scenario> {
    paper_scenarios()
        .into_iter()
        .map(|mut s| {
            s.wl.per_node_input = s.wl.per_node_input / 4;
            s
        })
        .collect()
}
