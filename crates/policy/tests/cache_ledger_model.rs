//! `CacheLedger` against a naive reference.
//!
//! The ledger keeps ordered maps, a running byte count and tickets; the
//! model is a flat list of resident entries and a flat list of stagings,
//! everything else recomputed on demand. Random scripts must leave both
//! with the same residents, bytes and spill count after every step, and
//! the ledger must account for every ticket it ever issued.

use proptest::prelude::*;
use rcmp_policy::CacheLedger;
use std::collections::{BTreeMap, BTreeSet};

const FILES: u32 = 4;
const PIDS: u32 = 4;
const NODES: u32 = 3;

#[derive(Clone, Debug)]
enum Op {
    Stage {
        file: u32,
        pid: u32,
        node: u32,
        bytes: u64,
    },
    Commit(u32),
    Abort(u32),
    Pin(u32),
    Unpin(u32),
    Remove(u32, u32),
    InvalidatePartition(u32, u32),
    InvalidateFile(u32),
    InvalidateNode(u32),
}

fn op() -> impl Strategy<Value = Op> {
    let stage = || {
        // Small next to the larger budgets, so several files stay
        // resident; larger than the smaller ones, so some never fit.
        (0..FILES, 0..PIDS, 0..NODES, 0u64..30).prop_map(|(file, pid, node, bytes)| Op::Stage {
            file,
            pid,
            node,
            bytes,
        })
    };
    // Weighted towards a full cache whose pins are soon released, where
    // the victim order (recency, pin bumps) decides what stays.
    prop_oneof![
        stage(),
        stage(),
        stage(),
        stage(),
        (0..FILES).prop_map(Op::Commit),
        (0..FILES).prop_map(Op::Commit),
        (0..FILES).prop_map(Op::Commit),
        (0..FILES).prop_map(Op::Pin),
        (0..FILES).prop_map(Op::Unpin),
        (0..FILES).prop_map(Op::Unpin),
        (0..FILES).prop_map(Op::Abort),
        (0..FILES, 0..PIDS).prop_map(|(f, p)| Op::Remove(f, p)),
        (0..FILES, 0..PIDS).prop_map(|(f, p)| Op::InvalidatePartition(f, p)),
        (0..FILES).prop_map(Op::InvalidateFile),
        (0..NODES).prop_map(Op::InvalidateNode),
    ]
}

#[derive(Clone, Debug, PartialEq)]
struct Resident {
    file: u32,
    pid: u32,
    node: u32,
    bytes: u64,
    /// Position in the model's own recency order.
    stamp: u64,
}

#[derive(Default)]
struct Model {
    budget: u64,
    resident: Vec<Resident>,
    /// `(file, pid, node, bytes)`, latest staging per key.
    staged: Vec<(u32, u32, u32, u64)>,
    /// One element per outstanding pin.
    pins: Vec<u32>,
    clock: u64,
    spills: u64,
}

impl Model {
    fn used(&self) -> u64 {
        self.resident.iter().map(|r| r.bytes).sum()
    }

    fn stage(&mut self, file: u32, pid: u32, node: u32, bytes: u64) {
        self.staged.retain(|s| (s.0, s.1) != (file, pid));
        self.staged.push((file, pid, node, bytes));
    }

    fn commit(&mut self, file: u32) {
        let mut mine: Vec<_> = self
            .staged
            .iter()
            .copied()
            .filter(|s| s.0 == file)
            .collect();
        self.staged.retain(|s| s.0 != file);
        mine.sort_by_key(|s| s.1);
        for (_, pid, node, bytes) in mine {
            self.resident.retain(|r| (r.file, r.pid) != (file, pid));
            while bytes <= self.budget && self.used() + bytes > self.budget {
                let victim = self
                    .resident
                    .iter()
                    .filter(|r| !self.pins.contains(&r.file))
                    .map(|r| (r.stamp, r.file, r.pid))
                    .min();
                match victim {
                    Some((_, f, p)) => self.resident.retain(|r| (r.file, r.pid) != (f, p)),
                    None => break,
                }
            }
            if self.used() + bytes > self.budget {
                self.spills += 1;
                continue;
            }
            self.clock += 1;
            self.resident.push(Resident {
                file,
                pid,
                node,
                bytes,
                stamp: self.clock,
            });
        }
    }

    fn pin(&mut self, file: u32) {
        self.pins.push(file);
        self.clock += 1;
        for r in self.resident.iter_mut().filter(|r| r.file == file) {
            r.stamp = self.clock;
        }
    }

    fn unpin(&mut self, file: u32) {
        if let Some(i) = self.pins.iter().position(|&f| f == file) {
            self.pins.remove(i);
        }
    }

    /// `(file, pid) → (node, bytes)`, the comparable view.
    fn view(&self) -> BTreeMap<(u32, u32), (u32, u64)> {
        self.resident
            .iter()
            .map(|r| ((r.file, r.pid), (r.node, r.bytes)))
            .collect()
    }
}

fn view(ledger: &CacheLedger<u32>) -> BTreeMap<(u32, u32), (u32, u64)> {
    ledger
        .entries()
        .map(|(f, pid, node, bytes)| ((*f, pid), (node, bytes)))
        .collect()
}

/// Everything observable after one step: residents, spills and the
/// tickets the step dropped.
type Snapshot = (BTreeMap<(u32, u32), (u32, u64)>, u64, Vec<u64>);

/// Runs `ops` through a ledger and the model, checking every invariant
/// after every step.
fn run(budget: u64, ops: &[Op]) -> Result<Vec<Snapshot>, TestCaseError> {
    let mut ledger: CacheLedger<u32> = CacheLedger::new(budget);
    let mut model = Model {
        budget,
        ..Model::default()
    };
    let mut live: BTreeSet<u64> = BTreeSet::new();
    let mut trace = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let pinned_before: BTreeMap<_, _> = model
            .view()
            .into_iter()
            .filter(|((f, _), _)| model.pins.contains(f))
            .collect();
        let spills_before = ledger.spills();
        let dropped = match *op {
            Op::Stage {
                file,
                pid,
                node,
                bytes,
            } => {
                live.insert(ledger.stage(file, pid, node, bytes));
                model.stage(file, pid, node, bytes);
                Vec::new()
            }
            Op::Commit(file) => {
                let staged: Vec<_> = model
                    .staged
                    .iter()
                    .filter(|s| s.0 == file)
                    .copied()
                    .collect();
                let dropped = ledger.commit(&file);
                model.commit(file);
                // A partition that cannot fit an empty cache spills.
                for (_, pid, _, bytes) in &staged {
                    if *bytes > budget {
                        prop_assert!(ledger.holder(&file, *pid).is_none(), "step {step}");
                    }
                }
                let oversize = staged.iter().filter(|s| s.3 > budget).count() as u64;
                prop_assert!(ledger.spills() - spills_before >= oversize, "step {step}");
                // Pinned entries survive, unless this commit rewrote them.
                for (key, val) in &pinned_before {
                    let rewritten = key.0 == file && staged.iter().any(|s| s.1 == key.1);
                    if !rewritten {
                        prop_assert_eq!(
                            ledger.holder(&key.0, key.1),
                            Some(val.0),
                            "step {}: pinned {:?} evicted",
                            step,
                            key
                        );
                    }
                }
                dropped
            }
            Op::Abort(file) => {
                model.staged.retain(|s| s.0 != file);
                ledger.abort(&file)
            }
            Op::Pin(file) => {
                ledger.pin(&file);
                model.pin(file);
                Vec::new()
            }
            Op::Unpin(file) => {
                ledger.unpin(&file);
                model.unpin(file);
                Vec::new()
            }
            Op::Remove(file, pid) => {
                model.resident.retain(|r| (r.file, r.pid) != (file, pid));
                ledger.remove(&file, pid).into_iter().collect()
            }
            Op::InvalidatePartition(file, pid) => {
                model.resident.retain(|r| (r.file, r.pid) != (file, pid));
                model.staged.retain(|s| (s.0, s.1) != (file, pid));
                ledger.invalidate_partition(&file, pid)
            }
            Op::InvalidateFile(file) => {
                model.resident.retain(|r| r.file != file);
                model.staged.retain(|s| s.0 != file);
                ledger.invalidate_file(&file)
            }
            Op::InvalidateNode(node) => {
                model.resident.retain(|r| r.node != node);
                model.staged.retain(|s| s.2 != node);
                ledger.invalidate_node(node)
            }
        };
        for ticket in &dropped {
            prop_assert!(
                live.remove(ticket),
                "step {step}: ticket {ticket} dropped twice"
            );
        }

        let got = view(&ledger);
        prop_assert_eq!(&got, &model.view(), "step {}: {:?}", step, op);
        let sum: u64 = got.values().map(|v| v.1).sum();
        prop_assert_eq!(ledger.used_bytes(), sum, "step {}", step);
        prop_assert!(
            sum <= budget,
            "step {step}: {sum} resident over budget {budget}"
        );
        prop_assert_eq!(ledger.spills(), model.spills, "step {}", step);
        let pinned: u64 = model
            .resident
            .iter()
            .filter(|r| model.pins.contains(&r.file))
            .map(|r| r.bytes)
            .sum();
        prop_assert_eq!(ledger.pinned_bytes(), pinned, "step {}", step);
        // Live tickets are exactly the residents plus the stagings.
        prop_assert_eq!(live.len(), got.len() + model.staged.len(), "step {}", step);
        for (f, pid) in got.keys() {
            let (_, ticket) = ledger.lookup(f, *pid).expect("resident");
            prop_assert!(live.contains(&ticket), "step {step}");
        }
        trace.push((got, ledger.spills(), dropped));
    }
    // Tearing everything down hands back every ticket still live.
    let rest: BTreeSet<u64> = (0..FILES)
        .flat_map(|f| ledger.invalidate_file(&f))
        .collect();
    prop_assert_eq!(rest, live);
    Ok(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn ledger_matches_naive_reference_and_replays_identically(
        budget in 0u64..60,
        ops in prop::collection::vec(op(), 1..120)
    ) {
        let first = run(budget, &ops)?;
        prop_assert_eq!(first, run(budget, &ops)?);
    }
}
