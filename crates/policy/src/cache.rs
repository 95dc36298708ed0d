//! The chain-cache ledger: which reducer outputs stay memory-resident
//! between jobs, under what budget, and who holds them.
//!
//! Both backends keep inter-job data in memory M3R-style while the DFS
//! write-through preserves RCMP's lineage. *What* is admitted, evicted
//! or spilled is a decision, so it lives here once; the engine's
//! `rcmp_dfs::ChainCache` hangs block payloads off this ledger and the
//! simulator prices reads against it. The ledger holds no bytes, no
//! locks and no clock.
//!
//! * **Stage, then commit.** A writer stages its partition; nothing is
//!   resident until the whole file commits, in ascending partition
//!   order regardless of the order partitions were staged in.
//! * **LRU with pins.** Under budget pressure the least recently
//!   committed-or-pinned entry of an unpinned file is evicted (ties:
//!   lowest `(file, partition)`). A partition that still does not fit —
//!   larger than the budget, or blocked by pinned entries — is a
//!   *spill*: it stays DFS-only. Reads never touch recency, so eviction
//!   order is independent of read interleaving.
//! * **Tickets.** Every staging gets a ticket that follows it through
//!   commit. Each mutating call returns the tickets of everything it
//!   dropped, staged or resident, so a backend that hangs payloads off
//!   tickets frees exactly what the ledger forgot.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct Slot {
    holder: u32,
    bytes: u64,
    ticket: u64,
    /// Recency stamp (resident entries only): set on commit and on pin.
    seq: u64,
}

type Slots<F> = BTreeMap<F, BTreeMap<u32, Slot>>;

/// Removes and returns one slot of `map`; no file is left mapping to
/// nothing.
fn take<F: Ord>(map: &mut Slots<F>, file: &F, pid: u32) -> Option<Slot> {
    let of_file = map.get_mut(file)?;
    let slot = of_file.remove(&pid)?;
    if of_file.is_empty() {
        map.remove(file);
    }
    Some(slot)
}

/// Removes and returns every slot of `map` held by `node`.
fn take_held<F: Ord>(map: &mut Slots<F>, node: u32) -> Vec<Slot> {
    let mut taken = Vec::new();
    map.retain(|_, of_file| {
        of_file.retain(|_, slot| {
            if slot.holder == node {
                taken.push(*slot);
            }
            slot.holder != node
        });
        !of_file.is_empty()
    });
    taken
}

/// Admission/eviction bookkeeping of the inter-job chain cache over
/// files of type `F` (`String` paths in the engine, file indices in the
/// simulator). See the module docs for the rules.
#[derive(Clone, Debug)]
pub struct CacheLedger<F> {
    budget: u64,
    /// Resident, readable partitions per file.
    entries: Slots<F>,
    /// Staged partitions awaiting their file's commit.
    pending: Slots<F>,
    /// Pin counts; a file's entries are evictable only at zero.
    pins: BTreeMap<F, u32>,
    used: u64,
    /// Monotonic source of tickets and recency stamps.
    tick: u64,
    spills: u64,
}

impl<F: Ord + Clone> CacheLedger<F> {
    /// An empty ledger admitting at most `budget` resident bytes.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            entries: BTreeMap::new(),
            pending: BTreeMap::new(),
            pins: BTreeMap::new(),
            used: 0,
            tick: 0,
            spills: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The least recently committed-or-pinned entry of an unpinned file.
    fn victim(&self) -> Option<(F, u32)> {
        self.entries
            .iter()
            .filter(|(file, _)| !self.pins.contains_key(file))
            .flat_map(|(file, of_file)| of_file.iter().map(move |(pid, e)| (e.seq, file, *pid)))
            .min()
            .map(|(_, file, pid)| (file.clone(), pid))
    }

    /// Stages `bytes` of partition `pid` of `file` on `holder` and
    /// returns the staging's ticket. Re-staging a partition (a retried
    /// writer) replaces the previous staging and keeps its ticket.
    pub fn stage(&mut self, file: F, pid: u32, holder: u32, bytes: u64) -> u64 {
        let ticket = match self
            .pending
            .get(&file)
            .and_then(|of_file| of_file.get(&pid))
        {
            Some(prev) => prev.ticket,
            None => self.next_tick(),
        };
        let slot = Slot {
            holder,
            bytes,
            ticket,
            seq: 0,
        };
        self.pending.entry(file).or_default().insert(pid, slot);
        ticket
    }

    /// Commits everything staged for `file`, ascending by partition:
    /// each partition first replaces its previous resident version, then
    /// is admitted if evicting unpinned entries oldest-first makes room,
    /// else spills. Returns the tickets dropped: replaced and evicted
    /// entries, and the spilled stagings.
    pub fn commit(&mut self, file: &F) -> Vec<u64> {
        let mut dropped = Vec::new();
        for (pid, mut slot) in self.pending.remove(file).unwrap_or_default() {
            dropped.extend(self.remove(file, pid));
            while slot.bytes <= self.budget && self.used + slot.bytes > self.budget {
                let Some((f, p)) = self.victim() else { break };
                dropped.extend(self.remove(&f, p));
            }
            if self.used + slot.bytes > self.budget {
                self.spills += 1;
                dropped.push(slot.ticket);
                continue;
            }
            slot.seq = self.next_tick();
            self.used += slot.bytes;
            self.entries
                .entry(file.clone())
                .or_default()
                .insert(pid, slot);
        }
        dropped
    }

    /// Drops everything staged for `file` without committing it (a
    /// failed or abandoned run). Returns the dropped tickets.
    pub fn abort(&mut self, file: &F) -> Vec<u64> {
        let staged = self.pending.remove(file).unwrap_or_default();
        staged.into_values().map(|s| s.ticket).collect()
    }

    /// Pins `file`: its entries cannot be evicted until the matching
    /// [`CacheLedger::unpin`]. Pins nest. Pinning also makes the file's
    /// entries the most recent — it is about to be consumed.
    pub fn pin(&mut self, file: &F) {
        *self.pins.entry(file.clone()).or_insert(0) += 1;
        let seq = self.next_tick();
        for slot in self.entries.get_mut(file).into_iter().flatten() {
            slot.1.seq = seq;
        }
    }

    /// Releases one pin of `file`.
    pub fn unpin(&mut self, file: &F) {
        if let Some(count) = self.pins.get_mut(file) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(file);
            }
        }
    }

    /// `(holder, ticket)` of a resident partition.
    pub fn lookup(&self, file: &F, pid: u32) -> Option<(u32, u64)> {
        let e = self.entries.get(file)?.get(&pid)?;
        Some((e.holder, e.ticket))
    }

    /// The node holding a resident partition — the stable-placement
    /// affinity hint.
    pub fn holder(&self, file: &F, pid: u32) -> Option<u32> {
        self.lookup(file, pid).map(|(holder, _)| holder)
    }

    /// Drops one resident partition (evicted, replaced, or found stale
    /// by a reader), leaving any newer staging alone. Returns its
    /// ticket.
    pub fn remove(&mut self, file: &F, pid: u32) -> Option<u64> {
        let slot = take(&mut self.entries, file, pid)?;
        self.used -= slot.bytes;
        Some(slot.ticket)
    }

    /// Drops the resident entry and the staging of one partition.
    pub fn invalidate_partition(&mut self, file: &F, pid: u32) -> Vec<u64> {
        let staged = take(&mut self.pending, file, pid).map(|s| s.ticket);
        self.remove(file, pid).into_iter().chain(staged).collect()
    }

    /// Drops every resident entry and staging of `file`.
    pub fn invalidate_file(&mut self, file: &F) -> Vec<u64> {
        let mut dropped = self.abort(file);
        for slot in self.entries.remove(file).unwrap_or_default().into_values() {
            self.used -= slot.bytes;
            dropped.push(slot.ticket);
        }
        dropped
    }

    /// Drops everything `node` holds, resident and staged (node death,
    /// drain, decommission).
    pub fn invalidate_node(&mut self, node: u32) -> Vec<u64> {
        let resident = take_held(&mut self.entries, node);
        self.used -= resident.iter().map(|s| s.bytes).sum::<u64>();
        let staged = take_held(&mut self.pending, node);
        resident.iter().chain(&staged).map(|s| s.ticket).collect()
    }

    /// The resident-byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Resident bytes.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Resident bytes of pinned files.
    pub fn pinned_bytes(&self) -> u64 {
        self.entries()
            .filter(|(file, ..)| self.pins.contains_key(file))
            .map(|(.., bytes)| bytes)
            .sum()
    }

    /// Resident partitions as `(file, partition, holder, bytes)`,
    /// ascending by `(file, partition)`.
    pub fn entries(&self) -> impl Iterator<Item = (&F, u32, u32, u64)> {
        self.entries.iter().flat_map(|(file, of_file)| {
            of_file
                .iter()
                .map(move |(pid, e)| (file, *pid, e.holder, e.bytes))
        })
    }

    /// Staged partitions not admitted at commit, ever.
    pub fn spills(&self) -> u64 {
        self.spills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages and commits one 10-byte partition 0 of `file` on node 0.
    fn admit(l: &mut CacheLedger<&'static str>, file: &'static str) -> Vec<u64> {
        l.stage(file, 0, 0, 10);
        l.commit(&file)
    }

    #[test]
    fn nothing_is_resident_before_commit() {
        let mut l = CacheLedger::new(100);
        let t = l.stage("out", 0, 2, 30);
        assert_eq!(l.holder(&"out", 0), None);
        assert!(l.commit(&"out").is_empty());
        assert_eq!(l.lookup(&"out", 0), Some((2, t)));
        assert_eq!(l.used_bytes(), 30);
    }

    #[test]
    fn lru_evicts_oldest_unpinned_and_respects_pins() {
        let mut l = CacheLedger::new(25);
        admit(&mut l, "a");
        admit(&mut l, "b");
        assert_eq!(l.entries().count(), 2);

        // Pin "a": committing "c" must evict "b" (oldest unpinned), not "a".
        l.pin(&"a");
        let (_, b_ticket) = l.lookup(&"b", 0).unwrap();
        assert_eq!(admit(&mut l, "c"), vec![b_ticket]);
        assert!(l.holder(&"a", 0).is_some());
        assert!(l.holder(&"c", 0).is_some());
        l.unpin(&"a");

        // With everything unpinned, the next commit evicts oldest-first.
        l.stage("d", 0, 3, 20);
        assert_eq!(l.commit(&"d").len(), 2);
        assert_eq!(l.holder(&"d", 0), Some(3));
        assert_eq!(l.used_bytes(), 20);
        assert_eq!(l.spills(), 0);
    }

    #[test]
    fn pinning_makes_a_file_most_recent_and_pins_nest() {
        let mut l = CacheLedger::new(20);
        admit(&mut l, "a");
        admit(&mut l, "b");
        // A run re-reads the older file: the pin bumps it past "b", and
        // that outlasts the pin.
        l.pin(&"a");
        l.unpin(&"a");
        admit(&mut l, "c");
        assert!(l.holder(&"a", 0).is_some());
        assert!(l.holder(&"b", 0).is_none());
        // Two pins, one release: "a" — now the oldest — is still held.
        l.pin(&"c");
        l.pin(&"a");
        l.pin(&"a");
        l.unpin(&"a");
        l.unpin(&"c");
        admit(&mut l, "d");
        assert!(l.holder(&"a", 0).is_some(), "one pin still held");
        assert!(l.holder(&"c", 0).is_none());
        l.unpin(&"a");
        l.unpin(&"a"); // unbalanced: ignored
        admit(&mut l, "e");
        assert!(l.holder(&"a", 0).is_none(), "unpinned and oldest");
    }

    #[test]
    fn pinned_entries_spill_rather_than_evict() {
        let mut l = CacheLedger::new(10);
        admit(&mut l, "a");
        l.pin(&"a");
        let t = l.stage("b", 0, 1, 10);
        // "a" is pinned and fills the budget: "b" spills.
        assert_eq!(l.commit(&"b"), vec![t]);
        assert!(l.holder(&"a", 0).is_some());
        assert!(l.holder(&"b", 0).is_none());
        assert_eq!(l.spills(), 1);
        assert_eq!(l.pinned_bytes(), 10);
    }

    #[test]
    fn admission_is_ascending_partition_whatever_the_stage_order() {
        // Room for two of three: the two lowest partitions are admitted
        // first, then partition 2 evicts the oldest of them — partition
        // 0 — however the writers interleaved.
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut l = CacheLedger::new(20);
            for pid in order {
                l.stage("x", pid, pid, 10);
            }
            l.commit(&"x");
            let resident: Vec<u32> = l.entries().map(|(_, pid, _, _)| pid).collect();
            assert_eq!(resident, [1, 2], "stage order {order:?}");
        }
    }

    #[test]
    fn equal_recency_evicts_lowest_key_first() {
        let mut l = CacheLedger::new(30);
        // Partition 2 is committed first, so it starts out the oldest.
        for pids in [&[2][..], &[0, 1]] {
            for &pid in pids {
                l.stage("x", pid, 0, 10);
            }
            l.commit(&"x");
        }
        // One pin stamps all three entries with the same recency.
        l.pin(&"x");
        l.unpin(&"x");
        admit(&mut l, "y");
        assert!(l.holder(&"x", 0).is_none());
        assert!(l.holder(&"x", 1).is_some() && l.holder(&"x", 2).is_some());
    }

    #[test]
    fn invalidations_drop_resident_and_staged() {
        let mut l = CacheLedger::new(1024);
        l.stage("x", 0, 0, 10);
        l.stage("x", 1, 1, 10);
        l.commit(&"x");
        let y = l.stage("y", 0, 1, 10);

        assert_eq!(l.invalidate_partition(&"x", 0).len(), 1);
        assert!(l.holder(&"x", 0).is_none());
        assert!(l.holder(&"x", 1).is_some());

        // Node 1 dies: its resident entry and its staging go.
        let dropped = l.invalidate_node(1);
        assert_eq!(dropped.len(), 2);
        assert!(dropped.contains(&y));
        assert!(l.holder(&"x", 1).is_none());
        l.commit(&"y");
        assert!(l.holder(&"y", 0).is_none());

        admit(&mut l, "z");
        l.stage("z", 1, 0, 10);
        assert_eq!(l.invalidate_file(&"z").len(), 2);
        assert_eq!(l.entries().count(), 0);
        assert_eq!(l.used_bytes(), 0);
    }

    #[test]
    fn abort_drops_staged_only() {
        let mut l = CacheLedger::new(1024);
        admit(&mut l, "x");
        let t = l.stage("y", 0, 0, 10);
        assert_eq!(l.abort(&"y"), vec![t]);
        assert!(l.commit(&"y").is_empty());
        assert!(l.holder(&"y", 0).is_none());
        assert!(l.holder(&"x", 0).is_some());
    }

    #[test]
    fn recommit_replaces_and_restage_keeps_its_ticket() {
        let mut l = CacheLedger::new(1024);
        let v1 = l.stage("x", 0, 0, 10);
        l.commit(&"x");
        let v2 = l.stage("x", 0, 1, 99);
        assert_eq!(l.stage("x", 0, 1, 12), v2, "retried writer");
        assert_eq!(l.commit(&"x"), vec![v1]);
        assert_eq!(l.lookup(&"x", 0), Some((1, v2)));
        assert_eq!(l.used_bytes(), 12);
        // A reader that finds the entry stale removes just the entry.
        l.stage("x", 0, 2, 5);
        assert_eq!(l.remove(&"x", 0), Some(v2));
        assert_eq!(l.used_bytes(), 0);
        l.commit(&"x");
        assert_eq!(l.holder(&"x", 0), Some(2));
    }
}
