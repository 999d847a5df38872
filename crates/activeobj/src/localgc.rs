//! Local garbage collection of stubs, emulated.
//!
//! The paper's reference graph is built **without modifying the local
//! collector** (§2.2): every stub deserialized by an activity is tagged;
//! all stubs of the same activity for the same remote object share one
//! tag, and the DGC holds a *weak* reference to that tag. Only when the
//! local GC collects the last stub does the weak reference break and the
//! edge disappear.
//!
//! Our simulated equivalent is a per-activity [`StubTable`]: a strong
//! count per target (the live stubs), plus the set of targets whose count
//! reached zero since the last sweep. A periodic **sweep** (the simulated
//! local GC run) reports those — modelling the delay between
//! unreachability and its detection, which the paper's §4.2 discussion
//! of GC pauses cares about.

use std::collections::{BTreeMap, BTreeSet};

use dgc_core::id::AoId;

/// Per-activity table of held stubs (the no-sharing property guarantees
/// no other activity shares them, Fig. 1).
#[derive(Debug, Clone, Default)]
pub struct StubTable {
    counts: BTreeMap<AoId, u64>,
    /// Targets whose count hit zero and await the next sweep.
    zeroed: BTreeSet<AoId>,
}

impl StubTable {
    /// Empty table.
    pub fn new() -> Self {
        StubTable::default()
    }

    /// A stub for `target` was deserialized (one more strong reference).
    pub fn deserialize(&mut self, target: AoId) {
        *self.counts.entry(target).or_insert(0) += 1;
        // A new stub revives the tag even if a zero was pending.
        self.zeroed.remove(&target);
    }

    /// Drops one stub for `target`. Returns `true` if that was the last
    /// one (the tag became unreachable — pending sweep).
    pub fn release(&mut self, target: AoId) -> bool {
        match self.counts.get_mut(&target) {
            None => false,
            Some(c) => {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    self.counts.remove(&target);
                    self.zeroed.insert(target);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Drops all stubs for `target` at once.
    pub fn release_all(&mut self, target: AoId) -> bool {
        if self.counts.remove(&target).is_some() {
            self.zeroed.insert(target);
            true
        } else {
            false
        }
    }

    /// The simulated local-GC run: returns (and forgets) every target
    /// whose last stub died since the previous sweep. The caller feeds
    /// these to its collector (the node kernel's `drop_ref`).
    pub fn sweep(&mut self) -> Vec<AoId> {
        let out: Vec<AoId> = self.zeroed.iter().copied().collect();
        self.zeroed.clear();
        out
    }

    /// Live stub count for `target`.
    pub fn count(&self, target: AoId) -> u64 {
        self.counts.get(&target).copied().unwrap_or(0)
    }

    /// Targets currently referenced by at least one live stub.
    pub fn held_targets(&self) -> impl Iterator<Item = AoId> + '_ {
        self.counts.keys().copied()
    }

    /// True if no stub is held and no zero is pending.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.zeroed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ao(n: u32) -> AoId {
        AoId::new(n, 0)
    }

    #[test]
    fn counts_accumulate_per_target() {
        let mut t = StubTable::new();
        t.deserialize(ao(1));
        t.deserialize(ao(1));
        t.deserialize(ao(2));
        assert_eq!(t.count(ao(1)), 2);
        assert_eq!(t.count(ao(2)), 1);
        assert_eq!(t.held_targets().count(), 2);
    }

    #[test]
    fn releasing_last_stub_pends_a_zero() {
        let mut t = StubTable::new();
        t.deserialize(ao(1));
        t.deserialize(ao(1));
        assert!(!t.release(ao(1)), "one stub left");
        assert!(t.release(ao(1)), "last stub gone");
        assert_eq!(t.count(ao(1)), 0);
        assert_eq!(t.sweep(), vec![ao(1)]);
        assert_eq!(t.sweep(), Vec::<AoId>::new(), "sweep clears pending zeros");
    }

    #[test]
    fn redeserialization_before_sweep_revives_the_tag() {
        // The shared-tag trick: if a new stub appears before the local GC
        // runs, the edge never disappears.
        let mut t = StubTable::new();
        t.deserialize(ao(1));
        t.release(ao(1));
        t.deserialize(ao(1));
        assert!(t.sweep().is_empty(), "tag revived, no edge loss");
        assert_eq!(t.count(ao(1)), 1);
    }

    #[test]
    fn release_all_drops_every_stub() {
        let mut t = StubTable::new();
        t.deserialize(ao(1));
        t.deserialize(ao(1));
        t.deserialize(ao(1));
        assert!(t.release_all(ao(1)));
        assert!(!t.release_all(ao(1)));
        assert_eq!(t.sweep(), vec![ao(1)]);
    }

    #[test]
    fn release_of_unknown_target_is_noop() {
        let mut t = StubTable::new();
        assert!(!t.release(ao(9)));
        assert!(t.is_empty());
    }

    #[test]
    fn sweep_reports_each_target_once() {
        let mut t = StubTable::new();
        t.deserialize(ao(1));
        t.deserialize(ao(2));
        t.release(ao(1));
        t.release(ao(2));
        let mut swept = t.sweep();
        swept.sort();
        assert_eq!(swept, vec![ao(1), ao(2)]);
        assert!(t.is_empty());
    }
}
