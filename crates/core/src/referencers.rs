//! The referencer table (§2.2).
//!
//! Referencers are known **only by id** — the DGC never contacts them
//! directly (they reach us, not the other way around, so firewalls and
//! NATs are no obstacle). For each referencer we remember the content of
//! its last DGC message (clock + consensus bit) and when it was received,
//! so that Algorithm 1 can evaluate the recursive agreement and so that
//! silent referencers can be expired after TTA (the "loss of a
//! referencer" event of §3.2, Fig. 5).
//!
//! ## Storage
//!
//! Entries live in a flat `Vec<(AoId, ReferencerInfo)>` kept sorted by
//! id — an arena, not a `BTreeMap`. A TTB sweep over a node hosting
//! hundreds of thousands of activities walks every table once per beat;
//! a contiguous sorted slice makes that walk a linear scan over cache
//! lines instead of a pointer chase over tree nodes, and lookups stay
//! `O(log n)` by binary search. Iteration remains id-ordered — the
//! determinism the simulator's reproducibility and the conformance
//! oracle rely on. The pre-arena `BTreeMap` implementation survives as
//! the reference model of `tests/table_props.rs`.

use crate::clock::NamedClock;
use crate::id::AoId;
use crate::units::{Dur, Time};

/// What we know about one referencer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferencerInfo {
    /// Clock carried by its last DGC message.
    pub clock: NamedClock,
    /// Consensus bit of its last DGC message.
    pub consensus: bool,
    /// Arrival time of its last DGC message.
    pub last_message: Time,
    /// The TTB it advertised, used for the per-referencer expiry when
    /// heartbeat periods differ (§7.1 extension).
    pub advertised_ttb: Dur,
}

impl ReferencerInfo {
    /// The expiry window for this referencer:
    /// `max(TTA, 2·advertised_ttb + max_comm)`.
    #[inline]
    pub fn expiry(&self, tta: Dur, max_comm: Dur) -> Dur {
        tta.max(
            self.advertised_ttb
                .saturating_mul(2)
                .saturating_add(max_comm),
        )
    }
}

/// Table of all known referencers: a flat arena sorted by id.
#[derive(Debug, Clone, Default)]
pub struct ReferencerTable {
    entries: Vec<(AoId, ReferencerInfo)>,
}

impl ReferencerTable {
    /// Empty table.
    pub fn new() -> Self {
        ReferencerTable::default()
    }

    #[inline]
    fn position(&self, id: AoId) -> Result<usize, usize> {
        crate::id::position_sorted(&self.entries, id)
    }

    /// Records a DGC message from `sender`; inserts the referencer if it
    /// is new ("sender ID: used to detect new referencers", §3.2).
    /// Returns `true` if the referencer was new.
    pub fn record_message(
        &mut self,
        sender: AoId,
        clock: NamedClock,
        consensus: bool,
        now: Time,
        advertised_ttb: Dur,
    ) -> bool {
        let info = ReferencerInfo {
            clock,
            consensus,
            last_message: now,
            advertised_ttb,
        };
        match self.position(sender) {
            Ok(i) => {
                // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
                self.entries[i].1 = info;
                false
            }
            Err(i) => {
                self.entries.insert(i, (sender, info));
                true
            }
        }
    }

    /// Algorithm 1: do **all** referencers carry `clock` with their
    /// consensus bit set?
    ///
    /// Note: vacuously true when the table is empty; the caller
    /// (Algorithm 2) additionally requires a non-empty table before
    /// terminating cyclically — an object that never had referencers is
    /// the acyclic collector's job, whose TTA delay covers in-flight
    /// first messages.
    pub fn agree(&self, clock: NamedClock) -> bool {
        self.entries
            .iter()
            .all(|(_, r)| r.clock == clock && r.consensus)
    }

    /// Removes referencers whose last message is older than their expiry
    /// (`max(TTA, 2·advertised_ttb + max_comm)`) and returns their ids —
    /// each removal is a "loss of a referencer" that must bump the
    /// activity clock (§3.2, Fig. 5).
    pub fn expire_silent(&mut self, now: Time, tta: Dur, max_comm: Dur) -> Vec<AoId> {
        let mut expired = Vec::new();
        self.expire_silent_into(now, tta, max_comm, &mut expired);
        expired
    }

    /// [`Self::expire_silent`] into a caller-owned scratch buffer
    /// (appended, id order) — the sweep-loop form that allocates
    /// nothing when the buffer's capacity is warm.
    pub fn expire_silent_into(
        &mut self,
        now: Time,
        tta: Dur,
        max_comm: Dur,
        expired: &mut Vec<AoId>,
    ) {
        self.entries.retain(|(id, info)| {
            if now.since(info.last_message) > info.expiry(tta, max_comm) {
                expired.push(*id);
                false
            } else {
                true
            }
        });
    }

    /// Forgets a referencer explicitly (used when the runtime learns the
    /// referencer terminated). Returns `true` if it was present.
    pub fn remove(&mut self, id: AoId) -> bool {
        match self.position(id) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Largest per-referencer expiry among current referencers, used to
    /// widen the acyclic self-timeout when referencers advertise TTBs
    /// larger than ours.
    pub fn max_expiry(&self, tta: Dur, max_comm: Dur) -> Dur {
        self.entries
            .iter()
            .map(|(_, info)| info.expiry(tta, max_comm))
            .max()
            .unwrap_or(tta)
    }

    /// Look up one referencer.
    pub fn get(&self, id: AoId) -> Option<&ReferencerInfo> {
        // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
        self.position(id).ok().map(|i| &self.entries[i].1)
    }

    /// Number of known referencers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no referencer is known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, info)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AoId, &ReferencerInfo)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ao(n: u32) -> AoId {
        AoId::new(n, 0)
    }

    fn clk(v: u64, o: u32) -> NamedClock {
        NamedClock {
            value: v,
            owner: ao(o),
        }
    }

    const TTB: Dur = Dur::from_secs(30);

    #[test]
    fn record_detects_new_referencers() {
        let mut t = ReferencerTable::new();
        assert!(t.record_message(ao(1), clk(0, 1), false, Time::ZERO, TTB));
        assert!(!t.record_message(ao(1), clk(1, 1), true, Time::from_secs(30), TTB));
        assert_eq!(t.len(), 1);
        let info = t.get(ao(1)).unwrap();
        assert_eq!(info.clock, clk(1, 1));
        assert!(info.consensus);
    }

    #[test]
    fn agree_requires_matching_clock_and_consensus() {
        let mut t = ReferencerTable::new();
        t.record_message(ao(1), clk(5, 9), true, Time::ZERO, TTB);
        t.record_message(ao(2), clk(5, 9), true, Time::ZERO, TTB);
        assert!(t.agree(clk(5, 9)));
        // One referencer with a different clock breaks the agreement.
        t.record_message(ao(3), clk(4, 9), true, Time::ZERO, TTB);
        assert!(!t.agree(clk(5, 9)));
        t.remove(ao(3));
        // One referencer that did not consent breaks it too.
        t.record_message(ao(2), clk(5, 9), false, Time::ZERO, TTB);
        assert!(!t.agree(clk(5, 9)));
    }

    #[test]
    fn agree_is_vacuous_on_empty_table() {
        let t = ReferencerTable::new();
        assert!(t.agree(clk(3, 1)));
    }

    #[test]
    fn expire_silent_removes_and_reports() {
        let mut t = ReferencerTable::new();
        let tta = Dur::from_secs(61);
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, TTB);
        t.record_message(ao(2), clk(0, 2), false, Time::from_secs(50), TTB);
        let lost = t.expire_silent(Time::from_secs(62), tta, Dur::ZERO);
        assert_eq!(lost, vec![ao(1)]);
        assert_eq!(t.len(), 1);
        assert!(t.get(ao(2)).is_some());
    }

    #[test]
    fn expire_silent_into_appends_to_scratch() {
        let mut t = ReferencerTable::new();
        let tta = Dur::from_secs(61);
        t.record_message(ao(2), clk(0, 2), false, Time::ZERO, TTB);
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, TTB);
        let mut scratch = vec![ao(9)]; // pre-existing content survives
        t.expire_silent_into(Time::from_secs(62), tta, Dur::ZERO, &mut scratch);
        assert_eq!(scratch, vec![ao(9), ao(1), ao(2)]);
        assert!(t.is_empty());
    }

    #[test]
    fn expiry_respects_advertised_ttb() {
        // A referencer beating every 300s must not be expired by a 61s TTA.
        let mut t = ReferencerTable::new();
        let tta = Dur::from_secs(61);
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, Dur::from_secs(300));
        let lost = t.expire_silent(Time::from_secs(500), tta, Dur::from_secs(1));
        assert!(lost.is_empty(), "2*300+1 = 601s expiry > 500s elapsed");
        let lost = t.expire_silent(Time::from_secs(602), tta, Dur::from_secs(1));
        assert_eq!(lost, vec![ao(1)]);
    }

    #[test]
    fn max_expiry_covers_slowest_referencer() {
        let mut t = ReferencerTable::new();
        let tta = Dur::from_secs(61);
        assert_eq!(t.max_expiry(tta, Dur::ZERO), tta);
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, Dur::from_secs(300));
        assert_eq!(t.max_expiry(tta, Dur::from_secs(1)), Dur::from_secs(601));
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut t = ReferencerTable::new();
        t.record_message(ao(3), clk(0, 3), false, Time::ZERO, TTB);
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, TTB);
        t.record_message(ao(2), clk(0, 2), false, Time::ZERO, TTB);
        let ids: Vec<AoId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ao(1), ao(2), ao(3)]);
    }

    #[test]
    fn remove_reports_presence() {
        let mut t = ReferencerTable::new();
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, TTB);
        assert!(t.remove(ao(1)));
        assert!(!t.remove(ao(1)));
        assert!(t.is_empty());
    }
}
