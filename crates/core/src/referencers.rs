//! The referencer table (§2.2).
//!
//! Referencers are known **only by id** — the DGC never contacts them
//! directly (they reach us, not the other way around, so firewalls and
//! NATs are no obstacle). For each referencer we remember the content of
//! its last DGC message (clock + consensus bit) and when it was received,
//! so that Algorithm 1 can evaluate the recursive agreement and so that
//! silent referencers can be expired after TTA (the "loss of a
//! referencer" event of §3.2, Fig. 5). A referencer that said farewell
//! is expired at its farewell horizon instead, and no longer holds the
//! §3.1 acyclic wait by its messages ([`ReferencerTable::acyclic_wait`]).
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
    /// Arrival time of its last DGC message — or, once it said
    /// `farewell`, its farewell horizon: the instant it is forgotten.
    pub last_message: Time,
    /// The TTB it advertised, used for the per-referencer expiry when
    /// heartbeat periods differ (§7.1 extension).
    pub advertised_ttb: Dur,
    /// Answered with `consensus_reached` since this endpoint began its
    /// §4.3 dying wait ([`ReferencerTable::begin_wait`]); `false` while
    /// the endpoint is active.
    pub told: bool,
    /// It said farewell ([`ReferencerTable::farewell`]) and has sent no
    /// DGC message since: `last_message` is its horizon.
    pub farewell: bool,
}

impl ReferencerInfo {
    /// True once this referencer is to be forgotten at `now`: its
    /// farewell horizon is reached, or it has been silent for longer
    /// than its [`expiry`](Self::expiry).
    #[inline]
    fn expired(&self, now: Time, tta: Dur, max_comm: Dur) -> bool {
        if self.farewell {
            now >= self.last_message
        } else {
            now.since(self.last_message) > self.expiry(tta, max_comm)
        }
    }

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

/// What one expiry pass removed, beyond the ids it reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expiry {
    /// How many of the removed referencers had said farewell.
    pub farewells: usize,
    /// The last message of the removed silent referencers, if any.
    pub last_heard: Option<Time>,
}

/// What holds the §3.1 acyclic wait among the current referencers
/// ([`ReferencerTable::acyclic_wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcyclicWait {
    /// The last message of any referencer that has not said farewell.
    pub last_heard: Option<Time>,
    /// The silence that must follow it: the largest expiry among those
    /// referencers, TTA if there are none.
    pub timeout: Dur,
    /// The latest farewell horizon still pending.
    pub horizon: Option<Time>,
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
            told: false,
            farewell: false,
        };
        match self.position(sender) {
            Ok(i) => {
                // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
                self.entries[i].1 = info;
                false
            }
            Err(i) => {
                // One slot at a time: most activities have one or two
                // referencers, and Vec's first growth would give four.
                self.entries.reserve_exact(1);
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
    /// (`max(TTA, 2·advertised_ttb + max_comm)`), or whose farewell
    /// horizon is reached, and returns their ids — each removal is a
    /// "loss of a referencer" that must bump the activity clock (§3.2,
    /// Fig. 5).
    pub fn expire_silent(&mut self, now: Time, tta: Dur, max_comm: Dur) -> Vec<AoId> {
        let mut expired = Vec::new();
        self.expire_silent_into(now, tta, max_comm, &mut expired);
        expired
    }

    /// [`Self::expire_silent`] into a caller-owned scratch buffer
    /// (appended, id order) — the sweep-loop form that allocates
    /// nothing when the buffer's capacity is warm. Returns how many of
    /// them said farewell, and the last message of the others.
    pub fn expire_silent_into(
        &mut self,
        now: Time,
        tta: Dur,
        max_comm: Dur,
        expired: &mut Vec<AoId>,
    ) -> Expiry {
        let mut expiry = Expiry::default();
        self.entries.retain(|(id, info)| {
            if !info.expired(now, tta, max_comm) {
                return true;
            }
            expired.push(*id);
            if info.farewell {
                expiry.farewells += 1;
            } else {
                expiry.last_heard = expiry.last_heard.max(Some(info.last_message));
            }
            false
        });
        expiry
    }

    /// Slots allocated for referencers: equal to [`Self::len`] after
    /// any run of inserts, since the table grows one slot at a time.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Forgets a referencer explicitly (used when the runtime learns the
    /// referencer terminated). Returns `true` if it was present.
    pub fn remove(&mut self, id: AoId) -> bool {
        self.take(id).is_some()
    }

    /// [`Self::remove`], returning what was known about the referencer.
    pub fn take(&mut self, id: AoId) -> Option<ReferencerInfo> {
        let i = self.position(id).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Records `id`'s farewell: it is forgotten at `horizon`, and its
    /// messages so far no longer hold the acyclic wait. A later message
    /// from it revokes the farewell ([`Self::record_message`]). `false`
    /// if `id` is not a known referencer.
    pub fn farewell(&mut self, id: AoId, horizon: Time) -> bool {
        let slot = self.position(id).ok();
        match slot.and_then(|i| self.entries.get_mut(i)) {
            Some((_, info)) => {
                info.farewell = true;
                info.last_message = horizon;
                true
            }
            None => false,
        }
    }

    /// The §3.1 acyclic wait the current referencers impose: the last
    /// message of those that have not said farewell with the silence it
    /// needs, and the latest pending farewell horizon.
    pub fn acyclic_wait(&self, tta: Dur, max_comm: Dur) -> AcyclicWait {
        let mut wait = AcyclicWait {
            last_heard: None,
            timeout: tta,
            horizon: None,
        };
        for (_, info) in &self.entries {
            if info.farewell {
                wait.horizon = wait.horizon.max(Some(info.last_message));
            } else {
                wait.last_heard = wait.last_heard.max(Some(info.last_message));
                wait.timeout = wait.timeout.max(info.expiry(tta, max_comm));
            }
        }
        wait
    }

    /// Begins a §4.3 dying wait: every referencer except `exempt` (the
    /// consensus clock's owner) is marked not yet told. Returns how many
    /// that is.
    pub fn begin_wait(&mut self, exempt: AoId) -> u32 {
        let mut untold = 0u32;
        for (id, info) in &mut self.entries {
            info.told = *id == exempt;
            untold = untold.saturating_add(u32::from(!info.told));
        }
        untold
    }

    /// Marks referencer `id` told; `true` if it is known and was not
    /// told before.
    pub fn tell(&mut self, id: AoId) -> bool {
        let slot = self.position(id).ok();
        match slot.and_then(|i| self.entries.get_mut(i)) {
            Some((_, info)) => !std::mem::replace(&mut info.told, true),
            None => false,
        }
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
    fn acyclic_wait_covers_slowest_referencer() {
        let mut t = ReferencerTable::new();
        let tta = Dur::from_secs(61);
        let empty = AcyclicWait {
            last_heard: None,
            timeout: tta,
            horizon: None,
        };
        assert_eq!(t.acyclic_wait(tta, Dur::ZERO), empty);
        t.record_message(ao(1), clk(0, 1), false, Time::ZERO, Dur::from_secs(300));
        t.record_message(ao(2), clk(0, 2), false, Time::from_secs(5), TTB);
        let wait = t.acyclic_wait(tta, Dur::from_secs(1));
        assert_eq!(wait.timeout, Dur::from_secs(601));
        assert_eq!(wait.last_heard, Some(Time::from_secs(5)));
        // A referencer that said farewell holds the wait by its horizon
        // only, not by its messages or its TTB.
        assert!(t.farewell(ao(1), Time::from_secs(9)));
        assert!(t.farewell(ao(2), Time::from_secs(7)));
        let wait = t.acyclic_wait(tta, Dur::from_secs(1));
        assert_eq!(
            wait,
            AcyclicWait {
                horizon: Some(Time::from_secs(9)),
                ..empty
            }
        );
        assert!(!t.farewell(ao(3), Time::from_secs(9)), "unknown");
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
