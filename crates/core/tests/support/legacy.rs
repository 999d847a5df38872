//! The pre-arena `BTreeMap` table implementations, kept verbatim.
//!
//! The reference model of the `table_props` proptest: the arena tables
//! in [`dgc_core::referencers`] / [`dgc_core::referenced`] must be
//! observationally identical to these — same returns, same
//! expiry/broadcast sets, same id-ordered iteration — under any
//! operation interleaving. Test support only; not part of `dgc_core`.

use std::collections::BTreeMap;

use dgc_core::clock::NamedClock;
use dgc_core::id::AoId;
use dgc_core::message::DgcResponse;
use dgc_core::referenced::ReferencedInfo;
use dgc_core::referencers::ReferencerInfo;
use dgc_core::units::{Dur, Time};

/// `BTreeMap`-backed referencer table (pre-arena implementation).
#[derive(Debug, Clone, Default)]
pub struct ReferencerTable {
    entries: BTreeMap<AoId, ReferencerInfo>,
}

impl ReferencerTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`dgc_core::referencers::ReferencerTable::record_message`].
    pub fn record_message(
        &mut self,
        sender: AoId,
        clock: NamedClock,
        consensus: bool,
        now: Time,
        advertised_ttb: Dur,
    ) -> bool {
        self.entries
            .insert(
                sender,
                ReferencerInfo {
                    clock,
                    consensus,
                    last_message: now,
                    advertised_ttb,
                    told: false,
                    farewell: false,
                },
            )
            .is_none()
    }

    /// See [`dgc_core::referencers::ReferencerTable::agree`].
    pub fn agree(&self, clock: NamedClock) -> bool {
        self.entries
            .values()
            .all(|r| r.clock == clock && r.consensus)
    }

    /// See [`dgc_core::referencers::ReferencerTable::expire_silent`] —
    /// including the original collect-then-remove allocation pattern.
    pub fn expire_silent(&mut self, now: Time, tta: Dur, max_comm: Dur) -> Vec<AoId> {
        let expired: Vec<AoId> = self
            .entries
            .iter()
            .filter(|(_, info)| {
                let per_ref = info
                    .advertised_ttb
                    .saturating_mul(2)
                    .saturating_add(max_comm);
                let timeout = tta.max(per_ref);
                now.since(info.last_message) > timeout
            })
            .map(|(id, _)| *id)
            .collect();
        for id in &expired {
            self.entries.remove(id);
        }
        expired
    }

    /// See [`dgc_core::referencers::ReferencerTable::remove`].
    pub fn remove(&mut self, id: AoId) -> bool {
        self.entries.remove(&id).is_some()
    }

    /// The largest per-referencer expiry: the timeout of
    /// [`dgc_core::referencers::ReferencerTable::acyclic_wait`] on a table
    /// without farewells.
    pub fn max_expiry(&self, tta: Dur, max_comm: Dur) -> Dur {
        self.entries
            .values()
            .map(|info| {
                tta.max(
                    info.advertised_ttb
                        .saturating_mul(2)
                        .saturating_add(max_comm),
                )
            })
            .max()
            .unwrap_or(tta)
    }

    /// See [`dgc_core::referencers::ReferencerTable::get`].
    pub fn get(&self, id: AoId) -> Option<&ReferencerInfo> {
        self.entries.get(&id)
    }

    /// See [`dgc_core::referencers::ReferencerTable::len`].
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// See [`dgc_core::referencers::ReferencerTable::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// See [`dgc_core::referencers::ReferencerTable::iter`].
    pub fn iter(&self) -> impl Iterator<Item = (AoId, &ReferencerInfo)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

/// `BTreeMap`-backed referenced table (pre-arena implementation).
#[derive(Debug, Clone, Default)]
pub struct ReferencedTable {
    entries: BTreeMap<AoId, ReferencedInfo>,
}

impl ReferencedTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`dgc_core::referenced::ReferencedTable::on_stub_deserialized`].
    pub fn on_stub_deserialized(&mut self, target: AoId) -> bool {
        let entry = self.entries.entry(target).or_insert(ReferencedInfo {
            last_response: None,
            reachable: false,
            must_send_once: false,
            passed_on: None,
        });
        let was_new = !entry.reachable && entry.last_response.is_none() && !entry.must_send_once;
        entry.reachable = true;
        entry.must_send_once = true;
        was_new
    }

    /// See [`dgc_core::referenced::ReferencedTable::on_stubs_collected`].
    pub fn on_stubs_collected(&mut self, target: AoId) -> bool {
        match self.entries.get_mut(&target) {
            None => false,
            Some(info) => {
                info.reachable = false;
                if info.must_send_once {
                    false
                } else {
                    self.entries.remove(&target);
                    true
                }
            }
        }
    }

    /// See [`dgc_core::referenced::ReferencedTable::record_response`].
    pub fn record_response(&mut self, target: AoId, response: DgcResponse) -> bool {
        match self.entries.get_mut(&target) {
            Some(info) => {
                info.last_response = Some(response);
                true
            }
            None => false,
        }
    }

    /// See [`dgc_core::referenced::ReferencedTable::remove`].
    pub fn remove(&mut self, target: AoId) -> bool {
        self.entries.remove(&target).is_some()
    }

    /// See [`dgc_core::referenced::ReferencedTable::broadcast_targets`] —
    /// including the original two-pass collect-then-mutate allocation
    /// pattern.
    pub fn broadcast_targets(&mut self) -> (Vec<AoId>, Vec<AoId>) {
        let targets: Vec<AoId> = self
            .entries
            .iter()
            .filter(|(_, info)| info.reachable || info.must_send_once)
            .map(|(id, _)| *id)
            .collect();
        let mut dropped = Vec::new();
        for id in &targets {
            let info = self.entries.get_mut(id).expect("target exists");
            info.must_send_once = false;
            if !info.reachable {
                self.entries.remove(id);
                dropped.push(*id);
            }
        }
        (targets, dropped)
    }

    /// See [`dgc_core::referenced::ReferencedTable::last_response`].
    pub fn last_response(&self, target: AoId) -> Option<&DgcResponse> {
        self.entries
            .get(&target)
            .and_then(|i| i.last_response.as_ref())
    }

    /// See [`dgc_core::referenced::ReferencedTable::get`].
    pub fn get(&self, target: AoId) -> Option<&ReferencedInfo> {
        self.entries.get(&target)
    }

    /// See [`dgc_core::referenced::ReferencedTable::contains`].
    pub fn contains(&self, target: AoId) -> bool {
        self.entries.contains_key(&target)
    }

    /// See [`dgc_core::referenced::ReferencedTable::len`].
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// See [`dgc_core::referenced::ReferencedTable::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// See [`dgc_core::referenced::ReferencedTable::iter`].
    pub fn iter(&self) -> impl Iterator<Item = (AoId, &ReferencedInfo)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}
