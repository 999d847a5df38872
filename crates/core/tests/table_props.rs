//! Arena tables vs the legacy `BTreeMap` tables: observational
//! equivalence under arbitrary operation interleavings.
//!
//! The arena rewrite of `referencers`/`referenced` (flat sorted vecs,
//! scratch-buffer sweep APIs) must be a pure representation change —
//! every return value, every expiry/broadcast set, and the id-ordered
//! iteration the conformance determinism hangs off must match the
//! pre-arena implementation (kept verbatim in `support/legacy.rs`).
//! These properties drive both side by side through random op streams,
//! and additionally pin `on_tick` ≡ `on_tick_into` across reused
//! scratch buffers — the batched sweep emits exactly the action stream
//! of the per-activity path.

use proptest::prelude::*;

use dgc_core::clock::NamedClock;
use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::message::{DgcMessage, DgcResponse};
use dgc_core::protocol::DgcState;
use dgc_core::sweep::{SweepScratch, SweepUnit};
use dgc_core::units::{Dur, Time};
use dgc_core::{referenced, referencers};

#[path = "support/legacy.rs"]
mod legacy;

fn ao(n: u32) -> AoId {
    AoId::new(n % 5, n % 7)
}

fn clk(v: u64, o: u32) -> NamedClock {
    NamedClock {
        value: v % 4,
        owner: ao(o),
    }
}

fn resp(n: u32) -> DgcResponse {
    DgcResponse {
        responder: ao(n),
        clock: NamedClock::initial(ao(n)),
        has_parent: n.is_multiple_of(2),
        consensus_reached: false,
        depth: None,
    }
}

/// One operation on a referencer-table pair.
#[derive(Debug, Clone)]
enum RefOp {
    Record {
        sender: u32,
        clock_v: u64,
        clock_o: u32,
        consensus: bool,
        at_ms: u64,
        ttb_ms: u64,
    },
    ExpireSilent {
        now_ms: u64,
        tta_ms: u64,
        comm_ms: u64,
    },
    Remove {
        id: u32,
    },
    Agree {
        clock_v: u64,
        clock_o: u32,
    },
    MaxExpiry {
        tta_ms: u64,
        comm_ms: u64,
    },
}

fn arb_ref_op() -> impl Strategy<Value = RefOp> {
    (
        0u8..5,
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        0u64..20_000,
        0u64..5_000,
        0u64..500,
    )
        .prop_map(
            |(kind, id, clock_v, clock_o, consensus, t_ms, tta_ms, comm_ms)| match kind {
                0 => RefOp::Record {
                    sender: id,
                    clock_v,
                    clock_o,
                    consensus,
                    at_ms: t_ms % 10_000,
                    ttb_ms: tta_ms % 2_000,
                },
                1 => RefOp::ExpireSilent {
                    now_ms: t_ms,
                    tta_ms,
                    comm_ms,
                },
                2 => RefOp::Remove { id },
                3 => RefOp::Agree { clock_v, clock_o },
                _ => RefOp::MaxExpiry { tta_ms, comm_ms },
            },
        )
}

/// One operation on a referenced-table pair.
#[derive(Debug, Clone)]
enum RfdOp {
    StubDeserialized { target: u32 },
    StubsCollected { target: u32 },
    RecordResponse { target: u32, r: u32 },
    Remove { target: u32 },
    Broadcast,
}

fn arb_rfd_op() -> impl Strategy<Value = RfdOp> {
    (0u8..5, any::<u32>(), any::<u32>()).prop_map(|(kind, target, r)| match kind {
        0 => RfdOp::StubDeserialized { target },
        1 => RfdOp::StubsCollected { target },
        2 => RfdOp::RecordResponse { target, r },
        3 => RfdOp::Remove { target },
        _ => RfdOp::Broadcast,
    })
}

fn assert_ref_tables_equal(arena: &referencers::ReferencerTable, model: &legacy::ReferencerTable) {
    assert_eq!(arena.len(), model.len());
    assert_eq!(arena.is_empty(), model.is_empty());
    let a: Vec<_> = arena.iter().map(|(id, info)| (id, *info)).collect();
    let m: Vec<_> = model.iter().map(|(id, info)| (id, *info)).collect();
    assert_eq!(a, m, "same entries in the same (id) order");
    // `ao` maps 0..35 onto every id the op streams can name.
    for id in (0..35).map(ao) {
        assert_eq!(arena.get(id), model.get(id), "point lookup of {id:?}");
    }
}

fn assert_rfd_tables_equal(arena: &referenced::ReferencedTable, model: &legacy::ReferencedTable) {
    assert_eq!(arena.len(), model.len());
    assert_eq!(arena.is_empty(), model.is_empty());
    let a: Vec<_> = arena.iter().map(|(id, info)| (id, info.clone())).collect();
    let m: Vec<_> = model.iter().map(|(id, info)| (id, info.clone())).collect();
    assert_eq!(a, m, "same entries in the same (id) order");
    for id in (0..35).map(ao) {
        assert_eq!(arena.get(id), model.get(id), "point lookup of {id:?}");
        assert_eq!(arena.contains(id), model.contains(id));
        assert_eq!(arena.last_response(id), model.last_response(id));
    }
}

proptest! {
    /// Referencer table: every op returns the same value on both
    /// implementations and leaves identical id-ordered contents.
    #[test]
    fn referencer_arena_matches_legacy(ops in proptest::collection::vec(arb_ref_op(), 0..60)) {
        let mut arena = referencers::ReferencerTable::new();
        let mut model = legacy::ReferencerTable::new();
        for op in ops {
            match op {
                RefOp::Record { sender, clock_v, clock_o, consensus, at_ms, ttb_ms } => {
                    let c = clk(clock_v, clock_o);
                    let now = Time::from_nanos(at_ms * 1_000_000);
                    let ttb = Dur::from_millis(ttb_ms);
                    prop_assert_eq!(
                        arena.record_message(ao(sender), c, consensus, now, ttb),
                        model.record_message(ao(sender), c, consensus, now, ttb)
                    );
                }
                RefOp::ExpireSilent { now_ms, tta_ms, comm_ms } => {
                    let now = Time::from_nanos(now_ms * 1_000_000);
                    let tta = Dur::from_millis(tta_ms);
                    let comm = Dur::from_millis(comm_ms);
                    prop_assert_eq!(
                        arena.expire_silent(now, tta, comm),
                        model.expire_silent(now, tta, comm),
                        "same expiry set in the same order"
                    );
                }
                RefOp::Remove { id } => {
                    prop_assert_eq!(arena.remove(ao(id)), model.remove(ao(id)));
                }
                RefOp::Agree { clock_v, clock_o } => {
                    let c = clk(clock_v, clock_o);
                    prop_assert_eq!(arena.agree(c), model.agree(c));
                }
                RefOp::MaxExpiry { tta_ms, comm_ms } => {
                    let tta = Dur::from_millis(tta_ms);
                    let comm = Dur::from_millis(comm_ms);
                    // Without farewells the acyclic wait's timeout is the
                    // largest expiry, as the model computes it.
                    prop_assert_eq!(arena.acyclic_wait(tta, comm).timeout, model.max_expiry(tta, comm));
                }
            }
            assert_ref_tables_equal(&arena, &model);
        }
    }

    /// Referenced table: same returns, same broadcast/drop sets, same
    /// id-ordered contents under any interleaving.
    #[test]
    fn referenced_arena_matches_legacy(ops in proptest::collection::vec(arb_rfd_op(), 0..60)) {
        let mut arena = referenced::ReferencedTable::new();
        let mut model = legacy::ReferencedTable::new();
        for op in ops {
            match op {
                RfdOp::StubDeserialized { target } => {
                    prop_assert_eq!(
                        arena.on_stub_deserialized(ao(target)),
                        model.on_stub_deserialized(ao(target))
                    );
                }
                RfdOp::StubsCollected { target } => {
                    prop_assert_eq!(
                        arena.on_stubs_collected(ao(target)),
                        model.on_stubs_collected(ao(target))
                    );
                }
                RfdOp::RecordResponse { target, r } => {
                    prop_assert_eq!(
                        arena.record_response(ao(target), resp(r)),
                        model.record_response(ao(target), resp(r))
                    );
                }
                RfdOp::Remove { target } => {
                    prop_assert_eq!(arena.remove(ao(target)), model.remove(ao(target)));
                }
                RfdOp::Broadcast => {
                    prop_assert_eq!(
                        arena.broadcast_targets(),
                        model.broadcast_targets(),
                        "same (targets, dropped) in the same order"
                    );
                }
            }
            assert_rfd_tables_equal(&arena, &model);
        }
    }
}

/// One protocol-level event for the `on_tick` ≡ `on_tick_into` stream
/// equivalence below.
#[derive(Debug, Clone)]
enum ProtoOp {
    Message {
        sender: u32,
        clock_v: u64,
        clock_o: u32,
        consensus: bool,
    },
    StubDeserialized {
        target: u32,
    },
    StubsCollected {
        target: u32,
    },
    Idle(bool),
    Tick {
        advance_ms: u64,
    },
}

fn arb_proto_op() -> impl Strategy<Value = ProtoOp> {
    (
        0u8..5,
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        0u64..90_000,
    )
        .prop_map(
            |(kind, id, clock_v, clock_o, flag, advance_ms)| match kind {
                0 => ProtoOp::Message {
                    sender: id,
                    clock_v,
                    clock_o,
                    consensus: flag,
                },
                1 => ProtoOp::StubDeserialized { target: id },
                2 => ProtoOp::StubsCollected { target: id },
                3 => ProtoOp::Idle(flag),
                _ => ProtoOp::Tick { advance_ms },
            },
        )
}

proptest! {
    /// The batched sweep path (`on_tick_into` with scratch buffers
    /// reused across every tick) emits exactly the action stream of the
    /// allocating `on_tick` path, over arbitrary protocol histories.
    #[test]
    fn batched_sweep_emits_the_per_activity_action_stream(
        ops in proptest::collection::vec(arb_proto_op(), 0..40)
    ) {
        let cfg = DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(61))
            .build();
        let me = AoId::new(9, 9);
        let mut vec_state = DgcState::new(me, Time::ZERO, cfg);
        let mut sink_state = DgcState::new(me, Time::ZERO, cfg);
        let mut scratch = SweepScratch::new();
        let mut units: Vec<SweepUnit> = Vec::new();
        let mut now = Time::ZERO;
        let mut idle = false;
        for op in ops {
            match op {
                ProtoOp::Message { sender, clock_v, clock_o, consensus } => {
                    let m = DgcMessage {
                        sender: ao(sender),
                        clock: clk(clock_v, clock_o),
                        consensus,
                        sender_ttb: Dur::from_secs(30),
                    };
                    prop_assert_eq!(
                        vec_state.on_message(now, &m),
                        {
                            let before = units.len();
                            sink_state.on_message_into(now, &m, &mut units);
                            units.drain(before..).map(|u| u.action).collect::<Vec<_>>()
                        }
                    );
                }
                ProtoOp::StubDeserialized { target } => {
                    vec_state.on_stub_deserialized(ao(target));
                    sink_state.on_stub_deserialized(ao(target));
                }
                ProtoOp::StubsCollected { target } => {
                    vec_state.on_stubs_collected(ao(target));
                    sink_state.on_stubs_collected(ao(target));
                }
                ProtoOp::Idle(i) => {
                    if i && !idle {
                        vec_state.on_became_idle(now);
                        sink_state.on_became_idle(now);
                    }
                    idle = i;
                }
                ProtoOp::Tick { advance_ms } => {
                    now = now + Dur::from_millis(advance_ms);
                    let via_vec = vec_state.on_tick(now, idle);
                    sink_state.on_tick_into(now, idle, &mut scratch, &mut units);
                    let via_sink: Vec<_> = units.drain(..).map(|u| u.action).collect();
                    prop_assert_eq!(via_vec, via_sink);
                }
            }
            prop_assert_eq!(vec_state.phase(), sink_state.phase());
        }
    }
}
