//! Node-level framing: the envelope DGC protocol units travel in when
//! they cross a real socket.
//!
//! The sans-io codec in [`dgc_core::wire`] knows how to lay out one
//! message or response; a *node* link needs more: who is connecting
//! (hello), which activity a unit is addressed to, notification that a
//! destination activity no longer exists, and — the paper's fig. 8 cost
//! lever — **batching**: every unit the egress plane flushes toward one
//! remote node (DGC heartbeats, membership digests, application
//! payloads) shares a single frame, its overhead, and its *context*: a
//! field the frame has already stated is not stated again.
//!
//! Layout, length-prefixed for TCP. `len` and the handshake frames are
//! fixed-width big-endian; the batch `count` and everything inside an
//! item is an LEB128 varint (`v(..)`, [`dgc_core::wire::put_varint`]):
//!
//! ```text
//! frame    := len(4) payload            len = payload size in bytes
//! payload  := 0xF0 version(1) node(4)                      -- Hello
//!           | 0xF1 v(count) item*                          -- Batch
//!           | 0xF5 v(count) item*                          -- Batch, with depth
//!           | 0xF2 nonce(16)                               -- AuthInit
//!           | 0xF3 nonce(16) mac(32)                       -- AuthChallenge
//!           | 0xF4 mac(32)                                 -- AuthProof
//! item     := head body                 head = kind | flags, one byte
//!
//! kind (bits 0-2)   body, `[x]` = absent when its flag is set
//!   0 Farewell      [from] [to] v(age)
//!   1 Dgc           [from] [to] [clock] [ttb]
//!   2 Resp          [from] [to] [clock] {depth}
//!   3 SendFailure   [target] [holder]       target as `from`, holder as `to`
//!   4 Gossip        v(from) v(to) digest
//!   5 App           [from] [to] v(tenant) v(len) bytes
//!   6 Dgc           [from] [to] sender [clock] [ttb]       sender != from
//!   7 Resp          [from] [to] responder [clock] {depth}  responder != from
//!
//! {depth}           present in every Resp of a 0xF5 batch, absent in 0xF1
//!
//! flags (bits 3-7)  3 SAME_FROM   4 SAME_TO       (kinds 0 1 2 3 5 6 7)
//!                   5 SAME_CLOCK                  (Dgc, Resp)
//!                   6 SAME_TTB    7 consensus     (Dgc)
//!                   6 has_parent  7 consensus_reached   (Resp)
//!                   5 reply                       (App)
//!                   any other bit set: the frame is corrupt
//!
//! id       := v(0)                                  -- equal to its base
//!           | v(((index << 1) | 0) + 1)             -- the base's node
//!           | v(((index << 1) | 1) + 1) v(node)
//! clock    := v(value) owner
//! ttb      := v(nanoseconds)
//! depth    := v(0) for none | v(depth + 1)
//! age      := v(0) for never passed on | v(microseconds + 1)
//! ```
//!
//! A farewell's sender is always its `from`. Its age travels in whole
//! microseconds, rounded down: a younger age only makes the receiver
//! wait longer.
//!
//! **Within an item**, the sender of a `Dgc` (responder of a `Resp`) is
//! `from` unless the kind says otherwise, and an id is written against a
//! *base*: `sender` against `from`, a clock's `owner` against the unit's
//! sender — so the usual clock, owned by whoever sends it, costs its
//! value and one zero byte.
//!
//! **Across items**, `from`, `to`, `clock` and `ttb` are delta-coded
//! against the most recent item *of this frame* that carried the field:
//! equal is a flag bit and no bytes, and a differing `from`/`to` takes
//! that previous id as its base, so activities of the same node omit
//! the node. This is the shape a TTB sweep emits: one sender's fan-out
//! is consecutive (same `from`, `clock`, `ttb`; only `to`'s index
//! changes), and the responses to it share their `to`. Gossip items
//! carry node ids, not activity ids, and neither use nor change the
//! context.
//!
//! **The context resets at every frame boundary.** A frame is the unit
//! the chaos proxy drops, delays and reorders, and the unit the link
//! layer salvages and re-sends after a reconnect, so each must decode on
//! its own;
//! a "same as previous" flag with no previous item in the frame is
//! [`DecodeError::NoContext`]. `len` stays fixed-width so
//! [`FrameDecoder`] finds frame boundaries without decoding.
//!
//! **A response's depth travels only when someone sent one.** The
//! spanning-tree depth is set only under `ParentPolicy::MinDepth`; under
//! the default policy every response's depth is `None`. The encoder
//! picks the tag per frame: `0xF5` when some `Resp` in the batch has a
//! depth, and then every `Resp` in it carries the field (`v(0)` for
//! none), otherwise `0xF1` and no `Resp` does. Decoding an `0xF1` batch
//! yields `depth: None` for every response.
//!
//! **The count stays, as a varint.** Without it a payload cut at an item
//! boundary — a corrupted length prefix — would decode as a valid,
//! shorter batch and drop the units behind the cut silently; with it,
//! the cut is [`DecodeError::Truncated`]. A count past `u32` is
//! [`DecodeError::Overflow`], one past [`MAX_BATCH_ITEMS`] is refused
//! before anything is allocated for it.
//!
//! The `Auth*` frames carry the `dgc-plane` pre-shared-key handshake
//! (HMAC-SHA256 challenge/response) that follows `Hello` on links with
//! authentication configured; they are handshake-only and never appear
//! inside a batch. `digest` is the self-delimiting encoding of
//! [`dgc_membership::wire`], carried verbatim.
//!
//! **A unit is encoded once, when it is enqueued.** A node's egress
//! queue toward a peer is a [`PeerFrames`]: two open frames
//! ([`FrameBuilder`]), one per routing path, each appending a unit with
//! the same context-compressed encoding [`encode_batch_frame`] uses. A
//! flush seals them into [`SealedFrame`]s — byte for byte what
//! `encode_batch_frame` builds for the same units, cut where
//! [`split_len`] cuts — and the link layer writes those bytes as they
//! are. Because the context resets at every frame, a sealed frame is its
//! own salvage: a dead connection's frames are re-sent or rerouted whole,
//! and only the cold failure paths decode one back into units
//! ([`SealedFrame::into_items`]). On the way in, a `BatchReader` walks a
//! payload one item at a time: the link layer checks a frame whole
//! before any of its items acts, and the node loop dispatches from a
//! second walk. No batch of decoded units is held on either side.
//! [`Item::wire_size`] — the context-free size of a unit — still bounds
//! what it adds to a frame: the egress plane charges it against its byte
//! bound, and `split_len` cuts on it, so when a flush fires and where a
//! frame ends do not depend on the encoding context.
//!
//! Two byte accountings exist and model different things. The simulator
//! charges each unit the fixed [`dgc_core::wire`] encoding plus a
//! calibrated envelope: one Java-RMI call, as the paper measured.
//! `NetStats::bytes_sent` counts what this module writes to a socket.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use dgc_core::clock::NamedClock;
use dgc_core::egress::{EgressClass, EgressQueue, QueuedItem};
use dgc_core::id::AoId;
use dgc_core::message::{DgcMessage, DgcResponse};
use dgc_core::units::Dur;
use dgc_core::wire::{get_varint, put_varint, DecodeError};
use dgc_membership::wire as membership_wire;
use dgc_membership::Digest;

/// Protocol version carried by [`Frame::Hello`]; bumped on any layout
/// change so mismatched nodes fail the handshake instead of
/// misinterpreting frames. Version 6: context-compressed batch items
/// (varints, intra-item elision, previous-item delta) behind a varint
/// item count, with a response's depth carried only in batches tagged
/// `0xF5` — those that hold a response with a depth — and the farewell
/// item (kind 0).
pub const PROTOCOL_VERSION: u8 = 6;

/// Frame tag bytes (disjoint from `dgc_core::wire`'s unit tags).
const TAG_HELLO: u8 = 0xF0;
const TAG_BATCH: u8 = 0xF1;
const TAG_AUTH_INIT: u8 = 0xF2;
const TAG_AUTH_CHALLENGE: u8 = 0xF3;
const TAG_AUTH_PROOF: u8 = 0xF4;
/// A batch whose every `Resp` carries its depth.
const TAG_BATCH_DEPTH: u8 = 0xF5;

/// Length of an auth handshake nonce (`dgc_plane::auth::NONCE_LEN`).
pub const AUTH_NONCE_LEN: usize = 16;

/// Length of an auth handshake MAC (`dgc_plane::auth::MAC_LEN`).
pub const AUTH_MAC_LEN: usize = 32;

/// Item kinds: the low three bits of an item's head byte.
const KIND_MASK: u8 = 0b0000_0111;
const ITEM_FAREWELL: u8 = 0;
const ITEM_DGC: u8 = 1;
const ITEM_RESP: u8 = 2;
const ITEM_FAIL: u8 = 3;
const ITEM_GOSSIP: u8 = 4;
const ITEM_APP: u8 = 5;
/// A `Dgc` / `Resp` whose unit names a sender / responder other than
/// the item's `from`; the id follows `to`.
const ITEM_DGC_DETACHED: u8 = 6;
const ITEM_RESP_DETACHED: u8 = 7;

/// Head-byte flags: the field equals the one the frame last stated.
const SAME_FROM: u8 = 1 << 3;
const SAME_TO: u8 = 1 << 4;
const SAME_CLOCK: u8 = 1 << 5;
const DGC_SAME_TTB: u8 = 1 << 6;
/// Head-byte flags carrying an item's own booleans.
const DGC_CONSENSUS: u8 = 1 << 7;
const RESP_HAS_PARENT: u8 = 1 << 6;
const RESP_CONSENSUS_REACHED: u8 = 1 << 7;
const APP_REPLY: u8 = 1 << 5;

/// Hard cap on one application payload inside a frame (anything larger
/// should stream on its own connection, not ride the shared frames).
pub const MAX_APP_PAYLOAD: usize = 1 << 20;

/// Wildcard destination for the gossip item a **join probe** sends: a
/// joining node dials a seed *address* before it knows the seed's node
/// id, so its introduction is addressed "to whoever answers here". The
/// receiving node accepts anycast gossip as its own; everything else
/// misaddressed is still rejected (see `node::Worker::handle_item`).
pub const GOSSIP_ANYCAST: u32 = u32::MAX;

/// Frames larger than this are rejected as corrupt rather than buffered
/// (writers split at [`MAX_BYTES_PER_FRAME`], half of it; nothing
/// legitimate comes close).
pub const MAX_FRAME_LEN: usize = 8 << 20;

/// Hard cap on items per batch, mirrored by the encoder.
pub const MAX_BATCH_ITEMS: u32 = 1 << 20;

/// One protocol unit inside a [`Frame::Batch`]: activity-addressed DGC
/// traffic, or a node-addressed membership digest piggybacking on the
/// same frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A DGC message (TTB heartbeat) from `from` to `to`.
    Dgc {
        /// Sending activity.
        from: AoId,
        /// Destination activity, hosted on the receiving node.
        to: AoId,
        /// The protocol unit.
        message: DgcMessage,
    },
    /// A DGC response travelling back to a referencer.
    Resp {
        /// Responding activity.
        from: AoId,
        /// Destination activity (the referencer).
        to: AoId,
        /// The protocol unit.
        response: DgcResponse,
    },
    /// `from` no longer references `to`: a farewell (never answered).
    Farewell {
        /// The departing referencer.
        from: AoId,
        /// The activity it referenced, hosted on the receiving node.
        to: AoId,
        /// Time since `from` last passed `to`'s reference on, if it
        /// ever did; whole microseconds on the wire.
        age: Option<Dur>,
    },
    /// The destination activity of an earlier message no longer exists;
    /// `holder` should drop its reference to `target` (the transport
    /// analogue of an RMI call failing with `NoSuchObjectException`).
    SendFailure {
        /// Referencer holding the now-dangling reference.
        holder: AoId,
        /// The activity that is gone.
        target: AoId,
    },
    /// A membership gossip digest (`dgc-membership` delta anti-entropy),
    /// batched into the same frames as the DGC units it rides with.
    Gossip {
        /// Sending node.
        from: u32,
        /// Destination node, or [`GOSSIP_ANYCAST`] on a join probe.
        to: u32,
        /// The versioned delta (or full-sync) digest.
        digest: Digest,
    },
    /// An opaque application unit (request or reply payload) sharing
    /// the egress frames — the traffic everything else piggybacks on.
    App {
        /// Sending activity.
        from: AoId,
        /// Destination activity, hosted on the receiving node.
        to: AoId,
        /// True for a reply (travels back over the socket the
        /// requester's node opened, like DGC responses).
        reply: bool,
        /// Tenant the payload travels under (`dgc_plane::TenantId`;
        /// `0` is the default tenant). Stamped by the sender's
        /// pipeline and re-checked by the receiver's.
        tenant: u32,
        /// The serialized call/value, opaque to the transport. Decoded
        /// items hold a refcounted window into the receive buffer (no
        /// per-payload copy on the read path).
        payload: Bytes,
    },
}

impl Item {
    /// The node the item must be routed to.
    pub fn destination_node(&self) -> u32 {
        match self {
            Item::Dgc { to, .. }
            | Item::Resp { to, .. }
            | Item::Farewell { to, .. }
            | Item::App { to, .. } => to.node,
            Item::SendFailure { holder, .. } => holder.node,
            Item::Gossip { to, .. } => *to,
        }
    }

    /// Whether the item rides the link this node dialed toward its
    /// destination — DGC messages, farewells, application requests —
    /// rather than the reply path of the socket the peer opened to us:
    /// responses, failure notices, gossip, application replies (§2.2).
    /// Every item of one class takes the same path, so per-class FIFO
    /// survives the split.
    pub fn travels_forward(&self) -> bool {
        matches!(
            self,
            Item::Dgc { .. } | Item::Farewell { .. } | Item::App { reply: false, .. }
        )
    }

    /// The egress class the item is metered and flushed under.
    pub fn class(&self) -> EgressClass {
        match self {
            Item::Dgc { .. } | Item::Farewell { .. } => EgressClass::DgcMessage,
            Item::Resp { .. } => EgressClass::DgcResponse,
            Item::SendFailure { .. } => EgressClass::Control,
            Item::Gossip { .. } => EgressClass::Gossip,
            Item::App { reply: false, .. } => EgressClass::AppRequest,
            Item::App { reply: true, .. } => EgressClass::AppReply,
        }
    }

    /// Bytes this item adds to a frame when nothing can be elided from
    /// its predecessor and a `Resp` carries its depth field — its exact
    /// size as the first item of a frame (one byte less for a `Resp`
    /// without a depth, which is framed without the field), and an
    /// upper bound anywhere else. This is what the egress plane charges
    /// against its byte bound and what [`split_len`] sums, so no frame
    /// can outgrow [`MAX_BYTES_PER_FRAME`]; what a link really wrote is
    /// `NetStats::bytes_sent`.
    pub fn wire_size(&self) -> u64 {
        let mut size = ByteCount(0);
        put_item(&mut size, &mut Prev::new(true), self);
        size.0
    }
}

/// A sink that measures an encoding instead of storing it, so the size
/// model and the encoder are the same code.
struct ByteCount(u64);

impl BufMut for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len() as u64;
    }
}

/// A node-level envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Link handshake: the connecting node identifies itself.
    Hello {
        /// Sender's node id (the `AoId::node` namespace it hosts).
        node: u32,
        /// Frame-layout version; see [`PROTOCOL_VERSION`].
        version: u8,
    },
    /// One or more protocol units for activities on the receiving node.
    Batch(Vec<Item>),
    /// Auth handshake, step 1: the connecting side's fresh nonce
    /// (follows its `Hello` when the link requires authentication).
    AuthInit {
        /// Initiator nonce.
        nonce: [u8; AUTH_NONCE_LEN],
    },
    /// Auth handshake, step 2: the accepting side's nonce plus its
    /// proof of key possession over both nonces.
    AuthChallenge {
        /// Responder nonce.
        nonce: [u8; AUTH_NONCE_LEN],
        /// `HMAC(key, "dgc-auth-s2c" ‖ nonce_c ‖ nonce_s)`.
        mac: [u8; AUTH_MAC_LEN],
    },
    /// Auth handshake, step 3: the connecting side's proof; on
    /// verification the link is authenticated and batches may flow.
    AuthProof {
        /// `HMAC(key, "dgc-auth-c2s" ‖ nonce_c ‖ nonce_s)`.
        mac: [u8; AUTH_MAC_LEN],
    },
}

/// The context one frame builds up: the value of each delta-coded field
/// in the most recent item that carried it, and whether the frame's
/// responses carry a depth (its tag). Starts empty at every frame.
#[derive(Debug, Default)]
struct Prev {
    from: Option<AoId>,
    to: Option<AoId>,
    clock: Option<NamedClock>,
    ttb: Option<Dur>,
    depth: bool,
}

impl Prev {
    fn new(depth: bool) -> Self {
        Prev {
            depth,
            ..Prev::default()
        }
    }
}

/// `flag` if `on`, for assembling a head byte.
fn flag(on: bool, flag: u8) -> u8 {
    if on {
        flag
    } else {
        0
    }
}

/// Writes `id` against `base` (see the module's `id` grammar).
fn put_id(buf: &mut impl BufMut, id: AoId, base: Option<AoId>) {
    if base == Some(id) {
        return put_varint(buf, 0);
    }
    let new_node = base.map(|b| b.node) != Some(id.node);
    put_varint(buf, ((u64::from(id.index) << 1) | u64::from(new_node)) + 1);
    if new_node {
        put_varint(buf, u64::from(id.node));
    }
}

/// Reads a varint that must fit a `u32` field (ids, tenants, lengths).
fn get_varint_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    u32::try_from(get_varint(buf)?).map_err(|_| DecodeError::Overflow)
}

fn get_id(buf: &mut Bytes, base: Option<AoId>) -> Result<AoId, DecodeError> {
    let Some(code) = get_varint(buf)?.checked_sub(1) else {
        return base.ok_or(DecodeError::NoContext);
    };
    let index = u32::try_from(code >> 1).map_err(|_| DecodeError::Overflow)?;
    let node = if code & 1 == 1 {
        get_varint_u32(buf)?
    } else {
        base.ok_or(DecodeError::NoContext)?.node
    };
    Ok(AoId::new(node, index))
}

/// Writes the head byte (adding the addressing flags to `head`) and the
/// two addressing ids it does not elide.
fn put_head(buf: &mut impl BufMut, prev: &mut Prev, head: u8, from: AoId, to: AoId) {
    let head = head | flag(prev.from == Some(from), SAME_FROM) | flag(prev.to == Some(to), SAME_TO);
    buf.put_u8(head);
    if head & SAME_FROM == 0 {
        put_id(buf, from, prev.from);
    }
    if head & SAME_TO == 0 {
        put_id(buf, to, prev.to);
    }
    prev.from = Some(from);
    prev.to = Some(to);
}

/// What `Dgc` and `Resp` share: head, addressing, the unit's own id
/// when it is not `from` (`kinds` = plain, detached), and the clock.
fn put_unit(
    buf: &mut impl BufMut,
    prev: &mut Prev,
    kinds: (u8, u8),
    flags: u8,
    (from, to): (AoId, AoId),
    unit_id: AoId,
    clock: NamedClock,
) {
    let kind = if unit_id == from { kinds.0 } else { kinds.1 };
    let same_clock = flag(prev.clock == Some(clock), SAME_CLOCK);
    put_head(buf, prev, kind | flags | same_clock, from, to);
    if unit_id != from {
        put_id(buf, unit_id, Some(from));
    }
    if same_clock == 0 {
        put_varint(buf, clock.value);
        put_id(buf, clock.owner, Some(unit_id));
    }
    prev.clock = Some(clock);
}

fn put_item(buf: &mut impl BufMut, prev: &mut Prev, item: &Item) {
    match item {
        Item::Dgc { from, to, message } => {
            let same_ttb = flag(prev.ttb == Some(message.sender_ttb), DGC_SAME_TTB);
            put_unit(
                buf,
                prev,
                (ITEM_DGC, ITEM_DGC_DETACHED),
                same_ttb | flag(message.consensus, DGC_CONSENSUS),
                (*from, *to),
                message.sender,
                message.clock,
            );
            if same_ttb == 0 {
                put_varint(buf, message.sender_ttb.as_nanos());
            }
            prev.ttb = Some(message.sender_ttb);
        }
        Item::Resp { from, to, response } => {
            put_unit(
                buf,
                prev,
                (ITEM_RESP, ITEM_RESP_DETACHED),
                flag(response.has_parent, RESP_HAS_PARENT)
                    | flag(response.consensus_reached, RESP_CONSENSUS_REACHED),
                (*from, *to),
                response.responder,
                response.clock,
            );
            if prev.depth {
                put_varint(buf, response.depth.map_or(0, |d| u64::from(d) + 1));
            }
        }
        Item::Farewell { from, to, age } => {
            put_head(buf, prev, ITEM_FAREWELL, *from, *to);
            put_varint(buf, age.map_or(0, |a| a.as_nanos() / 1_000 + 1));
        }
        Item::SendFailure { holder, target } => put_head(buf, prev, ITEM_FAIL, *target, *holder),
        Item::Gossip { from, to, digest } => {
            buf.put_u8(ITEM_GOSSIP);
            put_varint(buf, u64::from(*from));
            put_varint(buf, u64::from(*to));
            membership_wire::put_digest(buf, digest);
        }
        Item::App {
            from,
            to,
            reply,
            tenant,
            payload,
        } => {
            // dgc-analysis: allow(hot-path-panic): encode-side contract: a wire-limit breach is a local bug, not remote input
            assert!(
                payload.len() <= MAX_APP_PAYLOAD,
                "app payload of {} bytes exceeds MAX_APP_PAYLOAD",
                payload.len()
            );
            put_head(buf, prev, ITEM_APP | flag(*reply, APP_REPLY), *from, *to);
            put_varint(buf, u64::from(*tenant));
            put_varint(buf, payload.len() as u64);
            buf.put_slice(payload);
        }
    }
}

/// Reads one delta-coded field: what the frame last stated when `same`,
/// otherwise whatever `read` decodes. Either way it is the context for
/// the items that follow.
fn delta<T: Copy>(
    same: bool,
    prev: &mut Option<T>,
    read: impl FnOnce() -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let value = if same {
        prev.ok_or(DecodeError::NoContext)?
    } else {
        read()?
    };
    *prev = Some(value);
    Ok(value)
}

/// The decode side of [`put_unit`], after the addressing: the unit's
/// own id and its clock.
fn get_unit(
    buf: &mut Bytes,
    prev: &mut Prev,
    head: u8,
    detached: bool,
    from: AoId,
) -> Result<(AoId, NamedClock), DecodeError> {
    let unit_id = if detached {
        get_id(buf, Some(from))?
    } else {
        from
    };
    let clock = delta(head & SAME_CLOCK != 0, &mut prev.clock, || {
        let value = get_varint(buf)?;
        let owner = get_id(buf, Some(unit_id))?;
        Ok(NamedClock { value, owner })
    })?;
    Ok((unit_id, clock))
}

fn get_item(buf: &mut Bytes, prev: &mut Prev) -> Result<Item, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let head = buf.get_u8();
    let kind = head & KIND_MASK;
    let known_flags = match kind {
        ITEM_DGC | ITEM_DGC_DETACHED | ITEM_RESP | ITEM_RESP_DETACHED => !KIND_MASK,
        ITEM_FAIL | ITEM_FAREWELL => SAME_FROM | SAME_TO,
        ITEM_APP => SAME_FROM | SAME_TO | APP_REPLY,
        ITEM_GOSSIP => 0,
        _ => return Err(DecodeError::BadTag(head)),
    };
    if head & !(KIND_MASK | known_flags) != 0 {
        return Err(DecodeError::BadTag(head));
    }
    if kind == ITEM_GOSSIP {
        let from = get_varint_u32(buf)?;
        let to = get_varint_u32(buf)?;
        let digest = membership_wire::get_digest(buf)?;
        return Ok(Item::Gossip { from, to, digest });
    }
    let base = prev.from;
    let from = delta(head & SAME_FROM != 0, &mut prev.from, || get_id(buf, base))?;
    let base = prev.to;
    let to = delta(head & SAME_TO != 0, &mut prev.to, || get_id(buf, base))?;
    Ok(match kind {
        ITEM_DGC | ITEM_DGC_DETACHED => {
            let (sender, clock) = get_unit(buf, prev, head, kind == ITEM_DGC_DETACHED, from)?;
            let sender_ttb = delta(head & DGC_SAME_TTB != 0, &mut prev.ttb, || {
                Ok(Dur::from_nanos(get_varint(buf)?))
            })?;
            let message = DgcMessage {
                sender,
                clock,
                consensus: head & DGC_CONSENSUS != 0,
                sender_ttb,
            };
            Item::Dgc { from, to, message }
        }
        ITEM_RESP | ITEM_RESP_DETACHED => {
            let (responder, clock) = get_unit(buf, prev, head, kind == ITEM_RESP_DETACHED, from)?;
            let depth = if prev.depth {
                get_varint(buf)?
                    .checked_sub(1)
                    .map(u32::try_from)
                    .transpose()
                    .map_err(|_| DecodeError::Overflow)?
            } else {
                None
            };
            let response = DgcResponse {
                responder,
                clock,
                has_parent: head & RESP_HAS_PARENT != 0,
                consensus_reached: head & RESP_CONSENSUS_REACHED != 0,
                depth,
            };
            Item::Resp { from, to, response }
        }
        ITEM_FAREWELL => {
            let age = match get_varint(buf)?.checked_sub(1) {
                None => None,
                Some(us) => Some(Dur::from_nanos(
                    us.checked_mul(1_000).ok_or(DecodeError::Overflow)?,
                )),
            };
            Item::Farewell { from, to, age }
        }
        ITEM_FAIL => Item::SendFailure {
            holder: to,
            target: from,
        },
        ITEM_APP => {
            let tenant = get_varint_u32(buf)?;
            let len = get_varint_u32(buf)? as usize;
            if len > MAX_APP_PAYLOAD {
                return Err(DecodeError::BadTag(head));
            }
            if buf.remaining() < len {
                return Err(DecodeError::Truncated);
            }
            Item::App {
                from,
                to,
                reply: head & APP_REPLY != 0,
                tenant,
                payload: buf.split_to(len),
            }
        }
        _ => return Err(DecodeError::BadTag(head)),
    })
}

/// Single source of truth for the batch payload layout.
fn put_batch(buf: &mut impl BufMut, items: &[Item]) {
    // dgc-analysis: allow(hot-path-panic): encode-side contract: a wire-limit breach is a local bug, not remote input
    assert!(
        items.len() <= MAX_BATCH_ITEMS as usize,
        "batch of {} items exceeds MAX_BATCH_ITEMS",
        items.len()
    );
    let depth = items
        .iter()
        .any(|item| matches!(item, Item::Resp { response, .. } if response.depth.is_some()));
    buf.put_u8(if depth { TAG_BATCH_DEPTH } else { TAG_BATCH });
    put_varint(buf, items.len() as u64);
    let mut prev = Prev::new(depth);
    for item in items {
        put_item(buf, &mut prev, item);
    }
}

/// Single source of truth for the payload layout of every frame kind.
fn put_frame(buf: &mut impl BufMut, frame: &Frame) {
    match frame {
        Frame::Hello { node, version } => {
            buf.put_u8(TAG_HELLO);
            buf.put_u8(*version);
            buf.put_u32(*node);
        }
        Frame::Batch(items) => put_batch(buf, items),
        Frame::AuthInit { nonce } => {
            buf.put_u8(TAG_AUTH_INIT);
            buf.put_slice(nonce);
        }
        Frame::AuthChallenge { nonce, mac } => {
            buf.put_u8(TAG_AUTH_CHALLENGE);
            buf.put_slice(nonce);
            buf.put_slice(mac);
        }
        Frame::AuthProof { mac } => {
            buf.put_u8(TAG_AUTH_PROOF);
            buf.put_slice(mac);
        }
    }
}

/// Encodes `frame` *without* the length prefix (the payload).
pub fn encode_payload(frame: &Frame) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    put_frame(&mut buf, frame);
    buf.freeze()
}

fn get_array<const N: usize>(buf: &mut Bytes) -> Result<[u8; N], DecodeError> {
    if buf.remaining() < N {
        return Err(DecodeError::Truncated);
    }
    let mut out = [0u8; N];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Decodes a payload produced by [`encode_payload`]. Trailing garbage
/// after a structurally complete frame is an error (`BadTag`), since a
/// length-prefixed link never legitimately concatenates payloads.
pub fn decode_payload(mut buf: Bytes) -> Result<Frame, DecodeError> {
    if let Some(batch) = BatchReader::open(buf.clone())? {
        let mut items = Vec::with_capacity((batch.remaining() as usize).min(MAX_ITEMS_PER_FRAME));
        for item in batch {
            items.push(item?);
        }
        return Ok(Frame::Batch(items));
    }
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let frame = match buf.get_u8() {
        TAG_HELLO => {
            if buf.remaining() < 5 {
                return Err(DecodeError::Truncated);
            }
            let version = buf.get_u8();
            let node = buf.get_u32();
            Frame::Hello { node, version }
        }
        TAG_AUTH_INIT => Frame::AuthInit {
            nonce: get_array(&mut buf)?,
        },
        TAG_AUTH_CHALLENGE => Frame::AuthChallenge {
            nonce: get_array(&mut buf)?,
            mac: get_array(&mut buf)?,
        },
        TAG_AUTH_PROOF => Frame::AuthProof {
            mac: get_array(&mut buf)?,
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    if buf.remaining() != 0 {
        return Err(DecodeError::BadTag(0));
    }
    Ok(frame)
}

/// The items of one batch payload, decoded one at a time against the
/// frame's context. The read path dispatches straight from it, so no
/// batch of decoded items is ever held; [`decode_payload`] collects it.
/// After the last item it checks the payload is used up: trailing bytes
/// are an error (`BadTag(0)`), as in [`decode_payload`]. After an error
/// it yields nothing more.
#[derive(Debug)]
pub(crate) struct BatchReader {
    buf: Bytes,
    prev: Prev,
    left: u32,
}

impl BatchReader {
    /// Reads a payload's batch header — tag and item count. `Ok(None)`
    /// when the payload is not a batch (a handshake frame).
    pub(crate) fn open(mut payload: Bytes) -> Result<Option<BatchReader>, DecodeError> {
        let tag = match payload.as_slice().first() {
            Some(&tag @ (TAG_BATCH | TAG_BATCH_DEPTH)) => tag,
            _ => return Ok(None),
        };
        payload.get_u8();
        let count = get_varint_u32(&mut payload)?;
        if count > MAX_BATCH_ITEMS {
            return Err(DecodeError::BadTag(tag));
        }
        // Every item is at least its head byte: a count the payload
        // cannot hold is refused before anything is allocated for it.
        if count as usize > payload.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(Some(BatchReader {
            buf: payload,
            prev: Prev::new(tag == TAG_BATCH_DEPTH),
            left: count,
        }))
    }

    /// Items not yet read.
    pub(crate) fn remaining(&self) -> u32 {
        self.left
    }

    /// Decodes every item and keeps none: the item count when the whole
    /// payload is a well-formed batch.
    pub(crate) fn validate(self) -> Result<u32, DecodeError> {
        let count = self.left;
        for item in self {
            item?;
        }
        Ok(count)
    }
}

impl Iterator for BatchReader {
    type Item = Result<Item, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            if self.buf.is_empty() {
                return None;
            }
            self.buf = Bytes::new();
            return Some(Err(DecodeError::BadTag(0)));
        }
        self.left -= 1;
        let item = get_item(&mut self.buf, &mut self.prev);
        if item.is_err() {
            self.left = 0;
            self.buf = Bytes::new();
        }
        Some(item)
    }
}

/// One frame off the wire as the read path takes it: a batch checked
/// whole but still in its bytes, or a decoded handshake frame.
pub(crate) enum Incoming {
    /// A well-formed batch payload and its item count.
    Batch { payload: Bytes, items: u32 },
    /// `Hello` or an `Auth*` frame.
    Control(Frame),
}

/// Checks one payload off the wire: a batch is decoded through once and
/// kept as bytes, so a corrupt frame is refused before any of its items
/// acts; anything else is decoded.
pub(crate) fn check_payload(payload: Bytes) -> Result<Incoming, DecodeError> {
    match BatchReader::open(payload.clone())? {
        Some(batch) => Ok(Incoming::Batch {
            items: batch.validate()?,
            payload,
        }),
        None => decode_payload(payload).map(Incoming::Control),
    }
}

/// Backfills the 4-byte length placeholder a frame was encoded behind,
/// so no intermediate buffer is copied.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - 4) as u32;
    // dgc-analysis: allow(hot-path-panic): the 4-byte length placeholder is written before any payload
    out[..4].copy_from_slice(&len.to_be_bytes());
    out
}

/// Encodes `frame` with its 4-byte length prefix — exactly the bytes a
/// link writes to the socket.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = vec![0u8; 4];
    put_frame(&mut out, frame);
    seal(out)
}

/// Encodes a batch frame (length prefix included) straight from a
/// borrowed slice, without cloning items into a `Frame`: the whole-batch
/// form of what a [`FrameBuilder`] seals one item at a time, and the
/// reference its frames are checked against. Reserves the context-free
/// bound [`FRAME_OVERHEAD`]` + Σ `[`Item::wire_size`] up front, so
/// encoding never reallocates; the frame is usually several times
/// smaller.
pub fn encode_batch_frame(items: &[Item]) -> Vec<u8> {
    let bound = FRAME_OVERHEAD + items.iter().map(Item::wire_size).sum::<u64>();
    let mut out = Vec::with_capacity(bound as usize);
    out.put_u32(0);
    put_batch(&mut out, items);
    debug_assert!(out.len() as u64 <= bound, "wire_size is not an upper bound");
    seal(out)
}

/// The largest length prefix plus batch header, in bytes: `len`, the
/// tag and a count of up to [`MAX_BATCH_ITEMS`] items (a three-byte
/// varint). A frame of `n` items spends exactly `5 + varint_len(n)`
/// — six bytes below 128 items, the fig. 8-style batching saving per
/// frame that `frame_props` pins exactly; this constant is the bound
/// writers reserve and split against.
pub const FRAME_OVERHEAD: u64 = 4 + 1 + 3;

/// Items per written frame, kept orders of magnitude under both
/// [`MAX_BATCH_ITEMS`] and [`MAX_FRAME_LEN`]. Oversized flushes are
/// split across frames at this boundary.
pub const MAX_ITEMS_PER_FRAME: usize = 4096;

/// Payload bytes per written frame (item encodings, headers excluded):
/// half of [`MAX_FRAME_LEN`], so no flush — whatever the egress
/// policy's `max_bytes` allows — can produce a frame the receiver's
/// decoder rejects as oversized. A single item always fits
/// ([`MAX_APP_PAYLOAD`] is far smaller).
pub const MAX_BYTES_PER_FRAME: u64 = (MAX_FRAME_LEN as u64) / 2;

/// How many leading items of `items` fit in one wire frame: up to
/// [`MAX_ITEMS_PER_FRAME`] items or [`MAX_BYTES_PER_FRAME`] payload
/// bytes by the context-free [`Item::wire_size`] bound, whichever bites
/// first. Always at least 1 for a non-empty slice (a single item can
/// never exceed the byte bound, so oversized queues always make
/// progress). A [`FrameBuilder`] starts a new frame at exactly this
/// boundary, and `frame_props` fuzzes it directly.
pub fn split_len(items: &[Item]) -> usize {
    let mut end = 0;
    let mut bytes = 0u64;
    while end < items.len().min(MAX_ITEMS_PER_FRAME) {
        // dgc-analysis: allow(hot-path-panic): end < items.len() is the loop bound
        bytes += items[end].wire_size();
        if end > 0 && bytes > MAX_BYTES_PER_FRAME {
            break;
        }
        end += 1;
    }
    end
}

/// Room an open frame keeps in front of its items for the largest
/// length prefix and batch header; sealing writes the real header
/// right-aligned into it, so the items are never moved.
const HEADER_ROOM: usize = FRAME_OVERHEAD as usize;

/// A batch frame ready for the socket: exactly the bytes
/// [`encode_batch_frame`] builds for its items, length prefix included.
///
/// Frames are self-contained — the encoding context resets at every
/// frame — so a sealed frame is also its own salvage: a link that dies
/// mid-write sends it again whole, a reroute moves it to the other path
/// unchanged, and only the cold paths that must see the units again
/// ([`SealedFrame::into_items`]) decode it.
#[derive(Debug, Clone)]
pub struct SealedFrame {
    /// The frame is `buf[start..]`; the bytes before it are unused
    /// header room.
    buf: Vec<u8>,
    start: usize,
    items: u32,
}

impl SealedFrame {
    /// A handshake frame (`Hello`, `Auth*`) on the same write path:
    /// it carries no items.
    pub(crate) fn handshake(frame: &Frame) -> SealedFrame {
        SealedFrame {
            buf: encode_frame(frame),
            start: 0,
            items: 0,
        }
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or_default()
    }

    /// Items inside (0 for a handshake frame).
    pub fn items(&self) -> u32 {
        self.items
    }

    /// Decodes the frame back into its items: the cold paths
    /// (reroute failure, a convicted peer, a departed destination).
    pub fn into_items(self) -> Vec<Item> {
        if self.items == 0 {
            return Vec::new();
        }
        let end = self.buf.len();
        match decode_payload(Bytes::from(self.buf).slice(self.start + 4..end)) {
            Ok(Frame::Batch(items)) => items,
            _ => {
                debug_assert!(false, "a sealed frame always decodes");
                Vec::new()
            }
        }
    }
}

impl PartialEq for SealedFrame {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for SealedFrame {}

/// A fixed-size sink for one frame header.
struct HeaderBuf {
    bytes: [u8; HEADER_ROOM],
    len: usize,
}

impl BufMut for HeaderBuf {
    fn put_slice(&mut self, src: &[u8]) {
        if let Some(dst) = self.bytes.get_mut(self.len..self.len + src.len()) {
            dst.copy_from_slice(src);
        }
        self.len += src.len();
    }
}

/// An open batch frame. Each pushed item is encoded at once, with the
/// same context-compressed encoding the batch encoder uses, and
/// [`FrameBuilder::finish`] seals what was pushed into the frames that
/// [`split_len`] and [`encode_batch_frame`] build from the same items,
/// byte for byte: a new frame starts where `split_len` would cut, and a
/// response with a depth arriving after depthless ones re-encodes the
/// open frame under the `0xF5` tag.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    /// Header room, then the open frame's items; empty while no frame
    /// is open.
    buf: Vec<u8>,
    prev: Prev,
    /// Items in the open frame.
    count: u32,
    /// The open frame's `Σ wire_size`, what `split_len` cuts on.
    bound: u64,
    /// Whether the open frame holds a `Resp`.
    resp: bool,
    /// Frames closed at a split, oldest first.
    sealed: Vec<SealedFrame>,
    /// Items in `sealed`.
    sealed_items: usize,
    /// Bytes of the last frame sealed: the next one reserves as much.
    last_len: usize,
}

impl FrameBuilder {
    /// Empty builder.
    pub fn new() -> FrameBuilder {
        FrameBuilder::default()
    }

    /// `items` sealed into frames, as a flush of a queue they were
    /// pushed to in this order would hand them over.
    pub fn seal_items(items: &[Item]) -> Vec<SealedFrame> {
        let mut frames = FrameBuilder::new();
        for item in items {
            frames.push(item, item.wire_size());
        }
        frames.finish()
    }

    /// Appends `item`, whose [`Item::wire_size`] is `size`.
    pub fn push(&mut self, item: &Item, size: u64) {
        debug_assert_eq!(size, item.wire_size(), "size is the item's wire_size");
        if self.count as usize >= MAX_ITEMS_PER_FRAME
            || (self.count > 0 && self.bound + size > MAX_BYTES_PER_FRAME)
        {
            self.seal_open();
        }
        if self.buf.is_empty() {
            self.buf
                .reserve(self.last_len.max(HEADER_ROOM + size as usize));
            self.buf.resize(HEADER_ROOM, 0);
        }
        if let Item::Resp { response, .. } = item {
            if response.depth.is_some() && !self.prev.depth {
                if self.resp {
                    self.reencode_with_depth();
                } else {
                    self.prev.depth = true;
                }
            }
            self.resp = true;
        }
        put_item(&mut self.buf, &mut self.prev, item);
        self.count += 1;
        self.bound += size;
    }

    /// Items pushed and not yet handed over by [`FrameBuilder::finish`].
    pub fn len(&self) -> usize {
        self.sealed_items + self.count as usize
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the open frame and hands over every frame sealed since the
    /// last call, oldest first. The builder is empty afterwards.
    pub fn finish(&mut self) -> Vec<SealedFrame> {
        self.seal_open();
        self.sealed_items = 0;
        std::mem::take(&mut self.sealed)
    }

    /// Writes the open frame's header into its room and moves it to
    /// `sealed`.
    fn seal_open(&mut self) {
        if self.count == 0 {
            return;
        }
        let mut buf = std::mem::take(&mut self.buf);
        let body = buf.len() - HEADER_ROOM;
        let mut header = HeaderBuf {
            bytes: [0; HEADER_ROOM],
            len: 0,
        };
        header.put_u32(0);
        header.put_u8(if self.prev.depth {
            TAG_BATCH_DEPTH
        } else {
            TAG_BATCH
        });
        put_varint(&mut header, u64::from(self.count));
        let len = (header.len - 4 + body) as u32;
        if let Some(prefix) = header.bytes.get_mut(..4) {
            prefix.copy_from_slice(&len.to_be_bytes());
        }
        let start = HEADER_ROOM - header.len;
        if let (Some(dst), Some(src)) = (
            buf.get_mut(start..HEADER_ROOM),
            header.bytes.get(..header.len),
        ) {
            dst.copy_from_slice(src);
        }
        self.last_len = buf.len();
        self.sealed.push(SealedFrame {
            buf,
            start,
            items: self.count,
        });
        self.sealed_items += self.count as usize;
        self.prev = Prev::default();
        self.count = 0;
        self.bound = 0;
        self.resp = false;
    }

    /// The open frame's items, re-encoded with a depth in every `Resp`:
    /// the first depth arrived after a depthless response. Rare — only
    /// `ParentPolicy::MinDepth` sends depths, and then nearly all of
    /// them carry one.
    fn reencode_with_depth(&mut self) {
        let body = Bytes::from(self.buf.get(HEADER_ROOM..).unwrap_or_default().to_vec());
        let items = BatchReader {
            buf: body,
            prev: Prev::new(false),
            left: self.count,
        };
        let mut buf = Vec::with_capacity(self.buf.capacity() + self.count as usize);
        buf.resize(HEADER_ROOM, 0);
        let mut prev = Prev::new(true);
        for item in items {
            match item {
                Ok(item) => put_item(&mut buf, &mut prev, &item),
                Err(_) => debug_assert!(false, "an open frame always decodes"),
            }
        }
        self.buf = buf;
        self.prev = prev;
    }
}

/// The egress queue of one peer on a socket node: a pair of open
/// frames, one per path of the §2.2 routing discipline
/// ([`Item::travels_forward`]). Each unit is encoded into its frame as
/// it is enqueued, so a flush hands the link layer sealed wire bytes
/// and no unit waits as a decoded [`Item`]. The outbox still charges
/// every unit its [`Item::wire_size`] against the policy's byte bound.
#[derive(Debug, Default)]
pub struct PeerFrames {
    forward: FrameBuilder,
    back: FrameBuilder,
    /// Tenants of the queued application units, oldest first (the
    /// per-tenant ledger counts them out at the flush).
    app_tenants: Vec<u32>,
}

/// One flush of a [`PeerFrames`] queue.
#[derive(Debug)]
pub struct PeerBatch {
    /// Frames for the link this node dialed, oldest first.
    pub forward: Vec<SealedFrame>,
    /// Frames for the reply path of the peer's socket, oldest first.
    pub back: Vec<SealedFrame>,
    /// Tenants of the application units inside, oldest first.
    pub app_tenants: Vec<u32>,
}

impl PeerBatch {
    /// Items across both paths.
    pub fn items(&self) -> u64 {
        self.forward
            .iter()
            .chain(&self.back)
            .map(|f| u64::from(f.items()))
            .sum()
    }
}

impl EgressQueue<Item> for PeerFrames {
    type Batch = PeerBatch;

    fn push(&mut self, unit: QueuedItem<Item>) {
        let item = &unit.item;
        if let Item::App { tenant, .. } = item {
            self.app_tenants.push(*tenant);
        }
        let open = if item.travels_forward() {
            &mut self.forward
        } else {
            &mut self.back
        };
        open.push(item, unit.size);
    }

    fn len(&self) -> usize {
        self.forward.len() + self.back.len()
    }

    fn take(&mut self) -> PeerBatch {
        PeerBatch {
            forward: self.forward.finish(),
            back: self.back.finish(),
            app_tenants: std::mem::take(&mut self.app_tenants),
        }
    }

    /// The forward units, then the back ones, each oldest first.
    fn drain(&mut self) -> Vec<QueuedItem<Item>> {
        let batch = self.take();
        batch
            .forward
            .into_iter()
            .chain(batch.back)
            .flat_map(SealedFrame::into_items)
            .map(|item| QueuedItem {
                class: item.class(),
                size: item.wire_size(),
                item,
            })
            .collect()
    }
}

/// Incremental frame extractor: feed arbitrary byte chunks as they
/// arrive from a stream, take complete frames out. This is the exact
/// decode path the node's socket readers use, so the property tests that
/// split encodings at arbitrary boundaries exercise production code.
///
/// The decode path is **zero-copy**: once enough bytes have
/// accumulated, the whole accumulation buffer is frozen into a
/// refcounted [`Bytes`] and every frame — including each `App` payload
/// inside it — is carved out as a window into that one allocation.
/// Only a partial trailing frame is ever copied (back into the
/// accumulator when more bytes arrive), so cost scales with fragment
/// remainders, not with payload volume.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes still accumulating toward a complete frame. At most one of
    /// `acc`/`carry` is non-empty.
    acc: Vec<u8>,
    /// Unconsumed remainder of a frozen accumulation buffer; frames are
    /// split off its front without copying.
    carry: Bytes,
}

impl FrameDecoder {
    /// Empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        if !self.carry.is_empty() {
            debug_assert!(self.acc.is_empty());
            self.acc.extend_from_slice(self.carry.as_slice());
            self.carry = Bytes::new();
        }
        self.acc.extend_from_slice(chunk);
    }

    /// Extracts the next complete frame, if any.
    ///
    /// `Ok(None)` means "need more bytes"; an `Err` means the stream is
    /// corrupt and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        self.next_payload()?.map(decode_payload).transpose()
    }

    /// [`FrameDecoder::next_frame`] before decoding: the next complete
    /// frame's payload, a window into the receive buffer.
    pub(crate) fn next_payload(&mut self) -> Result<Option<Bytes>, DecodeError> {
        if self.carry.is_empty() {
            if self.acc.len() < 4 {
                return Ok(None);
            }
            let len =
                // dgc-analysis: allow(hot-path-panic): acc.len() >= 4 is checked just above
                u32::from_be_bytes([self.acc[0], self.acc[1], self.acc[2], self.acc[3]]) as usize;
            if len > MAX_FRAME_LEN {
                return Err(DecodeError::BadTag(0));
            }
            if self.acc.len() < 4 + len {
                return Ok(None);
            }
            // A complete frame is in: freeze the accumulator and decode
            // out of the shared buffer from here on.
            self.carry = Bytes::from(std::mem::take(&mut self.acc));
        }
        let head = self.carry.as_slice();
        if head.len() < 4 {
            return Ok(None);
        }
        // dgc-analysis: allow(hot-path-panic): head.len() >= 4 is checked just above
        let len = u32::from_be_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::BadTag(0));
        }
        if head.len() < 4 + len {
            return Ok(None);
        }
        self.carry.split_to(4);
        Ok(Some(self.carry.split_to(len)))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.acc.len() + self.carry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::clock::NamedClock;
    use dgc_core::units::Dur;

    fn msg(n: u32) -> DgcMessage {
        DgcMessage {
            sender: AoId::new(n, 1),
            clock: NamedClock {
                value: 9,
                owner: AoId::new(n, 1),
            },
            consensus: false,
            sender_ttb: Dur::from_millis(25),
        }
    }

    fn resp(n: u32) -> DgcResponse {
        DgcResponse {
            responder: AoId::new(n, 0),
            clock: NamedClock::initial(AoId::new(n, 0)),
            has_parent: true,
            consensus_reached: false,
            depth: Some(2),
        }
    }

    fn sample_batch() -> Frame {
        Frame::Batch(vec![
            Item::Dgc {
                from: AoId::new(0, 1),
                to: AoId::new(1, 0),
                message: msg(0),
            },
            Item::Resp {
                from: AoId::new(1, 0),
                to: AoId::new(0, 1),
                response: resp(1),
            },
            Item::SendFailure {
                holder: AoId::new(0, 1),
                target: AoId::new(1, 9),
            },
            Item::Gossip {
                from: 0,
                to: 1,
                digest: Digest {
                    version: 7,
                    ack: 3,
                    full: false,
                    records: vec![
                        dgc_membership::NodeRecord {
                            node: 0,
                            incarnation: 2,
                            status: dgc_membership::NodeStatus::Alive,
                            addr: Some("127.0.0.1:40100".parse().unwrap()),
                        },
                        dgc_membership::NodeRecord {
                            node: 2,
                            incarnation: 1,
                            status: dgc_membership::NodeStatus::Dead,
                            addr: None,
                        },
                    ],
                },
            },
            Item::App {
                from: AoId::new(0, 1),
                to: AoId::new(1, 0),
                reply: false,
                tenant: 4,
                payload: vec![0xAB; 48].into(),
            },
            Item::App {
                from: AoId::new(1, 0),
                to: AoId::new(0, 1),
                reply: true,
                tenant: 0,
                payload: Bytes::new(),
            },
        ])
    }

    /// `items` with every response's depth cleared: the shape the default
    /// `FirstResponder` policy sends.
    fn without_depth(items: &[Item]) -> Vec<Item> {
        let mut items = items.to_vec();
        for item in &mut items {
            if let Item::Resp { response, .. } = item {
                response.depth = None;
            }
        }
        items
    }

    /// The exact length prefix and batch header of an `n`-item frame.
    fn header(n: usize) -> usize {
        let mut count = ByteCount(0);
        put_varint(&mut count, n as u64);
        5 + count.0 as usize
    }

    /// The v6 layout, pinned for both batch tags: an accidental change
    /// to the codec must fail here (and then bump [`PROTOCOL_VERSION`]),
    /// not on a peer.
    #[test]
    fn sample_batch_encoding_is_pinned() {
        let golden = |tag: u8, depth: &[u8]| {
            // Tag, then the count: six items.
            let mut golden = vec![tag, 6];
            // Dgc: head, from (0,1), to (1,0), clock 9 owned by the
            // sender, ttb 25 ms in nanoseconds.
            golden.extend([0x01, 0x04, 0x00, 0x02, 0x01, 0x09, 0x00]);
            golden.extend([0xC0, 0xF0, 0xF5, 0x0B]);
            // Resp: head (has_parent), from (1,0), to (0,1), clock 0
            // owned by the responder, then the depth if the tag has it.
            golden.extend([0x42, 0x02, 0x01, 0x04, 0x00, 0x00, 0x00]);
            golden.extend(depth);
            // SendFailure: head (SAME_TO: the holder is the Resp's `to`),
            // target index 9 on the previous `from`'s node.
            golden.extend([0x13, 0x13]);
            // Gossip: head, from 0, to 1, digest verbatim.
            golden.extend([0x04, 0x00, 0x01]);
            golden.extend([0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 2]);
            golden.extend([
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 4, 127, 0, 0, 1, 0x9C, 0xA4,
            ]);
            golden.extend([0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0]);
            // App request: head, from (0,1), to (1,0), tenant 4, 48 bytes.
            golden.extend([0x05, 0x04, 0x00, 0x02, 0x01, 0x04, 0x30]);
            golden.extend([0xAB; 48]);
            // App reply: head (reply), from (1,0), to (0,1), tenant 0,
            // empty.
            golden.extend([0x25, 0x02, 0x01, 0x04, 0x00, 0x00, 0x00]);
            golden
        };
        let Frame::Batch(items) = sample_batch() else {
            unreachable!()
        };
        // The response has depth 2: every response carries the field.
        let with_depth = encode_payload(&Frame::Batch(items.clone()));
        assert_eq!(with_depth.as_slice(), &golden(0xF5, &[0x03])[..]);
        // No response has a depth: none carries the field.
        let depthless = encode_payload(&Frame::Batch(without_depth(&items)));
        assert_eq!(depthless.as_slice(), &golden(0xF1, &[])[..]);
    }

    /// The farewell item, pinned: its head, the addressing every item
    /// shares, and the age in whole microseconds plus one — rounded down,
    /// so a decoded age is never older than the one sent.
    #[test]
    fn farewell_encoding_is_pinned() {
        let (from, to) = (AoId::new(0, 1), AoId::new(1, 0));
        let sent = Dur::from_nanos(1_500_999);
        let items = vec![
            Item::Farewell {
                from,
                to,
                age: None,
            },
            Item::Farewell {
                from,
                to,
                age: Some(sent),
            },
        ];
        let encoded = encode_payload(&Frame::Batch(items));
        // Tag, count; head, from (0,1), to (1,0), "never"; head with
        // SAME_FROM | SAME_TO, 1,500 µs + 1 as a varint.
        let golden = [
            0xF1, 2, 0x00, 0x04, 0x00, 0x02, 0x01, 0x00, 0x18, 0xDD, 0x0B,
        ];
        assert_eq!(encoded.as_slice(), &golden[..]);
        let Ok(Frame::Batch(decoded)) = decode_payload(encoded) else {
            panic!("a pinned batch decodes");
        };
        let age = Dur::from_nanos(1_500_000);
        assert_eq!(
            decoded[1],
            Item::Farewell {
                from,
                to,
                age: Some(age)
            }
        );
    }

    /// The shape a TTB sweep emits and the reason for the delta coding:
    /// after a sender's first heartbeat, each further one costs its head
    /// byte and the target's index; each response to them, its head, the
    /// responder's index and its clock.
    #[test]
    fn fan_out_after_the_first_item_costs_head_and_target_index() {
        let sender = AoId::new(0, 200);
        let fan_out: Vec<Item> = (0..8)
            .map(|k| Item::Dgc {
                from: sender,
                to: AoId::new(1, 100 + k),
                message: DgcMessage {
                    sender,
                    consensus: k % 2 == 1,
                    ..msg(0)
                },
            })
            .collect();
        let first = fan_out[0].wire_size() as usize;
        assert_eq!(first, 1 + (2 + 1) + (2 + 1) + (1 + 1) + 4);
        assert_eq!(
            encode_batch_frame(&fan_out).len(),
            header(8) + first + 7 * (1 + 2)
        );
        let responses: Vec<Item> = (0..8)
            .map(|k| Item::Resp {
                from: AoId::new(1, 100 + k),
                to: sender,
                response: DgcResponse {
                    responder: AoId::new(1, 100 + k),
                    clock: NamedClock::initial(AoId::new(1, 100 + k)),
                    depth: None,
                    ..resp(1)
                },
            })
            .collect();
        // The bound counts a depth byte the depth-free frame leaves out.
        let first = responses[0].wire_size() as usize - 1;
        assert_eq!(first, 1 + (2 + 1) + (2 + 1) + (1 + 1));
        assert_eq!(
            encode_batch_frame(&responses).len(),
            header(8) + first + 7 * (1 + 2 + (1 + 1))
        );
        for frame in [fan_out, responses].map(Frame::Batch) {
            assert_eq!(decode_payload(encode_payload(&frame)).unwrap(), frame);
        }
    }

    /// Everything the common case elides, stated: a sender that is not
    /// `from`, a clock owned by a third party, extreme values, a TTB
    /// that changes mid-frame, and gossip in between (which must not
    /// disturb the context the items around it share).
    #[test]
    fn uncommon_items_round_trip_inside_one_frame() {
        let far = AoId::new(u32::MAX, u32::MAX);
        let dgc = |ttb: u64, sender: AoId, owner: AoId| Item::Dgc {
            from: AoId::new(0, 1),
            to: AoId::new(1, 0),
            message: DgcMessage {
                sender,
                clock: NamedClock {
                    value: u64::MAX,
                    owner,
                },
                consensus: true,
                sender_ttb: Dur::from_nanos(ttb),
            },
        };
        let Frame::Batch(sample) = sample_batch() else {
            unreachable!()
        };
        let gossip = sample[3].clone();
        let frame = Frame::Batch(vec![
            dgc(u64::MAX, AoId::new(0, 1), AoId::new(7, 7)),
            gossip,
            dgc(u64::MAX, AoId::new(0, 1), AoId::new(7, 7)),
            dgc(0, far, far),
            Item::Resp {
                from: far,
                to: AoId::new(0, 0),
                response: DgcResponse {
                    responder: AoId::new(0, 0),
                    clock: NamedClock {
                        value: u64::MAX,
                        owner: far,
                    },
                    has_parent: false,
                    consensus_reached: true,
                    depth: Some(u32::MAX),
                },
            },
            Item::App {
                from: far,
                to: far,
                reply: true,
                tenant: u32::MAX,
                payload: vec![1, 2, 3].into(),
            },
        ]);
        let payload = encode_payload(&frame);
        assert_eq!(decode_payload(payload.clone()).unwrap(), frame);
        // The repeated heartbeat is its head byte alone, gossip or not.
        let Frame::Batch(items) = &frame else {
            unreachable!()
        };
        let without_repeat: Vec<Item> = [&items[..2], &items[3..]].concat();
        assert_eq!(
            encode_payload(&Frame::Batch(without_repeat)).len() + 1,
            payload.len()
        );
    }

    /// Decodes a hand-built batch: `tag`, the varint `count`, `items`.
    fn tagged_batch(tag: u8, count: u32, items: &[u8]) -> Result<Frame, DecodeError> {
        let mut raw = vec![tag];
        put_varint(&mut raw, u64::from(count));
        raw.extend(items);
        decode_payload(Bytes::from(raw))
    }

    fn batch_of(count: u32, items: &[u8]) -> Result<Frame, DecodeError> {
        tagged_batch(TAG_BATCH, count, items)
    }

    #[test]
    fn same_as_previous_on_a_first_item_is_rejected() {
        // SendFailure with both ids elided, SendFailure naming "the
        // previous node" and "the previous id", a Dgc eliding its clock
        // and one eliding its TTB: none has a previous item to lean on.
        let cases: [&[u8]; 6] = [
            &[ITEM_FAIL | SAME_FROM, 0x02, 0x01],
            &[ITEM_FAIL | SAME_TO, 0x02, 0x01],
            &[ITEM_FAIL, 0x01, 0x02, 0x01],
            &[ITEM_FAIL, 0x00, 0x02, 0x01],
            &[ITEM_DGC | SAME_CLOCK, 0x04, 0x00, 0x02, 0x01, 0x19],
            &[ITEM_DGC | DGC_SAME_TTB, 0x04, 0x00, 0x02, 0x01, 0x09, 0x00],
        ];
        for case in cases {
            assert_eq!(
                batch_of(1, case),
                Err(DecodeError::NoContext),
                "{case:02X?}"
            );
        }
        // The same bytes are fine once an item has set the context.
        let mut second = vec![ITEM_DGC, 0x04, 0x00, 0x02, 0x01, 0x09, 0x00, 0x19];
        second.extend([ITEM_FAIL | SAME_FROM | SAME_TO]);
        second.extend([ITEM_DGC | SAME_FROM | SAME_TO | SAME_CLOCK | DGC_SAME_TTB]);
        let Ok(Frame::Batch(items)) = batch_of(3, &second) else {
            panic!("context set by the first item must serve the rest");
        };
        assert_eq!(items[0], items[2]);
    }

    #[test]
    fn unknown_head_bits_are_bad_tags() {
        let bad_heads = [
            ITEM_FAREWELL | SAME_CLOCK,    // a farewell has no clock
            ITEM_FAREWELL | DGC_CONSENSUS, // ... nor any bit of its own
            ITEM_FAIL | SAME_CLOCK,        // a SendFailure has no clock
            ITEM_FAIL | DGC_CONSENSUS,     //
            ITEM_GOSSIP | SAME_FROM,       // gossip carries no flag at all
            ITEM_GOSSIP | APP_REPLY,       //
            ITEM_APP | RESP_HAS_PARENT,    // bits 6 and 7 mean nothing on App
            ITEM_APP | DGC_CONSENSUS,      //
        ];
        for head in bad_heads {
            let body = [head, 0x04, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00];
            assert_eq!(batch_of(1, &body), Err(DecodeError::BadTag(head)));
        }
    }

    #[test]
    fn out_of_range_fields_are_overflows() {
        let too_wide = [0x80, 0x80, 0x80, 0x80, 0x10]; // 2^32
        let cases: [(u8, Vec<u8>); 7] = [
            // id: index past u32 (code = (2^32 << 1 | 1) + 1).
            (
                TAG_BATCH,
                [
                    &[ITEM_FAIL, 0x82, 0x80, 0x80, 0x80, 0x20, 0x00][..],
                    &[0x02, 0x01],
                ]
                .concat(),
            ),
            // id: node past u32.
            (
                TAG_BATCH,
                [&[ITEM_FAIL, 0x02][..], &too_wide, &[0x02, 0x01]].concat(),
            ),
            // gossip: node id past u32.
            (TAG_BATCH, [&[ITEM_GOSSIP][..], &too_wide].concat()),
            // app: tenant past u32.
            (
                TAG_BATCH,
                [&[ITEM_APP, 0x04, 0x00, 0x02, 0x01][..], &too_wide, &[0x00]].concat(),
            ),
            // resp in a batch with depths: depth past u32 (depth + 1 =
            // 2^32 + 1).
            (
                TAG_BATCH_DEPTH,
                [
                    &[ITEM_RESP, 0x04, 0x00, 0x02, 0x01, 0x00, 0x00][..],
                    &[0x81, 0x80, 0x80, 0x80, 0x10],
                ]
                .concat(),
            ),
            // farewell: an age whose nanoseconds pass u64 (µs + 1 =
            // 2^63 + 1).
            (
                TAG_BATCH,
                [
                    &[ITEM_FAREWELL, 0x04, 0x00, 0x02, 0x01][..],
                    &[0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
                ]
                .concat(),
            ),
            // dgc: an eleven-byte varint where the clock value goes.
            (
                TAG_BATCH,
                [&[ITEM_DGC, 0x04, 0x00, 0x02, 0x01][..], &[0x80; 11]].concat(),
            ),
        ];
        for (tag, case) in cases {
            assert_eq!(
                tagged_batch(tag, 1, &case),
                Err(DecodeError::Overflow),
                "{case:02X?}"
            );
        }
        // An app length inside u32 but past the payload cap is corrupt,
        // not a reason to wait for a megabyte that will never come.
        let oversized = [ITEM_APP, 0x04, 0x00, 0x02, 0x01, 0x00, 0x81, 0x80, 0x40];
        assert_eq!(batch_of(1, &oversized), Err(DecodeError::BadTag(ITEM_APP)));
    }

    #[test]
    fn item_count_is_checked_before_anything_is_allocated() {
        assert_eq!(
            batch_of(MAX_BATCH_ITEMS + 1, &[0; 16]),
            Err(DecodeError::BadTag(TAG_BATCH))
        );
        // A count the payload cannot possibly hold (every item is at
        // least a head byte) is refused up front.
        assert_eq!(
            batch_of(MAX_BATCH_ITEMS, &[ITEM_FAIL, 0x04, 0x00, 0x02, 0x01]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(batch_of(1, &[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn over_long_counts_are_overflows() {
        // 2^32 items, and a varint that never ends.
        for count in [&[0x80, 0x80, 0x80, 0x80, 0x10][..], &[0x80; 11]] {
            for tag in [TAG_BATCH, TAG_BATCH_DEPTH] {
                let raw = [&[tag][..], count, &[ITEM_FAIL, 0x02, 0x01]].concat();
                assert_eq!(
                    decode_payload(Bytes::from(raw)),
                    Err(DecodeError::Overflow),
                    "{tag:02X} {count:02X?}"
                );
            }
        }
    }

    #[test]
    fn the_tag_after_the_batch_tags_is_a_bad_tag() {
        let raw = vec![0xF6, 0x01, ITEM_FAIL, 0x02, 0x01, 0x04, 0x00];
        assert_eq!(
            decode_payload(Bytes::from(raw)),
            Err(DecodeError::BadTag(0xF6))
        );
    }

    /// The largest header is what writers reserve: a count of
    /// `MAX_BATCH_ITEMS` is a three-byte varint.
    #[test]
    fn frame_overhead_is_the_largest_header() {
        assert_eq!(header(MAX_BATCH_ITEMS as usize), FRAME_OVERHEAD as usize);
        assert_eq!(
            header(MAX_BATCH_ITEMS as usize + 1),
            FRAME_OVERHEAD as usize
        );
        assert_eq!(header(127), 6);
        assert_eq!(header(128), 7);
    }

    /// Under `MinDepth`, one response with a depth puts the field in
    /// every response of its frame; those without one still decode as
    /// `None`, not as depth 0.
    #[test]
    fn a_mixed_min_depth_batch_round_trips_with_none_preserved() {
        let items: Vec<Item> = [Some(0), Some(3), None]
            .into_iter()
            .enumerate()
            .map(|(k, depth)| Item::Resp {
                from: AoId::new(1, k as u32),
                to: AoId::new(0, 7),
                response: DgcResponse {
                    responder: AoId::new(1, k as u32),
                    clock: NamedClock::initial(AoId::new(1, k as u32)),
                    depth,
                    ..resp(1)
                },
            })
            .collect();
        let frame = Frame::Batch(items.clone());
        let payload = encode_payload(&frame);
        assert_eq!(payload.as_slice().first(), Some(&TAG_BATCH_DEPTH));
        assert_eq!(decode_payload(payload.clone()).unwrap(), frame);
        // Each response pays exactly its one depth byte for the tag.
        let depthless = encode_payload(&Frame::Batch(without_depth(&items)));
        assert_eq!(depthless.as_slice().first(), Some(&TAG_BATCH));
        assert_eq!(depthless.len() + 3, payload.len());
        // The bound still holds for the mixed frame.
        let bound = FRAME_OVERHEAD + items.iter().map(Item::wire_size).sum::<u64>();
        assert!(encode_batch_frame(&items).len() as u64 <= bound);
    }

    #[test]
    fn hello_round_trips() {
        let f = Frame::Hello {
            node: 7,
            version: PROTOCOL_VERSION,
        };
        assert_eq!(decode_payload(encode_payload(&f)).unwrap(), f);
    }

    #[test]
    fn batch_round_trips() {
        let f = sample_batch();
        assert_eq!(decode_payload(encode_payload(&f)).unwrap(), f);
    }

    #[test]
    fn auth_frames_round_trip() {
        let frames = [
            Frame::AuthInit { nonce: [0x11; 16] },
            Frame::AuthChallenge {
                nonce: [0x22; 16],
                mac: [0x33; 32],
            },
            Frame::AuthProof { mac: [0x44; 32] },
        ];
        for f in frames {
            assert_eq!(decode_payload(encode_payload(&f)).unwrap(), f);
        }
    }

    #[test]
    fn truncated_auth_frames_are_detected() {
        let payload = encode_payload(&Frame::AuthChallenge {
            nonce: [7; 16],
            mac: [9; 32],
        });
        for len in 0..payload.len() {
            assert!(
                decode_payload(payload.slice(0..len)).is_err(),
                "auth payload truncated to {len} must not decode"
            );
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let f = Frame::Batch(Vec::new());
        assert_eq!(decode_payload(encode_payload(&f)).unwrap(), f);
    }

    #[test]
    fn truncation_is_detected() {
        let payload = encode_payload(&sample_batch());
        for len in 0..payload.len() {
            assert!(
                decode_payload(payload.slice(0..len)).is_err(),
                "payload truncated to {len} must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let payload = encode_payload(&sample_batch());
        let mut raw = BytesMut::with_capacity(payload.len() + 1);
        raw.put_slice(payload.as_slice());
        raw.put_u8(0xEE);
        assert!(decode_payload(raw.freeze()).is_err());
    }

    #[test]
    fn decoder_reassembles_across_arbitrary_splits() {
        let frames = vec![
            Frame::Hello {
                node: 3,
                version: PROTOCOL_VERSION,
            },
            sample_batch(),
            Frame::Batch(Vec::new()),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        // Feed one byte at a time: the worst possible fragmentation.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn slice_encoder_matches_frame_encoder() {
        let Frame::Batch(items) = sample_batch() else {
            unreachable!()
        };
        assert_eq!(
            encode_batch_frame(&items),
            encode_frame(&Frame::Batch(items.clone()))
        );
        assert_eq!(encode_batch_frame(&[]), encode_frame(&Frame::Batch(vec![])));
    }

    #[test]
    fn item_wire_size_matches_the_encoder() {
        let Frame::Batch(items) = sample_batch() else {
            unreachable!()
        };
        for items in [items.clone(), without_depth(&items)] {
            // Exact for an item framed alone — less the depth byte a
            // depth-free response is framed without — and an upper bound
            // inside a batch.
            for item in &items {
                let depthless =
                    matches!(item, Item::Resp { response, .. } if response.depth.is_none());
                assert_eq!(
                    encode_batch_frame(std::slice::from_ref(item)).len(),
                    header(1) + item.wire_size() as usize - usize::from(depthless),
                    "size model drifted for {item:?}"
                );
            }
            let bound = FRAME_OVERHEAD + items.iter().map(Item::wire_size).sum::<u64>();
            assert!((encode_batch_frame(&items).len() as u64) < bound);
        }
    }

    #[test]
    fn item_classes_cover_every_plane() {
        use dgc_core::egress::EgressClass;
        let Frame::Batch(items) = sample_batch() else {
            unreachable!()
        };
        let classes: Vec<EgressClass> = items.iter().map(|i| i.class()).collect();
        assert_eq!(
            classes,
            vec![
                EgressClass::DgcMessage,
                EgressClass::DgcResponse,
                EgressClass::Control,
                EgressClass::Gossip,
                EgressClass::AppRequest,
                EgressClass::AppReply,
            ]
        );
    }

    #[test]
    fn oversized_length_prefix_is_corrupt() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_be_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn batched_frame_is_smaller_than_split_frames() {
        let items: Vec<Item> = (0..16)
            .map(|i| Item::Dgc {
                from: AoId::new(0, i),
                to: AoId::new(1, i),
                message: msg(0),
            })
            .collect();
        let batched = encode_batch_frame(&items).len();
        let unbatched: usize = items
            .iter()
            .map(|i| encode_batch_frame(std::slice::from_ref(i)).len())
            .sum();
        // Sharing a frame saves 15 headers and whatever the 15 later
        // items no longer restate.
        assert!(unbatched - batched > 16 * header(1) - header(16));
    }

    #[test]
    fn decoded_app_payload_is_a_window_into_the_receive_buffer() {
        let f = sample_batch();
        let mut dec = FrameDecoder::new();
        dec.push(&encode_frame(&f));
        // Pin the accumulated buffer's address range before decoding.
        let base = dec.acc.as_ptr() as usize;
        let len = dec.acc.len();
        let got = dec.next_frame().unwrap().unwrap();
        let Frame::Batch(items) = got else {
            unreachable!()
        };
        let Some(Item::App { payload, .. }) = items
            .iter()
            .find(|i| matches!(i, Item::App { payload, .. } if !payload.is_empty()))
        else {
            unreachable!()
        };
        let p = payload.as_slice().as_ptr() as usize;
        assert!(
            p >= base && p + payload.len() <= base + len,
            "App payload must alias the receive buffer, not a copy"
        );
    }
}
