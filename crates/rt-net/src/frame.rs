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
//! flags (bits 3-7)  3 SAME_FROM   4 SAME_TO       (kinds 1 2 3 5 6 7)
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
//! ```
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
//! Two byte accountings exist and model different things. The simulator
//! charges each unit the fixed [`dgc_core::wire`] encoding plus a
//! calibrated envelope: one Java-RMI call, as the paper measured.
//! `NetStats::bytes_sent` counts what this module writes to a socket.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use dgc_core::clock::NamedClock;
use dgc_core::egress::EgressClass;
use dgc_core::id::AoId;
use dgc_core::message::{DgcMessage, DgcResponse};
use dgc_core::units::Dur;
use dgc_core::wire::{get_varint, put_varint, DecodeError};
use dgc_membership::wire as membership_wire;
use dgc_membership::Digest;

/// Protocol version carried by [`Frame::Hello`]; bumped on any layout
/// change so mismatched nodes fail the handshake instead of
/// misinterpreting frames. Version 5: context-compressed batch items
/// (varints, intra-item elision, previous-item delta) behind a varint
/// item count, with a response's depth carried only in batches tagged
/// `0xF5` — those that hold a response with a depth.
pub const PROTOCOL_VERSION: u8 = 5;

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
            Item::Dgc { to, .. } | Item::Resp { to, .. } | Item::App { to, .. } => to.node,
            Item::SendFailure { holder, .. } => holder.node,
            Item::Gossip { to, .. } => *to,
        }
    }

    /// The egress class the item is metered and flushed under.
    pub fn class(&self) -> EgressClass {
        match self {
            Item::Dgc { .. } => EgressClass::DgcMessage,
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
#[derive(Default)]
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
        ITEM_FAIL => SAME_FROM | SAME_TO,
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
        tag @ (TAG_BATCH | TAG_BATCH_DEPTH) => {
            let count = get_varint_u32(&mut buf)?;
            if count > MAX_BATCH_ITEMS {
                return Err(DecodeError::BadTag(tag));
            }
            // Every item is at least its head byte: a count the payload
            // cannot hold is refused before anything is allocated for it.
            if count as usize > buf.remaining() {
                return Err(DecodeError::Truncated);
            }
            let mut items = Vec::with_capacity((count as usize).min(MAX_ITEMS_PER_FRAME));
            let mut prev = Prev::new(tag == TAG_BATCH_DEPTH);
            for _ in 0..count {
                items.push(get_item(&mut buf, &mut prev)?);
            }
            Frame::Batch(items)
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
/// borrowed slice, so the link layer can frame its queues without
/// cloning items into a `Frame`. Reserves the context-free bound
/// [`FRAME_OVERHEAD`]` + Σ `[`Item::wire_size`] up front, so encoding
/// never reallocates; the frame is usually several times smaller.
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
/// progress). The link layer splits its write queues at exactly this
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
        let payload = self.carry.split_to(len);
        decode_payload(payload).map(Some)
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

    /// The v5 layout, pinned for both batch tags: an accidental change
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
            0x00,                       // kind 0 does not exist
            SAME_FROM,                  // ... whatever flags it carries
            ITEM_FAIL | SAME_CLOCK,     // a SendFailure has no clock
            ITEM_FAIL | DGC_CONSENSUS,  //
            ITEM_GOSSIP | SAME_FROM,    // gossip carries no flag at all
            ITEM_GOSSIP | APP_REPLY,    //
            ITEM_APP | RESP_HAS_PARENT, // bits 6 and 7 mean nothing on App
            ITEM_APP | DGC_CONSENSUS,   //
        ];
        for head in bad_heads {
            let body = [head, 0x04, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00];
            assert_eq!(batch_of(1, &body), Err(DecodeError::BadTag(head)));
        }
    }

    #[test]
    fn out_of_range_fields_are_overflows() {
        let too_wide = [0x80, 0x80, 0x80, 0x80, 0x10]; // 2^32
        let cases: [(u8, Vec<u8>); 6] = [
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
