//! Property-based tests of the node-level frame codec, alongside the
//! protocol-unit properties in `core/tests/protocol_props.rs`: arbitrary
//! frames survive encode → concatenate → split-at-arbitrary-boundaries →
//! incremental decode, and corrupt inputs never panic.

use proptest::prelude::*;

use dgc_core::clock::NamedClock;
use dgc_core::egress::{EgressQueue, FlushPolicy, Outbox};
use dgc_core::id::AoId;
use dgc_core::message::{DgcMessage, DgcResponse};
use dgc_core::units::Dur;
use dgc_core::units::Time;
use dgc_core::wire::put_varint;
use dgc_rt_net::frame::{
    decode_payload, encode_batch_frame, encode_frame, encode_payload, split_len, FrameBuilder,
    FrameDecoder, PeerFrames, SealedFrame, FRAME_OVERHEAD, MAX_ITEMS_PER_FRAME,
};
use dgc_rt_net::{Frame, Item};

/// A `u32` drawn so the codec's special cases actually occur: mostly a
/// tiny pool (consecutive items then share ids and nodes, which is what
/// the previous-item delta keys on), sometimes the extreme, sometimes
/// anything.
fn arb_u32() -> impl Strategy<Value = u32> {
    (0u8..8, any::<u32>()).prop_map(|(pick, wild)| match pick {
        0 => u32::MAX,
        1 => wild,
        _ => wild % 3,
    })
}

/// The same for `u64` fields (clock values, TTBs): one- and two-byte
/// varints that repeat from item to item, `u64::MAX`, or anything.
fn arb_u64() -> impl Strategy<Value = u64> {
    (0u8..8, any::<u64>()).prop_map(|(pick, wild)| match pick {
        0 => u64::MAX,
        1 => wild,
        2 => 100 + wild % 200,
        _ => wild % 3,
    })
}

fn arb_aoid() -> impl Strategy<Value = AoId> {
    (arb_u32(), arb_u32()).prop_map(|(n, i)| AoId::new(n, i))
}

fn arb_record() -> impl Strategy<Value = dgc_membership::NodeRecord> {
    (
        any::<u32>(),
        any::<u64>(),
        0u8..4,
        proptest::option::of(any::<u16>()),
    )
        .prop_map(
            |(node, incarnation, status, port)| dgc_membership::NodeRecord {
                node,
                incarnation,
                status: match status {
                    0 => dgc_membership::NodeStatus::Alive,
                    1 => dgc_membership::NodeStatus::Suspect,
                    2 => dgc_membership::NodeStatus::Left,
                    _ => dgc_membership::NodeStatus::Dead,
                },
                addr: port.map(|p| std::net::SocketAddr::from(([127, 0, 0, 1], p))),
            },
        )
}

fn arb_digest() -> impl Strategy<Value = dgc_membership::Digest> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec(arb_record(), 0..5),
    )
        .prop_map(|(version, ack, full, records)| dgc_membership::Digest {
            version,
            ack,
            full,
            records,
        })
}

/// A farewell's age as the wire carries it — whole microseconds — or
/// "never".
fn arb_age() -> impl Strategy<Value = Option<Dur>> {
    proptest::option::of(arb_u64())
        .prop_map(|age| age.map(|ns| Dur::from_nanos(ns / 1_000 * 1_000)))
}

/// Any item. Three in four `Dgc`/`Resp` units are sent by the item's own
/// `from` and carry a clock they own, as in production; the rest name a
/// detached sender or a foreign clock owner.
fn arb_item() -> impl Strategy<Value = Item> {
    (
        0u8..6,
        (arb_aoid(), arb_aoid(), arb_aoid(), arb_aoid()),
        (0u8..4, 0u8..4),
        (arb_u64(), arb_u64(), proptest::option::of(arb_u32())),
        (any::<bool>(), any::<bool>()),
        arb_digest(),
        proptest::collection::vec(any::<u8>(), 0..64),
        arb_age(),
    )
        .prop_map(
            |(
                kind,
                (x, y, detached, foreign),
                (attach, own),
                (value, ttb, depth),
                (a, b),
                digest,
                payload,
                age,
            )| {
                let unit_id = if attach != 0 { x } else { detached };
                let clock = NamedClock {
                    value,
                    owner: if own != 0 { unit_id } else { foreign },
                };
                match kind {
                    0 => Item::Dgc {
                        from: x,
                        to: y,
                        message: DgcMessage {
                            sender: unit_id,
                            clock,
                            consensus: a,
                            sender_ttb: Dur::from_nanos(ttb),
                        },
                    },
                    1 => Item::Resp {
                        from: x,
                        to: y,
                        response: DgcResponse {
                            responder: unit_id,
                            clock,
                            has_parent: a,
                            consensus_reached: b,
                            depth,
                        },
                    },
                    2 => Item::SendFailure {
                        holder: x,
                        target: y,
                    },
                    3 => Item::Gossip {
                        from: x.node,
                        to: y.node,
                        digest,
                    },
                    4 => Item::Farewell {
                        from: x,
                        to: y,
                        age,
                    },
                    _ => Item::App {
                        from: x,
                        to: y,
                        reply: a,
                        tenant: x.index ^ y.index,
                        payload: payload.into(),
                    },
                }
            },
        )
}

/// A response's depth, `None` for any other item.
fn depth_of(item: &Item) -> Option<Option<u32>> {
    match item {
        Item::Resp { response, .. } => Some(response.depth),
        _ => None,
    }
}

/// The exact length prefix and batch header of an `n`-item frame: `len`,
/// the tag and the varint count.
fn header(n: usize) -> usize {
    let mut count = Vec::new();
    put_varint(&mut count, n as u64);
    5 + count.len()
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..4,
        any::<u32>(),
        proptest::collection::vec(arb_item(), 0..24),
    )
        .prop_map(|(kind, node, items)| {
            if kind == 0 {
                Frame::Hello {
                    node,
                    version: dgc_rt_net::frame::PROTOCOL_VERSION,
                }
            } else {
                Frame::Batch(items)
            }
        })
}

proptest! {
    /// Any frame's payload round-trips through the payload codec.
    #[test]
    fn any_frame_round_trips(f in arb_frame()) {
        prop_assert_eq!(decode_payload(encode_payload(&f)).unwrap(), f);
    }

    /// A stream of frames, split at arbitrary chunk boundaries, is
    /// reassembled exactly by the incremental decoder the socket
    /// readers use — whatever TCP does to segment the bytes.
    #[test]
    fn any_stream_survives_arbitrary_fragmentation(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        cuts in proptest::collection::vec(1usize..64, 0..32),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        // Derive chunk sizes from the cut list; always terminates with
        // one final chunk holding the remainder.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut offset = 0usize;
        for cut in &cuts {
            if offset >= stream.len() { break; }
            let end = (offset + cut).min(stream.len());
            decoder.push(&stream[offset..end]);
            while let Some(f) = decoder.next_frame().unwrap() {
                got.push(f);
            }
            offset = end;
        }
        decoder.push(&stream[offset..]);
        while let Some(f) = decoder.next_frame().unwrap() {
            got.push(f);
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    /// Truncating a payload anywhere must yield an error, never a panic
    /// and never a bogus frame.
    #[test]
    fn truncated_payloads_error_out(f in arb_frame(), keep in 0u32..10_000) {
        let payload = encode_payload(&f);
        if payload.len() > 1 {
            let keep = 1 + (keep as usize % (payload.len() - 1));
            prop_assert!(decode_payload(payload.slice(0..keep)).is_err());
        }
    }

    /// Decoding arbitrary bytes is total: an error or a frame, never a
    /// panic (the property a network-facing codec must have).
    #[test]
    fn decoding_arbitrary_bytes_is_total(
        raw in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = decode_payload(bytes::Bytes::from(raw.clone()));
        let mut dec = FrameDecoder::new();
        dec.push(&raw);
        // Drain until the decoder either wants more bytes or errors.
        while let Ok(Some(_)) = dec.next_frame() {}
    }

    /// Random bytes rarely get past the tag; a *valid* batch with a few
    /// bytes overwritten reaches every branch of the item decoder —
    /// stray flags, dangling deltas, runaway varints, wild lengths. All
    /// of it must come back as a frame or an error, never a panic.
    #[test]
    fn mutated_batches_never_panic(
        items in proptest::collection::vec(arb_item(), 1..16),
        hits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut raw = encode_payload(&Frame::Batch(items)).to_vec();
        for (at, byte) in hits {
            let at = at % raw.len();
            raw[at] = byte;
        }
        let _ = decode_payload(bytes::Bytes::from(raw));
    }

    /// The batching invariant the transport relies on: a coalesced batch
    /// costs fewer bytes than the same items framed singly, by at least
    /// the headers it no longer repeats (more whenever a later item leans
    /// on an earlier one), less one depth byte per depth-free response
    /// when another response puts the depth field into the whole frame.
    /// `wire_size` is exact for an item alone in its frame (one byte
    /// over for a depth-free response, framed without the field) and an
    /// upper bound inside a batch, so writers can reserve and split on
    /// it without encoding anything.
    #[test]
    fn batching_saves_exact_framing_overhead(
        items in proptest::collection::vec(arb_item(), 1..32)
    ) {
        let encoded = encode_batch_frame(&items);
        prop_assert_eq!(&encode_frame(&Frame::Batch(items.clone())), &encoded);
        let bound = FRAME_OVERHEAD + items.iter().map(Item::wire_size).sum::<u64>();
        prop_assert!(encoded.len() as u64 <= bound, "wire_size is not an upper bound");
        let mut singles = 0;
        for item in &items {
            let alone = encode_batch_frame(std::slice::from_ref(item)).len();
            let depthless = usize::from(depth_of(item) == Some(None));
            prop_assert_eq!(alone, header(1) + item.wire_size() as usize - depthless);
            singles += alone;
        }
        let with_depth = items.iter().any(|item| matches!(depth_of(item), Some(Some(_))));
        let promoted = if with_depth {
            items.iter().filter(|item| depth_of(item) == Some(None)).count()
        } else {
            0
        };
        prop_assert!(
            singles + promoted - encoded.len() >= items.len() * header(1) - header(items.len())
        );
    }

    /// The depth field is all or nothing per frame: giving one response
    /// of a depth-free batch depth 0 costs exactly one byte per response
    /// in the frame, and nothing else.
    #[test]
    fn one_depth_puts_a_depth_byte_in_every_response(
        items in proptest::collection::vec(arb_item(), 1..32),
        pick in any::<usize>(),
    ) {
        let mut items = items;
        for item in &mut items {
            if let Item::Resp { response, .. } = item {
                response.depth = None;
            }
        }
        let before = encode_batch_frame(&items).len();
        let responses: Vec<usize> =
            (0..items.len()).filter(|&i| depth_of(&items[i]).is_some()).collect();
        if responses.is_empty() {
            return Ok(());
        }
        if let Item::Resp { response, .. } = &mut items[responses[pick % responses.len()]] {
            response.depth = Some(0);
        }
        let after = encode_batch_frame(&items);
        prop_assert_eq!(after.len(), before + responses.len());
        let mut dec = FrameDecoder::new();
        dec.push(&after);
        prop_assert_eq!(dec.next_frame().unwrap(), Some(Frame::Batch(items)));
    }

    /// Farewells — "never" and aged — round-trip beside the other items
    /// in both batch tags: `0xF1`, and `0xF5` once a response carries a
    /// depth (which a farewell never does).
    #[test]
    fn farewells_round_trip_in_both_batch_tags(
        items in proptest::collection::vec(arb_item(), 0..16),
        ages in proptest::collection::vec(arb_age(), 1..8),
        depth in proptest::option::of(arb_u32()),
    ) {
        let mut items = items;
        for item in &mut items {
            if let Item::Resp { response, .. } = item {
                response.depth = None;
            }
        }
        let from = AoId::new(1, 2);
        items.extend(ages.iter().enumerate().map(|(i, &age)| Item::Farewell {
            from,
            to: AoId::new(2, i as u32),
            age,
        }));
        items.push(Item::Resp {
            from: AoId::new(2, 0),
            to: from,
            response: DgcResponse {
                responder: AoId::new(2, 0),
                clock: NamedClock::initial(AoId::new(2, 0)),
                has_parent: false,
                consensus_reached: false,
                depth,
            },
        });
        let encoded = encode_batch_frame(&items);
        prop_assert_eq!(encoded[4], if depth.is_some() { 0xF5 } else { 0xF1 });
        let mut dec = FrameDecoder::new();
        dec.push(&encoded);
        prop_assert_eq!(dec.next_frame().unwrap(), Some(Frame::Batch(items)));
    }

    /// The item decoder's kind 0 (a farewell) on arbitrary bytes: any
    /// flags in its head, any body behind it, even a first item with
    /// nothing to elide against — a frame or an error, never a panic,
    /// and a farewell only when its head carries no flag it lacks.
    #[test]
    fn arbitrary_farewell_bytes_are_total(
        flags in 0u8..32,
        body in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut payload = vec![0xF1, 1, flags << 3];
        payload.extend(&body);
        if let Ok(Frame::Batch(items)) = decode_payload(bytes::Bytes::from(payload)) {
            prop_assert!(flags & !0b11 == 0, "flags {:#b}", flags);
            prop_assert!(matches!(items.as_slice(), [Item::Farewell { .. }]));
        }
    }

    /// Frame independence: the delta context resets at every frame, so
    /// however a stream of items is cut into frames, each frame decodes
    /// to exactly its own items — alone in a fresh decoder, or behind
    /// any other frames in any order (what the chaos proxy's drops and
    /// reorders, and a reconnect's re-sends, do to a link).
    #[test]
    fn frames_decode_independently_of_their_neighbours(
        stream in proptest::collection::vec(arb_item(), 1..40),
        cuts in proptest::collection::vec(1usize..12, 0..12),
        order in proptest::collection::vec(any::<usize>(), 1..16),
    ) {
        let mut frames: Vec<&[Item]> = Vec::new();
        let mut rest = &stream[..];
        for cut in cuts {
            let (frame, tail) = rest.split_at(cut.min(rest.len()));
            frames.push(frame);
            rest = tail;
        }
        frames.push(rest);
        let encoded: Vec<Vec<u8>> = frames.iter().map(|f| encode_batch_frame(f)).collect();
        let mut shared = FrameDecoder::new();
        for pick in order {
            let i = pick % frames.len();
            let expected = Some(Frame::Batch(frames[i].to_vec()));
            let mut fresh = FrameDecoder::new();
            fresh.push(&encoded[i]);
            prop_assert_eq!(&fresh.next_frame().unwrap(), &expected);
            shared.push(&encoded[i]);
            prop_assert_eq!(&shared.next_frame().unwrap(), &expected);
        }
        prop_assert_eq!(shared.pending_bytes(), 0);
    }

    /// Mid-frame connection severing — what the chaos proxy's partition
    /// windows do to a live stream: feed a truncated stream, then (as a
    /// reconnect would) a fresh valid stream into a new decoder. The cut
    /// must never produce a frame that was not sent, and the fresh
    /// decoder must be unaffected by history.
    #[test]
    fn severed_streams_never_fabricate_frames(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        cut_back in 1usize..48,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let cut = stream.len().saturating_sub(cut_back % stream.len().max(1));
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut got = Vec::new();
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break,       // waiting for bytes that never come
                Err(_) => break,         // corrupt tail detected: also fine
            }
        }
        // Every decoded frame is a genuine prefix of what was sent.
        prop_assert!(got.len() <= frames.len());
        prop_assert_eq!(&frames[..got.len()], &got[..]);
        // The replacement connection starts clean.
        let mut fresh = FrameDecoder::new();
        fresh.push(&stream);
        let mut redecoded = Vec::new();
        while let Some(f) = fresh.next_frame().unwrap() {
            redecoded.push(f);
        }
        prop_assert_eq!(redecoded, frames);
    }

    /// Corrupting any single byte of the 4-byte length prefix must
    /// yield an error, starvation (waiting for more bytes), or clean
    /// frames — never a panic and never a mis-framed stream that decodes
    /// to the original frame at the wrong boundary.
    #[test]
    fn corrupted_length_prefixes_never_panic(
        f in arb_frame(),
        byte in 0usize..4,
        xor in 1u8..255,
    ) {
        let mut raw = encode_frame(&f);
        raw[byte] ^= xor;
        let mut dec = FrameDecoder::new();
        dec.push(&raw);
        // Any of Ok(Some)/Ok(None)/Err is acceptable, a panic is not.
        // A full frame can only come out if the corrupt length still
        // frames a decodable payload (e.g. flipping a high length byte
        // on a stream that has those bytes buffered) — tolerated, BUT
        // it must then be a *different* frame: the corrupted prefix
        // frames a different byte region, so reproducing the original
        // content would mean the decoder mis-framed the stream.
        if let Ok(Some(out)) = dec.next_frame() {
            prop_assert_ne!(out, f);
        }
        let _ = dec.next_frame(); // idempotently safe afterwards too
    }
}

/// Truncation at *every* prefix length, exhaustively (the proptest
/// above samples; the decoder's never-panic/never-fabricate contract
/// deserves the full sweep on a representative frame).
#[test]
fn every_prefix_of_a_stream_is_safe() {
    use dgc_rt_net::frame::PROTOCOL_VERSION;
    let frames = vec![
        Frame::Hello {
            node: 3,
            version: PROTOCOL_VERSION,
        },
        Frame::Batch(vec![
            Item::SendFailure {
                holder: AoId::new(0, 1),
                target: AoId::new(1, 2),
            };
            3
        ]),
    ];
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&encode_frame(f));
    }
    for cut in 0..stream.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..cut]);
        let mut got = Vec::new();
        while let Ok(Some(f)) = dec.next_frame() {
            got.push(f);
        }
        assert!(
            got.len() <= frames.len() && got[..] == frames[..got.len()],
            "prefix of {cut} bytes fabricated frames: {got:?}"
        );
        // A truncated decoder either holds residue or consumed exactly
        // the frames it produced.
        let consumed: usize = frames[..got.len()]
            .iter()
            .map(|f| encode_frame(f).len())
            .sum();
        assert_eq!(dec.pending_bytes(), cut - consumed);
    }
}

/// Items with payloads big enough to make the per-frame *byte* bound
/// bite (the plain `arb_item` payloads are tiny, so only the item
/// bound ever would).
fn arb_weighty_item() -> impl Strategy<Value = Item> {
    (
        any::<bool>(),
        arb_item(),
        arb_aoid(),
        arb_aoid(),
        1usize..(1 << 20),
    )
        .prop_map(|(heavy, light, from, to, size)| {
            if heavy {
                Item::App {
                    from,
                    to,
                    reply: false,
                    tenant: 0,
                    payload: vec![0xA5; size].into(),
                }
            } else {
                light
            }
        })
}

proptest! {
    // Big allocations per case: fewer cases than the codec properties.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The frame-splitting boundary the link layer cuts its write
    /// queues at: greedy (never leaves room unused), bounded (never
    /// emits an oversized frame unless a single item alone is the
    /// frame), and a partition (repeated splits walk the whole queue
    /// losslessly).
    #[test]
    fn split_len_is_a_greedy_bounded_partition(
        items in proptest::collection::vec(arb_weighty_item(), 0..12)
    ) {
        use dgc_rt_net::frame::MAX_BYTES_PER_FRAME;
        let n = split_len(&items);
        if items.is_empty() {
            prop_assert_eq!(n, 0);
            return Ok(());
        }
        // Always progresses, never over-reaches.
        prop_assert!(n >= 1);
        prop_assert!(n <= items.len().min(MAX_ITEMS_PER_FRAME));
        // Within the byte bound — except the one allowed case, a lone
        // item that is itself oversized.
        let bytes: u64 = items[..n].iter().map(|i| i.wire_size()).sum();
        prop_assert!(
            bytes <= MAX_BYTES_PER_FRAME || n == 1,
            "split of {} items carries {} bytes", n, bytes
        );
        // Greedy: if anything was left out, taking one more item would
        // burst a bound.
        if n < items.len() {
            let with_next = bytes + items[n].wire_size();
            prop_assert!(
                n == MAX_ITEMS_PER_FRAME || with_next > MAX_BYTES_PER_FRAME,
                "split stopped at {} of {} with room to spare", n, items.len()
            );
        }
        // Partition: repeated splitting consumes exactly the queue.
        let mut rest: &[Item] = &items;
        let mut walked = 0usize;
        while !rest.is_empty() {
            let step = split_len(rest);
            prop_assert!(step >= 1);
            walked += step;
            rest = &rest[step..];
        }
        prop_assert_eq!(walked, items.len());
    }
}

/// The frames the link layer wrote before units were encoded at
/// enqueue: `items` cut at [`split_len`], each piece encoded whole.
fn split_and_encode(items: &[Item]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut rest = items;
    while !rest.is_empty() {
        let (piece, tail) = rest.split_at(split_len(rest));
        frames.push(encode_batch_frame(piece));
        rest = tail;
    }
    frames
}

fn wire_of(frames: &[SealedFrame]) -> Vec<Vec<u8>> {
    frames.iter().map(|f| f.as_bytes().to_vec()).collect()
}

fn unframe(frames: Vec<SealedFrame>) -> Vec<Item> {
    frames
        .into_iter()
        .flat_map(SealedFrame::into_items)
        .collect()
}

proptest! {
    /// The open-frame builder is the batch encoder run one item at a
    /// time: the frames it seals are byte for byte those that
    /// `encode_batch_frame` builds from the same items, in both batch
    /// tags — a response with a depth after depthless ones re-encodes
    /// the open frame under `0xF5` — and a builder reused after a
    /// `finish` starts from a fresh context. A sealed frame decodes
    /// back to exactly what was pushed.
    #[test]
    fn the_frame_builder_is_the_batch_encoder(
        items in proptest::collection::vec(arb_item(), 0..40),
        cut in any::<usize>(),
    ) {
        let cut = cut % (items.len() + 1);
        let mut builder = FrameBuilder::new();
        let mut sealed = Vec::new();
        for part in [&items[..cut], &items[cut..]] {
            for item in part {
                builder.push(item, item.wire_size());
            }
            prop_assert_eq!(builder.len(), part.len());
            let frames = builder.finish();
            prop_assert!(builder.is_empty());
            prop_assert_eq!(wire_of(&frames), split_and_encode(part));
            prop_assert_eq!(
                frames.iter().map(|f| f.items() as usize).sum::<usize>(),
                part.len()
            );
            sealed.extend(frames);
        }
        prop_assert_eq!(unframe(sealed), items);
    }

    /// A flush through the byte queue an egress outbox keeps per peer
    /// on sockets: items, bytes and per-path order are conserved —
    /// `enqueued = flushed + dropped + pending` for both — and what
    /// leaves, flushed as sealed frames or handed back by `drop_dest`,
    /// is each path's units in enqueue order, with the tenant of every
    /// application unit counted out once.
    #[test]
    fn the_byte_queue_conserves_units_and_path_order(
        ops in proptest::collection::vec(
            // (dest, item, ms advance, action: 0..=6 enqueue, 7..=8
            // poll, 9 drop_dest)
            (0u32..3, arb_item(), 0u64..4, 0u8..10),
            1..80,
        ),
        max_delay_ms in 0u64..6,
        max_items in 1usize..12,
    ) {
        let policy = FlushPolicy {
            flush_on_app: true,
            max_delay: Dur::from_millis(max_delay_ms),
            max_bytes: 600,
            max_items,
        };
        let mut ob: Outbox<Item, PeerFrames> = Outbox::new(policy);
        // Per destination and path: units in, units out.
        let mut sent = vec![(Vec::new(), Vec::new()); 3];
        let mut left = vec![(Vec::new(), Vec::new()); 3];
        let mut flushed_items = 0u64;
        let mut enqueued_bytes = 0u64;
        let route = |left: &mut Vec<(Vec<Item>, Vec<Item>)>, dest: u32, items: Vec<Item>| {
            for item in items {
                let (forward, back) = &mut left[dest as usize];
                if item.travels_forward() { forward.push(item) } else { back.push(item) }
            }
        };
        let mut now_ms = 0u64;
        for (dest, item, advance, action) in ops {
            now_ms += advance;
            let now = Time::from_nanos(now_ms * 1_000_000);
            let mut flushes = Vec::new();
            match action {
                0..=6 => {
                    let size = item.wire_size();
                    enqueued_bytes += size;
                    route(&mut sent, dest, vec![item.clone()]);
                    flushes.extend(ob.enqueue(now, dest, item.class(), size, item));
                }
                7..=8 => flushes = ob.poll(now),
                _ => {
                    let returned = ob.drop_dest(dest);
                    let items: Vec<Item> = returned.into_iter().map(|qi| qi.item).collect();
                    route(&mut left, dest, items);
                }
            }
            for flush in flushes {
                let batch = flush.items;
                flushed_items += batch.items();
                let mut tenants = batch.app_tenants.clone();
                let items: Vec<Item> = unframe(batch.forward).into_iter().chain(unframe(batch.back)).collect();
                let mut apps: Vec<u32> = items
                    .iter()
                    .filter_map(|i| match i { Item::App { tenant, .. } => Some(*tenant), _ => None })
                    .collect();
                tenants.sort_unstable();
                apps.sort_unstable();
                prop_assert_eq!(tenants, apps, "every app unit's tenant, once");
                route(&mut left, flush.dest, items);
            }
        }
        let pending = ob.pending_items() as u64;
        let s = ob.stats();
        prop_assert_eq!(s.enqueued_items, s.items + s.dropped_items + pending);
        prop_assert_eq!(s.enqueued_bytes, s.bytes + s.dropped_bytes + ob.pending_bytes());
        prop_assert_eq!(s.enqueued_bytes, enqueued_bytes, "charged wire_size, as the Vec queue is");
        prop_assert_eq!(s.items, flushed_items);
        for flush in ob.flush_all() {
            let batch = flush.items;
            let items: Vec<Item> = unframe(batch.forward).into_iter().chain(unframe(batch.back)).collect();
            route(&mut left, flush.dest, items);
        }
        prop_assert_eq!(ob.pending_items(), 0);
        prop_assert_eq!(left, sent, "per destination, per path: in enqueue order, none lost");
    }
}

proptest! {
    // Big allocations per case: fewer cases than the codec properties.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The builder starts a new frame exactly where `split_len` cuts a
    /// queue of the same items, so no frame it seals outgrows what the
    /// receiver's decoder accepts.
    #[test]
    fn the_frame_builder_cuts_where_split_len_cuts(
        items in proptest::collection::vec(arb_weighty_item(), 0..12)
    ) {
        let sealed = FrameBuilder::seal_items(&items);
        prop_assert_eq!(wire_of(&sealed), split_and_encode(&items));
    }
}

/// The depth tag is chosen per frame, and the builder learns it late: a
/// response with a depth after depthless ones re-encodes what the frame
/// already holds, so every response in it carries the field, exactly as
/// the batch encoder writes it.
#[test]
fn a_depth_after_depthless_responses_reencodes_the_open_frame() {
    let resp = |k: u32, depth: Option<u32>| Item::Resp {
        from: AoId::new(1, k),
        to: AoId::new(0, 7),
        response: DgcResponse {
            responder: AoId::new(1, k),
            clock: NamedClock::initial(AoId::new(1, k)),
            has_parent: true,
            consensus_reached: false,
            depth,
        },
    };
    let dgc = Item::Dgc {
        from: AoId::new(1, 2),
        to: AoId::new(0, 3),
        message: DgcMessage {
            sender: AoId::new(1, 2),
            clock: NamedClock::initial(AoId::new(1, 2)),
            consensus: false,
            sender_ttb: Dur::from_millis(100),
        },
    };
    let items = vec![
        resp(0, None),
        dgc,
        resp(1, None),
        resp(2, Some(3)),
        resp(3, None),
    ];
    let sealed = FrameBuilder::seal_items(&items);
    assert_eq!(wire_of(&sealed), vec![encode_batch_frame(&items)]);
    assert_eq!(sealed[0].as_bytes()[4], 0xF5, "the depth tag");
    assert_eq!(unframe(sealed), items);
}

/// A sweep larger than one frame's item cap seals into full frames and
/// a remainder, each one decodable on its own.
#[test]
fn a_queue_past_the_item_cap_seals_into_several_frames() {
    let items: Vec<Item> = (0..MAX_ITEMS_PER_FRAME as u32 + 5)
        .map(|k| Item::Farewell {
            from: AoId::new(0, k),
            to: AoId::new(1, k / 2),
            age: None,
        })
        .collect();
    let mut queue = PeerFrames::default();
    for item in &items {
        queue.push(dgc_core::egress::QueuedItem {
            class: item.class(),
            size: item.wire_size(),
            item: item.clone(),
        });
    }
    assert_eq!(queue.len(), items.len());
    let batch = queue.take();
    assert!(batch.back.is_empty(), "farewells ride the forward path");
    let counts: Vec<u32> = batch.forward.iter().map(SealedFrame::items).collect();
    assert_eq!(counts, vec![MAX_ITEMS_PER_FRAME as u32, 5]);
    assert_eq!(wire_of(&batch.forward), split_and_encode(&items));
    assert_eq!(unframe(batch.forward), items);
}

/// Payload bytes cut frames too: five full-size application payloads
/// outgrow one frame's byte cap, and the builder starts a new frame
/// where `split_len` cuts.
#[test]
fn a_queue_past_the_byte_cap_seals_into_several_frames() {
    use dgc_rt_net::frame::{MAX_APP_PAYLOAD, MAX_BYTES_PER_FRAME};
    let items: Vec<Item> = (0..5)
        .map(|k| Item::App {
            from: AoId::new(0, k),
            to: AoId::new(1, k),
            reply: false,
            tenant: 0,
            payload: vec![0x5A; MAX_APP_PAYLOAD].into(),
        })
        .collect();
    let total: u64 = items.iter().map(Item::wire_size).sum();
    assert!(total > MAX_BYTES_PER_FRAME, "the case must cross the cap");
    let sealed = FrameBuilder::seal_items(&items);
    assert!(sealed.len() > 1);
    assert_eq!(wire_of(&sealed), split_and_encode(&items));
}
