//! Binary wire codec for DGC messages and responses.
//!
//! The paper measures its bandwidth overhead through an instrumented
//! SOCKS proxy, so every byte of the Java-RMI-serialized DGC calls
//! counts. To reproduce those measurements honestly we encode protocol
//! units into a concrete binary format (rather than inventing sizes), and
//! the simulator charges the encoded length — plus a configurable
//! per-call *envelope* modelling the RMI invocation overhead (operation
//! hash, object UID, serialization headers) — to the network meters.
//!
//! Layout (big-endian):
//!
//! ```text
//! message  := tag(1) sender(8) clock(16) flags(1) sender_ttb(8)
//! response := tag(1) responder(8) clock(16) flags(1) depth?(4)
//! farewell := tag(1) sender(8) flags(1) age?(8)     age in nanoseconds
//! clock    := value(8) owner(8)
//! aoid     := node(4) index(4)
//! ```
//!
//! A farewell's age is present (and its `HAS_AGE` flag set) when the
//! sender ever passed the reference on.
//!
//! This fixed 34/26(30)/10(18)-byte unit layout is what the **simulator**
//! charges: it models the paper's measurement, one RMI call per unit
//! plus the calibrated [`RMI_CALL_ENVELOPE`]. The socket transport
//! (`dgc_rt_net::frame`) does not put these encodings on the wire; it
//! batches units into frames built from the primitives below
//! ([`put_varint`] / [`get_varint`]) and elides whatever a frame already
//! states, and its byte counters report what was actually written. The
//! two accountings answer different questions and are not meant to agree.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::clock::NamedClock;
use crate::id::AoId;
use crate::message::{DgcFarewell, DgcMessage, DgcResponse};
use crate::units::Dur;

const TAG_MESSAGE: u8 = 0xD1;
const TAG_RESPONSE: u8 = 0xD2;
const TAG_FAREWELL: u8 = 0xD3;

const FLAG_CONSENSUS: u8 = 0b0000_0001;
const FLAG_HAS_PARENT: u8 = 0b0000_0010;
const FLAG_CONSENSUS_REACHED: u8 = 0b0000_0100;
const FLAG_HAS_DEPTH: u8 = 0b0000_1000;
const FLAG_HAS_AGE: u8 = 0b0001_0000;

/// Errors produced when decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ended before the fixed-size fields were read.
    Truncated,
    /// The leading tag byte did not match the expected unit.
    BadTag(u8),
    /// A varint ran past ten bytes or its value does not fit the field
    /// it was read for.
    Overflow,
    /// A field was marked "same as the previous item's" where the frame
    /// has no previous item carrying it.
    NoContext,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "wire buffer truncated"),
            DecodeError::BadTag(t) => write!(f, "unexpected wire tag 0x{t:02X}"),
            DecodeError::Overflow => write!(f, "varint too long or out of range"),
            DecodeError::NoContext => write!(f, "field elided against a missing previous item"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends an [`AoId`] in the fixed layout (8 bytes).
pub fn put_aoid(buf: &mut impl BufMut, id: AoId) {
    buf.put_u32(id.node);
    buf.put_u32(id.index);
}

/// Reads an [`AoId`] back.
pub fn get_aoid(buf: &mut Bytes) -> Result<AoId, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(AoId::new(buf.get_u32(), buf.get_u32()))
}

/// Appends `v` as an unsigned LEB128 varint: seven value bits per byte,
/// low group first, high bit set on every byte but the last (1 byte
/// below 128, at most 10 for a full `u64`).
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Reads a varint written by [`put_varint`]. Encodings longer than ten
/// bytes, or whose tenth byte carries bits beyond the 64th, are
/// [`DecodeError::Overflow`].
pub fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let byte = buf.get_u8();
        let group = u64::from(byte & 0x7F);
        if shift == 63 && group > 1 {
            return Err(DecodeError::Overflow);
        }
        v |= group << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::Overflow)
}

/// Appends a [`NamedClock`] (16 bytes).
pub fn put_clock(buf: &mut impl BufMut, c: NamedClock) {
    buf.put_u64(c.value);
    put_aoid(buf, c.owner);
}

/// Reads a [`NamedClock`] back.
pub fn get_clock(buf: &mut Bytes) -> Result<NamedClock, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let value = buf.get_u64();
    let owner = get_aoid(buf)?;
    Ok(NamedClock { value, owner })
}

/// Appends an encoded DGC message to `buf` (tag included).
pub fn put_message(buf: &mut impl BufMut, m: &DgcMessage) {
    buf.put_u8(TAG_MESSAGE);
    put_aoid(buf, m.sender);
    put_clock(buf, m.clock);
    let mut flags = 0u8;
    if m.consensus {
        flags |= FLAG_CONSENSUS;
    }
    buf.put_u8(flags);
    buf.put_u64(m.sender_ttb.as_nanos());
}

/// Reads one DGC message from the front of `buf`, leaving any trailing
/// bytes unread (the encoding is self-delimiting).
pub fn get_message(buf: &mut Bytes) -> Result<DgcMessage, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    if tag != TAG_MESSAGE {
        return Err(DecodeError::BadTag(tag));
    }
    let sender = get_aoid(buf)?;
    let clock = get_clock(buf)?;
    if buf.remaining() < 9 {
        return Err(DecodeError::Truncated);
    }
    let flags = buf.get_u8();
    let sender_ttb = Dur::from_nanos(buf.get_u64());
    Ok(DgcMessage {
        sender,
        clock,
        consensus: flags & FLAG_CONSENSUS != 0,
        sender_ttb,
    })
}

/// Appends an encoded DGC response to `buf` (tag included).
pub fn put_response(buf: &mut impl BufMut, r: &DgcResponse) {
    buf.put_u8(TAG_RESPONSE);
    put_aoid(buf, r.responder);
    put_clock(buf, r.clock);
    let mut flags = 0u8;
    if r.has_parent {
        flags |= FLAG_HAS_PARENT;
    }
    if r.consensus_reached {
        flags |= FLAG_CONSENSUS_REACHED;
    }
    if r.depth.is_some() {
        flags |= FLAG_HAS_DEPTH;
    }
    buf.put_u8(flags);
    if let Some(d) = r.depth {
        buf.put_u32(d);
    }
}

/// Reads one DGC response from the front of `buf`, leaving any trailing
/// bytes unread.
pub fn get_response(buf: &mut Bytes) -> Result<DgcResponse, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    if tag != TAG_RESPONSE {
        return Err(DecodeError::BadTag(tag));
    }
    let responder = get_aoid(buf)?;
    let clock = get_clock(buf)?;
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let flags = buf.get_u8();
    let depth = if flags & FLAG_HAS_DEPTH != 0 {
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        Some(buf.get_u32())
    } else {
        None
    };
    Ok(DgcResponse {
        responder,
        clock,
        has_parent: flags & FLAG_HAS_PARENT != 0,
        consensus_reached: flags & FLAG_CONSENSUS_REACHED != 0,
        depth,
    })
}

/// Appends an encoded farewell to `buf` (tag included).
pub fn put_farewell(buf: &mut impl BufMut, f: &DgcFarewell) {
    buf.put_u8(TAG_FAREWELL);
    put_aoid(buf, f.sender);
    match f.age {
        Some(age) => {
            buf.put_u8(FLAG_HAS_AGE);
            buf.put_u64(age.as_nanos());
        }
        None => buf.put_u8(0),
    }
}

/// Reads one farewell from the front of `buf`, leaving any trailing
/// bytes unread.
pub fn get_farewell(buf: &mut Bytes) -> Result<DgcFarewell, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    if tag != TAG_FAREWELL {
        return Err(DecodeError::BadTag(tag));
    }
    let sender = get_aoid(buf)?;
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let age = if buf.get_u8() & FLAG_HAS_AGE != 0 {
        if buf.remaining() < 8 {
            return Err(DecodeError::Truncated);
        }
        Some(Dur::from_nanos(buf.get_u64()))
    } else {
        None
    };
    Ok(DgcFarewell { sender, age })
}

/// Encodes a DGC message.
pub fn encode_message(m: &DgcMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(34);
    put_message(&mut buf, m);
    buf.freeze()
}

/// Decodes a DGC message.
pub fn decode_message(mut buf: Bytes) -> Result<DgcMessage, DecodeError> {
    get_message(&mut buf)
}

/// Encodes a DGC response.
pub fn encode_response(r: &DgcResponse) -> Bytes {
    let mut buf = BytesMut::with_capacity(30);
    put_response(&mut buf, r);
    buf.freeze()
}

/// Decodes a DGC response.
pub fn decode_response(mut buf: Bytes) -> Result<DgcResponse, DecodeError> {
    get_response(&mut buf)
}

/// Wire size in bytes of an encoded DGC message (fixed).
pub fn message_wire_size() -> u64 {
    34
}

/// Wire size in bytes of an encoded DGC response.
pub fn response_wire_size(with_depth: bool) -> u64 {
    if with_depth {
        30
    } else {
        26
    }
}

/// Wire size in bytes of an encoded farewell.
pub fn farewell_wire_size(aged: bool) -> u64 {
    if aged {
        18
    } else {
        10
    }
}

/// Per-call envelope modelling the overhead of an RMI invocation
/// (transport framing, operation identifiers, serialization headers).
///
/// The paper's measured per-beat DGC cost on the NAS runs is far larger
/// than the raw fields of the message, because each DGC call travels as a
/// Java-RMI remote invocation. `RMI_CALL_ENVELOPE` is our calibrated
/// stand-in: the `fig8_nas_bandwidth` bench prints the DGC bytes it
/// yields beside the paper's fig. 8 figures.
pub const RMI_CALL_ENVELOPE: u64 = 240;

#[cfg(test)]
mod tests {
    use super::*;

    fn ao(n: u32, i: u32) -> AoId {
        AoId::new(n, i)
    }

    fn sample_message() -> DgcMessage {
        DgcMessage {
            sender: ao(3, 7),
            clock: NamedClock {
                value: 42,
                owner: ao(1, 2),
            },
            consensus: true,
            sender_ttb: Dur::from_secs(30),
        }
    }

    fn sample_response(depth: Option<u32>) -> DgcResponse {
        DgcResponse {
            responder: ao(9, 1),
            clock: NamedClock {
                value: 7,
                owner: ao(9, 1),
            },
            has_parent: true,
            consensus_reached: false,
            depth,
        }
    }

    #[test]
    fn message_round_trip() {
        let m = sample_message();
        let encoded = encode_message(&m);
        assert_eq!(encoded.len() as u64, message_wire_size());
        assert_eq!(decode_message(encoded).unwrap(), m);
    }

    #[test]
    fn response_round_trip_without_depth() {
        let r = sample_response(None);
        let encoded = encode_response(&r);
        assert_eq!(encoded.len() as u64, response_wire_size(false));
        assert_eq!(decode_response(encoded).unwrap(), r);
    }

    #[test]
    fn response_round_trip_with_depth() {
        let r = sample_response(Some(12));
        let encoded = encode_response(&r);
        assert_eq!(encoded.len() as u64, response_wire_size(true));
        assert_eq!(decode_response(encoded).unwrap(), r);
    }

    #[test]
    fn flags_encode_independently() {
        for consensus in [false, true] {
            let m = DgcMessage {
                consensus,
                ..sample_message()
            };
            assert_eq!(
                decode_message(encode_message(&m)).unwrap().consensus,
                consensus
            );
        }
        for (hp, cr) in [(false, false), (true, false), (false, true), (true, true)] {
            let r = DgcResponse {
                has_parent: hp,
                consensus_reached: cr,
                ..sample_response(None)
            };
            let d = decode_response(encode_response(&r)).unwrap();
            assert_eq!(d.has_parent, hp);
            assert_eq!(d.consensus_reached, cr);
        }
    }

    #[test]
    fn farewell_round_trip_at_its_charged_size() {
        for age in [None, Some(Dur::ZERO), Some(Dur::from_millis(150))] {
            let f = DgcFarewell {
                sender: ao(3, 9),
                age,
            };
            let mut buf = BytesMut::new();
            put_farewell(&mut buf, &f);
            let encoded = buf.freeze();
            assert_eq!(encoded.len() as u64, farewell_wire_size(age.is_some()));
            assert_eq!(get_farewell(&mut encoded.clone()), Ok(f));
            for cut in 0..encoded.len() {
                let mut short = encoded.slice(0..cut);
                assert_eq!(get_farewell(&mut short), Err(DecodeError::Truncated));
            }
        }
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let m = encode_message(&sample_message());
        assert!(matches!(decode_response(m), Err(DecodeError::BadTag(_))));
        let r = encode_response(&sample_response(None));
        assert!(matches!(decode_message(r), Err(DecodeError::BadTag(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let m = encode_message(&sample_message());
        for len in 0..m.len() {
            let cut = m.slice(0..len);
            assert!(
                decode_message(cut).is_err(),
                "truncated at {len} must not decode"
            );
        }
        let r = encode_response(&sample_response(Some(3)));
        for len in 0..r.len() {
            let cut = r.slice(0..len);
            assert!(decode_response(cut).is_err());
        }
    }

    #[test]
    fn decode_error_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "wire buffer truncated");
        assert!(DecodeError::BadTag(0xAB).to_string().contains("0xAB"));
        assert!(DecodeError::Overflow.to_string().contains("varint"));
        assert!(DecodeError::NoContext.to_string().contains("previous"));
    }

    fn varint(v: u64) -> Bytes {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        buf.freeze()
    }

    #[test]
    fn varints_round_trip_at_every_length_boundary() {
        let edges = (0..64).flat_map(|bits| [(1u64 << bits) - 1, 1u64 << bits]);
        for v in edges.chain([u64::MAX]) {
            let mut enc = varint(v);
            let expected_len = ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7);
            assert_eq!(enc.len(), expected_len, "length of {v}");
            assert_eq!(get_varint(&mut enc), Ok(v));
            assert_eq!(enc.remaining(), 0);
        }
    }

    #[test]
    fn hostile_varints_are_errors() {
        // Eleven continuation bytes: too long.
        assert_eq!(
            get_varint(&mut Bytes::from(vec![0x80; 11])),
            Err(DecodeError::Overflow)
        );
        // Ten bytes whose last carries bits 64 and up.
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert_eq!(
            get_varint(&mut Bytes::from(over)),
            Err(DecodeError::Overflow)
        );
        // Every strict prefix of a multi-byte varint is truncated.
        let full = varint(u64::MAX);
        for len in 0..full.len() {
            assert_eq!(
                get_varint(&mut full.slice(0..len)),
                Err(DecodeError::Truncated)
            );
        }
    }
}
