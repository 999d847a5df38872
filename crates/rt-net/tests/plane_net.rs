//! The secure plane at the transport level: the PSK handshake gates
//! every accepted link, a silent or misbehaving connector dies at the
//! handshake deadline instead of leaking its slot, and no adversarial
//! handshake fragment —
//! truncated, corrupted, or replayed — ever leaves a link
//! half-authenticated.
//!
//! The adversaries here speak raw TCP against a live node, reusing the
//! production frame codec and the sans-io `dgc_plane::Authenticator`
//! for the honest side of each exchange.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::units::Dur;
use dgc_plane::{AuthKey, AuthMsg, Authenticator, Step};
use dgc_rt_net::frame::{
    encode_batch_frame, encode_frame, Frame, FrameDecoder, Item, PROTOCOL_VERSION,
};
use dgc_rt_net::{NetConfig, NetNode};

fn key() -> AuthKey {
    AuthKey::from_secret("plane-net suite")
}

fn cfg() -> NetConfig {
    NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build(),
    )
    .auth(key())
    .handshake_timeout(Duration::from_millis(300))
}

fn poll_until(deadline: Duration, check: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    check()
}

fn auth_to_frame(msg: &AuthMsg) -> Frame {
    match *msg {
        AuthMsg::Init { nonce } => Frame::AuthInit { nonce },
        AuthMsg::Challenge { nonce, mac } => Frame::AuthChallenge { nonce, mac },
        AuthMsg::Proof { mac } => Frame::AuthProof { mac },
    }
}

fn frame_to_auth(frame: &Frame) -> Option<AuthMsg> {
    match *frame {
        Frame::AuthInit { nonce } => Some(AuthMsg::Init { nonce }),
        Frame::AuthChallenge { nonce, mac } => Some(AuthMsg::Challenge { nonce, mac }),
        Frame::AuthProof { mac } => Some(AuthMsg::Proof { mac }),
        _ => None,
    }
}

/// Reads one frame off `stream`, waiting up to 2 s.
fn read_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Option<Frame> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 4096];
    loop {
        if let Ok(Some(frame)) = decoder.next_frame() {
            return Some(frame);
        }
        if Instant::now() >= deadline {
            return None;
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return None,
        }
    }
}

/// True once the peer closed the connection (reads EOF or reset).
fn wait_closed(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 256];
    while Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return true,
        }
    }
    false
}

/// Introduces `node_id` and runs the honest client handshake with `k`.
/// Returns the authenticated stream, or `None` if the node refused.
fn connect_and_auth(node: &NetNode, node_id: u32, k: AuthKey) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(node.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let hello = encode_frame(&Frame::Hello {
        node: node_id,
        version: PROTOCOL_VERSION,
    });
    stream.write_all(&hello).unwrap();
    let (mut machine, init) = Authenticator::initiator(k, [0xA5; dgc_plane::NONCE_LEN]);
    stream
        .write_all(&encode_frame(&auth_to_frame(&init)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let challenge = frame_to_auth(&read_frame(&mut stream, &mut decoder)?)?;
    match machine.on_msg(&challenge) {
        Ok(Step::SendAndDone(proof)) => {
            stream
                .write_all(&encode_frame(&auth_to_frame(&proof)))
                .unwrap();
            stream.set_read_timeout(None).unwrap();
            Some(stream)
        }
        _ => None,
    }
}

fn app_batch(from_node: u32, to: AoId, payload: &[u8]) -> Vec<u8> {
    encode_batch_frame(&[Item::App {
        from: AoId::new(from_node, 0),
        to,
        reply: false,
        tenant: 0,
        payload: payload.to_vec().into(),
    }])
}

#[test]
fn full_handshake_admits_batches() {
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();
    let mut client = connect_and_auth(&node, 9, key()).expect("genuine key must authenticate");
    client
        .write_all(&app_batch(9, target, b"post-auth"))
        .unwrap();
    client.flush().unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || !node.app_received().is_empty()),
        "the authenticated batch never arrived"
    );
    assert_eq!(node.app_received()[0].payload, b"post-auth");
    assert!(node.stats().auth_ok >= 1);
    assert_eq!(node.stats().auth_rejects, 0);
    drop(client);
    node.shutdown();
}

#[test]
fn silent_connector_dies_at_the_handshake_deadline_and_frees_its_slot() {
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();
    // Connects, introduces itself, then stalls mid-handshake.
    let mut stalled = TcpStream::connect(node.addr()).unwrap();
    stalled
        .write_all(&encode_frame(&Frame::Hello {
            node: 7,
            version: PROTOCOL_VERSION,
        }))
        .unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || {
            node.stats().handshake_timeouts >= 1
        }),
        "the stalled handshake never timed out: {:?}",
        node.stats()
    );
    assert!(
        wait_closed(&mut stalled),
        "the node kept the dead link open"
    );
    // The regression half: the slot is reclaimed, not leaked — a
    // well-behaved peer connects and delivers right afterwards.
    let mut honest =
        connect_and_auth(&node, 9, key()).expect("node stopped accepting after a timeout");
    honest.write_all(&app_batch(9, target, b"alive")).unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || !node.app_received().is_empty()),
        "post-timeout delivery failed"
    );
    drop(honest);
    node.shutdown();
}

#[test]
fn silent_connector_times_out_even_without_auth_configured() {
    // The handshake deadline is the connection-slot leak fix, so it guards
    // every accepted connection — auth on or off.
    let config = NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build(),
    )
    .handshake_timeout(Duration::from_millis(300));
    let node = NetNode::bind(0, config).unwrap();
    let mut mute = TcpStream::connect(node.addr()).unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || {
            node.stats().handshake_timeouts >= 1
        }),
        "a mute connection held its slot forever: {:?}",
        node.stats()
    );
    assert!(wait_closed(&mut mute));
    node.shutdown();
}

#[test]
fn batch_before_auth_is_rejected() {
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();
    let mut eager = TcpStream::connect(node.addr()).unwrap();
    eager
        .write_all(&encode_frame(&Frame::Hello {
            node: 7,
            version: PROTOCOL_VERSION,
        }))
        .unwrap();
    eager.write_all(&app_batch(7, target, b"too soon")).unwrap();
    eager.flush().unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || node.stats().auth_rejects >= 1),
        "the pre-auth batch was not rejected: {:?}",
        node.stats()
    );
    assert!(
        node.app_received().is_empty(),
        "a pre-auth item reached the app plane"
    );
    assert!(wait_closed(&mut eager));
    node.shutdown();
}

/// A peer still speaking the previous wire version (v5, without the
/// farewell item) is turned away at its `Hello` — counted as a decode
/// error and disconnected — so the batch behind it is never parsed. That
/// batch holds one `App` item, which v6 lays out exactly as v5 did: only
/// the version check keeps it out. (Authentication is off here: nothing
/// else stands between that batch and the app plane.)
#[test]
fn previous_protocol_version_is_refused() {
    let mut config = cfg();
    config.auth = None;
    let node = NetNode::bind(0, config).unwrap();
    let target = node.add_activity();
    let mut stale = TcpStream::connect(node.addr()).unwrap();
    stale
        .write_all(&encode_frame(&Frame::Hello {
            node: 7,
            version: PROTOCOL_VERSION - 1,
        }))
        .unwrap();
    assert_eq!(PROTOCOL_VERSION - 1, 5);
    stale.write_all(&app_batch(7, target, b"stale")).unwrap();
    stale.flush().unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || node.stats().decode_errors >= 1),
        "the stale hello was not counted: {:?}",
        node.stats()
    );
    assert!(wait_closed(&mut stale));
    assert_eq!(node.stats().decode_errors, 1, "only the hello");
    assert_eq!(node.stats().items_received, 0);

    // The node still serves a peer that speaks the current version.
    let mut current = TcpStream::connect(node.addr()).unwrap();
    current
        .write_all(&encode_frame(&Frame::Hello {
            node: 8,
            version: PROTOCOL_VERSION,
        }))
        .unwrap();
    current
        .write_all(&app_batch(8, target, b"current"))
        .unwrap();
    current.flush().unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || !node.app_received().is_empty()),
        "a current-version peer was not served"
    );
    assert_eq!(node.app_received()[0].payload, b"current");
    node.shutdown();
}

#[test]
fn chaos_handshakes_never_half_authenticate() {
    // Three adversaries — truncator, corruptor, replayer —
    // each followed by a batch injection attempt. None may deliver an
    // item; the node must stay healthy for an honest peer afterwards.
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();

    // 1. Truncation: half an AuthInit, then the batch. The decoder
    // holds the torso forever, so the deadline reaps the link.
    {
        let mut adversary = TcpStream::connect(node.addr()).unwrap();
        adversary
            .write_all(&encode_frame(&Frame::Hello {
                node: 21,
                version: PROTOCOL_VERSION,
            }))
            .unwrap();
        let init = encode_frame(&Frame::AuthInit {
            nonce: [0x5C; dgc_plane::NONCE_LEN],
        });
        adversary.write_all(&init[..init.len() / 2]).unwrap();
        adversary.flush().unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || {
                node.stats().handshake_timeouts >= 1
            }),
            "truncated handshake never reaped: {:?}",
            node.stats()
        );
        assert!(wait_closed(&mut adversary), "truncator");
    }

    // 2. Corruption: a genuine exchange whose proof MAC is flipped.
    {
        let mut adversary = TcpStream::connect(node.addr()).unwrap();
        adversary
            .write_all(&encode_frame(&Frame::Hello {
                node: 22,
                version: PROTOCOL_VERSION,
            }))
            .unwrap();
        let (mut machine, init) = Authenticator::initiator(key(), [0x33; dgc_plane::NONCE_LEN]);
        adversary
            .write_all(&encode_frame(&auth_to_frame(&init)))
            .unwrap();
        let mut decoder = FrameDecoder::new();
        let challenge =
            frame_to_auth(&read_frame(&mut adversary, &mut decoder).expect("challenge"))
                .expect("auth frame");
        let Ok(Step::SendAndDone(AuthMsg::Proof { mut mac })) = machine.on_msg(&challenge) else {
            panic!("initiator machine refused a genuine challenge");
        };
        mac[0] ^= 0x80;
        adversary
            .write_all(&encode_frame(&Frame::AuthProof { mac }))
            .unwrap();
        adversary
            .write_all(&app_batch(22, target, b"corrupt"))
            .unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || node.stats().auth_rejects >= 1),
            "corrupted proof not rejected: {:?}",
            node.stats()
        );
        assert!(wait_closed(&mut adversary), "corruptor");
    }

    // 3. Replay: a full genuine handshake is recorded, then its
    // Init + Proof are replayed verbatim on a fresh connection.
    // The node's fresh nonce is not covered by the stale proof.
    let recorded_init;
    let recorded_proof;
    {
        let mut genuine = TcpStream::connect(node.addr()).unwrap();
        genuine
            .write_all(&encode_frame(&Frame::Hello {
                node: 23,
                version: PROTOCOL_VERSION,
            }))
            .unwrap();
        let (mut machine, init) = Authenticator::initiator(key(), [0x44; dgc_plane::NONCE_LEN]);
        recorded_init = encode_frame(&auth_to_frame(&init));
        genuine.write_all(&recorded_init).unwrap();
        let mut decoder = FrameDecoder::new();
        let challenge = frame_to_auth(&read_frame(&mut genuine, &mut decoder).expect("challenge"))
            .expect("auth frame");
        let Ok(Step::SendAndDone(proof)) = machine.on_msg(&challenge) else {
            panic!("genuine handshake failed");
        };
        recorded_proof = encode_frame(&auth_to_frame(&proof));
        genuine.write_all(&recorded_proof).unwrap();
        // The recording session is authentic; drop it cleanly.
        drop(genuine);
    }
    {
        let rejects_before = node.stats().auth_rejects;
        let mut adversary = TcpStream::connect(node.addr()).unwrap();
        adversary
            .write_all(&encode_frame(&Frame::Hello {
                node: 24,
                version: PROTOCOL_VERSION,
            }))
            .unwrap();
        adversary.write_all(&recorded_init).unwrap();
        // Skip reading the fresh challenge; fire the stale proof
        // and an injection attempt straight away.
        adversary.write_all(&recorded_proof).unwrap();
        adversary
            .write_all(&app_batch(24, target, b"replayed"))
            .unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || {
                node.stats().auth_rejects > rejects_before
            }),
            "replayed proof not rejected: {:?}",
            node.stats()
        );
        assert!(wait_closed(&mut adversary), "replayer");
    }

    // Never half-authenticated: across all three attacks, not one
    // item crossed into the app plane…
    assert!(
        node.app_received().is_empty(),
        "an adversary injected an item"
    );
    // …and the node still serves an honest peer.
    let mut honest = connect_and_auth(&node, 9, key()).expect("node unhealthy after the chaos");
    honest.write_all(&app_batch(9, target, b"healthy")).unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || !node.app_received().is_empty()),
        "post-chaos delivery failed"
    );
    assert_eq!(node.app_received()[0].payload, b"healthy");
    drop(honest);
    node.shutdown();
}

#[test]
fn wrong_key_client_is_rejected_and_cannot_inject() {
    let node = NetNode::bind(0, cfg()).unwrap();
    let target = node.add_activity();
    let mut rogue = TcpStream::connect(node.addr()).unwrap();
    rogue
        .write_all(&encode_frame(&Frame::Hello {
            node: 66,
            version: PROTOCOL_VERSION,
        }))
        .unwrap();
    let (mut machine, init) =
        Authenticator::initiator(AuthKey::from_secret("guessed wrong"), [0x66; 16]);
    rogue
        .write_all(&encode_frame(&auth_to_frame(&init)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let challenge =
        frame_to_auth(&read_frame(&mut rogue, &mut decoder).expect("challenge")).unwrap();
    // The mutual half: the rogue's own machine already refuses the
    // challenge MAC (it cannot tell a genuine server from a fake
    // one without the key)…
    assert!(machine.on_msg(&challenge).is_err());
    // …but a determined rogue fires a fabricated proof anyway.
    rogue
        .write_all(&encode_frame(&Frame::AuthProof { mac: [0xEE; 32] }))
        .unwrap();
    rogue.write_all(&app_batch(66, target, b"forged")).unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || node.stats().auth_rejects >= 1),
        "fabricated proof not rejected: {:?}",
        node.stats()
    );
    assert!(node.app_received().is_empty(), "the rogue injected an item");
    assert!(wait_closed(&mut rogue));
    node.shutdown();
}
