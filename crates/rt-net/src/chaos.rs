//! Chaos proxy: replay [`FaultProfile`]s over real TCP links.
//!
//! The simulator realizes a fault profile as delivery-time arithmetic;
//! this module realizes the same profile as a per-link TCP proxy that
//! the endpoints cannot distinguish from a misbehaving network — the
//! harmony-style interposable middleware layer, applied to failure
//! injection. A [`ChaosProxy`] sits on one *directed* node pair
//! `from → to`: node `from` is pointed at the proxy's listen address
//! instead of the peer's, the proxy forwards byte-exact frames to the
//! real peer, and perturbs them per profile:
//!
//! * **delay** — a matching window adds one-way latency, anchored to
//!   each frame's *arrival* instant: co-arriving frames share one
//!   deadline and ship as a burst when it passes, and nothing overtakes
//!   a delayed predecessor — the delivery schedule the simulator's
//!   per-message `extra_delay` plus FIFO `last_delivery` slot produces;
//! * **drop** — matching frames are read and discarded (the seeded
//!   decision stream of [`FaultProfile::should_drop`]), the TCP
//!   equivalent of a frame lost to a link flap: the sender's write
//!   succeeded, nothing arrives;
//! * **sever** (partition) — the proxy kills both sockets and keeps
//!   killing fresh connections until the window closes; the transport's
//!   reconnect-with-backoff path then re-delivers what the protocol
//!   still cares about, as TCP does after connectivity returns;
//! * **reorder** — a matching frame is held back one frame and emitted
//!   after its successor, violating the paper's FIFO transport
//!   assumption (§3.2) on purpose — the decoder and protocol must
//!   survive it even though the simulator cannot express it.
//!
//! Because the proxy decodes and re-encodes *frames* (not raw bytes),
//! every perturbation is a clean unit of protocol traffic: drops never
//! tear a frame in half on an otherwise-live connection, and severs cut
//! mid-frame exactly like a dying TCP connection would. The reply
//! direction of each proxied connection applies the mirrored `to →
//! from` faults, so one profile describes both directions of a pair.
//!
//! Process pauses are not the proxy's job: [`crate::NetNode::pause_for`]
//! stalls the node event loop itself (see
//! [`crate::Cluster::listen_local_chaos`], which schedules both).

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dgc_core::faults::FaultProfile;
use dgc_core::units::Time;
use parking_lot::Mutex;

use crate::frame::{encode_frame, Frame, FrameDecoder};

/// Registry of every live socket the proxy's pump threads are blocked
/// on, so shutdown can unblock them all with `Shutdown::Both`. Entries
/// remove themselves when their pump exits (no fd accumulation on
/// flapping links).
#[derive(Debug, Default)]
struct SocketTracker {
    sockets: Mutex<HashMap<u64, TcpStream>>,
    next: AtomicU64,
}

impl SocketTracker {
    /// Registers a clone of `stream`; the returned guard unregisters it
    /// when dropped.
    fn register(self: &Arc<Self>, stream: &TcpStream) -> Option<TrackedSocket> {
        let clone = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.sockets.lock().insert(id, clone);
        Some(TrackedSocket {
            tracker: Arc::clone(self),
            id,
        })
    }

    /// Shuts down every registered socket, unblocking its pump.
    fn shutdown_all(&self) {
        for s in self.sockets.lock().values() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

struct TrackedSocket {
    tracker: Arc<SocketTracker>,
    id: u64,
}

impl Drop for TrackedSocket {
    fn drop(&mut self) {
        self.tracker.sockets.lock().remove(&self.id);
    }
}

/// Counters of what the proxy did to traffic, per directed link.
#[derive(Debug, Default)]
pub struct ChaosStats {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    severed: AtomicU64,
    corrupted: AtomicU64,
}

/// Point-in-time copy of a [`ChaosStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStatsSnapshot {
    /// Frames forwarded (possibly after a delay).
    pub forwarded: u64,
    /// Frames read and discarded.
    pub dropped: u64,
    /// Frames that served a delay before forwarding.
    pub delayed: u64,
    /// Frames emitted after their successor.
    pub reordered: u64,
    /// Connections killed by partition windows.
    pub severed: u64,
    /// Connections killed because the upstream bytes failed to decode.
    pub corrupted: u64,
}

impl ChaosStats {
    fn snapshot(&self) -> ChaosStatsSnapshot {
        ChaosStatsSnapshot {
            forwarded: self.forwarded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            severed: self.severed.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
        }
    }
}

/// A running fault-injecting proxy for one directed node pair.
pub struct ChaosProxy {
    from: u32,
    to: u32,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    tracker: Arc<SocketTracker>,
    stats: Arc<ChaosStats>,
    accept_handle: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy for the directed link `from → to`, forwarding to
    /// `target` (node `to`'s real listen address) and perturbing frames
    /// per `profile`. `epoch` anchors the profile's scenario clock —
    /// share one `Instant` across every proxy and pause of a scenario.
    pub fn spawn(
        from: u32,
        to: u32,
        target: SocketAddr,
        profile: Arc<FaultProfile>,
        epoch: Instant,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(SocketTracker::default());
        let stats = Arc::new(ChaosStats::default());

        let acceptor = Acceptor {
            from,
            to,
            listener,
            target,
            profile,
            epoch,
            stop: Arc::clone(&stop),
            tracker: Arc::clone(&tracker),
            stats: Arc::clone(&stats),
            fwd_seq: Arc::new(AtomicU64::new(0)),
            rev_seq: Arc::new(AtomicU64::new(0)),
        };
        let accept_handle = std::thread::Builder::new()
            .name(format!("dgc-chaos-{from}-to-{to}"))
            .spawn(move || acceptor.run())
            .expect("spawn chaos acceptor");

        Ok(ChaosProxy {
            from,
            to,
            addr,
            stop,
            tracker,
            stats,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address node `from` should dial instead of the real peer.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The directed pair this proxy interposes.
    pub fn link(&self) -> (u32, u32) {
        (self.from, self.to)
    }

    /// What the proxy has done so far (forward direction and mirrored
    /// reply direction combined).
    pub fn stats(&self) -> ChaosStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops the acceptor and kills every live proxied connection.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.tracker.shutdown_all();
        // Wake the blocking accept.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.tracker.shutdown_all();
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.stop_inner();
        }
    }
}

struct Acceptor {
    from: u32,
    to: u32,
    listener: TcpListener,
    target: SocketAddr,
    profile: Arc<FaultProfile>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    tracker: Arc<SocketTracker>,
    stats: Arc<ChaosStats>,
    // Per-direction frame counters feeding the profile's seeded
    // decision streams. Proxy-level, not per-connection: a reconnect
    // after a sever continues the stream instead of replaying its
    // prefix, so nominal loss rates stay independent of connection
    // churn (the simulator's counter likewise spans the whole run).
    fwd_seq: Arc<AtomicU64>,
    rev_seq: Arc<AtomicU64>,
}

impl Acceptor {
    fn run(self) {
        loop {
            let client = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let server = match TcpStream::connect_timeout(&self.target, Duration::from_millis(500))
            {
                Ok(s) => s,
                Err(_) => continue, // client sees the close and retries
            };
            let _ = client.set_nodelay(true);
            let _ = server.set_nodelay(true);
            // Forward pipe: client (node `from`) → server (node `to`).
            spawn_pump(
                PumpDir {
                    from: self.from,
                    to: self.to,
                },
                &client,
                &server,
                Arc::clone(&self.profile),
                self.epoch,
                Arc::clone(&self.stop),
                Arc::clone(&self.tracker),
                Arc::clone(&self.stats),
                Arc::clone(&self.fwd_seq),
            );
            // Reply pipe: responses ride the same connection back, so
            // the mirrored direction's faults apply to them.
            spawn_pump(
                PumpDir {
                    from: self.to,
                    to: self.from,
                },
                &server,
                &client,
                Arc::clone(&self.profile),
                self.epoch,
                Arc::clone(&self.stop),
                Arc::clone(&self.tracker),
                Arc::clone(&self.stats),
                Arc::clone(&self.rev_seq),
            );
        }
    }
}

#[derive(Clone, Copy)]
struct PumpDir {
    from: u32,
    to: u32,
}

/// One perturbed frame, scheduled for delivery: the reader stamps the
/// deadline at *arrival*; the writer sleeps until it passes.
struct Scheduled {
    deliver_at: Instant,
    raw: Vec<u8>,
}

/// Spawns a detached reader/writer thread pair moving frames
/// `src → dst`, applying the profile's `dir` faults to each decoded
/// frame. The split matters for delay fidelity: the reader never
/// sleeps, so every frame's deadline is anchored to its true arrival
/// instant even when predecessors are still being held — delays shift
/// each frame by `extra` instead of compounding serially across a
/// queue (the delivery schedule the simulator's per-message
/// `extra_delay` produces: a burst at window-end, not a throttle).
/// The FIFO channel between the halves keeps frames in order, so
/// nothing overtakes a delayed predecessor except a deliberate
/// reorder.
#[allow(clippy::too_many_arguments)]
fn spawn_pump(
    dir: PumpDir,
    src: &TcpStream,
    dst: &TcpStream,
    profile: Arc<FaultProfile>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    tracker: Arc<SocketTracker>,
    stats: Arc<ChaosStats>,
    seq: Arc<AtomicU64>,
) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
        return;
    };
    let (Ok(wsrc), Ok(wdst)) = (src.try_clone(), dst.try_clone()) else {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
        return;
    };
    let _ = wdst.set_write_timeout(Some(Duration::from_secs(5)));
    let (tx, rx) = std::sync::mpsc::channel::<Scheduled>();
    let now = |epoch: Instant| Time::from_nanos(epoch.elapsed().as_nanos() as u64);

    // Writer half: serve each frame's deadline, then forward it.
    {
        let profile = Arc::clone(&profile);
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        let _ = std::thread::Builder::new()
            .name(format!("dgc-chaos-write-{}-{}", dir.from, dir.to))
            .spawn(move || {
                use std::io::Write;
                let mut wdst = wdst;
                while let Ok(item) = rx.recv() {
                    // Sleep in slices: shutdown must not block behind a
                    // long hold, and a partition window opening
                    // mid-delay severs the held frame with the link
                    // instead of delivering into it.
                    // dgc-analysis: allow(wall-clock): the chaos schedule jitters real sockets in wall time
                    while Instant::now() < item.deliver_at {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        if profile
                            .severed_until(now(epoch), dir.from, dir.to)
                            .is_some()
                        {
                            stats.severed.fetch_add(1, Ordering::Relaxed);
                            let _ = wsrc.shutdown(Shutdown::Both);
                            let _ = wdst.shutdown(Shutdown::Both);
                            return;
                        }
                        // dgc-analysis: allow(wall-clock): the chaos schedule jitters real sockets in wall time
                        let left = item.deliver_at.saturating_duration_since(Instant::now());
                        std::thread::sleep(left.min(Duration::from_millis(20)));
                    }
                    if wdst.write_all(&item.raw).is_err() {
                        let _ = wsrc.shutdown(Shutdown::Both);
                        return;
                    }
                    stats.forwarded.fetch_add(1, Ordering::Relaxed);
                }
                // Reader hung up (EOF or sever) and the queue is
                // drained — in-flight delayed frames above still
                // delivered, like bytes on the wire outliving a closed
                // sender. Now drag the other side down with us.
                let _ = wdst.shutdown(Shutdown::Both);
            });
    }

    // Reader half: judge faults at arrival, schedule survivors.
    let _ = std::thread::Builder::new()
        .name(format!("dgc-chaos-pump-{}-{}", dir.from, dir.to))
        .spawn(move || {
            use std::io::Read;
            let mut src = src;
            let dst = dst;
            let _tracked = tracker.register(&src);
            let mut decoder = FrameDecoder::new();
            let mut chunk = [0u8; 16 * 1024];
            // Reorder hold-back slot: at most one frame waits here for
            // its successor to overtake it.
            let mut held: Option<Scheduled> = None;
            let sever = |src: &TcpStream, dst: &TcpStream, counter: &AtomicU64| {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = src.shutdown(Shutdown::Both);
                let _ = dst.shutdown(Shutdown::Both);
            };
            loop {
                let n = match src.read(&mut chunk) {
                    Ok(0) | Err(_) => {
                        // Connection over: release a held frame so a
                        // reorder never turns into a drop. Dropping `tx`
                        // lets the writer drain scheduled frames and
                        // then close the other side.
                        if let Some(h) = held.take() {
                            let _ = tx.send(h);
                        }
                        return;
                    }
                    Ok(n) => n,
                };
                // All frames completed by this chunk *arrived* now —
                // faults are judged at arrival, and a delayed frame's
                // deadline is anchored to its own arrival instant.
                // dgc-analysis: allow(wall-clock): the chaos schedule jitters real sockets in wall time
                let arrived_at = Instant::now();
                let t = now(epoch);
                decoder.push(&chunk[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(None) => break,
                        Err(_) => {
                            // Corrupt upstream: behave like the real
                            // network would — kill the connection.
                            sever(&src, &dst, &stats.corrupted);
                            return;
                        }
                        Ok(Some(frame)) => {
                            if profile.severed_until(t, dir.from, dir.to).is_some() {
                                sever(&src, &dst, &stats.severed);
                                return;
                            }
                            let raw = encode_frame(&frame);
                            let mut deliver_at = arrived_at;
                            // Hello is connection establishment (the TCP
                            // SYN of this layer): partition kills it, but
                            // drop/delay/reorder act on protocol traffic.
                            if !matches!(frame, Frame::Hello { .. }) {
                                let s = seq.fetch_add(1, Ordering::Relaxed) + 1;
                                if profile.should_drop(t, dir.from, dir.to, s) {
                                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                                let extra = profile.extra_delay(t, dir.from, dir.to);
                                if !extra.is_zero() {
                                    stats.delayed.fetch_add(1, Ordering::Relaxed);
                                    deliver_at =
                                        arrived_at + Duration::from_nanos(extra.as_nanos());
                                }
                                if held.is_none() && profile.should_reorder(t, dir.from, dir.to, s)
                                {
                                    held = Some(Scheduled { deliver_at, raw });
                                    continue;
                                }
                            }
                            if tx.send(Scheduled { deliver_at, raw }).is_err() {
                                // Writer died (stop or write failure).
                                let _ = src.shutdown(Shutdown::Both);
                                return;
                            }
                            if let Some(prev) = held.take() {
                                stats.reordered.fetch_add(1, Ordering::Relaxed);
                                if tx.send(prev).is_err() {
                                    let _ = src.shutdown(Shutdown::Both);
                                    return;
                                }
                            }
                        }
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::config::DgcConfig;
    use dgc_core::faults::Window;
    use dgc_core::units::Dur;
    use std::io::{Read, Write};

    /// A bare echo peer speaking raw frames, so proxy behaviour is
    /// observable without a whole DGC node behind it.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, h)
    }

    fn hello(node: u32) -> Frame {
        Frame::Hello {
            node,
            version: crate::frame::PROTOCOL_VERSION,
        }
    }

    #[test]
    fn clean_profile_is_transparent() {
        let (addr, _h) = echo_server();
        let proxy =
            ChaosProxy::spawn(0, 1, addr, Arc::new(FaultProfile::none()), Instant::now()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let f = hello(7);
        c.write_all(&encode_frame(&f)).unwrap();
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 256];
        let got = loop {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "echo died");
            dec.push(&buf[..n]);
            if let Some(f) = dec.next_frame().unwrap() {
                break f;
            }
        };
        assert_eq!(got, f, "frames pass through byte-exactly");
        // The pumps bump their counters just after writing, so poll:
        // the echoed frame proves delivery, the counter follows.
        assert!(
            crate::node::poll_until(Duration::from_secs(2), || proxy.stats().forwarded >= 2),
            "both pipes should have forwarded: {:?}",
            proxy.stats()
        );
        proxy.shutdown();
    }

    #[test]
    fn delays_anchor_to_arrival_and_do_not_compound() {
        let (addr, _h) = echo_server();
        let profile = FaultProfile::none().delay(
            Some(0),
            Some(1),
            Window::from_millis(0, 60_000),
            Dur::from_millis(100),
        );
        let proxy = ChaosProxy::spawn(0, 1, addr, Arc::new(profile), Instant::now()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let raw = encode_frame(&Frame::Batch(Vec::new()));
        let start = Instant::now();
        for _ in 0..4 {
            c.write_all(&raw).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 256];
        let mut got = 0;
        while got < 4 {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "echo died");
            dec.push(&buf[..n]);
            while dec.next_frame().unwrap().is_some() {
                got += 1;
            }
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(100),
            "delay window not served: {elapsed:?}"
        );
        // Co-arriving frames share one arrival-anchored deadline and
        // ship as a burst; a throttle that re-anchored each frame after
        // its predecessor's sleep would take ≥ 400 ms here.
        assert!(
            elapsed < Duration::from_millis(300),
            "delays compounded serially: {elapsed:?}"
        );
        assert!(proxy.stats().delayed >= 4, "{:?}", proxy.stats());
        proxy.shutdown();
    }

    #[test]
    fn partition_severs_until_heal() {
        let (addr, _h) = echo_server();
        let profile = FaultProfile::none().partition_pair(0, 1, Window::from_millis(0, 50_000));
        let proxy = ChaosProxy::spawn(0, 1, addr, Arc::new(profile), Instant::now()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&encode_frame(&hello(7))).unwrap();
        let mut buf = [0u8; 64];
        // The proxy must kill the connection, so the read observes EOF
        // (Ok(0)) or a reset — never echoed bytes.
        let severed = match c.read(&mut buf) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(severed, "partitioned link must not deliver");
        assert!(proxy.stats().severed >= 1);
        assert_eq!(proxy.stats().forwarded, 0);
        proxy.shutdown();
    }

    #[test]
    fn shutdown_interrupts_a_long_pause() {
        // A profile can pause a node for longer than any test wants to
        // wait; shutdown (including the Drop that runs when a failed
        // assertion unwinds) must cut through the sleep, not queue
        // behind it.
        let dgc = DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build();
        let cluster = crate::Cluster::listen_local(1, crate::NetConfig::new(dgc)).unwrap();
        cluster.pause_node(0, Duration::from_secs(60));
        // Give the event loop a moment to dequeue the pause.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        cluster.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown waited out the pause: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn end_to_end_cluster_collects_through_clean_proxies() {
        // The interposition itself must be invisible: a chaos cluster
        // with an empty profile behaves exactly like a plain one.
        let dgc = DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build();
        let cluster =
            crate::Cluster::listen_local_chaos(2, crate::NetConfig::new(dgc), FaultProfile::none())
                .unwrap();
        let a = cluster.add_activity(0);
        let b = cluster.add_activity(1);
        cluster.add_ref(a, b);
        cluster.add_ref(b, a);
        cluster.set_idle(a, true);
        cluster.set_idle(b, true);
        assert!(
            cluster.wait_until(Duration::from_secs(20), |t| t.len() == 2),
            "cycle through proxies not collected: {:?}",
            cluster.terminated()
        );
        let chaos = cluster.chaos_stats();
        assert!(chaos.forwarded > 0, "traffic actually crossed the proxies");
        assert_eq!(chaos.dropped + chaos.severed + chaos.corrupted, 0);
        cluster.shutdown();
    }
}
