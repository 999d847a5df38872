//! The node's **link layer**: every socket of a node on one readiness
//! loop, driven from the node's own event-loop thread.
//!
//! The reactor owns the listener, every accepted and dialed connection
//! and all outbound link state, nonblocking, behind a
//! [`polling::Poller`] (epoll on Linux, portable emulation elsewhere).
//! It implements the link semantics the layers above rely on:
//!
//! * **Hello first** — every dialed connection opens with a `Hello`
//!   naming this node and, with a key configured, the `dgc-plane`
//!   challenge/response right behind it; no item is framed to, or
//!   accepted from, a peer that has not finished it, and a connection
//!   that stalls mid-handshake is reclaimed at `handshake_timeout`.
//! * **Forward/reply routing** (§2.2 firewall transparency) — forward
//!   traffic rides the link this node dialed; replies ride back over
//!   whichever socket the peer opened, never a fresh reverse
//!   connection.
//! * **Reconnect with backoff, then conviction** — a failed connect or
//!   write backs the link off exponentially while its items stay
//!   parked; `fail_after_attempts` consecutive failures convict the
//!   peer and hand everything still unsent back to the worker.
//! * **Sealed frames only** — a link queues the frames the egress plane
//!   sealed, as wire bytes, and writes each one as it is: frames are
//!   self-contained, so a frame is also its own salvage when its
//!   connection dies. On the read side each frame is checked whole and
//!   handed to the worker still encoded ([`Notice::Frame`]).
//! * **Bounded buffering** — a link holds at most `max_link_pending`
//!   items (plus its newest frame); overflow sheds the oldest frames,
//!   and the application payloads inside surface as send failures
//!   (heartbeats and digests regenerate).
//! * **Join probes** — [`Reactor::probe`] dials a seed with no link
//!   state behind the connection: hello, handshake, one anycast digest,
//!   then whatever gossip the seed sends back.
//!
//! The worker parks in [`Reactor::poll`]; cross-thread senders nudge
//! the loop through the poller's [`polling::Waker`]. Everything the
//! reactor cannot decide alone — delivering items, convicting peers,
//! rerouting salvage — surfaces as a [`Notice`] for the worker.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dgc_plane::{Authenticator, Step};
use polling::{Interest, PollEvent, Poller, Waker};

use crate::config::NetConfig;
use crate::frame::{
    check_payload, Frame, FrameBuilder, FrameDecoder, Incoming, Item, SealedFrame, PROTOCOL_VERSION,
};
use crate::node::{auth_frame, frame_to_auth, fresh_nonce, AcceptBackoff};
use crate::stats::NetStats;

/// Poller key of the listening socket.
const TOKEN_LISTENER: usize = 0;
/// Poller key of the cross-thread waker.
const TOKEN_WAKER: usize = 1;
/// First key handed to connections; keys are never reused, so a stale
/// event for a dead connection simply misses in the map.
const TOKEN_BASE: usize = 2;

/// How long an in-flight nonblocking connect may take before it counts
/// as a failed attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a connection may sit write-blocked with data pending before
/// it is declared dead: a peer that accepts but never reads must not
/// hoard frames forever.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);
/// Read buffer per syscall.
const READ_CHUNK: usize = 16 * 1024;
/// Most read syscalls served per readiness event, so one firehose
/// connection cannot starve the rest of the loop (level-triggered
/// polling re-reports whatever is left).
const MAX_READS_PER_EVENT: usize = 16;

/// What the reactor needs the worker to handle.
pub(crate) enum Notice {
    /// A batch frame from an authenticated peer, checked whole and
    /// still encoded: the worker decodes and dispatches its items.
    Frame(Bytes),
    /// `fail_after_attempts` consecutive failures convicted the peer;
    /// `unsent` is everything still queued for it.
    PeerUnreachable {
        /// The convicted peer.
        node: u32,
        /// Frames the link never managed to write.
        unsent: Vec<SealedFrame>,
    },
    /// Frames a dying connection could not carry. With `reroute` the
    /// worker may retry them over the peer's other path; without it
    /// they fail outright (retrying could reorder around what a
    /// reconnecting peer will deliver).
    Undeliverable {
        /// The peer the frames were addressed to.
        node: u32,
        /// The salvaged frames.
        frames: Vec<SealedFrame>,
        /// Whether rerouting over another path is safe.
        reroute: bool,
    },
    /// Frames a link shed at its `max_link_pending` bound: the
    /// application payloads inside fail, the rest regenerate.
    Shed {
        /// The shed frames.
        frames: Vec<SealedFrame>,
    },
}

/// Which side opened the connection — decides routing and salvage.
enum ConnKind {
    /// Accepted from the listener: carries the peer's forward traffic
    /// in, our replies out (once its hello names the peer).
    Inbound,
    /// Dialed by this node: carries our forward traffic out, the
    /// peer's replies in. A link's connection ([`Reactor::open_link`])
    /// knows its peer and feeds the link's backoff when it fails; a
    /// join probe ([`Reactor::probe`]) has no peer id and no link — it
    /// carries one digest out, the seed's gossip in, and just closes.
    Outbound,
}

/// One frame mid-write and how far the socket got. A batch frame is
/// salvaged whole if the connection dies before completion; a
/// handshake frame (no items) is not.
struct PendingFrame {
    frame: SealedFrame,
    written: usize,
}

impl PendingFrame {
    fn new(frame: SealedFrame) -> PendingFrame {
        PendingFrame { frame, written: 0 }
    }
}

/// Sealed frames waiting for a socket, counted in items — the unit
/// `NetConfig::max_link_pending` bounds.
#[derive(Default)]
struct FrameQueue {
    frames: VecDeque<SealedFrame>,
    items: usize,
}

impl FrameQueue {
    fn push(&mut self, frame: SealedFrame) {
        self.items += frame.items() as usize;
        self.frames.push_back(frame);
    }

    fn pop(&mut self) -> Option<SealedFrame> {
        let frame = self.frames.pop_front()?;
        self.items -= frame.items() as usize;
        Some(frame)
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Drops the oldest frames while more than `max` items wait, but
    /// never the newest frame, so a link bounded below one flush still
    /// carries its latest; returns what it dropped.
    fn shed_over(&mut self, max: usize) -> Vec<SealedFrame> {
        let mut shed = Vec::new();
        while self.items > max && self.frames.len() > 1 {
            shed.extend(self.pop());
        }
        shed
    }
}

impl Extend<SealedFrame> for FrameQueue {
    fn extend<I: IntoIterator<Item = SealedFrame>>(&mut self, frames: I) {
        for frame in frames {
            self.push(frame);
        }
    }
}

impl IntoIterator for FrameQueue {
    type Item = SealedFrame;
    type IntoIter = std::collections::vec_deque::IntoIter<SealedFrame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.into_iter()
    }
}

/// Everything a dead connection still held for its peer, oldest first:
/// the batch frames on the wire (a partly written one is sent again
/// whole), then its queue.
fn salvage(wire: VecDeque<PendingFrame>, queue: FrameQueue) -> Vec<SealedFrame> {
    wire.into_iter()
        .map(|p| p.frame)
        .filter(|f| f.items() > 0)
        .chain(queue)
        .collect()
}

/// A registered nonblocking connection and its codec state.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    /// Peer node id: known from birth on a link's connection, learned
    /// from the hello on inbound ones, never on a join probe (it dialed
    /// an address, not a node).
    peer: Option<u32>,
    decoder: FrameDecoder,
    /// Batch frames accepted but not yet on the wire.
    queue: FrameQueue,
    /// Frames in flight (at most a hello plus one data frame).
    wire: VecDeque<PendingFrame>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// A nonblocking connect is still in flight.
    connecting: bool,
    connect_deadline: Option<Instant>,
    /// Set while a write sits in `WouldBlock`; expiry kills the conn.
    stall_deadline: Option<Instant>,
    /// Whether frame items may cross this connection. `true` from
    /// birth on the trusted-LAN path (no key configured); earned
    /// through the challenge/response otherwise. A batch on an
    /// unearned connection kills it.
    authenticated: bool,
    /// The handshake state machine mid-flight: the responder on
    /// accepted connections, the initiator on dialed ones.
    machine: Option<Authenticator>,
    /// Accepted and freshly connected sockets must complete their
    /// hello (and handshake, with auth on) before this; expiry
    /// reclaims the slot and counts `net.handshake_timeouts`.
    handshake_deadline: Option<Instant>,
}

impl Conn {
    /// Bytes or items still waiting to go out.
    fn has_unsent(&self) -> bool {
        !self.wire.is_empty() || !self.queue.is_empty()
    }

    /// Whether the socket could take bytes right now: a frame is mid-
    /// write, or batches are queued *and* may be written. Batches parked
    /// behind an unfinished handshake do not count — the socket is
    /// writable the whole time the peer's challenge is in flight, and
    /// asking for WRITE readiness then turns a level-triggered poll
    /// into a busy loop.
    fn wants_write(&self) -> bool {
        !self.wire.is_empty() || (self.authenticated && !self.queue.is_empty())
    }
}

/// Connection state of an outbound link.
#[derive(Clone, Copy)]
enum LinkState {
    /// A connection exists (possibly still connecting) under `token`.
    Wired { token: usize },
    /// Waiting out a reconnect backoff; redialed at `until` if traffic
    /// is parked, or lazily on the next send.
    Backoff { until: Instant },
}

/// An outbound link: the state that outlives any one connection toward
/// a peer — where to dial, how many attempts in a row have failed, and
/// the frames waiting for the next connection.
struct OutLink {
    addr: SocketAddr,
    state: LinkState,
    /// Consecutive failed attempts; a fully written frame resets it.
    failed_attempts: u32,
    /// Whether the link ever completed a connect (for reconnect stats).
    ever_connected: bool,
    /// Frames queued while no connection exists.
    parked: FrameQueue,
}

/// Owns the listener, every connection, all outbound link state, and
/// the poller that multiplexes them on one thread.
pub(crate) struct Reactor {
    node_id: u32,
    config: NetConfig,
    stats: Arc<NetStats>,
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    /// Set while the listener is unhooked after an accept error; it is
    /// re-registered when the backoff expires.
    listener_resume: Option<Instant>,
    accept_backoff: AcceptBackoff,
    next_token: usize,
    conns: HashMap<usize, Conn>,
    links: HashMap<u32, OutLink>,
    /// peer node → token of the inbound conn its replies travel on.
    reply_routes: HashMap<u32, usize>,
    /// Reused event buffer for `Poller::wait`.
    events: Vec<PollEvent>,
    /// Notices accumulated since the worker last drained them.
    pending: Vec<Notice>,
}

fn earlier(a: Option<Instant>, b: Instant) -> Option<Instant> {
    Some(match a {
        Some(a) => a.min(b),
        None => b,
    })
}

/// Bounded buffering (`NetConfig::max_link_pending`), shared by parked
/// and wired queues: drop the oldest frames, and hand them to the
/// worker, which surfaces the app payloads inside — the protocol
/// regenerates heartbeats and digests, never application units.
fn shed_overflow(queue: &mut FrameQueue, max: usize, pending: &mut Vec<Notice>) {
    let frames = queue.shed_over(max);
    if !frames.is_empty() {
        pending.push(Notice::Shed { frames });
    }
}

impl Reactor {
    /// Takes ownership of the node's (already bound) listener and opens
    /// the poller. The listener goes nonblocking; accepts are served
    /// from [`Reactor::poll`].
    pub(crate) fn new(
        node_id: u32,
        listener: TcpListener,
        config: NetConfig,
        stats: Arc<NetStats>,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(&listener, TOKEN_LISTENER, Interest::READ)?;
        let waker = Arc::new(poller.waker(TOKEN_WAKER)?);
        Ok(Reactor {
            node_id,
            config,
            stats,
            poller,
            waker,
            listener,
            listener_resume: None,
            accept_backoff: AcceptBackoff::new(),
            next_token: TOKEN_BASE,
            conns: HashMap::new(),
            links: HashMap::new(),
            reply_routes: HashMap::new(),
            events: Vec::new(),
            pending: Vec::new(),
        })
    }

    /// Handle event senders use to interrupt a parked [`Reactor::poll`].
    pub(crate) fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Whether an outbound link toward `dest` exists (wired or backing
    /// off).
    pub(crate) fn has_link(&self, dest: u32) -> bool {
        self.links.contains_key(&dest)
    }

    /// Ensures an outbound link toward `dest` at `addr`, dialing
    /// immediately. No-op if one already exists.
    pub(crate) fn open_link(&mut self, dest: u32, addr: SocketAddr) {
        if self.links.contains_key(&dest) {
            return;
        }
        self.links.insert(
            dest,
            OutLink {
                addr,
                state: LinkState::Backoff {
                    // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
                    until: Instant::now(),
                },
                failed_attempts: 0,
                ever_connected: false,
                parked: FrameQueue::default(),
            },
        );
        self.dial(dest);
    }

    /// Queues forward frames (heartbeats, farewells, requests) on
    /// `dest`'s link and pushes whatever the socket will take right
    /// now. `Err` hands the frames back: no link exists (the caller
    /// reroutes or fails them).
    pub(crate) fn queue_forward(
        &mut self,
        dest: u32,
        batch: Vec<SealedFrame>,
    ) -> Result<(), Vec<SealedFrame>> {
        let Some(link) = self.links.get_mut(&dest) else {
            return Err(batch);
        };
        match link.state {
            LinkState::Wired { token } => {
                let conn = self
                    .conns
                    .get_mut(&token)
                    .expect("wired link state implies a live conn");
                conn.queue.extend(batch);
                shed_overflow(
                    &mut conn.queue,
                    self.config.max_link_pending,
                    &mut self.pending,
                );
                self.flush_token(token);
            }
            LinkState::Backoff { until } => {
                link.parked.extend(batch);
                shed_overflow(
                    &mut link.parked,
                    self.config.max_link_pending,
                    &mut self.pending,
                );
                // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
                if Instant::now() >= until {
                    self.dial(dest);
                }
            }
        }
        Ok(())
    }

    /// Queues reply frames (responses, reply payloads, failure notices,
    /// gossip) on the inbound connection `dest`'s forward traffic
    /// arrived on. `Err` hands the frames back: the peer has no live
    /// reply socket.
    pub(crate) fn queue_reply(
        &mut self,
        dest: u32,
        batch: Vec<SealedFrame>,
    ) -> Result<(), Vec<SealedFrame>> {
        let Some(&token) = self.reply_routes.get(&dest) else {
            return Err(batch);
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            self.reply_routes.remove(&dest);
            return Err(batch);
        };
        conn.queue.extend(batch);
        shed_overflow(
            &mut conn.queue,
            self.config.max_link_pending,
            &mut self.pending,
        );
        self.flush_token(token);
        Ok(())
    }

    /// Tears down `dest`'s outbound link (address changed or peer
    /// departed); its backlog surfaces as reroutable salvage.
    pub(crate) fn drop_link(&mut self, dest: u32) {
        let Some(link) = self.links.remove(&dest) else {
            return;
        };
        let mut frames: Vec<SealedFrame> = Vec::new();
        if let LinkState::Wired { token } = link.state {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.delete(&conn.stream, token);
                let _ = conn.stream.shutdown(Shutdown::Both);
                frames = salvage(conn.wire, conn.queue);
            }
        }
        frames.extend(link.parked);
        if !frames.is_empty() {
            self.pending.push(Notice::Undeliverable {
                node: dest,
                frames,
                reroute: true,
            });
        }
    }

    /// Full disconnect from a departed peer: outbound link *and* the
    /// inbound reply route (after one last nonblocking flush attempt —
    /// farewell acks ride out if the socket has room).
    pub(crate) fn drop_peer(&mut self, dest: u32) {
        if let Some(&token) = self.reply_routes.get(&dest) {
            self.flush_token(token);
        }
        if let Some(token) = self.reply_routes.remove(&dest) {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.delete(&conn.stream, token);
                let _ = conn.stream.shutdown(Shutdown::Both);
                let frames = salvage(conn.wire, conn.queue);
                if !frames.is_empty() {
                    self.pending.push(Notice::Undeliverable {
                        node: dest,
                        frames,
                        reroute: false,
                    });
                }
            }
        }
        self.drop_link(dest);
    }

    /// Dials `addr` as a **join probe**: a connection with no link
    /// behind it whose hello (and handshake) is followed by `digest` —
    /// the joiner's own record, anycast. The seed answers over the same
    /// socket, which then carries its gossip in until either side
    /// closes. A probe that fails — refused, timed out, rejected — just
    /// closes; the worker's join timer dials the next one.
    pub(crate) fn probe(&mut self, addr: SocketAddr, digest: Item) {
        let mut queue = FrameQueue::default();
        queue.extend(FrameBuilder::seal_items(&[digest]));
        let _ = self.connect(addr, None, queue);
    }

    /// The earliest instant any reactor timer fires: connect/write
    /// deadlines, backoff expiries with traffic parked, listener
    /// re-arm. The worker folds this into its poll timeout.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let mut next = self.listener_resume;
        for c in self.conns.values() {
            if let Some(d) = c.connect_deadline {
                next = earlier(next, d);
            }
            if let Some(d) = c.stall_deadline {
                next = earlier(next, d);
            }
            if let Some(d) = c.handshake_deadline {
                next = earlier(next, d);
            }
        }
        for l in self.links.values() {
            if let LinkState::Backoff { until } = l.state {
                if !l.parked.is_empty() {
                    next = earlier(next, until);
                }
            }
        }
        next
    }

    /// One loop turn: waits up to `timeout` for readiness (or a waker
    /// nudge), services every ready socket and due timer, and appends
    /// what the worker must handle to `notices`.
    pub(crate) fn poll(&mut self, timeout: Duration, notices: &mut Vec<Notice>) {
        notices.append(&mut self.pending);
        self.events.clear();
        let mut events = std::mem::take(&mut self.events);
        if self.poller.wait(&mut events, Some(timeout)).is_err() {
            // A failed wait degrades to a timeout; don't spin hot.
            std::thread::sleep(Duration::from_millis(1));
        }
        self.events = events;
        self.dispatch_io();
        self.service_timers();
        notices.append(&mut self.pending);
    }

    /// Best-effort flush of everything still queued, for up to `grace`:
    /// what lets a leaving or stopping node's last frames reach the
    /// sockets before it goes. Notices raised while draining stay
    /// pending (a leaving node surfaces them on its next poll; a
    /// stopping node discards them with the reactor).
    pub(crate) fn drain(&mut self, grace: Duration) {
        // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
        let deadline = Instant::now() + grace;
        loop {
            let busy: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.connecting && c.has_unsent())
                .map(|(&t, _)| t)
                .collect();
            for t in busy {
                self.flush_token(t);
            }
            let unsent = self.conns.values().any(|c| c.has_unsent());
            if !unsent {
                return;
            }
            // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            let _ = self
                .poller
                .wait(&mut events, Some(left.min(Duration::from_millis(10))));
            self.events = events;
            self.dispatch_io();
            self.service_timers();
        }
    }

    /// Routes every event in `self.events` to its handler.
    fn dispatch_io(&mut self) {
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            match ev.key {
                TOKEN_WAKER => self.waker.clear(),
                TOKEN_LISTENER => self.accept_ready(),
                token => {
                    if ev.readable {
                        self.read_ready(token);
                    }
                    if ev.writable {
                        self.write_ready(token);
                    }
                }
            }
        }
        self.events = events;
    }

    fn accept_ready(&mut self) {
        self.accept_ready_with(|listener| listener.accept());
    }

    /// Accepts everything queued on the listener, with the accept call
    /// injected so tests can feed it transient errors without
    /// exhausting real descriptors. A transient error (EMFILE and
    /// friends) unhooks the listener for a bounded [`AcceptBackoff`]
    /// instead of spinning on a level-triggered listener — or going
    /// deaf to inbound connections while the node looks healthy.
    pub(crate) fn accept_ready_with(
        &mut self,
        mut accept: impl FnMut(&TcpListener) -> std::io::Result<(TcpStream, SocketAddr)>,
    ) {
        loop {
            match accept(&self.listener) {
                Ok((stream, _)) => {
                    self.accept_backoff.on_success();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(&stream, token, Interest::READ).is_err() {
                        continue;
                    }
                    let conn = Conn {
                        stream,
                        kind: ConnKind::Inbound,
                        peer: None,
                        decoder: FrameDecoder::new(),
                        queue: FrameQueue::default(),
                        wire: VecDeque::new(),
                        interest: Interest::READ,
                        connecting: false,
                        connect_deadline: None,
                        stall_deadline: None,
                        authenticated: self.config.auth.is_none(),
                        machine: None,
                        // Accepted sockets earn their keep before the
                        // deadline: hello, plus the proof when a key is
                        // configured — a silent peer's connection (and
                        // its slot) is reclaimed, not parked forever.
                        // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
                        handshake_deadline: Some(Instant::now() + self.config.handshake_timeout),
                    };
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let wait = self.accept_backoff.on_error(&self.stats);
                    let _ = self.poller.delete(&self.listener, TOKEN_LISTENER);
                    // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
                    self.listener_resume = Some(Instant::now() + wait);
                    return;
                }
            }
        }
    }

    /// Fires every due timer: listener re-arm, connect and write-stall
    /// deadlines, backoff expiries with parked traffic.
    fn service_timers(&mut self) {
        // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
        let now = Instant::now();
        if self.listener_resume.is_some_and(|t| t <= now) {
            self.listener_resume = None;
            if self
                .poller
                .add(&self.listener, TOKEN_LISTENER, Interest::READ)
                .is_err()
            {
                // Couldn't re-arm: back off again rather than go deaf.
                let wait = self.accept_backoff.on_error(&self.stats);
                self.listener_resume = Some(now + wait);
            } else {
                self.accept_ready();
            }
        }
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter_map(|(&t, c)| {
                let connect_expired = c.connecting && c.connect_deadline.is_some_and(|d| d <= now);
                let stalled = c.stall_deadline.is_some_and(|d| d <= now);
                (connect_expired || stalled).then_some(t)
            })
            .collect();
        for t in expired {
            self.conn_dead(t);
        }
        // Handshakes that never completed: reclaim the slot and count
        // the timeout — a connected-but-silent peer is the leak this
        // deadline exists to bound.
        let hs_expired: Vec<usize> = self
            .conns
            .iter()
            .filter_map(|(&t, c)| c.handshake_deadline.is_some_and(|d| d <= now).then_some(t))
            .collect();
        for t in hs_expired {
            self.stats.on_handshake_timeout();
            self.conn_dead(t);
        }
        let redial: Vec<u32> = self
            .links
            .iter()
            .filter_map(|(&d, l)| match l.state {
                LinkState::Backoff { until } if until <= now && !l.parked.is_empty() => Some(d),
                _ => None,
            })
            .collect();
        for d in redial {
            self.dial(d);
        }
    }

    /// Starts a nonblocking connect for `dest`'s link, moving its
    /// parked frames onto the new connection's queue. A synchronous
    /// failure takes the normal penalty path.
    fn dial(&mut self, dest: u32) {
        let Some(link) = self.links.get_mut(&dest) else {
            return;
        };
        let addr = link.addr;
        let parked = std::mem::take(&mut link.parked);
        match self.connect(addr, Some(dest), parked) {
            Ok(token) => {
                if let Some(link) = self.links.get_mut(&dest) {
                    link.state = LinkState::Wired { token };
                }
            }
            Err(parked) => self.penalize_link(dest, parked.into_iter().collect()),
        }
    }

    /// Opens a nonblocking connection to `addr` with `queue` waiting
    /// behind its hello (and handshake), and returns its token. `peer`
    /// is the link the connection serves, `None` for a join probe.
    /// Hands the queue back if no socket could be opened or registered.
    fn connect(
        &mut self,
        addr: SocketAddr,
        peer: Option<u32>,
        queue: FrameQueue,
    ) -> Result<usize, FrameQueue> {
        let Ok(stream) = polling::connect_nonblocking(&addr) else {
            return Err(queue);
        };
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.add(&stream, token, Interest::WRITE).is_err() {
            return Err(queue);
        }
        let conn = Conn {
            stream,
            kind: ConnKind::Outbound,
            peer,
            decoder: FrameDecoder::new(),
            queue,
            wire: VecDeque::new(),
            interest: Interest::WRITE,
            connecting: true,
            // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
            connect_deadline: Some(Instant::now() + CONNECT_TIMEOUT),
            stall_deadline: None,
            authenticated: self.config.auth.is_none(),
            machine: None,
            handshake_deadline: None,
        };
        self.conns.insert(token, conn);
        Ok(token)
    }

    /// An in-flight connect's socket polled writable: harvest `SO_ERROR`
    /// to learn whether it landed, and on success send the hello — the
    /// first frame on every outbound connection.
    fn connect_ready(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match polling::take_socket_error(&conn.stream) {
            Ok(()) => {
                conn.connecting = false;
                conn.connect_deadline = None;
                let hello = SealedFrame::handshake(&Frame::Hello {
                    node: self.node_id,
                    version: PROTOCOL_VERSION,
                });
                conn.wire.push_front(PendingFrame::new(hello));
                if let Some(key) = self.config.auth {
                    // Open the challenge/response right behind the
                    // hello; queued batches stay off the wire until
                    // the proof goes out (`flush_token` gates on
                    // `authenticated`).
                    let (machine, init) = Authenticator::initiator(key, fresh_nonce());
                    conn.machine = Some(machine);
                    // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
                    conn.handshake_deadline = Some(Instant::now() + self.config.handshake_timeout);
                    conn.wire
                        .push_back(PendingFrame::new(SealedFrame::handshake(&auth_frame(
                            &init,
                        ))));
                }
                if let Some(dest) = conn.peer {
                    if let Some(link) = self.links.get_mut(&dest) {
                        if link.ever_connected {
                            self.stats.on_reconnect();
                        }
                        link.ever_connected = true;
                    }
                }
                self.flush_token(token);
            }
            Err(_) => self.conn_dead(token),
        }
    }

    fn write_ready(&mut self, token: usize) {
        let connecting = match self.conns.get(&token) {
            Some(c) => c.connecting,
            None => return,
        };
        if connecting {
            self.connect_ready(token);
        } else {
            self.flush_token(token);
        }
    }

    /// Drives `token`'s write side: moves the next queued frame onto the
    /// wire as it drains, writes until `WouldBlock` or empty, and feeds
    /// fatal errors to [`Reactor::conn_dead`]. Never blocks.
    fn flush_token(&mut self, token: usize) {
        let mut fatal = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.connecting {
                break;
            }
            if conn.wire.is_empty() {
                // Batches go out only on authenticated connections;
                // mid-handshake, the wire carries handshake frames and
                // nothing else.
                if !conn.authenticated {
                    break;
                }
                let Some(frame) = conn.queue.pop() else {
                    break;
                };
                conn.wire.push_back(PendingFrame::new(frame));
            }
            let f = conn.wire.front_mut().expect("wire was just checked/filled");
            match conn.stream.write(&f.frame.as_bytes()[f.written..]) {
                Ok(0) => {
                    fatal = true;
                    break;
                }
                Ok(n) => {
                    f.written += n;
                    let complete = f.written == f.frame.as_bytes().len();
                    conn.stall_deadline = None;
                    if complete {
                        let done = conn.wire.pop_front().expect("front frame exists");
                        let bytes = done.frame.as_bytes().len() as u64;
                        self.stats
                            .on_frame_sent(u64::from(done.frame.items()), bytes);
                        // Only a fully written frame proves the link
                        // works; a landed connect alone must not reset
                        // the count, or a peer that accepts and closes
                        // at once would be redialed without backoff.
                        if matches!(conn.kind, ConnKind::Outbound) {
                            if let Some(dest) = conn.peer {
                                if let Some(link) = self.links.get_mut(&dest) {
                                    link.failed_attempts = 0;
                                }
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.stall_deadline.is_none() {
                        // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
                        conn.stall_deadline = Some(Instant::now() + WRITE_STALL_TIMEOUT);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            self.conn_dead(token);
            return;
        }
        self.update_interest(token);
    }

    /// Reads `token` until `WouldBlock` (bounded per event), feeding the
    /// frame decoder and surfacing each checked batch frame as a notice.
    fn read_ready(&mut self, token: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.connecting {
                return;
            }
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.conn_dead(token);
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.conn_dead(token);
                    return;
                }
            };
            self.stats.on_raw_received(n as u64);
            conn.decoder.push(&chunk[..n]);
            let mut dead = false;
            let mut kick = false;
            loop {
                let next = conn
                    .decoder
                    .next_payload()
                    .and_then(|p| p.map(check_payload).transpose());
                match next {
                    Ok(None) => break,
                    Ok(Some(Incoming::Control(Frame::Hello { node, version }))) => {
                        if version != PROTOCOL_VERSION {
                            self.stats.on_decode_error();
                            dead = true;
                            break;
                        }
                        self.stats.on_frame_received(0);
                        if matches!(conn.kind, ConnKind::Inbound) && conn.peer.is_none() {
                            // The hello names the peer: its replies now
                            // route back over this connection (§2.2 —
                            // never a fresh reverse connection). With a
                            // key configured the route waits for the
                            // proof.
                            conn.peer = Some(node);
                            match self.config.auth {
                                Some(key) => {
                                    conn.machine =
                                        Some(Authenticator::responder(key, fresh_nonce()));
                                }
                                None => {
                                    conn.handshake_deadline = None;
                                    self.reply_routes.insert(node, token);
                                }
                            }
                        }
                    }
                    Ok(Some(Incoming::Control(
                        frame @ (Frame::AuthInit { .. }
                        | Frame::AuthChallenge { .. }
                        | Frame::AuthProof { .. }),
                    ))) => {
                        self.stats.on_frame_received(0);
                        let msg =
                            frame_to_auth(&frame).expect("auth frames convert to auth messages");
                        // Meaningful exactly once: mid-handshake, with
                        // a machine in flight. Anywhere else — already
                        // authenticated, auth off, no hello — it is an
                        // attack or a confused peer; same verdict.
                        if conn.authenticated || conn.machine.is_none() {
                            self.stats.on_auth_reject();
                            dead = true;
                            break;
                        }
                        let machine = conn.machine.as_mut().expect("machine presence checked");
                        match machine.on_msg(&msg) {
                            Ok(Step::Send(reply)) => {
                                conn.wire
                                    .push_back(PendingFrame::new(SealedFrame::handshake(
                                        &auth_frame(&reply),
                                    )));
                                kick = true;
                            }
                            Ok(Step::SendAndDone(reply)) => {
                                conn.wire
                                    .push_back(PendingFrame::new(SealedFrame::handshake(
                                        &auth_frame(&reply),
                                    )));
                                conn.authenticated = true;
                                conn.handshake_deadline = None;
                                self.stats.on_auth_ok();
                                kick = true;
                            }
                            Ok(Step::Done) => {
                                conn.authenticated = true;
                                conn.handshake_deadline = None;
                                self.stats.on_auth_ok();
                                if matches!(conn.kind, ConnKind::Inbound) {
                                    if let Some(node) = conn.peer {
                                        self.reply_routes.insert(node, token);
                                    }
                                }
                                kick = true;
                            }
                            Err(_) => {
                                self.stats.on_auth_reject();
                                dead = true;
                                break;
                            }
                        }
                    }
                    Ok(Some(Incoming::Batch { payload, items })) => {
                        if !conn.authenticated {
                            // No frame item is ever processed from a
                            // peer that has not proven the key.
                            self.stats.on_auth_reject();
                            dead = true;
                            break;
                        }
                        self.stats.on_frame_received(u64::from(items));
                        self.pending.push(Notice::Frame(payload));
                    }
                    // Batches arrive as `Incoming::Batch`, never decoded.
                    Ok(Some(Incoming::Control(Frame::Batch(_)))) | Err(_) => {
                        self.stats.on_decode_error();
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.conn_dead(token);
                return;
            }
            if kick {
                // Handshake frames queued (or authentication just
                // unlocked the item queue): push them out now.
                self.flush_token(token);
            }
        }
    }

    /// Removes `token`'s connection and routes its unsent frames: a
    /// link's connection takes the penalty path (backoff, eventually
    /// conviction), inbound deaths surface queued replies as
    /// non-reroutable salvage, join probes just close (the next probe
    /// carries a fresh digest).
    fn conn_dead(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.delete(&conn.stream, token);
        let _ = conn.stream.shutdown(Shutdown::Both);
        let salvage = salvage(conn.wire, conn.queue);
        match conn.kind {
            ConnKind::Outbound => {
                if let Some(dest) = conn.peer {
                    self.penalize_link(dest, salvage);
                }
            }
            ConnKind::Inbound => {
                if let Some(peer) = conn.peer {
                    if self.reply_routes.get(&peer) == Some(&token) {
                        self.reply_routes.remove(&peer);
                    }
                    if !salvage.is_empty() {
                        // No reroute: the peer may be reconnecting, and
                        // retrying around a half-written stream could
                        // reorder what the fresh socket will carry.
                        self.pending.push(Notice::Undeliverable {
                            node: peer,
                            frames: salvage,
                            reroute: false,
                        });
                    }
                }
            }
        }
    }

    /// One failed connect or write on `dest`'s link (its connection, if
    /// any, is already gone): park the salvage, count the failure, and
    /// back off — or convict the peer at `fail_after_attempts`.
    fn penalize_link(&mut self, dest: u32, salvage: Vec<SealedFrame>) {
        let Some(link) = self.links.get_mut(&dest) else {
            if !salvage.is_empty() {
                self.pending.push(Notice::Undeliverable {
                    node: dest,
                    frames: salvage,
                    reroute: true,
                });
            }
            return;
        };
        link.parked.extend(salvage);
        shed_overflow(
            &mut link.parked,
            self.config.max_link_pending,
            &mut self.pending,
        );
        link.failed_attempts = link.failed_attempts.saturating_add(1);
        if link.failed_attempts >= self.config.fail_after_attempts {
            let unsent: Vec<SealedFrame> = std::mem::take(&mut link.parked).into_iter().collect();
            self.links.remove(&dest);
            self.pending
                .push(Notice::PeerUnreachable { node: dest, unsent });
            return;
        }
        let backoff = self
            .config
            .reconnect_base
            .saturating_mul(1u32 << link.failed_attempts.min(10))
            .min(self.config.reconnect_max);
        self.stats.on_backoff(backoff.as_nanos() as u64);
        link.state = LinkState::Backoff {
            // dgc-analysis: allow(wall-clock): the reactor times out real sockets in wall time
            until: Instant::now() + backoff,
        };
    }

    /// Re-registers `token` with the interest its state wants: WRITE
    /// while connecting, READ otherwise — plus WRITE only while the
    /// socket could take bytes ([`Conn::wants_write`]).
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = if conn.connecting {
            Interest::WRITE
        } else if conn.wants_write() {
            Interest::BOTH
        } else {
            Interest::READ
        };
        if want != conn.interest && self.poller.modify(&conn.stream, token, want).is_ok() {
            conn.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::id::AoId;
    use dgc_obs::Registry;

    fn test_reactor() -> Reactor {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::new(
            1,
            listener,
            NetConfig::default(),
            NetStats::shared(&Registry::default()),
        )
        .unwrap()
    }

    fn sealed(items: &[Item]) -> Vec<SealedFrame> {
        FrameBuilder::seal_items(items)
    }

    fn app_item(n: u32) -> Item {
        Item::App {
            from: AoId::new(1, 0),
            to: AoId::new(2, n),
            reply: false,
            tenant: 0,
            payload: vec![n as u8; 8].into(),
        }
    }

    #[test]
    fn forward_link_handshakes_then_delivers() {
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = sink.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            let mut buf = [0u8; 4096];
            while frames.len() < 2 {
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0, "sender closed early");
                dec.push(&buf[..n]);
                while let Some(f) = dec.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            frames
        });

        let mut r = test_reactor();
        r.open_link(2, addr);
        r.queue_forward(2, sealed(&[app_item(7), app_item(8)]))
            .unwrap();
        let mut notices = Vec::new();
        let start = Instant::now();
        while !reader.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "delivery timed out"
            );
            r.poll(Duration::from_millis(5), &mut notices);
        }
        let frames = reader.join().unwrap();
        assert_eq!(
            frames[0],
            Frame::Hello {
                node: 1,
                version: PROTOCOL_VERSION
            },
            "hello must be the first frame on an outbound connection"
        );
        assert_eq!(frames[1], Frame::Batch(vec![app_item(7), app_item(8)]));
    }

    /// A dialed link whose peer has not answered the handshake yet has
    /// items queued but nothing it may write: the (always writable)
    /// socket must not be polled for WRITE, or every loop turn returns
    /// at once until the challenge arrives.
    #[test]
    fn handshake_in_flight_does_not_spin_the_loop() {
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        // Accepts and reads, never answers; reports once the hello and
        // the `AuthInit` have both arrived.
        let mute = std::thread::spawn(move || {
            let (mut s, _) = sink.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut frames = 0;
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => dec.push(&buf[..n]),
                }
                while let Ok(Some(_)) = dec.next_frame() {
                    frames += 1;
                    if frames == 2 {
                        let _ = seen_tx.send(());
                    }
                }
            }
        });

        let config = NetConfig::default().auth(dgc_plane::AuthKey::from_secret("reactor suite"));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut r =
            Reactor::new(1, listener, config, NetStats::shared(&Registry::default())).unwrap();
        r.open_link(2, addr);
        r.queue_forward(2, sealed(&[app_item(1)])).unwrap();
        let mut notices = Vec::new();
        let start = Instant::now();
        while seen_rx.try_recv().is_err() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "handshake never left"
            );
            r.poll(Duration::from_millis(5), &mut notices);
        }
        r.poll(Duration::from_millis(5), &mut notices);

        let conn = r.conns.values().next().expect("the dialed connection");
        assert!(
            !conn.authenticated && !conn.queue.is_empty() && conn.interest == Interest::READ,
            "an unauthenticated link with a parked item must wait for READ only"
        );
        // The symptom, where the backend can park at all (the emulation
        // returns every millisecond by design).
        if !r.poller.is_emulated() {
            let parked = Instant::now();
            r.poll(Duration::from_millis(60), &mut notices);
            assert!(
                parked.elapsed() >= Duration::from_millis(50),
                "poll returned after {:?} with nothing to read and nothing it may write",
                parked.elapsed()
            );
        }
        drop(r);
        mute.join().unwrap();
    }

    #[test]
    fn missing_link_hands_the_batch_back() {
        let mut r = test_reactor();
        assert_eq!(
            r.queue_forward(9, sealed(&[app_item(1)])),
            Err(sealed(&[app_item(1)]))
        );
        assert_eq!(
            r.queue_reply(9, sealed(&[app_item(2)])),
            Err(sealed(&[app_item(2)]))
        );
    }

    #[test]
    fn unreachable_peer_is_convicted_with_its_backlog() {
        // Bind-then-drop: a (very likely) dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = NetConfig {
            fail_after_attempts: 3,
            reconnect_base: Duration::from_millis(1),
            reconnect_max: Duration::from_millis(2),
            ..NetConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut r =
            Reactor::new(1, listener, config, NetStats::shared(&Registry::default())).unwrap();
        r.open_link(2, addr);
        let _ = r.queue_forward(2, sealed(&[app_item(1)]));
        let mut notices = Vec::new();
        let start = Instant::now();
        loop {
            assert!(start.elapsed() < Duration::from_secs(5), "never convicted");
            r.poll(Duration::from_millis(5), &mut notices);
            if let Some(Notice::PeerUnreachable { node, unsent }) = notices
                .iter()
                .find(|n| matches!(n, Notice::PeerUnreachable { .. }))
            {
                assert_eq!(*node, 2);
                let items: Vec<Item> = unsent
                    .iter()
                    .cloned()
                    .flat_map(SealedFrame::into_items)
                    .collect();
                assert_eq!(items, vec![app_item(1)]);
                break;
            }
        }
        assert!(!r.has_link(2), "convicted links are removed");
    }
}
