//! A network node: one address space of the DGC, listening on a real
//! TCP socket and hosting many activities.
//!
//! Like `dgc-rt-thread`'s node thread it is a host of the one
//! [`NodeKernel`] — the hosted-activity table, the TTB timers and the
//! DGC dispatch live there, under every runtime — driven by a single
//! event loop that supplies the wall clock; here the mailbox is fed by
//! sockets instead of in-process channels:
//!
//! ```text
//!            ┌────────────── NetNode (handle) ───────────────┐
//!  control → │ event loop (one thread): node kernel, egress   │
//!   (waker)  │ plane, membership, routing                    │
//!            │   └─ reactor: listener, dialed links (msgs    │
//!  sockets ⇄ │      out, replies in), accepted connections   │
//!            │      (msgs in, replies out), join probes      │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! A node is exactly one OS thread: the loop parks in the reactor's
//! `poll`, which socket readiness, link timers and (through the waker
//! inside every handle) control events all interrupt.
//!
//! Routing discipline (paper §2.2): DGC **messages** and application
//! **requests** go over the link this node *initiates* toward the
//! referenced node; **responses**, reply payloads and send-failure
//! notifications go back over whichever socket the peer opened to us.
//! A node behind a NAT that can open connections but not accept them
//! still collects correctly.
//!
//! Every outgoing unit crosses the node's **egress plane**
//! ([`dgc_core::egress::Outbox`]): one per-destination outbox whose
//! flush policy coalesces heartbeats, gossip digests and application
//! payloads into shared frames — an app send flushes its destination
//! immediately and carries the queued background units for free, while
//! pure background traffic lingers at most the policy's `max_delay`.
//! The link layer (`reactor.rs`) just writes what the outbox flushes:
//! one flush, one frame.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use parking_lot::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dgc_core::egress::{EgressObs, Flush, FlushReason, Outbox};
use dgc_core::id::AoId;
use dgc_core::kernel::NodeKernel;
pub use dgc_core::kernel::Terminated;
use dgc_core::message::{Action, DgcFarewell};
use dgc_core::sweep::SweepPools;
use dgc_core::telemetry::DgcObs;
use dgc_core::units::{Dur, Time};
use dgc_membership::{Digest, Membership, MembershipEvent, MembershipObs, NodeRecord, Transition};
use dgc_obs::{Registry, TimeSource, TraceLevel, Tracer};
use dgc_plane::{
    AuthMsg, Envelope, MiddlewareCtx, Pipeline, TenantCounters, TenantId, TenantLedger, TenantMap,
    Verdict,
};

use crate::config::NetConfig;
use crate::frame::{Frame, Item, GOSSIP_ANYCAST};
use crate::reactor::{Notice, Reactor};
use crate::stats::{NetStats, NetStatsSnapshot};

/// Polls `check` every couple of milliseconds until it holds or
/// `deadline` passes; shared by the node- and cluster-level
/// `wait_until` drivers.
pub(crate) fn poll_until(deadline: Duration, check: impl Fn() -> bool) -> bool {
    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
    let start = Instant::now();
    loop {
        if check() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The event loop's ingress handle: the mpsc sender every producer
/// feeds, plus the poller waker that interrupts a loop parked in
/// [`Reactor::poll`].
#[derive(Clone)]
pub(crate) struct LoopSender {
    tx: mpsc::Sender<Event>,
    waker: Arc<polling::Waker>,
}

impl LoopSender {
    /// Enqueues `event` and nudges the loop awake. Fails exactly when
    /// the underlying channel does (the loop is gone).
    pub(crate) fn send(&self, event: Event) -> Result<(), mpsc::SendError<Event>> {
        self.tx.send(event)?;
        self.waker.wake();
        Ok(())
    }
}

/// Bounded exponential backoff for transient `accept` errors (EMFILE,
/// ECONNABORTED, ENFILE): the accept path counts the error and waits
/// this out instead of spinning — or worse, treating it as fatal and
/// going silently deaf to inbound connections.
pub(crate) struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_millis(500);

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { consecutive: 0 }
    }

    /// A successful accept ends the episode.
    pub(crate) fn on_success(&mut self) {
        self.consecutive = 0;
    }

    /// Records one failed accept (the `net.accept_errors` counter) and
    /// returns how long to back off: 10ms doubling to a 500ms cap, so
    /// a descriptor-exhaustion episode retries promptly but a
    /// persistent failure cannot busy-loop the listener.
    pub(crate) fn on_error(&mut self, stats: &NetStats) -> Duration {
        stats.on_accept_error();
        let wait = Self::BASE
            .saturating_mul(1u32 << self.consecutive.min(6))
            .min(Self::CAP);
        self.consecutive = self.consecutive.saturating_add(1);
        wait
    }
}

/// One application unit delivered to this node, in arrival order —
/// what the piggyback/FIFO tests assert over. Also the shape of a
/// **failed** outgoing unit in [`NetNode::app_send_failures`]: an app
/// payload the transport accepted but could not deliver (departed
/// peer, dead link with no reply path) is handed back, not dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppReceived {
    /// Sending activity.
    pub from: AoId,
    /// Destination activity (hosted here).
    pub to: AoId,
    /// True for a reply payload.
    pub reply: bool,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

/// An outgoing application unit produced by an [`AppHandler`]; routed
/// through the egress plane exactly like [`NetNode::send_app`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSend {
    /// Sending activity (hosted on the handling node).
    pub from: AoId,
    /// Destination activity.
    pub to: AoId,
    /// True for a reply payload.
    pub reply: bool,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

/// The boxed dispatch function inside an [`AppHandler`].
type AppHandlerFn = Box<dyn FnMut(&AppReceived) -> Vec<AppSend> + Send>;

/// An application dispatch hook, run **on the node's event loop** for
/// every delivered [`Item::App`]. The units it returns are routed
/// through the egress plane in the same sweep — a server answering a
/// request therefore gets its reply into the very frame window the
/// request's piggybacked heartbeats rode in on. While a handler is
/// registered the test inbox ([`NetNode::app_received`]) is bypassed.
pub struct AppHandler(AppHandlerFn);

impl AppHandler {
    /// Wraps a dispatch function.
    pub fn new(f: impl FnMut(&AppReceived) -> Vec<AppSend> + Send + 'static) -> AppHandler {
        AppHandler(Box::new(f))
    }
}

impl std::fmt::Debug for AppHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AppHandler")
    }
}

/// Point-in-time occupancy of a node's egress plane, for tests and
/// diagnostics (see [`NetNode::egress_pending`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EgressPending {
    /// Units queued across all destinations.
    pub items: usize,
    /// Payload bytes queued across all destinations.
    pub bytes: u64,
    /// The earliest scheduled flush deadline, if anything is queued.
    pub next_deadline: Option<Time>,
}

/// Everything the event loop can be asked to process.
#[derive(Debug)]
pub enum Event {
    /// A protocol unit, from a socket or the local loopback.
    Item(Item),
    /// An outgoing protocol unit from the driver (application sends):
    /// routed through the egress plane like everything else.
    Send {
        /// The unit to route.
        item: Item,
    },
    /// Graceful departure: announce
    /// [`Left`](dgc_membership::NodeStatus::Left), flush every farewell
    /// digest, stop gossiping, and acknowledge.
    Leave {
        /// Signalled once the farewells reached the sockets.
        ack: mpsc::Sender<()>,
    },
    /// Seed bootstrap ([`NetNode::join`]): probe these addresses until
    /// the directory shows a peer.
    Join {
        /// Listen addresses of already-running nodes.
        seeds: Vec<SocketAddr>,
    },
    /// Registers the listen address of a remote node.
    AddPeer {
        /// Remote node id.
        node: u32,
        /// Its listen address.
        addr: SocketAddr,
    },
    /// Hosts a new activity.
    AddActivity {
        /// Its id (allocated by the handle).
        id: AoId,
    },
    /// Marks an activity idle or busy.
    SetIdle {
        /// The activity.
        ao: AoId,
        /// New idleness.
        idle: bool,
    },
    /// The application serialized a reference `from → to`.
    AddRef {
        /// Referencer (hosted here).
        from: AoId,
        /// Referenced activity (anywhere).
        to: AoId,
    },
    /// The application dropped the reference `from → to`.
    DropRef {
        /// Referencer (hosted here).
        from: AoId,
        /// Referenced activity.
        to: AoId,
    },
    /// The application passed `from`'s reference to `to` on to another
    /// activity, inside a payload it sent.
    PassedOn {
        /// Referencer (hosted here).
        from: AoId,
        /// Referenced activity.
        to: AoId,
    },
    /// Stops the world: the event loop sleeps until the deadline,
    /// processing nothing and ticking nobody (models a long local-GC
    /// pause, the §4.2 hazard; deliveries queue up and land in a burst
    /// when the pause ends, exactly like the simulator's deferred
    /// events). An *absolute* deadline, not a span: a pause that
    /// queues behind another only extends the stall to the later end —
    /// the covering-union semantics of `FaultProfile::pause_end` —
    /// instead of serializing the full widths back to back.
    Pause {
        /// When the world resumes (already-past deadlines are no-ops).
        until: Instant,
    },
    /// Installs (or replaces) the application dispatch hook.
    SetAppHandler {
        /// The hook; delivered app units stop landing in the inbox.
        handler: AppHandler,
    },
    /// Installs (or replaces) the node's envelope middleware pipeline:
    /// every application payload — outgoing and incoming — traverses
    /// its stages on the event loop.
    SetPipeline {
        /// The stage chain (not `Copy`, hence an event, not config).
        pipeline: Pipeline,
    },
    /// Assigns a hosted (or remote) activity to a tenant namespace.
    RegisterTenant {
        /// The activity.
        ao: AoId,
        /// Its tenant ([`TenantId::DEFAULT`] unregisters).
        tenant: TenantId,
    },
    /// Reports the per-tenant app-plane traffic ledger (tests,
    /// conservation checks).
    QueryTenants {
        /// Where to send the snapshot.
        reply: mpsc::Sender<Vec<(TenantId, TenantCounters)>>,
    },
    /// Reports the egress plane's current occupancy (tests).
    QueryEgress {
        /// Where to send the snapshot.
        reply: mpsc::Sender<EgressPending>,
    },
    /// Reports the egress plane's lifetime counters (tests,
    /// conservation checks against the telemetry registry).
    QueryEgressStats {
        /// Where to send the counters.
        reply: mpsc::Sender<dgc_core::egress::EgressStats>,
    },
    /// Stops the event loop.
    Shutdown,
}

/// A running DGC node bound to a TCP listener.
pub struct NetNode {
    node_id: u32,
    addr: SocketAddr,
    config: NetConfig,
    incarnation: u64,
    tx: LoopSender,
    next_index: AtomicU32,
    stats: Arc<NetStats>,
    obs: Registry,
    terminated: Arc<Mutex<Vec<Terminated>>>,
    app_log: Arc<Mutex<Vec<AppReceived>>>,
    app_failures: Arc<Mutex<Vec<AppReceived>>>,
    member_events: Arc<Mutex<Vec<MembershipEvent>>>,
    member_snapshot: Arc<Mutex<Option<Vec<NodeRecord>>>>,
    shutting_down: Arc<AtomicBool>,
    loop_handle: Option<JoinHandle<()>>,
}

impl NetNode {
    /// Binds `node_id` to a fresh ephemeral port on `127.0.0.1` and
    /// starts its event loop. First lives run as
    /// incarnation 1; see [`NetNode::bind_rejoin`] for crash-restarts.
    ///
    /// # Panics
    ///
    /// Panics if `config.dgc` violates the TTA safety formula.
    pub fn bind(node_id: u32, config: NetConfig) -> std::io::Result<NetNode> {
        NetNode::bind_rejoin(node_id, config, 1, 0)
    }

    /// Binds a **restarted** node: announces itself under
    /// `incarnation` (must exceed every incarnation this node id lived
    /// before, so its membership record supersedes its own corpse) and
    /// allocates activity indices from `first_index` (so rejoin-era
    /// activities never reuse the ids that died in the crash).
    pub fn bind_rejoin(
        node_id: u32,
        config: NetConfig,
        incarnation: u64,
        first_index: u32,
    ) -> std::io::Result<NetNode> {
        config.dgc.validate().expect("unsafe TTB/TTA configuration");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        // The telemetry plane: one registry per node, timestamps
        // anchored at the worker's epoch so traces and histograms read
        // in nanoseconds-since-boot, same shape as the grid's virtual
        // clock.
        // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
        let epoch = Instant::now();
        let obs = Registry::with_tracer(
            TimeSource::wall_since(epoch),
            Tracer::new(config.trace, dgc_obs::trace::DEFAULT_CAPACITY),
        );
        let stats = NetStats::shared(&obs);
        let terminated = Arc::new(Mutex::new(Vec::new()));
        let app_log = Arc::new(Mutex::new(Vec::new()));
        let app_failures = Arc::new(Mutex::new(Vec::new()));
        let member_events = Arc::new(Mutex::new(Vec::new()));
        let shutting_down = Arc::new(AtomicBool::new(false));

        // The listener goes onto the readiness loop; the reactor's
        // waker is what lets event senders interrupt a parked poll.
        let reactor = Reactor::new(node_id, listener, config, Arc::clone(&stats))?;
        let (raw_tx, rx) = mpsc::channel();
        let tx = LoopSender {
            tx: raw_tx,
            waker: reactor.waker(),
        };

        let membership = config.membership.map(|m| {
            let mut engine = Membership::new(node_id, Some(addr), incarnation, Time::ZERO, m);
            engine.set_obs(MembershipObs::new(&obs));
            engine
        });
        let member_snapshot = Arc::new(Mutex::new(membership.as_ref().map(|m| m.records())));
        // Already due: the first gossip round goes out on the first turn.
        let next_member_tick = membership.as_ref().map(|_| Time::ZERO);
        let mut outbox = Outbox::new(config.egress);
        outbox.set_obs(EgressObs::new(&obs));
        let ledger = TenantLedger::new(&obs);
        let worker = Worker {
            node_id,
            config,
            rx,
            loopback: tx.clone(),
            kernel: NodeKernel::new(config.sweep_shards),
            peer_addrs: HashMap::new(),
            reactor,
            join: None,
            outbox,
            pipeline: Pipeline::new(),
            tenants: TenantMap::default(),
            ledger,
            dgc_obs: DgcObs::new(&obs),
            obs: obs.clone(),
            epoch,
            membership,
            next_member_tick,
            member_events: Arc::clone(&member_events),
            member_snapshot: Arc::clone(&member_snapshot),
            stats: Arc::clone(&stats),
            terminated: Arc::clone(&terminated),
            app_log: Arc::clone(&app_log),
            app_failures: Arc::clone(&app_failures),
            app_handler: None,
            shutting_down: Arc::clone(&shutting_down),
        };
        let loop_handle = std::thread::Builder::new()
            .name(format!("dgc-net-node-{node_id}"))
            .spawn(move || worker.run())
            .expect("spawn node event loop");

        Ok(NetNode {
            node_id,
            addr,
            config,
            incarnation,
            tx,
            next_index: AtomicU32::new(first_index),
            stats,
            obs,
            terminated,
            app_log,
            app_failures,
            member_events,
            member_snapshot,
            shutting_down,
            loop_handle: Some(loop_handle),
        })
    }

    /// This node's id (the `AoId::node` namespace it allocates from).
    pub fn node_id(&self) -> u32 {
        self.node_id
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a remote node's listen address; links are established
    /// lazily on first routed message.
    pub fn add_peer(&self, node: u32, addr: SocketAddr) {
        let _ = self.tx.send(Event::AddPeer { node, addr });
    }

    /// The incarnation this node announces (1 for first lives).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// How many activity indices this node has handed out; a restart
    /// passes this as `first_index` so ids are never reused.
    pub fn allocated(&self) -> u32 {
        self.next_index.load(Ordering::Relaxed)
    }

    /// Bootstraps membership from `seeds` — listen addresses of any
    /// already-running nodes (typically one). Replaces static
    /// registration: the event loop sends each seed a join probe (hello
    /// plus a one-record anycast gossip digest); the seed learns
    /// `{node id, address}` from the record, replies with its full
    /// directory over the same socket, and anti-entropy spreads the
    /// join. Probes repeat until the directory shows a peer, the node
    /// shuts down, or the attempts run out.
    ///
    /// # Panics
    ///
    /// Panics if the node was bound without `config.membership`.
    pub fn join(&self, seeds: &[SocketAddr]) {
        assert!(
            self.config.membership.is_some(),
            "NetNode::join needs membership enabled in NetConfig"
        );
        let _ = self.tx.send(Event::Join {
            seeds: seeds.to_vec(),
        });
    }

    /// Membership transitions observed so far (join/suspect/dead/...).
    pub fn membership_events(&self) -> Vec<MembershipEvent> {
        self.member_events.lock().clone()
    }

    /// Snapshot of the membership directory; `None` when the layer is
    /// disabled.
    pub fn member_records(&self) -> Option<Vec<NodeRecord>> {
        self.member_snapshot.lock().clone()
    }

    /// Blocks until `predicate` holds over the membership directory or
    /// the deadline passes; returns whether it held.
    pub fn wait_membership_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[NodeRecord]) -> bool,
    ) -> bool {
        poll_until(deadline, || {
            self.member_records().is_some_and(|r| predicate(&r))
        })
    }

    /// Creates an activity on this node (initially busy); returns its id.
    ///
    /// Register the creator's reference ([`add_ref`](Self::add_ref) on
    /// the creator's node, from the activity that asked for the spawn)
    /// along with it: the collector waits `min(TTA, 2·MaxComm + TTB)`
    /// after creation — the creator's first message, or, if that one is
    /// lost, its next beat or the first message of a holder it passed
    /// the reference on to — for some holder to speak, and an idle
    /// activity that no holder has registered by then is garbage.
    pub fn add_activity(&self) -> AoId {
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        let id = AoId::new(self.node_id, index);
        let _ = self.tx.send(Event::AddActivity { id });
        id
    }

    /// Declares `ao` (hosted here) idle or busy.
    pub fn set_idle(&self, ao: AoId, idle: bool) {
        let _ = self.tx.send(Event::SetIdle { ao, idle });
    }

    /// Adds the reference edge `from → to`; `from` must be hosted here.
    pub fn add_ref(&self, from: AoId, to: AoId) {
        let _ = self.tx.send(Event::AddRef { from, to });
    }

    /// Drops the reference edge `from → to`; `from` must be hosted here.
    /// `to` hears `from`'s farewell.
    pub fn drop_ref(&self, from: AoId, to: AoId) {
        let _ = self.tx.send(Event::DropRef { from, to });
    }

    /// Records that `from` (hosted here) passed its reference to `to` on
    /// to another activity now. App payloads are opaque to this runtime,
    /// so it never learns of a pass-on by itself: an application that
    /// carries references in payloads calls this as it sends one, and
    /// `from`'s farewell to `to` then carries the age of that instant.
    pub fn passed_on(&self, from: AoId, to: AoId) {
        let _ = self.tx.send(Event::PassedOn { from, to });
    }

    /// Sends an opaque application unit from `from` (hosted here) to
    /// `to`. Application sends are the egress plane's flush trigger:
    /// the destination's queued heartbeats and gossip digests ride the
    /// same frame (`reply = true` payloads travel back over the socket
    /// the peer opened, like DGC responses).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`crate::frame::MAX_APP_PAYLOAD`] —
    /// rejected here, on the caller's thread, so an oversized payload
    /// can never reach (and kill) a link writer mid-frame.
    pub fn send_app(&self, from: AoId, to: AoId, reply: bool, payload: Vec<u8>) {
        assert!(
            payload.len() <= crate::frame::MAX_APP_PAYLOAD,
            "app payload of {} bytes exceeds MAX_APP_PAYLOAD ({}); \
             stream bulk data on its own connection",
            payload.len(),
            crate::frame::MAX_APP_PAYLOAD
        );
        let _ = self.tx.send(Event::Send {
            item: Item::App {
                from,
                to,
                reply,
                // The worker's tenant map is the authority; the wire
                // field is stamped by the outgoing pipeline.
                tenant: TenantId::DEFAULT.0,
                payload: payload.into(),
            },
        });
    }

    /// Application units delivered to this node so far, in arrival
    /// order. Empty while an [`AppHandler`] is registered — dispatch
    /// replaces the inbox.
    pub fn app_received(&self) -> Vec<AppReceived> {
        self.app_log.lock().clone()
    }

    /// Registers the application dispatch hook: every delivered app
    /// unit runs through `f` on the event loop instead of landing in
    /// the [`NetNode::app_received`] inbox, and the sends `f` returns
    /// are routed through the egress plane immediately.
    pub fn set_app_handler(&self, f: impl FnMut(&AppReceived) -> Vec<AppSend> + Send + 'static) {
        let _ = self.tx.send(Event::SetAppHandler {
            handler: AppHandler::new(f),
        });
    }

    /// Installs the node's envelope middleware pipeline: every app
    /// payload, outgoing and incoming, traverses its stages on the
    /// event loop ([`dgc_plane::Pipeline::standard`] gives the
    /// authenticated, tenant-isolating default).
    pub fn set_pipeline(&self, pipeline: Pipeline) {
        let _ = self.tx.send(Event::SetPipeline { pipeline });
    }

    /// Assigns `ao` to `tenant`'s namespace. Tenancy is a node-local
    /// map over activity ids, so remote activities can (and in a
    /// multi-tenant cluster should) be registered too — the
    /// [`dgc_plane::TenantIsolation`] stage consults it for both ends
    /// of every envelope. [`TenantId::DEFAULT`] unregisters.
    pub fn register_tenant(&self, ao: AoId, tenant: TenantId) {
        let _ = self.tx.send(Event::RegisterTenant { ao, tenant });
    }

    /// The per-tenant app-plane traffic ledger, answered through the
    /// event loop like [`NetNode::egress_stats`]. Each tenant's
    /// counters obey `enqueued = flushed + returned + pending`; `None`
    /// means the event loop did not answer.
    pub fn tenant_snapshot(&self) -> Option<Vec<(TenantId, TenantCounters)>> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Event::QueryTenants { reply }).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Outgoing application units the transport accepted but could not
    /// deliver (departed peer, terminal link without a reply path) —
    /// the send-failure surface of the app plane, in failure order.
    pub fn app_send_failures(&self) -> Vec<AppReceived> {
        self.app_failures.lock().clone()
    }

    /// The egress plane's current occupancy: queued units, queued
    /// bytes, and the earliest flush deadline. Answers through the
    /// event loop, so the snapshot is ordered after everything sent
    /// before the call. Tests use it to assert a departed peer's queue
    /// (and its wakeup) are actually reclaimed; `None` means the event
    /// loop did not answer (gone or wedged) — deliberately *not* an
    /// empty snapshot, so a reclamation test can never pass vacuously
    /// against a dead loop.
    pub fn egress_pending(&self) -> Option<EgressPending> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Event::QueryEgress { reply }).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// The egress plane's lifetime counters ([`EgressStats`]), answered
    /// through the event loop like [`NetNode::egress_pending`]. The
    /// outbox publishes them into the node registry's `egress.*`
    /// metrics in buffered deltas, and the conservation test checks
    /// that publish against this struct; `None` means the event loop
    /// did not answer.
    pub fn egress_stats(&self) -> Option<dgc_core::egress::EgressStats> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Event::QueryEgressStats { reply }).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    }

    /// Graceful departure (no-op without membership): announces
    /// [`Left`](dgc_membership::NodeStatus::Left), flushes the farewell
    /// digests to every present peer and stops gossiping. Returns once
    /// the farewells reached the sockets (plus a short grace for the
    /// peers to read them), so a [`NetNode::shutdown`] right after does
    /// not sever them mid-flight. Peers treat the `Left` verdict like a
    /// dead one for collection purposes — the node's referencers are
    /// gone — but without the suspicion delay.
    pub fn leave(&self) -> bool {
        let acked = self
            .leave_begin()
            .is_some_and(|rx| rx.recv_timeout(Duration::from_secs(1)).is_ok());
        if acked {
            // The farewell frames are in the kernel's hands; give the
            // peers a beat to read them before any teardown resets the
            // connections under them.
            std::thread::sleep(Duration::from_millis(25));
        }
        acked
    }

    /// The non-blocking half of [`NetNode::leave`]: queues the
    /// departure and returns the ack channel (`None` if the event loop
    /// is already gone). A caller tearing several nodes down — e.g.
    /// `Cluster`'s drop — starts every leave first, then waits the
    /// acks and one shared socket grace, instead of paying the grace
    /// per node.
    pub(crate) fn leave_begin(&self) -> Option<mpsc::Receiver<()>> {
        let (ack, ack_rx) = mpsc::channel();
        self.tx.send(Event::Leave { ack }).ok()?;
        Some(ack_rx)
    }

    /// Stops this node's world until `now + d`: no TTB ticks fire and
    /// no deliveries are processed until the pause ends (the §4.2
    /// local-GC-pause hazard, injectable on demand). The deadline is
    /// anchored *here*, at request time — a busy event loop that
    /// dequeues the request late stalls correspondingly less, it does
    /// not overshoot.
    pub fn pause_for(&self, d: Duration) {
        let _ = self.tx.send(Event::Pause {
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            until: Instant::now() + d,
        });
    }

    /// Clone of the event-loop sender, for in-crate fault schedulers.
    pub(crate) fn event_sender(&self) -> LoopSender {
        self.tx.clone()
    }

    /// Snapshot of terminations recorded on this node.
    pub fn terminated(&self) -> Vec<Terminated> {
        self.terminated.lock().clone()
    }

    /// Transport counters for this node.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// This node's telemetry plane: the registry every layer records
    /// into (`net.*` transport counters, `egress.*` flush metrics,
    /// `dgc.*` collection latencies, `member.*` verdict transitions)
    /// plus the tracer ring behind `config.trace`.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Blocks until `predicate` holds over this node's termination log
    /// or the deadline passes; returns whether it held.
    pub fn wait_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[Terminated]) -> bool,
    ) -> bool {
        poll_until(deadline, || predicate(&self.terminated()))
    }

    /// Stops the event loop — flushing what the egress plane and the
    /// sockets still hold, within a bounded grace — and joins it.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// [`NetNode::shutdown`] for an owner that still wants to read the
    /// node's final counters afterwards.
    pub(crate) fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Event::Shutdown);
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetNode {
    fn drop(&mut self) {
        if self.loop_handle.is_some() {
            self.stop();
        }
    }
}

/// A `dgc-plane` handshake message as its wire frame.
pub(crate) fn auth_frame(msg: &AuthMsg) -> Frame {
    match *msg {
        AuthMsg::Init { nonce } => Frame::AuthInit { nonce },
        AuthMsg::Challenge { nonce, mac } => Frame::AuthChallenge { nonce, mac },
        AuthMsg::Proof { mac } => Frame::AuthProof { mac },
    }
}

/// The inverse of [`auth_frame`]; `None` for non-handshake frames.
pub(crate) fn frame_to_auth(frame: &Frame) -> Option<AuthMsg> {
    match *frame {
        Frame::AuthInit { nonce } => Some(AuthMsg::Init { nonce }),
        Frame::AuthChallenge { nonce, mac } => Some(AuthMsg::Challenge { nonce, mac }),
        Frame::AuthProof { mac } => Some(AuthMsg::Proof { mac }),
        _ => None,
    }
}

/// A fresh handshake nonce. Uniqueness is the whole requirement — the
/// MACs cover both sides' nonces, so an attacker without the key gains
/// nothing from predicting one — and a process-wide counter folded
/// through SHA-256 with the wall clock and pid guarantees it without
/// a randomness dependency.
pub(crate) fn fresh_nonce() -> [u8; dgc_plane::NONCE_LEN] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut seed = [0u8; 24];
    seed[..8].copy_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    seed[8..16].copy_from_slice(&nanos.to_le_bytes());
    seed[16..24].copy_from_slice(&u64::from(std::process::id()).to_le_bytes());
    let digest = hmac::sha256(&seed);
    let mut nonce = [0u8; dgc_plane::NONCE_LEN];
    nonce.copy_from_slice(&digest[..dgc_plane::NONCE_LEN]);
    nonce
}

/// How often a joining node re-probes its seeds.
const JOIN_RETRY: Dur = Dur::from_millis(250);
/// Probe rounds before a joining node gives up on its seeds.
const JOIN_ATTEMPTS: u32 = 40;

/// A seed bootstrap in progress ([`NetNode::join`]).
struct JoinProbes {
    seeds: Vec<SocketAddr>,
    attempts_left: u32,
    next_at: Time,
}

struct Worker {
    node_id: u32,
    config: NetConfig,
    rx: mpsc::Receiver<Event>,
    loopback: LoopSender,
    /// Everything this node hosts: the activity table, the TTB timers
    /// (swept over `config.sweep_shards` workers) and the DGC dispatch,
    /// with the pooled buffers that keep the loop's steady state from
    /// allocating per activity or per unit.
    kernel: NodeKernel,
    peer_addrs: HashMap<u32, SocketAddr>,
    /// The link layer: every socket of this node.
    reactor: Reactor,
    /// Seed bootstrap state, while the node is still looking for a
    /// first peer.
    join: Option<JoinProbes>,
    /// The egress plane: every outgoing unit queues here; the flush
    /// policy decides when a destination's queue becomes a frame.
    outbox: Outbox<Item>,
    /// The envelope middleware pipeline every app payload traverses —
    /// outgoing before the egress plane, incoming before delivery.
    /// Empty by default (pass-through); [`Event::SetPipeline`] installs
    /// stages.
    pipeline: Pipeline,
    /// Activity → tenant assignments: the authority the pipeline's
    /// tenant stages consult, and the namespace the DGC reference
    /// graph is partitioned by.
    tenants: TenantMap,
    /// Per-tenant app-plane traffic accounting
    /// (`enqueued = flushed + returned + pending`, per tenant).
    ledger: TenantLedger,
    /// The node's telemetry plane (shared with the handle).
    obs: Registry,
    /// The DGC handles every hosted activity records into, resolved
    /// against `obs` once.
    dgc_obs: DgcObs,
    epoch: Instant,
    membership: Option<Membership>,
    next_member_tick: Option<Time>,
    member_events: Arc<Mutex<Vec<MembershipEvent>>>,
    member_snapshot: Arc<Mutex<Option<Vec<NodeRecord>>>>,
    stats: Arc<NetStats>,
    terminated: Arc<Mutex<Vec<Terminated>>>,
    app_log: Arc<Mutex<Vec<AppReceived>>>,
    app_failures: Arc<Mutex<Vec<AppReceived>>>,
    app_handler: Option<AppHandler>,
    shutting_down: Arc<AtomicBool>,
}

impl Worker {
    fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The node clock's reading at wall instant `at`.
    fn time_at(&self, at: Instant) -> Time {
        Time::from_nanos(at.saturating_duration_since(self.epoch).as_nanos() as u64)
    }

    /// Records a trace event; the detail closure only runs when the
    /// level passes the filter, so disabled tracing allocates nothing.
    fn trace(&self, level: TraceLevel, tag: &'static str, detail: impl FnOnce() -> String) {
        if self.obs.tracer().enabled(level) {
            self.obs.trace(level, tag, detail());
        }
    }

    /// Queues `item` for its destination node on the egress plane (or
    /// loops it back locally). An application unit triggers an
    /// immediate flush — the queued background units piggyback — while
    /// heartbeats, digests and control units wait out the policy's
    /// `max_delay` for company. The egress byte bound is charged the
    /// item's context-free [`Item::wire_size`]: an upper bound on what
    /// it will cost inside whichever frame it ends up sharing.
    fn route(&mut self, item: Item) {
        let dest = item.destination_node();
        if dest == self.node_id {
            let _ = self.loopback.send(Event::Item(item));
            return;
        }
        let now = self.now();
        let class = item.class();
        let size = item.wire_size();
        if let Some(flush) = self.outbox.enqueue(now, dest, class, size, item) {
            self.deliver_flush(flush);
        }
    }

    /// Routes one outgoing application payload through the envelope
    /// pipeline and, if it passes, the egress plane. The worker's
    /// tenant map — not the caller, not the wire — decides the
    /// envelope's tenant stamp; rejections (cross-tenant sends, policy
    /// stages) land on the per-tenant ledger, never silently.
    fn route_app(&mut self, from: AoId, to: AoId, reply: bool, payload: Vec<u8>) {
        let mut env = Envelope {
            from,
            to,
            reply,
            tenant: self.tenants.of(from),
            payload,
        };
        let ctx = MiddlewareCtx {
            // Link authentication gates connection setup below this
            // plane: by the time an envelope is routed, its path is
            // authenticated (or the node runs trusted-LAN, auth off).
            link_authenticated: true,
            tenants: &self.tenants,
        };
        match self.pipeline.outgoing(&mut env, &ctx) {
            Verdict::Reject(why) => {
                self.ledger.on_rejected_outgoing(self.tenants.of(env.from));
                self.trace(TraceLevel::Info, "app-reject", || {
                    format!("outgoing {} -> {}: {why}", env.from, env.to)
                });
            }
            Verdict::Continue => {
                self.ledger.on_enqueued(env.tenant);
                if env.to.node == self.node_id {
                    // Loopback payloads never enter the outbox: they
                    // count as flushed the moment they are accepted,
                    // keeping the tenant's conservation law exact.
                    self.ledger.on_flushed(env.tenant);
                }
                self.route(Item::App {
                    from: env.from,
                    to: env.to,
                    reply: env.reply,
                    tenant: env.tenant.0,
                    payload: env.payload.into(),
                });
            }
        }
    }

    /// Flushes every destination whose max-delay expired.
    fn flush_due(&mut self) {
        let now = self.now();
        for flush in self.outbox.poll(now) {
            self.deliver_flush(flush);
        }
    }

    /// Turns one egress flush into link frames, preserving the §2.2
    /// routing discipline per unit: DGC messages and app requests
    /// prefer the forward (initiated) link; responses, reply payloads,
    /// gossip and failure notifications prefer the reply path of the
    /// socket the peer opened to us (the join-probe reply *must* ride
    /// it: the joiner's listen addr may not have merged yet). Units of
    /// one class always take the same path, so per-class FIFO survives
    /// the split.
    fn deliver_flush(&mut self, flush: Flush<Item>) {
        self.trace(TraceLevel::Debug, "flush", || {
            format!(
                "dest {} reason {:?} items {}",
                flush.dest,
                flush.reason,
                flush.items.len()
            )
        });
        if flush.reason == FlushReason::AppSend {
            let riders = flush.items.iter().filter(|i| !i.class.is_app()).count() as u64;
            self.stats.on_piggybacked(riders);
        }
        let dest = flush.dest;
        let mut forward: Vec<Item> = Vec::new();
        let mut back: Vec<Item> = Vec::new();
        for qi in flush.items {
            if let Item::App { tenant, .. } = &qi.item {
                // The unit leaves the egress plane: per-tenant
                // `flushed`. Whatever the link does to it afterwards
                // is a send failure, not a return — the ledger's
                // conservation law counts outbox custody only.
                self.ledger.on_flushed(TenantId(*tenant));
            }
            match &qi.item {
                Item::Dgc { .. } | Item::Farewell { .. } | Item::App { reply: false, .. } => {
                    forward.push(qi.item)
                }
                Item::Resp { .. }
                | Item::SendFailure { .. }
                | Item::Gossip { .. }
                | Item::App { reply: true, .. } => back.push(qi.item),
            }
        }
        if !back.is_empty() {
            self.send_batch_reply(dest, back);
        }
        if !forward.is_empty() {
            self.send_batch_forward(dest, forward);
        }
    }

    fn send_batch_reply(&mut self, dest: u32, batch: Vec<Item>) {
        // No live inbound socket from that node: fall back to a
        // forward link if we can reach it at all.
        if let Err(batch) = self.reactor.queue_reply(dest, batch) {
            self.send_batch_forward(dest, batch);
        }
    }

    fn send_batch_forward(&mut self, dest: u32, batch: Vec<Item>) {
        if !self.reactor.has_link(dest) {
            let Some(addr) = self.peer_addrs.get(&dest).copied() else {
                // Whether a missing address condemns the edges depends
                // on the wiring. Static registration: unknown means
                // never — fail the sends so the referencers drop them.
                // Membership: the address may simply not have gossiped
                // in yet, so only a dead/left verdict convicts;
                // otherwise drop the heartbeats silently — the next TTB
                // regenerates them once discovery converges (TTA
                // budgets for far more than a gossip round-trip).
                // Application payloads are never regenerated by the
                // protocol, so they surface as send failures either
                // way instead of silently vanishing.
                let condemned = match &self.membership {
                    Some(engine) => matches!(
                        engine.directory().status_of(dest),
                        Some(s) if !s.is_present()
                    ),
                    None => true,
                };
                let failed: Vec<Item> = batch
                    .into_iter()
                    .filter(|item| {
                        matches!(item, Item::App { .. })
                            || (condemned && matches!(item, Item::Dgc { .. }))
                    })
                    .collect();
                self.fail_items(failed);
                return;
            };
            self.trace(TraceLevel::Info, "link-open", || {
                format!("dial node {dest} at {addr}")
            });
            self.reactor.open_link(dest, addr);
        }
        if let Err(batch) = self.reactor.queue_forward(dest, batch) {
            // No link took the batch: fall back to the socket the peer
            // opened to us (the reverse direction may be perfectly
            // healthy), or fail fast so the caller learns.
            self.reroute_or_fail(dest, batch);
        }
    }

    /// Last-resort delivery for a batch whose forward link is dead:
    /// the peer's reply socket if one is live, the send-failure path
    /// otherwise. Never tries the forward direction again — that is
    /// what just failed.
    fn reroute_or_fail(&mut self, dest: u32, batch: Vec<Item>) {
        if let Err(batch) = self.reactor.queue_reply(dest, batch) {
            self.fail_items(batch);
        }
    }

    /// Surfaces undeliverable units as send failures. DGC messages
    /// notify the local referencer (it must drop the dead edge), app
    /// payloads land in the [`NetNode::app_send_failures`] log; every
    /// lost unit is counted, none vanishes unrecorded.
    fn fail_items(&mut self, items: Vec<Item>) {
        for item in items {
            match item {
                Item::Dgc { from, to, .. } => {
                    let _ = self.loopback.send(Event::Item(Item::SendFailure {
                        holder: from,
                        target: to,
                    }));
                    self.stats.on_send_failures(1);
                }
                Item::App {
                    from,
                    to,
                    reply,
                    payload,
                    ..
                } => {
                    self.app_failures.lock().push(AppReceived {
                        from,
                        to,
                        reply,
                        payload: payload.into_vec(),
                    });
                    self.stats.on_send_failures(1);
                }
                // Responses, farewells, digests and relayed failure
                // notifications have no local caller to notify; the loss
                // still counts so a degraded link shows in the stats.
                Item::Resp { .. }
                | Item::Farewell { .. }
                | Item::SendFailure { .. }
                | Item::Gossip { .. } => {
                    self.stats.on_send_failures(1);
                }
            }
        }
    }

    /// Reclaims the egress queue of a **departed** peer (dead/left
    /// verdict, terminal transport conviction): the queue, its bytes
    /// and its flush deadline are dropped in one motion, and whatever
    /// was waiting surfaces as send failures. Without this, the outbox
    /// entry of every peer that ever left would live as long as the
    /// node — the Birrell lease-list mistake, reproduced in the plane
    /// built to measure it.
    fn reclaim_egress(&mut self, dest: u32) {
        let stranded: Vec<Item> = self
            .outbox
            .drop_dest(dest)
            .into_iter()
            .map(|qi| qi.item)
            .collect();
        for item in &stranded {
            if let Item::App { tenant, .. } = item {
                // Reclaimed while still in outbox custody: the unit is
                // handed back (`returned`), balancing its `enqueued`.
                self.ledger.on_returned(TenantId(*tenant));
            }
        }
        self.fail_items(stranded);
    }

    /// A link burned through `fail_after_attempts` and the reactor
    /// dropped it (membership, or a fresh address announcement, decides
    /// if it ever comes back): try the peer's reply socket for whatever
    /// the link still held — the *forward* direction is what failed,
    /// and asymmetric failures are §2.2's normal case — then let
    /// membership adjudicate, or treat the verdict as terminal without
    /// it.
    fn on_peer_unreachable(&mut self, node: u32, unsent: Vec<Item>) {
        self.trace(TraceLevel::Info, "link-terminal", || {
            format!("node {node} unreachable, {} unsent", unsent.len())
        });
        if !unsent.is_empty() {
            self.reroute_or_fail(node, unsent);
        }
        let now = self.now();
        match &mut self.membership {
            Some(engine) => {
                engine.on_peer_unreachable(now, node);
                self.drain_member_events();
            }
            None => {
                // No membership layer to adjudicate: the transport's
                // verdict is terminal, not an endless retry — so the
                // peer's egress queue is reclaimed here too, not just
                // its link.
                self.reclaim_egress(node);
                self.kernel.on_node_dead(node);
            }
        }
    }

    /// Routes every unit a sweep or a message left in the kernel's
    /// pools — all of them queue before any link flushes — and hands
    /// the pools back.
    fn emit_all(&mut self, mut out: SweepPools) {
        for unit in out.drain_units() {
            self.emit(unit.from, unit.action);
        }
        self.kernel.recycle(out);
    }

    /// Turns what the kernel emitted for `who` into a routed item, or
    /// a line of the termination log.
    fn emit(&mut self, who: AoId, action: Action) {
        match action {
            Action::SendMessage { to, message } => self.route(Item::Dgc {
                from: who,
                to,
                message,
            }),
            Action::SendResponse { to, response } => self.route(Item::Resp {
                from: who,
                to,
                response,
            }),
            Action::SendFarewell { to, farewell } => self.route(Item::Farewell {
                from: who,
                to,
                age: farewell.age,
            }),
            Action::Terminate { reason } => {
                self.trace(TraceLevel::Info, "terminate", || {
                    format!("ao {who} ({reason:?})")
                });
                self.terminated.lock().push(Terminated { ao: who, reason });
            }
            _ => {}
        }
    }

    fn handle_item(&mut self, item: Item) {
        // A unit addressed to a different node is a buggy or hostile
        // peer's misroute: count it, answer misaddressed messages with
        // a send failure (the protocol's self-healing path) and drop
        // the rest.
        // The one legitimate exception is an *anycast* gossip digest: a
        // join probe dialed our address before knowing our node id.
        let anycast_probe = matches!(item, Item::Gossip { to, .. } if to == GOSSIP_ANYCAST);
        if !anycast_probe && item.destination_node() != self.node_id {
            self.stats.on_decode_error();
            if let Item::Dgc { from, to, .. } = item {
                self.route(Item::SendFailure {
                    holder: from,
                    target: to,
                });
            }
            return;
        }
        let now = self.now();
        match item {
            Item::Dgc { from, to, message } => match self.kernel.on_message(now, to, &message) {
                Some(out) => self.emit_all(out),
                // Target is gone: tell the sending node.
                None => self.route(Item::SendFailure {
                    holder: from,
                    target: to,
                }),
            },
            Item::Resp { from, to, response } => {
                for action in self.kernel.on_response(now, from, to, &response) {
                    self.emit(to, action);
                }
            }
            Item::SendFailure { holder, target } => self.kernel.on_send_failure(holder, target),
            Item::Farewell { from, to, age } => {
                let farewell = DgcFarewell { sender: from, age };
                // A farewell to a gone target is dropped, not failed.
                if !self.kernel.on_farewell(now, to, &farewell) {
                    self.dgc_obs.farewell_dropped.incr();
                }
            }
            Item::Gossip { from, digest, .. } => self.handle_gossip(from, digest),
            Item::App {
                from,
                to,
                reply,
                tenant,
                payload,
            } => {
                let mut env = Envelope {
                    from,
                    to,
                    reply,
                    tenant: TenantId(tenant),
                    payload: payload.into_vec(),
                };
                let ctx = MiddlewareCtx {
                    // Unauthenticated sockets never get this far: with
                    // auth configured the transport rejects their
                    // frames before any item reaches the loop.
                    link_authenticated: true,
                    tenants: &self.tenants,
                };
                if let Verdict::Reject(why) = self.pipeline.incoming(&mut env, &ctx) {
                    self.ledger.on_rejected_incoming(env.tenant);
                    self.trace(TraceLevel::Info, "app-reject", || {
                        format!("incoming {} -> {}: {why}", env.from, env.to)
                    });
                    return;
                }
                let received = AppReceived {
                    from: env.from,
                    to: env.to,
                    reply: env.reply,
                    payload: env.payload,
                };
                // Registered handlers replace the test inbox: the unit
                // is dispatched on this loop and any sends it produces
                // are routed straight back through the egress plane
                // (taken out for the call so the handler can never
                // observe a half-borrowed worker).
                match self.app_handler.take() {
                    Some(mut handler) => {
                        let outs = (handler.0)(&received);
                        self.app_handler = Some(handler);
                        for out in outs {
                            // Handler sends cross the outgoing pipeline
                            // like any application send would.
                            self.route_app(out.from, out.to, out.reply, out.payload);
                        }
                    }
                    None => {
                        self.app_log.lock().push(received);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Applies one received digest and pushes out whatever the engine
    /// wants answered (introductions, refutations, verdict replies).
    fn handle_gossip(&mut self, from: u32, digest: Digest) {
        let now = self.now();
        let outs = match &mut self.membership {
            Some(engine) => engine.on_digest(now, from, &digest),
            // Static cluster (membership disabled): digests are noise.
            None => return,
        };
        self.flush_gossip(outs);
    }

    /// Converts engine output into wire items from this node.
    fn gossip_item(&self, out: dgc_membership::GossipOut) -> Item {
        Item::Gossip {
            from: self.node_id,
            to: out.to,
            digest: out.digest,
        }
    }

    /// Runs the engine's periodic driver when due (failure detection +
    /// anti-entropy), at half the gossip interval.
    fn membership_due(&mut self, now: Time) {
        if self.next_member_tick.is_none_or(|next| now < next) {
            return;
        }
        let (outs, interval) = match (&mut self.membership, self.config.membership) {
            (Some(engine), Some(m)) => (engine.on_tick(now), m.gossip_interval),
            _ => return,
        };
        let half = Dur::from_nanos((interval.as_nanos() / 2).max(1_000_000));
        self.next_member_tick = Some(now + half);
        self.flush_gossip(outs);
    }

    /// Routes outgoing digests and applies the engine's side effects:
    /// learned addresses (re)wire peer links, dead verdicts feed every
    /// hosted collector's send-failure path, and the handle-visible
    /// snapshot/event log are refreshed.
    fn flush_gossip(&mut self, outs: Vec<dgc_membership::GossipOut>) {
        // Address learning first: an out-digest may target a peer whose
        // (new) address only this merge round discovered.
        self.sync_member_addrs();
        for out in outs {
            let item = self.gossip_item(out);
            self.route(item);
        }
        self.drain_member_events();
    }

    /// Learns peers' listen addresses from the directory. An address
    /// change — a rejoined node listens on a fresh port — invalidates
    /// the old outbound link so the next send dials the new address.
    fn sync_member_addrs(&mut self) {
        let Some(engine) = &self.membership else {
            return;
        };
        let mut changed: Vec<(u32, SocketAddr)> = Vec::new();
        for rec in engine.directory().iter() {
            if rec.node == self.node_id {
                continue;
            }
            let Some(addr) = rec.addr else { continue };
            if self.peer_addrs.get(&rec.node) != Some(&addr) {
                changed.push((rec.node, addr));
            }
        }
        for (node, addr) in changed {
            self.peer_addrs.insert(node, addr);
            self.reactor.drop_link(node);
        }
    }

    fn drain_member_events(&mut self) {
        let (events, snapshot) = match &mut self.membership {
            Some(engine) => (engine.poll_events(), engine.records()),
            None => return,
        };
        for ev in &events {
            self.trace(TraceLevel::Info, "member", || {
                format!("node {} -> {:?}", ev.node, ev.transition)
            });
            let departed = matches!(ev.transition, Transition::Dead | Transition::Left)
                && ev.node != self.node_id;
            if departed {
                // A dead verdict — or an announced graceful leave,
                // which is the same departure without the suspicion
                // delay — is the terminal send failure, in bulk: every
                // hosted collector treats the node's activities as
                // departed, and its links are torn down (a rejoin
                // re-announces a fresh address).
                self.kernel.on_node_dead(ev.node);
                self.reactor.drop_peer(ev.node);
                // And its egress queue goes with it: items, bytes and
                // the flush deadline — queued app units surface as
                // send failures rather than rotting against a corpse.
                self.reclaim_egress(ev.node);
            }
        }
        *self.member_snapshot.lock() = Some(snapshot);
        if !events.is_empty() {
            self.member_events.lock().extend(events);
        }
    }

    fn handle(&mut self, event: Event) -> bool {
        match event {
            Event::Shutdown => {
                // Hand whatever still lingers on the egress plane to
                // the sockets; the loop drains them before exiting.
                let flushes = self.outbox.flush_all();
                for flush in flushes {
                    self.deliver_flush(flush);
                }
                return false;
            }
            Event::Send { item } => match item {
                // App payloads cross the envelope pipeline; the wire
                // tenant field is advisory (the node's map decides).
                Item::App {
                    from,
                    to,
                    reply,
                    payload,
                    ..
                } => self.route_app(from, to, reply, payload.into_vec()),
                item => self.route(item),
            },
            Event::Leave { ack } => {
                let now = self.now();
                if let Some(engine) = &mut self.membership {
                    let outs = engine.leave(now);
                    self.flush_gossip(outs);
                    // Farewells must not wait out the egress delay: the
                    // node is about to go.
                    let flushes = self.outbox.flush_all();
                    for flush in flushes {
                        self.deliver_flush(flush);
                    }
                    // The farewells only *queued* on the sockets —
                    // push them out before acknowledging.
                    self.reactor.drain(Duration::from_millis(100));
                    // The engine said goodbye; stop gossiping.
                    self.next_member_tick = None;
                }
                let _ = ack.send(());
            }
            Event::Join { seeds } => {
                self.join = Some(JoinProbes {
                    seeds,
                    attempts_left: JOIN_ATTEMPTS,
                    // Already past: the first round goes out this turn.
                    next_at: Time::ZERO,
                });
            }
            Event::Pause { until } => {
                // A real stop-the-world: this thread owns every endpoint
                // and every tick, so sleeping here stops the protocol on
                // this node while sockets keep queueing into the channel.
                // Sliced so node shutdown (e.g. a test unwinding out of
                // a failed assertion) never waits out a long pause.
                // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                while Instant::now() < until {
                    if self.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
                    let left = until.saturating_duration_since(Instant::now());
                    std::thread::sleep(left.min(Duration::from_millis(20)));
                }
            }
            Event::Item(item) => self.handle_item(item),
            Event::SetAppHandler { handler } => {
                self.app_handler = Some(handler);
            }
            Event::SetPipeline { pipeline } => {
                self.pipeline = pipeline;
            }
            Event::RegisterTenant { ao, tenant } => {
                self.tenants.register(ao, tenant);
            }
            Event::QueryTenants { reply } => {
                let _ = reply.send(self.ledger.snapshot());
            }
            Event::QueryEgress { reply } => {
                let _ = reply.send(EgressPending {
                    items: self.outbox.pending_items(),
                    bytes: self.outbox.pending_bytes(),
                    next_deadline: self.outbox.next_deadline(),
                });
            }
            Event::QueryEgressStats { reply } => {
                let _ = reply.send(self.outbox.stats());
            }
            Event::AddPeer { node, addr } => {
                self.peer_addrs.insert(node, addr);
            }
            Event::AddActivity { id } => {
                self.trace(TraceLevel::Debug, "spawn", || format!("ao {id}"));
                self.kernel
                    .spawn(id, self.now(), self.config.dgc, Some(self.dgc_obs.clone()));
            }
            Event::SetIdle { ao, idle } => self.kernel.set_idle(self.now(), ao, idle),
            Event::AddRef { from, to } => {
                // Tenant isolation extends to the DGC graph itself: a
                // reference edge crossing tenants is refused before any
                // collector learns it, so a tenant's heartbeats, TTB
                // sweeps and verdicts never observe another tenant's
                // activities.
                if self.tenants.of(from) != self.tenants.of(to) {
                    self.ledger.on_rejected_outgoing(self.tenants.of(from));
                    self.trace(TraceLevel::Info, "ref-reject", || {
                        format!("cross-tenant ref {from} -> {to}")
                    });
                } else {
                    self.kernel.add_ref(self.now(), from, to);
                }
            }
            Event::DropRef { from, to } => self.kernel.drop_ref(self.now(), from, to),
            Event::PassedOn { from, to } => self.kernel.passed_on(self.now(), from, to),
        }
        true
    }

    /// Seed bootstrap: while the directory still shows only this node,
    /// dials one join probe per seed every [`JOIN_RETRY`], up to
    /// [`JOIN_ATTEMPTS`] rounds. A probe that dies is not retried as
    /// such — the next round dials afresh.
    fn join_due(&mut self, now: Time) {
        let (Some(join), Some(engine)) = (&mut self.join, &self.membership) else {
            return;
        };
        if now < join.next_at {
            return;
        }
        if engine.directory().len() > 1 || join.attempts_left == 0 {
            self.join = None; // some seed answered, or none ever will
            return;
        }
        join.attempts_left -= 1;
        join.next_at = now + JOIN_RETRY;
        let me = NodeRecord::alive(
            self.node_id,
            engine.incarnation(),
            engine.directory().addr_of(self.node_id),
        );
        for &seed in &join.seeds {
            // Version 0 is safely below any live engine's counter, so
            // the seed treats the probe as "nothing applied yet" and
            // replies with a full sync.
            let digest = Digest {
                version: 0,
                ack: 0,
                full: false,
                records: vec![me],
            };
            self.reactor.probe(
                seed,
                Item::Gossip {
                    from: self.node_id,
                    to: GOSSIP_ANYCAST,
                    digest,
                },
            );
        }
    }

    /// The earliest instant the worker's own timers need it awake: TTB
    /// ticks, membership gossip, join probes, egress flush deadlines —
    /// all on the node clock; the loop converts once to the wall clock
    /// it sleeps on.
    fn next_wake(&self, now: Time) -> Time {
        let next_tick = self.kernel.next_tick();
        [
            self.next_member_tick,
            self.join.as_ref().map(|join| join.next_at),
            self.outbox.next_deadline(),
        ]
        .into_iter()
        .flatten()
        .fold(next_tick.unwrap_or(now + Dur::from_millis(50)), Time::min)
    }

    /// The loop: park in [`Reactor::poll`] — socket readiness, link
    /// timers and (via the waker inside [`LoopSender`]) channel sends
    /// all interrupt it — act on the link layer's notices, drain the
    /// channel without blocking, then run whatever timers are due.
    fn run(mut self) {
        let mut notices: Vec<Notice> = Vec::new();
        loop {
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            let now_i = Instant::now();
            let wake = self.next_wake(self.time_at(now_i));
            let mut next_wake = self.epoch + Duration::from_nanos(wake.as_nanos());
            if let Some(d) = self.reactor.next_deadline() {
                next_wake = next_wake.min(d);
            }
            let timeout = next_wake.saturating_duration_since(now_i);
            self.reactor.poll(timeout, &mut notices);
            for notice in notices.drain(..) {
                match notice {
                    Notice::Item(item) => self.handle_item(item),
                    Notice::PeerUnreachable { node, unsent } => {
                        self.on_peer_unreachable(node, unsent)
                    }
                    Notice::Undeliverable {
                        node,
                        items,
                        reroute,
                    } => {
                        if reroute {
                            self.reroute_or_fail(node, items);
                        } else {
                            self.fail_items(items);
                        }
                    }
                }
            }
            loop {
                match self.rx.try_recv() {
                    Ok(event) => {
                        if !self.handle(event) {
                            // Shutdown flushed the egress plane into the
                            // reactor's queues; give the sockets a
                            // bounded grace to carry it out.
                            self.reactor.drain(Duration::from_millis(300));
                            return;
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        self.reactor.drain(Duration::from_millis(300));
                        return;
                    }
                }
            }
            // One clock reading per turn, handed to every timer.
            // dgc-analysis: allow(wall-clock): the socket runtime paces real I/O in wall time
            let now = self.time_at(Instant::now());
            let out = self.kernel.tick_due(now);
            self.emit_all(out);
            self.membership_due(now);
            self.join_due(now);
            self.flush_due();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, PROTOCOL_VERSION};
    use std::io::Write;
    use std::net::TcpStream;

    /// Transient `accept` errors (the EMFILE / ECONNABORTED family)
    /// must not deafen the node: three injected failures each land on
    /// the `accept_errors` counter and unhook the listener for a
    /// backoff; once it expires the listener is re-armed, and a real
    /// connection's hello registers its reply route.
    #[test]
    fn acceptor_survives_transient_accept_errors() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = NetStats::shared(&Registry::default());
        let mut reactor =
            Reactor::new(7, listener, NetConfig::default(), Arc::clone(&stats)).unwrap();
        for _ in 0..3 {
            reactor.accept_ready_with(|_| {
                Err(std::io::Error::other("injected descriptor exhaustion"))
            });
        }
        assert_eq!(
            stats.snapshot().accept_errors,
            3,
            "each injected failure must be counted"
        );
        assert!(
            reactor.next_deadline().is_some(),
            "the listener must be unhooked behind a re-arm timer"
        );

        let client = TcpStream::connect(addr).unwrap();
        (&client)
            .write_all(&encode_frame(&Frame::Hello {
                node: 3,
                version: PROTOCOL_VERSION,
            }))
            .unwrap();
        // The third failure backs off 40ms; the re-armed listener then
        // takes the connection and its hello names the reply route.
        let reply = || {
            vec![Item::SendFailure {
                holder: AoId::new(3, 0),
                target: AoId::new(7, 0),
            }]
        };
        let mut notices = Vec::new();
        let start = Instant::now();
        while reactor.queue_reply(3, reply()).is_err() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "no reply route after recovery"
            );
            reactor.poll(Duration::from_millis(5), &mut notices);
        }
        assert_eq!(
            reactor.next_deadline(),
            None,
            "the listener is re-armed and nothing else is pending"
        );
        assert_eq!(stats.snapshot().accept_errors, 3);
    }
}
