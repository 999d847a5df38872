//! Multi-node test/demo driver: a whole DGC deployment on localhost.
//!
//! Spawns N [`NetNode`]s on ephemeral `127.0.0.1` ports and exposes the
//! same driver surface as `dgc_rt_thread::ThreadGrid` — create
//! activities, flip idleness, wire reference edges, watch terminations
//! — except every DGC message and response now crosses a real TCP
//! socket in a length-prefixed batched frame.
//!
//! Two topologies:
//!
//! * [`Cluster::listen_local`] — **static registration**: every node is
//!   handed every other node's address up front (the pre-membership
//!   wiring, kept for focused transport tests);
//! * [`Cluster::join_local`] / [`Cluster::join_local_seeded`] — **seed
//!   bootstrap**: only the seed nodes' addresses are known (node 0, or
//!   nodes `0..seeds`); every other node joins through them — retrying
//!   across all of them — and discovers the rest via `dgc-membership`
//!   gossip. With several seeds a crashed or restarted seed no longer
//!   strands rejoins: every round probes the surviving seeds too, and
//!   a restarted seed's fresh address replaces its stale entry. Join
//!   clusters support *churn*: [`Cluster::crash_node`] /
//!   [`Cluster::restart_node`] kill and resurrect whole nodes (fresh
//!   incarnation, fresh port, fresh activity-id range), and
//!   [`Cluster::schedule_churn`] scripts them from a [`FaultProfile`]'s
//!   `NodeCrash` primitives.
//!
//! Clean shutdown is **graceful**: dropping a membership cluster (or
//! calling [`Cluster::leave_node`] on one node) drives the engine's
//! `leave()` first, so peers learn the departure from a `Left` verdict
//! instead of a suspicion timeout.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use std::time::{Duration, Instant};

use dgc_core::faults::FaultProfile;
use dgc_core::id::AoId;
use dgc_membership::{MembershipEvent, NodeRecord};

use crate::chaos::{ChaosProxy, ChaosStatsSnapshot};
use crate::config::NetConfig;
use crate::node::{Event, NetNode, Terminated};
use crate::stats::NetStatsSnapshot;

/// One node position: the running node (if up) plus the bookkeeping a
/// restart needs.
struct Slot {
    node: Option<NetNode>,
    /// First activity index a restarted node may allocate (crash-era
    /// ids are never reused).
    next_first_index: u32,
    /// Highest incarnation this position has lived.
    incarnation: u64,
    /// What this position's earlier lives had counted when they went
    /// down, so fleet totals stay monotone across crash and restart:
    /// the typed transport view…
    retired_stats: NetStatsSnapshot,
    /// …and the whole registry.
    retired_obs: dgc_obs::Snapshot,
}

type SharedSlot = Arc<Mutex<Slot>>;

/// The seed directory: node id → current listen address, shared with
/// churn timers so a restarted seed can refresh its entry (the old
/// ephemeral port died with the old process).
type SeedMap = Arc<Mutex<Vec<(u32, SocketAddr)>>>;

fn lock(slot: &SharedSlot) -> parking_lot::MutexGuard<'_, Slot> {
    slot.lock()
}

/// Current seed addresses to bootstrap `joiner` through (its own entry
/// excluded: dialing yourself is not a bootstrap).
fn seed_addrs_for(seeds: &SeedMap, joiner: u32) -> Vec<SocketAddr> {
    seeds
        .lock()
        .iter()
        .filter(|(id, _)| *id != joiner)
        .map(|(_, addr)| *addr)
        .collect()
}

/// Kills the node in `slot` (if any): collector terminations it
/// recorded are preserved in `graveyard`, its id allocation high-water
/// mark is kept for the restart, the node is shut down, and its final
/// counts are folded into the slot.
fn crash_slot(slot: &SharedSlot, graveyard: &Mutex<Vec<Terminated>>) {
    let mut s = lock(slot);
    if let Some(mut node) = s.node.take() {
        s.next_first_index = node.allocated();
        graveyard.lock().extend(node.terminated());
        // Joined first, so the reading is final.
        node.stop();
        s.retired_stats.merge(&node.stats());
        s.retired_obs = s.retired_obs.merge(&node.obs().snapshot());
    }
}

/// Restarts the node in `slot` under `incarnation`, rejoining through
/// `seeds`. The `closed` flag is re-checked **under the slot lock**:
/// `Cluster::drop` sets it before it locks any slot, so either this
/// restart observes it and aborts, or it finishes inserting the node
/// while still holding the lock and the teardown (blocked on that same
/// lock) takes the fresh node down like any other — a scheduled
/// restart can never resurrect a node after teardown unseen.
fn restart_slot(
    slot: &SharedSlot,
    config: NetConfig,
    seeds: &SeedMap,
    node_id: u32,
    incarnation: u64,
    closed: &AtomicBool,
) -> std::io::Result<()> {
    let mut s = lock(slot);
    if closed.load(Ordering::SeqCst) {
        return Ok(()); // cluster is gone; stay down
    }
    assert!(s.node.is_none(), "restart of a node that is up");
    assert!(
        incarnation > s.incarnation,
        "rejoin incarnation must exceed every earlier life"
    );
    let node = NetNode::bind_rejoin(node_id, config, incarnation, s.next_first_index)?;
    // dgc-analysis: allow(lock-across-send): the restart path serializes the slot on purpose; join is the fresh node's membership join
    node.join(&seed_addrs_for(seeds, node_id));
    // A restarted *seed* listens on a fresh port: refresh its entry so
    // later rejoins dial the live incarnation, not the corpse.
    let addr = node.addr();
    for entry in seeds.lock().iter_mut() {
        if entry.0 == node_id {
            entry.1 = addr;
        }
    }
    s.incarnation = incarnation;
    s.node = Some(node);
    Ok(())
}

/// A running localhost cluster of DGC nodes.
pub struct Cluster {
    slots: Vec<SharedSlot>,
    /// Collector terminations recorded by nodes that later crashed.
    graveyard: Arc<Mutex<Vec<Terminated>>>,
    /// Seed directory used by (re)joins; empty for static clusters.
    seeds: SeedMap,
    config: NetConfig,
    proxies: Vec<ChaosProxy>,
    /// Tells scheduled churn/pause timers the cluster is gone.
    closed: Arc<AtomicBool>,
    /// Scenario clock origin, when the cluster was built with chaos.
    epoch: Instant,
}

impl Cluster {
    fn from_nodes(nodes: Vec<NetNode>, config: NetConfig, epoch: Instant) -> Cluster {
        Cluster {
            slots: nodes
                .into_iter()
                .map(|node| {
                    Arc::new(Mutex::new(Slot {
                        incarnation: node.incarnation(),
                        next_first_index: 0,
                        node: Some(node),
                        retired_stats: NetStatsSnapshot::default(),
                        retired_obs: dgc_obs::Snapshot::default(),
                    }))
                })
                .collect(),
            graveyard: Arc::new(Mutex::new(Vec::new())),
            seeds: Arc::new(Mutex::new(Vec::new())),
            config,
            proxies: Vec::new(),
            closed: Arc::new(AtomicBool::new(false)),
            epoch,
        }
    }

    /// Starts `n` nodes, each with `config`, fully peered by **static
    /// registration** (every address wired up front).
    pub fn listen_local(n: u32, config: NetConfig) -> std::io::Result<Cluster> {
        let mut nodes = Vec::with_capacity(n as usize);
        for id in 0..n {
            nodes.push(NetNode::bind(id, config)?);
        }
        let addrs: Vec<(u32, SocketAddr)> =
            nodes.iter().map(|nd| (nd.node_id(), nd.addr())).collect();
        for node in &nodes {
            for (id, addr) in &addrs {
                if *id != node.node_id() {
                    node.add_peer(*id, *addr);
                }
            }
        }
        // dgc-analysis: allow(wall-clock): harness deadlines pace real sockets in wall time
        Ok(Cluster::from_nodes(nodes, config, Instant::now()))
    }

    /// Starts `n` nodes that discover each other through **seed
    /// bootstrap** with node 0 as the only seed. Shorthand for
    /// [`Cluster::join_local_seeded`]`(n, 1, config)`.
    pub fn join_local(n: u32, config: NetConfig) -> std::io::Result<Cluster> {
        Cluster::join_local_seeded(n, 1, config)
    }

    /// Starts `n` nodes that discover each other through **multi-seed
    /// bootstrap**: nodes `0..seeds` are all seeds; every node is
    /// handed every *other* seed's address and must join, gossip, and
    /// converge. Joins and rejoins retry across all seeds, so one
    /// crashed (or mid-restart) seed no longer strands them — the
    /// ROADMAP's restarted-seed gap. Requires (and asserts)
    /// `config.membership`.
    pub fn join_local_seeded(n: u32, seeds: u32, config: NetConfig) -> std::io::Result<Cluster> {
        assert!(
            config.membership.is_some(),
            "Cluster::join_local_seeded needs NetConfig::membership"
        );
        assert!(n >= 1, "a cluster needs at least one seed");
        assert!(
            (1..=n).contains(&seeds),
            "seed count must be between 1 and the cluster size"
        );
        let mut nodes = Vec::with_capacity(n as usize);
        for id in 0..n {
            nodes.push(NetNode::bind(id, config)?);
        }
        let seed_map: Vec<(u32, SocketAddr)> = nodes[..seeds as usize]
            .iter()
            .map(|nd| (nd.node_id(), nd.addr()))
            .collect();
        for node in &nodes {
            let contacts: Vec<SocketAddr> = seed_map
                .iter()
                .filter(|(id, _)| *id != node.node_id())
                .map(|(_, addr)| *addr)
                .collect();
            if !contacts.is_empty() {
                node.join(&contacts);
            }
        }
        // dgc-analysis: allow(wall-clock): harness deadlines pace real sockets in wall time
        let mut cluster = Cluster::from_nodes(nodes, config, Instant::now());
        cluster.seeds = Arc::new(Mutex::new(seed_map));
        Ok(cluster)
    }

    /// [`Cluster::join_local`] plus the profile's **churn and pauses**
    /// scheduled against the scenario clock (which starts when this
    /// returns): every [`dgc_core::faults::NodeCrash`] kills its node
    /// at `down.start` and — when a rejoin incarnation is given —
    /// restarts it at `down.end` through the seed, and every node pause
    /// stalls the event loop like `listen_local_chaos` does. Link
    /// disruptions need the chaos-proxy topology and are rejected.
    pub fn join_local_churn(
        n: u32,
        config: NetConfig,
        profile: &FaultProfile,
    ) -> std::io::Result<Cluster> {
        assert!(
            profile.link_disruptions().is_empty(),
            "link disruptions need Cluster::listen_local_chaos (proxied links)"
        );
        let cluster = Cluster::join_local(n, config)?;
        cluster.schedule_pauses(profile);
        cluster.schedule_churn(profile);
        Ok(cluster)
    }

    /// Starts `n` nodes fully peered **through chaos proxies**: every
    /// directed pair's traffic crosses a [`ChaosProxy`] replaying
    /// `profile`, and the profile's node pauses are scheduled against
    /// the node event loops. The scenario clock (the profile's
    /// [`dgc_core::units::Time`] axis) starts when this returns.
    /// Crash-restarts need a join topology (proxies pin addresses):
    /// use [`Cluster::join_local_churn`].
    pub fn listen_local_chaos(
        n: u32,
        config: NetConfig,
        profile: FaultProfile,
    ) -> std::io::Result<Cluster> {
        assert!(
            profile.node_crashes().is_empty(),
            "crash-restarts need Cluster::join_local_churn (gossiped addresses)"
        );
        let mut nodes = Vec::with_capacity(n as usize);
        for id in 0..n {
            nodes.push(NetNode::bind(id, config)?);
        }
        // dgc-analysis: allow(wall-clock): harness deadlines pace real sockets in wall time
        let epoch = Instant::now();
        let profile = Arc::new(profile);
        let mut proxies = Vec::with_capacity((n as usize) * (n as usize).saturating_sub(1));
        for node in &nodes {
            for peer in &nodes {
                if node.node_id() == peer.node_id() {
                    continue;
                }
                let proxy = ChaosProxy::spawn(
                    node.node_id(),
                    peer.node_id(),
                    peer.addr(),
                    Arc::clone(&profile),
                    epoch,
                )?;
                node.add_peer(peer.node_id(), proxy.addr());
                proxies.push(proxy);
            }
        }
        let mut cluster = Cluster::from_nodes(nodes, config, epoch);
        cluster.proxies = proxies;
        cluster.schedule_pauses(&profile);
        Ok(cluster)
    }

    /// Schedules the profile's stop-the-world pauses: one detached
    /// timer thread per pause window sends the pause into the node's
    /// event loop at the window start. A cluster that shuts down
    /// earlier just leaves the send to fail against a closed loop.
    fn schedule_pauses(&self, profile: &FaultProfile) {
        let epoch = self.epoch;
        for pause in profile.node_pauses() {
            let Some(tx) = self.with_node(pause.node, |nd| nd.event_sender()) else {
                continue;
            };
            let start = Duration::from_nanos(pause.window.start.as_nanos());
            // Absolute deadline on the scenario clock: overlapping
            // windows extend one stall to the latest end (the
            // covering-union `FaultPlan`/`pause_end` realizes) rather
            // than sleeping their widths back to back.
            let until = epoch + Duration::from_nanos(pause.window.end.as_nanos());
            let _ = std::thread::Builder::new()
                .name(format!("dgc-chaos-pause-{}", pause.node))
                .spawn(move || {
                    std::thread::sleep(start.saturating_sub(epoch.elapsed()));
                    let _ = tx.send(Event::Pause { until });
                });
        }
    }

    /// Schedules the profile's `NodeCrash`es: one detached timer thread
    /// per crash kills the node at `down.start` and, for rejoining
    /// crashes, restarts it at `down.end` under the scripted
    /// incarnation via the surviving seeds. Individual seeds may crash
    /// and rejoin (the other seeds bootstrap them, and their fresh
    /// address replaces the stale entry) — only a profile that crashes
    /// *every* seed is rejected, since nothing could bootstrap any
    /// rejoin then.
    pub fn schedule_churn(&self, profile: &FaultProfile) {
        let seed_ids: BTreeSet<u32> = self.seeds.lock().iter().map(|(id, _)| *id).collect();
        assert!(
            !seed_ids.is_empty(),
            "churn needs a join cluster (Cluster::join_local)"
        );
        if profile
            .node_crashes()
            .iter()
            .any(|c| c.rejoin_incarnation.is_some())
        {
            let crashed: BTreeSet<u32> = profile.node_crashes().iter().map(|c| c.node).collect();
            assert!(
                seed_ids.iter().any(|s| !crashed.contains(s)),
                "crashing every seed strands every rejoin"
            );
        }
        let epoch = self.epoch;
        for crash in profile.node_crashes() {
            let slot = Arc::clone(&self.slots[crash.node as usize]);
            let graveyard = Arc::clone(&self.graveyard);
            let closed = Arc::clone(&self.closed);
            let seeds = Arc::clone(&self.seeds);
            let config = self.config;
            let crash = *crash;
            let _ = std::thread::Builder::new()
                .name(format!("dgc-churn-{}", crash.node))
                .spawn(move || {
                    let sleep_until = |deadline: Duration| {
                        while epoch.elapsed() < deadline {
                            if closed.load(Ordering::SeqCst) {
                                return false;
                            }
                            let left = deadline.saturating_sub(epoch.elapsed());
                            std::thread::sleep(left.min(Duration::from_millis(20)));
                        }
                        !closed.load(Ordering::SeqCst)
                    };
                    if !sleep_until(Duration::from_nanos(crash.down.start.as_nanos())) {
                        return;
                    }
                    crash_slot(&slot, &graveyard);
                    let Some(incarnation) = crash.rejoin_incarnation else {
                        return;
                    };
                    if !sleep_until(Duration::from_nanos(crash.down.end.as_nanos())) {
                        return;
                    }
                    let _ = restart_slot(&slot, config, &seeds, crash.node, incarnation, &closed);
                });
        }
    }

    /// Kills `node` right now: its activities die with it (they are
    /// *not* recorded as collector terminations), its links go dark,
    /// and the survivors' membership layer gets to notice.
    pub fn crash_node(&self, node: u32) {
        crash_slot(&self.slots[node as usize], &self.graveyard);
    }

    /// Restarts a crashed `node` under `incarnation` (must exceed every
    /// earlier life), rejoining through the surviving seeds. Join
    /// clusters only.
    pub fn restart_node(&self, node: u32, incarnation: u64) -> std::io::Result<()> {
        assert!(
            !self.seeds.lock().is_empty(),
            "restart needs a join cluster (Cluster::join_local)"
        );
        restart_slot(
            &self.slots[node as usize],
            self.config,
            &self.seeds,
            node,
            incarnation,
            &self.closed,
        )
    }

    /// Graceful departure of one node — the clean-shutdown path: the
    /// node announces [`dgc_membership::NodeStatus::Left`], flushes the
    /// farewell digests, and only then goes down (its collector
    /// terminations are preserved like a crash's). Peers learn the
    /// departure from the `Left` verdict immediately instead of waiting
    /// out the suspicion timeout.
    pub fn leave_node(&self, node: u32) {
        self.with_node(node, |nd| nd.leave());
        crash_slot(&self.slots[node as usize], &self.graveyard);
    }

    /// True while `node` is crashed.
    pub fn is_down(&self, node: u32) -> bool {
        lock(&self.slots[node as usize]).node.is_none()
    }

    /// Runs `f` against `node` if it is up.
    fn with_node<R>(&self, node: u32, f: impl FnOnce(&NetNode) -> R) -> Option<R> {
        lock(&self.slots[node as usize]).node.as_ref().map(f)
    }

    /// Runs `f` against `node`, panicking while it is down (driver
    /// scripts must not address crashed nodes).
    fn with_live<R>(&self, node: u32, f: impl FnOnce(&NetNode) -> R) -> R {
        self.with_node(node, f)
            .unwrap_or_else(|| panic!("node {node} is down"))
    }

    /// The scenario clock origin (chaos clusters: when proxies started).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The current seed addresses of a join cluster (empty for static
    /// ones); a restarted seed appears under its fresh address.
    pub fn seed_addrs(&self) -> Vec<SocketAddr> {
        self.seeds.lock().iter().map(|(_, addr)| *addr).collect()
    }

    /// Aggregated chaos-proxy counters (all zero for a plain cluster).
    pub fn chaos_stats(&self) -> ChaosStatsSnapshot {
        let mut total = ChaosStatsSnapshot::default();
        for p in &self.proxies {
            let s = p.stats();
            total.forwarded += s.forwarded;
            total.dropped += s.dropped;
            total.delayed += s.delayed;
            total.reordered += s.reordered;
            total.severed += s.severed;
            total.corrupted += s.corrupted;
        }
        total
    }

    /// Stops this node's world for `d` (see [`NetNode::pause_for`]).
    pub fn pause_node(&self, node: u32, d: Duration) {
        self.with_live(node, |nd| nd.pause_for(d));
    }

    /// Number of nodes (up or down).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The listen address of `node` (panics while it is down).
    pub fn addr(&self, node: u32) -> SocketAddr {
        self.with_live(node, |nd| nd.addr())
    }

    /// Creates an activity on `node` (initially busy); returns its id.
    pub fn add_activity(&self, node: u32) -> AoId {
        self.with_live(node, |nd| nd.add_activity())
    }

    /// Declares `ao` idle or busy.
    pub fn set_idle(&self, ao: AoId, idle: bool) {
        self.with_live(ao.node, |nd| nd.set_idle(ao, idle));
    }

    /// Adds the reference edge `from → to` (any pair of nodes).
    pub fn add_ref(&self, from: AoId, to: AoId) {
        self.with_live(from.node, |nd| nd.add_ref(from, to));
    }

    /// Drops the reference edge `from → to`.
    pub fn drop_ref(&self, from: AoId, to: AoId) {
        self.with_live(from.node, |nd| nd.drop_ref(from, to));
    }

    /// Sends an opaque application unit (see [`NetNode::send_app`]):
    /// the egress flush trigger everything else piggybacks on.
    pub fn send_app(&self, from: AoId, to: AoId, reply: bool, payload: Vec<u8>) {
        self.with_live(from.node, |nd| nd.send_app(from, to, reply, payload));
    }

    /// Application units delivered to `node` so far, in arrival order
    /// (empty while a handler is registered — see
    /// [`Cluster::set_app_handler`]).
    pub fn app_received(&self, node: u32) -> Vec<crate::node::AppReceived> {
        self.with_node(node, |nd| nd.app_received())
            .unwrap_or_default()
    }

    /// Registers `node`'s application dispatch hook (see
    /// [`NetNode::set_app_handler`]): delivered app units run through
    /// the handler on the node's event loop instead of accumulating in
    /// the inbox, and any sends it returns are routed immediately.
    pub fn set_app_handler(
        &self,
        node: u32,
        f: impl FnMut(&crate::node::AppReceived) -> Vec<crate::node::AppSend> + Send + 'static,
    ) {
        self.with_live(node, |nd| nd.set_app_handler(f));
    }

    /// Outgoing application units `node` accepted but could not deliver
    /// (see [`NetNode::app_send_failures`]).
    pub fn app_send_failures(&self, node: u32) -> Vec<crate::node::AppReceived> {
        self.with_node(node, |nd| nd.app_send_failures())
            .unwrap_or_default()
    }

    /// Installs `node`'s envelope middleware pipeline (see
    /// [`NetNode::set_pipeline`]).
    pub fn set_pipeline(&self, node: u32, pipeline: dgc_plane::Pipeline) {
        self.with_live(node, |nd| nd.set_pipeline(pipeline));
    }

    /// Assigns `ao` to `tenant` on **every live node**: tenancy is a
    /// cluster-wide namespace, and the isolation stages consult each
    /// node's local map for both ends of an envelope — so the
    /// assignment must be visible everywhere, not just on `ao`'s host.
    pub fn set_tenant(&self, ao: AoId, tenant: dgc_plane::TenantId) {
        for node in 0..self.slots.len() as u32 {
            self.with_node(node, |nd| nd.register_tenant(ao, tenant));
        }
    }

    /// `node`'s per-tenant app-plane ledger (see
    /// [`NetNode::tenant_snapshot`]); `None` while the node is down or
    /// its event loop did not answer.
    pub fn tenant_snapshot(
        &self,
        node: u32,
    ) -> Option<Vec<(dgc_plane::TenantId, dgc_plane::TenantCounters)>> {
        self.with_node(node, |nd| nd.tenant_snapshot()).flatten()
    }

    /// `node`'s egress-plane occupancy (see [`NetNode::egress_pending`]);
    /// `None` while the node is down or its event loop did not answer.
    pub fn egress_pending(&self, node: u32) -> Option<crate::node::EgressPending> {
        self.with_node(node, |nd| nd.egress_pending()).flatten()
    }

    /// `node`'s lifetime egress counters (see [`NetNode::egress_stats`]);
    /// `None` while the node is down or its event loop did not answer.
    pub fn egress_stats(&self, node: u32) -> Option<dgc_core::egress::EgressStats> {
        self.with_node(node, |nd| nd.egress_stats()).flatten()
    }

    /// All collector terminations recorded so far, across nodes —
    /// including those a since-crashed node recorded before it died.
    /// (Activities killed *by* a crash never appear here: a crash is
    /// the environment's kill, not a collection.)
    pub fn terminated(&self) -> Vec<Terminated> {
        let mut all: Vec<Terminated> = self.graveyard.lock().clone();
        for node in 0..self.slots.len() as u32 {
            if let Some(mut t) = self.with_node(node, |nd| nd.terminated()) {
                all.append(&mut t);
            }
        }
        all.sort_by_key(|t| t.ao);
        all
    }

    /// True if `ao` has terminated (by collection, not by crash).
    pub fn is_terminated(&self, ao: AoId) -> bool {
        self.terminated().iter().any(|t| t.ao == ao)
    }

    /// Blocks until `predicate` holds over the merged termination log or
    /// the deadline passes; returns whether it held.
    pub fn wait_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[Terminated]) -> bool,
    ) -> bool {
        crate::node::poll_until(deadline, || predicate(&self.terminated()))
    }

    /// Blocks until `predicate` holds over the per-node transport
    /// counters or the deadline passes; returns whether it held. The
    /// polling twin of [`Cluster::wait_until`] for tests that assert on
    /// traffic instead of terminations — no fixed sleeps required.
    pub fn wait_stats_until(
        &self,
        deadline: Duration,
        predicate: impl Fn(&[NetStatsSnapshot]) -> bool,
    ) -> bool {
        crate::node::poll_until(deadline, || predicate(&self.stats()))
    }

    /// Per-node transport counters of each node's **current life**
    /// (zeroed placeholders for down nodes; a restarted node counts
    /// from zero).
    pub fn stats(&self) -> Vec<NetStatsSnapshot> {
        (0..self.slots.len() as u32)
            .map(|n| self.with_node(n, |nd| nd.stats()).unwrap_or_default())
            .collect()
    }

    /// Transport counters summed over all nodes and all their lives:
    /// what a crashed or departed node had counted stays in the total.
    pub fn total_stats(&self) -> NetStatsSnapshot {
        let mut total = NetStatsSnapshot::default();
        for slot in &self.slots {
            let s = lock(slot);
            // An exhaustive fold (`merge` destructures the snapshot),
            // so a newly added counter can never be silently dropped
            // from the cluster total — the PR 5 `piggybacked` bug class.
            total.merge(&s.retired_stats);
            if let Some(node) = &s.node {
                total.merge(&node.stats());
            }
        }
        total
    }

    /// `node`'s telemetry-plane registry (`None` while it is down).
    /// The handle stays valid after the node crashes — counters merely
    /// stop moving — but a restarted node gets a fresh registry.
    pub fn obs(&self, node: u32) -> Option<dgc_obs::Registry> {
        self.with_node(node, |nd| nd.obs().clone())
    }

    /// One fleet-wide metric snapshot: every node's registry merged —
    /// live ones as they read now, crashed and departed lives as they
    /// read when they went down — with the chaos proxies' counters
    /// folded in under `chaos.*` so the whole deployment reads as one
    /// tree.
    pub fn obs_merged(&self) -> dgc_obs::Snapshot {
        let mut snap = dgc_obs::Snapshot::default();
        for slot in &self.slots {
            let s = lock(slot);
            snap = snap.merge(&s.retired_obs);
            if let Some(node) = &s.node {
                snap = snap.merge(&node.obs().snapshot());
            }
        }
        let chaos = self.chaos_stats();
        if chaos != ChaosStatsSnapshot::default() {
            for (name, v) in [
                ("chaos.forwarded", chaos.forwarded),
                ("chaos.dropped", chaos.dropped),
                ("chaos.delayed", chaos.delayed),
                ("chaos.reordered", chaos.reordered),
                ("chaos.severed", chaos.severed),
                ("chaos.corrupted", chaos.corrupted),
            ] {
                snap.counters.insert(name.to_string(), v);
            }
        }
        // The lock-order detector is process-wide, so its gauges enter
        // the fleet tree exactly once (summing per-node mirrors would
        // multiply one process's pressure by the node count).
        let lockcheck = parking_lot::lockcheck::stats();
        if lockcheck != parking_lot::lockcheck::LockCheckStats::default() {
            snap.gauges
                .insert("lockcheck.edges".to_string(), lockcheck.edges as i64);
            snap.gauges.insert(
                "lockcheck.max_held_ns".to_string(),
                lockcheck.max_held_ns as i64,
            );
        }
        snap
    }

    /// `node`'s membership directory snapshot (`None` while it is down
    /// or when membership is disabled).
    pub fn member_records(&self, node: u32) -> Option<Vec<NodeRecord>> {
        self.with_node(node, |nd| nd.member_records()).flatten()
    }

    /// Membership transitions `node` has observed in its current life.
    pub fn membership_events(&self, node: u32) -> Vec<MembershipEvent> {
        self.with_node(node, |nd| nd.membership_events())
            .unwrap_or_default()
    }

    /// Blocks until `predicate` holds over `node`'s directory snapshot
    /// or the deadline passes; returns whether it held.
    pub fn wait_membership_until(
        &self,
        node: u32,
        deadline: Duration,
        predicate: impl Fn(&[NodeRecord]) -> bool,
    ) -> bool {
        crate::node::poll_until(deadline, || {
            self.member_records(node).is_some_and(|r| predicate(&r))
        })
    }

    /// Stops every node and proxy and joins their threads. Safe to call
    /// (or to skip — dropping the cluster does the same work) after a
    /// failed assertion: dead links and half-closed proxies are already
    /// tolerated by every join path.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Stop scheduled churn first: a restart racing the teardown
        // would resurrect a node nobody will ever stop.
        self.closed.store(true, Ordering::SeqCst);
        // Clean shutdown is graceful: every membership node announces
        // its departure before going down, so any peer that outlives
        // this teardown (or an observer mid-test) sees `Left` verdicts,
        // not a wall of suspicions. All leaves start concurrently; the
        // acks are then collected and one shared socket grace covers
        // the lot (not a per-node sleep).
        if self.config.membership.is_some() {
            let acks: Vec<_> = self
                .slots
                .iter()
                .filter_map(|slot| lock(slot).node.as_ref().and_then(|nd| nd.leave_begin()))
                .collect();
            let mut any = false;
            for rx in acks {
                any |= rx.recv_timeout(Duration::from_secs(1)).is_ok();
            }
            if any {
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        // Nodes next: their link threads are the proxies' clients, so
        // closing them lets proxy pumps drain out on EOF instead of
        // being killed mid-frame.
        for slot in &self.slots {
            if let Some(node) = lock(slot).node.take() {
                node.shutdown();
            }
        }
        for proxy in self.proxies.drain(..) {
            proxy.shutdown();
        }
    }
}
