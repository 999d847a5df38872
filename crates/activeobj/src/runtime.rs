//! The grid runtime: a deterministic driver executing activities over the
//! simulated network, with a pluggable distributed collector.
//!
//! This is the reproduction's equivalent of the ProActive middleware
//! deployed on Grid'5000: processes host activities, application calls
//! and collector traffic share reliable FIFO links, a per-process local
//! GC sweep detects dead stub tags, and every cross-process byte is
//! metered. All scheduling flows through one deterministic event queue,
//! so a `(seed, workload)` pair always replays identically.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgc_core::faults::FaultProfile;
use dgc_simnet::fault::FaultPlan;
use dgc_simnet::network::{Delivery, Network};
use dgc_simnet::queue::EventQueue;
use dgc_simnet::rng::SimRng;
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::{ProcId, Topology};
use dgc_simnet::traffic::{TrafficClass, TrafficMeter};

use dgc_core::egress::{EgressClass, EgressObs, Flush, FlushPolicy, Outbox};
use dgc_core::id::AoId;
use dgc_core::message::{Action, DgcMessage, DgcResponse, TerminateReason};
use dgc_core::stats::DgcStats;
use dgc_core::sweep::{SweepScratch, SweepUnit};
use dgc_core::telemetry::DgcObs;
use dgc_core::wire as dgc_wire;
use dgc_membership::wire as membership_wire;
use dgc_membership::{
    Digest, GossipOut, Membership, MembershipConfig, MembershipEvent, MembershipObs, NodeRecord,
    Transition,
};
use dgc_obs::{Registry, TimeSource, TraceLevel, Tracer};
use dgc_plane::{
    AuthKey, Envelope, MiddlewareCtx, Pipeline, TenantCounters, TenantId, TenantLedger, TenantMap,
    Verdict,
};
use dgc_rmi::endpoint::{RmiAction, RmiMessage};
use dgc_rmi::wire as rmi_wire;

use crate::activity::{Activity, AoCtx, Behavior, Effect, SpawnAlloc};
use crate::collector::{proto_time, Collector, CollectorKind};
use crate::oracle::{garbage_set, live_set, InflightMessage, SafetyViolation, Snapshot};
use crate::request::{FutureId, Reply, Request};

/// Capacity of the grid's trace ring: generous enough that a small
/// scenario reads as an append-only log, bounded so soak runs cannot
/// grow without limit.
const TRACE_CAPACITY: usize = 65_536;

/// Grid-level configuration.
#[derive(Clone)]
pub struct GridConfig {
    /// Sites, processes and latencies.
    pub topology: Topology,
    /// Root random seed; everything derives from it.
    pub seed: u64,
    /// Which distributed collector to run.
    pub collector: CollectorKind,
    /// Period of the simulated local-GC sweep per process.
    pub local_gc_period: SimDuration,
    /// Per-call envelope bytes added to every cross-process call
    /// (models the RMI invocation overhead; see `dgc_core::wire`).
    pub call_envelope: u64,
    /// Check every collector-driven termination against the oracle.
    pub check_safety: bool,
    /// Record `(idle, collected)` samples at this period (Fig. 10).
    pub sample_every: Option<SimDuration>,
    /// Trace verbosity.
    pub trace_level: TraceLevel,
    /// Randomize the phase of each activity's first collector tick, as
    /// unsynchronized broadcasts do in the real system.
    pub tick_jitter: bool,
    /// Deployment payload charged once per process when its first
    /// activity is created (models middleware bootstrap: class loading,
    /// runtime descriptors — the bulk of a lightly-communicating
    /// application's baseline traffic, cf. the paper's EP row).
    pub deployment_bytes: u64,
    /// Link faults and process pauses (§4.2 experiments).
    pub fault_plan: FaultPlan,
    /// When set, every process runs a `dgc-membership` engine driven by
    /// simulated gossip delivery: nodes discover each other from the
    /// `membership_seeds`, suspect and bury silent peers, and each
    /// **dead** verdict feeds the hosted collectors' send-failure path
    /// ([`dgc_core::protocol::DgcState::on_node_dead`]).
    pub membership: Option<MembershipConfig>,
    /// The processes every engine is seeded with (assumed-alive
    /// contacts); the usual deployment knows only process 0.
    pub membership_seeds: Vec<ProcId>,
    /// The egress plane's flush policy: when a process's queued
    /// cross-process units (DGC heartbeats, gossip digests, app
    /// requests/replies) become one metered frame sharing a single
    /// call envelope. The default is [`FlushPolicy::immediate`] — every
    /// unit its own frame, the paper's baseline accounting — so
    /// existing experiments are byte-identical; switch to
    /// [`FlushPolicy::default`] (or a custom policy) to measure the
    /// piggyback saving. `flush_on_app` must stay on: the application's
    /// synchronous rendezvous (§2) cannot wait out a linger.
    pub egress: FlushPolicy,
    /// The deployment's link key (`dgc-plane` PSK). On sockets the key
    /// drives a real HMAC handshake; the simulator *models* the
    /// outcome: a cross-process link counts as authenticated when both
    /// ends hold equal keys (or no key is configured anywhere). Procs
    /// default to this key; [`Grid::set_proc_key`] plants rogues.
    pub auth: Option<AuthKey>,
}

impl GridConfig {
    /// A sensible default configuration over `topology`.
    pub fn new(topology: Topology) -> Self {
        GridConfig {
            topology,
            seed: 0xD6C5_EED5,
            collector: CollectorKind::None,
            local_gc_period: SimDuration::from_secs(1),
            call_envelope: dgc_wire::RMI_CALL_ENVELOPE,
            check_safety: true,
            sample_every: None,
            trace_level: TraceLevel::Off,
            tick_jitter: true,
            deployment_bytes: 0,
            fault_plan: FaultPlan::none(),
            membership: None,
            membership_seeds: vec![ProcId(0)],
            egress: FlushPolicy::immediate(),
            auth: None,
        }
    }

    /// Sets the deployment link key (see [`GridConfig::auth`]).
    pub fn auth(mut self, key: AuthKey) -> Self {
        self.auth = Some(key);
        self
    }

    /// Enables the membership layer with `config` timings.
    pub fn membership(mut self, config: MembershipConfig) -> Self {
        self.membership = Some(config);
        self
    }

    /// Sets the egress flush policy (see [`GridConfig::egress`]).
    pub fn egress(mut self, policy: FlushPolicy) -> Self {
        self.egress = policy;
        self
    }

    /// Sets the collector.
    pub fn collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables time-series sampling.
    pub fn sample_every(mut self, period: SimDuration) -> Self {
        self.sample_every = Some(period);
        self
    }

    /// Sets the trace level.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Enables or disables oracle safety checking (expensive on very
    /// large runs).
    pub fn check_safety(mut self, on: bool) -> Self {
        self.check_safety = on;
        self
    }

    /// Installs a fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Installs the simulator realization of a runtime-neutral
    /// [`FaultProfile`] (the same description a `dgc-rt-net` chaos
    /// proxy replays over real sockets).
    pub fn fault_profile(self, profile: &FaultProfile) -> Self {
        self.fault_plan(FaultPlan::from_profile(profile))
    }

    /// Sets the per-process deployment payload.
    pub fn deployment_bytes(mut self, bytes: u64) -> Self {
        self.deployment_bytes = bytes;
        self
    }
}

/// A collected (terminated) activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectedRecord {
    /// Who.
    pub ao: AoId,
    /// Collector reason; `None` for explicit `kill`.
    pub reason: Option<TerminateReason>,
    /// When.
    pub at: SimTime,
}

/// One driver-level application unit delivered by the simulated
/// network — the simulator twin of `dgc-rt-net`'s `AppReceived`, so a
/// runtime-neutral workload driver can poll either runtime the same
/// way. Also the shape of a *failed* outgoing unit in
/// [`Grid::app_send_failures`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppDelivered {
    /// Delivery (or failure) time.
    pub at: SimTime,
    /// Sending activity.
    pub from: AoId,
    /// Destination activity.
    pub to: AoId,
    /// True for a reply payload.
    pub reply: bool,
    /// The opaque payload.
    pub payload: Vec<u8>,
}

/// One time-series sample (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Sample time.
    pub at: SimTime,
    /// Alive idle activities.
    pub idle: usize,
    /// Collected activities so far.
    pub collected: usize,
    /// Alive activities.
    pub alive: usize,
}

enum Event {
    Request {
        key: u64,
        to: AoId,
        request: Request,
    },
    ReplyMsg {
        key: u64,
        to: AoId,
        reply: Reply,
    },
    DgcMsg {
        from: AoId,
        to: AoId,
        message: DgcMessage,
    },
    DgcResp {
        from: AoId,
        to: AoId,
        response: DgcResponse,
    },
    Rmi {
        from: AoId,
        to: AoId,
        message: RmiMessage,
    },
    Tick {
        ao: AoId,
    },
    ServeDone {
        ao: AoId,
    },
    LocalGc {
        proc: ProcId,
    },
    AppTimer {
        ao: AoId,
        token: u64,
    },
    /// Drives `proc`'s membership engine (failure detection + gossip).
    MembershipTick {
        proc: ProcId,
    },
    /// A gossip digest crossing the simulated network.
    Gossip {
        from: ProcId,
        to: ProcId,
        digest: Digest,
    },
    /// A driver-level opaque application unit arriving (the simulator
    /// twin of `dgc-rt-net`'s `Item::App` delivery).
    AppBytes {
        from: AoId,
        to: AoId,
        reply: bool,
        tenant: TenantId,
        payload: Vec<u8>,
    },
    /// `proc`'s egress outbox reached a max-delay deadline: flush the
    /// due destinations. (A paused process defers this like all its
    /// work — a stalled node sends nothing, faithfully.)
    EgressFlush {
        proc: ProcId,
    },
    /// `proc` crashes: every hosted activity dies, its membership
    /// engine stops. Scheduled from the fault plan's `NodeCrash`es.
    NodeCrash {
        proc: ProcId,
    },
    /// `proc` restarts empty under `incarnation` and re-bootstraps from
    /// the seeds.
    NodeRejoin {
        proc: ProcId,
        incarnation: u64,
    },
    Sample,
}

enum HandlerKind {
    Start,
    Request(Request),
    Reply(FutureId, Reply),
    Timer(u64),
}

/// One cross-process unit queued on a process's egress outbox. The
/// outbox coalesces these into frames; [`Grid::realize_flush`] turns a
/// flush back into scheduled delivery events (or per-unit loss
/// handling when the frame crosses a drop window).
enum OutUnit {
    Request {
        to: AoId,
        request: Request,
    },
    Reply {
        to: AoId,
        reply: Reply,
    },
    Dgc {
        from: AoId,
        to: AoId,
        message: DgcMessage,
    },
    Resp {
        from: AoId,
        to: AoId,
        response: DgcResponse,
    },
    Gossip {
        to: ProcId,
        digest: Digest,
    },
    /// A driver-level opaque app payload ([`Grid::send_app`]): metered
    /// and flushed like socket app traffic, delivered to the drainable
    /// inbox instead of a behavior.
    AppBytes {
        from: AoId,
        to: AoId,
        reply: bool,
        tenant: TenantId,
        payload: Vec<u8>,
    },
}

/// The meter class an egress class is charged under.
fn traffic_class(class: EgressClass) -> TrafficClass {
    match class {
        EgressClass::AppRequest => TrafficClass::AppRequest,
        EgressClass::AppReply => TrafficClass::AppReply,
        EgressClass::DgcMessage => TrafficClass::DgcMessage,
        EgressClass::DgcResponse => TrafficClass::DgcResponse,
        EgressClass::Gossip => TrafficClass::Gossip,
        // The grid never queues bare control units today; metered like
        // DGC traffic if it ever does.
        EgressClass::Control => TrafficClass::DgcMessage,
    }
}

/// The grid: processes, activities, network, collector, oracle.
pub struct Grid {
    config: GridConfig,
    now: SimTime,
    events: EventQueue<Event>,
    net: Network,
    procs: Vec<BTreeMap<u32, Activity>>,
    spawn_alloc: SpawnAlloc,
    rng: SimRng,
    trace: Tracer,
    registry: BTreeMap<String, AoId>,
    collected: Vec<CollectedRecord>,
    violations: Vec<SafetyViolation>,
    samples: Vec<Sample>,
    idle_count: usize,
    alive_count: usize,
    app_sends_to_dead: u64,
    inflight_app: BTreeMap<u64, InflightMessage>,
    next_inflight_key: u64,
    dgc_stats_collected: DgcStats,
    /// Per-process membership engines (`None` while a process is down,
    /// or for every process when the layer is disabled).
    members: Vec<Option<Membership>>,
    /// Every membership transition each process observed, in order.
    member_events: Vec<Vec<MembershipEvent>>,
    /// Per-process egress outboxes (cross-process units only).
    outboxes: Vec<Outbox<OutUnit>>,
    /// The earliest scheduled [`Event::EgressFlush`] per process, to
    /// avoid flooding the queue with duplicate wake-ups.
    egress_wake: Vec<Option<SimTime>>,
    /// Driver-level app units delivered and not yet drained.
    app_inbox: Vec<AppDelivered>,
    /// Driver-level app units the network accepted but could not
    /// deliver (dropped frame, departed destination process).
    app_failures: Vec<AppDelivered>,
    /// Shared virtual clock the telemetry plane reads; kept equal to
    /// `now` as the event loop advances.
    obs_clock: Arc<AtomicU64>,
    /// Per-process telemetry registries, all reading `obs_clock` and
    /// sharing the grid trace ring.
    obs: Vec<Registry>,
    /// The app-plane middleware pipeline every [`Grid::send_app`]
    /// payload traverses (outgoing at the sender, incoming at
    /// delivery). Empty by default: single-tenant grids are untouched.
    pipeline: Pipeline,
    /// Activity → tenant assignments. The grid's one map plays the role
    /// of every node's broadcast-synchronized copy on sockets.
    tenants: TenantMap,
    /// Per-tenant app-plane conservation ledger
    /// (`enqueued = flushed + returned + pending`).
    ledger: TenantLedger,
    /// Each process's link key; initialized from [`GridConfig::auth`],
    /// overridden per proc by [`Grid::set_proc_key`] to model rogues.
    proc_keys: Vec<Option<AuthKey>>,
    /// Scratch and unit buffers every collector tick reuses
    /// ([`DgcState::on_tick_into`]): million-activity grids stop
    /// paying a `Vec<Action>` allocation per activity per TTB.
    dgc_scratch: SweepScratch,
    dgc_units: Vec<SweepUnit>,
}

impl Grid {
    /// Builds a grid from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.egress.flush_on_app` is off: the application's
    /// synchronous rendezvous cannot wait out an egress linger.
    pub fn new(config: GridConfig) -> Self {
        assert!(
            config.egress.flush_on_app,
            "GridConfig::egress must keep flush_on_app enabled"
        );
        let procs_n = config.topology.procs();
        let mut rng = SimRng::from_seed(config.seed);
        let mut net = Network::new(config.topology.clone());
        net.set_fault_plan(config.fault_plan.clone());
        let mut events = EventQueue::new();
        // Stagger local-GC sweeps so processes do not all sweep at once.
        let mut gc_rng = rng.fork(0x6C);
        for p in 0..procs_n {
            let phase = gc_rng.jitter(config.local_gc_period);
            events.schedule(SimTime::ZERO + phase, Event::LocalGc { proc: ProcId(p) });
        }
        if let Some(period) = config.sample_every {
            events.schedule(SimTime::ZERO + period, Event::Sample);
        }
        // Membership: one engine per process, seeded, ticked at half the
        // gossip interval so failure detection stays responsive.
        let members: Vec<Option<Membership>> = (0..procs_n)
            .map(|p| {
                config.membership.map(|m| {
                    let engine = new_member(&config, ProcId(p), 1, SimTime::ZERO, m);
                    events.schedule(SimTime::ZERO, Event::MembershipTick { proc: ProcId(p) });
                    engine
                })
            })
            .collect();
        // Crash-restarts come from the fault plan, like pauses — but as
        // explicit events, since they destroy state rather than defer it.
        for crash in config.fault_plan.crashes() {
            let proc = ProcId(crash.node);
            events.schedule(
                SimTime::from_nanos(crash.down.start.as_nanos()),
                Event::NodeCrash { proc },
            );
            if let Some(incarnation) = crash.rejoin_incarnation {
                events.schedule(
                    SimTime::from_nanos(crash.down.end.as_nanos()),
                    Event::NodeRejoin { proc, incarnation },
                );
            }
        }
        let trace = Tracer::new(config.trace_level, TRACE_CAPACITY);
        let egress = config.egress;
        // One virtual clock for the whole grid: every per-proc registry
        // reads it, so cross-node telemetry timestamps are mutually
        // ordered — exactly like the wall clock on real sockets.
        let (obs_time, obs_clock) = TimeSource::simulated();
        let obs: Vec<Registry> = (0..procs_n)
            .map(|_| Registry::with_tracer(obs_time.clone(), trace.clone()))
            .collect();
        let outboxes: Vec<Outbox<OutUnit>> = obs
            .iter()
            .map(|r| {
                let mut ob = Outbox::new(egress);
                ob.set_obs(EgressObs::new(r));
                ob
            })
            .collect();
        let members: Vec<Option<Membership>> = members
            .into_iter()
            .zip(&obs)
            .map(|(m, r)| {
                m.map(|mut engine| {
                    engine.set_obs(MembershipObs::new(r));
                    engine
                })
            })
            .collect();
        // The tenant ledger counts into proc 0's registry: tenants are
        // a grid-wide namespace, and `obs_merged` folds every registry
        // anyway, so one home keeps the counters visible fleet-wide
        // without double counting.
        let ledger = TenantLedger::new(&obs[0]);
        let proc_keys = vec![config.auth; procs_n as usize];
        Grid {
            spawn_alloc: SpawnAlloc::new(procs_n),
            procs: (0..procs_n).map(|_| BTreeMap::new()).collect(),
            config,
            now: SimTime::ZERO,
            events,
            net,
            rng,
            trace,
            registry: BTreeMap::new(),
            collected: Vec::new(),
            violations: Vec::new(),
            samples: Vec::new(),
            idle_count: 0,
            alive_count: 0,
            app_sends_to_dead: 0,
            inflight_app: BTreeMap::new(),
            next_inflight_key: 0,
            dgc_stats_collected: DgcStats::default(),
            members,
            member_events: (0..procs_n).map(|_| Vec::new()).collect(),
            outboxes,
            egress_wake: vec![None; procs_n as usize],
            app_inbox: Vec::new(),
            app_failures: Vec::new(),
            obs_clock,
            obs,
            pipeline: Pipeline::new(),
            tenants: TenantMap::new(),
            ledger,
            proc_keys,
            dgc_scratch: SweepScratch::new(),
            dgc_units: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Deployment API (what a `main()` does)
    // ------------------------------------------------------------------

    /// Spawns an activity on `proc`. Nothing references it: under a
    /// running collector it will be collected after TTA unless a
    /// reference reaches it first — use [`Grid::spawn_root`] or
    /// [`Grid::make_ref`] for deployment wiring.
    pub fn spawn(&mut self, proc: ProcId, behavior: Box<dyn Behavior>) -> AoId {
        let id = self.spawn_alloc.allocate(proc);
        self.create_activity(id, behavior, false);
        id
    }

    /// Spawns a **root** activity (registered object or dummy
    /// referencer, §4.1): never idle, never collected.
    pub fn spawn_root(&mut self, proc: ProcId, behavior: Box<dyn Behavior>) -> AoId {
        let id = self.spawn_alloc.allocate(proc);
        self.create_activity(id, behavior, true);
        id
    }

    /// Registers `ao` under `name` (making it a root, like the paper's
    /// registry).
    pub fn register(&mut self, name: &str, ao: AoId) {
        self.registry.insert(name.to_owned(), ao);
        if let Some(act) = get_act(&mut self.procs, ao) {
            act.is_root = true;
        }
        self.refresh_idle(ao);
    }

    /// Removes the registration, allowing collection again.
    pub fn unregister(&mut self, name: &str) {
        if let Some(ao) = self.registry.remove(name) {
            if let Some(act) = get_act(&mut self.procs, ao) {
                act.is_root = false;
            }
            self.refresh_idle(ao);
        }
    }

    /// Looks up a registered activity.
    pub fn lookup(&self, name: &str) -> Option<AoId> {
        self.registry.get(name).copied()
    }

    /// Pins `ao` busy (`busy = true`) or releases the pin — the
    /// deterministic equivalent of the socket runtime's explicit
    /// `set_idle(ao, false)`, used by the conformance harness to script
    /// identical busy/idle timelines on both runtimes. The pin is its
    /// own flag, not `is_root`, so pinning and releasing never disturbs
    /// root status from [`Grid::register`] / [`Grid::spawn_root`].
    pub fn set_busy(&mut self, ao: AoId, busy: bool) {
        if let Some(act) = get_act(&mut self.procs, ao) {
            act.pinned_busy = busy;
        }
        self.refresh_idle(ao);
    }

    /// Hands `holder` a reference to `target` (deployment-time wiring:
    /// stub deserialization without a message). Refused when the two
    /// belong to different tenants: reference graphs — and therefore
    /// every TTB sweep and termination verdict walking them — never
    /// cross a tenant boundary (the socket runtime rejects the same
    /// way in its `AddRef` path).
    pub fn make_ref(&mut self, holder: AoId, target: AoId) {
        assert!(self.is_alive(holder), "make_ref: unknown holder {holder}");
        if self.tenants.of(holder) != self.tenants.of(target) {
            self.ledger.on_rejected_outgoing(self.tenants.of(holder));
            self.trace_event(TraceLevel::Debug, "ref-reject", || {
                format!("{holder}→{target}: cross-tenant")
            });
            return;
        }
        self.register_deserialized(holder, std::slice::from_ref(&target));
    }

    /// Drops every stub `holder` has for `target` (detected at the next
    /// local-GC sweep).
    pub fn drop_ref(&mut self, holder: AoId, target: AoId) {
        if let Some(act) = get_act(&mut self.procs, holder) {
            act.stubs.release_all(target);
        }
    }

    /// Sends a request on behalf of `sender` (a deployment-held root or
    /// dummy). `refs` must be held by the sender (or be the sender).
    pub fn send_from(
        &mut self,
        sender: AoId,
        to: AoId,
        method: u32,
        payload_bytes: u64,
        refs: Vec<AoId>,
    ) {
        self.dispatch_request(sender, to, method, payload_bytes, refs, None);
    }

    /// Explicitly destroys an activity (the explicit-termination
    /// baseline used by the NAS implementation, §5.2).
    pub fn kill(&mut self, ao: AoId) {
        self.terminate_activity(ao, None);
    }

    /// Sends a driver-level opaque application unit — the simulator
    /// twin of `dgc_rt_net::NetNode::send_app`, so a runtime-neutral
    /// workload driver can ship the same payloads over either runtime.
    /// The unit crosses the egress plane (metered under its app class,
    /// coalescing and dropping with the frame it rides in) and lands in
    /// the inbox drained by [`Grid::drain_app_received`]; it never
    /// touches a behavior, so activity idleness is unaffected —
    /// exactly like the socket runtime's opaque app plane.
    pub fn send_app(&mut self, from: AoId, to: AoId, reply: bool, payload: Vec<u8>) {
        let mut env = Envelope {
            from,
            to,
            reply,
            tenant: self.tenants.of(from),
            payload,
        };
        // Outgoing side: the local sender is trusted (auth gates links,
        // not intent — the socket runtime behaves identically).
        let ctx = MiddlewareCtx {
            link_authenticated: true,
            tenants: &self.tenants,
        };
        if let Verdict::Reject(why) = self.pipeline.outgoing(&mut env, &ctx) {
            self.ledger.on_rejected_outgoing(self.tenants.of(env.from));
            self.trace_event(TraceLevel::Debug, "app-reject", || {
                format!("{from}→{to}: {why}")
            });
            return;
        }
        self.ledger.on_enqueued(env.tenant);
        let class = if env.reply {
            EgressClass::AppReply
        } else {
            EgressClass::AppRequest
        };
        let size = env.payload.len() as u64;
        let unit = OutUnit::AppBytes {
            from: env.from,
            to: env.to,
            reply: env.reply,
            tenant: env.tenant,
            payload: env.payload,
        };
        if from.node == to.node {
            self.schedule_unit(self.now, ProcId(from.node), unit);
        } else {
            self.enqueue_unit(ProcId(from.node), ProcId(to.node), class, size, unit);
        }
    }

    /// Installs the app-plane middleware pipeline (e.g.
    /// [`Pipeline::standard`] for the multi-tenant policy). Replaces
    /// the current one wholesale; the default is empty.
    pub fn set_pipeline(&mut self, pipeline: Pipeline) {
        self.pipeline = pipeline;
    }

    /// Assigns `ao` to `tenant` — the grid twin of
    /// `dgc_rt_net::Cluster::set_tenant` (one map here plays every
    /// node's copy). Isolation stages and the [`Grid::make_ref`] guard
    /// consult it for both endpoints.
    pub fn set_tenant(&mut self, ao: AoId, tenant: TenantId) {
        self.tenants.register(ao, tenant);
    }

    /// The tenant `ao` belongs to.
    pub fn tenant_of(&self, ao: AoId) -> TenantId {
        self.tenants.of(ao)
    }

    /// Overrides `proc`'s link key (see [`GridConfig::auth`]): `None`
    /// models a keyless process, a mismatching key models a rogue —
    /// either way its cross-process app units arrive on links that
    /// never authenticated, and a [`dgc_plane::RequireAuth`] stage
    /// refuses them at delivery.
    pub fn set_proc_key(&mut self, proc: ProcId, key: Option<AuthKey>) {
        self.proc_keys[proc.0 as usize] = key;
    }

    /// Every tenant that moved at least one app unit, with its
    /// conservation counters.
    pub fn tenant_snapshot(&self) -> Vec<(TenantId, TenantCounters)> {
        self.ledger.snapshot()
    }

    /// `tenant`'s app-plane counters (zeros if it never moved a unit).
    pub fn tenant_counters(&self, tenant: TenantId) -> TenantCounters {
        self.ledger.counters(tenant)
    }

    /// True when a `proc_a` ↔ `proc_b` link counts as authenticated:
    /// same process (loopback never leaves the node), both keyless, or
    /// both holding the same key — the modeled outcome of the socket
    /// runtime's HMAC handshake.
    fn link_authenticated(&self, proc_a: u32, proc_b: u32) -> bool {
        if proc_a == proc_b {
            return true;
        }
        let key = |p: u32| self.proc_keys.get(p as usize).copied().flatten();
        match (key(proc_a), key(proc_b)) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Drains the driver-level app units delivered since the last call,
    /// in delivery order.
    pub fn drain_app_received(&mut self) -> Vec<AppDelivered> {
        std::mem::take(&mut self.app_inbox)
    }

    /// Driver-level app units the network accepted but could not
    /// deliver (frame lost to a fault window, destination process
    /// departed), in failure order.
    pub fn app_send_failures(&self) -> &[AppDelivered] {
        &self.app_failures
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs the simulation until `deadline` (inclusive).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.events.peek_time() {
            if at > deadline {
                break;
            }
            let (at, event) = self.events.pop().expect("peeked event");
            self.now = at;
            self.obs_clock.store(at.as_nanos(), Ordering::Relaxed);
            // §4.2 process pauses: a paused process handles nothing; its
            // events are deferred to the end of the pause.
            if let Some(proc) = event_proc(&event) {
                if let Some(end) = self.config.fault_plan.pause_end(at, proc) {
                    self.events.schedule(end, event);
                    continue;
                }
            }
            self.handle(event);
        }
        self.now = self.now.max(deadline);
        self.obs_clock.store(self.now.as_nanos(), Ordering::Relaxed);
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Runs until no garbage remains alive (checked every `check_every`)
    /// or until `deadline`; returns `true` on success.
    pub fn run_until_clean(&mut self, check_every: SimDuration, deadline: SimTime) -> bool {
        loop {
            if self.garbage_remaining().is_empty() {
                return true;
            }
            if self.now >= deadline {
                return false;
            }
            let step = deadline.min(self.now + check_every);
            self.run_until(step);
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Request { key, to, request } => {
                self.inflight_app.remove(&key);
                self.deliver_request(to, request);
            }
            Event::ReplyMsg { key, to, reply } => {
                self.inflight_app.remove(&key);
                self.deliver_reply(to, reply);
            }
            Event::DgcMsg { from, to, message } => self.deliver_dgc_msg(from, to, message),
            Event::DgcResp { from, to, response } => self.deliver_dgc_resp(from, to, response),
            Event::Rmi { from, to, message } => self.deliver_rmi(from, to, message),
            Event::Tick { ao } => self.handle_tick(ao),
            Event::ServeDone { ao } => self.handle_serve_done(ao),
            Event::LocalGc { proc } => self.handle_local_gc(proc),
            Event::AppTimer { ao, token } => self.handle_app_timer(ao, token),
            Event::MembershipTick { proc } => self.handle_membership_tick(proc),
            Event::Gossip { from, to, digest } => self.handle_gossip(from, to, digest),
            Event::AppBytes {
                from,
                to,
                reply,
                tenant,
                payload,
            } => {
                // A departed process hears nothing; its caller learns
                // through the failure log, like on sockets.
                let up =
                    self.config.membership.is_none() || self.members[to.node as usize].is_some();
                if !up {
                    self.app_failures.push(AppDelivered {
                        at: self.now,
                        from,
                        to,
                        reply,
                        payload,
                    });
                    return;
                }
                // Incoming side of the pipeline, with the modeled link
                // auth outcome: a rogue process's units die here.
                let mut env = Envelope {
                    from,
                    to,
                    reply,
                    tenant,
                    payload,
                };
                let ctx = MiddlewareCtx {
                    link_authenticated: self.link_authenticated(from.node, to.node),
                    tenants: &self.tenants,
                };
                if let Verdict::Reject(why) = self.pipeline.incoming(&mut env, &ctx) {
                    self.ledger.on_rejected_incoming(env.tenant);
                    self.trace_event(TraceLevel::Debug, "app-reject", || {
                        format!("{from}→{to}: {why}")
                    });
                    return;
                }
                self.app_inbox.push(AppDelivered {
                    at: self.now,
                    from: env.from,
                    to: env.to,
                    reply: env.reply,
                    payload: env.payload,
                });
            }
            Event::EgressFlush { proc } => self.handle_egress_flush(proc),
            Event::NodeCrash { proc } => self.handle_crash(proc),
            Event::NodeRejoin { proc, incarnation } => self.handle_rejoin(proc, incarnation),
            Event::Sample => {
                self.samples.push(Sample {
                    at: self.now,
                    idle: self.idle_count,
                    collected: self.collected.len(),
                    alive: self.alive_count,
                });
                if let Some(period) = self.config.sample_every {
                    self.events.schedule(self.now + period, Event::Sample);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Activity lifecycle
    // ------------------------------------------------------------------

    fn create_activity(&mut self, id: AoId, behavior: Box<dyn Behavior>, is_root: bool) {
        // Middleware bootstrap: the first activity on a remote process
        // pulls the runtime/classes over from the deployer (process 0).
        if self.config.deployment_bytes > 0
            && id.node != 0
            && self.procs[id.node as usize].is_empty()
        {
            self.net.send(
                self.now,
                ProcId(0),
                ProcId(id.node),
                TrafficClass::AppRequest,
                self.config.deployment_bytes,
            );
        }
        let rng = self.rng.fork(hash_id(id));
        let mut act = Activity::new(id, behavior, is_root, rng);
        act.collector = Collector::new(&self.config.collector, id, self.now);
        if let Collector::Complete(state) = &mut act.collector {
            state.set_obs(DgcObs::new(&self.obs[id.node as usize]));
        }
        if let Some(period) = act.collector.tick_period() {
            let phase = if self.config.tick_jitter {
                self.rng.jitter(period)
            } else {
                SimDuration::ZERO
            };
            self.events
                .schedule(self.now + period + phase, Event::Tick { ao: id });
        }
        self.procs[id.node as usize].insert(id.index, act);
        self.alive_count += 1;
        self.trace_event(TraceLevel::Info, "spawn", || format!("{id} root={is_root}"));
        self.run_handler(id, HandlerKind::Start);
        self.refresh_idle(id);
    }

    fn terminate_activity(&mut self, ao: AoId, reason: Option<TerminateReason>) {
        // Oracle safety check: only collector-driven terminations.
        if let Some(r) = reason {
            if self.config.check_safety {
                let snap = self.snapshot();
                if live_set(&snap).contains(&ao) {
                    self.violations.push(SafetyViolation {
                        at: self.now,
                        ao,
                        reason: r,
                    });
                    self.trace_event(TraceLevel::Info, "violation", || format!("{ao} was live"));
                }
            }
        }
        let Some(act) = self.procs[ao.node as usize].remove(&ao.index) else {
            return;
        };
        self.alive_count -= 1;
        if act.was_idle {
            self.idle_count -= 1;
        }
        // RMI sends clean calls for still-held references on local
        // collection; the paper's DGC goes silent and lets TTA expire.
        match act.collector {
            Collector::Rmi(mut e) => {
                let held: Vec<AoId> = act.stubs.held_targets().collect();
                let mut actions = Vec::new();
                for t in held {
                    actions.extend(e.on_stubs_collected(t));
                }
                self.apply_rmi_actions(ao, actions);
            }
            Collector::Complete(s) => {
                self.dgc_stats_collected.merge(s.stats());
            }
            Collector::None => {}
        }
        self.collected.push(CollectedRecord {
            ao,
            reason,
            at: self.now,
        });
        self.trace_event(TraceLevel::Info, "terminate", || {
            format!("{ao} reason={reason:?}")
        });
    }

    fn refresh_idle(&mut self, ao: AoId) {
        let now = self.now;
        let Some(act) = get_act(&mut self.procs, ao) else {
            return;
        };
        let idle = act.is_idle();
        if idle == act.was_idle {
            return;
        }
        act.was_idle = idle;
        if idle {
            self.idle_count += 1;
            if let Collector::Complete(s) = &mut act.collector {
                s.on_became_idle(proto_time(now));
            }
            self.trace_event(TraceLevel::Debug, "idle", || format!("{ao}"));
        } else {
            self.idle_count -= 1;
            self.trace_event(TraceLevel::Debug, "busy", || format!("{ao}"));
        }
    }

    /// §2.2 deserialization hook: `ao` received stubs for `refs`.
    fn register_deserialized(&mut self, ao: AoId, refs: &[AoId]) {
        let now = self.now;
        let mut rmi_actions: Vec<RmiAction> = Vec::new();
        if let Some(act) = get_act(&mut self.procs, ao) {
            for r in refs {
                act.stubs.deserialize(*r);
                match &mut act.collector {
                    // The first beat waits for the activity's scheduled
                    // tick: the grid keeps its own tick events.
                    Collector::Complete(s) => {
                        s.on_stub_deserialized(*r);
                    }
                    Collector::Rmi(e) => {
                        rmi_actions.extend(e.on_stub_deserialized(proto_time(now), *r));
                    }
                    Collector::None => {}
                }
            }
        }
        self.apply_rmi_actions(ao, rmi_actions);
    }

    // ------------------------------------------------------------------
    // Application message handling
    // ------------------------------------------------------------------

    fn deliver_request(&mut self, to: AoId, request: Request) {
        if !self.is_alive(to) {
            self.app_sends_to_dead += 1;
            self.trace_event(TraceLevel::Info, "dead-call", || format!("request to {to}"));
            return;
        }
        self.register_deserialized(to, &request.refs);
        let act = get_act(&mut self.procs, to).expect("alive");
        act.queue.push_back(request);
        self.try_serve(to);
        self.refresh_idle(to);
    }

    fn deliver_reply(&mut self, to: AoId, reply: Reply) {
        if !self.is_alive(to) {
            // §4.1: a future update for a collected caller is dropped —
            // accepted behaviour, not a fault.
            self.trace_event(TraceLevel::Debug, "late-reply", || format!("to {to}"));
            return;
        }
        self.register_deserialized(to, &reply.refs);
        let act = get_act(&mut self.procs, to).expect("alive");
        let seq = reply.future.seq;
        if act.waiting.remove(&seq) {
            // Wait-by-necessity resolved: the handler runs (busy).
            let fut = reply.future;
            self.run_handler(to, HandlerKind::Reply(fut, reply));
        } else {
            // Arrival of a future value cannot wake an idle activity.
            act.stored_replies.insert(seq, reply);
        }
        self.try_serve(to);
        self.refresh_idle(to);
    }

    fn handle_serve_done(&mut self, ao: AoId) {
        let Some(act) = get_act(&mut self.procs, ao) else {
            return;
        };
        act.pending_serves = act.pending_serves.saturating_sub(1);
        self.try_serve(ao);
        self.refresh_idle(ao);
    }

    fn handle_app_timer(&mut self, ao: AoId, token: u64) {
        if !self.is_alive(ao) {
            return;
        }
        self.run_handler(ao, HandlerKind::Timer(token));
        self.refresh_idle(ao);
    }

    fn try_serve(&mut self, ao: AoId) {
        loop {
            let Some(act) = get_act(&mut self.procs, ao) else {
                return;
            };
            if !act.can_serve_next() {
                return;
            }
            let request = act.queue.pop_front().expect("non-empty");
            self.run_handler(ao, HandlerKind::Request(request));
            // run_handler schedules a ServeDone (pending_serves > 0), so
            // the loop exits unless the handler completed synchronously.
        }
    }

    fn run_handler(&mut self, ao: AoId, kind: HandlerKind) {
        let now = self.now;
        let Some(act) = get_act(&mut self.procs, ao) else {
            return;
        };
        let mut behavior = std::mem::replace(&mut act.behavior, Box::new(crate::activity::Inert));
        let effects = {
            let mut ctx = AoCtx::new(
                ao,
                now,
                &mut act.next_future_seq,
                &mut self.spawn_alloc,
                &mut act.rng,
            );
            match &kind {
                HandlerKind::Start => behavior.on_start(&mut ctx),
                HandlerKind::Request(req) => behavior.on_request(&mut ctx, req),
                HandlerKind::Reply(fut, reply) => behavior.on_reply(&mut ctx, *fut, reply),
                HandlerKind::Timer(token) => behavior.on_timer(&mut ctx, *token),
            }
            ctx.effects
        };
        if let Some(act) = get_act(&mut self.procs, ao) {
            act.behavior = behavior;
        }
        let serve = !matches!(kind, HandlerKind::Start);
        self.apply_effects(ao, effects, serve);
    }

    fn apply_effects(&mut self, ao: AoId, effects: Vec<Effect>, serve: bool) {
        let mut compute_total = SimDuration::ZERO;
        let mut spawned: Vec<AoId> = Vec::new();
        for effect in effects {
            match effect {
                Effect::Compute(d) => compute_total = compute_total + d,
                Effect::Send {
                    to,
                    method,
                    payload_bytes,
                    refs,
                    future,
                    await_reply,
                } => {
                    #[cfg(debug_assertions)]
                    self.assert_holds_refs(ao, &refs, &spawned);
                    if let (Some(fut), true) = (future, await_reply) {
                        if let Some(act) = get_act(&mut self.procs, ao) {
                            act.waiting.insert(fut.seq);
                        }
                    }
                    self.dispatch_request(ao, to, method, payload_bytes, refs, future);
                }
                Effect::Reply {
                    future,
                    payload_bytes,
                    refs,
                } => {
                    #[cfg(debug_assertions)]
                    self.assert_holds_refs(ao, &refs, &spawned);
                    self.dispatch_reply(
                        ao,
                        Reply {
                            future,
                            payload_bytes,
                            refs,
                        },
                    );
                }
                Effect::Retain(target) => {
                    self.register_deserialized(ao, std::slice::from_ref(&target));
                }
                Effect::Release { target, all } => {
                    if let Some(act) = get_act(&mut self.procs, ao) {
                        if all {
                            act.stubs.release_all(target);
                        } else {
                            act.stubs.release(target);
                        }
                    }
                }
                Effect::Spawn { id, behavior } => {
                    spawned.push(id);
                    self.create_activity(id, behavior, false);
                    // The creator holds the first stub.
                    self.register_deserialized(ao, std::slice::from_ref(&id));
                }
                Effect::Timer { delay, token } => {
                    self.events
                        .schedule(self.now + delay, Event::AppTimer { ao, token });
                }
            }
        }
        if serve {
            if let Some(act) = get_act(&mut self.procs, ao) {
                act.pending_serves += 1;
                self.events
                    .schedule(self.now + compute_total, Event::ServeDone { ao });
            }
        }
    }

    #[cfg(debug_assertions)]
    fn assert_holds_refs(&mut self, ao: AoId, refs: &[AoId], spawned: &[AoId]) {
        if let Some(act) = get_act(&mut self.procs, ao) {
            for r in refs {
                assert!(
                    *r == ao || act.stubs.count(*r) > 0 || spawned.contains(r),
                    "{ao} sent a reference to {r} it does not hold"
                );
            }
        }
    }

    fn dispatch_request(
        &mut self,
        sender: AoId,
        to: AoId,
        method: u32,
        payload_bytes: u64,
        refs: Vec<AoId>,
        future: Option<FutureId>,
    ) {
        let request = Request {
            sender,
            method,
            payload_bytes,
            refs,
            future,
        };
        if sender.node == to.node {
            // Intra-process: free, instant, never lost.
            self.schedule_unit(
                self.now,
                ProcId(sender.node),
                OutUnit::Request { to, request },
            );
            return;
        }
        let size = request.wire_size();
        self.enqueue_unit(
            ProcId(sender.node),
            ProcId(to.node),
            EgressClass::AppRequest,
            size,
            OutUnit::Request { to, request },
        );
    }

    fn dispatch_reply(&mut self, sender: AoId, reply: Reply) {
        let to = reply.future.caller;
        if sender.node == to.node {
            self.schedule_unit(self.now, ProcId(sender.node), OutUnit::Reply { to, reply });
            return;
        }
        let size = reply.wire_size();
        self.enqueue_unit(
            ProcId(sender.node),
            ProcId(to.node),
            EgressClass::AppReply,
            size,
            OutUnit::Reply { to, reply },
        );
    }

    /// Per-call envelope for traffic that does not ride the egress
    /// plane (the RMI lease baseline keeps its one-invocation-per-unit
    /// accounting — it *is* the thing the egress plane is measured
    /// against).
    fn envelope(&self, from: AoId, to: AoId) -> u64 {
        if from.node == to.node {
            0
        } else {
            self.config.call_envelope
        }
    }

    // ------------------------------------------------------------------
    // Egress plane
    // ------------------------------------------------------------------

    /// Queues one **cross-process** unit on `from`'s egress outbox and
    /// realizes whatever the flush policy emits right now (always the
    /// unit itself under the default immediate policy; under a
    /// coalescing policy, background units linger for company and
    /// flush with the next app send or at `max_delay`). Same-process
    /// traffic never comes here — it is free, instant and unmetered.
    fn enqueue_unit(
        &mut self,
        from: ProcId,
        dest: ProcId,
        class: EgressClass,
        size: u64,
        unit: OutUnit,
    ) {
        debug_assert_ne!(from, dest, "same-process traffic bypasses egress");
        let now = crate::collector::proto_time(self.now);
        match self.outboxes[from.0 as usize].enqueue(now, dest.0, class, size, unit) {
            Some(flush) => self.realize_flush(from, flush),
            None => self.schedule_egress_wake(from),
        }
    }

    /// Schedules the [`Event::EgressFlush`] wake-up for `proc`'s next
    /// outbox deadline, unless an earlier one is already queued.
    fn schedule_egress_wake(&mut self, proc: ProcId) {
        let Some(deadline) = self.outboxes[proc.0 as usize].next_deadline() else {
            return;
        };
        let at = SimTime::from_nanos(deadline.as_nanos());
        match self.egress_wake[proc.0 as usize] {
            Some(t) if t <= at => {}
            _ => {
                self.egress_wake[proc.0 as usize] = Some(at);
                self.events.schedule(at, Event::EgressFlush { proc });
            }
        }
    }

    fn handle_egress_flush(&mut self, proc: ProcId) {
        self.egress_wake[proc.0 as usize] = None;
        let now = crate::collector::proto_time(self.now);
        let flushes = self.outboxes[proc.0 as usize].poll(now);
        for flush in flushes {
            self.realize_flush(proc, flush);
        }
        self.schedule_egress_wake(proc);
    }

    /// Turns one egress flush into a single network frame: each unit is
    /// metered under its own traffic class, the RMI call envelope is
    /// charged **once per frame** (and not at all for pure-gossip
    /// frames, which never paid one) — that shared envelope is the
    /// piggyback saving — and one drop decision covers the frame.
    /// Delivered units schedule their events at the frame's arrival;
    /// a dropped frame applies each unit's loss handling.
    fn realize_flush(&mut self, from: ProcId, flush: Flush<OutUnit>) {
        let to = ProcId(flush.dest);
        let units: Vec<(TrafficClass, u64)> = flush
            .items
            .iter()
            .map(|qi| (traffic_class(qi.class), qi.size))
            .collect();
        let envelope = if flush.items.iter().any(|qi| qi.class != EgressClass::Gossip) {
            self.config.call_envelope
        } else {
            0
        };
        match self.net.route_frame(self.now, from, to, &units, envelope) {
            Delivery::At(at) => {
                for qi in flush.items {
                    self.schedule_unit(at, from, qi.item);
                }
            }
            Delivery::Dropped => {
                for qi in flush.items {
                    self.drop_unit(qi.item, true);
                }
            }
        }
    }

    /// Schedules delivery of one unit at `at` (`from` is the sending
    /// process, needed by gossip events).
    fn schedule_unit(&mut self, at: SimTime, from: ProcId, unit: OutUnit) {
        match unit {
            OutUnit::Request { to, request } => {
                let key = self.next_inflight_key;
                self.next_inflight_key += 1;
                self.inflight_app.insert(
                    key,
                    InflightMessage {
                        to,
                        is_request: true,
                        refs: request.refs.clone(),
                    },
                );
                self.events
                    .schedule(at, Event::Request { key, to, request });
            }
            OutUnit::Reply { to, reply } => {
                let key = self.next_inflight_key;
                self.next_inflight_key += 1;
                self.inflight_app.insert(
                    key,
                    InflightMessage {
                        to,
                        is_request: false,
                        refs: reply.refs.clone(),
                    },
                );
                self.events.schedule(at, Event::ReplyMsg { key, to, reply });
            }
            OutUnit::Dgc { from, to, message } => {
                self.events
                    .schedule(at, Event::DgcMsg { from, to, message });
            }
            OutUnit::Resp { from, to, response } => {
                self.events
                    .schedule(at, Event::DgcResp { from, to, response });
            }
            OutUnit::Gossip { to, digest } => {
                self.events.schedule(at, Event::Gossip { from, to, digest });
            }
            OutUnit::AppBytes {
                from,
                to,
                reply,
                tenant,
                payload,
            } => {
                // The unit left the egress plane (or loopback-delivered
                // on the spot): flushed, for conservation purposes —
                // whatever happens to it now is in-flight semantics.
                self.ledger.on_flushed(tenant);
                self.events.schedule(
                    at,
                    Event::AppBytes {
                        from,
                        to,
                        reply,
                        tenant,
                        payload,
                    },
                );
            }
        }
    }

    /// The frame carrying `unit` was lost to a drop window (`flushed:
    /// true` — it had left the outbox) or the unit was reclaimed from
    /// an outbox queue before any flush (`flushed: false`): apply the
    /// unit's loss semantics. The flag only matters to the tenant
    /// ledger: a post-flush loss counts as flushed (the failure log is
    /// its record), a pre-flush reclaim is *returned* — exactly the
    /// socket runtime's split between send failures and
    /// `reclaim_egress`.
    fn drop_unit(&mut self, unit: OutUnit, flushed: bool) {
        match unit {
            OutUnit::Request { request, .. } => {
                // The call never arrives and no future will ever
                // resolve. The rendezvous phase is synchronous (§2), so
                // the caller observes the failed send rather than
                // waiting forever on a future that cannot be updated —
                // clear the wait registered by `apply_effects`. (The
                // oracle must not see the call as in flight either.)
                if let Some(fut) = request.future {
                    if let Some(act) = get_act(&mut self.procs, request.sender) {
                        act.waiting.remove(&fut.seq);
                    }
                }
            }
            OutUnit::Reply { to, reply } => {
                // Lost future update. §4.1 tolerates these for a
                // collected caller; a *live* caller must not wait
                // forever on an update that can no longer arrive.
                if let Some(act) = get_act(&mut self.procs, to) {
                    act.waiting.remove(&reply.future.seq);
                }
                self.refresh_idle(to);
            }
            OutUnit::AppBytes {
                from,
                to,
                reply,
                tenant,
                payload,
            } => {
                // Opaque payloads have no protocol to retry them: the
                // loss surfaces on the sender's failure log, never
                // silently.
                if flushed {
                    self.ledger.on_flushed(tenant);
                } else {
                    self.ledger.on_returned(tenant);
                }
                self.app_failures.push(AppDelivered {
                    at: self.now,
                    from,
                    to,
                    reply,
                    payload,
                });
            }
            // A dropped heartbeat/digest is what the fault profiles are
            // *for*: the next TTB/gossip round regenerates it.
            OutUnit::Dgc { .. } | OutUnit::Resp { .. } | OutUnit::Gossip { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // Collector plumbing
    // ------------------------------------------------------------------

    fn handle_tick(&mut self, ao: AoId) {
        enum Ticked {
            Dgc(SimDuration),
            Rmi(Vec<RmiAction>, SimDuration),
            None,
        }
        let now = self.now;
        let ticked = {
            let Some(act) = get_act(&mut self.procs, ao) else {
                return;
            };
            let idle = act.is_idle();
            match &mut act.collector {
                Collector::None => Ticked::None,
                Collector::Complete(s) => {
                    // The grid-held scratch/unit buffers make the tick
                    // allocation-free; the units drain right below.
                    s.on_tick_into(
                        proto_time(now),
                        idle,
                        &mut self.dgc_scratch,
                        &mut self.dgc_units,
                    );
                    let period = crate::collector::sim_dur(s.current_ttb());
                    Ticked::Dgc(period)
                }
                Collector::Rmi(e) => {
                    let actions = e.on_tick(proto_time(now), idle);
                    let period = crate::collector::sim_dur(e.config().lease.div(4));
                    Ticked::Rmi(actions, period)
                }
            }
        };
        match ticked {
            Ticked::None => {}
            Ticked::Dgc(period) => {
                let mut units = std::mem::take(&mut self.dgc_units);
                for unit in units.drain(..) {
                    self.apply_dgc_action(unit.from, unit.action);
                }
                self.dgc_units = units;
                if self.is_alive(ao) {
                    self.events.schedule(now + period, Event::Tick { ao });
                }
            }
            Ticked::Rmi(actions, period) => {
                self.apply_rmi_actions(ao, actions);
                if self.is_alive(ao) {
                    self.events.schedule(now + period, Event::Tick { ao });
                }
            }
        }
    }

    fn apply_dgc_actions(&mut self, ao: AoId, actions: Vec<Action>) {
        for action in actions {
            self.apply_dgc_action(ao, action);
        }
    }

    fn apply_dgc_action(&mut self, ao: AoId, action: Action) {
        match action {
            // Cross-process DGC traffic queues on the egress plane
            // (and is subject to loss there: a dropped heartbeat is
            // what the fault profiles are *for* — the next TTB
            // regenerates it; TTA decides whether that sufficed).
            // Intra-process units stay free, instant and lossless.
            Action::SendMessage { to, message } => {
                let unit = OutUnit::Dgc {
                    from: ao,
                    to,
                    message,
                };
                if ao.node == to.node {
                    self.schedule_unit(self.now, ProcId(ao.node), unit);
                } else {
                    self.enqueue_unit(
                        ProcId(ao.node),
                        ProcId(to.node),
                        EgressClass::DgcMessage,
                        dgc_wire::message_wire_size(),
                        unit,
                    );
                }
            }
            Action::SendResponse { to, response } => {
                let size = dgc_wire::response_wire_size(response.depth.is_some());
                let unit = OutUnit::Resp {
                    from: ao,
                    to,
                    response,
                };
                if ao.node == to.node {
                    self.schedule_unit(self.now, ProcId(ao.node), unit);
                } else {
                    self.enqueue_unit(
                        ProcId(ao.node),
                        ProcId(to.node),
                        EgressClass::DgcResponse,
                        size,
                        unit,
                    );
                }
            }
            Action::Terminate { reason } => {
                self.terminate_activity(ao, Some(reason));
            }
            _ => {}
        }
    }

    fn deliver_dgc_msg(&mut self, from: AoId, to: AoId, message: DgcMessage) {
        let now = self.now;
        let actions = {
            match get_act(&mut self.procs, to) {
                Some(act) => match &mut act.collector {
                    Collector::Complete(s) => Some(s.on_message(proto_time(now), &message)),
                    _ => None,
                },
                None => None,
            }
        };
        match actions {
            Some(actions) => self.apply_dgc_actions(to, actions),
            None => {
                // Target gone: the sender's connection fails.
                if let Some(sender) = get_act(&mut self.procs, from) {
                    if let Collector::Complete(s) = &mut sender.collector {
                        s.on_send_failure(to);
                    }
                }
            }
        }
    }

    fn deliver_dgc_resp(&mut self, from: AoId, to: AoId, response: DgcResponse) {
        let now = self.now;
        let actions = {
            match get_act(&mut self.procs, to) {
                Some(act) => {
                    let idle = act.is_idle();
                    match &mut act.collector {
                        Collector::Complete(s) => {
                            Some(s.on_response(proto_time(now), from, &response, idle))
                        }
                        _ => None,
                    }
                }
                None => None,
            }
        };
        if let Some(actions) = actions {
            self.apply_dgc_actions(to, actions);
        }
    }

    fn apply_rmi_actions(&mut self, ao: AoId, actions: Vec<RmiAction>) {
        for action in actions {
            match action {
                RmiAction::Send { to, message } => {
                    let size = rmi_wire::wire_size(&message) + self.envelope(ao, to);
                    if let Delivery::At(at) = self.net.route(
                        self.now,
                        ProcId(ao.node),
                        ProcId(to.node),
                        TrafficClass::RmiLease,
                        size,
                    ) {
                        self.events.schedule(
                            at,
                            Event::Rmi {
                                from: ao,
                                to,
                                message,
                            },
                        );
                    }
                }
                RmiAction::Terminate => {
                    self.terminate_activity(ao, Some(TerminateReason::Acyclic));
                }
            }
        }
    }

    fn deliver_rmi(&mut self, from: AoId, to: AoId, message: RmiMessage) {
        let now = self.now;
        let delivered = match get_act(&mut self.procs, to) {
            Some(act) => match &mut act.collector {
                Collector::Rmi(e) => {
                    e.on_message(proto_time(now), &message);
                    true
                }
                _ => false,
            },
            None => false,
        };
        if !delivered {
            if let Some(sender) = get_act(&mut self.procs, from) {
                if let Collector::Rmi(e) = &mut sender.collector {
                    e.on_send_failure(to);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Membership and churn
    // ------------------------------------------------------------------

    fn handle_membership_tick(&mut self, proc: ProcId) {
        let Some(m) = self.config.membership else {
            return;
        };
        let now = self.now;
        let outs = match &mut self.members[proc.0 as usize] {
            Some(engine) => engine.on_tick(proto_time(now)),
            // Crashed: this tick chain dies with the node; a rejoin
            // starts a fresh one.
            None => return,
        };
        self.flush_membership(proc, outs);
        // Half the gossip interval keeps failure detection responsive
        // without flooding the event queue.
        let half = SimDuration::from_nanos((m.gossip_interval.as_nanos() / 2).max(1));
        self.events
            .schedule(now + half, Event::MembershipTick { proc });
    }

    fn handle_gossip(&mut self, from: ProcId, to: ProcId, digest: Digest) {
        let now = self.now;
        let outs = match &mut self.members[to.0 as usize] {
            Some(engine) => engine.on_digest(proto_time(now), from.0, &digest),
            None => return, // down nodes hear nothing
        };
        self.flush_membership(to, outs);
    }

    /// Queues `proc`'s outgoing digests on its egress outbox (metered,
    /// droppable, delayed — and piggybacking — like any other traffic)
    /// and applies its freshly observed membership transitions: every
    /// **dead** verdict — and every announced graceful **leave**, the
    /// same departure without the suspicion delay — feeds the hosted
    /// collectors' send-failure path.
    fn flush_membership(&mut self, proc: ProcId, outs: Vec<GossipOut>) {
        for out in outs {
            let size = membership_wire::digest_wire_size(&out.digest);
            let dest = ProcId(out.to);
            self.enqueue_unit(
                proc,
                dest,
                EgressClass::Gossip,
                size,
                OutUnit::Gossip {
                    to: dest,
                    digest: out.digest,
                },
            );
        }
        let events = match &mut self.members[proc.0 as usize] {
            Some(engine) => engine.poll_events(),
            None => Vec::new(),
        };
        for ev in events {
            if matches!(ev.transition, Transition::Dead | Transition::Left) && ev.node != proc.0 {
                self.apply_node_dead(proc, ev.node);
                // Reclaim the departed node's egress queue — items,
                // bytes and flush deadline — and give every stranded
                // unit its loss semantics (a waiting caller is
                // released, a driver-level app payload surfaces on the
                // failure log) instead of letting the queue rot against
                // a corpse for the grid's lifetime.
                let stranded = self.outboxes[proc.0 as usize].drop_dest(ev.node);
                for qi in stranded {
                    self.drop_unit(qi.item, false);
                }
            }
            self.member_events[proc.0 as usize].push(ev);
        }
    }

    /// `observer`'s membership engine buried `dead`: every collector it
    /// hosts treats that node's referencers and referenced activities
    /// as departed (§4.1's send-failure path, in bulk).
    fn apply_node_dead(&mut self, observer: ProcId, dead: u32) {
        for act in self.procs[observer.0 as usize].values_mut() {
            if let Collector::Complete(s) = &mut act.collector {
                s.on_node_dead(dead);
            }
        }
        self.trace_event(TraceLevel::Info, "node-dead", || {
            format!("proc {} buried node {}", observer.0, dead)
        });
    }

    /// The fault plan's `NodeCrash` realization: every hosted activity
    /// dies **by crash** (`reason: None` in the collected log — the
    /// oracle must not judge the environment's kills as collector
    /// terminations), and the membership engine stops answering.
    fn handle_crash(&mut self, proc: ProcId) {
        let indices: Vec<u32> = self.procs[proc.0 as usize].keys().copied().collect();
        for idx in indices {
            self.terminate_activity(AoId::new(proc.0, idx), None);
        }
        self.members[proc.0 as usize] = None;
        // Whatever the crashed process had queued on its egress plane
        // dies with it (stale EgressFlush wake-ups find it empty) —
        // but the tenant ledger must still balance, so queued app
        // units are returned, not leaked into pending forever.
        let mut dead_outbox = std::mem::replace(
            &mut self.outboxes[proc.0 as usize],
            Outbox::new(self.config.egress),
        );
        for flush in dead_outbox.flush_all() {
            for qi in flush.items {
                if let OutUnit::AppBytes { tenant, .. } = qi.item {
                    self.ledger.on_returned(tenant);
                }
            }
        }
        self.egress_wake[proc.0 as usize] = None;
        self.trace_event(TraceLevel::Info, "crash", || {
            format!("proc {} went down", proc.0)
        });
    }

    /// Graceful departure of one process — the clean-shutdown path the
    /// engine's `leave()` exists for: its membership engine announces
    /// [`dgc_membership::NodeStatus::Left`], the farewell digests flush
    /// through the egress plane *immediately* (a leaver does not wait
    /// out a linger), every hosted activity dies with the process
    /// (environment kills, `reason: None` — not collections), and the
    /// engine stops. Peers treat the announced departure like a dead
    /// verdict for collection purposes — the leaver's referencers are
    /// gone — but without the suspicion delay.
    pub fn leave_proc(&mut self, proc: ProcId) {
        let now = crate::collector::proto_time(self.now);
        let outs = match &mut self.members[proc.0 as usize] {
            Some(engine) => engine.leave(now),
            None => Vec::new(),
        };
        self.flush_membership(proc, outs);
        let flushes = self.outboxes[proc.0 as usize].flush_all();
        for flush in flushes {
            self.realize_flush(proc, flush);
        }
        self.egress_wake[proc.0 as usize] = None;
        let indices: Vec<u32> = self.procs[proc.0 as usize].keys().copied().collect();
        for idx in indices {
            self.terminate_activity(AoId::new(proc.0, idx), None);
        }
        self.members[proc.0 as usize] = None;
        self.trace_event(TraceLevel::Info, "leave", || {
            format!("proc {} left gracefully", proc.0)
        });
    }

    /// Graceful teardown of the whole deployment: every live process
    /// [leaves](Grid::leave_proc) in turn, then the grid runs `grace`
    /// longer so the last farewells deliver to whoever is still
    /// listening. After this the simulation is over — every activity
    /// is dead (as environment kills, not collections).
    pub fn shutdown(&mut self, grace: SimDuration) {
        // One farewell must *land* before the next process goes, or a
        // simultaneous mass departure gossips into the void — so the
        // inter-leave gap covers the topology's worst link latency.
        let procs_n = self.procs.len() as u32;
        let mut max_latency = SimDuration::ZERO;
        for from in 0..procs_n {
            for to in 0..procs_n {
                if from != to {
                    max_latency =
                        max_latency.max(self.config.topology.latency(ProcId(from), ProcId(to)));
                }
            }
        }
        let gap = max_latency + SimDuration::from_millis(1);
        for p in 0..procs_n {
            if self.members[p as usize].is_some() || !self.procs[p as usize].is_empty() {
                self.leave_proc(ProcId(p));
                self.run_for(gap);
            }
        }
        self.run_for(grace);
    }

    /// The restart half of a `NodeCrash`: the process comes back empty
    /// under a fresh incarnation and re-bootstraps from the seeds (its
    /// higher incarnation supersedes the death record peers hold).
    fn handle_rejoin(&mut self, proc: ProcId, incarnation: u64) {
        let Some(m) = self.config.membership else {
            return;
        };
        let mut engine = new_member(&self.config, proc, incarnation, self.now, m);
        engine.set_obs(MembershipObs::new(&self.obs[proc.0 as usize]));
        self.members[proc.0 as usize] = Some(engine);
        self.events
            .schedule(self.now, Event::MembershipTick { proc });
        self.trace_event(TraceLevel::Info, "rejoin", || {
            format!("proc {} back as incarnation {}", proc.0, incarnation)
        });
    }

    fn handle_local_gc(&mut self, proc: ProcId) {
        let indices: Vec<u32> = self.procs[proc.0 as usize].keys().copied().collect();
        for idx in indices {
            let ao = AoId::new(proc.0, idx);
            let rmi_actions = {
                let Some(act) = get_act(&mut self.procs, ao) else {
                    continue;
                };
                let zeroed = act.stubs.sweep();
                if zeroed.is_empty() {
                    continue;
                }
                match &mut act.collector {
                    Collector::None => Vec::new(),
                    Collector::Complete(s) => {
                        for z in &zeroed {
                            s.on_stubs_collected(*z);
                        }
                        Vec::new()
                    }
                    Collector::Rmi(e) => {
                        let mut actions = Vec::new();
                        for z in &zeroed {
                            actions.extend(e.on_stubs_collected(*z));
                        }
                        actions
                    }
                }
            };
            self.apply_rmi_actions(ao, rmi_actions);
        }
        self.events.schedule(
            self.now + self.config.local_gc_period,
            Event::LocalGc { proc },
        );
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology the grid runs over.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// True if `ao` has not terminated.
    pub fn is_alive(&self, ao: AoId) -> bool {
        self.procs[ao.node as usize].contains_key(&ao.index)
    }

    /// Number of alive activities.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of alive **idle** activities.
    pub fn idle_count(&self) -> usize {
        self.idle_count
    }

    /// All terminations so far.
    pub fn collected(&self) -> &[CollectedRecord] {
        &self.collected
    }

    /// Oracle violations (must stay empty under safe parameters).
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }

    /// Requests that arrived after their target terminated.
    pub fn app_sends_to_dead(&self) -> u64 {
        self.app_sends_to_dead
    }

    /// Messages lost to the fault plan's drop windows.
    pub fn dropped_messages(&self) -> u64 {
        self.net.dropped_messages()
    }

    /// Global traffic meter.
    pub fn traffic(&self) -> &TrafficMeter {
        self.net.meter()
    }

    /// Resets the traffic meters (e.g. after deployment).
    pub fn reset_traffic(&mut self) {
        self.net.reset_meters();
    }

    /// Time-series samples (when sampling is enabled).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Process `proc`'s telemetry registry (virtual-time clock, shared
    /// trace ring): where its DGC endpoints, outbox and membership
    /// engine record.
    pub fn obs(&self, proc: ProcId) -> &Registry {
        &self.obs[proc.0 as usize]
    }

    /// Fleet-wide metric totals: every process's snapshot merged.
    pub fn obs_merged(&self) -> dgc_obs::Snapshot {
        self.obs
            .iter()
            .map(|r| r.snapshot())
            .fold(dgc_obs::Snapshot::default(), |acc, s| acc.merge(&s))
    }

    /// The grid's trace ring (shared by every process's registry);
    /// events are stamped in virtual nanoseconds
    /// (`SimTime::from_nanos(ev.at_nanos)`).
    pub fn trace(&self) -> &Tracer {
        &self.trace
    }

    /// Records a trace event stamped "now"; `detail` runs only when
    /// `level` passes the filter.
    fn trace_event(&self, level: TraceLevel, tag: &'static str, detail: impl FnOnce() -> String) {
        self.trace
            .event_with(self.now.as_nanos(), level, tag, detail);
    }

    /// Aggregated protocol counters: collected endpoints plus alive ones.
    pub fn dgc_stats(&self) -> DgcStats {
        let mut total = self.dgc_stats_collected;
        for proc in &self.procs {
            for act in proc.values() {
                if let Collector::Complete(s) = &act.collector {
                    total.merge(s.stats());
                }
            }
        }
        total
    }

    /// Immutable access to an activity (for tests).
    pub fn activity(&self, ao: AoId) -> Option<&Activity> {
        self.procs[ao.node as usize].get(&ao.index)
    }

    /// What `proc`'s egress outbox has flushed so far (frames, units,
    /// piggybacked counts).
    pub fn egress_stats(&self, proc: ProcId) -> dgc_core::egress::EgressStats {
        self.outboxes[proc.0 as usize].stats()
    }

    /// Membership transitions `proc` has observed so far (always empty
    /// when the layer is disabled).
    pub fn membership_events(&self, proc: ProcId) -> &[MembershipEvent] {
        &self.member_events[proc.0 as usize]
    }

    /// Snapshot of `proc`'s membership directory; `None` while the
    /// process is down or the layer is disabled.
    pub fn member_records(&self, proc: ProcId) -> Option<Vec<NodeRecord>> {
        self.members[proc.0 as usize].as_ref().map(|m| m.records())
    }

    /// True while `proc` is crashed (between a `NodeCrash`'s down start
    /// and its rejoin, if any).
    pub fn proc_is_down(&self, proc: ProcId) -> bool {
        self.config
            .fault_plan
            .profile()
            .crashed(proto_time(self.now), proc.0)
    }

    /// Builds an oracle snapshot of the current state.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for proc in &self.procs {
            for act in proc.values() {
                if act.is_root {
                    snap.roots.push(act.id);
                } else if !act.is_idle() {
                    snap.busy.push(act.id);
                }
                for t in act.stubs.held_targets() {
                    snap.edges.push((act.id, t));
                }
            }
        }
        snap.inflight = self.inflight_app.values().cloned().collect();
        snap
    }

    /// Alive activities the oracle deems garbage right now.
    pub fn garbage_remaining(&self) -> BTreeSet<AoId> {
        let snap = self.snapshot();
        let alive: BTreeSet<AoId> = self
            .procs
            .iter()
            .flat_map(|p| p.values().map(|a| a.id))
            .collect();
        garbage_set(&snap, &alive)
    }
}

fn get_act(procs: &mut [BTreeMap<u32, Activity>], ao: AoId) -> Option<&mut Activity> {
    procs.get_mut(ao.node as usize)?.get_mut(&ao.index)
}

fn event_proc(event: &Event) -> Option<ProcId> {
    match event {
        Event::Request { to, .. }
        | Event::ReplyMsg { to, .. }
        | Event::DgcMsg { to, .. }
        | Event::DgcResp { to, .. }
        | Event::Rmi { to, .. } => Some(ProcId(to.node)),
        Event::Tick { ao } | Event::ServeDone { ao } | Event::AppTimer { ao, .. } => {
            Some(ProcId(ao.node))
        }
        Event::AppBytes { to, .. } => Some(ProcId(to.node)),
        Event::LocalGc { proc } => Some(*proc),
        // A paused process gossips late (and gets suspected — that is
        // the §4.2 hazard, faithfully): these defer like its other work.
        Event::MembershipTick { proc } => Some(*proc),
        Event::Gossip { to, .. } => Some(*to),
        // A paused process flushes late too: a stalled node sends
        // nothing until the world resumes.
        Event::EgressFlush { proc } => Some(*proc),
        // Crash and restart are the *environment's* doing: they happen
        // on schedule even to a paused process.
        Event::NodeCrash { .. } | Event::NodeRejoin { .. } => None,
        Event::Sample => None,
    }
}

/// A freshly bootstrapped membership engine for `proc`: announces
/// itself under `incarnation` and knows only the configured seeds.
fn new_member(
    config: &GridConfig,
    proc: ProcId,
    incarnation: u64,
    now: SimTime,
    m: MembershipConfig,
) -> Membership {
    let mut engine = Membership::new(proc.0, None, incarnation, proto_time(now), m);
    for seed in &config.membership_seeds {
        if *seed != proc {
            engine.on_contact(proto_time(now), seed.0, None);
        }
    }
    engine
}

fn hash_id(id: AoId) -> u64 {
    (id.node as u64) << 32 | id.index as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Inert;
    use dgc_core::config::DgcConfig;
    use dgc_core::units::Dur;

    const PING: u32 = 1;

    fn dgc_cfg() -> DgcConfig {
        DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(61))
            .max_comm(Dur::from_millis(500))
            .build()
    }

    fn grid(collector: CollectorKind) -> Grid {
        let topo = Topology::single_site(4, SimDuration::from_millis(1));
        Grid::new(GridConfig::new(topo).collector(collector).seed(7))
    }

    /// Echoes every request back as a reply.
    struct Echo;
    impl Behavior for Echo {
        fn on_request(&mut self, ctx: &mut AoCtx<'_>, req: &Request) {
            ctx.compute(SimDuration::from_millis(5));
            if let Some(fut) = req.future {
                ctx.reply(fut, 8, vec![]);
            }
        }
    }

    /// Calls a target once at start and waits for the reply.
    struct CallOnce {
        target: AoId,
        got_reply: bool,
    }
    impl Behavior for CallOnce {
        fn on_timer(&mut self, ctx: &mut AoCtx<'_>, _token: u64) {
            ctx.call_await(self.target, PING, 16, vec![]);
        }
        fn on_reply(&mut self, _ctx: &mut AoCtx<'_>, _f: FutureId, _r: &Reply) {
            self.got_reply = true;
        }
    }

    #[test]
    fn spawn_and_idle_accounting() {
        let mut g = grid(CollectorKind::None);
        let a = g.spawn(ProcId(0), Box::new(Inert));
        let r = g.spawn_root(ProcId(1), Box::new(Inert));
        assert!(g.is_alive(a) && g.is_alive(r));
        assert_eq!(g.alive_count(), 2);
        assert_eq!(g.idle_count(), 1, "roots are never idle");
    }

    #[test]
    fn request_reply_round_trip() {
        let mut g = grid(CollectorKind::None);
        let echo = g.spawn_root(ProcId(0), Box::new(Echo));
        let caller = g.spawn_root(
            ProcId(1),
            Box::new(CallOnce {
                target: echo,
                got_reply: false,
            }),
        );
        g.make_ref(caller, echo);
        // Kick the caller via a timer effect from outside: reuse send_from
        // with a request that the Inert behavior ignores? CallOnce acts on
        // timers; schedule one through its own behavior API instead.
        g.events.schedule(
            g.now + SimDuration::from_millis(1),
            Event::AppTimer {
                ao: caller,
                token: 0,
            },
        );
        g.run_for(SimDuration::from_secs(1));
        // Round trip happened: traffic in both classes.
        assert!(g.traffic().bytes(TrafficClass::AppRequest) > 0);
        assert!(g.traffic().bytes(TrafficClass::AppReply) > 0);
    }

    #[test]
    fn waiting_on_future_keeps_activity_busy() {
        let mut g = grid(CollectorKind::None);
        let echo = g.spawn_root(ProcId(0), Box::new(Echo));
        let caller = g.spawn(
            ProcId(1),
            Box::new(CallOnce {
                target: echo,
                got_reply: false,
            }),
        );
        g.make_ref(caller, echo);
        g.events.schedule(
            g.now + SimDuration::from_millis(1),
            Event::AppTimer {
                ao: caller,
                token: 0,
            },
        );
        // Run to just after the call is sent but before the reply lands
        // (request at t=1ms, delivered t=2ms, reply lands t=3ms).
        g.run_until(SimTime::from_millis(2));
        let act = g.activity(caller).expect("alive");
        assert!(!act.is_idle(), "wait-by-necessity is busy");
        g.run_for(SimDuration::from_secs(1));
        let act = g.activity(caller).expect("alive");
        assert!(act.is_idle(), "reply arrived, back to idle");
    }

    #[test]
    fn dropped_awaited_request_releases_the_caller() {
        // A drop window swallows the only app request: the synchronous
        // rendezvous fails, so the caller must not stay busy forever
        // waiting on a future nothing will ever update.
        let profile = dgc_core::faults::FaultProfile::none().drop_frames(
            Some(1),
            Some(0),
            dgc_core::faults::Window::from_millis(0, 100),
            1000,
        );
        let topo = Topology::single_site(4, SimDuration::from_millis(1));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::None)
                .seed(7)
                .fault_profile(&profile),
        );
        let echo = g.spawn_root(ProcId(0), Box::new(Echo));
        let caller = g.spawn(
            ProcId(1),
            Box::new(CallOnce {
                target: echo,
                got_reply: false,
            }),
        );
        g.make_ref(caller, echo);
        g.events.schedule(
            g.now + SimDuration::from_millis(1),
            Event::AppTimer {
                ao: caller,
                token: 0,
            },
        );
        g.run_for(SimDuration::from_secs(1));
        assert!(g.dropped_messages() >= 1, "the request must be lost");
        let act = g.activity(caller).expect("alive");
        assert!(
            act.is_idle(),
            "a dropped request must not leave the caller waiting"
        );
    }

    #[test]
    fn dropped_awaited_reply_releases_the_caller() {
        // The mirror wedge: the request gets through, but the reply
        // crosses a drop window. The live caller must be released, not
        // left waiting forever on an update that can no longer arrive.
        let profile = dgc_core::faults::FaultProfile::none().drop_frames(
            Some(0),
            Some(1),
            dgc_core::faults::Window::from_millis(0, 100),
            1000,
        );
        let topo = Topology::single_site(4, SimDuration::from_millis(1));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::None)
                .seed(7)
                .fault_profile(&profile),
        );
        let echo = g.spawn_root(ProcId(0), Box::new(Echo));
        let caller = g.spawn(
            ProcId(1),
            Box::new(CallOnce {
                target: echo,
                got_reply: false,
            }),
        );
        g.make_ref(caller, echo);
        g.events.schedule(
            g.now + SimDuration::from_millis(1),
            Event::AppTimer {
                ao: caller,
                token: 0,
            },
        );
        g.run_for(SimDuration::from_secs(1));
        assert!(g.dropped_messages() >= 1, "the reply must be lost");
        assert!(
            g.traffic().bytes(TrafficClass::AppRequest) > 0,
            "the request itself got through"
        );
        let act = g.activity(caller).expect("alive");
        assert!(
            act.is_idle(),
            "a dropped reply must not leave the caller waiting"
        );
    }

    #[test]
    fn unreferenced_activity_is_collected_by_dgc() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.run_for(SimDuration::from_secs(200));
        assert!(!g.is_alive(a), "nothing references it");
        assert!(g.violations().is_empty());
        assert_eq!(g.collected().len(), 1);
        assert_eq!(g.collected()[0].reason, Some(TerminateReason::Acyclic));
    }

    #[test]
    fn referenced_activity_survives() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        let a = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(root, a);
        g.run_for(SimDuration::from_secs(400));
        assert!(g.is_alive(a), "root heartbeats keep it alive");
        assert!(g.violations().is_empty());
    }

    #[test]
    fn dropping_the_deployment_ref_collects() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        let a = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(root, a);
        g.run_for(SimDuration::from_secs(120));
        assert!(g.is_alive(a));
        g.drop_ref(root, a);
        g.run_for(SimDuration::from_secs(200));
        assert!(!g.is_alive(a));
        assert!(g.violations().is_empty());
    }

    #[test]
    fn distributed_cycle_is_collected() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn(ProcId(0), Box::new(Inert));
        let b = g.spawn(ProcId(1), Box::new(Inert));
        let c = g.spawn(ProcId(2), Box::new(Inert));
        g.make_ref(a, b);
        g.make_ref(b, c);
        g.make_ref(c, a);
        g.run_for(SimDuration::from_secs(600));
        assert_eq!(
            g.alive_count(),
            0,
            "idle 3-cycle across processes is garbage"
        );
        assert!(g.violations().is_empty());
        assert!(g
            .collected()
            .iter()
            .any(|c| matches!(c.reason, Some(r) if r.is_cyclic())));
    }

    #[test]
    fn cycle_referenced_by_root_survives() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        let a = g.spawn(ProcId(1), Box::new(Inert));
        let b = g.spawn(ProcId(2), Box::new(Inert));
        g.make_ref(a, b);
        g.make_ref(b, a);
        g.make_ref(root, a);
        g.run_for(SimDuration::from_secs(900));
        assert!(g.is_alive(a) && g.is_alive(b));
        assert!(g.violations().is_empty());
    }

    #[test]
    fn rmi_collects_acyclic_but_leaks_cycles() {
        let mut g = grid(CollectorKind::Rmi(dgc_rmi::endpoint::RmiConfig::default()));
        let lone = g.spawn(ProcId(0), Box::new(Inert));
        let a = g.spawn(ProcId(1), Box::new(Inert));
        let b = g.spawn(ProcId(2), Box::new(Inert));
        g.make_ref(a, b);
        g.make_ref(b, a);
        g.run_for(SimDuration::from_secs(600));
        assert!(!g.is_alive(lone), "acyclic garbage collected by leases");
        assert!(g.is_alive(a) && g.is_alive(b), "the cycle leaks under RMI");
        assert!(!g.garbage_remaining().is_empty());
    }

    #[test]
    fn no_collector_keeps_everything() {
        let mut g = grid(CollectorKind::None);
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.run_for(SimDuration::from_secs(600));
        assert!(g.is_alive(a));
        assert_eq!(
            g.traffic().total_bytes(),
            0,
            "no app, no collector: silence"
        );
    }

    #[test]
    fn kill_records_explicit_termination() {
        let mut g = grid(CollectorKind::None);
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.kill(a);
        assert!(!g.is_alive(a));
        assert_eq!(g.collected()[0].reason, None);
    }

    #[test]
    fn registry_roundtrip_and_unregister_collects() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.register("service", a);
        assert_eq!(g.lookup("service"), Some(a));
        g.run_for(SimDuration::from_secs(300));
        assert!(g.is_alive(a), "registered = root");
        g.unregister("service");
        g.run_for(SimDuration::from_secs(300));
        assert!(!g.is_alive(a), "unregistered and unreferenced");
        assert!(g.violations().is_empty());
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut g = grid(CollectorKind::Complete(dgc_cfg()));
            let _ = seed;
            let a = g.spawn(ProcId(0), Box::new(Inert));
            let b = g.spawn(ProcId(1), Box::new(Inert));
            g.make_ref(a, b);
            g.make_ref(b, a);
            g.run_for(SimDuration::from_secs(500));
            (g.collected().len(), g.traffic().total_bytes(), g.now())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn total_heartbeat_loss_defeats_tta_and_the_oracle_sees_it() {
        use dgc_core::faults::{FaultProfile, Window};
        // Every DGC message from 0 to 1 is lost for 200 s — far beyond
        // TTA(61 s) — so the referenced activity times out while its
        // busy root still holds it: the §4.2 wrongful collection,
        // triggered by drops instead of delays.
        let profile = FaultProfile::none().seeded(1).drop_frames(
            Some(0),
            Some(1),
            Window::from_millis(0, 200_000),
            1000,
        );
        let topo = Topology::single_site(2, SimDuration::from_millis(1));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::Complete(dgc_cfg()))
                .seed(7)
                .fault_profile(&profile),
        );
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        let a = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(root, a);
        g.run_for(SimDuration::from_secs(150));
        assert!(!g.is_alive(a), "silence beyond TTA must collect");
        assert!(g.dropped_messages() > 0);
        assert_eq!(
            g.violations().len(),
            1,
            "collecting a root-referenced activity is wrongful"
        );
    }

    #[test]
    fn set_busy_pins_and_releases() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.set_busy(a, true);
        g.run_for(SimDuration::from_secs(300));
        assert!(g.is_alive(a), "pinned busy: never garbage");
        g.set_busy(a, false);
        g.run_for(SimDuration::from_secs(300));
        assert!(!g.is_alive(a), "released and unreferenced: collected");
        assert!(g.violations().is_empty());
    }

    #[test]
    fn set_busy_does_not_disturb_root_status() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.register("svc", a);
        g.set_busy(a, true);
        g.set_busy(a, false); // releasing the pin must not unregister
        g.run_for(SimDuration::from_secs(300));
        assert!(g.is_alive(a), "registered activities are never collected");
        assert_eq!(g.lookup("svc"), Some(a));
        assert!(g.violations().is_empty());
    }

    #[test]
    fn membership_converges_from_seed_only_knowledge() {
        use dgc_membership::NodeStatus;
        let topo = Topology::single_site(3, SimDuration::from_millis(2));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .seed(5)
                .membership(MembershipConfig::scaled(dgc_core::units::Dur::from_secs(1))),
        );
        g.run_for(SimDuration::from_secs(30));
        for p in 0..3 {
            let records = g.member_records(ProcId(p)).expect("engine up");
            assert_eq!(records.len(), 3, "proc {p} directory incomplete");
            assert!(
                records.iter().all(|r| r.status == NodeStatus::Alive),
                "proc {p} holds non-alive records: {records:?}"
            );
        }
        assert!(
            g.traffic().bytes(TrafficClass::Gossip) > 0,
            "gossip must be metered"
        );
        // Nodes 1 and 2 knew only the seed: each must have observed the
        // other *join* through it.
        assert!(g
            .membership_events(ProcId(2))
            .iter()
            .any(|e| e.node == 1 && e.transition == dgc_membership::Transition::Joined));
    }

    #[test]
    fn crashed_proc_is_buried_and_a_rejoin_incarnation_recovers() {
        use dgc_core::faults::{FaultProfile, Window};
        use dgc_membership::{NodeStatus, Transition};
        // Crash proc 2 at t=20 s, restart it at t=60 s as incarnation 2.
        let profile = FaultProfile::none().crash(2, Window::from_millis(20_000, 60_000), Some(2));
        let topo = Topology::single_site(3, SimDuration::from_millis(2));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .seed(5)
                .membership(MembershipConfig::scaled(dgc_core::units::Dur::from_secs(1)))
                .fault_profile(&profile),
        );
        g.run_for(SimDuration::from_secs(45));
        assert!(g.proc_is_down(ProcId(2)));
        assert!(g.member_records(ProcId(2)).is_none(), "down engine gone");
        for p in 0..2 {
            let records = g.member_records(ProcId(p)).expect("engine up");
            let dead = records.iter().find(|r| r.node == 2).expect("known");
            assert_eq!(dead.status, NodeStatus::Dead, "proc {p} view: {records:?}");
            assert!(g
                .membership_events(ProcId(p))
                .iter()
                .any(|e| e.node == 2 && e.transition == Transition::Dead));
        }
        // After the rejoin, everyone converges back to alive, and the
        // survivors see the *new* incarnation supersede the corpse.
        g.run_for(SimDuration::from_secs(45));
        assert!(!g.proc_is_down(ProcId(2)));
        for p in 0..3 {
            let records = g.member_records(ProcId(p)).expect("engine up");
            let back = records.iter().find(|r| r.node == 2).expect("known");
            assert_eq!(back.status, NodeStatus::Alive, "proc {p} view: {records:?}");
            assert_eq!(back.incarnation, 2, "proc {p} must adopt the rejoin");
        }
        assert!(g
            .membership_events(ProcId(0))
            .iter()
            .any(|e| e.node == 2 && e.incarnation == 2 && e.transition == Transition::Alive));
    }

    #[test]
    fn crash_kills_activities_and_the_dgc_cleans_up_after_the_node() {
        use dgc_core::faults::{FaultProfile, Window};
        // w (proc 2, busy) holds u (proc 1, idle); proc 2 crashes for
        // good at t=50 s. u must then fall — but only as *correct*
        // collection (its ground-truth referencer died in the crash) —
        // while v, held by a live root, must survive the churn.
        let profile = FaultProfile::none().crash(2, Window::from_millis(50_000, 50_000), None);
        let topo = Topology::single_site(3, SimDuration::from_millis(2));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::Complete(dgc_cfg()))
                .seed(7)
                .membership(MembershipConfig::scaled(dgc_core::units::Dur::from_secs(1)))
                .fault_profile(&profile),
        );
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        let v = g.spawn(ProcId(1), Box::new(Inert));
        let w = g.spawn(ProcId(2), Box::new(Inert));
        let u = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(root, v);
        g.set_busy(w, true);
        g.make_ref(w, u);
        g.run_for(SimDuration::from_secs(300));
        assert!(g.is_alive(v), "root-held activity must survive the crash");
        assert!(!g.is_alive(u), "orphaned by the crash: must be collected");
        assert!(!g.is_alive(w), "died in the crash");
        assert!(
            g.collected()
                .iter()
                .any(|c| c.ao == w && c.reason.is_none()),
            "crash deaths are kills, not collections: {:?}",
            g.collected()
        );
        assert!(
            g.violations().is_empty(),
            "no wrongful collection under churn: {:?}",
            g.violations()
        );
    }

    /// Fires one `send` (no reply) at the target every period, forever.
    struct PeriodicSender {
        target: AoId,
        period: SimDuration,
    }
    impl Behavior for PeriodicSender {
        fn on_start(&mut self, ctx: &mut AoCtx<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, ctx: &mut AoCtx<'_>, _token: u64) {
            ctx.send(self.target, PING, 64, vec![]);
            ctx.set_timer(self.period, 0);
        }
    }

    /// Runs the same workload — steady app traffic p0 → p1 plus 8
    /// cross-process DGC referencers — under a given egress policy and
    /// returns (total bytes, dgc bytes, piggybacked units).
    fn egress_workload(policy: dgc_core::egress::FlushPolicy) -> (u64, u64, u64) {
        let topo = Topology::single_site(2, SimDuration::from_millis(1));
        let mut config = GridConfig::new(topo)
            .collector(CollectorKind::Complete(dgc_cfg()))
            .seed(11)
            .egress(policy);
        // Synchronized TTB sweeps, so co-due heartbeats can share a
        // frame (the socket runtime's event loop co-schedules them the
        // same way).
        config.tick_jitter = false;
        let mut g = Grid::new(config);
        let sink = g.spawn_root(ProcId(1), Box::new(Echo));
        let pinger = g.spawn_root(
            ProcId(0),
            Box::new(PeriodicSender {
                target: sink,
                period: SimDuration::from_millis(400),
            }),
        );
        g.make_ref(pinger, sink);
        // 8 referencers on p0 heartbeating activities on p1 forever.
        for _ in 0..8 {
            let holder = g.spawn_root(ProcId(0), Box::new(Inert));
            let target = g.spawn(ProcId(1), Box::new(Inert));
            g.make_ref(holder, target);
        }
        g.run_for(SimDuration::from_secs(600));
        (
            g.traffic().total_bytes(),
            g.traffic().dgc_bytes(),
            g.egress_stats(ProcId(0)).piggybacked,
        )
    }

    #[test]
    fn coalescing_egress_piggybacks_heartbeats_and_saves_envelopes() {
        let (imm_total, imm_dgc, imm_piggy) =
            egress_workload(dgc_core::egress::FlushPolicy::immediate());
        assert_eq!(imm_piggy, 0, "immediate policy never piggybacks");
        // Coalesce with a window wide enough that co-scheduled TTB
        // heartbeats to the same peer share one frame (and one
        // envelope) even without app traffic to ride on.
        let policy = dgc_core::egress::FlushPolicy {
            flush_on_app: true,
            max_delay: dgc_core::units::Dur::from_millis(5),
            max_bytes: 64 * 1024,
            max_items: 4096,
        };
        let (co_total, co_dgc, _) = egress_workload(policy);
        assert!(
            co_dgc < imm_dgc,
            "shared frames must shed per-heartbeat envelopes: {co_dgc} vs {imm_dgc}"
        );
        assert!(
            co_total < imm_total,
            "coalescing must reduce total bytes: {co_total} vs {imm_total}"
        );
        // The protocol outcome is identical either way: nothing was
        // collected (all roots / referenced), in both runs.
    }

    #[test]
    fn app_sends_flush_immediately_and_carry_queued_heartbeats() {
        // A policy with an *enormous* background linger: heartbeats
        // would wait 10 s — unless app traffic flushes them out. The
        // referenced activity on p1 survives on heartbeats alone, which
        // proves they rode the app frames well before their own
        // deadline.
        let policy = dgc_core::egress::FlushPolicy {
            flush_on_app: true,
            max_delay: dgc_core::units::Dur::from_secs(10),
            max_bytes: u64::MAX,
            max_items: usize::MAX,
        };
        let topo = Topology::single_site(2, SimDuration::from_millis(1));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::Complete(dgc_cfg()))
                .seed(3)
                .egress(policy),
        );
        let sink = g.spawn_root(ProcId(1), Box::new(Echo));
        let pinger = g.spawn_root(
            ProcId(0),
            Box::new(PeriodicSender {
                target: sink,
                // Well under TTB = 30 s: every heartbeat finds a ride.
                period: SimDuration::from_secs(5),
            }),
        );
        g.make_ref(pinger, sink);
        let holder = g.spawn_root(ProcId(0), Box::new(Inert));
        let kept = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(holder, kept);
        g.run_for(SimDuration::from_secs(300));
        assert!(
            g.is_alive(kept),
            "heartbeats must piggyback on app frames instead of rotting in the outbox"
        );
        assert!(g.violations().is_empty());
        assert!(
            g.egress_stats(ProcId(0)).piggybacked > 0,
            "the ride must be visible in the egress stats"
        );
    }

    #[test]
    fn driver_level_app_plane_delivers_in_order_and_is_metered() {
        use dgc_simnet::traffic::TrafficClass;
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn_root(ProcId(0), Box::new(Inert));
        let b = g.spawn_root(ProcId(1), Box::new(Inert));
        for seq in 0u64..20 {
            g.send_app(a, b, false, seq.to_be_bytes().to_vec());
        }
        g.send_app(b, a, true, vec![0xFF; 8]);
        g.run_for(SimDuration::from_secs(1));
        let delivered = g.drain_app_received();
        assert_eq!(delivered.len(), 21);
        let seqs: Vec<u64> = delivered
            .iter()
            .filter(|d| !d.reply)
            .map(|d| u64::from_be_bytes(d.payload.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(seqs, (0u64..20).collect::<Vec<u64>>(), "FIFO per class");
        assert!(delivered.iter().any(|d| d.reply && d.to == a));
        assert!(g.traffic().bytes(TrafficClass::AppRequest) >= 20 * 8);
        assert!(g.traffic().bytes(TrafficClass::AppReply) >= 8);
        assert!(g.drain_app_received().is_empty(), "drained");
        // Idleness untouched: the app plane is opaque to the collector.
        assert!(g.violations().is_empty());
    }

    #[test]
    fn departed_peer_egress_queue_is_reclaimed_on_the_left_verdict() {
        // Heartbeats toward proc 1 linger under an hour-long background
        // delay; when proc 1 leaves, the observer's Left transition
        // must reclaim its queue (items, bytes, deadline) and the
        // stranded units must get their loss semantics — the simnet
        // twin of the rt-net leak regression.
        let policy = dgc_core::egress::FlushPolicy {
            flush_on_app: true,
            max_delay: dgc_core::units::Dur::from_secs(3600),
            max_bytes: u64::MAX,
            max_items: usize::MAX,
        };
        let topo = Topology::single_site(2, SimDuration::from_millis(2));
        // Suspicion timings far beyond the test horizon: with gossip
        // lingering behind the hour-long delay, silence is expected —
        // only the scripted *leave* may produce the departure verdict.
        let membership = MembershipConfig {
            gossip_interval: dgc_core::units::Dur::from_secs(1),
            suspect_after: dgc_core::units::Dur::from_secs(100_000),
            dead_after: dgc_core::units::Dur::from_secs(200_000),
            full_sync_every: 4,
        };
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::Complete(dgc_cfg()))
                .seed(9)
                .membership(membership)
                .egress(policy),
        );
        // Converge membership by riding app traffic (gossip alone would
        // wait out the hour): both directions pump for a while.
        let a = g.spawn_root(ProcId(0), Box::new(Inert));
        let b = g.spawn_root(ProcId(1), Box::new(Inert));
        for _ in 0..40 {
            g.send_app(a, b, false, vec![1]);
            g.send_app(b, a, false, vec![2]);
            g.run_for(SimDuration::from_millis(500));
        }
        assert!(
            g.member_records(ProcId(0)).is_some_and(|r| r.len() == 2),
            "app-carried gossip must converge the directories"
        );
        // Phase 2: no more rides; heartbeats toward proc 1 accumulate.
        // The target stays pinned busy: with its heartbeats starved
        // behind the hour linger it would otherwise (correctly) fall to
        // TTA expiry, which is not what this test is about.
        let holder = g.spawn_root(ProcId(0), Box::new(Inert));
        let kept = g.spawn(ProcId(1), Box::new(Inert));
        g.set_busy(kept, true);
        g.make_ref(holder, kept);
        g.run_for(SimDuration::from_secs(90)); // a few TTB rounds
        let before = g.egress_stats(ProcId(0));
        assert!(
            before.enqueued_items > before.items + before.dropped_items,
            "heartbeats should be lingering: {before:?}"
        );
        g.leave_proc(ProcId(1));
        g.run_for(SimDuration::from_secs(10));
        let after = g.egress_stats(ProcId(0));
        assert!(after.dropped_items > 0, "queue reclaimed: {after:?}");
        assert_eq!(
            after.enqueued_items,
            after.items + after.dropped_items,
            "nothing may stay queued for the departed peer: {after:?}"
        );
        assert!(g.violations().is_empty(), "{:?}", g.violations());
    }

    #[test]
    fn app_unit_to_a_departed_proc_surfaces_on_the_failure_log() {
        let topo = Topology::single_site(2, SimDuration::from_millis(2));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .seed(4)
                .membership(MembershipConfig::scaled(dgc_core::units::Dur::from_secs(1))),
        );
        let a = g.spawn_root(ProcId(0), Box::new(Inert));
        let b = g.spawn_root(ProcId(1), Box::new(Inert));
        g.run_for(SimDuration::from_secs(20)); // converge
        g.leave_proc(ProcId(1));
        g.run_for(SimDuration::from_secs(5));
        g.send_app(a, b, false, b"too late".to_vec());
        g.run_for(SimDuration::from_secs(5));
        assert!(g.drain_app_received().is_empty(), "nobody home");
        assert!(
            g.app_send_failures()
                .iter()
                .any(|f| f.payload == b"too late"),
            "the undeliverable unit must surface, not vanish: {:?}",
            g.app_send_failures()
        );
    }

    #[test]
    fn graceful_leave_buries_the_leaver_and_orphans_fall_as_correct_collection() {
        use dgc_membership::NodeStatus;
        // w (proc 2, busy) holds u (proc 1, idle); proc 2 *leaves*
        // gracefully at t = 50 s. Unlike a crash, peers learn at once
        // through the Left verdict — no suspicion timeout — and u must
        // fall as correct collection while root-held v survives.
        let topo = Topology::single_site(3, SimDuration::from_millis(2));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .collector(CollectorKind::Complete(dgc_cfg()))
                .seed(7)
                .membership(MembershipConfig::scaled(dgc_core::units::Dur::from_secs(1))),
        );
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        let v = g.spawn(ProcId(1), Box::new(Inert));
        let w = g.spawn(ProcId(2), Box::new(Inert));
        let u = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(root, v);
        g.set_busy(w, true);
        g.make_ref(w, u);
        g.run_for(SimDuration::from_secs(50));
        assert!(g.is_alive(u), "held by busy w until the leave");
        g.leave_proc(ProcId(2));
        // The farewell delivers promptly; every survivor records Left.
        g.run_for(SimDuration::from_secs(5));
        for p in 0..2 {
            let records = g.member_records(ProcId(p)).expect("engine up");
            let gone = records.iter().find(|r| r.node == 2).expect("known");
            assert_eq!(gone.status, NodeStatus::Left, "proc {p}: {records:?}");
            assert!(g
                .membership_events(ProcId(p))
                .iter()
                .any(|e| e.node == 2 && e.transition == Transition::Left));
        }
        g.run_for(SimDuration::from_secs(245));
        assert!(g.is_alive(v), "root-held activity must survive the leave");
        assert!(!g.is_alive(u), "orphaned by the leave: must be collected");
        assert!(
            g.collected()
                .iter()
                .any(|c| c.ao == w && c.reason.is_none()),
            "leave deaths are kills, not collections: {:?}",
            g.collected()
        );
        assert!(g.violations().is_empty(), "{:?}", g.violations());
    }

    #[test]
    fn shutdown_drives_graceful_leave_everywhere() {
        let topo = Topology::single_site(3, SimDuration::from_millis(2));
        let mut g = Grid::new(
            GridConfig::new(topo)
                .seed(5)
                .membership(MembershipConfig::scaled(dgc_core::units::Dur::from_secs(1))),
        );
        let a = g.spawn(ProcId(0), Box::new(Inert));
        g.run_for(SimDuration::from_secs(20)); // converge membership
        g.shutdown(SimDuration::from_secs(2));
        assert!(!g.is_alive(a), "teardown kills every activity");
        assert_eq!(g.alive_count(), 0);
        assert!(
            g.collected().iter().all(|c| c.reason.is_none()),
            "teardown deaths are environment kills"
        );
        // Later leavers heard the earlier farewells before going.
        assert!(g
            .membership_events(ProcId(2))
            .iter()
            .any(|e| e.node == 0 && e.transition == Transition::Left));
    }

    #[test]
    fn run_until_clean_reports_success() {
        let mut g = grid(CollectorKind::Complete(dgc_cfg()));
        let a = g.spawn(ProcId(0), Box::new(Inert));
        let b = g.spawn(ProcId(1), Box::new(Inert));
        g.make_ref(a, b);
        g.make_ref(b, a);
        let clean = g.run_until_clean(SimDuration::from_secs(30), SimTime::from_secs(1_000));
        assert!(clean);
        assert_eq!(g.alive_count(), 0);
    }

    #[test]
    fn tenant_isolation_rejects_cross_tenant_app_and_refs() {
        let mut g = grid(CollectorKind::None);
        g.set_pipeline(Pipeline::standard());
        let a = g.spawn_root(ProcId(0), Box::new(Inert));
        let b = g.spawn_root(ProcId(1), Box::new(Inert));
        let c = g.spawn_root(ProcId(2), Box::new(Inert));
        g.set_tenant(a, TenantId(1));
        g.set_tenant(b, TenantId(1));
        g.set_tenant(c, TenantId(2));
        // Same tenant crosses; cross-tenant dies before the egress plane.
        g.send_app(a, b, false, b"in".to_vec());
        g.send_app(a, c, false, b"out".to_vec());
        g.run_for(SimDuration::from_secs(1));
        let inbox = g.drain_app_received();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].to, b);
        let t1 = g.tenant_counters(TenantId(1));
        assert_eq!(t1.enqueued, 1);
        assert_eq!(t1.flushed, 1);
        assert_eq!(t1.rejected_outgoing, 1);
        assert_eq!(t1.pending(), 0);
        // A cross-tenant reference is refused too: b never holds c, so
        // no TTB sweep can cross the boundary through this edge.
        g.make_ref(b, c);
        assert_eq!(g.tenant_counters(TenantId(1)).rejected_outgoing, 2);
        // The same counts read fleet-wide from the merged registries.
        let snap = g.obs_merged();
        assert_eq!(snap.counter("tenant.1.app_enqueued"), 1);
        assert_eq!(snap.counter("tenant.1.app_rejected_out"), 2);
    }

    #[test]
    fn rogue_proc_with_wrong_key_cannot_inject_app_units() {
        let key = AuthKey::from_secret("grid-secret");
        let topo = Topology::single_site(3, SimDuration::from_millis(1));
        let mut g = Grid::new(GridConfig::new(topo).seed(7).auth(key));
        g.set_pipeline(Pipeline::standard());
        let honest = g.spawn_root(ProcId(0), Box::new(Inert));
        let victim = g.spawn_root(ProcId(1), Box::new(Inert));
        let rogue = g.spawn_root(ProcId(2), Box::new(Inert));
        g.set_proc_key(ProcId(2), Some(AuthKey::from_secret("guessed-wrong")));
        g.send_app(honest, victim, false, b"trusted".to_vec());
        g.send_app(rogue, victim, false, b"forged".to_vec());
        g.run_for(SimDuration::from_secs(1));
        let inbox = g.drain_app_received();
        assert_eq!(inbox.len(), 1, "only the authenticated link delivers");
        assert_eq!(inbox[0].payload, b"trusted");
        let t0 = g.tenant_counters(TenantId::DEFAULT);
        assert_eq!(t0.rejected_incoming, 1, "the forgery died at delivery");
        assert_eq!(t0.enqueued, t0.flushed, "ledger still balances");
        // Loopback on the rogue proc itself still works: auth gates
        // links, and a process always trusts itself.
        g.send_app(rogue, rogue, false, b"local".to_vec());
        g.run_for(SimDuration::from_secs(1));
        assert_eq!(g.drain_app_received().len(), 1);
    }
}
