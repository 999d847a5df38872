//! The secure multi-tenant plane, conformance-checked on both runtimes.
//!
//! One two-tenant deployment, replayed on the deterministic grid and on
//! a real TCP cluster with link authentication enabled:
//!
//! * tenant 1 hosts a cross-node garbage cycle that must be collected;
//! * tenant 2 hosts a busy root holding a live worker that must stay;
//! * the script *attempts* cross-tenant references and app sends — all
//!   of which both runtimes must reject, or tenant 2's busy root would
//!   pin tenant 1's cycle and its verdict would diverge from the
//!   single-tenant ground truth;
//! * per-tenant app accounting must conserve
//!   (`enqueued = flushed + returned + pending`) on every node;
//! * on sockets, a node without the deployment key cannot join or
//!   inject frames (`net.auth_rejects` says so).
//!
//! Each tenant's verdict is checked with [`evaluate`] against the
//! scenario containing **only that tenant's script** — isolation means
//! a tenant's DGC outcome is exactly what it would have been alone.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dgc_activeobj::activity::Inert;
use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::runtime::{Grid, GridConfig};
use dgc_activeobj::{AuthKey, Pipeline, TenantCounters, TenantId};
use dgc_conformance::scenarios::conformance_dgc;
use dgc_conformance::{evaluate, Observation, Op, Scenario, ScriptOp, Verdict};
use dgc_core::faults::FaultProfile;
use dgc_core::id::AoId;
use dgc_core::units::{Dur, Time};
use dgc_rt_net::{Cluster, NetConfig};
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::{ProcId, Topology};

const TENANT_ONE: TenantId = TenantId(1);
const TENANT_TWO: TenantId = TenantId(2);

/// Tags 0, 1 are tenant 1; tags 2, 3 are tenant 2.
fn tenant_of(tag: usize) -> TenantId {
    if tag < 2 {
        TENANT_ONE
    } else {
        TENANT_TWO
    }
}

fn at_ms(ms: u64, op: Op) -> ScriptOp {
    ScriptOp {
        at: Time::from_nanos(ms * 1_000_000),
        op,
    }
}

/// The full two-tenant script, cross-tenant attacks included. Both
/// runtimes replay *this*; the ground truth each tenant is judged
/// against is its [`single_tenant_scenario`] filtration.
fn full_script() -> Vec<ScriptOp> {
    vec![
        // Tenant 1: a cross-node cycle, busy until 300 ms.
        at_ms(
            0,
            Op::Spawn {
                tag: 0,
                node: 0,
                busy: true,
            },
        ),
        at_ms(
            0,
            Op::Spawn {
                tag: 1,
                node: 1,
                busy: true,
            },
        ),
        at_ms(0, Op::AddRef { from: 0, to: 1 }),
        at_ms(0, Op::AddRef { from: 1, to: 0 }),
        // Tenant 2: a busy root on node 0 holding a worker on node 1.
        at_ms(
            0,
            Op::Spawn {
                tag: 2,
                node: 0,
                busy: true,
            },
        ),
        at_ms(
            0,
            Op::Spawn {
                tag: 3,
                node: 1,
                busy: true,
            },
        ),
        at_ms(0, Op::AddRef { from: 2, to: 3 }),
        // The attacks: tenant 2's immortal root grabbing at tenant 1's
        // cycle (would pin it forever), and tenant 1 grabbing back.
        // Both must be refused by the plane.
        at_ms(100, Op::AddRef { from: 2, to: 1 }),
        at_ms(100, Op::AddRef { from: 0, to: 3 }),
        // Tenant 1 finishes its work; tenant 2's worker idles but stays
        // referenced by the busy root.
        at_ms(300, Op::SetIdle { tag: 0, idle: true }),
        at_ms(300, Op::SetIdle { tag: 1, idle: true }),
        at_ms(300, Op::SetIdle { tag: 3, idle: true }),
    ]
}

/// What `tenant`'s deployment would look like **alone**: only its own
/// spawns, idleness flips and intra-tenant references. Cross-tenant
/// references do not exist in any single-tenant world — which is
/// exactly the claim isolation makes about the multi-tenant one.
fn single_tenant_scenario(tenant: TenantId) -> Scenario {
    let script: Vec<ScriptOp> = full_script()
        .into_iter()
        .filter(|s| match s.op {
            Op::Spawn { tag, .. } | Op::SetIdle { tag, .. } => tenant_of(tag) == tenant,
            Op::AddRef { from, to } | Op::DropRef { from, to } => {
                tenant_of(from) == tenant && tenant_of(to) == tenant
            }
            Op::Leave { .. } => true,
        })
        .collect();
    Scenario {
        name: if tenant == TENANT_ONE {
            "two-tenant/tenant-1"
        } else {
            "two-tenant/tenant-2"
        },
        nodes: 2,
        dgc: conformance_dgc(),
        script,
        profile: FaultProfile::none(),
        membership: None,
        horizon: Dur::from_secs(4),
        expect: Verdict::SAFE_AND_COMPLETE,
    }
}

/// Splits observations by tenant and checks each against its
/// single-tenant ground truth. Tenant 1's cycle must fall; tenant 2
/// must lose nothing.
fn check_verdicts(runtime: &str, observations: &[Observation]) {
    for tenant in [TENANT_ONE, TENANT_TWO] {
        let scenario = single_tenant_scenario(tenant);
        let own: Vec<Observation> = observations
            .iter()
            .copied()
            .filter(|o| tenant_of(o.tag) == tenant)
            .collect();
        let verdict = evaluate(&scenario, &own);
        assert_eq!(
            verdict, scenario.expect,
            "{runtime}: tenant {tenant} diverged from its single-tenant \
             ground truth (observations: {own:?})"
        );
    }
    assert!(
        observations.iter().all(|o| tenant_of(o.tag) == TENANT_ONE),
        "{runtime}: tenant 2 lost an activity: {observations:?}"
    );
    assert_eq!(
        observations
            .iter()
            .filter(|o| tenant_of(o.tag) == TENANT_ONE)
            .count(),
        2,
        "{runtime}: tenant 1's cycle was not fully collected: {observations:?}"
    );
}

fn check_conservation(runtime: &str, snapshot: &[(TenantId, TenantCounters)]) {
    for (tenant, c) in snapshot {
        assert!(
            c.enqueued >= c.flushed + c.returned,
            "{runtime}: tenant {tenant} over-accounted: {c:?}"
        );
        assert_eq!(
            c.pending(),
            0,
            "{runtime}: tenant {tenant} still has app units in flight at \
             quiescence: {c:?}"
        );
    }
}

#[test]
fn two_tenants_agree_with_their_single_tenant_ground_truths_on_simnet() {
    let key = AuthKey::from_secret("conformance-deployment");
    let topo = Topology::single_site(2, SimDuration::from_millis(2));
    let mut grid = Grid::new(
        GridConfig::new(topo)
            .collector(CollectorKind::Complete(conformance_dgc()))
            .seed(42)
            .auth(key),
    );
    grid.set_pipeline(Pipeline::standard());
    let mut ids: BTreeMap<usize, AoId> = BTreeMap::new();
    let mut app_sent = false;
    for s in full_script() {
        grid.run_until(SimTime::from_nanos(s.at.as_nanos()));
        if !app_sent && s.at >= Time::from_nanos(150_000_000) {
            send_app_mix(&mut grid, &ids);
            app_sent = true;
        }
        match s.op {
            Op::Spawn { tag, node, busy } => {
                let id = grid.spawn(ProcId(node), Box::new(Inert));
                grid.set_tenant(id, tenant_of(tag));
                if busy {
                    grid.set_busy(id, true);
                }
                ids.insert(tag, id);
            }
            Op::SetIdle { tag, idle } => grid.set_busy(ids[&tag], !idle),
            Op::AddRef { from, to } => grid.make_ref(ids[&from], ids[&to]),
            Op::DropRef { from, to } => grid.drop_ref(ids[&from], ids[&to]),
            Op::Leave { node } => grid.leave_proc(ProcId(node)),
        }
    }
    grid.run_until(SimTime::from_secs(4));

    let by_id: BTreeMap<AoId, usize> = ids.iter().map(|(t, id)| (*id, *t)).collect();
    let observations: Vec<Observation> = grid
        .collected()
        .iter()
        .filter(|c| c.reason.is_some())
        .map(|c| Observation {
            at: Time::from_nanos(c.at.as_nanos()),
            tag: by_id[&c.ao],
        })
        .collect();
    check_verdicts("simnet", &observations);
    assert!(grid.violations().is_empty(), "{:?}", grid.violations());

    // The in-tenant payloads arrived; the cross-tenant one died at the
    // pipeline and is visible as a rejection on tenant 1's ledger.
    let inbox = grid.drain_app_received();
    assert_eq!(inbox.len(), 2, "one payload per tenant: {inbox:?}");
    let t1 = grid.tenant_counters(TENANT_ONE);
    assert_eq!(t1.enqueued, 1);
    assert_eq!(t1.flushed, 1);
    // One rejected app send plus the rejected 0→3 reference.
    assert_eq!(t1.rejected_outgoing, 2);
    let t2 = grid.tenant_counters(TENANT_TWO);
    // The rejected 2→1 reference.
    assert_eq!(t2.rejected_outgoing, 1);
    check_conservation("simnet", &grid.tenant_snapshot());
}

/// At 150 ms both runners fire the same app traffic: one in-tenant
/// payload per tenant (must arrive) and one cross-tenant forgery (must
/// die at the sender's pipeline).
fn send_app_mix(grid: &mut Grid, ids: &BTreeMap<usize, AoId>) {
    grid.send_app(ids[&0], ids[&1], false, b"tenant-1 payload".to_vec());
    grid.send_app(ids[&2], ids[&3], false, b"tenant-2 payload".to_vec());
    grid.send_app(ids[&0], ids[&3], false, b"cross-tenant forgery".to_vec());
}

#[test]
fn two_tenants_agree_with_their_single_tenant_ground_truths_on_rtnet() {
    let key = AuthKey::from_secret("conformance-deployment");
    let cluster = Cluster::listen_local(2, NetConfig::new(conformance_dgc()).auth(key))
        .expect("bind authenticated cluster");
    for node in 0..2 {
        cluster.set_pipeline(node, Pipeline::standard());
    }
    let epoch = cluster.epoch();
    let mut ids: BTreeMap<usize, AoId> = BTreeMap::new();
    let mut app_sent = false;
    for s in full_script() {
        let target = Duration::from_nanos(s.at.as_nanos());
        let elapsed = epoch.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
        if !app_sent && s.at >= Time::from_nanos(150_000_000) {
            cluster.send_app(ids[&0], ids[&1], false, b"tenant-1 payload".to_vec());
            cluster.send_app(ids[&2], ids[&3], false, b"tenant-2 payload".to_vec());
            cluster.send_app(ids[&0], ids[&3], false, b"cross-tenant forgery".to_vec());
            app_sent = true;
        }
        match s.op {
            Op::Spawn { tag, node, busy } => {
                let id = cluster.add_activity(node);
                cluster.set_tenant(id, tenant_of(tag));
                if !busy {
                    cluster.set_idle(id, true);
                }
                ids.insert(tag, id);
            }
            Op::SetIdle { tag, idle } => cluster.set_idle(ids[&tag], idle),
            Op::AddRef { from, to } => cluster.add_ref(ids[&from], ids[&to]),
            Op::DropRef { from, to } => cluster.drop_ref(ids[&from], ids[&to]),
            Op::Leave { node } => cluster.leave_node(node),
        }
    }

    // Tenant 1's cycle must fall; give the real clock generous room.
    let by_id: BTreeMap<AoId, usize> = ids.iter().map(|(t, id)| (*id, *t)).collect();
    let mut first_seen: BTreeMap<usize, Time> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    while first_seen.len() < 2 && Instant::now() < deadline {
        for t in cluster.terminated() {
            if let Some(tag) = by_id.get(&t.ao) {
                first_seen
                    .entry(*tag)
                    .or_insert_with(|| Time::from_nanos(epoch.elapsed().as_nanos() as u64));
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let any late (wrongful) termination of tenant 2 surface too.
    std::thread::sleep(Duration::from_millis(600));
    for t in cluster.terminated() {
        if let Some(tag) = by_id.get(&t.ao) {
            first_seen
                .entry(*tag)
                .or_insert_with(|| Time::from_nanos(epoch.elapsed().as_nanos() as u64));
        }
    }
    let observations: Vec<Observation> = first_seen
        .iter()
        .map(|(tag, at)| Observation { at: *at, tag: *tag })
        .collect();
    check_verdicts("rt-net", &observations);

    // App plane: each node delivered exactly its in-tenant payload, and
    // nothing crossed the boundary.
    let delivered = cluster.app_received(1);
    assert_eq!(
        delivered.len(),
        2,
        "node 1 hosts both receivers: {delivered:?}"
    );
    assert!(delivered
        .iter()
        .all(|d| d.payload != b"cross-tenant forgery"));
    // Per-tenant conservation on every node.
    for node in 0..2 {
        let snap = cluster
            .tenant_snapshot(node)
            .expect("tenant snapshot answered");
        check_conservation("rt-net", &snap);
    }
    let t1 = cluster.tenant_snapshot(0).unwrap();
    let counters = |snap: &[(TenantId, TenantCounters)], t: TenantId| {
        snap.iter()
            .find(|(id, _)| *id == t)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    };
    assert_eq!(counters(&t1, TENANT_ONE).enqueued, 1);
    assert_eq!(counters(&t1, TENANT_ONE).flushed, 1);
    assert_eq!(counters(&t1, TENANT_ONE).rejected_outgoing, 2);
    assert_eq!(counters(&t1, TENANT_TWO).rejected_outgoing, 1);
    let merged = cluster.obs_merged();
    assert_eq!(merged.counter("tenant.1.app_enqueued"), 1);
    assert_eq!(merged.counter("tenant.1.app_rejected_out"), 2);

    // An outsider without the deployment key cannot join or inject: it
    // introduces itself, skips the handshake, and fires a batch — the
    // node must reject the link before any item is processed.
    {
        use dgc_rt_net::frame::{encode_batch_frame, encode_frame, Frame, Item, PROTOCOL_VERSION};
        use std::io::Write;
        let mut rogue = std::net::TcpStream::connect(cluster.addr(1)).unwrap();
        let hello = encode_frame(&Frame::Hello {
            node: 99,
            version: PROTOCOL_VERSION,
        });
        let batch = encode_batch_frame(&[Item::App {
            from: AoId::new(99, 0),
            to: ids[&3],
            reply: false,
            tenant: TENANT_TWO.0,
            payload: b"injected".to_vec().into(),
        }]);
        rogue.write_all(&[hello, batch].concat()).unwrap();
        rogue.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.stats()[1].auth_rejects == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            cluster.stats()[1].auth_rejects >= 1,
            "the keyless outsider was not rejected: {:?}",
            cluster.stats()[1]
        );
        assert!(
            cluster
                .app_received(1)
                .iter()
                .all(|d| d.payload != b"injected"),
            "an unauthenticated frame reached the app plane"
        );
        assert!(merged.counter("net.auth_ok") >= 1, "peers did authenticate");
    }
    cluster.shutdown();
}
