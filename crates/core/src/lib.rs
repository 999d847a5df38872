//! # dgc-core — a complete distributed garbage collector for activities
//!
//! Sans-io implementation of the DGC of *"Garbage Collecting the Grid: A
//! Complete DGC for Activities"* (Caromel, Chazarain, Henrio — Middleware
//! 2007): a distributed garbage collector for active objects that collects
//! **both acyclic and cyclic** garbage with the per-edge cost profile of
//! the Java/RMI collector.
//!
//! ## The algorithm in one paragraph
//!
//! An activity `x` is garbage iff every activity in the reflexive
//! transitive closure of its *referencers* is idle (equation (1)).
//! Acyclic garbage is found by **reference listing with heartbeats**:
//! referencers send a DGC message every TTB; an idle activity without a
//! message for TTA terminates (§3.1), and a referencer that lets go says
//! farewell, which ends that wait sooner (see `DESIGN.md`). Cyclic garbage is found by a
//! **consensus on a named Lamport "final activity clock"** carried by
//! those same heartbeats: responses propose the candidate, a reverse
//! spanning tree (children point to parents, respecting firewalls/NATs)
//! funnels the referencers' agreement back to the clock's owner, and the
//! owner — idle, with every recursive referencer agreeing — terminates
//! the cycle (§3.2). The clock is bumped whenever an activity becomes
//! idle, loses a referencer, or loses a referenced edge, which serialises
//! the race between collection and the mutating application.
//!
//! ## Crate layout
//!
//! * [`protocol::DgcState`] — the state machine (Algorithms 1–4);
//! * [`kernel::NodeKernel`] — everything one node hosts: the activity
//!   table, the TTB timers and the DGC dispatch every host (socket
//!   runtime, thread runtime, [`harness`]) drives instead of owning;
//! * [`clock::NamedClock`] — the named Lamport clock;
//! * [`message`] — DGC messages/responses and the [`message::Action`]s a
//!   runtime executes;
//! * [`wire`] — the binary codec whose byte counts feed the bandwidth
//!   benchmarks;
//! * [`config::DgcConfig`] — TTB/TTA (safety: `TTA > 2·TTB + MaxComm`),
//!   the §4.3 consensus-propagation optimization, and the paper's §7
//!   extensions (adaptive timing, breadth-first spanning trees);
//! * [`egress`] — the one egress plane: a per-destination outbox that
//!   coalesces heartbeats, gossip digests and application traffic into
//!   shared frames under a flush policy (flush-on-app-send, max-delay,
//!   max-bytes), realized by both runtimes;
//! * [`faults`] — runtime-neutral fault profiles (delay / drop /
//!   partition / pause) that both the simulator and the socket runtime's
//!   chaos proxy replay, so one scenario exercises the §4.2 bound
//!   everywhere;
//! * [`referencers`] / [`referenced`] — the two §2.2 tables;
//! * [`process_graph`] — the §4.1 coarse-grained fallback;
//! * [`harness`] — an in-memory multi-endpoint driver for tests.
//!
//! ## Example: a two-activity garbage cycle
//!
//! ```
//! use dgc_core::config::DgcConfig;
//! use dgc_core::harness::Harness;
//! use dgc_core::units::Dur;
//!
//! let cfg = DgcConfig::builder()
//!     .ttb(Dur::from_secs(30))
//!     .tta(Dur::from_secs(61))
//!     .build();
//! let mut h = Harness::new(Dur::from_millis(10));
//! let a = h.add(cfg);
//! let b = h.add(cfg);
//! h.add_ref(a, b);
//! h.add_ref(b, a);       // a ⇄ b: a distributed cycle
//! h.set_idle(a, true);
//! h.set_idle(b, true);   // … of idle activities: garbage
//! h.run_for(Dur::from_secs(600));
//! assert!(!h.alive(a) && !h.alive(b));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod config;
pub mod egress;
pub mod faults;
pub mod harness;
pub mod id;
pub mod kernel;
pub mod message;
pub mod process_graph;
pub mod protocol;
pub mod referenced;
pub mod referencers;
pub mod stats;
pub mod sweep;
pub mod telemetry;
pub mod units;
pub mod wire;

pub use clock::NamedClock;
pub use config::{DgcConfig, DgcConfigBuilder, ParentPolicy, TimingMode};
pub use egress::{EgressClass, EgressObs, EgressStats, Flush, FlushPolicy, FlushReason, Outbox};
pub use faults::{FaultKind, FaultProfile, LinkDisruption, NodeCrash, NodePause, Window};
pub use id::{AoId, AoIdAllocator};
pub use kernel::{NodeKernel, Terminated};
pub use message::{Action, DgcFarewell, DgcMessage, DgcResponse, TerminateReason};
pub use process_graph::ProcessGraph;
pub use protocol::{DgcState, Phase};
pub use stats::{ClockBumpReason, DgcStats};
pub use sweep::{sweep_sharded, ActionSink, SweepPools, SweepScratch, SweepUnit};
pub use telemetry::DgcObs;
pub use units::{Dur, Time};
