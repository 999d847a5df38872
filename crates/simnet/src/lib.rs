//! # dgc-simnet — deterministic discrete-event grid simulator
//!
//! This crate is the hardware substrate of the reproduction of *"Garbage
//! Collecting the Grid: A Complete DGC for Activities"* (Caromel,
//! Chazarain, Henrio — Middleware 2007). The paper evaluates its
//! distributed garbage collector on a 128-node, three-site slice of
//! Grid'5000; this crate replaces that physical testbed with a
//! deterministic simulator:
//!
//! * [`time`] — virtual nanosecond clock ([`SimTime`], [`SimDuration`]);
//! * [`queue`] — deterministic event queue with stable tie-breaking;
//! * [`topology`] — sites and processes, including the exact Grid'5000
//!   preset of the paper (§5.1) via [`Topology::grid5000`];
//! * [`network`] — reliable FIFO per-pair links with realistic latencies
//!   and per-class byte metering (the paper's instrumented SOCKS proxy);
//! * [`traffic`] — the meters themselves;
//! * [`fault`] — link-delay and process-pause injection for the hard
//!   real-time discussion of §4.2;
//! * [`rng`] — seeded, forkable randomness so every run is reproducible.
//!
//! Higher layers (`dgc-activeobj`) build the active-object middleware and
//! the DGC driver on top of these pieces.
//!
//! ## Example
//!
//! ```
//! use dgc_simnet::{Network, ProcId, SimTime, Topology, TrafficClass};
//!
//! let mut net = Network::new(Topology::grid5000());
//! // A 1 KiB application request from Bordeaux to Sophia:
//! let delivered = net.send(
//!     SimTime::ZERO,
//!     ProcId(0),
//!     ProcId(49),
//!     TrafficClass::AppRequest,
//!     1024,
//! );
//! assert!(delivered > SimTime::ZERO);
//! assert_eq!(net.meter().total_bytes(), 1024);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod network;
pub mod queue;
pub mod rng;
pub mod time;
pub mod topology;
pub mod traffic;

pub use fault::{FaultPlan, LinkDrop, LinkFault, LinkPartition, ProcessPause};
pub use network::{Delivery, Network};
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{ProcId, Site, SiteId, Topology};
pub use traffic::{format_mib, TrafficClass, TrafficMeter};

/// Trace verbosity for grid configurations; events land in a
/// [`dgc_obs::Tracer`] ring stamped with [`SimTime`] nanoseconds.
pub use dgc_obs::TraceLevel;
