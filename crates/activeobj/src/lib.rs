//! # dgc-activeobj — active-object middleware over the simulated grid
//!
//! The ProActive-style substrate of the reproduction (§2, §4.1 of the
//! paper): activities with request queues and transparent futures,
//! stub-based remote references obeying the **no-sharing** property, a
//! simulated local collector detecting dead stub tags, a registry, and a
//! deterministic grid runtime that drives the pluggable distributed
//! collectors (`dgc-core`'s complete DGC — in the same node kernel the
//! socket and thread runtimes run — `dgc-rmi`'s lease baseline, or
//! none).
//!
//! * [`activity`] — [`activity::Behavior`] (application logic),
//!   [`activity::AoCtx`] (effects), idleness rules;
//! * [`request`] — asynchronous requests, replies, futures;
//! * [`localgc`] — per-activity stub tables and sweeps (§2.2 tags);
//! * [`collector`] — which collector a grid runs;
//! * [`runtime`] — [`runtime::Grid`]: the deterministic driver;
//! * [`oracle`] — ground-truth liveness (equation (1)) for safety and
//!   liveness assertions;
//! * [`process_mode`] — the §4.1 process-graph coarse-grained driver.
//!
//! ## Example
//!
//! ```
//! use dgc_activeobj::activity::Inert;
//! use dgc_activeobj::collector::CollectorKind;
//! use dgc_activeobj::runtime::{Grid, GridConfig};
//! use dgc_core::config::DgcConfig;
//! use dgc_core::units::Dur;
//! use dgc_simnet::time::SimDuration;
//! use dgc_simnet::topology::{ProcId, Topology};
//!
//! let cfg = DgcConfig::builder()
//!     .ttb(Dur::from_secs(30))
//!     .tta(Dur::from_secs(61))
//!     .build();
//! let topo = Topology::single_site(2, SimDuration::from_millis(1));
//! let mut grid = Grid::new(GridConfig::new(topo).collector(CollectorKind::Complete(cfg)));
//! let a = grid.spawn(ProcId(0), Box::new(Inert));
//! let b = grid.spawn(ProcId(1), Box::new(Inert));
//! grid.make_ref(a, b);
//! grid.make_ref(b, a); // an idle distributed cycle: garbage
//! grid.run_for(SimDuration::from_secs(600));
//! assert_eq!(grid.alive_count(), 0);
//! assert!(grid.violations().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod collector;
pub mod localgc;
pub mod oracle;
pub mod process_mode;
pub mod request;
pub mod runtime;

pub use activity::{Activity, AoCtx, Behavior, Inert, SpawnAlloc};
pub use collector::CollectorKind;
pub use dgc_plane::{AuthKey, Pipeline, TenantCounters, TenantId};
pub use oracle::{garbage_set, live_set, InflightMessage, SafetyViolation, Snapshot};
pub use request::{FutureId, Reply, Request};
pub use runtime::{AppDelivered, CollectedRecord, Grid, GridConfig, Sample};
