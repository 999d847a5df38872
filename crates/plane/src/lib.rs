//! # dgc-plane — the secure multi-tenant plane
//!
//! The paper's DGC assumes a trusted LAN of cooperating runtimes; a
//! service carrying traffic for many users does not get that luxury.
//! This crate is the runtime-neutral policy layer both runtimes share:
//!
//! * [`auth`] — a **pre-shared-key HMAC challenge/response handshake**
//!   (sans-io, like the protocol core): a link is authenticated before
//!   any frame item crosses it. `dgc-rt-net` drives it over sockets at
//!   the `Hello` seam; the simulator models the same key check at the
//!   envelope layer. Primitives are the vendored `hmac` shim (SHA-256 +
//!   HMAC + constant-time compare — no crates.io in this build).
//! * [`envelope`] — a **middleware pipeline** over app-plane
//!   [`Envelope`]s, the way harmony runs every protocol through one
//!   `PipelineExecutor`: incoming and outgoing stages (authenticate,
//!   tenant-tag, isolate, transform, reject) written once, enforced on
//!   sockets and in the simulator alike.
//! * [`tenant`] — **tenant isolation and accounting**: a [`TenantId`]
//!   woven through the app plane, a [`TenantMap`] of activity
//!   ownership, and a [`TenantLedger`] whose per-tenant counters obey
//!   the egress plane's conservation law (enqueued = flushed +
//!   returned + pending) and live in the node's `dgc-obs` registry
//!   under `tenant.<id>.*`.
//!
//! Everything here is sans-io and deterministic: no sockets, no clocks,
//! no randomness (nonces are injected by the runtimes).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auth;
pub mod envelope;
pub mod tenant;

pub use auth::{AuthError, AuthKey, AuthMsg, Authenticator, Step, MAC_LEN, NONCE_LEN};
pub use envelope::{
    Envelope, FnStage, Middleware, MiddlewareCtx, Pipeline, RequireAuth, TenantIsolation,
    TenantTag, Verdict,
};
pub use tenant::{TenantCounters, TenantId, TenantLedger, TenantMap};
