//! # pardis-core — the PARDIS ORB
//!
//! A Rust implementation of **PARDIS** (Keahey & Gannon, *PARDIS: A
//! Parallel Approach to CORBA*, HPDC 1997): CORBA-style middleware whose
//! object model is extended with **SPMD objects** — objects backed by a
//! set of computing threads visible to the request broker — and
//! **distributed sequences**, argument structures whose elements live in
//! the address spaces of those threads.
//!
//! ## The pieces
//!
//! * [`orb::OrbCtx`] — one computing thread's handle on the ORB
//!   (initialization is collective across a machine's threads),
//! * [`server::Servant`] + serve loops — the server-side object model;
//!   a request is satisfied only when delivered to *all* computing
//!   threads,
//! * [`client::Proxy`] — `_bind` / `_spmd_bind` and blocking or
//!   future-returning invocations,
//! * [`dseq::DSequence`] — the `dsequence` argument type with blockwise
//!   and proportional distribution templates ([`dist::DistTempl`],
//!   [`dist::Proportions`]), length semantics, redistribution, and
//!   location-transparent element access,
//! * [`transfer`] — the phases of an invocation, each written once,
//!   and the two routes a thread's block of a distributed argument
//!   takes in the transfer methods the paper evaluates
//!   ([`transfer::centralized`], [`transfer::multiport`]),
//! * [`naming::NameService`] — the naming domain behind binding,
//! * [`world::World`] — a harness that stands up client and server
//!   machines around a shared (optionally rate-limited) link.
//!
//! ## A complete round trip
//!
//! ```
//! use pardis_core::prelude::*;
//! use pardis_cdr::Decode;
//!
//! struct Echo;
//! impl Servant for Echo {
//!     fn type_id(&self) -> &str { "IDL:echo:1.0" }
//!     fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
//!         let x = i32::decode(&mut req.args()).map_err(PardisError::from)?;
//!         req.set_result(|w| { w.put_i32(x * 2); Ok(()) })
//!     }
//! }
//!
//! let world = World::new(LinkSpec::unlimited());
//! let server = world.spawn_machine("server", 2, |ctx| {
//!     ctx.register("echo", Box::new(Echo), vec![]).unwrap();
//!     ctx.serve_forever().unwrap();
//! });
//! let client = world.spawn_machine("client", 1, |ctx| {
//!     let proxy = ctx.bind("echo", None, Some("IDL:echo:1.0")).unwrap();
//!     let mut spec = RequestSpec::simple("double");
//!     let mut w = pardis_cdr::CdrWriter::new(ctx.endian());
//!     w.put_i32(21);
//!     spec.nondist_body = w.into_shared();
//!     let reply = proxy.invoke(&ctx, spec).unwrap();
//!     let mut r = pardis_cdr::CdrReader::new(&reply.nondist_body, ctx.endian());
//!     let doubled = i32::decode(&mut r).unwrap();
//!     ctx.send_shutdown(proxy.objref()).unwrap();
//!     doubled
//! });
//! assert_eq!(client.join(), vec![42]);
//! server.join();
//! ```

#[cfg(feature = "analyze")]
pub mod analyze;
pub mod client;
pub mod dist;
pub mod dseq;
pub mod error;
pub mod future;
pub mod naming;
#[cfg(feature = "obs")]
mod obs;
pub mod orb;
#[cfg(feature = "analyze")]
pub mod race;
pub mod request;
pub mod server;
pub mod transfer;
pub mod world;

pub use client::{PendingInvoke, Proxy, RetryPolicy};
pub use dist::{DistTempl, Proportions};
pub use dseq::{DSequence, Elem};
pub use error::{PardisError, PardisResult};
pub use future::PardisFuture;
pub use naming::NameService;
pub use orb::{DegradePolicy, OrbCtx, OrbOptions};
#[cfg(feature = "analyze")]
pub use race::{AccessKind, RaceReport};
pub use request::{ArgDir, DistArgSend, InvokeTiming, ReplyResult, RequestSpec};
pub use server::{DistIn, Servant, ServerRequest};
pub use world::{MachineHandle, World};

/// One-stop imports for applications and generated stubs.
pub mod prelude {
    pub use crate::client::{Proxy, RetryPolicy};
    pub use crate::dist::{DistTempl, Proportions};
    pub use crate::dseq::{DSequence, Elem};
    pub use crate::error::{PardisError, PardisResult};
    pub use crate::future::PardisFuture;
    pub use crate::orb::{DegradePolicy, OrbCtx, OrbOptions};
    pub use crate::request::{ArgDir, InvokeTiming, ReplyResult, RequestSpec};
    pub use crate::server::{Servant, ServerRequest};
    pub use crate::world::World;
    pub use pardis_net::giop::TransferMode;
    pub use pardis_net::{DistSpec, LinkSpec};
}
