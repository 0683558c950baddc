//! # pardis-net — network transport for PARDIS
//!
//! The paper ran PARDIS over NexusLite on a dedicated 155 Mb/s ATM link
//! (LAN Emulation) between two SGI machines. This crate supplies the
//! equivalent substrate for a reproduction that runs in one process:
//!
//! * a [`Fabric`] of named [`Host`]s — one per simulated machine — with
//!   numbered **ports** ([`Host::open_port`]); every computing thread of
//!   an SPMD object can open its own port, which is what enables the
//!   paper's *multi-port* argument transfer (§3.3),
//! * a shared, **rate-limited [`link::Link`]** joining the hosts: traffic
//!   is chopped into ATM-style frames, concurrent senders interleave at
//!   frame granularity, and the sender blocks for the wire time of each
//!   frame — NexusLite's effectively-synchronous large sends (§3.1),
//! * [`giop`] — a GIOP-like message layer (request, reply, data-transfer
//!   fragment, locate) encoded with `pardis-cdr`,
//! * [`ior`] — interoperable-object-reference-style [`ior::ObjectRef`]s
//!   that carry the object's request port **and the data port of every
//!   computing thread** plus registered distribution templates, so a
//!   client can compute data routing locally.
//!
//! Bandwidth limiting is optional: tests run with an infinite-rate link,
//! the figure-4 runtime benchmark configures the ATM-like rate.

pub mod conn;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod giop;
pub mod ior;
pub mod link;

pub use error::{NetError, NetResult};
pub use fabric::{Fabric, Host, HostId, PortId, PortRecv};
pub use fault::{FaultPlan, FaultStats, ThreadDeath};
pub use ior::{DistSpec, ObjectRef};
pub use link::{Link, LinkSpec, LinkStats};
pub use pardis_cdr::Frame;

/// A datagram delivered to a port: source addressing plus payload.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sending host.
    pub src_host: HostId,
    /// Port on the sending host that identifies the conversation (0 if
    /// the sender does not expect a reply).
    pub src_port: PortId,
    /// Message payload: the frame as sent, segments and all.
    pub payload: pardis_cdr::Frame,
    /// Earliest wall-clock instant the datagram may be handed to the
    /// receiver (models one-way propagation latency without blocking
    /// the sender).
    pub deliver_at: std::time::Instant,
}
