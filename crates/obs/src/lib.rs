//! # pardis-obs — observability for the PARDIS ORB
//!
//! A PARDIS invocation is *collective*: one logical request fans out
//! across N computing threads, two transfer methods, and (under
//! faults) membership epochs. This crate makes that fan-out visible
//! without changing it:
//!
//! * [`span`] — a [`span::SpanContext`] (trace id, parent span, rank,
//!   epoch) that rides a GIOP service-context slot, so the server's
//!   per-rank spans link under the client's invocation root;
//! * [`recorder`] — per-rank span logs. Every record carries the
//!   rank's causal stamp ([`pardis_rts::clock::ClockWitness`]) and a
//!   per-rank sequence number, so a seeded run's log replays
//!   **bit-for-bit** (wall-clock durations are carried but quarantined
//!   in one volatile field);
//! * [`metrics`] — per-rank counters and fixed-bucket histograms whose
//!   hot path is lock-free (atomics in the rank's block), exported as
//!   deterministic JSON snapshots;
//! * [`timeline`] — merges per-rank span logs into one causally
//!   ordered cross-rank timeline, flags stragglers, and diffs two
//!   traces of the same seed. The `pardis-trace` binary is its CLI.
//!
//! Both spans and metrics live in one per-rank block, bound once per
//! computing thread by [`init_rank`] and cleared by [`reset`].
//!
//! This crate is a reader: the ORB records each fact once, in the
//! layer that owns it (phase timing in `InvokeTiming`, collective
//! counts in the RTS endpoint, epochs in the stamp witness), and its
//! `obs` hooks copy those records here. The crate is pure mechanism
//! and carries no feature gates of its own.

pub mod json;
pub mod metrics;
mod rank;
pub mod recorder;
pub mod span;
pub mod timeline;

pub use metrics::snapshot_json;
pub use rank::{init_rank, reset};
pub use recorder::{drain_all, SpanRecord};
pub use span::{SpanContext, SpanKind, SC_TRACING};
