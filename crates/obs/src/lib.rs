//! # pardis-obs — observability for the PARDIS ORB
//!
//! A PARDIS invocation is *collective*: one logical request fans out
//! across N computing threads, two transfer engines, and (under
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
//! * [`metrics`] — a registry of per-rank counters and fixed-bucket
//!   histograms whose hot path is lock-free (atomics on a thread-local
//!   handle), exported as deterministic JSON snapshots;
//! * [`timeline`] — merges per-rank span logs into one causally
//!   ordered cross-rank timeline, flags stragglers, and diffs two
//!   traces of the same seed. The `pardis-trace` binary is its CLI.
//!
//! The instrumentation hooks live in `pardis-rts`/`pardis-core` behind
//! their `obs` features; this crate is pure mechanism and carries no
//! feature gates of its own.

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod timeline;

pub use metrics::{snapshot_json, RankMetrics};
pub use recorder::{drain_all, SpanRecord};
pub use span::{SpanContext, SpanKind, SC_TRACING};

/// Bind the calling thread to `(machine, host, rank)` in both the
/// span recorder and the metrics registry — the single entry point
/// the ORB calls from `OrbCtx::init`.
pub fn init_rank(machine: &str, host: u32, rank: usize) {
    recorder::init(machine, host, rank);
    metrics::init(machine, host, rank);
}

/// Clear all global observability state (span logs and metrics) —
/// between two replays of the same seed in one process.
pub fn reset() {
    recorder::reset();
    metrics::reset();
}
