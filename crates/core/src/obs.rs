//! Observability glue for the ORB (the `obs` feature).
//!
//! `pardis-obs` is pure mechanism (spans, metrics, timeline); this
//! module is the policy layer wiring it into the ORB:
//!
//! * [`init`] binds each computing thread to its `(machine, host,
//!   rank)` identity and installs the RTS observer forwarding
//!   collective wait times and epoch changes into the metrics
//!   registry;
//! * [`service_context`] / [`parse_service_context`] carry the active
//!   [`SpanContext`] across the wire in the request header's
//!   service-context slot. The context blob is always little-endian,
//!   independent of the message endianness — it is opaque to the
//!   GIOP layer and self-contained for the decoder.

use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrWriter, Decode, Encode, Endian};
use pardis_obs::{metrics, recorder, SpanContext, SpanKind, SC_TRACING};
use pardis_rts::Endpoint;

/// Forwards RTS notifications into the calling rank's metrics block
/// (both callbacks fire on the rank's own thread).
struct ForwardToMetrics;

impl pardis_rts::obs::RtsObserver for ForwardToMetrics {
    fn collective_complete(&self, _name: &'static str, _rank: usize, wait_ns: u64) {
        metrics::observe("rts.collective_wait_ns", wait_ns);
    }

    fn epoch_changed(&self, _rank: usize, _epoch: u64) {
        metrics::add("rts.epoch_changes", 1);
    }
}

/// Bind the calling thread's observability identity and (once per
/// process) install the RTS observer. Called from `OrbCtx::init`.
pub(crate) fn init(machine: &str, host: u32, rts: &Endpoint) {
    pardis_obs::init_rank(machine, host, rts.rank());
    pardis_rts::obs::set_observer(Box::new(ForwardToMetrics));
}

/// The service-context entries for an outgoing request: the active
/// invocation's [`SpanContext`], or nothing when no trace is active.
pub(crate) fn service_context(rts: &Endpoint) -> Vec<(u32, Bytes)> {
    match recorder::current() {
        Some((trace_id, _local_root)) => {
            let ctx = SpanContext {
                trace_id,
                // The receiver parents under the invocation root,
                // whose span id equals the trace id by construction.
                parent_span: trace_id,
                rank: rts.rank() as u32,
                epoch: rts.membership().epoch(),
            };
            let mut w = CdrWriter::new(Endian::Little);
            match ctx.encode(&mut w) {
                Ok(()) => vec![(SC_TRACING, w.into_shared())],
                Err(_) => Vec::new(),
            }
        }
        None => Vec::new(),
    }
}

/// Extract the tracing context from a request's service-context
/// entries. Malformed blobs are ignored (observability must never
/// fail a request).
pub(crate) fn parse_service_context(entries: &[(u32, Bytes)]) -> Option<SpanContext> {
    let (_, blob) = entries.iter().find(|(id, _)| *id == SC_TRACING)?;
    let mut r = CdrReader::new(blob, Endian::Little);
    SpanContext::decode(&mut r).ok()
}

/// Record a completed phase span on the calling rank, parented under
/// the given span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_span(
    kind: SpanKind,
    name: &str,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    epoch: u64,
    bytes: u64,
    wait_ns: u64,
) {
    recorder::record(recorder::SpanEvent {
        kind,
        name: name.to_string(),
        trace_id,
        span_id,
        parent_span,
        epoch,
        bytes,
        wait_ns,
    });
}

/// Record a child phase (marshal/transfer) under the calling rank's
/// active invocation; no-op when no invocation is active.
pub(crate) fn record_phase(kind: SpanKind, name: &str, epoch: u64, bytes: u64, wait_ns: u64) {
    if let Some((trace_id, local_root)) = recorder::current() {
        record_span(
            kind,
            name,
            trace_id,
            recorder::alloc_span_id(),
            local_root,
            epoch,
            bytes,
            wait_ns,
        );
    }
}

/// Record the marshal span of the request the calling rank is sending:
/// the measured time to build its frame and the frame's body bytes.
/// Marshal spans carry epoch 0: the body format is epoch-blind.
pub(crate) fn record_marshal(body_len: usize, took: std::time::Duration) {
    record_phase(
        SpanKind::Marshal,
        "request-body",
        0,
        body_len as u64,
        took.as_nanos() as u64,
    );
}
