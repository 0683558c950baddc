//! Observability hooks for the ORB (the `obs` feature).
//!
//! `pardis-obs` is pure mechanism (spans, metrics, timeline). This
//! module copies into it what the ORB already records, one hook per
//! layer, and adds no clock of its own:
//!
//! * [`init`] binds each computing thread to its `(machine, host,
//!   rank)` block; when the thread's [`OrbCtx`] drops, the block takes
//!   the RTS's own counts: collectives completed and membership epochs
//!   crossed;
//! * [`begin`] and [`complete`] bracket a client invocation. The spans
//!   come from the finished [`InvokeTiming`]: marshal = `pack`,
//!   xfer.centralized = `gather + send`, xfer.multiport = `send`,
//!   invoke = `total`;
//! * [`served`] ends a served request: dispatch runs from the
//!   request's relay to the exit collective, reply is the reply's
//!   `gather + pack + send`;
//! * [`bound`] records a bind;
//! * [`service_context`] / [`parse_service_context`] carry the
//!   invocation's [`SpanContext`] across the wire in the request
//!   header's service-context slot. The context blob is always
//!   little-endian, independent of the message endianness — it is
//!   opaque to the GIOP layer and self-contained for the decoder.

use crate::client::{PendingInvoke, Proxy};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{InvokeTiming, ReplyResult, RequestSpec};
use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrWriter, Decode, Encode, Endian};
use pardis_net::giop::{RequestHeader, TransferMode};
use pardis_obs::recorder::{self, SpanEvent};
use pardis_obs::{metrics, SpanContext, SpanKind, SC_TRACING};
use pardis_rts::clock::ClockWitness;
use std::time::{Duration, Instant};

/// Bind the calling thread's observability block. Called from
/// `OrbCtx::init`, before its first collective.
pub(crate) fn init(machine: &str, host: u32, rank: usize) {
    pardis_obs::init_rank(machine, host, rank);
}

impl Drop for OrbCtx {
    /// The rank is done: its block takes the counts the RTS kept.
    fn drop(&mut self) {
        metrics::add("rts.collectives", self.rts.collectives_completed());
        metrics::add("rts.epoch_changes", ClockWitness::epoch());
    }
}

/// Bump the calling rank's named counter by one.
pub(crate) fn count(name: &str) {
    metrics::add(name, 1);
}

/// Record a bind of object `name` that began at `started`.
pub(crate) fn bound(ctx: &OrbCtx, name: &str, started: Instant) {
    recorder::record(SpanEvent {
        kind: SpanKind::Bind,
        name: name.to_string(),
        trace_id: 0,
        span_id: recorder::alloc_span_id(),
        parent_span: 0,
        epoch: ctx.rts.membership().epoch(),
        bytes: 0,
        wait_ns: nanos(started.elapsed()),
    });
}

/// What a client invocation's spans need beyond its timing.
#[derive(Debug, Clone)]
pub(crate) struct InvokeTrace {
    /// Operation name, labelling the spans.
    op: String,
    /// This rank's root span for the invocation. The thread holding
    /// the connection roots the trace, so its root is the trace id
    /// itself; the other computing threads get a span of their own.
    local_root: u64,
}

/// An invocation `req_id` begins on this rank (`fell_back`: a
/// multi-port request was demoted to centralized).
pub(crate) fn begin(
    proxy: &Proxy,
    spec: &RequestSpec,
    req_id: u64,
    fell_back: bool,
) -> InvokeTrace {
    metrics::add("orb.requests", 1);
    metrics::add("orb.fallbacks", u64::from(fell_back));
    InvokeTrace {
        op: spec.operation.clone(),
        local_root: if proxy.conn.is_some() {
            req_id
        } else {
            recorder::alloc_span_id()
        },
    }
}

/// An invocation completed on this rank, either way: record its
/// marshal, transfer and invoke spans and its transfer counters.
/// Without a reply the send phase's timing stands in, and the invoke
/// span runs to now.
pub(crate) fn complete(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &PendingInvoke,
    result: &PardisResult<ReplyResult>,
) {
    let (t, total) = match result {
        Ok(r) => (&r.timing, r.timing.total),
        Err(_) => (&pending.timing, pending.started.elapsed()),
    };
    let trace = &pending.trace;
    let epoch = ctx.rts.membership().epoch();
    let invoke = SpanEvent {
        kind: SpanKind::Invoke,
        name: trace.op.clone(),
        trace_id: pending.req_id,
        span_id: trace.local_root,
        parent_span: if trace.local_root == pending.req_id {
            0
        } else {
            pending.req_id
        },
        epoch,
        bytes: 0,
        wait_ns: nanos(total),
    };
    let phase = |kind, epoch, bytes, took| SpanEvent {
        kind,
        span_id: recorder::alloc_span_id(),
        parent_span: trace.local_root,
        epoch,
        bytes,
        wait_ns: nanos(took),
        ..invoke.clone()
    };
    let body_len = pending.body_len as u64;
    if body_len > 0 {
        // Marshal spans carry epoch 0: the body format is epoch-blind.
        recorder::record(SpanEvent {
            name: "request-body".into(),
            ..phase(SpanKind::Marshal, 0, body_len, t.pack)
        });
    }
    if pending.send_error.is_none() {
        match pending.mode {
            TransferMode::Centralized if body_len > 0 => {
                metrics::add("xfer.centralized.bytes", body_len);
                let took = t.gather + t.send;
                recorder::record(phase(SpanKind::XferCentralized, epoch, body_len, took));
            }
            TransferMode::Centralized => {}
            TransferMode::MultiPort => {
                // The fragments this rank sent, from the routing the
                // send phase followed.
                let me = if proxy.collective { ctx.rank() } else { 0 };
                let mut sent = 0;
                for d in pending.dist.iter().filter(|d| d.dir.sends()) {
                    for (_, range) in d.client_templ.transfers_to(me, &d.server_templ) {
                        let len = (range.len() * d.elem_size) as u64;
                        metrics::observe("xfer.multiport.frag_bytes", len);
                        sent += len;
                    }
                }
                metrics::add("xfer.multiport.bytes", sent);
                recorder::record(phase(SpanKind::XferMultiport, epoch, sent, t.send));
            }
        }
    }
    if matches!(result, Err(PardisError::Timeout)) {
        metrics::add("orb.timeouts", 1);
    }
    recorder::record(invoke);
}

/// A served request ends on this rank: count it and, when the client
/// sent a tracing context, hang the rank's dispatch span (lasting
/// `dispatch`) off the client's invocation root and its reply span off
/// the dispatch span.
pub(crate) fn served(
    ctx: &OrbCtx,
    header: &RequestHeader,
    nondist_len: usize,
    dispatch: Duration,
    timing: &InvokeTiming,
) {
    metrics::add("orb.served", 1);
    let Some(sc) = parse_service_context(&header.service_context) else {
        return;
    };
    let dispatch_span = SpanEvent {
        kind: SpanKind::Dispatch,
        name: header.operation.clone(),
        trace_id: sc.trace_id,
        span_id: recorder::alloc_span_id(),
        parent_span: sc.parent_span,
        epoch: ctx.rts.membership().epoch(),
        bytes: nondist_len as u64,
        wait_ns: nanos(dispatch),
    };
    let reply = SpanEvent {
        kind: SpanKind::Reply,
        span_id: recorder::alloc_span_id(),
        parent_span: dispatch_span.span_id,
        bytes: 0,
        wait_ns: nanos(timing.gather + timing.pack + timing.send),
        ..dispatch_span.clone()
    };
    recorder::record(dispatch_span);
    recorder::record(reply);
}

/// The service-context entries for outgoing request `req_id`: its
/// [`SpanContext`].
pub(crate) fn service_context(ctx: &OrbCtx, req_id: u64) -> Vec<(u32, Bytes)> {
    let sc = SpanContext {
        trace_id: req_id,
        // The receiver parents under the invocation root, whose span
        // id equals the trace id by construction.
        parent_span: req_id,
        rank: ctx.rank() as u32,
        epoch: ctx.rts.membership().epoch(),
    };
    let mut w = CdrWriter::new(Endian::Little);
    match sc.encode(&mut w) {
        Ok(()) => vec![(SC_TRACING, w.into_shared())],
        Err(_) => Vec::new(),
    }
}

/// Extract the tracing context from a request's service-context
/// entries. Malformed blobs are ignored (observability must never
/// fail a request).
fn parse_service_context(entries: &[(u32, Bytes)]) -> Option<SpanContext> {
    let (_, blob) = entries.iter().find(|(id, _)| *id == SC_TRACING)?;
    let mut r = CdrReader::new(blob, Endian::Little);
    SpanContext::decode(&mut r).ok()
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}
