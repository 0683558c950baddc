//! Centralized argument transfer (paper §3.2, figure 2).
//!
//! "The SPMD object makes available only one network connection to
//! clients. This connection is waited on by one of the SPMD threads which
//! we will subsequently call a communicating thread. … On invocation, the
//! computing threads of the client first synchronize, marshal arguments
//! and then the request is sent to the server as one message. … The
//! distributed arguments are gathered and scattered by the communicating
//! threads of the client and server as part of the marshaling or
//! unmarshaling process."
//!
//! The total invocation time decomposes as
//! `T = t_gather + t_pack + t_wire + t_unpack + t_scatter`, and both the
//! gather/scatter terms grow with the number of computing threads — the
//! effect Table 1 measures.

use crate::client::{PendingInvoke, Proxy};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{
    byte_len, frame, Inline, ReplyBody, ReplyParts, ReplyResult, RequestBody, RequestParts,
    RequestSpec,
};
use crate::server::{DistIn, ServerRequest};
use crate::transfer::{
    service_context_entries, status_to_result, synthetic_status, unpack, zeroed_local,
};
use bytes::Bytes;
use pardis_net::giop::{GiopMessage, ReplyHeader, ReplyStatus, RequestHeader, TransferMode};
use std::time::Instant;

/// Client send phase: gather distributed arguments at the communicating
/// thread, marshal everything into one Request message, transmit.
pub(crate) fn client_send(
    ctx: &OrbCtx,
    proxy: &Proxy,
    spec: &RequestSpec,
    pending: &mut PendingInvoke,
) -> PardisResult<()> {
    // Gather each sending distributed argument at the communicating
    // thread through the RTS.
    let mut gathered: Vec<Option<Vec<Bytes>>> = Vec::with_capacity(spec.dist_args.len());
    let tg = Instant::now();
    for arg in &spec.dist_args {
        if arg.dir.sends() {
            if proxy.collective {
                gathered.push(ctx.rts.gather_bytes(0, arg.local.clone())?);
            } else {
                gathered.push(Some(vec![arg.local.clone()]));
            }
        } else {
            gathered.push(None);
        }
    }
    pending.timing.gather = tg.elapsed();

    // The communicating thread marshals every gathered chunk straight
    // into the Request frame and sends it.
    if let Some(conn) = proxy.conn.as_ref() {
        let tp = Instant::now();
        let metas: Vec<_> = spec.dist_args.iter().map(|a| a.meta()).collect();
        let body = RequestParts {
            nondist: &spec.nondist_body,
            dist: metas
                .iter()
                .zip(&spec.dist_args)
                .zip(&gathered)
                .map(|((meta, arg), chunks)| {
                    let data = chunks.as_deref().map(|parts| Inline {
                        parts,
                        elem_size: arg.elem_size,
                        translate: ctx.translate,
                    });
                    (meta, data)
                })
                .collect(),
        };
        let header = RequestHeader {
            request_id: pending.req_id,
            object_name: proxy.objref.name.clone(),
            operation: spec.operation.clone(),
            response_expected: spec.response_expected,
            reply_host: ctx.host.id(),
            reply_port: conn.local_port(),
            mode: TransferMode::Centralized,
            client_threads: if proxy.collective {
                ctx.nthreads() as u32
            } else {
                1
            },
            client_data_ports: vec![],
            service_context: service_context_entries(ctx, pending.req_id),
        };
        let (wire, body_len) = frame(ctx.endian, &header, &body)?;
        pending.timing.pack = tp.elapsed();
        pending.body_len = body_len;

        let ts = Instant::now();
        conn.send_frame(wire)?;
        pending.timing.send = ts.elapsed();
    }
    Ok(())
}

/// Client receive phase: the communicating thread receives the single
/// Reply, relays status and non-distributed results, and scatters the
/// distributed results to the computing threads.
pub(crate) fn client_recv(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &PendingInvoke,
) -> PardisResult<ReplyResult> {
    let mut timing = pending.timing;

    // Communicating thread: pull the reply off the wire, strip inline
    // data, relay the control part. A local receive failure (deadline
    // exceeded, connection reset, undecodable reply) is converted into
    // a synthetic error Reply and relayed the same way, so the other
    // computing threads resolve to the same error instead of hanging.
    let mut inline: Vec<Option<Bytes>> = Vec::new();
    let control: (ReplyHeader, ReplyBody);
    if let Some(conn) = proxy.conn.as_ref() {
        let tr = Instant::now();
        let received = pending
            .send_failure()
            .map(Err)
            .unwrap_or_else(|| proxy.recv_reply(conn, pending.req_id, pending.deadline))
            .and_then(|(header, body_bytes)| {
                Ok((header, ReplyBody::decode(&body_bytes, ctx.endian)?))
            });
        let (header, stripped) = match received {
            Ok((header, body)) => {
                inline = body.dist_out.iter().map(|(_, _, d)| d.clone()).collect();
                let stripped = ReplyBody {
                    nondist: body.nondist.clone(),
                    dist_out: body
                        .dist_out
                        .iter()
                        .map(|(i, l, _)| (*i, *l, None))
                        .collect(),
                };
                (header, stripped)
            }
            Err(e) => (
                ReplyHeader {
                    request_id: pending.req_id,
                    status: synthetic_status(&e),
                },
                ReplyBody {
                    nondist: Bytes::new(),
                    dist_out: vec![],
                },
            ),
        };
        timing.recv_unpack += tr.elapsed();
        if proxy.collective {
            let wire = GiopMessage::Reply(header.clone(), stripped.to_bytes(ctx.endian))
                .encode(ctx.endian)?;
            ctx.rts.broadcast(0, Some(wire))?;
        }
        control = (header, stripped);
    } else {
        // Non-communicating threads learn the outcome by relay.
        let wire = ctx.rts.broadcast(0, None)?;
        match GiopMessage::decode(&wire)? {
            GiopMessage::Reply(h, b) => {
                let body = ReplyBody::decode(&b, ctx.endian)?;
                control = (h, body);
            }
            other => {
                return Err(PardisError::Net(format!(
                    "unexpected relayed reply: {other:?}"
                )))
            }
        }
    }

    let (header, body) = control;
    status_to_result(&header.status)?;

    // Scatter each returning distributed argument from the communicating
    // thread to its owners.
    let mut dist_out = Vec::new();
    for (pos, (arg_idx, total_len, _)) in body.dist_out.iter().enumerate() {
        let d = pending
            .dist
            .get(*arg_idx as usize)
            .ok_or_else(|| PardisError::BadDistArg(format!("reply names unknown arg {arg_idx}")))?;
        if d.client_templ.len() != *total_len {
            return Err(PardisError::BadDistArg(format!(
                "reply length {total_len} differs from argument length {}",
                d.client_templ.len()
            )));
        }
        if !d.dir.returns() {
            return Err(PardisError::BadDistArg(format!(
                "reply returns data for `in` argument {arg_idx}"
            )));
        }
        let my_bytes = if proxy.collective {
            let ts = Instant::now();
            let chunks = if ctx.is_comm_thread() {
                let data = inline[pos].as_ref().ok_or_else(|| {
                    PardisError::BadDistArg("centralized reply missing inline data".into())
                })?;
                Some(split_by_templ(data, &d.client_templ, d.elem_size)?)
            } else {
                None
            };
            let mine = ctx.rts.scatterv_bytes(0, chunks)?;
            timing.scatter += ts.elapsed();
            mine
        } else {
            let data = inline[pos].as_ref().ok_or_else(|| {
                PardisError::BadDistArg("centralized reply missing inline data".into())
            })?;
            data.clone()
        };
        let tu = Instant::now();
        let local = unpack(&[my_bytes], d.elem_size, ctx.translate);
        timing.recv_unpack += tu.elapsed();
        dist_out.push((*arg_idx, local));
    }

    Ok(ReplyResult {
        nondist_body: body.nondist,
        dist_out,
        timing,
    })
}

/// Split a full gathered buffer into per-thread chunks by a template.
fn split_by_templ(
    data: &Bytes,
    templ: &crate::dist::DistTempl,
    elem_size: usize,
) -> PardisResult<Vec<Bytes>> {
    let want = byte_len(templ.len(), elem_size)?;
    if data.len() != want {
        return Err(PardisError::BadDistArg(format!(
            "inline data {} bytes, template covers {want}",
            data.len()
        )));
    }
    Ok((0..templ.nthreads())
        .map(|t| {
            let r = templ.range(t);
            data.slice(r.start * elem_size..r.end * elem_size)
        })
        .collect())
}

/// Server side: materialize each thread's local parts of the distributed
/// arguments by scattering from the communicating thread.
pub(crate) fn server_receive_args(
    ctx: &OrbCtx,
    body: &RequestBody,
    inline: Option<Vec<Option<Bytes>>>,
    timing: &mut crate::request::InvokeTiming,
) -> PardisResult<Vec<DistIn>> {
    let mut out = Vec::with_capacity(body.dist.len());
    for (i, (meta, _)) in body.dist.iter().enumerate() {
        let server_templ = meta.server_templ();
        let client_templ = meta.client_templ();
        if server_templ.nthreads() != ctx.nthreads() {
            return Err(PardisError::BadDistArg(format!(
                "argument {i} server template names {} threads, machine has {}",
                server_templ.nthreads(),
                ctx.nthreads()
            )));
        }
        // Degraded machine: remap onto the survivor set (dead threads
        // own zero elements); identical on every rank by construction.
        let server_templ = ctx.effective_server_templ(server_templ)?;
        let local = if meta.dir.sends() {
            let ts = Instant::now();
            let chunks = match &inline {
                Some(v) => {
                    let data = v[i].as_ref().ok_or_else(|| {
                        PardisError::BadDistArg(format!(
                            "centralized request missing inline data for argument {i}"
                        ))
                    })?;
                    Some(split_by_templ(data, &server_templ, meta.elem_size)?)
                }
                None => None,
            };
            let mine = ctx.rts.scatterv_bytes(0, chunks)?;
            timing.scatter += ts.elapsed();
            let tu = Instant::now();
            let local = unpack(&[mine], meta.elem_size, ctx.translate);
            timing.recv_unpack += tu.elapsed();
            local
        } else {
            zeroed_local(&server_templ, ctx.rank(), meta.elem_size)?
        };
        out.push(DistIn {
            dir: meta.dir,
            elem_size: meta.elem_size,
            client_templ,
            server_templ,
            local,
        });
    }
    Ok(out)
}

/// Server side: gather the returning arguments at the communicating
/// thread and send one Reply message, each gathered chunk marshaled
/// straight into the frame.
pub(crate) fn server_send_reply(
    ctx: &OrbCtx,
    header: &RequestHeader,
    sreq: &ServerRequest<'_>,
    endian: pardis_cdr::Endian,
    timing: &mut crate::request::InvokeTiming,
) -> PardisResult<()> {
    let mut gathered = Vec::new();
    for i in 0..sreq.dist_count() {
        let d = sreq.dist_raw(i)?;
        if !d.dir.returns() {
            continue;
        }
        let tg = Instant::now();
        let chunks = ctx.rts.gather_bytes(0, sreq.reply_local(i))?;
        timing.gather += tg.elapsed();
        if let Some(chunks) = chunks {
            gathered.push((i as u32, d.server_templ.len(), d.elem_size, chunks));
        }
    }

    if ctx.is_comm_thread() {
        let tp = Instant::now();
        let body = ReplyParts {
            nondist: &sreq.reply_nondist_bytes(),
            dist_out: gathered
                .iter()
                .map(|(i, len, elem_size, parts)| {
                    let data = Inline {
                        parts,
                        elem_size: *elem_size,
                        translate: ctx.translate,
                    };
                    (*i, *len, Some(data))
                })
                .collect(),
        };
        let reply = ReplyHeader {
            request_id: header.request_id,
            status: ReplyStatus::NoException,
        };
        let (wire, _) = frame(endian, &reply, &body)?;
        timing.pack += tp.elapsed();
        let ts = Instant::now();
        ctx.host
            .send_to(header.reply_host, header.reply_port, wire)?;
        timing.send += ts.elapsed();
    }
    Ok(())
}
