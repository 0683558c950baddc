//! Multi-port argument transfer (paper §3.3, figure 3).
//!
//! "Each computing thread of the SPMD object opens a network connection
//! on a separate port. These connections become a part of object
//! reference … The invocation header will be delivered using the
//! centralized method as above, and upon its receipt the computing
//! threads will await argument transfer on network ports. … the client's
//! threads first calculate to which of the server's threads they should
//! send data. Each thread then marshals the part of data it owns, and
//! sends it. The server's threads receive all the data transfers
//! associated with a given request and unmarshal them according to
//! information contained in the transfer header."
//!
//! Compared with the centralized method this eliminates the
//! gather/scatter entirely, marshals in parallel on every thread, and —
//! on a single shared link — keeps the wire busy by interleaving frames
//! from concurrent senders. `T = t_pack/n + t_wire + t_unpack/n`: the
//! time *decreases* as computing resources grow, the effect Table 2 and
//! figure 4 measure.

use crate::client::{PendingInvoke, Proxy};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{
    frame, ReplyParts, ReplyResult, RequestBody, RequestParts, RequestSpec, Slots,
};
use crate::server::{DistIn, ServerRequest};
use crate::transfer::{relay_reply, service_context_entries, transfer_frame, zeroed_local};
use pardis_net::giop::{ReplyHeader, ReplyStatus, RequestHeader, TransferHeader, TransferMode};
use pardis_net::{HostId, PortId};
use std::time::Instant;

/// Client send phase: the communicating thread sends the header-only
/// Request; every thread then streams its fragments directly to the
/// owning server threads.
pub(crate) fn client_send(
    ctx: &OrbCtx,
    proxy: &Proxy,
    spec: &RequestSpec,
    pending: &mut PendingInvoke,
) -> PardisResult<()> {
    // Header first, so the server threads are awaiting fragments.
    if let Some(conn) = proxy.conn.as_ref() {
        let tp = Instant::now();
        let metas: Vec<_> = spec.dist_args.iter().map(|a| a.meta()).collect();
        let body = RequestParts::<Slots> {
            nondist: &spec.nondist_body,
            dist: metas.iter().map(|m| (m, None)).collect(),
        };
        let header = RequestHeader {
            request_id: pending.req_id,
            object_name: proxy.objref.name.clone(),
            operation: spec.operation.clone(),
            response_expected: spec.response_expected,
            reply_host: ctx.host.id(),
            reply_port: conn.local_port(),
            mode: TransferMode::MultiPort,
            client_threads: if proxy.collective {
                ctx.nthreads() as u32
            } else {
                1
            },
            client_data_ports: if proxy.collective {
                ctx.data_port_ids.clone()
            } else {
                vec![ctx.data_port.port()]
            },
            service_context: service_context_entries(ctx, pending.req_id),
        };
        let (wire, body_len) = frame(ctx.endian, &header, &body)?;
        pending.timing.pack += tp.elapsed();
        pending.body_len = body_len;
        let ts = Instant::now();
        conn.send_frame(wire)?;
        pending.timing.send += ts.elapsed();
    }

    // Every thread routes and sends its share of each sending argument.
    let my_thread = if proxy.collective { ctx.rank() } else { 0 };
    for (arg_idx, arg) in spec.dist_args.iter().enumerate() {
        if !arg.dir.sends() {
            continue;
        }
        let my_off = arg.client_templ.offset(my_thread);
        for (dst, range) in arg.client_templ.transfers_to(my_thread, &arg.server_templ) {
            let lo = (range.start - my_off) * arg.elem_size;
            let hi = (range.end - my_off) * arg.elem_size;
            // Marshal this fragment straight into its frame (the one
            // copy; the pack cost of the paper's measurements, parallel
            // across threads here).
            let tp = Instant::now();
            let wire = transfer_frame(
                ctx.endian,
                &TransferHeader {
                    request_id: pending.req_id,
                    arg_index: arg_idx as u32,
                    src_thread: my_thread as u32,
                    dst_thread: dst as u32,
                    offset: range.start as u64,
                    count: (range.end - range.start) as u64,
                    total_len: arg.client_templ.len() as u64,
                    epoch: ctx.rts.membership().epoch(),
                },
                &arg.local[lo..hi],
                arg.elem_size,
                ctx.translate,
            )?;
            pending.timing.pack += tp.elapsed();
            let ts = Instant::now();
            // Send from this thread's own data port: fragment flows are
            // then distinct per (source thread, destination thread),
            // which keeps seeded fault decisions independent of how the
            // sending threads interleave.
            ctx.host.send_from(
                ctx.data_port.port(),
                proxy.objref.host,
                proxy.objref.data_ports[dst],
                wire,
            )?;
            pending.timing.send += ts.elapsed();
        }
    }
    Ok(())
}

/// Client receive phase: learn the outcome from the relayed Reply (see
/// [`relay_reply`]) first, then collect the returning fragments on each
/// thread's own port.
pub(crate) fn client_recv(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &PendingInvoke,
) -> PardisResult<ReplyResult> {
    let mut timing = pending.timing;
    let reply = relay_reply(ctx, proxy, pending, &mut timing)?;

    // Collect this thread's fragments for each returning argument.
    let my_thread = if proxy.collective { ctx.rank() } else { 0 };
    let mut dist_out = Vec::with_capacity(reply.dist_out.len());
    for (arg_idx, d, _) in reply.dist_out {
        let expected = d.client_templ.incoming_count(my_thread, &d.server_templ);
        let tr = Instant::now();
        let mut frags = ctx.recv_fragments(pending.req_id, arg_idx, expected, pending.deadline)?;
        let local = ctx.assemble_local(&mut frags, &d.client_templ, d.elem_size)?;
        timing.recv_unpack += tr.elapsed();
        dist_out.push((arg_idx, local));
    }

    Ok(ReplyResult {
        nondist_body: reply.nondist,
        dist_out,
        timing,
    })
}

/// Server side: every thread awaits the fragments routed to it and
/// assembles its local parts.
pub(crate) fn server_receive_args(
    ctx: &OrbCtx,
    req_id: u64,
    body: &RequestBody,
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
        let local = if meta.dir.sends() {
            let expected = server_templ.incoming_count(ctx.rank(), &client_templ);
            let tr = Instant::now();
            // The fragment wait is bounded by the ORB's configured
            // timeout; a dropped fragment then degrades to an error
            // reply instead of wedging the serve loop.
            let deadline = ctx.frag_timeout.map(|t| Instant::now() + t);
            let mut frags = ctx.recv_fragments(req_id, i as u32, expected, deadline)?;
            let local = ctx.assemble_local(&mut frags, &server_templ, meta.elem_size)?;
            timing.recv_unpack += tr.elapsed();
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

/// Server side: the communicating thread reports completion; every
/// thread streams its share of the returning arguments straight to the
/// client threads' data ports.
pub(crate) fn server_send_reply(
    ctx: &OrbCtx,
    header: &RequestHeader,
    sreq: &ServerRequest<'_>,
    endian: pardis_cdr::Endian,
    timing: &mut crate::request::InvokeTiming,
) -> PardisResult<()> {
    // Reply status first so the client can fail fast and only waits for
    // fragments it will actually receive.
    let mut dist_out_meta = Vec::new();
    for i in 0..sreq.dist_count() {
        let d = sreq.dist_raw(i)?;
        if d.dir.returns() {
            dist_out_meta.push((i as u32, d.server_templ.len(), None));
        }
    }
    if ctx.is_comm_thread() {
        let body = ReplyParts::<Slots> {
            nondist: &sreq.reply_nondist_bytes(),
            dist_out: dist_out_meta.clone(),
        };
        let reply = ReplyHeader {
            request_id: header.request_id,
            status: ReplyStatus::NoException,
        };
        let (wire, _) = frame(endian, &reply, &body)?;
        let ts = Instant::now();
        ctx.host
            .send_to(header.reply_host, header.reply_port, wire)?;
        timing.send += ts.elapsed();
    }

    // Fragments from every thread directly to the owning client threads.
    let client_ports: &[PortId] = &header.client_data_ports;
    let client_host: HostId = header.reply_host;
    for (i, _, _) in &dist_out_meta {
        let i = *i as usize;
        let d = sreq.dist_raw(i)?;
        let my_off = d.server_templ.offset(ctx.rank());
        let reply_local = sreq.reply_local(i);
        for (dst, range) in d.server_templ.transfers_to(ctx.rank(), &d.client_templ) {
            if dst >= client_ports.len() {
                return Err(PardisError::BadDistArg(format!(
                    "client advertised {} data ports, routing needs thread {dst}",
                    client_ports.len()
                )));
            }
            let lo = (range.start - my_off) * d.elem_size;
            let hi = (range.end - my_off) * d.elem_size;
            let tp = Instant::now();
            let wire = transfer_frame(
                endian,
                &TransferHeader {
                    request_id: header.request_id,
                    arg_index: i as u32,
                    src_thread: ctx.rank() as u32,
                    dst_thread: dst as u32,
                    offset: range.start as u64,
                    count: (range.end - range.start) as u64,
                    total_len: d.server_templ.len() as u64,
                    epoch: ctx.rts.membership().epoch(),
                },
                &reply_local[lo..hi],
                d.elem_size,
                ctx.translate,
            )?;
            timing.pack += tp.elapsed();
            let ts = Instant::now();
            ctx.host
                .send_from(ctx.data_port.port(), client_host, client_ports[dst], wire)?;
            timing.send += ts.elapsed();
        }
    }
    Ok(())
}
