//! Distributed-argument transfer: one invocation protocol, two routes
//! for the data.
//!
//! The paper's §3 investigates two ways of moving distributed arguments
//! between the computing threads of a parallel client and a parallel
//! server. Both send one invocation frame through the communicating
//! threads, and both relay it to every computing thread; they differ
//! only in how one thread's block of a distributed argument travels:
//!
//! * [`centralized`] — the block is a segment of that one frame: every
//!   thread lends its block and one gather round links them all into
//!   the frame (figure 2's gather, without a copy), and every thread on
//!   the far side views its own block in the relayed frame (the
//!   scatter, in place),
//! * [`multiport`] — "the invocation header will be delivered using the
//!   centralized method as above, and upon its receipt the computing
//!   threads will await argument transfer on network ports" (§3.3): the
//!   block travels as DataTransfer fragments from the sending thread's
//!   data port to each receiving thread that owns a piece of it
//!   (figure 3).
//!
//! This module writes each phase of an invocation once — the client's
//! send and receive, the server's receive and reply — and asks the
//! invocation's [`TransferMode`] only where a block's route differs. It
//! also holds the receive side's checks and its one unmarshaling copy
//! (data translation, or a block that spans segments). A block in
//! native byte order is never copied to be sent: the frame links the
//! storage its sequence lends.

pub mod centralized;
pub mod multiport;

use crate::client::{PendingInvoke, Proxy};
use crate::dist::DistTempl;
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{
    byte_len, frame, InvokeTiming, ReplyBody, ReplyParts, ReplyResult, RequestBody, RequestParts,
    RequestSpec,
};
use crate::server::{DistIn, ServerRequest};
use bytes::Bytes;
use centralized::Lent;
use pardis_cdr::{CdrWriter, Endian, Frame};
use pardis_net::giop::{GiopMessage, ReplyHeader, ReplyStatus, RequestHeader, TransferMode};
use std::time::Instant;

/// Prefix used when the communicating thread converts a local receive
/// timeout into a synthetic relayed Reply, so every computing thread of
/// the client resolves to the same [`PardisError::Timeout`].
const SYNTH_TIMEOUT: &str = "TIMEOUT:";
/// Same, for transport failures → [`PardisError::CommFailure`].
const SYNTH_COMM_FAILURE: &str = "COMM_FAILURE:";

/// One thread's block of one distributed argument of an invocation:
/// what either route needs to move it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'a> {
    /// The invocation's request id.
    pub req_id: u64,
    /// The argument's index in the request.
    pub arg: u32,
    /// Bytes per element.
    pub elem_size: usize,
    /// The argument's layout on this thread's machine.
    pub templ: &'a DistTempl,
    /// Its layout on the peer machine.
    pub peer: &'a DistTempl,
    /// This thread's rank in `templ`.
    pub rank: usize,
}

/// Client send phase: every computing thread lends its blocks of the
/// sending arguments and the communicating thread writes the Request
/// frame around them (centralized) and sends it; then every thread
/// sends its blocks as fragments (multi-port), after the header, so the
/// server threads are awaiting them.
pub(crate) fn client_send(
    ctx: &OrbCtx,
    proxy: &Proxy,
    spec: &RequestSpec,
    pending: &mut PendingInvoke,
) -> PardisResult<()> {
    let inline = pending.mode == TransferMode::Centralized;
    let rank = if proxy.collective { ctx.rank() } else { 0 };
    let sending = || {
        spec.dist_args
            .iter()
            .enumerate()
            .filter(|(_, a)| a.dir.sends())
    };
    let (req_id, mode) = (pending.req_id, pending.mode);
    let body_len = &mut pending.body_len;
    let write = proxy.conn.as_ref().map(|conn| {
        move |data: &[Frame]| -> PardisResult<Frame> {
            let metas: Vec<_> = spec.dist_args.iter().map(|a| a.meta()).collect();
            let mut data = data.iter();
            let body = RequestParts {
                nondist: &spec.nondist_body,
                dist: metas
                    .iter()
                    .zip(&spec.dist_args)
                    .map(|(meta, arg)| {
                        let data = if inline && arg.dir.sends() {
                            data.next()
                        } else {
                            None
                        };
                        (meta, data)
                    })
                    .collect(),
            };
            // The tracing context, when observability is compiled in.
            #[cfg(feature = "obs")]
            let service_context = crate::obs::service_context(ctx, req_id);
            #[cfg(not(feature = "obs"))]
            let service_context = Vec::new();
            let header = RequestHeader {
                request_id: req_id,
                object_name: proxy.objref.name.clone(),
                operation: spec.operation.clone(),
                response_expected: spec.response_expected,
                reply_host: ctx.host.id(),
                reply_port: conn.local_port(),
                mode,
                client_threads: if proxy.collective {
                    ctx.nthreads() as u32
                } else {
                    1
                },
                client_data_ports: match mode {
                    TransferMode::Centralized => vec![],
                    TransferMode::MultiPort if proxy.collective => ctx.data_port_ids.clone(),
                    TransferMode::MultiPort => vec![ctx.data_port.port()],
                },
                service_context,
            };
            let (frame, len) = frame(ctx.endian, &header, &body)?;
            *body_len = len;
            Ok(frame)
        }
    });

    let blocks: Vec<_> = if inline {
        sending()
            .map(|(_, a)| Lent {
                block: &a.local,
                elem_size: a.elem_size,
                templ: &a.client_templ,
            })
            .collect()
    } else {
        Vec::new()
    };
    let rts = proxy.collective.then_some(&ctx.rts);
    let timing = &mut pending.timing;
    let wire = centralized::gather_frame(rts, write, &blocks, ctx.translate, timing)?;
    if let (Some(conn), Some(wire)) = (proxy.conn.as_ref(), wire) {
        let ts = Instant::now();
        conn.send_frame(wire)?;
        timing.send += ts.elapsed();
    }

    if !inline {
        for (i, a) in sending() {
            let block = Block {
                req_id: pending.req_id,
                arg: i as u32,
                elem_size: a.elem_size,
                templ: &a.client_templ,
                peer: &a.server_templ,
                rank,
            };
            let to = (proxy.objref.host, &proxy.objref.data_ports[..]);
            multiport::send_fragments(ctx, ctx.endian, block, &a.local, to, timing)?;
        }
    }
    Ok(())
}

/// Client receive phase. The communicating thread receives the Reply
/// frame, or builds a small synthetic error Reply when its receive
/// failed (deadline exceeded, connection reset, undecodable frame), and
/// a collective binding broadcasts that frame unchanged. Every thread
/// then decodes it and checks each returning argument against the
/// request, so all of them reach the same verdict from the same bytes,
/// before it receives its own block of each.
pub(crate) fn client_recv(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &PendingInvoke,
) -> PardisResult<ReplyResult> {
    let mut timing = pending.timing;
    let frame = match proxy.conn.as_ref() {
        Some(conn) => {
            let tr = Instant::now();
            let received = match pending.send_error.clone() {
                Some(e) => Err(e),
                None => proxy.recv_reply(conn, pending.req_id, pending.deadline),
            };
            let frame = received
                .or_else(|e| error_reply(ctx.endian, pending.req_id, synthetic_status(&e)))?;
            timing.recv_unpack += tr.elapsed();
            if proxy.collective {
                ctx.rts.broadcast_frame(0, Some(frame.clone()))?;
            }
            frame
        }
        None => ctx.rts.broadcast_frame(0, None)?,
    };

    let td = Instant::now();
    let decoded = match GiopMessage::decode(&frame) {
        Ok(GiopMessage::Reply(header, body)) => {
            ReplyBody::decode(&body, ctx.endian).map(|body| (header, body))
        }
        Ok(other) => Err(PardisError::Net(format!(
            "unexpected relayed reply: {other:?}"
        ))),
        Err(e) => Err(e.into()),
    };
    timing.recv_unpack += td.elapsed();
    // An undecodable Reply is a transport failure, as a failed receive is.
    let (header, body) = decoded.map_err(|e| PardisError::CommFailure(e.to_string()))?;
    status_to_result(&header.status)?;

    let returning =
        body.dist_out
            .into_iter()
            .map(|(arg, total_len, data)| {
                let d = pending.dist.get(arg as usize).ok_or_else(|| {
                    PardisError::BadDistArg(format!("reply names unknown arg {arg}"))
                })?;
                if d.client_templ.len() != total_len {
                    return Err(PardisError::BadDistArg(format!(
                        "reply length {total_len} differs from argument length {}",
                        d.client_templ.len()
                    )));
                }
                if !d.dir.returns() {
                    return Err(PardisError::BadDistArg(format!(
                        "reply returns data for `in` argument {arg}"
                    )));
                }
                Ok((arg, d, data))
            })
            .collect::<PardisResult<Vec<_>>>()?;
    let rank = if proxy.collective { ctx.rank() } else { 0 };
    let dist_out = returning
        .into_iter()
        .map(|(arg, d, data)| {
            let block = Block {
                req_id: pending.req_id,
                arg,
                elem_size: d.elem_size,
                templ: &d.client_templ,
                peer: &d.server_templ,
                rank,
            };
            let local = receive_block(
                ctx,
                pending.mode,
                block,
                data.as_ref(),
                pending.deadline,
                &mut timing,
            )?;
            Ok((arg, local))
        })
        .collect::<PardisResult<_>>()?;
    Ok(ReplyResult {
        nondist_body: body.nondist,
        dist_out,
        timing,
    })
}

/// Server receive phase: every thread takes its local part of each
/// distributed argument of the relayed Request — its block of a sending
/// argument, zeros for an `out` one.
pub(crate) fn server_receive_args(
    ctx: &OrbCtx,
    header: &RequestHeader,
    body: &RequestBody,
    timing: &mut InvokeTiming,
) -> PardisResult<Vec<DistIn>> {
    let rank = ctx.rank();
    body.dist
        .iter()
        .enumerate()
        .map(|(i, (meta, data))| {
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
            // Only centralized requests get here degraded: `serve_payload`
            // refuses multi-port ones, whose fragments the dead lose.
            let server_templ = ctx.effective_server_templ(server_templ)?;
            let local = if meta.dir.sends() {
                let block = Block {
                    req_id: header.request_id,
                    arg: i as u32,
                    elem_size: meta.elem_size,
                    templ: &server_templ,
                    peer: &client_templ,
                    rank,
                };
                // The fragment wait is bounded by the ORB's configured
                // timeout; a dropped fragment then degrades to an error
                // reply instead of wedging the serve loop.
                let deadline = ctx.frag_timeout.map(|t| Instant::now() + t);
                receive_block(ctx, header.mode, block, data.as_ref(), deadline, timing)?
            } else {
                zeroed_local(&server_templ, rank, meta.elem_size)?
            };
            Ok(DistIn {
                dir: meta.dir,
                elem_size: meta.elem_size,
                client_templ,
                server_templ,
                local,
            })
        })
        .collect()
}

/// Server reply phase: every thread lends its blocks of the returning
/// arguments and the communicating thread writes the Reply frame around
/// them (centralized) and sends it; then every thread sends its blocks
/// as fragments straight to the client threads' data ports
/// (multi-port), after the Reply, so the client learns the outcome
/// first and waits only for fragments that come.
pub(crate) fn server_send_reply(
    ctx: &OrbCtx,
    header: &RequestHeader,
    sreq: &ServerRequest<'_>,
    endian: Endian,
    timing: &mut InvokeTiming,
) -> PardisResult<()> {
    let inline = header.mode == TransferMode::Centralized;
    let mut returning = Vec::new();
    for i in 0..sreq.dist_count() {
        let d = sreq.dist_raw(i)?;
        if d.dir.returns() {
            returning.push((i, d, sreq.reply_local(i)));
        }
    }

    let write = ctx
        .is_comm_thread()
        .then_some(|data: &[Frame]| -> PardisResult<Frame> {
            let nondist = sreq.reply_nondist_bytes();
            let mut data = data.iter();
            let body = ReplyParts {
                nondist: &nondist,
                dist_out: returning
                    .iter()
                    .map(|(i, d, _)| {
                        let data = if inline { data.next() } else { None };
                        (*i as u32, d.server_templ.len(), data)
                    })
                    .collect(),
            };
            let reply = ReplyHeader {
                request_id: header.request_id,
                status: ReplyStatus::NoException,
            };
            Ok(frame(endian, &reply, &body)?.0)
        });
    let blocks: Vec<_> = if inline {
        returning
            .iter()
            .map(|(_, d, local)| Lent {
                block: local,
                elem_size: d.elem_size,
                templ: &d.server_templ,
            })
            .collect()
    } else {
        Vec::new()
    };
    let rts = Some(&ctx.rts);
    if let Some(wire) = centralized::gather_frame(rts, write, &blocks, ctx.translate, timing)? {
        let ts = Instant::now();
        ctx.host
            .send_to(header.reply_host, header.reply_port, wire)?;
        timing.send += ts.elapsed();
    }

    if !inline {
        for (i, d, local) in &returning {
            let block = Block {
                req_id: header.request_id,
                arg: *i as u32,
                elem_size: d.elem_size,
                templ: &d.server_templ,
                peer: &d.client_templ,
                rank: ctx.rank(),
            };
            let to = (header.reply_host, &header.client_data_ports[..]);
            multiport::send_fragments(ctx, endian, block, local, to, timing)?;
        }
    }
    Ok(())
}

/// This thread's native-order local part of `block`'s argument, by
/// `mode`'s route: viewed in the argument's `inline` section of the
/// relayed frame (centralized; the view counts as `timing.scatter`),
/// or assembled from the fragments that reach this thread's data port
/// by `deadline` (multi-port). Adds the unmarshaling, and the fragment
/// wait, to `timing.recv_unpack`.
fn receive_block(
    ctx: &OrbCtx,
    mode: TransferMode,
    block: Block<'_>,
    inline: Option<&Frame>,
    deadline: Option<Instant>,
    timing: &mut InvokeTiming,
) -> PardisResult<Bytes> {
    match mode {
        TransferMode::Centralized => {
            let ts = Instant::now();
            let mine = centralized::own_block(block, inline)?;
            timing.scatter += ts.elapsed();
            let tu = Instant::now();
            let local = unpack(mine, block.elem_size, ctx.translate);
            timing.recv_unpack += tu.elapsed();
            Ok(local)
        }
        TransferMode::MultiPort => {
            let tr = Instant::now();
            let parts = multiport::recv_fragments(ctx, block, deadline)?;
            let local = unpack(parts, block.elem_size, ctx.translate);
            timing.recv_unpack += tr.elapsed();
            Ok(local)
        }
    }
}

/// Map a reply status to a client-visible result. Synthetic statuses
/// fabricated by the communicating thread on a local receive failure
/// are converted back to their typed CORBA-style errors.
fn status_to_result(status: &ReplyStatus) -> PardisResult<()> {
    match status {
        ReplyStatus::NoException => Ok(()),
        ReplyStatus::UserException(name) => Err(PardisError::UserException(name.clone())),
        ReplyStatus::SystemException(msg) => {
            if msg.strip_prefix(SYNTH_TIMEOUT).is_some() {
                Err(PardisError::Timeout)
            } else if let Some(rest) = msg.strip_prefix(SYNTH_COMM_FAILURE) {
                Err(PardisError::CommFailure(rest.trim().to_string()))
            } else {
                Err(PardisError::SystemException(msg.clone()))
            }
        }
        ReplyStatus::MembershipChange {
            epoch,
            dead,
            survivors,
        } => Err(PardisError::MembershipChange {
            epoch: *epoch,
            dead: dead.clone(),
            survivors: survivors.clone(),
        }),
    }
}

/// Build the synthetic status the communicating thread relays when its
/// own receive phase failed.
fn synthetic_status(e: &PardisError) -> ReplyStatus {
    match e {
        PardisError::Timeout => ReplyStatus::SystemException(format!("{SYNTH_TIMEOUT} {e}")),
        other => ReplyStatus::SystemException(format!("{SYNTH_COMM_FAILURE} {other}")),
    }
}

/// A Reply frame with `status` and an empty body: what a server sends
/// when an invocation failed, and what a client's communicating thread
/// relays when its own receive did.
pub(crate) fn error_reply(
    endian: Endian,
    request_id: u64,
    status: ReplyStatus,
) -> PardisResult<Frame> {
    let empty = ReplyBody {
        nondist: Bytes::new(),
        dist_out: vec![],
    };
    let header = ReplyHeader { request_id, status };
    Ok(GiopMessage::Reply(header, empty.to_bytes(endian)).encode(endian)?)
}

/// Whether data translation byte-swaps elements of `elem_size` bytes:
/// only 4- and 8-byte elements have a byte order.
pub(crate) fn translates(elem_size: usize, translate: bool) -> bool {
    translate && matches!(elem_size, 4 | 8)
}

/// Marshal `src` (native byte order) into `w` as a serial encoder
/// does: one copy, with every element byte-swapped in the same pass
/// when data translation is on (the §3.3 remark about heterogeneous
/// encodings). The tests' oracle for the frames the routes build.
#[cfg(test)]
pub(crate) fn pack(w: &mut CdrWriter, src: &[u8], elem_size: usize, translate: bool) {
    if translates(elem_size, translate) {
        w.put_swapped(src, elem_size);
    } else {
        w.put_bytes(src);
    }
}

/// This thread's native-order local part from the received pieces that
/// tile it, in element order. A single piece that needs no translation
/// is the local part as it is, a view of the frame it arrived in;
/// otherwise (translation, or a block that spans segments or
/// fragments) the pieces are unmarshaled into one new buffer.
pub(crate) fn unpack(parts: Frame, elem_size: usize, translate: bool) -> Bytes {
    if !translates(elem_size, translate) {
        return parts.into_bytes();
    }
    let mut w = CdrWriter::with_capacity(Endian::native(), parts.len());
    if parts.segments().all(|p| p.len() % elem_size == 0) {
        parts.segments().for_each(|p| w.put_swapped(p, elem_size));
    } else {
        // Segments cut inside an element: swap the stream as one.
        w.put_swapped(&parts.into_bytes(), elem_size);
    }
    w.into_shared()
}

/// A zero-filled local part for an `out` argument. An allocation that
/// fails is a typed error, not an abort; it is this thread's alone, so
/// the server agrees on the receive outcome of a request with one.
pub(crate) fn zeroed_local(
    templ: &DistTempl,
    rank: usize,
    elem_size: usize,
) -> PardisResult<Bytes> {
    let len = byte_len(templ.count(rank), elem_size)?;
    let mut local = Vec::new();
    local
        .try_reserve_exact(len)
        .map_err(|e| PardisError::BadDistArg(format!("`out` argument of {len} bytes: {e}")))?;
    local.resize(len, 0);
    Ok(local.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(src: &[u8], elem_size: usize, translate: bool) -> Vec<u8> {
        let mut w = CdrWriter::new(Endian::native());
        pack(&mut w, src, elem_size, translate);
        w.into_bytes()
    }

    #[test]
    fn pack_without_translation_is_copy() {
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(packed(&src, 8, false), src.to_vec());
    }

    #[test]
    fn pack_with_translation_swaps() {
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let swapped = packed(&src, 8, true);
        assert_eq!(swapped, vec![8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(packed(&swapped, 8, true), src.to_vec());
        assert_eq!(packed(&src, 4, true), vec![4, 3, 2, 1, 8, 7, 6, 5]);
    }

    #[test]
    fn octets_never_translate() {
        let src = [9u8, 8, 7];
        assert_eq!(packed(&src, 1, true), src.to_vec());
    }

    #[test]
    fn unpack_keeps_a_single_piece_in_place() {
        let frame = Bytes::from(vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9]);
        let piece = frame.slice(1..9);
        let local = unpack(Frame::from(piece.clone()), 8, false);
        assert_eq!(local.as_ptr(), piece.as_ptr());
        let swapped = unpack(Frame::from(piece.clone()), 8, true);
        assert_eq!(&swapped[..], &[9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn zeroed_local_refuses_a_block_too_large_to_allocate() {
        // Rank 0's block cannot be allocated, rank 1's can: a typed
        // error on rank 0, not an abort.
        let huge = DistTempl::from_counts(vec![1 << 61, 3]);
        let e = zeroed_local(&huge, 0, 1).unwrap_err();
        assert!(matches!(e, PardisError::BadDistArg(_)), "{e:?}");
        assert_eq!(&zeroed_local(&huge, 1, 1).unwrap()[..], &[0, 0, 0]);
    }

    #[test]
    fn unpack_joins_pieces_in_order() {
        let parts: Frame = [vec![1u8, 2, 3, 4], vec![5u8, 6, 7, 8]]
            .into_iter()
            .map(Bytes::from)
            .collect();
        assert_eq!(
            &unpack(parts.clone(), 4, false)[..],
            &[1, 2, 3, 4, 5, 6, 7, 8]
        );
        assert_eq!(
            &unpack(parts.clone(), 4, true)[..],
            &[4, 3, 2, 1, 8, 7, 6, 5]
        );
        // A cut inside an element swaps the same.
        let cut = parts.slice(0..3);
        let mut rest = parts.slice(3..8);
        rest.extend(&Frame::new());
        let mut odd = cut;
        odd.extend(&rest);
        assert_eq!(odd.segments().count(), 3);
        assert_eq!(&unpack(odd, 4, true)[..], &[4, 3, 2, 1, 8, 7, 6, 5]);
    }
}
