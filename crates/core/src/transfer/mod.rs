//! Distributed-argument transfer engines.
//!
//! The paper's §3 investigates two ways of moving distributed arguments
//! between the computing threads of a parallel client and a parallel
//! server:
//!
//! * [`centralized`] — one network connection; arguments are gathered at
//!   a *communicating thread*, travel inside the request/reply message,
//!   and are scattered on the far side (figure 2),
//! * [`multiport`] — every computing thread owns a port; the invocation
//!   header still travels centrally, but argument data flows directly
//!   thread-to-thread according to the overlap of the two distribution
//!   templates (figure 3).
//!
//! This module holds the pieces both engines share: the client's Reply
//! relay, the one marshaling copy (with optional data translation),
//! fragment reassembly, and phase timing.

pub mod centralized;
pub mod multiport;

use crate::client::{PendingDist, PendingInvoke, Proxy};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{byte_len, InvokeTiming, ReplyBody};
use bytes::Bytes;
use pardis_cdr::{CdrWriter, Endian};
use pardis_net::giop::{FrameWriter, GiopMessage, ReplyHeader, ReplyStatus, TransferHeader};
use std::time::Instant;

/// Prefix used when the communicating thread converts a local receive
/// timeout into a synthetic relayed Reply, so every computing thread of
/// the client resolves to the same [`PardisError::Timeout`].
const SYNTH_TIMEOUT: &str = "TIMEOUT:";
/// Same, for transport failures → [`PardisError::CommFailure`].
const SYNTH_COMM_FAILURE: &str = "COMM_FAILURE:";

/// The service-context entries for the header of outgoing request
/// `req_id`: its tracing context when observability is compiled in,
/// nothing otherwise.
pub(crate) fn service_context_entries(ctx: &OrbCtx, req_id: u64) -> Vec<(u32, Bytes)> {
    #[cfg(feature = "obs")]
    {
        crate::obs::service_context(ctx, req_id)
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = (ctx, req_id);
        Vec::new()
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
) -> PardisResult<Bytes> {
    let empty = ReplyBody {
        nondist: Bytes::new(),
        dist_out: vec![],
    };
    let header = ReplyHeader { request_id, status };
    Ok(GiopMessage::Reply(header, empty.to_bytes(endian)).encode(endian)?)
}

/// A successful Reply as every computing thread of the client reads it
/// from the relayed frame.
pub(crate) struct RelayedReply<'p> {
    /// The marshaled non-distributed results.
    pub nondist: Bytes,
    /// Per returning argument: its index in the request, its routing,
    /// and the inline data the frame carries for it (the centralized
    /// method's; none in the multi-port method).
    pub dist_out: Vec<(u32, &'p PendingDist, Option<Bytes>)>,
}

/// The client's receive relay, one for both transfer methods. The
/// communicating thread receives the Reply frame, or builds a small
/// synthetic error Reply when its receive failed (deadline exceeded,
/// connection reset, undecodable frame), and a collective binding
/// broadcasts that frame unchanged. Every thread then decodes it and
/// checks each returning argument against the request, so all of them
/// reach the same verdict from the same bytes. Adds the receive and the
/// decode to `timing.recv_unpack`.
pub(crate) fn relay_reply<'p>(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &'p PendingInvoke,
    timing: &mut InvokeTiming,
) -> PardisResult<RelayedReply<'p>> {
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
                ctx.rts.broadcast(0, Some(frame.clone()))?;
            }
            frame
        }
        None => ctx.rts.broadcast(0, None)?,
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

    let mut dist_out = Vec::with_capacity(body.dist_out.len());
    for (arg_idx, total_len, data) in body.dist_out {
        let d = pending
            .dist
            .get(arg_idx as usize)
            .ok_or_else(|| PardisError::BadDistArg(format!("reply names unknown arg {arg_idx}")))?;
        if d.client_templ.len() != total_len {
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
        dist_out.push((arg_idx, d, data));
    }
    Ok(RelayedReply {
        nondist: body.nondist,
        dist_out,
    })
}

/// Whether data translation byte-swaps elements of `elem_size` bytes:
/// only 4- and 8-byte elements have a byte order.
pub(crate) fn translates(elem_size: usize, translate: bool) -> bool {
    translate && matches!(elem_size, 4 | 8)
}

/// Marshal `src` (native byte order) into `w`: one copy, with every
/// element byte-swapped in the same pass when data translation is on
/// (the §3.3 remark about heterogeneous encodings). This is the "pack"
/// cost of the paper's measurements. Translating twice restores the
/// original, so receivers unmarshal translated data through it too.
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
/// otherwise the pieces are unmarshaled into one new buffer.
pub(crate) fn unpack(parts: &[Bytes], elem_size: usize, translate: bool) -> Bytes {
    if let [only] = parts {
        if !translates(elem_size, translate) {
            return only.clone();
        }
    }
    let len = parts.iter().map(|p| p.len()).sum();
    let mut w = CdrWriter::with_capacity(Endian::native(), len);
    for p in parts {
        pack(&mut w, p, elem_size, translate);
    }
    w.into_shared()
}

/// Build a DataTransfer frame, marshaling the fragment `src` straight
/// into it.
pub(crate) fn transfer_frame(
    endian: Endian,
    header: &TransferHeader,
    src: &[u8],
    elem_size: usize,
    translate: bool,
) -> PardisResult<Bytes> {
    let mut f = FrameWriter::new(endian, header, src.len())?;
    pack(f.body(), src, elem_size, translate);
    Ok(f.finish()?)
}

/// A zero-filled local part for an `out` argument. An allocation that
/// fails is a typed error, not an abort; it is this thread's alone, so
/// the server agrees on the receive outcome of a request with one.
pub(crate) fn zeroed_local(
    templ: &crate::dist::DistTempl,
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

impl OrbCtx {
    /// Collect `expected` DataTransfer fragments for `(req_id, arg)` from
    /// this thread's data port, buffering any fragments that belong to
    /// other requests or arguments.
    pub(crate) fn recv_fragments(
        &self,
        req_id: u64,
        arg: u32,
        expected: usize,
        deadline: Option<Instant>,
    ) -> PardisResult<Vec<(TransferHeader, Bytes)>> {
        let mut got = Vec::with_capacity(expected);
        // Drain anything already buffered.
        {
            let mut frags = self.frags.borrow_mut();
            if let Some(q) = frags.get_mut(&(req_id, arg)) {
                while got.len() < expected {
                    match q.pop_front() {
                        Some(f) => got.push(f),
                        None => break,
                    }
                }
                if q.is_empty() {
                    frags.remove(&(req_id, arg));
                }
            }
        }
        // Then read from the port.
        while got.len() < expected {
            let dg = self
                .data_port
                .recv_deadline(deadline)
                .map_err(PardisError::from)?;
            match GiopMessage::decode(&dg.payload)? {
                GiopMessage::DataTransfer(h, body) => {
                    if h.request_id == req_id && h.arg_index == arg {
                        got.push((h, body));
                    } else {
                        self.frags
                            .borrow_mut()
                            .entry((h.request_id, h.arg_index))
                            .or_default()
                            .push_back((h, body));
                    }
                }
                other => {
                    return Err(PardisError::Net(format!(
                        "unexpected message on data port: {other:?}"
                    )))
                }
            }
        }
        Ok(got)
    }

    /// Assemble received fragments into this thread's local part of a
    /// sequence laid out by `templ`. Fragments carry global element
    /// offsets; together they must tile `templ.range(self.rank())`
    /// exactly. Every header is checked against its body and the range
    /// before anything is allocated.
    pub(crate) fn assemble_local(
        &self,
        frags: &mut [(TransferHeader, Bytes)],
        templ: &crate::dist::DistTempl,
        elem_size: usize,
    ) -> PardisResult<Bytes> {
        let my = templ.range(self.rank());
        frags.sort_by_key(|(h, _)| h.offset);
        let mut next = my.start;
        for (h, body) in frags.iter() {
            let off = usize::try_from(h.offset).unwrap_or(usize::MAX);
            let count = usize::try_from(h.count).unwrap_or(usize::MAX);
            if off != next || count > my.end - next {
                return Err(PardisError::BadDistArg(format!(
                    "fragment at {} (+{}) does not continue local range [{}, {}) at {next}",
                    h.offset, h.count, my.start, my.end
                )));
            }
            let want = byte_len(count, elem_size)?;
            if body.len() != want {
                return Err(PardisError::BadDistArg(format!(
                    "fragment body {} bytes, header promises {want}",
                    body.len()
                )));
            }
            next += count;
        }
        if next != my.end {
            return Err(PardisError::BadDistArg(format!(
                "fragments cover [{}, {next}) of local range [{}, {})",
                my.start, my.start, my.end
            )));
        }
        let bodies: Vec<Bytes> = frags.iter().map(|(_, b)| b.clone()).collect();
        Ok(unpack(&bodies, elem_size, self.translate))
    }
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
        let local = unpack(std::slice::from_ref(&piece), 8, false);
        assert_eq!(local.as_ptr(), piece.as_ptr());
        let swapped = unpack(std::slice::from_ref(&piece), 8, true);
        assert_eq!(&swapped[..], &[9, 8, 7, 6, 5, 4, 3, 2]);
    }

    #[test]
    fn zeroed_local_refuses_a_block_too_large_to_allocate() {
        use crate::dist::DistTempl;
        // Rank 0's block cannot be allocated, rank 1's can: a typed
        // error on rank 0, not an abort.
        let huge = DistTempl::from_counts(vec![1 << 61, 3]);
        let e = zeroed_local(&huge, 0, 1).unwrap_err();
        assert!(matches!(e, PardisError::BadDistArg(_)), "{e:?}");
        assert_eq!(&zeroed_local(&huge, 1, 1).unwrap()[..], &[0, 0, 0]);
    }

    #[test]
    fn unpack_joins_pieces_in_order() {
        let parts = [
            Bytes::from(vec![1u8, 2, 3, 4]),
            Bytes::from(vec![5u8, 6, 7, 8]),
        ];
        assert_eq!(&unpack(&parts, 4, false)[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&unpack(&parts, 4, true)[..], &[4, 3, 2, 1, 8, 7, 6, 5]);
    }
}
