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
//!
//! Here a thread's block travels as DataTransfer fragments, one per
//! peer thread that owns a piece of it, from the sender's data port to
//! the owner's, in either direction. A fragment is a header segment
//! and a slice of the block's storage, linked in, not copied.

use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{byte_len, InvokeTiming};
use crate::transfer::{translates, Block};
use bytes::Bytes;
use pardis_cdr::{Endian, Frame};
use pardis_net::giop::{FrameWriter, GiopMessage, TransferHeader};
use pardis_net::{HostId, PortId};
use std::time::Instant;

/// Send this thread's block of an argument, `local`, as fragments to
/// the peer threads that own each piece, at their data ports `to` (the
/// peer's host and one port per peer thread). Each fragment's frame
/// links its slice of `local` in as it is, or, with data translation,
/// a byte-swapped copy written into the frame (the pack cost of the
/// paper's measurements, parallel across threads here); it adds to
/// `timing.pack` and `timing.send`.
pub(crate) fn send_fragments(
    ctx: &OrbCtx,
    endian: Endian,
    block: Block<'_>,
    local: &Bytes,
    to: (HostId, &[PortId]),
    timing: &mut InvokeTiming,
) -> PardisResult<()> {
    let Block {
        req_id,
        arg,
        elem_size,
        templ,
        peer,
        rank,
    } = block;
    let my_off = templ.offset(rank);
    for (dst, range) in templ.transfers_to(rank, peer) {
        let port = *to.1.get(dst).ok_or_else(|| {
            PardisError::BadDistArg(format!(
                "peer advertised {} data ports, routing needs thread {dst}",
                to.1.len()
            ))
        })?;
        let header = TransferHeader {
            request_id: req_id,
            arg_index: arg,
            src_thread: rank as u32,
            dst_thread: dst as u32,
            offset: range.start as u64,
            count: range.len() as u64,
            total_len: templ.len() as u64,
            epoch: ctx.rts.membership().epoch(),
        };
        let src = local.slice((range.start - my_off) * elem_size..(range.end - my_off) * elem_size);
        let tp = Instant::now();
        let wire = if translates(elem_size, ctx.translate) {
            let mut f = FrameWriter::new(endian, &header, src.len())?;
            f.body().put_swapped(&src, elem_size);
            f.finish()?
        } else {
            let mut f = FrameWriter::new(endian, &header, 0)?;
            f.lend(&Frame::from(src));
            f.finish()?
        };
        timing.pack += tp.elapsed();
        let ts = Instant::now();
        // Send from this thread's own data port: fragment flows are then
        // distinct per (source thread, destination thread), which keeps
        // seeded fault decisions independent of how the sending threads
        // interleave.
        ctx.host.send_from(ctx.data_port.port(), to.0, port, wire)?;
        timing.send += ts.elapsed();
    }
    Ok(())
}

/// The fragments of `block` that reach this thread's data port by
/// `deadline`, in element order, buffering any that belong to other
/// requests or arguments. Fragments carry global element offsets;
/// together they must tile the thread's range exactly. Every header is
/// checked against its body and the range before anything is
/// allocated.
pub(crate) fn recv_fragments(
    ctx: &OrbCtx,
    block: Block<'_>,
    deadline: Option<Instant>,
) -> PardisResult<Frame> {
    let key = (block.req_id, block.arg);
    let expected = block.templ.incoming_count(block.rank, block.peer);
    let mut got = Vec::with_capacity(expected);
    // Drain anything already buffered.
    {
        let mut frags = ctx.frags.borrow_mut();
        if let Some(q) = frags.get_mut(&key) {
            while got.len() < expected {
                match q.pop_front() {
                    Some(f) => got.push(f),
                    None => break,
                }
            }
            if q.is_empty() {
                frags.remove(&key);
            }
        }
    }
    // Then read from the port.
    while got.len() < expected {
        let dg = ctx
            .data_port
            .recv_deadline(deadline)
            .map_err(PardisError::from)?;
        match GiopMessage::decode(&dg.payload)? {
            GiopMessage::DataTransfer(h, body) => {
                let body = body.into_bytes();
                if (h.request_id, h.arg_index) == key {
                    got.push((h, body));
                } else {
                    ctx.frags
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

    let my = block.templ.range(block.rank);
    got.sort_by_key(|(h, _)| h.offset);
    let mut next = my.start;
    for (h, body) in &got {
        let off = usize::try_from(h.offset).unwrap_or(usize::MAX);
        let count = usize::try_from(h.count).unwrap_or(usize::MAX);
        if off != next || count > my.end - next {
            return Err(PardisError::BadDistArg(format!(
                "fragment at {} (+{}) does not continue local range [{}, {}) at {next}",
                h.offset, h.count, my.start, my.end
            )));
        }
        let want = byte_len(count, block.elem_size)?;
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
    Ok(got.into_iter().map(|(_, body)| body).collect())
}
