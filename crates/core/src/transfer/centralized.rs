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
//! The paper decomposes the total invocation time as
//! `T = t_gather + t_pack + t_wire + t_unpack + t_scatter`, with both
//! the gather and scatter terms growing with the number of computing
//! threads — the effect Table 1 measures, and `pardis-sim` reproduces.
//! Here a thread's block is a segment of the one frame, and neither
//! term moves data through the communicating thread:
//!
//! * every computing thread lends its block to the frame: the storage
//!   its sequence lends, or, with data translation, a byte-swapped copy
//!   it makes itself, in parallel with the others (DESIGN.md §13). One
//!   gather round brings every thread's blocks to the communicating
//!   thread by refcount, which writes the frame's header and metadata
//!   around them. The gather is then no copy at all, only the wait for
//!   the slowest thread;
//! * the communicating thread relays the frame it received, unchanged,
//!   and every thread checks the whole inline section of each argument
//!   and takes its own block from it: a view of the one segment that
//!   covers it, or one copy where it spans segments. The scatter is that
//!   view ([`InvokeTiming::scatter`]), with no collective of its own.

use crate::dist::DistTempl;
use crate::error::{PardisError, PardisResult};
use crate::request::{byte_len, InvokeTiming};
use crate::transfer::{translates, Block};
use bytes::Bytes;
use pardis_cdr::{CdrWriter, Endian, Frame};
use pardis_rts::Endpoint;
use std::time::Instant;

/// This thread's block of one sending argument, as the centralized
/// route lends it to the frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lent<'a> {
    /// The block in native byte order: the storage its sequence lends.
    pub block: &'a Bytes,
    /// Bytes per element.
    pub elem_size: usize,
    /// The argument's layout on this thread's machine.
    pub templ: &'a DistTempl,
}

/// The centralized method's gather: every computing thread lends its
/// `blocks` (one per sending argument), each byte-swapped into a new
/// segment of its own when `translate` applies, and the thread that
/// writes the frame (rank 0, holding `write`) gets every thread's
/// blocks by refcount and links them, in rank order, into the frame
/// `write` builds from each argument's inline data. On a collective
/// machine (`rts`) with anything to lend, that is one
/// [`Endpoint::gather_frames`]; without `rts` this thread is the only
/// one lending. Returns the frame on the writing thread, `None`
/// elsewhere.
///
/// Adds the translation and the frame's writing to `timing.pack`, and
/// the gather round to `timing.gather`.
pub(crate) fn gather_frame(
    rts: Option<&Endpoint>,
    write: Option<impl FnOnce(&[Frame]) -> PardisResult<Frame>>,
    blocks: &[Lent<'_>],
    translate: bool,
    timing: &mut InvokeTiming,
) -> PardisResult<Option<Frame>> {
    let tp = Instant::now();
    let mine: Frame = blocks
        .iter()
        .map(|b| lend(b.block, b.elem_size, translate))
        .collect();
    timing.pack += tp.elapsed();
    let gathered;
    let threads: &[Frame] = match rts.filter(|_| !blocks.is_empty()) {
        Some(rts) => {
            let tg = Instant::now();
            gathered = rts.gather_frames(0, mine)?;
            timing.gather += tg.elapsed();
            gathered.as_deref().unwrap_or_default()
        }
        None => std::slice::from_ref(&mine),
    };
    let Some(write) = write else {
        return Ok(None);
    };
    let tw = Instant::now();
    let frame = write(&inline_data(blocks, threads)?)?;
    timing.pack += tw.elapsed();
    Ok(Some(frame))
}

/// A block as it goes into the frame: the block itself, or its
/// byte-swapped copy when data translation applies (the sender's one
/// copy on that path).
fn lend(block: &Bytes, elem_size: usize, translate: bool) -> Bytes {
    if !translates(elem_size, translate) {
        return block.clone();
    }
    let mut w = CdrWriter::with_capacity(Endian::native(), block.len());
    w.put_swapped(block, elem_size);
    w.into_shared()
}

/// Each argument's inline data from the blocks every thread lent:
/// thread `t`'s frame holds its block of each argument in turn, the
/// one of argument `b` being `b.templ.count(t)` elements long. A frame
/// of another length (a thread confirmed dead before it lent) is
/// refused.
fn inline_data(blocks: &[Lent<'_>], threads: &[Frame]) -> PardisResult<Vec<Frame>> {
    let block_len = |b: &Lent<'_>, t: usize| match b.templ.counts().get(t) {
        Some(&count) => byte_len(count, b.elem_size),
        None => Err(PardisError::BadDistArg(format!(
            "no template names thread {t}"
        ))),
    };
    let mut inline = vec![Frame::new(); blocks.len()];
    for (t, lent) in threads.iter().enumerate() {
        let mut want = 0usize;
        for b in blocks {
            want = want.saturating_add(block_len(b, t)?);
        }
        if want != lent.len() {
            return Err(PardisError::BadDistArg(format!(
                "thread {t} lent {} bytes, its blocks take {want}",
                lent.len()
            )));
        }
        let mut at = 0;
        for (b, data) in blocks.iter().zip(&mut inline) {
            let len = block_len(b, t)?;
            data.extend(&lent.slice(at..at + len));
            at += len;
        }
    }
    Ok(inline)
}

/// `block`'s bytes in its argument's inline section `data`: a view of
/// the frame it arrived in. Every thread holds the whole frame and
/// checks the whole section, so all of them reach the same verdict on
/// it.
pub(crate) fn own_block(block: Block<'_>, data: Option<&Frame>) -> PardisResult<Frame> {
    let (arg, elem_size) = (block.arg, block.elem_size);
    let data = data.ok_or_else(|| {
        PardisError::BadDistArg(format!(
            "centralized frame carries no data for argument {arg}"
        ))
    })?;
    let want = byte_len(block.templ.len(), elem_size)?;
    if data.len() != want {
        return Err(PardisError::BadDistArg(format!(
            "argument {arg}: inline data {} bytes, template covers {want}",
            data.len()
        )));
    }
    let r = block.templ.range(block.rank);
    Ok(data.slice(r.start * elem_size..r.end * elem_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistTempl;
    use crate::request::{
        frame, ArgDir, DistArgMeta, ReplyBody, ReplyParts, RequestBody, RequestParts,
    };
    use crate::transfer::pack;
    use pardis_net::giop::{GiopMessage, ReplyHeader, ReplyStatus, RequestHeader, TransferMode};
    use pardis_net::HostId;
    use pardis_rts::Domain;
    use proptest::prelude::*;

    /// One distributed argument of a generated invocation, laid out by
    /// `templ` over the machine that packs it.
    #[derive(Debug, Clone)]
    struct Arg {
        meta: DistArgMeta,
        templ: DistTempl,
    }

    /// Splitmix64: the generated case's only source of choices.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One to three arguments mixing `in`, `inout` and `out`, with 1-,
    /// 4- and 8-byte elements, laid out blockwise or in uneven
    /// proportions in which some threads own nothing.
    fn gen_args(seed: u64, threads: usize) -> Vec<Arg> {
        let mut x = seed;
        let n = 1 + next(&mut x) as usize % 3;
        (0..n)
            .map(|_| {
                let dir = [ArgDir::In, ArgDir::InOut, ArgDir::Out][next(&mut x) as usize % 3];
                let elem_size = [1, 4, 8][next(&mut x) as usize % 3];
                let templ = if next(&mut x).is_multiple_of(2) {
                    DistTempl::block(next(&mut x) as usize % 40, threads)
                } else {
                    DistTempl::from_counts(
                        (0..threads)
                            .map(|_| match next(&mut x) % 3 {
                                0 => 0,
                                _ => next(&mut x) as usize % 17,
                            })
                            .collect(),
                    )
                };
                let meta = DistArgMeta {
                    dir,
                    elem_size,
                    total_len: templ.len(),
                    client_counts: templ.counts().to_vec(),
                    server_counts: DistTempl::block(templ.len(), 3).counts().to_vec(),
                };
                Arg { meta, templ }
            })
            .collect()
    }

    /// Thread `rank`'s block of argument `idx`: bytes that differ by
    /// thread, argument and position.
    fn block(idx: usize, arg: &Arg, rank: usize) -> Vec<u8> {
        let len = arg.templ.count(rank) * arg.meta.elem_size;
        (0..len)
            .map(|i| (i * 7 + rank * 31 + idx * 101 + 1) as u8)
            .collect()
    }

    /// The serial encoding of an argument's inline data: every thread's
    /// block gathered in one place and packed after the other.
    fn serial_inline(idx: usize, arg: &Arg, translate: bool) -> Frame {
        let mut w = CdrWriter::new(Endian::native());
        for rank in 0..arg.templ.nthreads() {
            pack(
                &mut w,
                &block(idx, arg, rank),
                arg.meta.elem_size,
                translate,
            );
        }
        Frame::from(w.into_shared())
    }

    fn request_header(threads: usize) -> RequestHeader {
        RequestHeader {
            request_id: 77,
            object_name: "object".into(),
            operation: "operation".into(),
            response_expected: true,
            reply_host: HostId(1),
            reply_port: 9,
            mode: TransferMode::Centralized,
            client_threads: threads as u32,
            client_data_ports: vec![],
            service_context: vec![(3, Bytes::from_static(b"ctx"))],
        }
    }

    fn reply_header() -> ReplyHeader {
        ReplyHeader {
            request_id: 77,
            status: ReplyStatus::NoException,
        }
    }

    /// The Request and Reply frames of the invocation, as a serial
    /// encoder writes them: inline data gathered, then packed serially,
    /// and the bodies encoded into one buffer each.
    fn serial_frames(
        args: &[Arg],
        nondist: &Bytes,
        endian: Endian,
        translate: bool,
    ) -> [Vec<u8>; 2] {
        let request = RequestBody {
            nondist: nondist.clone(),
            dist: args
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let data = a.meta.dir.sends().then(|| serial_inline(i, a, translate));
                    (a.meta.clone(), data)
                })
                .collect(),
        };
        let reply = ReplyBody {
            nondist: nondist.clone(),
            dist_out: args
                .iter()
                .enumerate()
                .filter(|(_, a)| a.meta.dir.returns())
                .map(|(i, a)| {
                    (
                        i as u32,
                        a.templ.len(),
                        Some(serial_inline(i, a, translate)),
                    )
                })
                .collect(),
        };
        let threads = args[0].templ.nthreads();
        [
            GiopMessage::Request(request_header(threads), request.to_bytes(endian)),
            GiopMessage::Reply(reply_header(), reply.to_bytes(endian)),
        ]
        .map(|m| m.encode(endian).unwrap().to_vec())
    }

    /// The same two frames as the centralized route builds them: every
    /// rank of `rts` (or this thread alone) lends its own blocks and
    /// rank 0 writes each frame around them. Flattened, segment
    /// boundaries dropped.
    fn parallel_frames(
        rts: Option<&Endpoint>,
        args: &[Arg],
        nondist: &Bytes,
        endian: Endian,
        translate: bool,
    ) -> Option<[Vec<u8>; 2]> {
        let rank = rts.map_or(0, Endpoint::rank);
        let blocks: Vec<Bytes> = args
            .iter()
            .enumerate()
            .map(|(i, a)| Bytes::from(block(i, a, rank)))
            .collect();
        let mine = |dir: fn(ArgDir) -> bool| -> Vec<Lent<'_>> {
            args.iter()
                .zip(&blocks)
                .filter(|(a, _)| dir(a.meta.dir))
                .map(|(a, b)| Lent {
                    block: b,
                    elem_size: a.meta.elem_size,
                    templ: &a.templ,
                })
                .collect()
        };
        let mut timing = InvokeTiming::default();
        let threads = args[0].templ.nthreads();

        let request = (rank == 0).then_some(|data: &[Frame]| {
            let mut data = data.iter();
            let body = RequestParts {
                nondist,
                dist: args
                    .iter()
                    .map(|a| (&a.meta, a.meta.dir.sends().then(|| data.next()).flatten()))
                    .collect(),
            };
            Ok(frame(endian, &request_header(threads), &body)?.0)
        });
        let request = gather_frame(rts, request, &mine(ArgDir::sends), translate, &mut timing);

        let reply = (rank == 0).then_some(|data: &[Frame]| {
            let mut data = data.iter();
            let body = ReplyParts {
                nondist,
                dist_out: args
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.meta.dir.returns())
                    .map(|(i, a)| (i as u32, a.templ.len(), data.next()))
                    .collect(),
            };
            Ok(frame(endian, &reply_header(), &body)?.0)
        });
        let reply = gather_frame(rts, reply, &mine(ArgDir::returns), translate, &mut timing);
        match (request.unwrap(), reply.unwrap()) {
            (Some(request), Some(reply)) => Some([request.to_vec(), reply.to_vec()]),
            (None, None) => None,
            other => panic!("rank {rank}: one frame without the other: {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn parallel_packing_matches_the_serial_encoding(
            threads in 1usize..5,
            seed in any::<u64>(),
            translate in any::<bool>(),
            big_endian in any::<bool>(),
        ) {
            let endian = if big_endian { Endian::Big } else { Endian::Little };
            let args = gen_args(seed, threads);
            let nondist = Bytes::from(vec![5u8; seed as usize % 13]);
            let want = serial_frames(&args, &nondist, endian, translate);
            let (a, n) = (args.clone(), nondist.clone());
            let frames = Domain::run(threads, move |ep| {
                parallel_frames(Some(&ep), &a, &n, endian, translate)
            });
            prop_assert_eq!(frames[0].as_ref(), Some(&want));
            prop_assert!(frames[1..].iter().all(Option::is_none));
            if threads == 1 {
                // A thread packing alone (a per-thread binding) builds
                // the same frames without a collective.
                let alone = parallel_frames(None, &args, &nondist, endian, translate);
                prop_assert_eq!(alone, Some(want));
            }
        }
    }
}
