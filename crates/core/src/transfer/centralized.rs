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
//! Here a thread's block is a slot of the one frame, and neither term
//! moves data through the communicating thread:
//!
//! * marshaling runs on every computing thread: the communicating
//!   thread writes the frame's skeleton (header and metadata, with a
//!   hole per distributed argument), and each thread packs its own
//!   block straight into its slot of the hole, in parallel (DESIGN.md
//!   §13). The gather is then no copy of its own, only the wait for the
//!   slowest block;
//! * the communicating thread relays the frame it received, unchanged,
//!   and every thread checks the whole inline section of each argument
//!   and takes its own block from it in place. The scatter is that
//!   slice ([`InvokeTiming::scatter`]), with no collective of its own.

use crate::error::{PardisError, PardisResult};
use crate::request::{byte_len, InvokeTiming};
use crate::transfer::{translates, Block};
use bytes::Bytes;
use pardis_cdr::{SlotError, SlottedBuf};
use pardis_net::giop::FrameWriter;
use pardis_rts::{Endpoint, RtsError};
use std::time::{Duration, Instant};

/// The centralized method's one pack: every computing thread packs its
/// own `blocks` (one per hole of the frame, with its element size) into
/// its slots, translating in the same pass, and the frame comes out,
/// finished, on the thread that wrote its `skeleton` (rank 0). On a
/// collective machine (`rts`) with anything to pack, that is one
/// [`Endpoint::gather_into`]; without `rts` this thread is the only one
/// packing. A frame without holes (no `blocks`) is the skeleton itself.
///
/// `started` is when this thread began the send phase (before the
/// skeleton). Adds its marshaling since then (the skeleton and its own
/// blocks) to `timing.pack`, and its waiting (for the frame to pack
/// into, or for the other threads' blocks) to `timing.gather`.
pub(crate) fn gather_frame(
    rts: Option<&Endpoint>,
    skeleton: Option<FrameWriter>,
    blocks: &[(&[u8], usize)],
    translate: bool,
    started: Instant,
    timing: &mut InvokeTiming,
) -> PardisResult<Option<Bytes>> {
    let Some(rts) = rts.filter(|_| !blocks.is_empty()) else {
        // No other thread packs: the skeleton's writer finishes the
        // frame alone, and a frame without holes is the skeleton.
        let Some(skeleton) = skeleton else {
            return Ok(None);
        };
        let wire = if blocks.is_empty() {
            skeleton.finish()?
        } else {
            let frame = skeleton.finish_slotted()?;
            pack_blocks(&frame, blocks, 0, 1, translate).map_err(RtsError::from)?;
            frame.into_bytes().map_err(RtsError::from)?
        };
        timing.pack += started.elapsed();
        return Ok(Some(wire));
    };
    let skeleton = skeleton.map(FrameWriter::finish_slotted).transpose()?;
    let mut packed = (started, started);
    let wire = rts.gather_into(0, skeleton, |frame| {
        let t0 = Instant::now();
        let filled = pack_blocks(frame, blocks, rts.rank(), rts.size(), translate);
        packed = (t0, Instant::now());
        filled
    })?;
    let (t0, t1) = packed;
    // Before its own fill, the root was writing the skeleton; any
    // other rank was waiting for it.
    let (pack, wait) = if wire.is_some() {
        (t1 - started, Duration::ZERO)
    } else {
        (t1 - t0, t0 - started)
    };
    timing.pack += pack;
    timing.gather += wait + t1.elapsed();
    Ok(wire)
}

/// Pack thread `rank`'s block of each hole into its slot (numbered as
/// [`crate::request::frame`] describes, with `threads` slots per hole).
fn pack_blocks(
    frame: &SlottedBuf,
    blocks: &[(&[u8], usize)],
    rank: usize,
    threads: usize,
    translate: bool,
) -> Result<(), SlotError> {
    for (hole, &(block, elem_size)) in blocks.iter().enumerate() {
        let slot = hole * (threads + 1) + 1 + rank;
        if translates(elem_size, translate) {
            frame.fill_swapped(slot, block, elem_size)?;
        } else {
            frame.fill(slot, block)?;
        }
    }
    Ok(())
}

/// `block`'s bytes in its argument's inline section `data`: a view of
/// the frame it arrived in. Every thread holds the whole frame and
/// checks the whole section, so all of them reach the same verdict on
/// it.
pub(crate) fn own_block(block: Block<'_>, data: Option<Bytes>) -> PardisResult<Bytes> {
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
        frame, ArgDir, DistArgMeta, ReplyBody, ReplyParts, RequestBody, RequestParts, Slots,
    };
    use crate::transfer::pack;
    use pardis_cdr::{CdrWriter, Endian};
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
    fn serial_inline(idx: usize, arg: &Arg, translate: bool) -> Bytes {
        let mut w = CdrWriter::new(Endian::native());
        for rank in 0..arg.templ.nthreads() {
            pack(
                &mut w,
                &block(idx, arg, rank),
                arg.meta.elem_size,
                translate,
            );
        }
        w.into_shared()
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

    /// The Request and Reply frames of the invocation, as the parent
    /// encoder wrote them: inline data gathered, then packed serially.
    fn serial_frames(args: &[Arg], nondist: &Bytes, endian: Endian, translate: bool) -> [Bytes; 2] {
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
        .map(|m| m.encode(endian).unwrap())
    }

    /// The same two frames as the centralized route builds them: rank
    /// 0 writes each skeleton and every rank of `rts` (or this thread
    /// alone) packs its own blocks into it.
    fn parallel_frames(
        rts: Option<&Endpoint>,
        args: &[Arg],
        nondist: &Bytes,
        endian: Endian,
        translate: bool,
    ) -> Option<[Bytes; 2]> {
        let rank = rts.map_or(0, Endpoint::rank);
        let slots: Vec<Slots> = args
            .iter()
            .map(|a| Slots::new(&a.templ, a.meta.elem_size).unwrap())
            .collect();
        let blocks: Vec<Vec<u8>> = args
            .iter()
            .enumerate()
            .map(|(i, a)| block(i, a, rank))
            .collect();
        let mine = |dir: fn(ArgDir) -> bool| -> Vec<(&[u8], usize)> {
            args.iter()
                .zip(&blocks)
                .filter(|(a, _)| dir(a.meta.dir))
                .map(|(a, b)| (&b[..], a.meta.elem_size))
                .collect()
        };
        let mut timing = InvokeTiming::default();

        let request = (rank == 0).then(|| {
            let body = RequestParts {
                nondist,
                dist: args
                    .iter()
                    .zip(&slots)
                    .map(|(a, s)| (&a.meta, a.meta.dir.sends().then_some(*s)))
                    .collect(),
            };
            let threads = args[0].templ.nthreads();
            frame(endian, &request_header(threads), &body).unwrap().0
        });
        let started = Instant::now();
        let request = gather_frame(
            rts,
            request,
            &mine(ArgDir::sends),
            translate,
            started,
            &mut timing,
        );

        let reply = (rank == 0).then(|| {
            let body = ReplyParts {
                nondist,
                dist_out: args
                    .iter()
                    .enumerate()
                    .zip(&slots)
                    .filter(|((_, a), _)| a.meta.dir.returns())
                    .map(|((i, a), s)| (i as u32, a.templ.len(), Some(*s)))
                    .collect(),
            };
            frame(endian, &reply_header(), &body).unwrap().0
        });
        let reply = gather_frame(
            rts,
            reply,
            &mine(ArgDir::returns),
            translate,
            started,
            &mut timing,
        );
        match (request.unwrap(), reply.unwrap()) {
            (Some(request), Some(reply)) => Some([request, reply]),
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
