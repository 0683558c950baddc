//! Decode robustness: a malformed wire buffer must produce `Err`,
//! never a panic and never a bogus `Ok`.
//!
//! Three sources of malformation are exercised: systematic truncation
//! (every prefix of a valid message), systematic single-byte flips
//! (every offset of a valid message), and misalignment (valid bytes at
//! the wrong offset). A final test feeds real corrupted frames through
//! the fault-injecting fabric, closing the loop with the chaos
//! machinery: the exact damage the [`pardis_net::FaultPlan`] inflicts
//! is the damage the decoders must survive. Two tests feed well-formed
//! frames whose length fields overflow when multiplied out, to the body
//! decoder and to a live server, in both transfer modes. The last three
//! send a two-thread server centralized Requests whose inline sections
//! do not fit their argument, a three-thread server Requests that break
//! the other checks of its receive, and a two-thread client centralized
//! Replies that do not fit its request: every thread must reach the
//! same typed verdict within a bound instead of leaving one thread
//! waiting for the others. The servers reach a verdict on the frame
//! with no collective, since every thread checks the same relayed
//! frame; an `out` block one thread alone cannot allocate is agreed on.
//! The last test gives one client thread an argument block that does
//! not fit its template: every thread refuses the invocation before
//! anything is sent, in both transfer methods.

use bytes::Bytes;
use pardis::apps::diffusion::DiffusionServant;
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectProxy, diff_objectSkeleton};
use pardis_cdr::Endian;
use pardis_core::request::{DistArgMeta, ReplyBody, RequestBody};
use pardis_net::fault::PER_MILLION;
use pardis_net::giop::{GiopMessage, ReplyHeader, ReplyStatus, RequestHeader, TransferHeader};
use pardis_net::ior::ObjectRef;
use pardis_net::{Fabric, FaultPlan, Frame, HostId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn sample_request(endian: Endian) -> Frame {
    let body = RequestBody {
        nondist: Bytes::from_static(b"\x01\x02\x03\x04"),
        dist: vec![],
    };
    let header = RequestHeader {
        request_id: 7,
        object_name: "diffusion".into(),
        operation: "step".into(),
        response_expected: true,
        reply_host: HostId(0),
        reply_port: 3,
        mode: TransferMode::Centralized,
        client_threads: 4,
        client_data_ports: vec![5, 6, 7, 8],
        service_context: vec![],
    };
    GiopMessage::Request(header, body.to_bytes(endian))
        .encode(endian)
        .unwrap()
}

fn sample_reply(endian: Endian) -> Frame {
    let body = ReplyBody {
        nondist: Bytes::from_static(b"\x09\x08"),
        dist_out: vec![(0, 128, Some(Frame::from(vec![0xAB; 64])))],
    };
    GiopMessage::Reply(
        ReplyHeader {
            request_id: 7,
            status: ReplyStatus::NoException,
        },
        body.to_bytes(endian),
    )
    .encode(endian)
    .unwrap()
}

fn sample_transfer(endian: Endian) -> Frame {
    GiopMessage::DataTransfer(
        TransferHeader {
            request_id: 7,
            arg_index: 1,
            src_thread: 2,
            dst_thread: 3,
            offset: 32,
            count: 8,
            total_len: 256,
            epoch: 0,
        },
        Bytes::from(vec![0x5A; 64]),
    )
    .encode(endian)
    .unwrap()
}

/// What the full decode pipeline makes of one buffer: the frame, then
/// the matching body, or the first error, as text.
type Decoded = Result<(GiopMessage<Frame>, Option<RequestBody>, Option<ReplyBody>), String>;

fn decoded(buf: &Frame) -> Decoded {
    let endian = GiopMessage::body_endian(buf).map_err(|e| format!("{e:?}"))?;
    let msg = GiopMessage::decode(buf).map_err(|e| format!("{e:?}"))?;
    let (request, reply) = match &msg {
        GiopMessage::Request(_, body) => (Some(RequestBody::decode(body, endian)), None),
        GiopMessage::Reply(_, body) => (None, Some(ReplyBody::decode(body, endian))),
        _ => (None, None),
    };
    let request = request.transpose().map_err(|e| format!("{e:?}"))?;
    let reply = reply.transpose().map_err(|e| format!("{e:?}"))?;
    Ok((msg, request, reply))
}

/// Try the full decode pipeline on one buffer. Returns whether
/// everything decoded. The point of calling it on damaged buffers is
/// that it must return, not panic.
fn decode_pipeline(buf: &Frame) -> bool {
    decoded(buf).is_ok()
}

/// `buf` cut into two segments at `at`.
fn cut(buf: &[u8], at: usize) -> Frame {
    [&buf[..at], &buf[at..]]
        .into_iter()
        .map(Bytes::copy_from_slice)
        .collect()
}

/// Every damaged buffer the tests above feed the pipeline, from `wire`:
/// each truncation, each single-byte flip and each misalignment.
fn damaged(wire: &Frame) -> Vec<Vec<u8>> {
    let whole = wire.to_vec();
    let mut out: Vec<Vec<u8>> = (0..whole.len()).map(|len| whole[..len].to_vec()).collect();
    for pos in 0..whole.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut d = whole.clone();
            d[pos] ^= flip;
            out.push(d);
        }
    }
    for pad in 1..8usize {
        let mut shifted = vec![0xEEu8; pad];
        shifted.extend_from_slice(&whole);
        out.push(shifted);
    }
    out
}

#[test]
fn every_truncation_errs_never_panics() {
    for endian in [Endian::Big, Endian::Little] {
        for wire in [
            sample_request(endian),
            sample_reply(endian),
            sample_transfer(endian),
        ] {
            for len in 0..wire.len() {
                let cut = wire.slice(0..len);
                assert!(
                    !decode_pipeline(&cut) || len == wire.len(),
                    "truncated buffer ({len}/{} bytes) decoded Ok",
                    wire.len()
                );
            }
            // The intact message still decodes.
            assert!(decode_pipeline(&wire));
        }
    }
}

#[test]
fn every_single_byte_flip_is_survived() {
    for endian in [Endian::Big, Endian::Little] {
        for wire in [
            sample_request(endian),
            sample_reply(endian),
            sample_transfer(endian),
        ] {
            for pos in 0..wire.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut damaged = wire.to_vec();
                    damaged[pos] ^= flip;
                    // Either verdict is acceptable (a flipped payload
                    // byte is undetectable); what matters is that the
                    // decoder returns instead of panicking or
                    // over-allocating on a wild length field.
                    let _ = decode_pipeline(&Frame::from(damaged));
                }
            }
        }
    }
}

#[test]
fn misaligned_buffers_err() {
    for endian in [Endian::Big, Endian::Little] {
        let wire = sample_request(endian);
        // Leading garbage shifts every length field off its slot.
        for pad in 1..8usize {
            let mut shifted = vec![0xEEu8; pad];
            shifted.extend_from_slice(&wire.to_vec());
            assert!(
                !decode_pipeline(&Frame::from(shifted)),
                "misaligned buffer (pad {pad}) decoded Ok"
            );
        }
        // Tail garbage after a valid frame must not be silently eaten.
        let mut padded = wire.to_vec();
        padded.extend_from_slice(&[0xEE; 7]);
        let _ = decode_pipeline(&Frame::from(padded));
    }
}

#[test]
fn every_damaged_frame_decodes_the_same_however_it_is_cut() {
    // A receiver reads a frame as the segments it arrived in. Every
    // damaged buffer above, cut into two segments at every offset,
    // must reach the verdict the contiguous buffer reaches: the same
    // message, or the same typed error.
    let mut checked = 0;
    for endian in [Endian::Big, Endian::Little] {
        for wire in [
            sample_request(endian),
            sample_reply(endian),
            sample_transfer(endian),
        ] {
            for buf in damaged(&wire).into_iter().chain([wire.to_vec()]) {
                let want = decoded(&Frame::from(buf.clone()));
                for at in 0..=buf.len() {
                    assert_eq!(decoded(&cut(&buf, at)), want, "cut at {at} of {buf:02x?}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 100_000, "{checked}");
}

#[test]
fn body_decoders_survive_garbage() {
    // Feed raw garbage straight to the body decoders (the frame layer
    // normally shields them; a corrupted frame does not).
    for seed in 0u8..=63 {
        let garbage: Vec<u8> = (0..97u8)
            .map(|i| i.wrapping_mul(31).wrapping_add(seed))
            .collect();
        let b = Frame::from(garbage);
        for endian in [Endian::Big, Endian::Little] {
            let _ = RequestBody::decode(&b, endian);
            let _ = ReplyBody::decode(&b, endian);
        }
        let _ = GiopMessage::decode(&b);
    }
}

#[test]
fn fault_injected_corruption_never_panics_decoders() {
    // Close the loop with the chaos fabric: every frame corrupted, and
    // the decode pipeline must classify each damaged delivery as Err or
    // (for payload-byte flips) a well-formed Ok — no panics, no hangs.
    let fabric = Fabric::shared_link(LinkSpec::default());
    let a = fabric.add_host("A");
    let b = fabric.add_host("B");
    let port = b.open_port();
    fabric.install_faults(FaultPlan::new(0xC0FFEE).with_frame_corruption(PER_MILLION));

    let mut delivered = 0u32;
    let mut rejected = 0u32;
    for i in 0..200u64 {
        let endian = if i % 2 == 0 {
            Endian::Big
        } else {
            Endian::Little
        };
        let wire = match i % 3 {
            0 => sample_request(endian),
            1 => sample_reply(endian),
            _ => sample_transfer(endian),
        };
        a.send_to(b.id(), port.port(), wire).unwrap();
        let dg = port.recv().unwrap();
        delivered += 1;
        if !decode_pipeline(&dg.payload) {
            rejected += 1;
        }
    }
    let stats = fabric.fault_stats().unwrap();
    assert_eq!(stats.messages_corrupted as u32, delivered);
    // One flipped byte lands in a header/length field often enough that
    // a meaningful share of deliveries must be rejected.
    assert!(
        rejected > 20,
        "only {rejected}/200 corrupted messages were rejected"
    );
}

/// Distributed-argument metadata that decodes field by field but whose
/// sizes overflow once multiplied or summed.
fn overflowing_metas() -> Vec<DistArgMeta> {
    let huge = 1usize << 62;
    vec![
        // total_len * elem_size overflows.
        DistArgMeta {
            dir: ArgDir::In,
            elem_size: 8,
            total_len: huge,
            client_counts: vec![huge],
            server_counts: vec![huge / 2, huge / 2],
        },
        // The largest element size the wire can carry.
        DistArgMeta {
            dir: ArgDir::InOut,
            elem_size: u32::MAX as usize,
            total_len: 1 << 33,
            client_counts: vec![1 << 33],
            server_counts: vec![1 << 32, 1 << 32],
        },
        // The template counts overflow, wrapping to total_len.
        DistArgMeta {
            dir: ArgDir::In,
            elem_size: 8,
            total_len: 0,
            client_counts: vec![1 << 63, 1 << 63],
            server_counts: vec![0, 0],
        },
        // An `out` argument: the server would zero-fill its part.
        DistArgMeta {
            dir: ArgDir::Out,
            elem_size: 8,
            total_len: huge,
            client_counts: vec![huge],
            server_counts: vec![huge / 2, huge / 2],
        },
    ]
}

#[test]
fn overflowing_lengths_are_typed_errors() {
    for endian in [Endian::Big, Endian::Little] {
        for meta in overflowing_metas() {
            // Inline data (centralized) and none (multi-port).
            for inline in [Some(Frame::from(vec![0u8; 64])), None] {
                let body = RequestBody {
                    nondist: Bytes::new(),
                    dist: vec![(meta.clone(), inline)],
                };
                let err = RequestBody::decode(&body.to_bytes(endian).into(), endian).unwrap_err();
                assert!(
                    matches!(err, PardisError::BadDistArg(_)),
                    "{meta:?} decoded to {err:?}"
                );
            }
        }
    }
}

#[test]
fn server_survives_overflowing_frames() {
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        diff_objectSkeleton::register(&ctx, "heat", DiffusionServant::new(), vec![]).unwrap();
        ctx.serve_forever().unwrap();
        ctx.serve_decode_errors()
    });
    let tap = world.fabric().add_host("tap");
    let reply_port = tap.open_port();
    let data_port = tap.open_port();
    let srv = world
        .naming()
        .resolve("heat", None, Duration::from_secs(30))
        .unwrap();
    let endian = Endian::native();
    let request = |request_id: u64, mode: TransferMode, meta: DistArgMeta, inline| {
        let header = RequestHeader {
            request_id,
            object_name: "heat".into(),
            operation: "total_heat".into(),
            response_expected: true,
            reply_host: tap.id(),
            reply_port: reply_port.port(),
            mode,
            client_threads: 1,
            client_data_ports: vec![data_port.port()],
            service_context: vec![],
        };
        let body = RequestBody {
            nondist: Bytes::new(),
            dist: vec![(meta, inline)],
        };
        let wire = GiopMessage::Request(header, body.to_bytes(endian))
            .encode(endian)
            .unwrap();
        tap.send_to(srv.host, srv.request_port, wire).unwrap();
    };

    // Overflowing metadata: the serve loop drops the frame.
    let mut sent = 0;
    for meta in overflowing_metas() {
        request(
            sent,
            TransferMode::Centralized,
            meta.clone(),
            Some(Frame::from(vec![0u8; 64])),
        );
        request(sent + 1, TransferMode::MultiPort, meta, None);
        sent += 2;
    }

    // A fragment whose count overruns its receiver's range: a typed
    // error reply, not a panic or a wild allocation.
    let meta = DistArgMeta {
        dir: ArgDir::In,
        elem_size: 8,
        total_len: 8,
        client_counts: vec![8],
        server_counts: vec![4, 4],
    };
    request(sent, TransferMode::MultiPort, meta, None);
    for t in 0..2u32 {
        let wire = GiopMessage::DataTransfer(
            TransferHeader {
                request_id: sent,
                arg_index: 0,
                src_thread: 0,
                dst_thread: t,
                offset: 4 * t as u64,
                count: if t == 0 { u64::MAX - 1 } else { 4 },
                total_len: 8,
                epoch: 0,
            },
            Bytes::from(vec![0u8; 32]),
        )
        .encode(endian)
        .unwrap();
        tap.send_from(data_port.port(), srv.host, srv.data_ports[t as usize], wire)
            .unwrap();
    }
    match GiopMessage::decode(&reply_port.recv().unwrap().payload).unwrap() {
        GiopMessage::Reply(h, _) => {
            assert_eq!(h.request_id, sent);
            assert!(
                matches!(&h.status, ReplyStatus::SystemException(m) if m.contains("bad distributed argument")),
                "{:?}",
                h.status
            );
        }
        other => panic!("expected a reply, got {other:?}"),
    }

    // The server still serves well-formed invocations in both modes.
    let client = world.spawn_machine("client", 2, |ctx| {
        let mut heat = diff_objectProxy::_spmd_bind(&ctx, "heat", None).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), 64, None).unwrap();
        for x in arr.local_data_mut() {
            *x = 1.5;
        }
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            heat._set_transfer_mode(mode).unwrap();
            assert_eq!(heat.total_heat(&ctx, &arr).unwrap(), 96.0);
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(heat.proxy.objref()).unwrap();
        }
    });
    client.join();
    assert_eq!(server.join()[0], sent);
}

/// How long a test below waits for a reply or a machine. A thread left
/// waiting in a collective its peers skipped fails the test here
/// instead of hanging it.
const BOUND: Duration = Duration::from_secs(20);

/// `f`'s result, if it returns within [`BOUND`].
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("{what}: not done within {BOUND:?} (hung or panicked)"))
}

#[test]
fn centralized_server_agrees_on_a_bad_inline_section() {
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        diff_objectSkeleton::register(&ctx, "heat", DiffusionServant::new(), vec![]).unwrap();
        ctx.serve_forever().unwrap();
    });
    let tap = world.fabric().add_host("tap");
    let reply_port = tap.open_port();
    let srv = world
        .naming()
        .resolve("heat", None, Duration::from_secs(30))
        .unwrap();
    let endian = Endian::native();
    let meta = DistArgMeta {
        dir: ArgDir::In,
        elem_size: 8,
        total_len: 8,
        client_counts: vec![8],
        server_counts: vec![4, 4],
    };

    // 56 bytes for 8 doubles, and no inline section at all: each thread
    // holds the whole frame, so both threads refuse the argument.
    for (request_id, inline) in [(1, Some(Frame::from(vec![0u8; 56]))), (2, None)] {
        let header = RequestHeader {
            request_id,
            object_name: "heat".into(),
            operation: "total_heat".into(),
            response_expected: true,
            reply_host: tap.id(),
            reply_port: reply_port.port(),
            mode: TransferMode::Centralized,
            client_threads: 1,
            client_data_ports: vec![],
            service_context: vec![],
        };
        let body = RequestBody {
            nondist: Bytes::new(),
            dist: vec![(meta.clone(), inline)],
        };
        let wire = GiopMessage::Request(header, body.to_bytes(endian))
            .encode(endian)
            .unwrap();
        tap.send_to(srv.host, srv.request_port, wire).unwrap();
        let dg = reply_port
            .recv_timeout(BOUND)
            .unwrap_or_else(|| panic!("request {request_id}: no reply within {BOUND:?}"));
        match GiopMessage::decode(&dg.payload).unwrap() {
            GiopMessage::Reply(h, _) => {
                assert_eq!(h.request_id, request_id);
                assert!(
                    matches!(&h.status, ReplyStatus::SystemException(m) if m.contains("bad distributed argument")),
                    "request {request_id}: {:?}",
                    h.status
                );
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    // The server still serves well-formed invocations in both modes.
    let client = world.spawn_machine("client", 2, |ctx| {
        let mut heat = diff_objectProxy::_spmd_bind(&ctx, "heat", None).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), 64, None).unwrap();
        arr.local_data_mut().fill(1.5);
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            heat._set_transfer_mode(mode).unwrap();
            assert_eq!(heat.total_heat(&ctx, &arr).unwrap(), 96.0);
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(heat.proxy.objref()).unwrap();
        }
    });
    within("client", move || client.join());
    within("server", move || server.join());
}

/// A servant that counts the threads that enter it.
struct Entered {
    inner: Box<dyn Servant>,
    entered: Arc<AtomicU64>,
}

impl Servant for Entered {
    fn type_id(&self) -> &str {
        self.inner.type_id()
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.inner.dispatch(req)
    }
}

#[test]
fn centralized_server_threads_reach_one_verdict() {
    const THREADS: usize = 3;
    let world = World::new(LinkSpec::unlimited());
    let entered = Arc::new(AtomicU64::new(0));
    let counter = entered.clone();
    let server = world.spawn_machine("server", THREADS, move |ctx| {
        let servant = Entered {
            inner: Box::new(diff_objectSkeleton(DiffusionServant::new())),
            entered: counter.clone(),
        };
        ctx.register("heat", Box::new(servant), vec![]).unwrap();
        ctx.serve_forever().unwrap();
    });
    let tap = world.fabric().add_host("tap");
    let reply_port = tap.open_port();
    let srv = world
        .naming()
        .resolve("heat", None, Duration::from_secs(30))
        .unwrap();
    let endian = Endian::native();
    let halves: Vec<u8> = (0..8).flat_map(|_| 1.5f64.to_ne_bytes()).collect();
    let call = |request_id: u64, meta: DistArgMeta, inline: Option<Frame>| {
        let header = RequestHeader {
            request_id,
            object_name: "heat".into(),
            operation: "total_heat".into(),
            response_expected: true,
            reply_host: tap.id(),
            reply_port: reply_port.port(),
            mode: TransferMode::Centralized,
            client_threads: 1,
            client_data_ports: vec![],
            service_context: vec![],
        };
        let body = RequestBody {
            nondist: Bytes::new(),
            dist: vec![(meta, inline)],
        };
        let wire = GiopMessage::Request(header, body.to_bytes(endian))
            .encode(endian)
            .unwrap();
        tap.send_to(srv.host, srv.request_port, wire).unwrap();
        let dg = reply_port
            .recv_timeout(BOUND)
            .unwrap_or_else(|| panic!("request {request_id}: no reply within {BOUND:?}"));
        match GiopMessage::decode(&dg.payload).unwrap() {
            GiopMessage::Reply(h, _) if h.request_id == request_id => h.status,
            other => panic!("request {request_id}: expected its reply, got {other:?}"),
        }
    };

    let doubles = |dir: ArgDir, server_counts: Vec<usize>| DistArgMeta {
        dir,
        elem_size: 8,
        total_len: 8,
        client_counts: vec![8],
        server_counts,
    };
    // An `out` argument whose block is too large to allocate on thread
    // 1 alone: thread 1's typed error is agreed on.
    let huge = 1usize << 58;
    let unallocatable = DistArgMeta {
        dir: ArgDir::Out,
        elem_size: 8,
        total_len: huge + 6,
        client_counts: vec![huge + 6],
        server_counts: vec![3, huge, 3],
    };

    // A server template for two threads, and an inline section one
    // double short, refused by every thread on its own; then the `out`
    // block, which the communicating thread allocates and reports as
    // another thread's failure. None enters the servant.
    let bad = [
        (
            1,
            doubles(ArgDir::In, vec![4, 4]),
            Some(Frame::from(halves.clone())),
            "bad distributed argument",
        ),
        (
            2,
            doubles(ArgDir::In, vec![3, 3, 2]),
            Some(Frame::from(halves[8..].to_vec())),
            "bad distributed argument",
        ),
        (
            3,
            unallocatable,
            None,
            "argument receive failed on another computing thread",
        ),
    ];
    for (request_id, meta, inline, verdict) in bad {
        let status = call(request_id, meta, inline);
        assert!(
            matches!(&status, ReplyStatus::SystemException(m) if m.contains(verdict)),
            "request {request_id}: {status:?}"
        );
        assert_eq!(entered.load(Ordering::SeqCst), 0, "request {request_id}");
    }

    // The next well-formed request reaches every thread's servant.
    let status = call(
        4,
        doubles(ArgDir::In, vec![3, 3, 2]),
        Some(Frame::from(halves)),
    );
    assert_eq!(status, ReplyStatus::NoException);
    assert_eq!(entered.load(Ordering::SeqCst), THREADS as u64);
    let close = GiopMessage::CloseConnection.encode(endian).unwrap();
    tap.send_to(srv.host, srv.request_port, close).unwrap();
    within("server", move || server.join());
}

#[test]
fn centralized_client_threads_agree_on_a_bad_reply() {
    const LEN: usize = 8;
    let world = World::new(LinkSpec::unlimited());
    let tap = world.fabric().add_host("tap");
    let request_port = tap.open_port();
    world.naming().register(ObjectRef {
        name: "fake".into(),
        type_id: "IDL:diff_object:1.0".into(),
        host: tap.id(),
        request_port: request_port.port(),
        data_ports: vec![],
        nthreads: 2,
        distributions: vec![],
        epoch: 0,
    });
    let client = world.spawn_machine("client", 2, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "fake", None).unwrap();
        diff._set_transfer_mode(TransferMode::Centralized).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        let errors = vec![
            diff.diffusion(&ctx, 0, &mut arr).unwrap_err(),
            diff.diffusion(&ctx, 0, &mut arr).unwrap_err(),
            diff.total_heat(&ctx, &arr).unwrap_err(),
        ];
        // A well-formed reply after them still reaches every thread.
        diff.diffusion(&ctx, 0, &mut arr).unwrap();
        (errors, arr.local_data().to_vec())
    });

    let endian = Endian::native();
    let full: Vec<u8> = (0..LEN).flat_map(|i| (i as f64).to_ne_bytes()).collect();
    let replies: [Vec<(u32, usize, Option<Frame>)>; 4] = [
        // `diffusion`: an inline section one double short.
        vec![(0, LEN, Some(Frame::from(full[8..].to_vec())))],
        // `diffusion`: data for an argument the request does not have.
        vec![(1, LEN, Some(Frame::from(full.clone())))],
        // `total_heat`: data for its `in` argument.
        vec![(0, LEN, Some(Frame::from(full.clone())))],
        // `diffusion`: well formed.
        vec![(0, LEN, Some(Frame::from(full.clone())))],
    ];
    for (i, dist_out) in replies.into_iter().enumerate() {
        let dg = request_port
            .recv_timeout(BOUND)
            .unwrap_or_else(|| panic!("invocation {i}: no request within {BOUND:?}"));
        let GiopMessage::Request(h, _) = GiopMessage::decode(&dg.payload).unwrap() else {
            panic!("invocation {i}: expected a request");
        };
        let body = ReplyBody {
            nondist: Bytes::new(),
            dist_out,
        };
        let reply = ReplyHeader {
            request_id: h.request_id,
            status: ReplyStatus::NoException,
        };
        let wire = GiopMessage::Reply(reply, body.to_bytes(endian))
            .encode(endian)
            .unwrap();
        tap.send_to(h.reply_host, h.reply_port, wire).unwrap();
    }

    let threads = within("client", move || client.join());
    let (first, _) = &threads[0];
    for (rank, (errors, local)) in threads.iter().enumerate() {
        for e in errors {
            assert!(
                matches!(e, PardisError::BadDistArg(_)),
                "rank {rank}: {e:?}"
            );
        }
        assert_eq!(errors, first, "rank {rank} disagrees with rank 0");
        let want: Vec<f64> = (rank * LEN / 2..(rank + 1) * LEN / 2)
            .map(|i| i as f64)
            .collect();
        assert_eq!(local, &want, "rank {rank}'s block of the good reply");
    }
}

/// A `c`-thread client sends `total_heat` with its last thread's block
/// half its share, in `mode`, then a well-formed `total_heat`. Returns
/// each client thread's two results and the number of requests the
/// two-thread server served.
fn misfit_block(c: usize, mode: TransferMode) -> (Vec<[PardisResult<f64>; 2]>, usize) {
    const LEN: usize = 8;
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        diff_objectSkeleton::register(&ctx, "misfit", DiffusionServant::new(), vec![]).unwrap();
        ctx.serve_n(usize::MAX).unwrap()
    });
    let client = world.spawn_machine("client", c, move |ctx| {
        let proxy = ctx.spmd_bind("misfit", None, None).unwrap();
        let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        seq.local_data_mut().fill(1.0);
        let heat = |short: bool| {
            let mut arg = proxy.dist_arg("total_heat", 0, ArgDir::In, &seq)?;
            if short && ctx.rank() == c - 1 {
                arg.local = arg.local.slice(..arg.local.len() / 2);
            }
            let mut spec = RequestSpec::simple("total_heat");
            spec.dist_args.push(arg);
            let reply = proxy.invoke_with_mode(&ctx, spec, mode)?;
            let mut r = pardis_cdr::CdrReader::new(&reply.nondist_body, ctx.endian());
            Ok(r.get_f64().unwrap())
        };
        let results = [heat(true), heat(false)];
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
        results
    });
    let clients = client.join();
    (clients, server.join()[0])
}

/// A sending argument whose block does not match the client template
/// is refused on every client thread before anything is sent, in both
/// methods: the server never sees it and serves the next request.
#[test]
fn a_block_that_does_not_fit_its_template_is_refused_before_sending() {
    for c in [1, 2] {
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            let what = format!("c={c} {mode:?}");
            let (clients, served) = within(&what, move || misfit_block(c, mode));
            for (rank, [refused, next]) in clients.iter().enumerate() {
                assert!(
                    matches!(refused, Err(PardisError::BadDistArg(_))),
                    "{what}, client rank {rank}: {refused:?}"
                );
                assert_eq!(next, &Ok(8.0), "{what}, client rank {rank}");
            }
            assert_eq!(served, 1, "{what}: the refused request reached the server");
        }
    }
}
