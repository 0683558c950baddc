//! Wire-format golden frames: the frames the transfer methods put on the
//! fabric must stay byte-identical to the recorded ones in
//! `tests/data/wire_golden.txt`.
//!
//! A raw "tap" host sits on both sides of a real client and a real
//! server. It plays the object for the client, capturing the client's
//! centralized Request (an `in` argument gathered from two computing
//! threads) and its multi-port Request plus DataTransfer fragments. It
//! plays a client for the server, capturing the server's centralized
//! Reply (inline `inout` data gathered from two threads) and its
//! multi-port Reply plus fragments. The frames the tap itself sends go
//! through the public `RequestBody`/`GiopMessage` encoders and are
//! recorded too. Every combination of wire byte order and data
//! translation is covered.
//!
//! With the `obs` feature the client's Request frames carry a tracing
//! service context; those frames have their own `+obs` entries.
//!
//! A frame travels as segments (its header, the blocks its threads
//! lend); the recorded bytes are their concatenation. A receiver
//! decodes every recorded frame the same wherever it is cut.

use bytes::Bytes;
use pardis_cdr::{CdrWriter, Endian};
use pardis_core::prelude::*;
use pardis_core::request::{DistArgMeta, ReplyBody, RequestBody};
use pardis_net::giop::{GiopMessage, RequestHeader, TransferHeader};
use pardis_net::ior::ObjectRef;
use pardis_net::Frame;
use std::time::Duration;

const TYPE: &str = "IDL:golden:1.0";
/// Doubles per distributed argument: four per computing thread.
const LEN: usize = 8;
const GOLDEN: &str = include_str!("data/wire_golden.txt");

/// Server half: adds 0.5 to every element of its `inout` argument and
/// returns the local sum as the non-distributed result.
struct Bump;

impl Servant for Bump {
    fn type_id(&self) -> &str {
        TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let mut arr: DSequence<f64> = req.dist_seq(0)?;
        for x in arr.local_data_mut() {
            *x += 0.5;
        }
        let sum: f64 = arr.local_data().iter().sum();
        req.return_dist_seq(0, &arr)?;
        req.set_result(|w| {
            w.put_f64(sum);
            Ok(())
        })
    }
}

fn value(i: usize) -> f64 {
    1.0 + i as f64 * 1.25
}

fn nondist(endian: Endian) -> Bytes {
    let mut w = CdrWriter::new(endian);
    w.put_i32(7);
    w.into_shared()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Every frame of one (byte order, translation) combination, named.
fn capture(endian: Endian, translate: bool) -> Vec<(String, Frame)> {
    let opts = OrbOptions {
        endian,
        translate,
        ..Default::default()
    };
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine_with("server", 2, opts.clone(), |ctx| {
        ctx.register("golden", Box::new(Bump), vec![]).unwrap();
        ctx.serve_forever().unwrap();
    });
    let tap = world.fabric().add_host("tap");
    let request_port = tap.open_port();
    let data_ports = [tap.open_port(), tap.open_port()];
    let reply_port = tap.open_port();
    world.naming().register(ObjectRef {
        name: "tap".into(),
        type_id: TYPE.into(),
        host: tap.id(),
        request_port: request_port.port(),
        data_ports: data_ports.iter().map(|p| p.port()).collect(),
        nthreads: 2,
        distributions: vec![],
        epoch: 0,
    });

    let mut frames = Vec::new();
    let mut keep = |name: &str, payload: Frame| frames.push((name.to_string(), payload));

    // The tap as the object: one oneway `in` invocation per mode.
    let client = world.spawn_machine_with("client", 2, opts, |ctx| {
        let proxy = ctx.spmd_bind("tap", None, Some(TYPE)).unwrap();
        let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        let off = seq.local_range().start;
        for (j, x) in seq.local_data_mut().iter_mut().enumerate() {
            *x = value(off + j);
        }
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            let mut spec = RequestSpec::simple("absorb");
            spec.response_expected = false;
            spec.nondist_body = nondist(ctx.endian());
            spec.dist_args = vec![proxy.dist_arg("absorb", 0, ArgDir::In, &seq).unwrap()];
            proxy.invoke_with_mode(&ctx, spec, mode).unwrap();
        }
    });
    client.join();
    keep(
        "client.centralized.request",
        request_port.recv().unwrap().payload,
    );
    keep(
        "client.multiport.request",
        request_port.recv().unwrap().payload,
    );
    for (t, p) in data_ports.iter().enumerate() {
        keep(
            &format!("client.multiport.transfer.{t}"),
            p.recv().unwrap().payload,
        );
    }

    // The tap as a client of the real server: one `inout` invocation
    // per mode, data laid out as a two-thread client would send it.
    let srv = world
        .naming()
        .resolve("golden", None, Duration::from_secs(30))
        .unwrap();
    let mut data: Vec<u8> = (0..LEN).flat_map(|i| value(i).to_ne_bytes()).collect();
    if translate {
        pardis_cdr::byteswap::swap_f64_bytes_in_place(&mut data);
    }
    let meta = DistArgMeta {
        dir: ArgDir::InOut,
        elem_size: 8,
        total_len: LEN,
        client_counts: vec![LEN / 2, LEN / 2],
        server_counts: vec![LEN / 2, LEN / 2],
    };
    for (i, mode) in [TransferMode::Centralized, TransferMode::MultiPort]
        .into_iter()
        .enumerate()
    {
        let multiport = mode == TransferMode::MultiPort;
        let request_id = 100 + i as u64;
        let header = RequestHeader {
            request_id,
            object_name: "golden".into(),
            operation: "bump".into(),
            response_expected: true,
            reply_host: tap.id(),
            reply_port: reply_port.port(),
            mode,
            client_threads: 2,
            client_data_ports: if multiport {
                data_ports.iter().map(|p| p.port()).collect()
            } else {
                vec![]
            },
            service_context: vec![],
        };
        let inline = (!multiport).then(|| Frame::from(data.clone()));
        let body = RequestBody {
            nondist: nondist(endian),
            dist: vec![(meta.clone(), inline)],
        };
        let label = if multiport {
            "multiport"
        } else {
            "centralized"
        };
        let wire = GiopMessage::Request(header, body.to_bytes(endian))
            .encode(endian)
            .unwrap();
        keep(&format!("tap.{label}.request"), wire.clone());
        tap.send_to(srv.host, srv.request_port, wire).unwrap();
        if multiport {
            for t in 0..2 {
                let half = LEN / 2 * 8;
                let wire = GiopMessage::DataTransfer(
                    TransferHeader {
                        request_id,
                        arg_index: 0,
                        src_thread: t as u32,
                        dst_thread: t as u32,
                        offset: (t * LEN / 2) as u64,
                        count: (LEN / 2) as u64,
                        total_len: LEN as u64,
                        epoch: 0,
                    },
                    Bytes::from(data[t * half..(t + 1) * half].to_vec()),
                )
                .encode(endian)
                .unwrap();
                keep(&format!("tap.multiport.transfer.{t}"), wire.clone());
                tap.send_from(data_ports[t].port(), srv.host, srv.data_ports[t], wire)
                    .unwrap();
            }
        }
        keep(
            &format!("server.{label}.reply"),
            reply_port.recv().unwrap().payload,
        );
        if multiport {
            for (t, p) in data_ports.iter().enumerate() {
                keep(
                    &format!("server.multiport.transfer.{t}"),
                    p.recv().unwrap().payload,
                );
            }
        }
    }
    tap.send_to(
        srv.host,
        srv.request_port,
        GiopMessage::CloseConnection.encode(endian).unwrap(),
    )
    .unwrap();
    server.join();

    let tag = format!(
        "{}.{}",
        if endian == Endian::Big { "be" } else { "le" },
        if translate { "translate" } else { "plain" }
    );
    frames
        .into_iter()
        .map(|(name, payload)| (format!("{tag}.{name}"), payload))
        .collect()
}

/// The recorded frame for `name`, preferring the `+obs` entry when the
/// tracing service context is compiled in.
fn golden(name: &str) -> Option<&'static str> {
    let find = |key: &str| {
        GOLDEN.lines().find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == key).then_some(v)
        })
    };
    if cfg!(feature = "obs") {
        if let Some(v) = find(&format!("{name}+obs")) {
            return Some(v);
        }
    }
    find(name)
}

#[test]
fn frames_match_the_recorded_wire_format() {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for endian in [Endian::Big, Endian::Little] {
        for translate in [false, true] {
            for (name, payload) in capture(endian, translate) {
                let got = hex(&payload.to_vec());
                checked += 1;
                if golden(&name) != Some(got.as_str()) {
                    mismatches.push(format!("{name} {got}"));
                }
            }
        }
    }
    assert_eq!(checked, 48);
    assert!(
        mismatches.is_empty(),
        "{} of {checked} frames differ from tests/data/wire_golden.txt:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// What a receiver decodes from `frame`: the message, then its body
/// (a Request's or a Reply's), or the first error, as text.
type Decoded = Result<(GiopMessage<Frame>, Option<RequestBody>, Option<ReplyBody>), String>;

fn decoded(frame: &Frame) -> Decoded {
    let endian = GiopMessage::body_endian(frame).map_err(|e| e.to_string())?;
    let msg = GiopMessage::decode(frame).map_err(|e| e.to_string())?;
    let (request, reply) = match &msg {
        GiopMessage::Request(_, body) => (Some(RequestBody::decode(body, endian)), None),
        GiopMessage::Reply(_, body) => (None, Some(ReplyBody::decode(body, endian))),
        _ => (None, None),
    };
    let request = request.transpose().map_err(|e| e.to_string())?;
    let reply = reply.transpose().map_err(|e| e.to_string())?;
    Ok((msg, request, reply))
}

#[test]
fn every_recorded_frame_decodes_the_same_however_it_is_cut() {
    let mut frames = 0;
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        let (name, hex) = line.split_once(' ').unwrap();
        if name.ends_with("+obs") {
            continue;
        }
        frames += 1;
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let want = decoded(&Frame::from(bytes.clone()));
        assert!(want.is_ok(), "{name}: {want:?}");
        for at in 0..=bytes.len() {
            let cut: Frame = [&bytes[..at], &bytes[at..]]
                .into_iter()
                .map(Bytes::copy_from_slice)
                .collect();
            assert_eq!(decoded(&cut), want, "{name} cut at {at}");
        }
    }
    assert_eq!(frames, 48);
}
