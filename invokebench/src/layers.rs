//! Single-layer measurements, each through the layer's public functions
//! at the sizes the workload puts through it: RTS collectives on a
//! 2-rank `SpmdRig`, CDR bulk marshaling, GIOP framing and one fabric hop.

use crate::stats::median;
use crate::workload::Workload;
use bytes::Bytes;
use pardis::pardis_cdr::{CdrReader, CdrWriter, Endian};
use pardis::pardis_net::giop::{GiopMessage, RequestHeader, TransferMode};
use pardis::pardis_net::{Fabric, HostId, LinkSpec};
use pardis::pardis_rts::{Endpoint, ReduceOp};
use pardis_bench::SpmdRig;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of layer measurements `measure` splits its budget across.
const MEASUREMENTS: u32 = 10;

/// Collective calls per rig job.
const BATCH: usize = 64;

/// Run every layer measurement for `w`, within about `budget` in total.
/// Returns `(metric, value)` pairs; times are per-call medians.
pub fn measure(w: &Workload, budget: Duration) -> Vec<(&'static str, f64)> {
    let each = budget / MEASUREMENTS;
    let part = Bytes::from(vec![0x5au8; w.part_bytes()]);
    let rig = SpmdRig::new(2);
    let small = Bytes::from(vec![1u8; 64]);

    let mut out = vec![
        (
            "rts.barrier_us",
            collective_us(&rig, each, |ep| ep.barrier()),
        ),
        (
            "rts.broadcast_us",
            collective_us(&rig, each, move |ep| {
                let data = (ep.rank() == 0).then(|| small.clone());
                black_box(ep.broadcast(0, data).expect("broadcast"));
            }),
        ),
        (
            "rts.allreduce_us",
            collective_us(&rig, each, |ep| {
                black_box(ep.allreduce_f64(&[1.0], ReduceOp::Sum).expect("allreduce"));
            }),
        ),
    ];
    let p = part.clone();
    out.push((
        "rts.gather_us",
        collective_us(&rig, each, move |ep| {
            black_box(ep.gather_bytes(0, p.clone()).expect("gather"));
        }),
    ));
    let p = part.clone();
    out.push((
        "rts.scatterv_us",
        collective_us(&rig, each, move |ep| {
            let chunks = (ep.rank() == 0).then(|| vec![p.clone(); ep.size()]);
            black_box(ep.scatterv_bytes(0, chunks).expect("scatterv"));
        }),
    ));

    let doubles: Vec<f64> = (0..w.part_bytes() / 8).map(|i| i as f64).collect();
    let part_bytes = w.part_bytes() as f64;
    let pack_us = call_us(each, w.part_bytes(), || {
        let mut wr = CdrWriter::new(Endian::native());
        wr.put_f64_slice(black_box(&doubles));
        black_box(wr.into_bytes());
    });
    let mut wr = CdrWriter::new(Endian::native());
    wr.put_f64_slice(&doubles);
    let packed = wr.into_bytes();
    let unpack_us = call_us(each, w.part_bytes(), || {
        let mut r = CdrReader::new(black_box(&packed), Endian::native());
        let mut v = Vec::new();
        r.get_f64_slice(doubles.len(), &mut v).expect("unpack");
        black_box(v);
    });
    out.push(("cdr.pack_GBps", part_bytes / pack_us / 1e3));
    out.push(("cdr.unpack_GBps", part_bytes / unpack_us / 1e3));

    let msg = GiopMessage::Request(
        RequestHeader {
            request_id: 1,
            object_name: "bench".into(),
            operation: "total_heat".into(),
            response_expected: true,
            reply_host: HostId(0),
            reply_port: 1,
            mode: TransferMode::Centralized,
            client_threads: w.client_threads as u32,
            client_data_ports: Vec::new(),
            service_context: Vec::new(),
        },
        Bytes::from(vec![0u8; w.message_bytes()]),
    );
    let wire = msg.encode(Endian::native()).expect("encode");
    out.push((
        "net.giop.encode_us",
        call_us(each, w.message_bytes(), || {
            black_box(black_box(&msg).encode(Endian::native()).expect("encode"));
        }),
    ));
    out.push((
        "net.giop.decode_us",
        call_us(each, w.message_bytes(), || {
            black_box(GiopMessage::decode(black_box(&wire)).expect("decode"));
        }),
    ));

    let fabric = Fabric::shared_link(LinkSpec::unlimited());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let port = b.open_port();
    out.push((
        "net.fabric.hop_us",
        call_us(each, w.message_bytes(), || {
            a.send_to(b.id(), port.port(), wire.clone()).expect("send");
            black_box(port.recv().expect("recv"));
        }),
    ));
    out
}

/// Median microseconds of one call of `op`, sampled for about `budget`.
/// Calls on small inputs are timed in groups so that one sample is well
/// above the clock's resolution.
fn call_us(budget: Duration, bytes: usize, mut op: impl FnMut()) -> f64 {
    let reps = (64 * 1024 / bytes.max(1)).max(1);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..reps {
            op();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    median(&mut samples)
}

/// Median microseconds of one collective `op`, timed on rank 0 of `rig`
/// for about `budget`.
fn collective_us(
    rig: &SpmdRig,
    budget: Duration,
    op: impl Fn(&Endpoint) + Send + Sync + 'static,
) -> f64 {
    let op = Arc::new(op);
    let samples = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    loop {
        let (op, samples) = (op.clone(), samples.clone());
        rig.run(move |ep| {
            let mut local = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                let t = Instant::now();
                op(ep);
                local.push(t.elapsed().as_secs_f64() * 1e6);
            }
            if ep.rank() == 0 {
                samples.lock().expect("samples lock").extend(local);
            }
        });
        if start.elapsed() >= budget {
            break;
        }
    }
    let mut samples = samples.lock().expect("samples lock");
    median(&mut samples)
}
