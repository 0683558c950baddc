//! Observability chaos test (the `obs` feature): a seeded chaos run
//! with tracing on must produce per-rank span logs whose merged,
//! causally-ordered timeline — and whose metrics snapshot — replay
//! bit-for-bit from the same seed.
#![cfg(feature = "obs")]

use pardis_cdr::{CdrReader, Decode, Endian};
use pardis_core::prelude::*;
use pardis_net::FaultPlan;
use pardis_obs::timeline;
use pardis_obs::{SpanKind, SpanRecord};
use parking_lot::Mutex;

const OBJ_TYPE: &str = "IDL:chaos_sum:1.0";
const INVOCATIONS: usize = 8;
const KILL_AT: usize = 4;
const LEN: usize = 64;
const THREADS: usize = 2;
const SEED: u64 = 0x5EED_CAFE;

/// The recorder and metrics registries are process-global; tests in
/// this binary must not interleave runs.
static RUN_LOCK: Mutex<()> = Mutex::new(());

struct SumServant;

impl Servant for SumServant {
    fn type_id(&self) -> &str {
        OBJ_TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let arr: pardis_core::DSequence<f64> = req.dist_seq(0)?;
        let local: f64 = arr.local_data().iter().sum();
        let total = req
            .ctx()
            .rts()
            .allreduce_f64(&[local], pardis_rts::ReduceOp::Sum)
            .map_err(PardisError::from)?[0];
        req.set_result(|w| {
            w.put_f64(total);
            Ok(())
        })
    }
}

/// One seeded chaos run (multi-port with frame drops and a mid-run
/// data-port kill). Returns the drained spans and the metrics
/// snapshot, leaving the global registries clean for the next run.
fn run_and_capture(seed: u64) -> (Vec<SpanRecord>, String) {
    let world = World::new(LinkSpec::unlimited());

    let server_opts = OrbOptions {
        frag_timeout: Some(std::time::Duration::from_millis(80)),
        ..Default::default()
    };
    let server = world.spawn_machine_with("server", THREADS, server_opts, |ctx| {
        ctx.register("example", Box::new(SumServant), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
    });

    let client = world.spawn_machine("client", THREADS, move |ctx| {
        let mut proxy = ctx
            .spmd_bind("example", Some("server"), Some(OBJ_TYPE))
            .unwrap();
        proxy.set_mode(TransferMode::MultiPort).unwrap();
        proxy.set_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: std::time::Duration::from_millis(2),
            ..RetryPolicy::default()
        });
        proxy.set_deadline(Some(std::time::Duration::from_millis(150)));

        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.host()
                .fabric()
                .install_faults(FaultPlan::new(seed).with_frame_drop(20_000));
        }
        ctx.rts().barrier();

        for i in 0..INVOCATIONS {
            if i == KILL_AT {
                ctx.rts().barrier();
                if ctx.is_comm_thread() {
                    let o = proxy.objref();
                    let dead = *o.data_ports.last().unwrap();
                    ctx.host().fabric().kill_port(o.host, dead);
                }
                ctx.rts().barrier();
            }

            let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
            let off = seq.local_range().start;
            for (j, x) in seq.local_data_mut().iter_mut().enumerate() {
                *x = i as f64 + (off + j) as f64 * 0.25;
            }
            let mut spec = RequestSpec::simple("sum").idempotent();
            spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];

            if let Ok(reply) = proxy.invoke(&ctx, spec) {
                let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
                let _ = f64::decode(&mut r).unwrap();
            }
        }

        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.host().fabric().clear_faults();
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });

    client.join();
    server.join();

    let spans = pardis_obs::drain_all();
    let metrics = pardis_obs::snapshot_json();
    pardis_obs::reset();
    (spans, metrics)
}

#[test]
fn merged_timeline_replays_bit_for_bit() {
    let _g = RUN_LOCK.lock();
    let (spans_a, metrics_a) = run_and_capture(SEED);
    let (spans_b, metrics_b) = run_and_capture(SEED);

    assert!(!spans_a.is_empty(), "run recorded no spans");

    // Every phase of the taxonomy shows up in a faulty multi-port run:
    // bind, marshal, both transfer methods (the port kill demotes the
    // later invocations), dispatch, reply, invoke.
    for kind in [
        SpanKind::Bind,
        SpanKind::Marshal,
        SpanKind::XferCentralized,
        SpanKind::XferMultiport,
        SpanKind::Dispatch,
        SpanKind::Reply,
        SpanKind::Invoke,
    ] {
        assert!(
            spans_a.iter().any(|s| s.kind == kind),
            "no {} span recorded",
            kind.as_str()
        );
    }

    // The merged, causally-ordered projections are identical.
    let merged_a = timeline::render(&timeline::merge(spans_a));
    let merged_b = timeline::render(&timeline::merge(spans_b));
    assert!(!merged_a.is_empty());
    assert_eq!(
        merged_a, merged_b,
        "merged timeline diverged between replays"
    );

    // So is the metrics snapshot (no instrument holds a wall-clock
    // value).
    assert_eq!(metrics_a, metrics_b, "metrics snapshot diverged");
    assert!(metrics_a.contains("\"orb.requests\""));
    assert!(metrics_a.contains("\"orb.served\""));
}

#[test]
fn server_spans_parent_under_client_trace() {
    let _g = RUN_LOCK.lock();
    let (spans, _) = run_and_capture(SEED ^ 0x1234);

    // Service-context propagation: every server dispatch span names a
    // client trace and parents under that trace's root span (whose id
    // equals the trace id by construction); every reply span parents
    // under its rank's dispatch span.
    let dispatches: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Dispatch)
        .collect();
    assert!(!dispatches.is_empty(), "no dispatch spans recorded");
    for d in &dispatches {
        assert_eq!(d.machine, "server");
        assert_ne!(d.trace_id, 0);
        assert_eq!(d.parent_span, d.trace_id);
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Invoke && s.span_id == d.trace_id),
            "dispatch span's trace {} has no client invoke root",
            d.trace_id
        );
    }
    for r in spans.iter().filter(|s| s.kind == SpanKind::Reply) {
        assert!(
            dispatches.iter().any(|d| d.span_id == r.parent_span),
            "reply span {} has no dispatch parent",
            r.span_id
        );
    }

    // The merged output reparses: the stable projection is itself a
    // valid span log (wait_ns defaults to 0).
    let merged = timeline::merge(spans);
    let rendered = timeline::render(&merged);
    let back = timeline::parse_log(&rendered).expect("merged timeline must reparse");
    assert_eq!(back.len(), merged.len());
}

#[test]
fn marshal_span_times_the_request_frame() {
    let _g = RUN_LOCK.lock();
    pardis_obs::reset();
    const BIG: usize = 1 << 16;
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", THREADS, |ctx| {
        ctx.register("example", Box::new(SumServant), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
    });
    let client = world.spawn_machine("client", THREADS, |ctx| {
        let proxy = ctx
            .spmd_bind("example", Some("server"), Some(OBJ_TYPE))
            .unwrap();
        let mut seq = DSequence::<f64>::new(ctx.rts(), BIG, None).unwrap();
        for x in seq.local_data_mut() {
            *x = 0.5;
        }
        let mut spec = RequestSpec::simple("sum");
        spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
        let meta = spec.dist_args[0].meta();
        proxy.invoke(&ctx, spec).unwrap();
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
        meta
    });
    let meta = client.join().swap_remove(0);
    server.join();
    let spans = pardis_obs::drain_all();
    pardis_obs::reset();

    // One marshal span, on the thread that built the centralized
    // Request frame, carrying the measured build time and the size of
    // the frame's body (the gathered argument inline).
    let marshal: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Marshal)
        .collect();
    assert_eq!(marshal.len(), 1, "{marshal:?}");
    let body = pardis_core::request::RequestBody {
        nondist: bytes::Bytes::new(),
        dist: vec![(meta, Some(pardis_net::Frame::from(vec![0u8; BIG * 8])))],
    };
    assert_eq!(
        marshal[0].bytes,
        body.to_bytes(Endian::native()).len() as u64
    );
    assert!(marshal[0].wait_ns > 0, "marshal span has no duration");
}

/// Doubles its `inout` argument in place, so every rank of both
/// machines moves data in both directions.
struct ScaleServant;

impl Servant for ScaleServant {
    fn type_id(&self) -> &str {
        "IDL:scale:1.0"
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let mut arr: pardis_core::DSequence<f64> = req.dist_seq(0)?;
        for x in arr.local_data_mut() {
            *x *= 2.0;
        }
        req.return_dist_seq(0, &arr)
    }
}

/// The value of counter `name` for `(machine, rank)` in a metrics
/// snapshot.
fn counter(snapshot: &str, machine: &str, rank: usize, name: &str) -> Option<u64> {
    let block = snapshot.split("{\"machine\":").find(|b| {
        b.starts_with(&format!("\"{machine}\"")) && b.contains(&format!(",\"rank\":{rank},"))
    })?;
    let at = block.find(&format!("\"{name}\":"))? + name.len() + 3;
    let digits: String = block[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn spans_carry_the_invocation_timing() {
    let _g = RUN_LOCK.lock();
    pardis_obs::reset();
    const N: usize = 1 << 12;
    let modes = [TransferMode::Centralized, TransferMode::MultiPort];
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", THREADS, |ctx| {
        ctx.register("scale", Box::new(ScaleServant), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
        (ctx.rank(), ctx.rts().collectives_completed())
    });
    let client = world.spawn_machine("client", THREADS, move |ctx| {
        let proxy = ctx.spmd_bind("scale", Some("server"), None).unwrap();
        let mut seq = DSequence::<f64>::new(ctx.rts(), N, None).unwrap();
        for x in seq.local_data_mut() {
            *x = 1.5;
        }
        let timings: Vec<InvokeTiming> = modes
            .iter()
            .map(|&mode| {
                let mut spec = RequestSpec::simple("scale");
                spec.dist_args = vec![proxy.dist_arg("scale", 0, ArgDir::InOut, &seq).unwrap()];
                proxy.invoke_with_mode(&ctx, spec, mode).unwrap().timing
            })
            .collect();
        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
        (ctx.rank(), timings, ctx.rts().collectives_completed())
    });
    let clients = client.join();
    let servers = server.join();
    let spans = pardis_obs::drain_all();
    let metrics = pardis_obs::snapshot_json();
    pardis_obs::reset();

    let ns = |d: std::time::Duration| d.as_nanos() as u64;
    for (rank, timings, _) in &clients {
        let mine: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.machine == "client" && s.rank == *rank && s.kind != SpanKind::Bind)
            .collect();
        // One trace per invocation, in invocation order.
        let mut traces: Vec<u64> = mine.iter().map(|s| s.trace_id).collect();
        traces.dedup();
        assert_eq!(traces.len(), modes.len(), "rank {rank}: {mine:?}");
        for (trace, t) in traces.iter().zip(timings) {
            let kinds: Vec<SpanKind> = mine
                .iter()
                .filter(|s| s.trace_id == *trace)
                .map(|s| {
                    let want = match s.kind {
                        SpanKind::Marshal => t.pack,
                        SpanKind::XferCentralized => t.gather + t.send,
                        SpanKind::XferMultiport => t.send,
                        SpanKind::Invoke => t.total,
                        other => panic!("unexpected client span {}", other.as_str()),
                    };
                    assert_eq!(s.wait_ns, ns(want), "rank {rank}: {s:?} vs {t:?}");
                    s.kind
                })
                .collect();
            assert_eq!(kinds.last(), Some(&SpanKind::Invoke), "rank {rank}");
        }
    }
    for kind in [SpanKind::XferMultiport, SpanKind::Reply] {
        let of_kind: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == kind).collect();
        assert!(!of_kind.is_empty(), "no {} span", kind.as_str());
        for s in of_kind {
            assert!(
                s.wait_ns > 0,
                "{} span without a duration: {s:?}",
                kind.as_str()
            );
        }
    }

    // The collective count each rank's endpoint kept is the count its
    // metrics block exports.
    let ends = clients
        .iter()
        .map(|(rank, _, n)| ("client", *rank, *n))
        .chain(servers.iter().map(|(rank, n)| ("server", *rank, *n)));
    for (machine, rank, completed) in ends {
        assert!(completed > 0);
        assert_eq!(
            counter(&metrics, machine, rank, "rts.collectives"),
            Some(completed),
            "{machine} rank {rank}: {metrics}"
        );
    }
}
