//! End-to-end tests of SPMD invocation: parallel client and parallel
//! server, both transfer methods, distributed inout arguments,
//! proportional distributions, futures, exceptions, and the
//! poll-requests server mode.

use pardis_cdr::{CdrReader, Decode};
use pardis_core::prelude::*;
use pardis_net::ior::OpArgDist;
use pardis_net::DistSpec;

const DIFF_TYPE: &str = "IDL:diff_object:1.0";

/// The paper's running example: a diffusion service. Operation
/// `diffusion(in long timesteps, inout dsequence<double> darray)` runs
/// `timesteps` of a 3-point stencil with halo exchange over the RTS.
struct DiffServant;

impl Servant for DiffServant {
    fn type_id(&self) -> &str {
        DIFF_TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        match req.operation() {
            "diffusion" => {
                let mut args = req.args();
                let timesteps = i32::decode(&mut args).map_err(PardisError::from)?;
                let mut arr: DSequence<f64> = req.dist_seq(0)?;
                diffuse(req.ctx(), &mut arr, timesteps as usize)?;
                req.return_dist_seq(0, &arr)?;
                req.set_result(|_| Ok(()))
            }
            "sum" => {
                // in dsequence<double> -> double (non-distributed result)
                let arr: DSequence<f64> = req.dist_seq(0)?;
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
            "fail" => Err(PardisError::UserException("diffusion_overflow".into())),
            other => Err(PardisError::BadOperation(other.to_string())),
        }
    }
}

/// One Jacobi smoothing step per timestep with nearest-neighbour halo
/// exchange — a genuinely parallel computation over the RTS.
fn diffuse(ctx: &OrbCtx, arr: &mut DSequence<f64>, steps: usize) -> PardisResult<()> {
    let rts = ctx.rts();
    let rank = rts.rank();
    let size = rts.size();
    const HALO_L: u32 = 100;
    const HALO_R: u32 = 101;
    for _ in 0..steps {
        let local = arr.local_data_mut();
        let n = local.len();
        // Exchange halos with neighbours (empty parts still participate
        // with a zero-length message to keep the pattern uniform).
        let left_edge = local.first().copied().unwrap_or(0.0);
        let right_edge = local.last().copied().unwrap_or(0.0);
        let mut left_halo = None;
        let mut right_halo = None;
        if rank > 0 {
            rts.send(
                rank - 1,
                HALO_L,
                bytes::Bytes::copy_from_slice(&left_edge.to_le_bytes()),
            )
            .map_err(PardisError::from)?;
        }
        if rank + 1 < size {
            rts.send(
                rank + 1,
                HALO_R,
                bytes::Bytes::copy_from_slice(&right_edge.to_le_bytes()),
            )
            .map_err(PardisError::from)?;
        }
        if rank + 1 < size {
            let b = rts.recv(rank + 1, HALO_L).map_err(PardisError::from)?;
            right_halo = Some(f64::from_le_bytes(b[..8].try_into().unwrap()));
        }
        if rank > 0 {
            let b = rts.recv(rank - 1, HALO_R).map_err(PardisError::from)?;
            left_halo = Some(f64::from_le_bytes(b[..8].try_into().unwrap()));
        }
        if n == 0 {
            continue;
        }
        let old = local.to_vec();
        for i in 0..n {
            let l = if i == 0 {
                left_halo.unwrap_or(old[0])
            } else {
                old[i - 1]
            };
            let r = if i == n - 1 {
                right_halo.unwrap_or(old[n - 1])
            } else {
                old[i + 1]
            };
            local[i] = 0.25 * l + 0.5 * old[i] + 0.25 * r;
        }
    }
    Ok(())
}

/// Sequential reference implementation for verification.
fn diffuse_seq(data: &mut [f64], steps: usize) {
    let n = data.len();
    for _ in 0..steps {
        let old = data.to_vec();
        for i in 0..n {
            let l = if i == 0 { old[0] } else { old[i - 1] };
            let r = if i == n - 1 { old[n - 1] } else { old[i + 1] };
            data[i] = 0.25 * l + 0.5 * old[i] + 0.25 * r;
        }
    }
}

fn start_server(world: &World, nthreads: usize, dists: Vec<OpArgDist>) -> MachineHandleAlias {
    world.spawn_machine("server", nthreads, move |ctx| {
        ctx.register("example", Box::new(DiffServant), dists.clone())
            .unwrap();
        ctx.serve_forever().unwrap();
    })
}

type MachineHandleAlias = pardis_core::MachineHandle<()>;

fn spmd_diffusion_roundtrip(mode: TransferMode, c: usize, n: usize, len: usize, steps: usize) {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, n, vec![]);

    let client = world.spawn_machine("client", c, move |ctx| {
        let mut proxy = ctx
            .spmd_bind("example", Some("server"), Some(DIFF_TYPE))
            .unwrap();
        proxy.set_mode(mode).unwrap();

        // Build the input: global values 0..len distributed blockwise.
        let mut seq = DSequence::<f64>::new(ctx.rts(), len, None).unwrap();
        let off = seq.local_range().start;
        for (i, x) in seq.local_data_mut().iter_mut().enumerate() {
            *x = (off + i) as f64;
        }

        // diffusion(in long, inout dsequence<double>)
        let mut spec = RequestSpec::simple("diffusion");
        let mut w = pardis_cdr::CdrWriter::new(ctx.endian());
        w.put_i32(steps as i32);
        spec.nondist_body = w.into_shared();
        spec.dist_args = vec![proxy.dist_arg("diffusion", 0, ArgDir::InOut, &seq).unwrap()];

        let reply = proxy.invoke(&ctx, spec).unwrap();
        let new_local: Vec<f64> =
            pardis_core::Elem::from_native_bytes(reply.dist_local(0).unwrap());
        assert_eq!(new_local.len(), seq.local_len());

        // Verify against the sequential reference.
        let mut want: Vec<f64> = (0..len).map(|i| i as f64).collect();
        diffuse_seq(&mut want, steps);
        let r = seq.local_range();
        for (i, (&got, &exp)) in new_local.iter().zip(&want[r.clone()]).enumerate() {
            assert!(
                (got - exp).abs() < 1e-9,
                "mode {mode:?} c={c} n={n}: element {} differs: {got} vs {exp}",
                r.start + i
            );
        }

        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });

    client.join();
    server.join();
}

#[test]
fn centralized_various_shapes() {
    for (c, n) in [(1, 1), (2, 1), (1, 3), (2, 4), (4, 2)] {
        spmd_diffusion_roundtrip(TransferMode::Centralized, c, n, 64, 3);
    }
}

#[test]
fn multiport_various_shapes() {
    for (c, n) in [(1, 1), (2, 1), (1, 3), (2, 4), (4, 2), (3, 5)] {
        spmd_diffusion_roundtrip(TransferMode::MultiPort, c, n, 64, 3);
    }
}

#[test]
fn both_modes_uneven_length() {
    // Length not divisible by thread counts exercises remainder blocks.
    spmd_diffusion_roundtrip(TransferMode::Centralized, 3, 4, 61, 2);
    spmd_diffusion_roundtrip(TransferMode::MultiPort, 3, 4, 61, 2);
}

#[test]
fn proportional_server_distribution() {
    // Server pre-registers Proportions(2,4,2,4) for diffusion arg 0 —
    // the paper's §2.2 example.
    let world = World::new(LinkSpec::unlimited());
    let dists = vec![OpArgDist {
        op: "diffusion".into(),
        arg_index: 0,
        dist: DistSpec::Proportions(vec![2, 4, 2, 4]),
    }];
    let server = start_server(&world, 4, dists);

    let client = world.spawn_machine("client", 2, move |ctx| {
        let mut proxy = ctx.spmd_bind("example", None, Some(DIFF_TYPE)).unwrap();
        proxy.set_mode(TransferMode::MultiPort).unwrap();

        let len = 48;
        let mut seq = DSequence::<f64>::new(ctx.rts(), len, None).unwrap();
        let off = seq.local_range().start;
        for (i, x) in seq.local_data_mut().iter_mut().enumerate() {
            *x = (off + i) as f64;
        }

        let arg = proxy.dist_arg("diffusion", 0, ArgDir::InOut, &seq).unwrap();
        // The resolved server template follows the registered proportions.
        assert_eq!(arg.server_templ.counts(), &[8, 16, 8, 16]);

        let mut spec = RequestSpec::simple("diffusion");
        let mut w = pardis_cdr::CdrWriter::new(ctx.endian());
        w.put_i32(2);
        spec.nondist_body = w.into_shared();
        spec.dist_args = vec![arg];

        let reply = proxy.invoke(&ctx, spec).unwrap();
        let new_local: Vec<f64> =
            pardis_core::Elem::from_native_bytes(reply.dist_local(0).unwrap());
        let mut want: Vec<f64> = (0..len).map(|i| i as f64).collect();
        diffuse_seq(&mut want, 2);
        let r = seq.local_range();
        for (&got, &exp) in new_local.iter().zip(&want[r]) {
            assert!((got - exp).abs() < 1e-9);
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}

#[test]
fn nd_bind_parallel_clients() {
    // Per-thread bind: each client thread interacts independently with
    // the SPMD object using the non-distributed mapping.
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 3, vec![]);

    let client = world.spawn_machine("client", 4, move |ctx| {
        let proxy = ctx.bind("example", None, Some(DIFF_TYPE)).unwrap();
        let data: Vec<f64> = (0..30).map(|i| (i + ctx.rank()) as f64).collect();
        let mut spec = RequestSpec::simple("sum");
        spec.dist_args = vec![proxy.dist_arg_nd("sum", 0, ArgDir::In, &data).unwrap()];
        let reply = proxy.invoke(&ctx, spec).unwrap();
        let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
        let total = f64::decode(&mut r).unwrap();
        let want: f64 = data.iter().sum();
        assert_eq!(total, want);
        // All threads synchronize, then one shuts the server down.
        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}

#[test]
fn nd_bind_multiport_single_client_thread() {
    // c=1 multi-port (the paper's Table 2 includes this column), and
    // per-thread bindings on every thread of a 2-thread machine: each
    // binding is a one-thread client whatever its thread's rank.
    for threads in [1, 2] {
        nd_bind_multiport(threads);
    }
}

fn nd_bind_multiport(threads: usize) {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 4, vec![]);
    let client = world.spawn_machine("client", threads, move |ctx| {
        let mut proxy = ctx.bind("example", None, Some(DIFF_TYPE)).unwrap();
        proxy.set_mode(TransferMode::MultiPort).unwrap();
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut spec = RequestSpec::simple("diffusion");
        let mut w = pardis_cdr::CdrWriter::new(ctx.endian());
        w.put_i32(1);
        spec.nondist_body = w.into_shared();
        spec.dist_args = vec![proxy
            .dist_arg_nd("diffusion", 0, ArgDir::InOut, &data)
            .unwrap()];
        let reply = proxy.invoke(&ctx, spec).unwrap();
        let got: Vec<f64> = pardis_core::Elem::from_native_bytes(reply.dist_local(0).unwrap());
        let mut want = data.clone();
        diffuse_seq(&mut want, 1);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    });
    client.join();
    let closer = world.spawn_machine("closer", 1, |ctx| {
        let proxy = ctx.bind("example", None, None).unwrap();
        ctx.send_shutdown(proxy.objref()).unwrap();
    });
    closer.join();
    server.join();
}

#[test]
fn futures_overlap_computation() {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 2, vec![]);
    let client = world.spawn_machine("client", 2, move |ctx| {
        let proxy = ctx.spmd_bind("example", None, None).unwrap();
        let seq = {
            let mut s = DSequence::<f64>::new(ctx.rts(), 16, None).unwrap();
            for x in s.local_data_mut() {
                *x = 1.0;
            }
            s
        };
        let mut spec = RequestSpec::simple("sum");
        spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
        let fut = proxy.invoke_nb(&ctx, spec).unwrap();
        // "use remote resources concurrently with its own": do local work
        // while the request is outstanding.
        let local_work: f64 = (0..1000).map(|i| i as f64).sum();
        assert!(local_work > 0.0);
        let reply = fut.wait().unwrap();
        let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
        assert_eq!(f64::decode(&mut r).unwrap(), 16.0);
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}

#[test]
fn user_exception_propagates_both_modes() {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 2, vec![]);
    let client = world.spawn_machine("client", 2, move |ctx| {
        let proxy = ctx.spmd_bind("example", None, None).unwrap();
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            let err = proxy
                .invoke_with_mode(&ctx, RequestSpec::simple("fail"), mode)
                .unwrap_err();
            match err {
                PardisError::UserException(name) => assert_eq!(name, "diffusion_overflow"),
                other => panic!("expected user exception, got {other}"),
            }
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}

#[test]
fn bad_operation_is_system_exception() {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 1, vec![]);
    let client = world.spawn_machine("client", 1, move |ctx| {
        let proxy = ctx.bind("example", None, None).unwrap();
        let err = proxy
            .invoke(&ctx, RequestSpec::simple("no_such_op"))
            .unwrap_err();
        assert!(matches!(err, PardisError::SystemException(_)), "{err}");
        ctx.send_shutdown(proxy.objref()).unwrap();
    });
    client.join();
    server.join();
}

#[test]
fn interface_mismatch_detected_at_bind() {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 1, vec![]);
    let client = world.spawn_machine("client", 1, move |ctx| {
        let err = ctx
            .bind("example", None, Some("IDL:other:1.0"))
            .unwrap_err();
        assert!(matches!(err, PardisError::InterfaceMismatch { .. }));
        // Clean shutdown via a correctly typed proxy.
        let proxy = ctx.bind("example", None, Some(DIFF_TYPE)).unwrap();
        ctx.send_shutdown(proxy.objref()).unwrap();
    });
    client.join();
    server.join();
}

#[test]
fn poll_requests_interrupts_computation() {
    // The server computes on its own and drains outstanding requests
    // when it chooses to (paper §2.1).
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        ctx.register("example", Box::new(DiffServant), vec![])
            .unwrap();
        let mut served = 0usize;
        let mut iterations = 0usize;
        while served < 2 {
            // "Own computation".
            std::hint::black_box((0..100).sum::<usize>());
            iterations += 1;
            served += ctx.poll_requests().unwrap();
            assert!(iterations < 5_000_000, "server never saw the requests");
        }
        served
    });
    let client = world.spawn_machine("client", 2, |ctx| {
        let proxy = ctx.spmd_bind("example", None, None).unwrap();
        for _ in 0..2 {
            let seq = DSequence::<f64>::new(ctx.rts(), 8, None).unwrap();
            let mut spec = RequestSpec::simple("sum");
            spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
            let reply = proxy.invoke(&ctx, spec).unwrap();
            let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
            assert_eq!(f64::decode(&mut r).unwrap(), 0.0);
        }
    });
    client.join();
    assert_eq!(server.join(), vec![2, 2]);
}

#[test]
fn translation_mode_roundtrips() {
    // Both peers translating (paper §3.3's heterogeneity remark): data
    // must still arrive intact because pack/unpack swaps symmetrically.
    let world = World::new(LinkSpec::unlimited());
    let opts = OrbOptions {
        translate: true,
        ..Default::default()
    };
    let o2 = opts.clone();
    let server = world.spawn_machine_with("server", 2, opts, |ctx| {
        ctx.register("example", Box::new(DiffServant), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
    });
    let client = world.spawn_machine_with("client", 2, o2, move |ctx| {
        let mut proxy = ctx.spmd_bind("example", None, None).unwrap();
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            proxy.set_mode(mode).unwrap();
            let mut seq = DSequence::<f64>::new(ctx.rts(), 12, None).unwrap();
            for x in seq.local_data_mut() {
                *x = 2.5;
            }
            let mut spec = RequestSpec::simple("sum");
            spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
            let reply = proxy.invoke(&ctx, spec).unwrap();
            let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
            assert_eq!(f64::decode(&mut r).unwrap(), 30.0, "mode {mode:?}");
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}

#[test]
fn timing_fields_populated() {
    let world = World::new(LinkSpec::unlimited());
    let server = start_server(&world, 2, vec![]);
    let client = world.spawn_machine("client", 2, move |ctx| {
        let mut proxy = ctx.spmd_bind("example", None, None).unwrap();
        proxy.set_mode(TransferMode::Centralized).unwrap();
        let seq = DSequence::<f64>::new(ctx.rts(), 1 << 12, None).unwrap();
        let mut spec = RequestSpec::simple("sum");
        spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
        let reply = proxy.invoke(&ctx, spec).unwrap();
        assert!(reply.timing.total.as_nanos() > 0);
        if ctx.is_comm_thread() {
            // The communicating thread packed and sent the message.
            assert!(reply.timing.pack.as_nanos() > 0);
            assert!(reply.timing.send.as_nanos() > 0);
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}
