//! Copy-on-write semantics of distributed sequences across invocations.
//!
//! A sequence passed to an invocation lends its storage to the outgoing
//! frame, and a sequence built from a received argument views the frame
//! in place. Neither may leak a mutation: the request carries the
//! values at the call, a servant that keeps its view past the call
//! keeps those values, and a servant thread that mutates its view
//! leaves every other view of the same frame as it arrived. And no
//! view may outlive a blocking call unless a servant keeps it: the
//! client's next mutation then finds its storage its own again.

use pardis::apps::diffusion::DiffusionServant;
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectProxy, diff_objectSkeleton};

fn value(i: usize) -> f64 {
    (i % 11) as f64 + 0.5
}

#[test]
fn nb_request_sends_the_snapshot_taken_at_the_call() {
    const LEN: usize = 4096;
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        diff_objectSkeleton::register(&ctx, "snap", DiffusionServant::new(), vec![])
            .expect("register");
        ctx.serve_forever().expect("serve");
    });
    let client = world.spawn_machine("client", 2, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "snap", None).unwrap();
        let want_heat: f64 = (0..LEN).map(value).sum();
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            diff._set_transfer_mode(mode).unwrap();
            let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
            let off = arr.local_range().start;
            for (j, x) in arr.local_data_mut().iter_mut().enumerate() {
                *x = value(off + j);
            }
            let heat = diff.total_heat_nb(&ctx, &arr).unwrap();
            let echo = diff.diffusion_nb(&ctx, 0, &arr).unwrap();
            // Mutate while both requests are outstanding.
            for x in arr.local_data_mut() {
                *x = -1.0;
            }
            assert_eq!(heat.wait().unwrap().ret, want_heat, "{mode:?}");
            let echoed = echo.wait().unwrap().darray;
            for (j, x) in echoed.local_data().iter().enumerate() {
                assert_eq!(*x, value(off + j), "{mode:?}");
            }
            assert!(arr.local_data().iter().all(|&x| x == -1.0));
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(diff.proxy.objref()).unwrap();
        }
    });
    client.join();
    server.join();
}

const TYPE: &str = "IDL:scribble:1.0";

/// Each server thread views its part of one centralized Request frame;
/// thread 0 then overwrites its part with -1 and returns it, thread 1
/// returns its view untouched. The result reports, agreed over both
/// threads, whether the parts were views of one frame, whether thread
/// 0's write detached its sequence, and whether every view still reads
/// what arrived.
struct Scribble;

impl Servant for Scribble {
    fn type_id(&self) -> &str {
        TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let rts = req.ctx().rts();
        let seen: DSequence<f64> = req.dist_seq(0)?;
        let arrived = seen.local_data().to_vec();
        // Thread 1's part starts where thread 0's ends.
        let start = seen.local_data().as_ptr() as u64;
        let starts = rts.allgather_u64(start)?;
        let one_frame = starts[1] == starts[0] + (seen.templ().count(0) * 8) as u64;

        let mut mine: DSequence<f64> = req.dist_seq(0)?;
        rts.barrier();
        if rts.rank() == 0 {
            for x in mine.local_data_mut() {
                *x = -1.0;
            }
        }
        let detached = rts.rank() != 0 || mine.local_data().as_ptr() as u64 != start;
        rts.barrier();
        let unchanged = seen.local_data() == &arrived[..]
            && req.dist_seq::<f64>(0)?.local_data() == &arrived[..];
        let verdict = rts.allreduce_f64(
            &[one_frame, detached, unchanged].map(f64::from),
            pardis_rts::ReduceOp::Min,
        )?;
        req.return_dist_seq(0, &mine)?;
        req.set_result(|w| {
            w.put_f64_slice(&verdict);
            Ok(())
        })
    }
}

#[test]
fn servant_mutation_leaves_other_views_of_the_frame_alone() {
    const LEN: usize = 1024;
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        ctx.register("scribble", Box::new(Scribble), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
    });
    let client = world.spawn_machine("client", 1, |ctx| {
        let proxy = ctx.bind("scribble", None, Some(TYPE)).unwrap();
        let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        for (i, x) in seq.local_data_mut().iter_mut().enumerate() {
            *x = value(i);
        }
        let mut spec = RequestSpec::simple("scribble");
        spec.dist_args = vec![proxy.dist_arg("scribble", 0, ArgDir::InOut, &seq).unwrap()];
        let reply = proxy
            .invoke_with_mode(&ctx, spec, TransferMode::Centralized)
            .unwrap();
        let mut r = pardis_cdr::CdrReader::new(&reply.nondist_body, ctx.endian());
        let mut verdict = Vec::new();
        r.get_f64_slice(3, &mut verdict).unwrap();
        assert_eq!(
            verdict, [1.0; 3],
            "one frame, detached on write, views unchanged"
        );
        let back = DSequence::<f64>::from_bytes(
            reply.dist_bytes(0).unwrap().clone(),
            seq.templ().clone(),
            0,
        )
        .unwrap();
        let half = DistTempl::block(LEN, 2).count(0);
        for (i, x) in back.local_data().iter().enumerate() {
            let want = if i < half { -1.0 } else { value(i) };
            assert_eq!(*x, want, "element {i}");
        }
        // The client's own sequence kept its values.
        assert!(seq
            .local_data()
            .iter()
            .enumerate()
            .all(|(i, &x)| x == value(i)));
        ctx.send_shutdown(proxy.objref()).unwrap();
    });
    client.join();
    server.join();
}

const KEEPER: &str = "IDL:keeper:1.0";

/// Keeps its thread's view of each call's `in` sequence until the next
/// call, and reports, summed over its threads, what the view kept from
/// the previous call reads now (NaN on the first call) and what the new
/// one reads.
#[derive(Default)]
struct Keeper {
    kept: Option<DSequence<f64>>,
}

impl Servant for Keeper {
    fn type_id(&self) -> &str {
        KEEPER
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let seq: DSequence<f64> = req.dist_seq(0)?;
        let sum = |s: &DSequence<f64>| s.local_data().iter().sum::<f64>();
        let old = self.kept.as_ref().map_or(f64::NAN, sum);
        let sums = req
            .ctx()
            .rts()
            .allreduce_f64(&[old, sum(&seq)], pardis_rts::ReduceOp::Sum)?;
        self.kept = Some(seq);
        req.set_result(|w| {
            w.put_f64_slice(&sums);
            Ok(())
        })
    }
}

#[test]
fn a_kept_in_sequence_keeps_the_values_of_its_call() {
    const LEN: usize = 4096;
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        ctx.register("keeper", Box::<Keeper>::default(), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
    });
    let client = world.spawn_machine("client", 2, |ctx| {
        let proxy = ctx.spmd_bind("keeper", None, Some(KEEPER)).unwrap();
        let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        let off = seq.local_range().start;
        let call = |seq: &DSequence<f64>, mode| {
            let mut spec = RequestSpec::simple("keep");
            spec.dist_args = vec![proxy.dist_arg("keep", 0, ArgDir::In, seq).unwrap()];
            let reply = proxy.invoke_with_mode(&ctx, spec, mode).unwrap();
            let mut r = pardis_cdr::CdrReader::new(&reply.nondist_body, ctx.endian());
            let mut sums = Vec::new();
            r.get_f64_slice(2, &mut sums).unwrap();
            (sums[0], sums[1])
        };
        // Failures are collected, not asserted here, so that the
        // server is shut down either way.
        let mut wrong = Vec::new();
        let mut previous = None;
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            for round in 0..3 {
                // Mutate the sequence the servant still views, then send
                // it again.
                for (j, x) in seq.local_data_mut().iter_mut().enumerate() {
                    *x = value(off + j) * (round + 1) as f64;
                }
                let sent: f64 = (0..LEN).map(value).sum::<f64>() * (round + 1) as f64;
                let (old, new) = call(&seq, mode);
                if new != sent {
                    wrong.push(format!(
                        "{mode:?} round {round}: sent {sent}, servant read {new}"
                    ));
                }
                match previous {
                    None if !old.is_nan() => wrong.push(format!("first call kept {old}")),
                    Some(was) if old != was => wrong.push(format!(
                        "{mode:?} round {round}: the kept view changed from {was} to {old}"
                    )),
                    _ => {}
                }
                previous = Some(sent);
            }
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
        wrong
    });
    let wrong = client.join();
    server.join();
    assert!(wrong.iter().all(Vec::is_empty), "{wrong:?}");
}

#[test]
fn a_blocking_call_hands_the_storage_back_unshared() {
    const LEN: usize = 4096;
    const CALLS: usize = 200;
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| {
        diff_objectSkeleton::register(&ctx, "unshared", DiffusionServant::new(), vec![])
            .expect("register");
        ctx.serve_forever().expect("serve");
    });
    let client = world.spawn_machine("client", 2, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "unshared", None).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        let off = arr.local_range().start;
        for (j, x) in arr.local_data_mut().iter_mut().enumerate() {
            *x = value(off + j);
        }
        let mut storage = arr.local_data().as_ptr();
        let want: f64 = (0..LEN).map(value).sum();
        // Copies are counted, not asserted here, so that the server is
        // shut down either way.
        let mut copied = Vec::new();
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            diff._set_transfer_mode(mode).unwrap();
            for call in 0..CALLS {
                assert_eq!(diff.total_heat(&ctx, &arr).unwrap(), want);
                // Mutating right after the call copies nothing: every
                // view the invocation took of the storage is gone.
                let data = arr.local_data_mut();
                if data.as_ptr() != storage {
                    copied.push((mode, call));
                    storage = data.as_ptr();
                }
                data[0] += 0.0;
            }
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(diff.proxy.objref()).unwrap();
        }
        copied
    });
    let copied = client.join();
    server.join();
    assert!(
        copied.iter().all(Vec::is_empty),
        "calls that copied: {copied:?}"
    );
}
