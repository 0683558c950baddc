//! Collectives per invocation, counted on every rank with
//! `Endpoint::collectives_completed`.
//!
//! The serve loop's own protocol takes exactly two collectives per
//! centralized request on each server thread: relaying the request, and
//! the exit synchronization that doubles as the success agreement.
//! Every thread checks the same relayed frame, so each reaches the
//! receive verdict alone. A multi-port request takes a third, the
//! receive agreement, because its threads wait for different fragments;
//! so does a request with an `out` argument in either method, whose
//! block each thread allocates (the `fill` operation below).
//! The collectives that move argument data (the centralized method's
//! gather) and the servant's own collectives are counted separately and
//! excluded.
//!
//! A collective client (c = 2) spends exactly one collective on entry
//! (synchronize and agree on the request id and method), one on the
//! reply relay (the reply frame reaches every thread), one on exit,
//! plus the centralized method's gather of the data it sends. The exit
//! round carries each thread's verdict, so a retry policy and a circuit
//! breaker add none. No thread leaves before every thread has reached
//! the exit round, even one still waiting for its multi-port data after
//! the relay.
//!
//! Receiving distributed data costs no collective in either method:
//! every thread reads its own block from the relayed frame in place
//! (centralized) or from its own data port (multi-port).

use bytes::Bytes;
use pardis::apps::diffusion::DiffusionServant;
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectImpl, diff_objectProxy, diff_objectSkeleton};
use pardis_core::request::ReplyBody;
use pardis_net::giop::{GiopMessage, ReplyHeader, ReplyStatus, TransferHeader};
use pardis_net::ior::ObjectRef;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SERVER_THREADS: usize = 2;
const LEN: usize = 64;
/// Measured invocations per (mode, operation), after one warm-up pair.
const REPS: usize = 3;
const MODES: [TransferMode; 2] = [TransferMode::Centralized, TransferMode::MultiPort];

/// The operations of one measured pair, in invocation order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `total_heat(in darray)`.
    TotalHeat,
    /// `diffusion(0, inout darray)`.
    Diffusion,
}

/// The machine a counting thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Client,
    Server,
}

/// Distributed-data collectives one thread of `side` takes part in for
/// `op`: a centralized side spends one `gather_into` per direction in
/// which it sends distributed data (the client sends `darray` in both
/// operations, the server returns it only from `diffusion`) and none
/// to receive; the multi-port method moves data over the data ports.
fn data_collectives(side: Side, mode: TransferMode, op: Op) -> u64 {
    match (mode, side, op) {
        (TransferMode::MultiPort, _, _) => 0,
        (TransferMode::Centralized, Side::Client, _) => 1,
        (TransferMode::Centralized, Side::Server, Op::TotalHeat) => 0,
        (TransferMode::Centralized, Side::Server, Op::Diffusion) => 1,
    }
}

/// The diffusion servant, counting the collectives its dispatch runs.
struct Counting {
    inner: DiffusionServant,
    collectives: Arc<AtomicU64>,
}

impl Counting {
    fn counted<R>(&mut self, ctx: &OrbCtx, call: impl FnOnce(&mut DiffusionServant) -> R) -> R {
        let before = ctx.rts().collectives_completed();
        let r = call(&mut self.inner);
        let ran = ctx.rts().collectives_completed() - before;
        self.collectives.fetch_add(ran, Ordering::SeqCst);
        r
    }
}

impl diff_objectImpl for Counting {
    fn diffusion(
        &mut self,
        ctx: &OrbCtx,
        timestep: i32,
        darray: &mut DSequence<f64>,
    ) -> PardisResult<()> {
        self.counted(ctx, |s| s.diffusion(ctx, timestep, darray))
    }

    fn total_heat(&mut self, ctx: &OrbCtx, darray: &DSequence<f64>) -> PardisResult<f64> {
        self.counted(ctx, |s| s.total_heat(ctx, darray))
    }

    fn _get_steps_completed(&mut self, ctx: &OrbCtx) -> PardisResult<i32> {
        self.counted(ctx, |s| s._get_steps_completed(ctx))
    }
}

/// What one thread counted for one invocation.
#[derive(Debug, Clone, Copy)]
struct Counted {
    mode: TransferMode,
    op: Op,
    /// Every collective the thread completed while serving or invoking.
    total: u64,
    /// Of those, the ones the servant ran (server side; 0 on a client).
    servant: u64,
}

/// The invocations the client makes, in order: one warm-up pair per
/// mode, then `REPS` measured pairs.
fn schedule() -> Vec<(TransferMode, Op, bool)> {
    let mut calls = Vec::new();
    for mode in MODES {
        for rep in 0..=REPS {
            for op in [Op::TotalHeat, Op::Diffusion] {
                calls.push((mode, op, rep > 0));
            }
        }
    }
    calls
}

/// Protocol collectives one server thread takes per request in `mode`:
/// the relay and the exit, plus the receive agreement in multi-port.
fn server_protocol(mode: TransferMode) -> u64 {
    match mode {
        TransferMode::Centralized => 2,
        TransferMode::MultiPort => 3,
    }
}

/// Run the schedule with a `client_threads`-thread client against a
/// two-thread server, with a retry policy and a circuit breaker on the
/// client's binding if `hardened`. Returns the measured invocations
/// per server thread and per client thread.
fn run(client_threads: usize, hardened: bool) -> (Vec<Vec<Counted>>, Vec<Vec<Counted>>) {
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", SERVER_THREADS, |ctx| {
        let servant_collectives = Arc::new(AtomicU64::new(0));
        let servant = Counting {
            inner: DiffusionServant::new(),
            collectives: servant_collectives.clone(),
        };
        diff_objectSkeleton::register(&ctx, "counted", servant, vec![]).expect("register");
        let mut counted = Vec::new();
        for (mode, op, measured) in schedule() {
            let (total, servant) = (
                ctx.rts().collectives_completed(),
                servant_collectives.load(Ordering::SeqCst),
            );
            assert!(ctx.serve_one().expect("serve"), "early shutdown");
            if measured {
                counted.push(Counted {
                    mode,
                    op,
                    total: ctx.rts().collectives_completed() - total,
                    servant: servant_collectives.load(Ordering::SeqCst) - servant,
                });
            }
        }
        ctx.serve_forever().expect("shutdown");
        counted
    });
    let client = world.spawn_machine("client", client_threads, move |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "counted", None).expect("bind");
        if hardened {
            diff.proxy.set_retry(RetryPolicy::default());
            diff.proxy.set_circuit_breaker(3);
        }
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).expect("sequence");
        arr.local_data_mut().iter_mut().for_each(|x| *x = 1.0);
        let mut counted = Vec::new();
        for (mode, op, measured) in schedule() {
            diff._set_transfer_mode(mode).expect("mode");
            let before = ctx.rts().collectives_completed();
            match op {
                Op::TotalHeat => assert_eq!(diff.total_heat(&ctx, &arr).unwrap(), LEN as f64),
                Op::Diffusion => diff.diffusion(&ctx, 0, &mut arr).unwrap(),
            }
            if measured {
                counted.push(Counted {
                    mode,
                    op,
                    total: ctx.rts().collectives_completed() - before,
                    servant: 0,
                });
            }
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(diff.proxy.objref()).expect("shutdown");
        }
        counted
    });
    let clients = client.join();
    (server.join(), clients)
}

#[test]
fn serve_loop_takes_at_most_three_collectives_per_request() {
    for client_threads in [1, 2] {
        let (servers, _) = run(client_threads, false);
        for (rank, counted) in servers.iter().enumerate() {
            assert_eq!(counted.len(), 2 * MODES.len() * REPS);
            for c in counted {
                let data = data_collectives(Side::Server, c.mode, c.op);
                let protocol = c.total - c.servant - data;
                assert_eq!(
                    protocol,
                    server_protocol(c.mode),
                    "c={client_threads}, server rank {rank}: {c:?} makes {protocol} \
                     protocol collectives"
                );
            }
        }
    }
}

/// Check that every client thread took exactly entry, reply relay,
/// exit and data collectives per invocation.
fn assert_client_budget(clients: &[Vec<Counted>], what: &str) {
    for (rank, counted) in clients.iter().enumerate() {
        assert_eq!(counted.len(), 2 * MODES.len() * REPS);
        for c in counted {
            let budget = 3 + data_collectives(Side::Client, c.mode, c.op);
            assert_eq!(
                c.total, budget,
                "{what} client rank {rank}: {c:?} makes {} collectives, budget {budget} \
                 (entry, reply relay, exit and data)",
                c.total
            );
        }
    }
}

#[test]
fn collective_client_takes_entry_relay_and_exit_collectives() {
    assert_client_budget(&run(2, false).1, "plain");
}

#[test]
fn retry_and_breaker_ride_on_the_exit_round() {
    assert_client_budget(&run(2, true).1, "hardened");
}

/// `f`'s result, if it returns within 30 s.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what}: not done within 30 s (hung or panicked)"))
}

/// The open question whether the client's exit round could fold into
/// the reply relay. A fake multi-port server replies at once, sends
/// client thread 0 its block and holds thread 1's: thread 1 has passed
/// the relay but not reached the exit round. Thread 0 must not return
/// from the invocation while thread 1's block is held.
#[test]
fn collective_client_waits_for_every_thread_at_the_exit_round() {
    const HOLD: Duration = Duration::from_millis(300);
    let world = World::new(LinkSpec::unlimited());
    let tap = world.fabric().add_host("tap");
    let request_port = tap.open_port();
    let data_ports = [tap.open_port(), tap.open_port()];
    world.naming().register(ObjectRef {
        name: "fake".into(),
        type_id: "IDL:diff_object:1.0".into(),
        host: tap.id(),
        request_port: request_port.port(),
        data_ports: data_ports.iter().map(|p| p.port()).collect(),
        nthreads: 2,
        distributions: vec![],
        epoch: 0,
    });
    let returned: Arc<[AtomicBool; 2]> = Arc::new(Default::default());
    let flags = returned.clone();
    let client = world.spawn_machine("client", 2, move |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "fake", None).unwrap();
        diff._set_transfer_mode(TransferMode::MultiPort).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        diff.diffusion(&ctx, 0, &mut arr).unwrap();
        flags[ctx.rank()].store(true, Ordering::SeqCst);
        arr.local_data().to_vec()
    });

    let endian = pardis_cdr::Endian::native();
    let dg = request_port
        .recv_timeout(Duration::from_secs(30))
        .expect("a request");
    let GiopMessage::Request(h, _) = GiopMessage::decode(&dg.payload).unwrap() else {
        panic!("expected a request");
    };
    let body = ReplyBody {
        nondist: Bytes::new(),
        dist_out: vec![(0, LEN, None)],
    };
    let reply = ReplyHeader {
        request_id: h.request_id,
        status: ReplyStatus::NoException,
    };
    let wire = GiopMessage::Reply(reply, body.to_bytes(endian))
        .encode(endian)
        .unwrap();
    tap.send_to(h.reply_host, h.reply_port, wire).unwrap();
    let block = |thread: usize| {
        let half = LEN / 2;
        let header = TransferHeader {
            request_id: h.request_id,
            arg_index: 0,
            src_thread: thread as u32,
            dst_thread: thread as u32,
            offset: (thread * half) as u64,
            count: half as u64,
            total_len: LEN as u64,
            epoch: 0,
        };
        let data = (thread * half..(thread + 1) * half).flat_map(|i| (i as f64).to_ne_bytes());
        let body = Bytes::from(data.collect::<Vec<u8>>());
        let wire = GiopMessage::DataTransfer(header, body)
            .encode(endian)
            .unwrap();
        tap.send_to(h.reply_host, h.client_data_ports[thread], wire)
            .unwrap();
    };
    block(0);
    std::thread::sleep(HOLD);
    assert!(
        !returned[0].load(Ordering::SeqCst),
        "client thread 0 returned while thread 1 still waited for its block"
    );
    block(1);
    let threads = within("client", move || client.join());
    for (rank, local) in threads.iter().enumerate() {
        let want: Vec<f64> = (rank * LEN / 2..(rank + 1) * LEN / 2)
            .map(|i| i as f64)
            .collect();
        assert_eq!(local, &want, "rank {rank}'s block");
    }
}

/// Fills its block of an `out` argument with its rank.
struct Fill;

impl Servant for Fill {
    fn type_id(&self) -> &str {
        "IDL:fill:1.0"
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let mut block: DSequence<f64> = req.dist_seq(0)?;
        let rank = req.ctx().rank() as f64;
        block.local_data_mut().fill(rank);
        req.return_dist_seq(0, &block)
    }
}

/// A request with an `out` argument takes the receive agreement in
/// both methods: each server thread allocates its own `out` block, so
/// only the machine can tell whether every thread could. A server
/// thread then takes 3 protocol collectives per request, plus the
/// centralized reply's gather; the client takes entry, reply relay and
/// exit, and no gather, since it sends no distributed data.
#[test]
fn an_out_argument_takes_the_receive_agreement() {
    let schedule: Vec<(TransferMode, bool)> = MODES
        .iter()
        .flat_map(|&mode| (0..=REPS).map(move |rep| (mode, rep > 0)))
        .collect();
    for client_threads in [1, 2] {
        let world = World::new(LinkSpec::unlimited());
        let calls = schedule.clone();
        let server = world.spawn_machine("server", SERVER_THREADS, move |ctx| {
            ctx.register("fill", Box::new(Fill), vec![])
                .expect("register");
            let mut counted = Vec::new();
            for (mode, measured) in calls.iter().copied() {
                let before = ctx.rts().collectives_completed();
                assert!(ctx.serve_one().expect("serve"), "early shutdown");
                if measured {
                    counted.push((mode, ctx.rts().collectives_completed() - before));
                }
            }
            ctx.serve_forever().expect("shutdown");
            counted
        });
        let calls = schedule.clone();
        let client = world.spawn_machine("client", client_threads, move |ctx| {
            let proxy = ctx.spmd_bind("fill", None, None).expect("bind");
            let seq = DSequence::<f64>::new(ctx.rts(), LEN, None).expect("sequence");
            let mut counted = Vec::new();
            for (mode, measured) in calls.iter().copied() {
                let mut spec = RequestSpec::simple("fill");
                let arg = proxy.dist_arg("fill", 0, ArgDir::Out, &seq).expect("arg");
                spec.dist_args.push(arg);
                let before = ctx.rts().collectives_completed();
                let reply = proxy.invoke_with_mode(&ctx, spec, mode).expect("fill");
                if measured {
                    counted.push((mode, ctx.rts().collectives_completed() - before));
                }
                let got = DSequence::<f64>::from_bytes(
                    reply.dist_bytes(0).expect("returned block").clone(),
                    seq.templ().clone(),
                    ctx.rank(),
                )
                .expect("block");
                let start = seq.local_range().start;
                for (j, x) in got.local_data().iter().enumerate() {
                    let owner = (start + j) / (LEN / SERVER_THREADS);
                    assert_eq!(*x, owner as f64, "{mode:?}, element {}", start + j);
                }
            }
            if ctx.is_comm_thread() {
                ctx.send_shutdown(proxy.objref()).expect("shutdown");
            }
            counted
        });
        let clients = client.join();
        for (rank, counted) in server.join().iter().enumerate() {
            assert_eq!(counted.len(), MODES.len() * REPS);
            for &(mode, total) in counted {
                let data = u64::from(mode == TransferMode::Centralized);
                assert_eq!(
                    total - data,
                    3,
                    "c={client_threads}, server rank {rank}: {mode:?} `out` request makes \
                     {} protocol collectives",
                    total - data
                );
            }
        }
        for (rank, counted) in clients.iter().enumerate() {
            for &(mode, total) in counted {
                assert_eq!(total, 3, "c={client_threads}, client rank {rank}: {mode:?}");
            }
        }
    }
}
