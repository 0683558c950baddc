//! Collectives per invocation, counted on every rank with
//! `Endpoint::collectives_completed`.
//!
//! The serve loop's own protocol — relaying the request, agreeing that
//! every thread received its arguments, and the exit synchronization
//! that doubles as the success agreement — takes exactly three
//! collectives per request on each server thread. The collectives that
//! move argument data (the centralized method's gather) and the
//! servant's own collectives are counted separately and excluded.
//!
//! A collective client (c = 2) spends exactly one collective on entry
//! (synchronize and agree on the request id and method), one on the
//! reply relay (the reply frame reaches every thread), one on exit,
//! plus the centralized method's gather of the data it sends.
//!
//! Receiving distributed data costs no collective in either method:
//! every thread reads its own block from the relayed frame in place
//! (centralized) or from its own data port (multi-port).

use pardis::apps::diffusion::DiffusionServant;
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectImpl, diff_objectProxy, diff_objectSkeleton};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Run the schedule with a `client_threads`-thread client against a
/// two-thread server. Returns the measured invocations per server
/// thread and per client thread.
fn run(client_threads: usize) -> (Vec<Vec<Counted>>, Vec<Vec<Counted>>) {
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
    let client = world.spawn_machine("client", client_threads, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "counted", None).expect("bind");
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
        let (servers, _) = run(client_threads);
        for (rank, counted) in servers.iter().enumerate() {
            assert_eq!(counted.len(), 2 * MODES.len() * REPS);
            for c in counted {
                let data = data_collectives(Side::Server, c.mode, c.op);
                let protocol = c.total - c.servant - data;
                assert_eq!(
                    protocol, 3,
                    "c={client_threads}, server rank {rank}: {c:?} makes {protocol} \
                     protocol collectives"
                );
            }
        }
    }
}

#[test]
fn collective_client_takes_entry_relay_and_exit_collectives() {
    let (_, clients) = run(2);
    for (rank, counted) in clients.iter().enumerate() {
        assert_eq!(counted.len(), 2 * MODES.len() * REPS);
        for c in counted {
            let budget = 3 + data_collectives(Side::Client, c.mode, c.op);
            assert_eq!(
                c.total, budget,
                "client rank {rank}: {c:?} makes {} collectives, budget {budget} \
                 (entry, reply relay, exit and data)",
                c.total
            );
        }
    }
}
