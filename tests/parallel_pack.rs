//! Parallel marshaling in the centralized method (paper §3.2: "the
//! computing threads of the client first synchronize, marshal arguments
//! and then the request is sent to the server as one message").
//!
//! Every computing thread packs its own block of a distributed
//! argument into the one Request or Reply frame, so every thread
//! reports marshaling time of its own: the client threads for the `in`
//! argument of `total_heat`, the server threads for the `inout`
//! argument `diffusion(0)` returns.

use pardis::apps::diffusion::DiffusionServant;
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectProxy, diff_objectSkeleton};
use std::time::Duration;

const THREADS: usize = 2;
const LEN: usize = 1 << 16;

#[test]
fn every_computing_thread_marshals_its_own_block() {
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", THREADS, |ctx| {
        diff_objectSkeleton::register(&ctx, "heat", DiffusionServant::new(), vec![])
            .expect("register");
        assert!(ctx.serve_one().expect("serve total_heat"));
        assert!(ctx.serve_one().expect("serve diffusion"));
        let diffusion = ctx.last_serve_timing();
        ctx.serve_forever().expect("shutdown");
        diffusion
    });
    let client = world.spawn_machine("client", THREADS, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "heat", None).expect("bind");
        diff._set_transfer_mode(TransferMode::Centralized)
            .expect("mode");
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).expect("sequence");
        arr.local_data_mut().iter_mut().for_each(|x| *x = 0.25);

        let mut spec = RequestSpec::simple("total_heat");
        spec.dist_args = vec![diff
            .proxy
            .dist_arg("total_heat", 0, ArgDir::In, &arr)
            .expect("argument")];
        let total_heat = diff
            .proxy
            .invoke_with_mode(&ctx, spec, TransferMode::Centralized)
            .expect("total_heat")
            .timing;
        diff.diffusion(&ctx, 0, &mut arr).expect("diffusion");
        if ctx.is_comm_thread() {
            ctx.send_shutdown(diff.proxy.objref()).expect("shutdown");
        }
        total_heat
    });
    let clients = client.join();
    let servers = server.join();

    for (rank, t) in clients.iter().enumerate() {
        assert!(
            t.pack > Duration::ZERO,
            "client rank {rank} packed nothing of total_heat's argument: {t:?}"
        );
    }
    for (rank, t) in servers.iter().enumerate() {
        assert!(
            t.pack > Duration::ZERO,
            "server rank {rank} packed nothing of diffusion's reply: {t:?}"
        );
    }
}
