//! One client/server session on the in-process fabric: stand a `World`
//! up, run the closed invocation loop, tear it down.
//!
//! The loop is closed: the client machine issues each collective
//! invocation only after the previous one has returned, alternating the
//! two transfer modes on every invocation. A centralized-only loop at
//! 2^19 doubles was bimodal across fresh processes (see `README.md`);
//! alternating keeps every process in one mode.

use crate::probe::{ProcDelta, ProcSnapshot};
use crate::workload::{Inputs, Op, Workload, MODES, VARIANTS};
use bytes::Bytes;
use pardis::apps::diffusion::DiffusionServant;
use pardis::pardis_cdr::{CdrReader, CdrWriter, Decode, Encode};
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectImpl, diff_objectProxy, diff_objectSkeleton};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OBJECT: &str = "bench";

/// The traced pass reads the process counters on one invocation pair in
/// this many. Reading `/proc` takes tens of microseconds, long enough for
/// the idle server threads to park, so reading it on every invocation
/// would slow the small-payload invocations the trace decomposes.
const PROC_EVERY: usize = 8;

/// What a session runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub inputs: Arc<Inputs>,
    /// How long to measure after warm-up. Zero ends the session after
    /// its first pair of invocations, which is all a set-up timing needs.
    pub measure: Duration,
    /// Traced pass: the raw `Proxy::invoke` path, the timing servant
    /// wrapper on the server, and the process counters.
    pub traced: bool,
}

/// One invocation, as the communicating client thread saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub mode: TransferMode,
    /// Stub call to return, on the communicating thread.
    pub latency: Duration,
    /// Replied without error on every client thread, with the right data.
    pub ok: bool,
    /// Layer timings; traced pass only.
    pub trace: Option<TraceSample>,
}

/// Per-layer view of one traced invocation.
#[derive(Debug, Clone, Copy)]
pub struct TraceSample {
    /// `ReplyResult.timing`, phase-wise max over client threads.
    pub client: InvokeTiming,
    /// `OrbCtx::last_serve_timing`, phase-wise max over server threads.
    pub server: InvokeTiming,
    /// The servant call itself, max over server threads.
    pub dispatch: Duration,
    /// Process counters over the invocation (and the barrier before it);
    /// read on every `PROC_EVERY`-th pair only.
    pub proc: Option<ProcDelta>,
}

/// Everything a session measured.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// `World::new` to the first checked reply.
    pub setup: Duration,
    /// Invocations run before measuring started.
    pub warmup: usize,
    /// Invocations after warm-up.
    pub samples: Vec<Sample>,
    /// All invocations, warm-up included.
    pub attempted: usize,
    pub failed: usize,
}

/// Run one session of `plan`.
pub fn run_session(plan: &Plan) -> SessionResult {
    let w = plan.workload;
    let traced = plan.traced;
    let server_logs: Arc<Vec<Mutex<Vec<ServerRec>>>> =
        Arc::new((0..w.server_threads).map(|_| Mutex::default()).collect());

    let t0 = Instant::now();
    let world = World::new(LinkSpec::unlimited());
    let logs = server_logs.clone();
    let server = world.spawn_machine("server", w.server_threads, move |ctx| {
        if traced {
            let servant = TimedServant {
                inner: DiffusionServant::new(),
                logs: logs.clone(),
            };
            diff_objectSkeleton::register(&ctx, OBJECT, servant, vec![]).expect("register");
        } else {
            diff_objectSkeleton::register(&ctx, OBJECT, DiffusionServant::new(), vec![])
                .expect("register");
        }
        ctx.serve_forever().expect("serve loop");
    });
    let inputs = plan.inputs.clone();
    let measure = plan.measure;
    let client = world.spawn_machine("client", w.client_threads, move |ctx| {
        client_loop(&ctx, w, &inputs, measure, traced, t0)
    });
    let (setups, clients): (Vec<Duration>, Vec<Vec<ClientRec>>) = client.join().into_iter().unzip();
    server.join();

    let n = clients[0].len();
    assert!(
        clients.iter().all(|c| c.len() == n),
        "client threads ran different invocation counts"
    );
    let servers: Vec<Vec<ServerRec>> = server_logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("server log lock")))
        .collect();
    // Dispatch j reads the timing of request j-1, and the loop ends with
    // one extra request, so a complete traced log holds n + 1 entries.
    let server_complete = servers.iter().all(|s| s.len() == n + 1);

    let mut samples = Vec::with_capacity(n);
    for j in 0..n {
        let trace = (traced && server_complete).then(|| {
            let mut client = InvokeTiming::default();
            for c in &clients {
                client.max_with(&c[j].timing);
            }
            let mut server = InvokeTiming::default();
            let mut dispatch = Duration::ZERO;
            for s in &servers {
                server.max_with(&s[j + 1].prev);
                dispatch = dispatch.max(s[j].dispatch);
            }
            TraceSample {
                client,
                server,
                dispatch,
                proc: clients[0][j].proc,
            }
        });
        samples.push(Sample {
            mode: MODES[j % 2],
            latency: clients[0][j].latency,
            ok: clients.iter().all(|c| c[j].ok),
            trace,
        });
    }
    let failed = samples.iter().filter(|s| !s.ok).count();
    let warmup = if measure.is_zero() {
        n
    } else {
        2 * w.warmup_pairs
    };
    SessionResult {
        setup: setups[0],
        warmup,
        samples: samples.split_off(warmup),
        attempted: n,
        failed,
    }
}

/// One invocation on one client thread.
#[derive(Debug, Clone, Copy, Default)]
struct ClientRec {
    latency: Duration,
    ok: bool,
    timing: InvokeTiming,
    proc: Option<ProcDelta>,
}

fn client_loop(
    ctx: &OrbCtx,
    w: Workload,
    inputs: &Inputs,
    measure: Duration,
    traced: bool,
    t0: Instant,
) -> (Duration, Vec<ClientRec>) {
    let mut proxy = diff_objectProxy::_spmd_bind(ctx, OBJECT, None).expect("bind");
    let comm = ctx.is_comm_thread();
    let mut seqs: Vec<DSequence<f64>> = inputs
        .arrays
        .iter()
        .map(|arr| {
            let mut s = DSequence::new(ctx.rts(), w.len, None).expect("dsequence");
            let range = s.local_range();
            s.local_data_mut().copy_from_slice(&arr[range]);
            s
        })
        .collect();
    let expected: Vec<Vec<f64>> = seqs.iter().map(|s| s.local_data().to_vec()).collect();

    let mut recs = Vec::new();
    let mut setup = Duration::ZERO;
    let mut deadline = None;
    loop {
        let k = recs.len();
        let mode = MODES[k % 2];
        let v = (k / 2) % VARIANTS;
        let (seq, local, sum) = (&mut seqs[v], &expected[v], inputs.sums[v]);
        let rec = if traced {
            // The first measured pair is always one of those counted.
            let count = (k / 2).abs_diff(w.warmup_pairs) % PROC_EVERY == 0;
            invoke_raw(ctx, &mut proxy, w.op, mode, seq, local, sum, count)
        } else {
            invoke_stub(ctx, &mut proxy, w.op, mode, seq, local, sum)
        };
        if recs.is_empty() {
            setup = t0.elapsed();
        }
        recs.push(rec);

        let pairs = recs.len() / 2;
        if recs.len() % 2 == 1 {
            continue;
        }
        let stop = comm && {
            if pairs == w.warmup_pairs {
                deadline = Some(Instant::now() + measure);
            }
            measure.is_zero() || deadline.is_some_and(|d| Instant::now() >= d)
        };
        let flag = Bytes::from_static(if stop { &[1] } else { &[0] });
        let agreed = ctx
            .rts()
            .broadcast(0, comm.then_some(flag))
            .expect("stop broadcast");
        if agreed[0] == 1 {
            break;
        }
    }
    if traced {
        // Lets the server wrapper read the last request's timing.
        proxy._get_steps_completed(ctx).expect("flush invocation");
    }
    if comm {
        ctx.send_shutdown(proxy.proxy.objref()).expect("shutdown");
    }
    (setup, recs)
}

/// The untraced path: the generated stub, exactly as a user calls it.
fn invoke_stub(
    ctx: &OrbCtx,
    proxy: &mut diff_objectProxy,
    op: Op,
    mode: TransferMode,
    seq: &mut DSequence<f64>,
    expected: &[f64],
    sum: f64,
) -> ClientRec {
    proxy._set_transfer_mode(mode).expect("transfer mode");
    let t = Instant::now();
    let (latency, ok) = match op {
        Op::TotalHeat => {
            let r = proxy.total_heat(ctx, seq);
            (t.elapsed(), r.is_ok_and(|heat| heat == sum))
        }
        Op::DiffusionZero => {
            let r = proxy.diffusion(ctx, 0, seq);
            let latency = t.elapsed();
            let ok = r.is_ok() && same_bits(seq.local_data(), expected);
            if !ok {
                let (templ, thread) = (seq.templ().clone(), seq.thread());
                *seq = DSequence::from_parts(expected.to_vec(), templ, thread).expect("restore");
            }
            (latency, ok)
        }
    };
    ClientRec {
        latency,
        ok,
        ..ClientRec::default()
    }
}

/// The traced path: the request the stub would build, sent through
/// `Proxy::invoke` so the reply's `InvokeTiming` is kept. With `count`,
/// the process counters are read around it, and a barrier lines the
/// client threads up after the communicating thread's `/proc` reads.
#[allow(clippy::too_many_arguments)]
fn invoke_raw(
    ctx: &OrbCtx,
    proxy: &mut diff_objectProxy,
    op: Op,
    mode: TransferMode,
    seq: &DSequence<f64>,
    expected: &[f64],
    sum: f64,
    count: bool,
) -> ClientRec {
    proxy._set_transfer_mode(mode).expect("transfer mode");
    let before = if count {
        let b = ctx.is_comm_thread().then(ProcSnapshot::take);
        ctx.rts().barrier();
        b
    } else {
        None
    };

    let t = Instant::now();
    let (name, dir) = match op {
        Op::TotalHeat => ("total_heat", ArgDir::In),
        Op::DiffusionZero => ("diffusion", ArgDir::InOut),
    };
    let mut spec = RequestSpec::simple(name);
    if op == Op::DiffusionZero {
        let mut body = CdrWriter::new(ctx.endian());
        0i32.encode(&mut body).expect("encode timestep");
        spec.nondist_body = body.into_shared();
    }
    spec.dist_args
        .push(proxy.proxy.dist_arg(name, 0, dir, seq).expect("dist arg"));
    let reply = proxy.proxy.invoke(ctx, spec);
    let returned: Option<Vec<f64>> = match (&reply, op) {
        (Ok(r), Op::DiffusionZero) => r.dist_local(0).map(f64::from_native_bytes),
        _ => None,
    };
    let latency = t.elapsed();
    let proc = before.map(|b| ProcSnapshot::take().since(&b));

    let Ok(reply) = reply else {
        return ClientRec {
            latency,
            proc,
            ..ClientRec::default()
        };
    };
    let ok = match op {
        Op::TotalHeat => {
            let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
            f64::decode(&mut r).is_ok_and(|heat| heat == sum)
        }
        Op::DiffusionZero => returned.is_some_and(|v| same_bits(&v, expected)),
    };
    ClientRec {
        latency,
        ok,
        timing: reply.timing,
        proc,
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One dispatch on one server thread.
#[derive(Debug, Clone, Copy, Default)]
struct ServerRec {
    /// `last_serve_timing` at dispatch entry: the previous request's.
    prev: InvokeTiming,
    dispatch: Duration,
}

/// `DiffusionServant` with a timer around each call, logging the
/// server-side phase timings the ORB kept for the previous request.
struct TimedServant {
    inner: DiffusionServant,
    logs: Arc<Vec<Mutex<Vec<ServerRec>>>>,
}

impl TimedServant {
    fn timed<R>(&mut self, ctx: &OrbCtx, call: impl FnOnce(&mut DiffusionServant) -> R) -> R {
        let prev = ctx.last_serve_timing();
        let t = Instant::now();
        let r = call(&mut self.inner);
        let dispatch = t.elapsed();
        self.logs[ctx.rank()]
            .lock()
            .expect("server log lock")
            .push(ServerRec { prev, dispatch });
        r
    }
}

impl diff_objectImpl for TimedServant {
    fn diffusion(
        &mut self,
        ctx: &OrbCtx,
        timestep: i32,
        darray: &mut DSequence<f64>,
    ) -> PardisResult<()> {
        self.timed(ctx, |s| s.diffusion(ctx, timestep, darray))
    }

    fn total_heat(&mut self, ctx: &OrbCtx, darray: &DSequence<f64>) -> PardisResult<f64> {
        self.timed(ctx, |s| s.total_heat(ctx, darray))
    }

    fn _get_steps_completed(&mut self, ctx: &OrbCtx) -> PardisResult<i32> {
        self.timed(ctx, |s| s._get_steps_completed(ctx))
    }
}
