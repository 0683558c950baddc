//! Chaos test: a parallel client keeps invoking a parallel SPMD server
//! while a seeded [`FaultPlan`] drops frames and a server data port is
//! killed mid-run. The invocation deadlines, bounded retry, and the
//! multi-port → centralized fallback must carry all 100 invocations to
//! completion — and because every fault decision is a pure function of
//! `(seed, flow, counter)`, an entire run's observable outcome (drop
//! counts, retry counts, fallback counts, per-invocation results) must
//! replay bit-for-bit from the same seed.

use pardis_cdr::{CdrReader, Decode};
use pardis_core::prelude::*;
use pardis_net::FaultPlan;

const OBJ_TYPE: &str = "IDL:chaos_sum:1.0";
const INVOCATIONS: usize = 100;
const KILL_AT: usize = 50;
const LEN: usize = 64;
const SERVER_THREADS: usize = 2;
const CLIENT_THREADS: usize = 2;
const SEED: u64 = 0x5EED_CAFE;

/// `sum(in dsequence<double>) -> double`: each server thread sums its
/// local part, an allreduce produces the total. Pure, hence idempotent —
/// safe to re-execute on retry.
struct SumServant;

impl Servant for SumServant {
    fn type_id(&self) -> &str {
        OBJ_TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        match req.operation() {
            "sum" => {
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
            other => Err(PardisError::BadOperation(other.to_string())),
        }
    }
}

/// Everything one client thread observed; compared across replays.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClientReport {
    /// Per-invocation outcome (true = resolved Ok).
    ok: Vec<bool>,
    /// Bit patterns of the returned sums, in invocation order.
    sums_bits: Vec<u64>,
    /// Collective retry rounds this proxy went through.
    retries: u64,
    /// Multi-port requests demoted to centralized transfer.
    fallbacks: u64,
    /// Fault counters, observed by the communicating thread only:
    /// (frames_dropped, messages_dropped, connection_resets,
    /// dead_port_hits).
    stats: Option<(u64, u64, u64, u64)>,
}

/// One full chaos run. Returns every client thread's report plus each
/// server thread's corrupt-datagram skip count.
fn run_chaos(seed: u64) -> (Vec<ClientReport>, Vec<u64>) {
    let world = World::new(LinkSpec::unlimited());

    // The server bounds its fragment waits: a request whose data frames
    // were dropped degrades to an error reply instead of wedging the
    // serve loop (the client then retries).
    let server_opts = OrbOptions {
        frag_timeout: Some(std::time::Duration::from_millis(80)),
        ..Default::default()
    };
    let server = world.spawn_machine_with("server", SERVER_THREADS, server_opts, |ctx| {
        ctx.register("example", Box::new(SumServant), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
        ctx.serve_decode_errors()
    });

    let client = world.spawn_machine("client", CLIENT_THREADS, move |ctx| {
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

        // Faults go live only after the (clean) bind, installed once.
        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.host()
                .fabric()
                .install_faults(FaultPlan::new(seed).with_frame_drop(20_000)); // 2%
        }
        ctx.rts().barrier();

        let mut ok = Vec::with_capacity(INVOCATIONS);
        let mut sums_bits = Vec::new();
        for i in 0..INVOCATIONS {
            if i == KILL_AT {
                // Kill the last server thread's data port at a point
                // where no invocation is in flight. Every multi-port
                // request from here on must probe, notice the dead
                // port, and fall back to centralized transfer.
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

            match proxy.invoke(&ctx, spec) {
                Ok(reply) => {
                    let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
                    let got = f64::decode(&mut r).unwrap();
                    let want = LEN as f64 * i as f64 + 0.25 * (LEN * (LEN - 1) / 2) as f64;
                    assert!(
                        (got - want).abs() < 1e-9,
                        "invocation {i} returned {got}, want {want}"
                    );
                    ok.push(true);
                    sums_bits.push(got.to_bits());
                }
                Err(e) => {
                    // Exhausted retries must surface as a typed
                    // communication error, not a hang or a panic.
                    assert!(
                        matches!(
                            e,
                            PardisError::Timeout
                                | PardisError::CommFailure(_)
                                | PardisError::SystemException(_)
                        ),
                        "invocation {i}: unexpected error class: {e}"
                    );
                    ok.push(false);
                }
            }
        }

        // Quiesce, then read the fault counters and shut down over a
        // clean fabric (a dropped shutdown would strand the server).
        ctx.rts().barrier();
        let stats = if ctx.is_comm_thread() {
            let fabric = ctx.host().fabric();
            let s = fabric.fault_stats().unwrap();
            fabric.clear_faults();
            ctx.send_shutdown(proxy.objref()).unwrap();
            Some((
                s.frames_dropped,
                s.messages_dropped,
                s.connection_resets,
                s.dead_port_hits,
            ))
        } else {
            None
        };
        ClientReport {
            ok,
            sums_bits,
            retries: proxy.retry_count(),
            fallbacks: proxy.fallback_count(),
            stats,
        }
    });

    let reports = client.join();
    let decode_errors = server.join();
    (reports, decode_errors)
}

#[test]
fn chaos_replays_bit_for_bit_from_one_seed() {
    let (r1, d1) = run_chaos(SEED);
    let (r2, d2) = run_chaos(SEED);
    let (r3, d3) = run_chaos(SEED);

    // Three runs of the same seed: identical drop counts, retry
    // counts, fallback counts, and per-invocation results.
    assert_eq!(r1, r2, "run 2 diverged from run 1");
    assert_eq!(r2, r3, "run 3 diverged from run 2");
    assert_eq!(d1, d2);
    assert_eq!(d2, d3);

    // The chaos was real and the recovery machinery really ran.
    let comm = r1.iter().find(|r| r.stats.is_some()).unwrap();
    let (frames_dropped, messages_dropped, _, _) = comm.stats.unwrap();
    assert!(messages_dropped > 0, "plan injected no drops");
    assert!(frames_dropped >= messages_dropped);
    assert!(
        comm.retries > 0,
        "{messages_dropped} messages dropped but no invocation retried"
    );
    // Every post-kill invocation (at least) demoted to centralized.
    for r in &r1 {
        assert!(
            r.fallbacks >= INVOCATIONS.saturating_sub(KILL_AT) as u64,
            "only {} fallbacks recorded",
            r.fallbacks
        );
    }
    // Retry carried the overwhelming majority of invocations through.
    let succeeded = comm.ok.iter().filter(|&&b| b).count();
    assert!(
        succeeded >= INVOCATIONS * 9 / 10,
        "only {succeeded}/{INVOCATIONS} invocations completed"
    );

    // Collective agreement: all client threads saw identical outcomes
    // and identical recovery counters.
    for r in &r1 {
        assert_eq!(r.ok, r1[0].ok);
        assert_eq!(r.sums_bits, r1[0].sums_bits);
        assert_eq!(r.retries, r1[0].retries);
        assert_eq!(r.fallbacks, r1[0].fallbacks);
    }
}

#[test]
fn different_seed_schedules_different_chaos() {
    let (r1, _) = run_chaos(SEED);
    let (r2, _) = run_chaos(SEED ^ 0xFFFF);
    let s1 = r1.iter().find_map(|r| r.stats).unwrap();
    let s2 = r2.iter().find_map(|r| r.stats).unwrap();
    assert_ne!(
        (s1, r1[0].retries),
        (s2, r2[0].retries),
        "two seeds produced identical fault schedules"
    );
}

// ---------------------------------------------------------------------
// Thread-death chaos: a scheduled `ThreadDeath` fault kills one server
// computing thread immediately before it serves its `at_step`-th
// request. The degradation policy decides what happens to the
// invocations that follow: `Survivors` remaps the distributed argument
// onto the remaining threads and completes them, `FailFast` refuses
// them with a typed `MembershipChange`. Either way the whole run is a
// pure function of the seeded plan and must replay bit-for-bit.
// ---------------------------------------------------------------------

const D_SERVER_THREADS: usize = 4;
const D_INVOCATIONS: usize = 8;
/// Server serve-step at which rank [`DYING_RANK`] dies.
const DEATH_STEP: u64 = 3;
const DYING_RANK: u32 = 2;

/// What one invocation resolved to, compared across replays.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// Bit pattern of the returned sum.
    Sum(u64),
    /// Typed refusal from a degraded server under `FailFast`/`Quorum`.
    Membership {
        epoch: u64,
        dead: Vec<u32>,
        survivors: Vec<u32>,
    },
    /// Client-side fast-fail: the circuit breaker was open.
    CircuitOpen(u32),
    Other(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct DeathReport {
    outcomes: Vec<Outcome>,
    retries: u64,
    fallbacks: u64,
    /// Epoch observed by `Proxy::rebind`, when the run exercises it.
    rebound_epoch: Option<u64>,
}

/// One thread-death run: a 4-thread server whose rank 2 dies at serve
/// step [`DEATH_STEP`], under `policy`, invoked `D_INVOCATIONS` times
/// by a 2-thread client using `mode`. With `breaker`, the client arms a
/// per-binding circuit breaker and, once it opens, rebinds past the
/// epoch fence and tries once more.
fn run_death_chaos(
    seed: u64,
    policy: DegradePolicy,
    mode: TransferMode,
    breaker: Option<u32>,
) -> Vec<DeathReport> {
    let world = World::new(LinkSpec::unlimited());

    let server_opts = OrbOptions {
        degrade: policy,
        frag_timeout: Some(std::time::Duration::from_millis(80)),
        ..Default::default()
    };
    let server = world.spawn_machine_with("server", D_SERVER_THREADS, server_opts, move |ctx| {
        // The death schedule must be installed before the first request
        // is served; clients bind only after `register` publishes the
        // reference, so this install is ordered before any invocation.
        if ctx.is_comm_thread() {
            ctx.host()
                .fabric()
                .install_faults(FaultPlan::new(seed).with_thread_death(DYING_RANK, DEATH_STEP));
        }
        ctx.rts().barrier();
        ctx.register("victim", Box::new(SumServant), vec![])
            .unwrap();
        // The dying rank's serve loop exits early (like shutdown); the
        // survivors keep serving until the client shuts the machine down.
        ctx.serve_forever().unwrap();
    });

    let client = world.spawn_machine("client", CLIENT_THREADS, move |ctx| {
        let mut proxy = ctx
            .spmd_bind("victim", Some("server"), Some(OBJ_TYPE))
            .unwrap();
        proxy.set_mode(mode).unwrap();
        if mode == TransferMode::MultiPort {
            // The invocation in flight when the death fires loses its
            // fragments; the retry probes the dead data port and demotes
            // to centralized transfer.
            proxy.set_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: std::time::Duration::from_millis(2),
                ..RetryPolicy::default()
            });
        }
        proxy.set_deadline(Some(std::time::Duration::from_secs(2)));
        if let Some(threshold) = breaker {
            proxy.set_circuit_breaker(threshold);
        }

        let invoke_once = |proxy: &Proxy, i: usize| -> Outcome {
            let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
            let off = seq.local_range().start;
            for (j, x) in seq.local_data_mut().iter_mut().enumerate() {
                *x = i as f64 + (off + j) as f64 * 0.25;
            }
            let mut spec = RequestSpec::simple("sum").idempotent();
            spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
            match proxy.invoke(&ctx, spec) {
                Ok(reply) => {
                    let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
                    Outcome::Sum(f64::decode(&mut r).unwrap().to_bits())
                }
                Err(PardisError::MembershipChange {
                    epoch,
                    dead,
                    survivors,
                }) => Outcome::Membership {
                    epoch,
                    dead,
                    survivors,
                },
                Err(PardisError::CircuitOpen { failures }) => Outcome::CircuitOpen(failures),
                Err(e) => Outcome::Other(e.to_string()),
            }
        };

        let mut outcomes: Vec<Outcome> =
            (0..D_INVOCATIONS).map(|i| invoke_once(&proxy, i)).collect();

        // Once the breaker has opened, rebind past the epoch fence (the
        // survivors republished the reference under the bumped epoch)
        // and prove the binding is live again: the next refusal is the
        // typed MembershipChange, not CircuitOpen.
        let rebound_epoch = if breaker.is_some() {
            let epoch = proxy.rebind(&ctx).unwrap();
            outcomes.push(invoke_once(&proxy, D_INVOCATIONS));
            Some(epoch)
        } else {
            None
        };

        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
        DeathReport {
            outcomes,
            retries: proxy.retry_count(),
            fallbacks: proxy.fallback_count(),
            rebound_epoch,
        }
    });

    let reports = client.join();
    server.join();
    reports
}

/// Expected sum for invocation `i` (unchanged by degradation: the
/// survivor remap still covers every element exactly once).
fn expected_sum(i: usize) -> u64 {
    (LEN as f64 * i as f64 + 0.25 * (LEN * (LEN - 1) / 2) as f64).to_bits()
}

#[test]
fn thread_death_survivors_completes_degraded() {
    let r1 = run_death_chaos(
        SEED,
        DegradePolicy::Survivors,
        TransferMode::Centralized,
        None,
    );
    let r2 = run_death_chaos(
        SEED,
        DegradePolicy::Survivors,
        TransferMode::Centralized,
        None,
    );
    assert_eq!(r1, r2, "survivor-mode run diverged between replays");

    for r in &r1 {
        // Every invocation — including those served after rank 2 died —
        // completed with the full sum: the remapped template still
        // covers the whole sequence.
        let want: Vec<Outcome> = (0..D_INVOCATIONS)
            .map(|i| Outcome::Sum(expected_sum(i)))
            .collect();
        assert_eq!(r.outcomes, want);
        assert_eq!(r.retries, 0, "centralized survivor mode needed no retry");
        assert_eq!(r.fallbacks, 0);
    }
}

#[test]
fn thread_death_failfast_returns_typed_membership_change() {
    let threshold = 2u32;
    let r1 = run_death_chaos(
        SEED,
        DegradePolicy::FailFast,
        TransferMode::Centralized,
        Some(threshold),
    );
    let r2 = run_death_chaos(
        SEED,
        DegradePolicy::FailFast,
        TransferMode::Centralized,
        Some(threshold),
    );
    assert_eq!(r1, r2, "fail-fast run diverged between replays");

    let refusal = Outcome::Membership {
        epoch: 1,
        dead: vec![DYING_RANK],
        survivors: (0..D_SERVER_THREADS as u32)
            .filter(|&r| r != DYING_RANK)
            .collect(),
    };
    for r in &r1 {
        assert_eq!(r.outcomes.len(), D_INVOCATIONS + 1);
        for (i, o) in r.outcomes.iter().enumerate() {
            let want = if i < DEATH_STEP as usize {
                // Healthy machine: full sums.
                Outcome::Sum(expected_sum(i))
            } else if i < (DEATH_STEP + threshold as u64) as usize {
                // Degraded machine, fail-fast policy: typed refusal
                // naming the epoch, the dead, and the survivors.
                refusal.clone()
            } else if i < D_INVOCATIONS {
                // Breaker open: fast-fail without touching the wire.
                Outcome::CircuitOpen(threshold)
            } else {
                // After rebind: breaker reset, refusal is typed again.
                refusal.clone()
            };
            assert_eq!(o, &want, "invocation {i}");
        }
        // The rebind crossed the epoch fence to the republished ref.
        assert_eq!(r.rebound_epoch, Some(1));
        assert_eq!(r.retries, 0, "MembershipChange must not be retried");
    }
}

#[test]
fn thread_death_multiport_demotes_and_completes() {
    let r1 = run_death_chaos(
        SEED,
        DegradePolicy::Survivors,
        TransferMode::MultiPort,
        None,
    );
    let r2 = run_death_chaos(
        SEED,
        DegradePolicy::Survivors,
        TransferMode::MultiPort,
        None,
    );
    assert_eq!(r1, r2, "multi-port death run diverged between replays");

    for r in &r1 {
        // The death costs the in-flight multi-port invocation its
        // fragments; the retry demotes to centralized transfer and every
        // invocation still completes with the full sum.
        let want: Vec<Outcome> = (0..D_INVOCATIONS)
            .map(|i| Outcome::Sum(expected_sum(i)))
            .collect();
        assert_eq!(r.outcomes, want);
        assert!(r.retries >= 1, "the death-step invocation must retry");
        // Every post-death invocation probed the dead data port and fell
        // back to centralized transfer.
        assert!(
            r.fallbacks >= (D_INVOCATIONS as u64).saturating_sub(DEATH_STEP + 1),
            "only {} fallbacks recorded",
            r.fallbacks
        );
    }
    // Collective agreement across client threads.
    for r in &r1 {
        assert_eq!(r.outcomes, r1[0].outcomes);
        assert_eq!(r.retries, r1[0].retries);
        assert_eq!(r.fallbacks, r1[0].fallbacks);
    }
}

// ---------------------------------------------------------------------
// Race-replay chaos (the `analyze` feature): the happens-before
// detector's findings are part of the run's observable outcome, so two
// replays of one seed must drain bit-for-bit identical `RaceReport`
// lists — stamps, buffer ids, request ids, and details included.

#[cfg(feature = "analyze")]
mod race_replay {
    use super::*;
    use pardis_core::race;

    const RACE_LEN: usize = 32;
    const RACE_INVOCATIONS: usize = 5;

    /// One run: multi-port `invoke_nb`, with the seed scheduling which
    /// invocations touch `local_data_mut` while the transfer interval
    /// is still open. `racy = false` only touches after `wait` — the
    /// false-positive control.
    fn run_race(seed: u64, racy: bool, client_name: &'static str) -> Vec<race::RaceReport> {
        let world = World::new(LinkSpec::unlimited());
        let server = world.spawn_machine("race-server", SERVER_THREADS, |ctx| {
            ctx.register("example", Box::new(SumServant), vec![])
                .unwrap();
            ctx.serve_forever().unwrap();
        });
        let client = world.spawn_machine(client_name, CLIENT_THREADS, move |ctx| {
            let mut proxy = ctx
                .spmd_bind("example", Some("race-server"), Some(OBJ_TYPE))
                .unwrap();
            proxy.set_mode(TransferMode::MultiPort).unwrap();
            let mut rng = seed;
            for i in 0..RACE_INVOCATIONS {
                let mut seq = DSequence::<f64>::new(ctx.rts(), RACE_LEN, None).unwrap();
                for x in seq.local_data_mut() {
                    *x = i as f64;
                }
                let mut spec = RequestSpec::simple("sum").idempotent();
                spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];
                let fut = proxy.invoke_nb(&ctx, spec).unwrap();
                // Same arithmetic on every thread: the touch schedule
                // is SPMD-uniform and a pure function of the seed.
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if racy && (i == 0 || rng >> 63 == 1) {
                    // The hazard: write while the transfer-read
                    // interval of the in-flight invocation is open.
                    seq.local_data_mut()[0] = -1.0;
                }
                fut.wait().unwrap();
                // Ordered: the invocation completed first.
                seq.local_data_mut()[0] = 0.0;
            }
            ctx.rts().barrier();
            if ctx.is_comm_thread() {
                ctx.send_shutdown(proxy.objref()).unwrap();
            }
        });
        client.join();
        server.join();
        race::take_reports(&format!("{client_name}/"))
    }

    #[test]
    fn racy_run_replays_bit_for_bit() {
        let r1 = run_race(SEED, true, "race-chaos-client");
        let r2 = run_race(SEED, true, "race-chaos-client");
        assert!(!r1.is_empty(), "seeded race was not detected");
        for r in &r1 {
            assert_eq!(r.code, "PA201");
            assert_eq!(r.first, pardis_core::AccessKind::TransferRead);
            assert_eq!(r.second, pardis_core::AccessKind::Write);
        }
        // Bit-for-bit: every field of every report, including both
        // causal stamps and the detail strings.
        assert_eq!(r1, r2, "race replay diverged");
    }

    #[test]
    fn clean_run_has_zero_findings() {
        let reports = run_race(SEED, false, "race-chaos-clean");
        assert!(reports.is_empty(), "false positives: {reports:#?}");
    }
}
