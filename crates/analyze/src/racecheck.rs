//! Pass 4: happens-before race replay (findings PA201 and PA202).
//!
//! [`pardis_core::race`] records, behind the `analyze` feature, every
//! application access to a distributed sequence's local buffer and
//! every one-sided window access, each stamped with the per-rank
//! causal stamp of [`pardis_rts::clock`]. This pass replays seeded
//! SPMD programs on the [`World`] testbed:
//!
//! * a **racy** client that writes `local_data_mut` while a multi-port
//!   transfer interval on the same buffer is still open (the future
//!   from `invoke_nb` has not been waited on) — every touched
//!   invocation must yield a PA201 report, and a second replay of the
//!   same seed must drain a bit-for-bit identical report list;
//! * a **clean** client that only touches buffers after `wait` — zero
//!   findings, the false-positive guard;
//! * a **window** program whose threads issue overlapping one-sided
//!   writes with no fence between them — a PA202 report at the next
//!   exposure-epoch boundary.

use pardis_core::prelude::*;
use pardis_core::race::{self, RaceReport};
use pardis_idl::diag::json_escape;

const VICTIM_TYPE: &str = "IDL:race_victim:1.0";
const THREADS: usize = 2;
const INVOCATIONS: usize = 6;
const SEQ_LEN: usize = 64;

/// A servant that consumes one distributed `in` argument and replies
/// with an empty result — the races under test are all client-side.
struct Sink;

impl Servant for Sink {
    fn type_id(&self) -> &str {
        VICTIM_TYPE
    }
    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let _arr: pardis_core::DSequence<f64> = req.dist_seq(0)?;
        req.set_result(|_| Ok(()))
    }
}

/// Everything one `check` run produced.
#[derive(Debug)]
pub struct RaceCheckReport {
    /// The seed the racy schedule was derived from.
    pub seed: u64,
    /// Reports drained from the first racy run, sorted.
    pub racy: Vec<RaceReport>,
    /// Reports drained from the second run of the same seed; must
    /// equal `racy` bit-for-bit (stamps, buffer ids, details).
    pub replay: Vec<RaceReport>,
    /// Reports from the clean run; must be empty.
    pub clean: Vec<RaceReport>,
    /// Reports from the unfenced-window program; PA202 expected.
    pub window: Vec<RaceReport>,
}

impl RaceCheckReport {
    /// Whether every expectation holds: races found and replayed
    /// identically, no false positives, window misuse flagged.
    pub fn ok(&self) -> bool {
        !self.racy.is_empty()
            && self.racy.iter().all(|r| r.code == "PA201")
            && self.racy == self.replay
            && self.clean.is_empty()
            && !self.window.is_empty()
            && self.window.iter().all(|r| r.code == "PA202")
    }
}

/// Splitmix-style step: the racy-touch schedule is a pure function of
/// the seed, so a replay touches the same invocations.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run the transfer scenario once under `client` as the machine name
/// and drain its reports. `racy` selects whether the seed-scheduled
/// mid-flight `local_data_mut` touches happen at all.
pub fn run_transfers(seed: u64, racy: bool, client: &str) -> Result<Vec<RaceReport>, String> {
    let world = World::new(LinkSpec::unlimited());
    let server_name = format!("{client}-server");
    let server = world.spawn_machine(&server_name, THREADS, |ctx| -> Result<(), String> {
        ctx.register("victim", Box::new(Sink), vec![])
            .map_err(|e| format!("register: {e}"))?;
        ctx.serve_forever().map_err(|e| format!("serve: {e}"))
    });
    let client_name = client.to_string();
    let srv = server_name.clone();
    let handle = world.spawn_machine(&client_name, THREADS, move |ctx| -> Result<(), String> {
        let proxy = ctx
            .spmd_bind("victim", Some(&srv), Some(VICTIM_TYPE))
            .map_err(|e| format!("bind: {e}"))?;
        let mut proxy = proxy;
        proxy
            .set_mode(TransferMode::MultiPort)
            .map_err(|e| format!("set_mode: {e}"))?;
        let mut rng = seed;
        for i in 0..INVOCATIONS {
            let mut seq = DSequence::<f64>::new(ctx.rts(), SEQ_LEN, None)
                .map_err(|e| format!("dseq: {e}"))?;
            for x in seq.local_data_mut() {
                *x = i as f64;
            }
            let mut spec = RequestSpec::simple("consume").idempotent();
            spec.dist_args = vec![proxy
                .dist_arg("consume", 0, ArgDir::In, &seq)
                .map_err(|e| format!("dist_arg: {e}"))?];
            let fut = proxy
                .invoke_nb(&ctx, spec)
                .map_err(|e| format!("invoke_nb: {e}"))?;
            // The hazard under test: the transfer interval opened by
            // the send phase is still open until `wait`. The schedule
            // is SPMD-uniform (same seed, same arithmetic on every
            // thread), so no thread diverges. Invocation 0 always
            // touches, guaranteeing at least one race per racy run.
            if racy && (i == 0 || next_rand(&mut rng) & 1 == 1) {
                seq.local_data_mut()[0] = -1.0;
            }
            fut.wait().map_err(|e| format!("wait: {e}"))?;
            // Ordered access: the invocation completed, the interval
            // is closed — never a finding.
            let _ = seq.local_data();
        }
        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref())
                .map_err(|e| format!("shutdown: {e}"))?;
        }
        Ok(())
    });
    for r in handle.join() {
        r?;
    }
    for r in server.join() {
        r?;
    }
    Ok(race::take_reports(&format!("{client}/")))
}

/// Run the unfenced-window program: both threads write the same
/// element of rank 0's part with no fence between the writes, then
/// fence. The two writes carry concurrent stamps — PA202.
pub fn run_window(client: &str) -> Result<Vec<RaceReport>, String> {
    let world = World::new(LinkSpec::unlimited());
    let handle = world.spawn_machine(client, THREADS, |ctx| -> Result<(), String> {
        let seq = DSequence::<f64>::from_local(ctx.rts(), vec![ctx.rank() as f64; 4])
            .map_err(|e| format!("dseq: {e}"))?;
        let ex = seq.expose(ctx.rts()).map_err(|e| format!("expose: {e}"))?;
        // Every thread writes global element 1 (rank 0's part) in the
        // same exposure epoch; nothing orders the writes.
        ex.put(1, ctx.rank() as f64 + 10.0)
            .map_err(|e| format!("put: {e}"))?;
        ex.fence(ctx.rts());
        // Post-fence accesses are ordered by the fence — clean.
        let _ = ex.get(1).map_err(|e| format!("get: {e}"))?;
        let _ = ex
            .into_seq(ctx.rts())
            .map_err(|e| format!("into_seq: {e}"))?;
        Ok(())
    });
    for r in handle.join() {
        r?;
    }
    Ok(race::take_reports(&format!("{client}/")))
}

/// Run every race scenario for `seed` and collect the evidence.
pub fn check(seed: u64) -> Result<RaceCheckReport, String> {
    let racy = run_transfers(seed, true, "racecheck-racy")?;
    let replay = run_transfers(seed, true, "racecheck-racy")?;
    let clean = run_transfers(seed, false, "racecheck-clean")?;
    let window = run_window("racecheck-window")?;
    Ok(RaceCheckReport {
        seed,
        racy,
        replay,
        clean,
        window,
    })
}

/// Render reports as the analyzer's JSON findings document (same
/// envelope as `pardis-idlc --analyze`, schema version 2).
pub fn to_json(reports: &[RaceReport]) -> String {
    let mut s = String::from("{\"schema_version\":2,\"version\":1,\"findings\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"code\":\"{}\",\"actor\":\"{}\",\"rank\":{},\"buffer\":{},\
             \"first\":\"{}\",\"second\":\"{}\",\"message\":\"{}\"}}",
            r.code,
            json_escape(&r.actor),
            r.rank,
            r.buffer,
            r.first.name(),
            r.second.name(),
            json_escape(&r.detail)
        ));
    }
    s.push_str("]}");
    s
}
