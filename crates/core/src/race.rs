//! Happens-before race detection for the SPMD data plane (the
//! `analyze` feature; findings PA201 and PA202).
//!
//! The paper's argument-transfer methods move a distributed sequence's
//! local parts while the computing threads keep running: a future
//! returned by `invoke_nb` leaves the argument buffers logically
//! in-flight until `wait`, and an exposed sequence accepts one-sided
//! reads and writes from any rank between fences. Neither the type
//! system nor the RTS orders those accesses — this module does, using
//! the per-rank causal stamps of [`pardis_rts::clock`]:
//!
//! * **PA201 — data race on a dsequence buffer.** Each invocation's send
//!   phase opens an epoch-scoped *access interval* per distributed argument
//!   when the send phase starts ([`open_transfer`]) and closes it when
//!   the invocation completes ([`close_transfer`]). An application
//!   access to the same local buffer
//!   (`local_data`/`local_data_mut`/`redistribute`) while a conflicting
//!   interval is open has no happens-before edge from the transfer's
//!   completion — a race, reported with both access kinds and both
//!   stamps.
//!
//! * **PA202 — RMA window accessed outside a synchronizing exposure
//!   epoch.** Every one-sided access through an `ExposedSeq` is logged
//!   against the window's collective identity. At each fence the log
//!   is drained and overlapping accesses from different origins with
//!   concurrent stamps (the same generation — no fence separated them)
//!   are reported when at least one is a write.
//!
//! Reports accumulate **without deduplication** in a process-global
//! log drained by [`take_reports`]; because stamps, buffer identities,
//! and the fault plan are all deterministic, two replays of the same
//! seed drain bit-for-bit identical reports. Each report is also
//! mirrored (deduplicated) into the [`crate::analyze`] finding sink for
//! the `pardis-analyze` CLI.

use crate::request::ArgDir;
use pardis_net::giop::TransferMode;
use pardis_rts::clock::{ClockWitness, Stamp};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// How a distributed-sequence local buffer is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Application read (`local_data`).
    Read,
    /// Application write (`local_data_mut`, `redistribute`).
    Write,
    /// A transfer reading the buffer (an `in` argument in
    /// flight).
    TransferRead,
    /// A transfer writing the buffer (an `out`/`inout` argument
    /// in flight).
    TransferWrite,
}

impl AccessKind {
    /// Whether two accesses to the same buffer conflict (at least one
    /// writes).
    pub fn conflicts(self, other: AccessKind) -> bool {
        use AccessKind::*;
        !matches!((self, other), (Read | TransferRead, Read | TransferRead))
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::TransferRead => "transfer-read",
            AccessKind::TransferWrite => "transfer-write",
        }
    }
}

/// One detected race, with enough context to pin both sides.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceReport {
    /// `PA201` (dsequence buffer) or `PA202` (RMA window).
    pub code: &'static str,
    /// `machine/rank` label of the thread the race was detected on.
    pub actor: String,
    /// Rank of the first access's origin thread.
    pub rank: usize,
    /// Buffer identity: a per-thread dsequence buffer id (PA201) or the
    /// window's collective id (PA202).
    pub buffer: u64,
    /// Kind of the earlier access (the open interval / first log
    /// entry).
    pub first: AccessKind,
    /// Kind of the later, conflicting access.
    pub second: AccessKind,
    /// Causal stamp of the earlier access.
    pub first_stamp: Stamp,
    /// Causal stamp of the later access.
    pub second_stamp: Stamp,
    /// Human-readable account of the pair.
    pub detail: String,
}

struct Actor {
    machine: String,
    rank: usize,
}

struct OpenInterval {
    buf: u64,
    req_id: u64,
    kind: AccessKind,
    stamp: Stamp,
    epoch: u64,
    op: String,
    mode: &'static str,
}

thread_local! {
    static ACTOR: RefCell<Option<Actor>> = const { RefCell::new(None) };
    static NEXT_BUF: Cell<u64> = const { Cell::new(1) };
    static INTERVALS: RefCell<Vec<OpenInterval>> = const { RefCell::new(Vec::new()) };
    static WIN_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Bind the calling thread to its `machine/rank` identity (done by
/// `OrbCtx::init`); reports from this thread carry the label, which is
/// what lets concurrently running scenarios drain their own findings.
pub fn set_actor(machine: &str, rank: usize) {
    ACTOR.with(|a| {
        *a.borrow_mut() = Some(Actor {
            machine: machine.to_string(),
            rank,
        });
    });
}

fn actor_parts() -> (String, usize) {
    ACTOR.with(|a| {
        a.borrow()
            .as_ref()
            .map(|s| (format!("{}/{}", s.machine, s.rank), s.rank))
            .unwrap_or_else(|| ("<unbound>/0".to_string(), 0))
    })
}

/// A fresh buffer identity for the calling thread. Ids are per-thread
/// creation counters — never addresses — so replays of a deterministic
/// scenario assign identical ids.
pub fn new_buf_id() -> u64 {
    NEXT_BUF.with(|n| {
        let id = n.get();
        n.set(id + 1);
        id
    })
}

fn log() -> &'static Mutex<Vec<RaceReport>> {
    static LOG: OnceLock<Mutex<Vec<RaceReport>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record a report: appended verbatim to the replayable log and
/// mirrored (deduplicated) into the [`crate::analyze`] sink.
pub fn report(r: RaceReport) {
    crate::analyze::record(r.code, format!("[{}] {}", r.actor, r.detail));
    log().lock().unwrap_or_else(|p| p.into_inner()).push(r);
}

/// Drain every report whose actor label starts with `actor_prefix`,
/// sorted. Reports from other actors stay in the log, so concurrently
/// running tests do not steal each other's findings.
pub fn take_reports(actor_prefix: &str) -> Vec<RaceReport> {
    let mut l = log().lock().unwrap_or_else(|p| p.into_inner());
    let mut out = Vec::new();
    l.retain(|r| {
        if r.actor.starts_with(actor_prefix) {
            out.push(r.clone());
            false
        } else {
            true
        }
    });
    out.sort();
    out
}

/// Clear all race state (between analyzer scenarios).
pub fn reset() {
    log().lock().unwrap_or_else(|p| p.into_inner()).clear();
    win_log().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Open a transfer interval on `buf` for one distributed argument of
/// request `req_id`: the transfer reads `in` arguments and writes
/// `out`/`inout` arguments until [`close_transfer`]. `buf` 0 means the
/// argument was not built from a tracked sequence and is skipped.
pub(crate) fn open_transfer(
    buf: u64,
    dir: ArgDir,
    op: &str,
    req_id: u64,
    mode: TransferMode,
    epoch: u64,
) {
    if buf == 0 {
        return;
    }
    let kind = if dir.returns() {
        AccessKind::TransferWrite
    } else {
        AccessKind::TransferRead
    };
    ClockWitness::tick();
    let stamp = ClockWitness::snapshot();
    INTERVALS.with(|iv| {
        iv.borrow_mut().push(OpenInterval {
            buf,
            req_id,
            kind,
            stamp,
            epoch,
            op: op.to_string(),
            mode: match mode {
                TransferMode::Centralized => "centralized",
                TransferMode::MultiPort => "multi-port",
            },
        });
    });
}

/// Close every interval request `req_id` opened (invocation complete:
/// from here on, application accesses are ordered after the transfer).
pub(crate) fn close_transfer(req_id: u64) {
    INTERVALS.with(|iv| iv.borrow_mut().retain(|i| i.req_id != req_id));
}

/// Record an application access to dsequence buffer `buf`; any open
/// conflicting interval on the same buffer is a PA201 race.
pub(crate) fn on_access(buf: u64, kind: AccessKind, what: &str) {
    if buf == 0 {
        return;
    }
    ClockWitness::tick();
    let now = ClockWitness::snapshot();
    let (actor, rank) = actor_parts();
    INTERVALS.with(|iv| {
        for i in iv.borrow().iter() {
            if i.buf == buf && i.kind.conflicts(kind) {
                report(RaceReport {
                    code: "PA201",
                    actor: actor.clone(),
                    rank,
                    buffer: buf,
                    first: i.kind,
                    second: kind,
                    first_stamp: i.stamp,
                    second_stamp: now,
                    detail: format!(
                        "{what} ({}) on dsequence buffer {buf} while a {} {} interval of \
                         op `{}` (request {:#x}, epoch {}) is open; no happens-before \
                         edge from the transfer's completion orders them",
                        kind.name(),
                        i.mode,
                        i.kind.name(),
                        i.op,
                        i.req_id,
                        i.epoch
                    ),
                });
            }
        }
    });
}

/// One logged one-sided access to an exposed window.
#[derive(Debug, Clone)]
struct WinAccess {
    origin: usize,
    seq: u64,
    target: usize,
    offset: usize,
    len: usize,
    write: bool,
    stamp: Stamp,
    actor: String,
}

fn win_log() -> &'static Mutex<HashMap<u64, Vec<WinAccess>>> {
    static LOG: OnceLock<Mutex<HashMap<u64, Vec<WinAccess>>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Log a one-sided access to window `win` (`target`'s buffer,
/// `[offset, offset+len)`).
pub(crate) fn on_window_access(win: u64, target: usize, offset: usize, len: usize, write: bool) {
    ClockWitness::tick();
    let stamp = ClockWitness::snapshot();
    let (actor, origin) = actor_parts();
    let seq = WIN_SEQ.with(|s| {
        let v = s.get();
        s.set(v + 1);
        v
    });
    win_log()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(win)
        .or_default()
        .push(WinAccess {
            origin,
            seq,
            target,
            offset,
            len,
            write,
            stamp,
            actor,
        });
}

/// Drain window `win`'s access log at an exposure-epoch boundary and
/// report every conflicting pair left unordered by the stamps (PA202).
/// Called by one rank per fence, after a barrier has made all pre-fence
/// accesses visible.
pub(crate) fn window_fence(win: u64) {
    let mut accesses = win_log()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&win)
        .unwrap_or_default();
    // Per-origin order is deterministic; sorting makes the global pair
    // enumeration independent of thread interleaving.
    accesses.sort_by_key(|a| (a.origin, a.seq));
    for i in 0..accesses.len() {
        for j in i + 1..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.origin == b.origin || a.target != b.target {
                continue;
            }
            if !(a.write || b.write) {
                continue;
            }
            if a.offset + a.len <= b.offset || b.offset + b.len <= a.offset {
                continue;
            }
            // A fence between them would have ordered the stamps.
            if a.stamp.leq(a.origin, b.stamp, b.origin) || b.stamp.leq(b.origin, a.stamp, a.origin)
            {
                continue;
            }
            let kind = |w: bool| {
                if w {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                }
            };
            report(RaceReport {
                code: "PA202",
                actor: a.actor.clone(),
                rank: a.origin,
                buffer: win,
                first: kind(a.write),
                second: kind(b.write),
                first_stamp: a.stamp,
                second_stamp: b.stamp,
                detail: format!(
                    "one-sided {} of [{}..{}) and {} of [{}..{}) on rank {}'s part of \
                     window {win} by ranks {} and {} fall outside any synchronizing \
                     exposure epoch (no fence orders them)",
                    kind(a.write).name(),
                    a.offset,
                    a.offset + a.len,
                    kind(b.write).name(),
                    b.offset,
                    b.offset + b.len,
                    a.target,
                    a.origin,
                    b.origin
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_matrix() {
        use AccessKind::*;
        assert!(!Read.conflicts(Read));
        assert!(!Read.conflicts(TransferRead));
        assert!(!TransferRead.conflicts(Read));
        assert!(Read.conflicts(Write));
        assert!(Write.conflicts(Write));
        assert!(TransferRead.conflicts(Write));
        assert!(TransferWrite.conflicts(Read));
        assert!(TransferWrite.conflicts(Write));
    }

    #[test]
    fn open_interval_flags_conflicting_access() {
        std::thread::spawn(|| {
            set_actor("race-unit-a", 0);
            let buf = new_buf_id();
            open_transfer(buf, ArgDir::In, "step", 0x10, TransferMode::MultiPort, 0);
            on_access(buf, AccessKind::Read, "local_data");
            assert!(
                take_reports("race-unit-a/").is_empty(),
                "read vs transfer-read"
            );
            on_access(buf, AccessKind::Write, "local_data_mut");
            let r = take_reports("race-unit-a/");
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].code, "PA201");
            assert_eq!(r[0].first, AccessKind::TransferRead);
            assert_eq!(r[0].second, AccessKind::Write);
            assert_eq!(r[0].buffer, buf);
            close_transfer(0x10);
            on_access(buf, AccessKind::Write, "local_data_mut");
            assert!(take_reports("race-unit-a/").is_empty(), "closed interval");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn untracked_buffers_are_skipped() {
        std::thread::spawn(|| {
            set_actor("race-unit-b", 0);
            open_transfer(0, ArgDir::InOut, "step", 0x11, TransferMode::Centralized, 0);
            on_access(0, AccessKind::Write, "local_data_mut");
            assert!(take_reports("race-unit-b/").is_empty());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn window_fence_reports_unordered_overlap_only() {
        // Two origins with concurrent stamps overlapping a write: race.
        // A disjoint range, or a later generation: clean.
        let win = 0xFEED_0001;
        pardis_rts::Domain::run(3, move |ep| {
            set_actor("race-unit-c", ep.rank());
            ep.barrier();
            match ep.rank() {
                1 => on_window_access(win, 0, 0, 4, true),
                2 => {
                    on_window_access(win, 0, 2, 4, false);
                    on_window_access(win, 0, 100, 4, true);
                }
                _ => {}
            }
            ep.barrier();
            if ep.rank() == 2 {
                on_window_access(win, 0, 0, 4, true);
            }
        });
        window_fence(win);
        let r = take_reports("race-unit-c/");
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].code, "PA202");
        assert_eq!(r[0].first, AccessKind::Write);
        assert_eq!(r[0].second, AccessKind::Read);
        assert_eq!(r[0].buffer, win);
    }

    #[test]
    fn take_reports_filters_and_sorts() {
        report(RaceReport {
            code: "PA201",
            actor: "race-unit-d/1".into(),
            rank: 1,
            buffer: 9,
            first: AccessKind::TransferRead,
            second: AccessKind::Write,
            first_stamp: Stamp::default(),
            second_stamp: Stamp::default(),
            detail: "b".into(),
        });
        report(RaceReport {
            code: "PA201",
            actor: "race-unit-d/0".into(),
            rank: 0,
            buffer: 3,
            first: AccessKind::TransferRead,
            second: AccessKind::Write,
            first_stamp: Stamp::default(),
            second_stamp: Stamp::default(),
            detail: "a".into(),
        });
        report(RaceReport {
            code: "PA201",
            actor: "other-test/0".into(),
            rank: 0,
            buffer: 1,
            first: AccessKind::TransferRead,
            second: AccessKind::Write,
            first_stamp: Stamp::default(),
            second_stamp: Stamp::default(),
            detail: "keep".into(),
        });
        let mine = take_reports("race-unit-d/");
        assert_eq!(mine.len(), 2);
        assert!(mine[0].actor <= mine[1].actor, "sorted");
        let other = take_reports("other-test/");
        assert_eq!(other.len(), 1);
    }
}
