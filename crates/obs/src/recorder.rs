//! Per-rank span recording.
//!
//! Each computing thread binds to `(machine, host, rank)` once via
//! [`init`]; after that, [`record`] appends [`SpanRecord`]s to a
//! per-rank log. The log is an `Arc` shared with a global registry, so
//! the data survives thread exit and [`drain_all`] can collect every
//! rank's spans after a run.
//!
//! Determinism contract: everything in a record except `wait_ns`
//! derives from the seeded execution — ids, sequence numbers, byte
//! counts, causal stamps ([`ClockWitness`] advances only on
//! collectives, epoch changes and recorded accesses). `wait_ns` is
//! wall-clock and is
//! quarantined: the per-rank log carries it (the straggler report
//! needs it) but the merged timeline excludes it.

use crate::json;
use crate::span::SpanKind;
use pardis_rts::clock::ClockWitness;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;

/// One recorded span: a point event covering a completed phase of a
/// collective invocation on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Machine (ORB domain) name the rank belongs to.
    pub machine: String,
    /// Numeric host id (disambiguates span ids across machines).
    pub host: u32,
    /// Rank within the machine's SPMD domain.
    pub rank: usize,
    /// Per-rank record sequence number (dense, from 0).
    pub seq: u64,
    /// Trace this span belongs to (the request id; 0 = ambient, e.g.
    /// `bind` outside any request).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span: u64,
    /// Phase covered.
    pub kind: SpanKind,
    /// Operation or object name.
    pub name: String,
    /// Membership epoch when the span completed.
    pub epoch: u64,
    /// Payload bytes moved (0 when not applicable).
    pub bytes: u64,
    /// The rank's collective generation when the span completed.
    pub gen: u64,
    /// Local ordering events since that generation began.
    pub tick: u64,
    /// Wall-clock duration — the ONLY non-deterministic field.
    pub wait_ns: u64,
}

impl SpanRecord {
    /// One JSONL line with a fixed key order (includes the volatile
    /// `wait_ns`; the merged timeline strips it).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"machine\":\"{}\",\"host\":{},\"rank\":{},\"seq\":{},\
             \"trace\":{},\"span\":{},\"parent\":{},\"kind\":\"{}\",\
             \"name\":\"{}\",\"epoch\":{},\"bytes\":{},\"gen\":{},\"tick\":{},\
             \"wait_ns\":{}}}",
            json::escape(&self.machine),
            self.host,
            self.rank,
            self.seq,
            self.trace_id,
            self.span_id,
            self.parent_span,
            self.kind.as_str(),
            json::escape(&self.name),
            self.epoch,
            self.bytes,
            self.gen,
            self.tick,
            self.wait_ns,
        );
        s
    }

    /// The deterministic projection: the JSONL line without `wait_ns`.
    /// Two replays of the same seed produce identical projections.
    pub fn to_stable_line(&self) -> String {
        let full = self.to_json_line();
        match full.rfind(",\"wait_ns\":") {
            Some(at) => format!("{}}}", &full[..at]),
            None => full,
        }
    }
}

/// The fields a caller supplies to [`record`]; rank identity, the
/// sequence number, and the causal stamp are filled in by the
/// recorder.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Phase covered.
    pub kind: SpanKind,
    /// Operation or object name.
    pub name: String,
    /// Trace id (0 = ambient).
    pub trace_id: u64,
    /// This span's id (from [`alloc_span_id`] or the trace id itself).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span: u64,
    /// Membership epoch at completion.
    pub epoch: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall-clock duration (volatile).
    pub wait_ns: u64,
}

struct RankState {
    machine: String,
    host: u32,
    rank: usize,
    next_seq: u64,
    next_span: u64,
    current: Option<(u64, u64)>,
    sink: Arc<Mutex<Vec<SpanRecord>>>,
}

thread_local! {
    static STATE: RefCell<Option<RankState>> = const { RefCell::new(None) };
}

static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<SpanRecord>>>>> = Mutex::new(Vec::new());

/// Bind the calling thread to `(machine, host, rank)` with a fresh
/// span log registered in the global registry.
pub fn init(machine: &str, host: u32, rank: usize) {
    let sink = Arc::new(Mutex::new(Vec::new()));
    REGISTRY.lock().push(Arc::clone(&sink));
    STATE.with(|s| {
        *s.borrow_mut() = Some(RankState {
            machine: machine.to_string(),
            host,
            rank,
            next_seq: 0,
            next_span: 0,
            current: None,
            sink,
        });
    });
}

/// Allocate a machine-unique span id for the calling rank:
/// `host << 40 | (rank + 1) << 32 | counter`. Returns 0 (the "no
/// span" id) if the thread is not bound.
pub fn alloc_span_id() -> u64 {
    STATE.with(|s| {
        s.borrow_mut().as_mut().map_or(0, |st| {
            let id = ((st.host as u64) << 40) | ((st.rank as u64 + 1) << 32) | st.next_span;
            st.next_span += 1;
            id
        })
    })
}

/// Mark `(trace_id, root_span)` as the calling rank's active
/// invocation, so nested phases (marshal, transfer) can parent under
/// it.
pub fn set_current(trace_id: u64, root_span: u64) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.current = Some((trace_id, root_span));
        }
    });
}

/// Clear the active invocation.
pub fn clear_current() {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.current = None;
        }
    });
}

/// The calling rank's active `(trace_id, root_span)`, if any.
pub fn current() -> Option<(u64, u64)> {
    STATE.with(|s| s.borrow().as_ref().and_then(|st| st.current))
}

/// Append a span to the calling rank's log. No-op when the thread is
/// not bound (the `obs` feature is on but the ORB was not
/// initialized, e.g. in unrelated unit tests).
pub fn record(ev: SpanEvent) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let stamp = ClockWitness::snapshot();
            let rec = SpanRecord {
                machine: st.machine.clone(),
                host: st.host,
                rank: st.rank,
                seq: st.next_seq,
                trace_id: ev.trace_id,
                span_id: ev.span_id,
                parent_span: ev.parent_span,
                kind: ev.kind,
                name: ev.name,
                epoch: ev.epoch,
                bytes: ev.bytes,
                gen: stamp.gen,
                tick: stamp.tick,
                wait_ns: ev.wait_ns,
            };
            st.next_seq += 1;
            st.sink.lock().push(rec);
        }
    });
}

/// Collect every registered rank's spans, sorted by
/// `(machine, rank, seq)` so the result is independent of thread
/// scheduling. The logs are left empty.
pub fn drain_all() -> Vec<SpanRecord> {
    let sinks: Vec<_> = REGISTRY.lock().iter().map(Arc::clone).collect();
    let mut out = Vec::new();
    for sink in sinks {
        out.append(&mut sink.lock());
    }
    out.sort_by(|a, b| (&a.machine, a.rank, a.seq).cmp(&(&b.machine, b.rank, b.seq)));
    out
}

/// Drop every registered log (between two replays in one process).
/// Threads bound before the reset keep recording into unregistered
/// sinks; re-[`init`] to rejoin.
pub fn reset() {
    REGISTRY.lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, trace: u64) -> SpanEvent {
        SpanEvent {
            kind,
            name: "op".into(),
            trace_id: trace,
            span_id: alloc_span_id(),
            parent_span: 0,
            epoch: 0,
            bytes: 8,
            wait_ns: 55,
        }
    }

    #[test]
    fn record_fills_identity_and_sequence() {
        reset();
        init("m", 3, 1);
        record(ev(SpanKind::Invoke, 42));
        record(ev(SpanKind::Reply, 42));
        let all = drain_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].machine, "m");
        assert_eq!(all[0].host, 3);
        assert_eq!(all[0].rank, 1);
        assert_eq!(all[0].seq, 0);
        assert_eq!(all[1].seq, 1);
        assert_eq!(all[0].span_id, (3u64 << 40) | (2u64 << 32));
        assert!(drain_all().is_empty());
    }

    #[test]
    fn stable_line_strips_only_wait_ns() {
        reset();
        init("m", 1, 0);
        record(ev(SpanKind::Marshal, 7));
        let rec = &drain_all()[0];
        let full = rec.to_json_line();
        let stable = rec.to_stable_line();
        assert!(full.contains("\"wait_ns\":55"));
        assert!(!stable.contains("wait_ns"));
        assert!(full.starts_with(stable.trim_end_matches('}')));
    }
}
