//! Per-rank span recording.
//!
//! Once a computing thread is bound with [`crate::init_rank`],
//! [`record`] appends [`SpanRecord`]s to its rank block's log. The
//! block outlives the thread, so [`drain_all`] can collect every
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
use crate::rank;
use crate::span::SpanKind;
use pardis_rts::clock::ClockWitness;
use std::fmt::Write as _;

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

/// Allocate a machine-unique span id for the calling rank:
/// `host << 40 | (rank + 1) << 32 | counter`. Returns 0 (the "no
/// span" id) if the thread is not bound.
pub fn alloc_span_id() -> u64 {
    rank::with_local(|l| {
        let id = ((l.block.host as u64) << 40) | ((l.block.rank as u64 + 1) << 32) | l.next_span;
        l.next_span += 1;
        id
    })
    .unwrap_or(0)
}

/// Append a span to the calling rank's log. No-op when the thread is
/// not bound (the `obs` feature is on but the ORB was not
/// initialized, e.g. in unrelated unit tests).
pub fn record(ev: SpanEvent) {
    rank::with_local(|l| {
        let stamp = ClockWitness::snapshot();
        let rec = SpanRecord {
            machine: l.block.machine.clone(),
            host: l.block.host,
            rank: l.block.rank,
            seq: l.next_seq,
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
        l.next_seq += 1;
        l.block.spans.lock().push(rec);
    });
}

/// Collect every registered rank's spans, sorted by
/// `(machine, rank, seq)` so the result is independent of thread
/// scheduling. The logs are left empty.
pub fn drain_all() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for block in rank::blocks() {
        out.append(&mut block.spans.lock());
    }
    out.sort_by(|a, b| (&a.machine, a.rank, a.seq).cmp(&(&b.machine, b.rank, b.seq)));
    out
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
        let _g = crate::rank::TEST_LOCK.lock();
        crate::reset();
        crate::init_rank("m", 3, 1);
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
        let _g = crate::rank::TEST_LOCK.lock();
        crate::reset();
        crate::init_rank("m", 1, 0);
        record(ev(SpanKind::Marshal, 7));
        let rec = &drain_all()[0];
        let full = rec.to_json_line();
        let stable = rec.to_stable_line();
        assert!(full.contains("\"wait_ns\":55"));
        assert!(!stable.contains("wait_ns"));
        assert!(full.starts_with(stable.trim_end_matches('}')));
    }
}
