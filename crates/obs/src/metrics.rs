//! Per-rank metrics: counters and fixed-bucket histograms.
//!
//! The cells live in the calling rank's block (see [`crate::init_rank`])
//! and are plain `AtomicU64`s, so the hot path takes no lock.
//!
//! The instrument set is closed (see [`COUNTERS`] / [`HISTOGRAMS`]),
//! which is what makes snapshots deterministic: every rank exports
//! every instrument in declaration order, so two replays of the same
//! seed produce byte-identical JSON. No instrument holds a wall-clock
//! value.

use crate::rank;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot schema tag.
pub const SCHEMA: &str = "pardis-obs-metrics/2";

/// Counter names, in export order.
pub const COUNTERS: &[&str] = &[
    "orb.requests",
    "orb.retries",
    "orb.timeouts",
    "orb.fallbacks",
    "orb.served",
    "orb.serve_decode_errors",
    "rts.collectives",
    "rts.epoch_changes",
    "xfer.centralized.bytes",
    "xfer.multiport.bytes",
];

/// Histogram names, in export order.
pub const HISTOGRAMS: &[&str] = &["xfer.multiport.frag_bytes"];

/// Number of power-of-two histogram buckets; bucket `i` counts values
/// `v` with `floor(log2(max(v,1))) == i`, the last bucket absorbing
/// everything larger.
pub const BUCKETS: usize = 24;

/// A fixed-bucket power-of-two histogram.
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let idx = (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded events.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket event counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// One rank's instruments.
#[derive(Debug)]
pub(crate) struct RankMetrics {
    counters: Vec<AtomicU64>,
    histograms: Vec<Histogram>,
}

impl Default for RankMetrics {
    fn default() -> RankMetrics {
        RankMetrics {
            counters: COUNTERS.iter().map(|_| AtomicU64::new(0)).collect(),
            histograms: HISTOGRAMS.iter().map(|_| Histogram::default()).collect(),
        }
    }
}

/// Add `delta` to the calling rank's named counter. No-op when the
/// thread is not bound or the name is unknown (the instrument set is
/// closed by design).
pub fn add(name: &str, delta: u64) {
    if let Some(i) = COUNTERS.iter().position(|&c| c == name) {
        rank::with_local(|l| l.block.metrics.counters[i].fetch_add(delta, Ordering::Relaxed));
    }
}

/// Record `v` into the calling rank's named histogram; no-op when
/// unbound or unknown.
pub fn observe(name: &str, v: u64) {
    if let Some(i) = HISTOGRAMS.iter().position(|&h| h == name) {
        rank::with_local(|l| l.block.metrics.histograms[i].record(v));
    }
}

/// Deterministic JSON snapshot of every registered rank, sorted by
/// `(machine, rank)`; counters and histograms appear in declaration
/// order.
pub fn snapshot_json() -> String {
    let mut s = format!("{{\"schema\":\"{SCHEMA}\",\"ranks\":[");
    for (ri, b) in rank::blocks().iter().enumerate() {
        if ri > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"machine\":\"{}\",\"host\":{},\"rank\":{},\"counters\":{{",
            crate::json::escape(&b.machine),
            b.host,
            b.rank
        );
        let m = &b.metrics;
        for (i, &name) in COUNTERS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{}", m.counters[i].load(Ordering::Relaxed));
        }
        s.push_str("},\"histograms\":{");
        for (i, &name) in HISTOGRAMS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let h = &m.histograms[i];
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count(),
                h.sum()
            );
            for (bi, b) in h.buckets().iter().enumerate() {
                if bi > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{b}");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_export_in_declared_order() {
        let _g = crate::rank::TEST_LOCK.lock();
        crate::reset();
        crate::init_rank("m", 1, 0);
        add("orb.requests", 2);
        add("no.such.counter", 9);
        add("rts.collectives", 7);
        observe("xfer.multiport.frag_bytes", 1024);
        let json = snapshot_json();
        assert!(json.starts_with("{\"schema\":\"pardis-obs-metrics/2\""));
        assert!(json.contains("\"orb.requests\":2"));
        assert!(json.contains("\"rts.collectives\":7"));
        let req = json.find("\"orb.requests\"").unwrap();
        let retr = json.find("\"orb.retries\"").unwrap();
        assert!(req < retr, "declaration order preserved");
        assert!(json.contains("\"xfer.multiport.frag_bytes\":{\"count\":1,\"sum\":1024"));
    }

    #[test]
    fn bucket_indexing_is_log2() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1 << 23);
        h.record(u64::MAX);
        let b = h.buckets();
        assert_eq!(b[0], 2, "0 and 1 share the first bucket");
        assert_eq!(b[1], 1);
        assert_eq!(b[BUCKETS - 1], 2, "last bucket absorbs the tail");
        assert_eq!(h.count(), 5);
    }
}
