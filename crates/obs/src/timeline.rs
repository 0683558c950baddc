//! Cross-rank timeline reconstruction.
//!
//! [`merge`] orders span records from many per-rank logs into one
//! causally consistent timeline:
//!
//! * records are grouped by trace (request id), which is shared by
//!   every rank and machine participating in one collective
//!   invocation;
//! * within a trace, records order by invocation **phase**
//!   (bind < marshal < transfer < dispatch < reply < invoke) — the
//!   only ordering that holds across machines, since client and
//!   server clock domains are disjoint;
//! * then by causal stamp `(gen, tick)`, which is monotone along every
//!   happens-before edge inside one machine (a cross-rank edge passes
//!   through a collective, which strictly increases the generation);
//! * ties break deterministically on `(machine, rank, seq)`.
//!
//! The guarantee: if span A happens-before span B, A appears first;
//! concurrent spans appear in a deterministic interleaving. The
//! rendered timeline uses [`SpanRecord::to_stable_line`], which
//! excludes the volatile `wait_ns` field — so two replays of the same
//! seed render **bit-for-bit identical** timelines.

use crate::json::{self, JsonError, JsonVal};
use crate::recorder::SpanRecord;
use crate::span::SpanKind;
use std::fmt;

/// Why a span log failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// A line was not valid span-log JSON.
    Parse {
        /// 1-based line number.
        line_no: usize,
        /// Underlying JSON error.
        source: JsonError,
    },
    /// A line was missing a required key (or it had the wrong type).
    MissingKey {
        /// 1-based line number.
        line_no: usize,
        /// The key that was absent or mistyped.
        key: &'static str,
    },
    /// A line carried an unknown span kind.
    BadKind {
        /// 1-based line number.
        line_no: usize,
        /// The unrecognized kind string.
        kind: String,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::Parse { line_no, source } => {
                write!(f, "line {line_no}: {source}")
            }
            TimelineError::MissingKey { line_no, key } => {
                write!(f, "line {line_no}: missing or mistyped key {key:?}")
            }
            TimelineError::BadKind { line_no, kind } => {
                write!(f, "line {line_no}: unknown span kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for TimelineError {}

fn field<'a>(
    kv: &'a [(String, JsonVal)],
    line_no: usize,
    key: &'static str,
) -> Result<&'a JsonVal, TimelineError> {
    kv.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or(TimelineError::MissingKey { line_no, key })
}

fn num(kv: &[(String, JsonVal)], line_no: usize, key: &'static str) -> Result<u64, TimelineError> {
    field(kv, line_no, key)?
        .as_num()
        .ok_or(TimelineError::MissingKey { line_no, key })
}

fn str_field(
    kv: &[(String, JsonVal)],
    line_no: usize,
    key: &'static str,
) -> Result<String, TimelineError> {
    Ok(field(kv, line_no, key)?
        .as_str()
        .ok_or(TimelineError::MissingKey { line_no, key })?
        .to_string())
}

/// Parse a span log (JSONL, one record per non-empty line).
pub fn parse_log(text: &str) -> Result<Vec<SpanRecord>, TimelineError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let kv = json::parse_flat_object(line)
            .map_err(|source| TimelineError::Parse { line_no, source })?;
        let kind_s = str_field(&kv, line_no, "kind")?;
        let kind = SpanKind::parse(&kind_s).ok_or(TimelineError::BadKind {
            line_no,
            kind: kind_s,
        })?;
        out.push(SpanRecord {
            machine: str_field(&kv, line_no, "machine")?,
            host: num(&kv, line_no, "host")? as u32,
            rank: num(&kv, line_no, "rank")? as usize,
            seq: num(&kv, line_no, "seq")?,
            trace_id: num(&kv, line_no, "trace")?,
            span_id: num(&kv, line_no, "span")?,
            parent_span: num(&kv, line_no, "parent")?,
            kind,
            name: str_field(&kv, line_no, "name")?,
            epoch: num(&kv, line_no, "epoch")?,
            bytes: num(&kv, line_no, "bytes")?,
            gen: num(&kv, line_no, "gen")?,
            tick: num(&kv, line_no, "tick")?,
            // Absent in stable (merged) logs: treat as zero.
            wait_ns: kv
                .iter()
                .find(|(k, _)| k == "wait_ns")
                .and_then(|(_, v)| v.as_num())
                .unwrap_or(0),
        });
    }
    Ok(out)
}

/// Sort records into the causal timeline order (see module docs).
pub fn merge(mut records: Vec<SpanRecord>) -> Vec<SpanRecord> {
    records.sort_by(|a, b| {
        (
            a.trace_id,
            a.kind.phase(),
            a.gen,
            a.tick,
            &a.machine,
            a.rank,
            a.seq,
        )
            .cmp(&(
                b.trace_id,
                b.kind.phase(),
                b.gen,
                b.tick,
                &b.machine,
                b.rank,
                b.seq,
            ))
    });
    records
}

/// Render a merged timeline as stable JSONL (no volatile fields).
pub fn render(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_stable_line());
        out.push('\n');
    }
    out
}

/// A rank whose invoke-span wall time dominated its peers in one
/// trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// The trace in which the rank lagged.
    pub trace_id: u64,
    /// Machine the rank belongs to.
    pub machine: String,
    /// The lagging rank.
    pub rank: usize,
    /// Its invoke-span wall time.
    pub wait_ns: u64,
    /// The median invoke-span wall time across the trace's ranks on
    /// that machine.
    pub median_ns: u64,
}

/// Flag stragglers: within each `(trace, machine)` group of invoke
/// spans, a rank is a straggler when its wall time exceeds twice the
/// group median (and the group has at least 3 ranks, so a median is
/// meaningful). Wall-clock based — legitimately non-deterministic.
pub fn stragglers(records: &[SpanRecord]) -> Vec<Straggler> {
    let mut groups: Vec<(&SpanRecord, Vec<&SpanRecord>)> = Vec::new();
    for r in records {
        if r.kind != SpanKind::Invoke || r.trace_id == 0 {
            continue;
        }
        match groups
            .iter_mut()
            .find(|(k, _)| k.trace_id == r.trace_id && k.machine == r.machine)
        {
            Some((_, v)) => v.push(r),
            None => groups.push((r, vec![r])),
        }
    }
    let mut out = Vec::new();
    for (_, members) in groups {
        if members.len() < 3 {
            continue;
        }
        let mut waits: Vec<u64> = members.iter().map(|r| r.wait_ns).collect();
        waits.sort_unstable();
        let median = waits[waits.len() / 2];
        for r in members {
            if r.wait_ns > median.saturating_mul(2) {
                out.push(Straggler {
                    trace_id: r.trace_id,
                    machine: r.machine.clone(),
                    rank: r.rank,
                    wait_ns: r.wait_ns,
                    median_ns: median,
                });
            }
        }
    }
    out.sort_by(|a, b| (a.trace_id, &a.machine, a.rank).cmp(&(b.trace_id, &b.machine, b.rank)));
    out
}

/// Where two timelines of the same seed diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReport {
    /// Stable line count of each side.
    pub len_a: usize,
    /// Stable line count of each side.
    pub len_b: usize,
    /// 1-based index and both sides of each divergent line (missing
    /// lines render as `"<absent>"`), capped at 20 entries.
    pub divergences: Vec<(usize, String, String)>,
}

impl DiffReport {
    /// True when the two timelines are bit-for-bit identical.
    pub fn identical(&self) -> bool {
        self.len_a == self.len_b && self.divergences.is_empty()
    }
}

/// Diff two span logs by comparing their merged stable renderings
/// line by line.
pub fn diff(a: Vec<SpanRecord>, b: Vec<SpanRecord>) -> DiffReport {
    let ra = render(&merge(a));
    let rb = render(&merge(b));
    let la: Vec<&str> = ra.lines().collect();
    let lb: Vec<&str> = rb.lines().collect();
    let mut divergences = Vec::new();
    for i in 0..la.len().max(lb.len()) {
        let x = la.get(i).copied().unwrap_or("<absent>");
        let y = lb.get(i).copied().unwrap_or("<absent>");
        if x != y {
            divergences.push((i + 1, x.to_string(), y.to_string()));
            if divergences.len() >= 20 {
                break;
            }
        }
    }
    DiffReport {
        len_a: la.len(),
        len_b: lb.len(),
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        machine: &str,
        rank: usize,
        seq: u64,
        trace: u64,
        kind: SpanKind,
        (gen, tick): (u64, u64),
    ) -> SpanRecord {
        SpanRecord {
            machine: machine.into(),
            host: 1,
            rank,
            seq,
            trace_id: trace,
            span_id: seq + 1,
            parent_span: 0,
            kind,
            name: "op".into(),
            epoch: 0,
            bytes: 0,
            gen,
            tick,
            wait_ns: 0,
        }
    }

    #[test]
    fn merge_orders_phases_then_clocks() {
        let recs = vec![
            rec("srv", 0, 0, 5, SpanKind::Dispatch, (1, 0)),
            rec("cli", 0, 1, 5, SpanKind::Invoke, (3, 0)),
            rec("cli", 0, 0, 5, SpanKind::Marshal, (2, 0)),
            rec("cli", 1, 2, 5, SpanKind::Marshal, (1, 1)),
            rec("cli", 1, 1, 5, SpanKind::Marshal, (1, 0)),
        ];
        let merged = merge(recs);
        let kinds: Vec<_> = merged.iter().map(|r| (r.kind, r.rank)).collect();
        assert_eq!(
            kinds,
            vec![
                (SpanKind::Marshal, 1), // lower generation first,
                (SpanKind::Marshal, 1), // then lower tick
                (SpanKind::Marshal, 0),
                (SpanKind::Dispatch, 0),
                (SpanKind::Invoke, 0),
            ]
        );
    }

    #[test]
    fn render_parse_roundtrip_is_stable() {
        let recs = vec![
            rec("m", 0, 0, 1, SpanKind::Invoke, (1, 2)),
            rec("m", 1, 0, 1, SpanKind::Invoke, (2, 1)),
        ];
        let rendered = render(&merge(recs));
        let reparsed = parse_log(&rendered).unwrap();
        assert_eq!(render(&merge(reparsed)), rendered);
    }

    #[test]
    fn stragglers_need_a_dominating_wait() {
        let mut recs: Vec<SpanRecord> = (0..4)
            .map(|r| rec("m", r, 0, 9, SpanKind::Invoke, (1, 0)))
            .collect();
        recs[3].wait_ns = 1000;
        for r in recs.iter_mut().take(3) {
            r.wait_ns = 100;
        }
        let s = stragglers(&recs);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rank, 3);
        assert_eq!(s[0].median_ns, 100);
    }

    #[test]
    fn diff_reports_divergence_and_identity() {
        let a = vec![rec("m", 0, 0, 1, SpanKind::Invoke, (1, 0))];
        let mut b = a.clone();
        assert!(diff(a.clone(), b.clone()).identical());
        b[0].name = "other".into();
        let d = diff(a, b);
        assert!(!d.identical());
        assert_eq!(d.divergences.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert_eq!(
            parse_log("{\"machine\":\"m\"}"),
            Err(TimelineError::MissingKey {
                line_no: 1,
                key: "kind"
            })
        );
        assert!(matches!(
            parse_log("\n{bad"),
            Err(TimelineError::Parse { line_no: 2, .. })
        ));
    }
}
