//! The per-rank block: one per computing thread, holding the rank's
//! identity, its span log and its instruments.
//!
//! A thread binds to a fresh block with [`init_rank`] and reaches it
//! through a thread-local handle afterwards. A process-global registry
//! keeps every block alive past its thread's exit, so
//! [`crate::drain_all`] and [`crate::snapshot_json`] can read every
//! rank after a run. The registry's mutex is touched only at
//! [`init_rank`], drain, snapshot and [`reset`] time.

use crate::metrics::RankMetrics;
use crate::recorder::SpanRecord;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::Arc;

/// One rank's observability state, shared between its thread and the
/// registry.
#[derive(Debug)]
pub(crate) struct RankBlock {
    pub(crate) machine: String,
    pub(crate) host: u32,
    pub(crate) rank: usize,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    pub(crate) metrics: RankMetrics,
}

/// The binding thread's view of its block, plus the per-rank counters
/// only that thread advances.
pub(crate) struct Local {
    pub(crate) block: Arc<RankBlock>,
    pub(crate) next_seq: u64,
    pub(crate) next_span: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

static REGISTRY: Mutex<Vec<Arc<RankBlock>>> = Mutex::new(Vec::new());

/// Bind the calling thread to a fresh `(machine, host, rank)` block,
/// registered in the global registry — the single entry point the ORB
/// calls from `OrbCtx::init`.
pub fn init_rank(machine: &str, host: u32, rank: usize) {
    let block = Arc::new(RankBlock {
        machine: machine.to_string(),
        host,
        rank,
        spans: Mutex::new(Vec::new()),
        metrics: RankMetrics::default(),
    });
    REGISTRY.lock().push(Arc::clone(&block));
    LOCAL.with(|l| {
        *l.borrow_mut() = Some(Local {
            block,
            next_seq: 0,
            next_span: 0,
        })
    });
}

/// Drop every registered block (between two replays of the same seed
/// in one process). Threads bound before the reset keep recording into
/// unregistered blocks; re-[`init_rank`] to rejoin.
pub fn reset() {
    REGISTRY.lock().clear();
}

/// Run `f` on the calling thread's binding; `None` (and no call) when
/// the thread is not bound, e.g. in unit tests that never initialized
/// an ORB.
pub(crate) fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL.with(|l| l.borrow_mut().as_mut().map(f))
}

/// Every registered block, sorted by `(machine, rank)` so readers are
/// independent of thread scheduling.
pub(crate) fn blocks() -> Vec<Arc<RankBlock>> {
    let mut all: Vec<_> = REGISTRY.lock().iter().map(Arc::clone).collect();
    all.sort_by(|a, b| (&a.machine, a.rank).cmp(&(&b.machine, b.rank)));
    all
}

/// Serializes the unit tests that reset and read the global registry.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());
