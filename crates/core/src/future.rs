//! Futures for non-blocking invocations.
//!
//! "PARDIS supports non-blocking invocations returning futures (similar
//! to ABC++ futures) as its 'out' arguments. This allows the client to
//! use remote resources concurrently with its own, and provides the
//! programmer with an elegant way of representing results which are not
//! yet available." (§2.1)
//!
//! A [`PardisFuture`] is created by the `_nb` proxy methods. Completing
//! it is a *collective* act when the binding is SPMD (every computing
//! thread holds its own future for the same request and every thread
//! must eventually [`PardisFuture::wait`]). The completion closure runs
//! the invocation's receive phase.

use crate::error::PardisResult;

enum State<'a, T> {
    /// Value already available.
    Ready(PardisResult<T>),
    /// Receive phase not yet run.
    Pending {
        /// Runs the (possibly collective) receive phase.
        complete: Box<dyn FnOnce() -> PardisResult<T> + 'a>,
        /// Cheap non-consuming readiness probe, when the transfer can
        /// offer one (e.g. "has the reply message arrived at my port").
        probe: Option<Box<dyn Fn() -> bool + 'a>>,
    },
    /// Transient state during `wait`.
    Taken,
}

/// A handle on a result that is not yet available.
pub struct PardisFuture<'a, T> {
    state: State<'a, T>,
}

impl<'a, T> PardisFuture<'a, T> {
    /// A future that is already resolved.
    pub fn ready(value: PardisResult<T>) -> PardisFuture<'a, T> {
        PardisFuture {
            state: State::Ready(value),
        }
    }

    /// A future completed by running `complete` (the receive phase).
    pub fn pending(complete: impl FnOnce() -> PardisResult<T> + 'a) -> PardisFuture<'a, T> {
        PardisFuture {
            state: State::Pending {
                complete: Box::new(complete),
                probe: None,
            },
        }
    }

    /// Attach a readiness probe.
    pub fn with_probe(mut self, probe: impl Fn() -> bool + 'a) -> PardisFuture<'a, T> {
        if let State::Pending { probe: p, .. } = &mut self.state {
            *p = Some(Box::new(probe));
        }
        self
    }

    /// Whether the value can be taken without blocking. Futures without
    /// a probe conservatively answer `false` until completed.
    pub fn is_ready(&self) -> bool {
        match &self.state {
            State::Ready(_) => true,
            State::Pending { probe, .. } => probe.as_ref().map(|p| p()).unwrap_or(false),
            State::Taken => false,
        }
    }

    /// Block until the value is available and return it. Consumes the
    /// future — a PARDIS future is single-assignment, like the ABC++
    /// futures it imitates.
    pub fn wait(mut self) -> PardisResult<T> {
        match std::mem::replace(&mut self.state, State::Taken) {
            State::Ready(v) => v,
            State::Pending { complete, .. } => complete(),
            State::Taken => unreachable!("future already consumed"),
        }
    }

    /// Transform the eventual value with a fallible function (used by
    /// generated stubs to unmarshal typed results).
    pub fn and_then<U>(self, f: impl FnOnce(T) -> PardisResult<U> + 'a) -> PardisFuture<'a, U>
    where
        T: 'a,
    {
        match self.state {
            State::Ready(v) => PardisFuture::ready(v.and_then(f)),
            State::Pending { complete, probe } => {
                let mut fut = PardisFuture::pending(move || complete().and_then(f));
                if let (State::Pending { probe: p, .. }, Some(probe)) = (&mut fut.state, probe) {
                    *p = Some(probe);
                }
                fut
            }
            State::Taken => unreachable!("future already consumed"),
        }
    }

    /// Transform the eventual value.
    pub fn map<U>(self, f: impl FnOnce(T) -> U + 'a) -> PardisFuture<'a, U>
    where
        T: 'a,
    {
        match self.state {
            State::Ready(v) => PardisFuture::ready(v.map(f)),
            State::Pending { complete, probe } => {
                let mut fut = PardisFuture::pending(move || complete().map(f));
                if let (State::Pending { probe: p, .. }, Some(probe)) = (&mut fut.state, probe) {
                    *p = Some(probe);
                }
                fut
            }
            State::Taken => unreachable!("future already consumed"),
        }
    }
}

impl<T> std::fmt::Debug for PardisFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match &self.state {
            State::Ready(_) => "Ready",
            State::Pending { .. } => "Pending",
            State::Taken => "Taken",
        };
        write!(f, "PardisFuture({s})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn ready_future() {
        let f = PardisFuture::ready(Ok(5));
        assert!(f.is_ready());
        assert_eq!(f.wait().unwrap(), 5);
    }

    #[test]
    fn pending_runs_on_wait() {
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = ran.clone();
        let f = PardisFuture::pending(move || {
            ran2.store(true, Ordering::SeqCst);
            Ok(7)
        });
        assert!(!f.is_ready());
        assert!(!ran.load(Ordering::SeqCst));
        assert_eq!(f.wait().unwrap(), 7);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn probe_reports_readiness() {
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = flag.clone();
        let f = PardisFuture::pending(|| Ok(1)).with_probe(move || flag2.load(Ordering::SeqCst));
        assert!(!f.is_ready());
        flag.store(true, Ordering::SeqCst);
        assert!(f.is_ready());
        assert_eq!(f.wait().unwrap(), 1);
    }

    #[test]
    fn map_transforms_and_keeps_probe() {
        let f = PardisFuture::pending(|| Ok(21))
            .with_probe(|| true)
            .map(|x| x * 2);
        assert!(f.is_ready());
        assert_eq!(f.wait().unwrap(), 42);
    }

    #[test]
    fn and_then_chains_fallibly() {
        let f = PardisFuture::pending(|| Ok(10)).and_then(|x| {
            if x > 5 {
                Ok(x * 3)
            } else {
                Err(crate::error::PardisError::Timeout)
            }
        });
        assert_eq!(f.wait().unwrap(), 30);
        let g = PardisFuture::pending(|| Ok(1))
            .and_then(|_| Err::<i32, _>(crate::error::PardisError::Timeout));
        assert!(matches!(g.wait(), Err(crate::error::PardisError::Timeout)));
    }

    #[test]
    fn map_propagates_errors() {
        let f: PardisFuture<i32> =
            PardisFuture::pending(|| Err(crate::error::PardisError::Timeout));
        let g = f.map(|x| x + 1);
        assert!(matches!(g.wait(), Err(crate::error::PardisError::Timeout)));
    }
}
