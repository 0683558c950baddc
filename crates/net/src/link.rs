//! The shared, rate-limited link.
//!
//! The paper's experiments ran over one dedicated 155 Mb/s ATM link with
//! LAN Emulation. Three properties of that link shape the results and
//! are modeled here:
//!
//! 1. **Serialization** — one physical medium: bytes from concurrent
//!    senders cannot overlap. We model the medium as a mutex acquired
//!    per frame.
//! 2. **Framing** — traffic is carried in AAL5-style frames of
//!    [`LinkSpec::mtu`] payload bytes plus [`LinkSpec::per_frame_overhead`]
//!    wire overhead (cell headers, LANE encapsulation).
//! 3. **Frame-level interleaving** — when several senders are active,
//!    their frames interleave; the paper observed exactly this ("data
//!    transfer from two separate computing threads of the client did not
//!    happen sequentially, but was interleaved", §3.3). Interleaving is
//!    what lets multi-port transfer keep the single link busy.
//!
//! Senders *block* for the wire time of each frame, which reproduces
//! NexusLite's effectively-synchronous large sends (§3.1).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth in bytes/second of wire time, or `None` for an
    /// unthrottled link (unit tests).
    pub bandwidth: Option<f64>,
    /// One-way per-message latency (propagation + protocol processing).
    pub latency: Duration,
    /// Frame payload size in bytes. ATM AAL5 with LAN emulation carries
    /// up to 9180 bytes of payload per frame.
    pub mtu: usize,
    /// Wire overhead bytes charged per frame (cell headers + LANE).
    pub per_frame_overhead: usize,
}

impl LinkSpec {
    /// An unthrottled, zero-latency link for functional tests.
    pub fn unlimited() -> LinkSpec {
        LinkSpec {
            bandwidth: None,
            latency: Duration::ZERO,
            mtu: 9180,
            per_frame_overhead: 0,
        }
    }

    /// A link resembling the paper's dedicated ATM circuit: 155 Mb/s raw,
    /// of which roughly 17 MB/s is usable after SONET + cell-header
    /// overhead; 9180-byte LANE MTU; ~1 ms end-to-end message latency.
    pub fn atm_155() -> LinkSpec {
        LinkSpec {
            bandwidth: Some(17.0e6),
            latency: Duration::from_micros(900),
            mtu: 9180,
            per_frame_overhead: 432, // 5-byte header per 48-byte cell ≈ 432 B per 9180-B frame
        }
    }

    /// Scale the bandwidth (used by benches to keep wall-clock bounded
    /// while preserving ratios).
    pub fn scaled(mut self, factor: f64) -> LinkSpec {
        if let Some(b) = self.bandwidth.as_mut() {
            *b *= factor;
        }
        self
    }

    /// Wire time of a frame carrying `payload` bytes.
    fn frame_time(&self, payload: usize) -> Duration {
        match self.bandwidth {
            None => Duration::ZERO,
            Some(b) => Duration::from_secs_f64((payload + self.per_frame_overhead) as f64 / b),
        }
    }
}

impl Default for LinkSpec {
    fn default() -> LinkSpec {
        LinkSpec::unlimited()
    }
}

/// Counters accumulated by a link over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Total payload bytes carried.
    pub payload_bytes: u64,
    /// Total frames transmitted.
    pub frames: u64,
    /// Total messages transmitted.
    pub messages: u64,
}

/// A shared transmission medium between hosts.
#[derive(Debug)]
pub struct Link {
    spec: LinkSpec,
    /// The physical medium: held while a frame is on the wire.
    medium: Mutex<()>,
    payload_bytes: AtomicU64,
    frames: AtomicU64,
    messages: AtomicU64,
}

impl Link {
    /// Create a link with the given characteristics.
    pub fn new(spec: LinkSpec) -> Link {
        Link {
            spec,
            medium: Mutex::new(()),
            payload_bytes: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            messages: AtomicU64::new(0),
        }
    }

    /// The link's static description.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            payload_bytes: self.payload_bytes.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }

    /// Transmit `len` payload bytes, blocking the calling thread for the
    /// wire time. Concurrent callers interleave at frame granularity.
    /// Returns the total time spent on the wire (excluding queueing).
    pub fn transmit(&self, len: usize) -> Duration {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.payload_bytes.fetch_add(len as u64, Ordering::Relaxed);

        if self.spec.bandwidth.is_none() {
            // Still count frames for stats.
            let nframes = len.div_ceil(self.spec.mtu).max(1) as u64;
            self.frames.fetch_add(nframes, Ordering::Relaxed);
            return Duration::ZERO;
        }

        let mut remaining = len;
        let mut wire = Duration::ZERO;
        loop {
            let chunk = remaining.min(self.spec.mtu);
            let t = self.spec.frame_time(chunk);
            {
                // Hold the medium for exactly one frame, then release so
                // other senders can slot their frames in between ours.
                let _guard = self.medium.lock();
                precise_sleep(t);
            }
            wire += t;
            self.frames.fetch_add(1, Ordering::Relaxed);
            if remaining <= self.spec.mtu {
                break;
            }
            remaining -= self.spec.mtu;
        }
        wire
    }
}

/// Sleep with sub-millisecond accuracy: OS sleep for the bulk, spin for
/// the tail. Frame times at ATM rates are ~0.5 ms, which ordinary
/// `thread::sleep` would overshoot by a large fraction.
pub(crate) fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    if d > Duration::from_micros(300) {
        std::thread::sleep(d - Duration::from_micros(200));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_link_is_instant() {
        let link = Link::new(LinkSpec::unlimited());
        let t = Instant::now();
        link.transmit(10_000_000);
        assert!(t.elapsed() < Duration::from_millis(50));
        let s = link.stats();
        assert_eq!(s.payload_bytes, 10_000_000);
        assert_eq!(s.messages, 1);
        assert!(s.frames >= 1);
    }

    #[test]
    fn rate_limit_is_respected() {
        // 10 MB/s, 100 KB message -> ~10 ms.
        let link = Link::new(LinkSpec {
            bandwidth: Some(10.0e6),
            latency: Duration::ZERO,
            mtu: 9180,
            per_frame_overhead: 0,
        });
        let t = Instant::now();
        link.transmit(100_000);
        let e = t.elapsed();
        assert!(e >= Duration::from_millis(9), "too fast: {e:?}");
        assert!(e < Duration::from_millis(40), "too slow: {e:?}");
    }

    #[test]
    fn frame_overhead_slows_transfer() {
        let fast = Link::new(LinkSpec {
            bandwidth: Some(50.0e6),
            latency: Duration::ZERO,
            mtu: 1000,
            per_frame_overhead: 0,
        });
        let slow = Link::new(LinkSpec {
            bandwidth: Some(50.0e6),
            latency: Duration::ZERO,
            mtu: 1000,
            per_frame_overhead: 1000, // 100% overhead
        });
        // Judged on the charged wire time, not on wall-clock ratios,
        // which a loaded host distorts: 100% per-frame overhead must
        // charge exactly twice the fast link's time (to within the
        // nanosecond rounding of each of the 200 frames) ...
        let t0 = Instant::now();
        let w_fast = fast.transmit(200_000);
        let e_fast = t0.elapsed();
        let t1 = Instant::now();
        let w_slow = slow.transmit(200_000);
        let e_slow = t1.elapsed();
        let twice = w_fast * 2;
        let off = w_slow.abs_diff(twice);
        assert!(
            w_fast > Duration::ZERO && off <= Duration::from_nanos(200),
            "overhead not charged: fast={w_fast:?} slow={w_slow:?}"
        );
        // ... and each call must really block the sender for its charge.
        assert!(
            e_fast >= w_fast,
            "fast link returned early: {e_fast:?} < {w_fast:?}"
        );
        assert!(
            e_slow >= w_slow,
            "slow link returned early: {e_slow:?} < {w_slow:?}"
        );
    }

    #[test]
    fn concurrent_senders_share_the_medium() {
        // Two senders of N bytes each on a shared link should take about
        // the time of one sender of 2N bytes — not complete in parallel.
        let spec = LinkSpec {
            bandwidth: Some(20.0e6),
            latency: Duration::ZERO,
            mtu: 9180,
            per_frame_overhead: 0,
        };
        let link = Arc::new(Link::new(spec));
        let n = 400_000usize; // 20 ms each at 20 MB/s

        let t = Instant::now();
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let l = link.clone();
                std::thread::spawn(move || l.transmit(n))
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let e = t.elapsed();
        // Serial time would be 40 ms; parallel-overlap would be 20 ms.
        assert!(e >= Duration::from_millis(36), "medium overlapped: {e:?}");
    }

    #[test]
    fn latency_does_not_block_the_sender() {
        // Propagation delay is paid by the receiver (see the fabric),
        // not by the transmitter: senders pipeline messages.
        let link = Link::new(LinkSpec {
            bandwidth: None,
            latency: Duration::from_millis(50),
            mtu: 9180,
            per_frame_overhead: 0,
        });
        let t = Instant::now();
        link.transmit(10);
        assert!(t.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn atm_spec_sane() {
        let s = LinkSpec::atm_155();
        assert!(s.bandwidth.unwrap() > 10.0e6);
        assert_eq!(s.mtu, 9180);
        let half = s.scaled(0.5);
        assert_eq!(half.bandwidth.unwrap(), s.bandwidth.unwrap() * 0.5);
    }
}
