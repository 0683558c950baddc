//! Figure 4 on the **real threaded runtime**: wall-clock effective
//! bandwidth of an `in`-argument transfer vs sequence length, both
//! transfer methods, c = 4 client threads and n = 8 server threads over
//! a rate-limited shared link.
//!
//! Unlike the `fig4` binary (which replays the 1997 testbed in a
//! simulator), this drives the actual ORB — generated stubs, CDR
//! marshaling, RTS collectives, per-thread ports — so it shows which
//! of the paper's effects survive on modern hardware: parallel
//! marshaling and gather/scatter elimination do; scheduler interference
//! does not (we have plenty of cores).
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig4_runtime [max_log2] [link_scale]
//! ```

use pardis::prelude::*;
use pardis_bench::RuntimeHarness;

fn main() {
    let max_log2: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(19);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8.0);
    let link = LinkSpec::atm_155().scaled(scale);
    println!(
        "fig4 (runtime): c=4, n=8, link ≈ {:.1} MB/s (ATM x{scale}), lengths 2^8..2^{max_log2} doubles",
        link.bandwidth.unwrap_or(f64::INFINITY) / 1e6
    );
    println!();
    println!("  length_doubles, centralized_MBps, multiport_MBps, ratio");

    let harness = RuntimeHarness::new(4, 8, link, false);
    let mut log2 = 8u32;
    while log2 <= max_log2 {
        let len = 1usize << log2;
        let bytes = (len * 8) as f64;
        // Fewer repetitions for the big sizes to bound wall-clock.
        let iters = if log2 >= 17 { 3 } else { 8 };
        let cen = harness.invoke_avg(len, TransferMode::Centralized, iters);
        let mp = harness.invoke_avg(len, TransferMode::MultiPort, iters);
        let cen_bw = bytes / cen.as_secs_f64() / 1e6;
        let mp_bw = bytes / mp.as_secs_f64() / 1e6;
        println!(
            "  {:>14}, {:>15.2}, {:>13.2}, {:>5.2}",
            len,
            cen_bw,
            mp_bw,
            mp_bw / cen_bw
        );
        log2 += 1;
    }
    println!();
    println!("Shape to check: ~equal at small sizes; multi-port ahead at large ones");
    println!("(the margin is set by marshaling/gather costs relative to wire time,");
    println!(" so it is smaller here than on the 1997 testbed's slow CPUs).");
}
