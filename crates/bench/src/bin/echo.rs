//! Echo round-trip latency, with and without instrumentation.
//!
//! One collective invocation carrying an `in` distributed-sequence
//! argument, timed over an unlimited link so the wire contributes
//! nothing and every microsecond is CPU: stubs, CDR, gather/scatter —
//! plus, depending on features, the happens-before instrumentation
//! (`analyze`: causal-stamp ticks, access-interval recording) or the
//! observability instrumentation (`obs`: span recording, per-rank
//! metrics, service-context propagation). Running the binary under
//! each configuration against the featureless baseline measures the
//! instrumentation overheads reported in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin echo [iters]
//! cargo run --release -p pardis-bench --bin echo --features analyze [iters]
//! cargo run --release -p pardis-bench --bin echo --features obs [iters]
//! ```

use pardis::prelude::*;
use pardis_bench::RuntimeHarness;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let analyze = cfg!(feature = "analyze");
    let obs = cfg!(feature = "obs");
    println!(
        "echo: c=4, n=8, unlimited link, {iters} iters/point, \
         analyze instrumentation: {}, obs instrumentation: {}",
        if analyze { "ON" } else { "OFF" },
        if obs { "ON" } else { "OFF" }
    );
    println!();
    println!("  length_doubles, centralized_us, multiport_us");

    let harness = RuntimeHarness::new(4, 8, LinkSpec::unlimited(), false);
    for log2 in [8u32, 10, 12, 14] {
        let len = 1usize << log2;
        let cen = harness.invoke_avg(len, TransferMode::Centralized, iters);
        let mp = harness.invoke_avg(len, TransferMode::MultiPort, iters);
        println!(
            "  {:>14}, {:>14.1}, {:>12.1}",
            len,
            cen.as_secs_f64() * 1e6,
            mp.as_secs_f64() * 1e6
        );
    }
}
