//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path invokebench/Cargo.toml -- \
//!     --workload <small_in|large_in|inout_mid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one configuration line, then the result as the last line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A wrong reply shows as `"correct": false`; bad arguments exit with 2.

use pardis_invokebench::probe::CountingAlloc;
use pardis_invokebench::workload::{workload, WORKLOADS};
use pardis_invokebench::{run, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: WORKLOADS[0],
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    workload(value).ok_or_else(|| format!("unknown workload {value}"))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("invokebench: {e}");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "usage: invokebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    println!("{}", outcome.config_json());
    println!("{}", outcome.result_json());
}
