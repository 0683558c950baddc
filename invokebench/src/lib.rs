//! End-to-end and per-layer benchmark of PARDIS collective invocations.
//!
//! One run stands up an in-process `World` (a client machine and a
//! server machine joined by an unlimited simulated link, so every
//! microsecond is CPU), drives the generated `diff_object` stubs against
//! `DiffusionServant` in a closed loop for a fixed time, checks every
//! reply, and reports:
//!
//! * untraced (`trace = false`): the end-to-end metrics of `BENCHMARK.json`
//!   (per-mode latency percentiles, payload MB/s, set-up time);
//! * traced (`trace = true`): the per-layer metrics, from the runtime's
//!   own phase timings, a timing servant wrapper, process counters and
//!   single-layer measurements, plus the cost of tracing itself.
//!
//! See `README.md` for the workloads and what each metric should move.

pub mod layers;
pub mod probe;
pub mod session;
pub mod stats;
pub mod workload;

use crate::session::{run_session, Plan, Sample, TraceSample};
use crate::stats::{median, percentile};
use crate::workload::{mode_tag, Inputs, Op, Workload, MODES};
use std::sync::Arc;
use std::time::Duration;

/// Fresh sessions an untraced run pools; `setup_s` is the median of
/// their set-up times. Latency varies more between sessions (thread
/// placement) than within one, so several short sessions repeat better
/// than one long one.
pub const SESSIONS: usize = 20;

/// Sessions in each pass of a traced run.
const TRACE_SESSIONS: usize = 4;

/// Share of a traced run spent on the untraced reference pass and on the
/// traced pass; the single-layer measurements take the rest.
const UNTRACED_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.4;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: checked invocations, metrics and the configuration
/// they were measured under.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// `(key, value rendered as JSON)`.
    pub config: Vec<(String, String)>,
}

/// Run the benchmark with freshly generated inputs.
pub fn run(args: &Args) -> Outcome {
    let inputs = Inputs::generate(args.seed, args.workload.len);
    run_with_inputs(args, inputs)
}

/// Run the benchmark on given inputs (the smoke test corrupts them to
/// check that the output checker notices).
pub fn run_with_inputs(args: &Args, inputs: Inputs) -> Outcome {
    let inputs = Arc::new(inputs);
    let plan = |share: f64, traced: bool| Plan {
        workload: args.workload,
        inputs: inputs.clone(),
        measure: Duration::from_secs_f64(args.seconds * share),
        traced,
    };
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        config: base_config(args),
    };
    // The first session of a process runs on a fresh heap and its
    // large-payload invocations are faster than in every later session
    // (README.md), so it only warms the process up.
    out.pool(&plan(0.0, false), 1);
    if args.trace {
        let untraced = out.pool(&plan(UNTRACED_SHARE, false), TRACE_SESSIONS);
        probe::set_counting(true);
        let traced = out.pool(&plan(TRACED_SHARE, true), TRACE_SESSIONS);
        probe::set_counting(false);
        out.traced_metrics(&untraced, &traced);
        let rest = args.seconds * (1.0 - UNTRACED_SHARE - TRACED_SHARE);
        for (name, value) in layers::measure(&args.workload, Duration::from_secs_f64(rest)) {
            out.push(name, value);
        }
    } else {
        let mut pool = out.pool(&plan(1.0, false), SESSIONS);
        out.end_to_end_metrics(&args.workload, &mut pool);
        out.push("setup_s", median(&mut pool.setups));
    }
    let error_rate = out.failed as f64 / out.attempted as f64;
    out.config.push(("error_rate".into(), json_num(error_rate)));
    out
}

/// What several sessions of one plan measured, pooled.
#[derive(Debug, Default)]
struct Pool {
    samples: Vec<Sample>,
    setups: Vec<f64>,
    warmup_per_session: usize,
}

impl Outcome {
    /// Run `sessions` fresh sessions of `plan`, splitting its measuring
    /// time between them, and pool their samples.
    fn pool(&mut self, plan: &Plan, sessions: usize) -> Pool {
        let plan = Plan {
            measure: plan.measure / sessions as u32,
            ..plan.clone()
        };
        let mut pool = Pool::default();
        for _ in 0..sessions {
            let r = run_session(&plan);
            self.attempted += r.attempted;
            self.failed += r.failed;
            pool.samples.extend(r.samples);
            pool.setups.push(r.setup.as_secs_f64());
            pool.warmup_per_session = r.warmup;
        }
        pool
    }

    fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let unit = unit_of(&name);
        self.metrics.push(Metric { name, value, unit });
    }

    fn end_to_end_metrics(&mut self, w: &Workload, pool: &mut Pool) {
        self.config
            .push(("sessions".into(), pool.setups.len().to_string()));
        self.config.push((
            "warmup_invocations_per_session".into(),
            pool.warmup_per_session.to_string(),
        ));
        for mode in MODES {
            let tag = mode_tag(mode);
            let mut lat = latencies_us(&pool.samples, mode);
            let p50 = median(&mut lat);
            self.push(format!("{tag}.p50_us"), p50);
            self.push(format!("{tag}.p90_us"), percentile(&mut lat, 0.9));
            // Bytes per microsecond is MB/s.
            self.push(format!("{tag}.MBps"), w.payload_bytes() as f64 / p50);
            self.config
                .push((format!("{tag}.samples"), lat.len().to_string()));
            self.config.push((
                format!("{tag}.p99_us"),
                json_num(percentile(&mut lat, 0.99)),
            ));
        }
    }

    fn traced_metrics(&mut self, untraced: &Pool, traced: &Pool) {
        let (mut plain, mut with_trace) = (0.0, 0.0);
        for mode in MODES {
            let tag = mode_tag(mode);
            plain += median(&mut latencies_us(&untraced.samples, mode));
            with_trace += median(&mut latencies_us(&traced.samples, mode));
            let traces: Vec<&TraceSample> = traced
                .samples
                .iter()
                .filter(|s| s.mode == mode)
                .filter_map(|s| s.trace.as_ref())
                .collect();
            for (name, field) in TRACE_FIELDS {
                let mut v: Vec<f64> = traces.iter().filter_map(|t| field(t)).collect();
                self.push(format!("{tag}.{name}"), median(&mut v));
            }
            self.config
                .push((format!("{tag}.traced_samples"), traces.len().to_string()));
        }
        self.push(
            "bench.trace_overhead_pct",
            100.0 * (with_trace / plain - 1.0),
        );
    }

    /// The last line of a run's output.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run's configuration, as one JSON line.
    pub fn config_json(&self) -> String {
        let fields: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"config\": {{{}}}}}", fields.join(", "))
    }
}

/// Per-invocation layer values of a traced sample, by metric name
/// (prefixed with the mode's tag when reported).
type TraceField = (&'static str, fn(&TraceSample) -> Option<f64>);
const TRACE_FIELDS: [TraceField; 19] = [
    ("core.client.gather_us", |t| Some(us(t.client.gather))),
    ("core.client.pack_us", |t| Some(us(t.client.pack))),
    ("core.client.send_us", |t| Some(us(t.client.send))),
    ("core.client.recv_unpack_us", |t| {
        Some(us(t.client.recv_unpack))
    }),
    ("core.client.scatter_us", |t| Some(us(t.client.scatter))),
    ("core.client.total_us", |t| Some(us(t.client.total))),
    ("core.server.scatter_us", |t| Some(us(t.server.scatter))),
    ("core.server.recv_unpack_us", |t| {
        Some(us(t.server.recv_unpack))
    }),
    ("core.server.exit_barrier_us", |t| {
        Some(us(t.server.barrier))
    }),
    ("core.server.gather_us", |t| Some(us(t.server.gather))),
    ("core.server.pack_us", |t| Some(us(t.server.pack))),
    ("core.server.send_us", |t| Some(us(t.server.send))),
    ("core.server.total_us", |t| Some(us(t.server.total))),
    ("core.servant.dispatch_us", |t| Some(us(t.dispatch))),
    ("core.residual_us", |t| Some(residual_us(t))),
    ("proc.allocs_per_invoke", |t| t.proc.map(|p| p.allocs)),
    ("proc.alloc_bytes_per_invoke", |t| {
        t.proc.map(|p| p.alloc_bytes)
    }),
    ("proc.minflt_per_invoke", |t| t.proc.map(|p| p.minflt)),
    ("proc.cpu_us_per_invoke", |t| t.proc.map(|p| p.cpu_us)),
];

/// Client wall-clock not covered by the client's own phases or by the
/// server's serve time: request relay broadcasts, fabric hops and thread
/// wake-ups. The client's `recv_unpack` is not subtracted because it
/// includes the wait for the server's reply. Negative when the server's
/// receive overlaps the client's send (multi-port, large payloads).
fn residual_us(t: &TraceSample) -> f64 {
    let c = &t.client;
    us(c.total) - us(c.gather + c.pack + c.send + c.scatter + c.barrier) - us(t.server.total)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn latencies_us(samples: &[Sample], mode: pardis::prelude::TransferMode) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.mode == mode)
        .map(|s| us(s.latency))
        .collect()
}

/// Unit of a metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("alloc_bytes_per_invoke") {
        "B"
    } else if name.ends_with("cpu_us_per_invoke") || name.ends_with("_us") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("MBps") {
        "MB/s"
    } else if name.ends_with("GBps") {
        "GB/s"
    } else if name.ends_with("_pct") {
        "%"
    } else {
        "count"
    }
}

/// A finite number as JSON; anything else as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Configuration shared by both kinds of run.
fn base_config(args: &Args) -> Vec<(String, String)> {
    let w = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", json_str(w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("git_rev", json_str(&git_rev())),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("features", json_str("none")),
        ("client_threads", w.client_threads.to_string()),
        ("server_threads", w.server_threads.to_string()),
        (
            "operation",
            json_str(match w.op {
                Op::TotalHeat => "total_heat(in darray)",
                Op::DiffusionZero => "diffusion(0, inout darray)",
            }),
        ),
        ("len_doubles", w.len.to_string()),
        ("payload_bytes", w.payload_bytes().to_string()),
        (
            "loop",
            json_str("closed; one client machine; modes alternate every invocation"),
        ),
        (
            "fabric",
            json_str(
                "in-process simulated fabric, LinkSpec::unlimited(); \
                 no real network or loopback",
            ),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let rev = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
    });
    rev.unwrap_or_else(|| "unknown".into())
}
