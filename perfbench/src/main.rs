//! Benchmark of the AD-PROM reproduction: the paper pipeline on SIR App3,
//! and the monitor service paced and overloaded. See `README.md` in this
//! directory for the workloads, metrics and reference figures.
//!
//! ```text
//! perfbench --workload <train-app3|monitor-paced|monitor-overload>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics traced. A traced run also
//! writes its spans to `perfbench/out/trace-<workload>-<seed>.json`.

mod monitor;
mod pipeline;
mod reference;
mod spans;
mod traffic;

use std::fmt::Write as _;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured run length.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// One metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run hands back for printing.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. Every
/// traced run reports all of them; a layer a workload does not enter
/// reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("trace.collect_s", "s"),
    ("trace.events", "count"),
    ("analysis.analyze_s", "s"),
    ("init.init_s", "s"),
    ("init.states", "count"),
    ("train.baumwelch_s", "s"),
    ("train.iterations", "count"),
    ("train.iteration_s", "s"),
    ("train.windows", "count"),
    ("threshold.select_s", "s"),
    ("detect.eval_s", "s"),
    ("detect.eval_windows", "count"),
    ("wire.decode_s", "s"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("validate.screen_s", "s"),
    ("monitor.ingest_s", "s"),
    ("monitor.flush_s", "s"),
    ("monitor.flush_p99_ms", "ms"),
    ("monitor.flushes", "count"),
    ("monitor.finish_s", "s"),
    ("monitor.queue_high_water", "count"),
    ("monitor.backpressure_flushes", "count"),
    ("scorer.windows_scored", "count"),
    ("scorer.kernel_windows_per_s", "windows/s"),
    ("audit.records", "count"),
    ("audit.append_s", "s"),
    ("setup.train_s", "s"),
    ("setup.register_s", "s"),
    ("tier.full_assigned", "count"),
    ("tier.beam_assigned", "count"),
    ("tier.spot_assigned", "count"),
    ("tier.escalations", "count"),
    ("tier.beam_alarms", "count"),
    ("gen.lateness_p99_ms", "ms"),
    ("e2e.verdict_latency_p99_ms", "ms"),
];

/// Per-layer values a workload measured, completed to the full
/// [`LAYERS`] list.
pub fn layer_metrics(measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            LAYERS.iter().any(|(l, _)| l == name),
            "undeclared layer metric {name}"
        );
    }
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(m, _)| *m == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect()
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> String {
    format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train-app3|monitor-paced|monitor-overload> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "train-app3" => pipeline::run(&args),
        "monitor-paced" => monitor::paced(&args),
        "monitor-overload" => monitor::overload(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}
