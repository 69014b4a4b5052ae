//! Host-time benchmark of the Dr. Top-k workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client, closed loop. With `--trace 0` it prints the end-to-end
//! metrics, measured untraced; with `--trace 1` it runs the traced pass and
//! prints the per-layer metrics, writing its spans under `perfbench/out/`.
//! The last line of standard output is the result object; `perfbench/README.md`
//! maps every metric to its layer and workload.

mod driver;
mod measure;
mod oneshot;
mod serve;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use measure::{median, Layers, Spans, Tally, REFERENCE_NOMINAL_MS, WINDOW};

/// End-to-end metrics, in print order, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("modeled_us_per_query", "us"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, in print order, with their units. Every workload
/// reports every one (see the layer sweep in `sweep.rs`).
const PER_LAYER: [(&str, &str); 45] = [
    ("gpu_sim.launches_per_op", "count"),
    ("gpu_sim.launch_empty_us", "us"),
    ("gpu_sim.launch_empty_inline_us", "us"),
    ("gpu_sim.kernel_host_ms_per_op", "ms"),
    ("gpu_sim.kernel_records_retained", "count"),
    ("gpu_sim.transactions_per_op", "count"),
    ("core.plan_us", "us"),
    ("core.delegate.host_ms", "ms"),
    ("core.first_topk.host_ms", "ms"),
    ("core.concat.host_ms", "ms"),
    ("core.second_topk.host_ms", "ms"),
    ("core.stages.overhead_ms", "ms"),
    ("core.workload_fraction", "ratio"),
    ("core.radix_path.host_ms", "ms"),
    ("core.rows.host_ms", "ms"),
    ("core.distributed.host_ms", "ms"),
    ("core.distributed.executor_overhead_ms", "ms"),
    ("core.approx.host_ms", "ms"),
    ("core.approx.recall", "ratio"),
    ("engine.plan_cache_hit_rate", "ratio"),
    ("engine.delegate_cache_hit_rate", "ratio"),
    ("engine.delegate_passes_per_batch", "count"),
    ("engine.batch_occupancy", "ratio"),
    ("engine.nonstage_ms_per_batch", "ms"),
    ("engine.host_over_modeled", "ratio"),
    ("engine.sweep_batch_ms", "ms"),
    ("engine.stage_host_ms.delegate_construction", "ms"),
    ("engine.stage_host_ms.first_topk", "ms"),
    ("engine.stage_host_ms.concatenate", "ms"),
    ("engine.stage_host_ms.second_topk", "ms"),
    ("engine.stage_host_ms.bucket_topk_prime", "ms"),
    ("engine.stage_host_ms.chunk_load", "ms"),
    ("engine.stage_host_ms.local_topk", "ms"),
    ("engine.stage_host_ms.local_merge", "ms"),
    ("engine.stage_host_ms.gather", "ms"),
    ("engine.stage_host_ms.final_topk", "ms"),
    ("engine.stage_host_ms.radix_histogram", "ms"),
    ("engine.stage_host_ms.radix_refine", "ms"),
    ("engine.stage_host_ms.candidate_gather", "ms"),
    ("engine.stage_host_ms.radix_select", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_per_op", "count"),
    ("baseline.reference_topk_ms", "ms"),
    ("host.wall_latency_p50_ms", "ms"),
    ("host.reference_ms", "ms"),
];

/// Where the traced pass writes its spans, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, Debug)]
enum WorkloadName {
    Oneshot,
    ServeChurn,
}

impl WorkloadName {
    fn parse(name: &str) -> Option<WorkloadName> {
        match name {
            "oneshot" => Some(WorkloadName::Oneshot),
            "serve_churn" => Some(WorkloadName::ServeChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadName::Oneshot => "oneshot",
            WorkloadName::ServeChurn => "serve_churn",
        }
    }
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadName::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// How a run spends its time.
pub struct Budget {
    pub trace: bool,
    /// Length of the untraced timed loop.
    pub seconds: Duration,
    /// Traced pass: length of its untraced and its traced segment each.
    pub segment: Duration,
    /// Traced pass: length of the layer sweep.
    pub sweep: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Budget {
    fn new(seconds: u64, trace: bool) -> Budget {
        let total = Duration::from_secs(seconds);
        Budget {
            trace,
            seconds: total,
            segment: total * 2 / 5,
            sweep: total / 5,
            setup_reps: if trace { 1 } else { 9 },
        }
    }
}

/// Stream `stream` of the workload seed (SplitMix64), so every input has
/// its own generator and one seed fixes them all.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a workload hands back: set-up times, then either the untraced
/// loop's figures or the traced pass's layers and spans.
pub struct RunResult {
    setups: Vec<f64>,
    metrics: Vec<(String, f64, &'static str)>,
    spans: Option<Spans>,
    tally: Tally,
}

impl RunResult {
    pub fn new(setups: Vec<f64>) -> RunResult {
        RunResult {
            setups,
            metrics: Vec::new(),
            spans: None,
            tally: Tally::default(),
        }
    }

    /// The end-to-end metrics of an untraced timed loop (all but
    /// `success_rate`, which needs the final tally).
    pub fn end_to_end(&mut self, tally: &Tally, modeled_us_per_query: f64) {
        let windowed = tally.windowed();
        println!(
            "latency: {} samples in {} windows of {WINDOW}, medians over windows; as measured, p50 {:.4} ms with the reference loop at {:.4} ms, rescaled to {REFERENCE_NOMINAL_MS} ms",
            tally.samples.len(),
            windowed.windows,
            windowed.raw_p50_ms,
            windowed.reference_ms,
        );
        let values = [
            median(&self.setups),
            windowed.p50_ms,
            windowed.p90_ms,
            windowed.throughput,
            modeled_us_per_query,
            tally.rss_mb.unwrap_or(f64::NAN),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// The traced pass's per-layer metrics and spans.
    pub fn per_layer(&mut self, layers: Layers, spans: Spans) {
        let medians = layers.medians();
        for (name, unit) in PER_LAYER {
            let value = medians.get(name).copied().unwrap_or(f64::NAN);
            self.metrics.push((name.to_string(), value, unit));
        }
        for (name, value) in &medians {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                eprintln!("note: unlisted per-layer figure {name} = {value}");
            }
        }
        self.spans = Some(spans);
    }

    pub fn finish(mut self, tally: Tally) -> RunResult {
        if self.spans.is_none() {
            let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
            self.metrics
                .push(("success_rate".to_string(), 1.0 - failed_share, "ratio"));
        }
        self.tally = tally;
        self
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <oneshot|serve_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{host_cores},\"profile\":\"{profile}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );

    let budget = Budget::new(args.seconds, args.trace);
    let result = match args.workload {
        WorkloadName::Oneshot => driver::run::<oneshot::Oneshot>(args.seed, &budget),
        WorkloadName::ServeChurn => driver::run::<serve::Churn>(args.seed, &budget),
    };

    if let Some(spans) = &result.spans {
        let path = format!(
            "{OUT_DIR}/{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json_lines()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {} written to {path}", spans.len());
    }

    let tally = &result.tally;
    for reason in &tally.failures {
        eprintln!("failed op: {reason}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in result.metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} was not measured ({value})");
            return ExitCode::FAILURE;
        }
        println!("{name:>44} = {value:.6} {unit}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "ops: {} attempted, {} failed, error_rate {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    // A run with a wrong answer is a failed run, whatever its figures.
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
