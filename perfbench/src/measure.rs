//! Measurement plumbing shared by the workloads: op outcomes, percentiles,
//! peak memory, the benchmark's own span recorder, per-layer sample sets and
//! device-log counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use drtopk_obs::SpanRecord;
use gpu_sim::Device;

/// Runs one op under `catch_unwind`, timing it on the host clock. `Err`
/// carries a one-line reason: a returned error or a panic.
pub fn timed<R>(op: impl FnOnce() -> Result<R, String>) -> (Duration, Result<R, String>) {
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(op));
    let elapsed = started.elapsed();
    let out = match out {
        Ok(result) => result,
        Err(payload) => Err(panic_message(payload.as_ref())),
    };
    (elapsed, out)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic".to_string()
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Tally of ops and their host latencies; failed ops are counted but never
/// contribute a sample.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// (host ms, selections) of each successful op, in order.
    pub samples: Vec<(f64, u64)>,
    /// (samples taken before it, host ms) of each reference-loop run timed
    /// beside the ops.
    pub references: Vec<(usize, f64)>,
    /// Peak resident set once the first window of samples was taken.
    pub rss_mb: Option<f64>,
    pub failures: Vec<String>,
}

/// Latency figures over consecutive windows of [`WINDOW`] samples each:
/// medians over windows (the p90's lower quartile), rescaled to reference
/// speed (see [`Reference`]).
pub struct Windowed {
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Selections per busy host second.
    pub throughput: f64,
    pub windows: usize,
    /// The p50 as measured, before rescaling.
    pub raw_p50_ms: f64,
    /// The reference loop's time the figures are rescaled by.
    pub reference_ms: f64,
}

impl Tally {
    /// Records one timed op that completed `selections` selections, or
    /// failed with `Err(reason)`.
    pub fn record(&mut self, elapsed: Duration, outcome: Result<u64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(selections) => {
                self.samples.push((elapsed.as_secs_f64() * 1e3, selections));
                if self.samples.len() == WINDOW {
                    self.rss_mb = Some(peak_rss_mb());
                }
            }
            Err(reason) => self.fail(reason),
        }
    }

    /// Records a failed op outside the timed loop (a set-up op).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }

    /// Adds another tally's op counts and failures (not its samples).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }

    /// Selections per busy host second, over every sample.
    pub fn throughput(&self) -> f64 {
        throughput(&self.samples)
    }

    /// Each figure is the median over complete windows, rescaled to
    /// reference speed: multiplied (throughput divided) by
    /// [`REFERENCE_NOMINAL_MS`] ÷ the median over the same windows of the
    /// reference loop's median time. A host that runs everything slower
    /// moves the op and the reference alike and leaves the figure in place.
    /// The host's speed changes over minutes, so one scale per run serves,
    /// and it averages the reference's own noise over every window. Medians
    /// and not quiet quartiles: in a noisy state the quietest op windows
    /// are quieter, relative to typical, than the quietest reference
    /// windows, so quartiles read up to 15% low there. The p90 is the
    /// exception, taken at the lower quartile of windows: bursts of CPU
    /// steal lengthen the ops they land on, and in a noisy state the median
    /// over windows of p90 spread by 0.23 across ten seeds while the p50
    /// held to 0.02. Each window holds enough samples for ten to lie above
    /// its p90.
    pub fn windowed(&self) -> Windowed {
        let (mut p50, mut p90, mut per_second) = (Vec::new(), Vec::new(), Vec::new());
        let mut reference = Vec::new();
        for (w, window) in self.samples.chunks_exact(WINDOW).enumerate() {
            let taken = w * WINDOW..(w + 1) * WINDOW;
            let refs: Vec<f64> = self
                .references
                .iter()
                .filter(|(before, _)| taken.contains(before))
                .map(|r| r.1)
                .collect();
            if !refs.is_empty() {
                reference.push(median(&refs));
            }
            let ms: Vec<f64> = window.iter().map(|s| s.0).collect();
            p50.push(percentile(&ms, 0.5));
            p90.push(percentile(&ms, 0.9));
            per_second.push(throughput(window));
        }
        assert!(!reference.is_empty(), "no window with a reference-loop run");
        let reference_ms = median(&reference);
        let scale = REFERENCE_NOMINAL_MS / reference_ms;
        let raw_p50_ms = median(&p50);
        Windowed {
            p50_ms: raw_p50_ms * scale,
            p90_ms: percentile(&p90, 0.25) * scale,
            throughput: median(&per_second) / scale,
            windows: p50.len(),
            raw_p50_ms,
            reference_ms,
        }
    }
}

fn throughput(samples: &[(f64, u64)]) -> f64 {
    let selections: u64 = samples.iter().map(|s| s.1).sum();
    let busy_ms: f64 = samples.iter().map(|s| s.0).sum();
    selections as f64 * 1e3 / busy_ms
}

/// Samples per latency window: enough that ten lie above its p90.
pub const WINDOW: usize = 110;

/// The speed timing figures are rescaled to: a host on which the reference
/// loop takes this long. It is about the loop's median time on the host the
/// benchmark was written on (2 vCPUs of a 2.1 GHz Intel Xeon), so rescaled
/// figures read close to that host's own.
pub const REFERENCE_NOMINAL_MS: f64 = 2.0;

/// Parallel phases of the reference loop, each spawning its threads anew.
const REFERENCE_PHASES: usize = 8;
/// Arrays each reference thread sorts per phase.
const REFERENCE_SORTS: usize = 6;
/// Keys in each array a reference thread sorts (16 KiB).
const REFERENCE_ARRAY: usize = 1 << 12;
/// Keys the reference arrays are copied from (64 KiB).
const REFERENCE_KEYS: usize = 1 << 14;

/// A fixed piece of host work of the benchmark's own, timed beside the
/// workload's ops to measure how fast the host runs at that moment. The
/// hosts this benchmark runs on are shared: the whole process can run up to
/// 2.2x slower for minutes to hours, CPU time included, so neither wall nor
/// CPU time of an op is comparable between runs by itself. The ratio of an
/// op's time to the reference's, taken in the same window, is.
///
/// It is shaped like the program's work in the way that matters here: eight
/// short phases, each of which spawns one scoped thread per host core, as
/// every simulated kernel launch does. Each thread sorts copies of small
/// arrays that stay in its core's cache. It reads no large buffer on
/// purpose: on the host it was written on, memory speed wanders on its own.
/// In one 7-minute run a variant that also streamed an 8 MiB buffer varied
/// by 0.14 (IQR ÷ median over 110-op windows) while `oneshot`'s ops varied
/// by 0.05, so rescaling by it added noise; this loop varied by 0.04 and
/// its ratio to the ops held within 3% over the run. It calls no program
/// code, so no change to the program moves it.
pub struct Reference {
    keys: Vec<u32>,
    threads: usize,
}

impl Reference {
    /// The loop on one thread per host core.
    pub fn new() -> Reference {
        Reference::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The loop on `threads` threads per phase.
    pub fn with_threads(threads: usize) -> Reference {
        let mut state = 0x7265_6665_7265_6e63_u64;
        let keys = (0..REFERENCE_KEYS)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                (crate::derive_seed(state, 0) >> 32) as u32
            })
            .collect();
        Reference { keys, threads }
    }

    /// Runs the work once; returns its host ms.
    pub fn run(&self) -> f64 {
        let started = Instant::now();
        for _ in 0..REFERENCE_PHASES {
            std::thread::scope(|scope| {
                for t in 0..self.threads {
                    let keys = &self.keys;
                    scope.spawn(move || {
                        let mut array = Vec::with_capacity(REFERENCE_ARRAY);
                        for r in 0..REFERENCE_SORTS {
                            let start =
                                (t * REFERENCE_ARRAY + r * 64) % (REFERENCE_KEYS - REFERENCE_ARRAY);
                            array.clear();
                            array.extend_from_slice(&keys[start..start + REFERENCE_ARRAY]);
                            array.sort_unstable();
                            std::hint::black_box(&array);
                        }
                    });
                }
            });
        }
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Median host ms of `reps` runs.
    pub fn median_ms(&self, reps: usize) -> f64 {
        let samples: Vec<f64> = (0..reps).map(|_| self.run()).collect();
        median(&samples)
    }
}

/// When a timed loop may stop: once `budget` has passed and it ran at least
/// `min_ops` ops (a full cycle of distinct ops, and [`MIN_SAMPLES`] for a
/// latency distribution).
pub struct Deadline {
    started: Instant,
    budget: Duration,
    min_ops: usize,
}

impl Deadline {
    pub fn new(budget: Duration, min_ops: usize) -> Deadline {
        Deadline {
            started: Instant::now(),
            budget,
            min_ops,
        }
    }

    pub fn done(&self, ops: usize) -> bool {
        ops >= self.min_ops && self.started.elapsed() >= self.budget
    }
}

/// Fewest samples a timed loop takes: one full window.
pub const MIN_SAMPLES: usize = WINDOW;

/// One span recorded by the benchmark around a call into a layer.
struct BenchSpan {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// The traced pass's in-memory span store: the benchmark's own spans around
/// each public call, plus the spans the engine's recorder produced, tagged
/// with the op they belong to. Written out once, when the run ends.
pub struct Spans {
    epoch: Instant,
    stack: Vec<usize>,
    bench: Vec<BenchSpan>,
    /// The engine's spans with their op, up to [`ENGINE_SPANS_KEPT`].
    engine: Vec<(u64, SpanRecord)>,
    engine_seen: usize,
}

/// Engine spans kept for the span file; later ones are counted, not kept,
/// so a long traced pass writes a file of bounded size.
const ENGINE_SPANS_KEPT: usize = 20_000;

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            stack: Vec::new(),
            bench: Vec::new(),
            engine: Vec::new(),
            engine_seen: 0,
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span, and returns its result and host milliseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, f64) {
        let idx = self.bench.len();
        let start = self.epoch.elapsed();
        self.bench.push(BenchSpan {
            name,
            op,
            parent: self.stack.last().copied(),
            start_us: start.as_secs_f64() * 1e6,
            end_us: f64::NAN,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed();
        self.bench[idx].end_us = end.as_secs_f64() * 1e6;
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Adds the spans an engine recorder produced during op `op`.
    pub fn add_engine(&mut self, op: u64, spans: Vec<SpanRecord>) {
        self.engine_seen += spans.len();
        let room = ENGINE_SPANS_KEPT.saturating_sub(self.engine.len());
        self.engine
            .extend(spans.into_iter().take(room).map(|s| (op, s)));
    }

    /// Total spans recorded (the benchmark's and the engine's).
    pub fn len(&self) -> usize {
        self.bench.len() + self.engine_seen
    }

    /// JSON lines: one object per span, the benchmark's first.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.bench.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"src\":\"bench\",\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name, s.op, s.start_us, s.end_us
            );
        }
        for (op, s) in &self.engine {
            let _ = writeln!(
                out,
                "{{\"src\":\"engine\",\"op\":{op},\"seq\":{},\"kind\":\"{}\",\"track\":\"{}\",\"measured_start_ms\":{:.6},\"measured_end_ms\":{:.6},\"modeled_start_ms\":{:.6},\"modeled_end_ms\":{:.6}}}",
                s.seq, s.kind, s.track, s.measured_start_ms, s.measured_end_ms, s.start_ms, s.end_ms
            );
        }
        out
    }
}

/// The longest summed measured span time over the tracks `track_filter`
/// accepts, in ms.
pub fn longest_track_ms(spans: &[SpanRecord], track_filter: impl Fn(&str) -> bool) -> f64 {
    let mut per_track: BTreeMap<&str, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| track_filter(&s.track)) {
        *per_track.entry(&s.track).or_default() += s.measured_end_ms - s.measured_start_ms;
    }
    per_track.values().copied().fold(0.0, f64::max)
}

/// Per-layer samples, reported as medians (or as exact values where a
/// metric is a single count or ratio).
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// Sets a metric to one value, replacing any samples.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.samples.insert(name.into(), vec![value]);
    }

    /// Each metric's median.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.samples
            .iter()
            .map(|(k, v)| (k.clone(), median(v)))
            .collect()
    }
}

/// Counters summed over every device's kernel log.
#[derive(Default)]
pub struct LogCounters {
    pub records: u64,
    pub transactions: u64,
    pub wall_ms: f64,
}

impl LogCounters {
    pub fn read(devices: &[&Device]) -> LogCounters {
        let mut total = LogCounters::default();
        for device in devices {
            let stats = device.stats();
            total.records += stats.kernels.len() as u64;
            total.transactions += stats.total.total_transactions();
            total.wall_ms += stats.kernels.iter().map(|k| k.wall_ms).sum::<f64>();
        }
        total
    }

    /// Per-op deltas from `before` to `self` over `ops` ops: (launches,
    /// transactions, kernel host ms).
    pub fn per_op_since(&self, before: &LogCounters, ops: usize) -> (f64, f64, f64) {
        let ops = ops.max(1) as f64;
        (
            (self.records - before.records) as f64 / ops,
            (self.transactions - before.transactions) as f64 / ops,
            (self.wall_ms - before.wall_ms) / ops,
        )
    }
}

/// Host µs of one empty 64-warp launch on `device`, median of `reps`.
pub fn empty_launch_us(device: &Device, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            let r = device.launch("perfbench_empty", 64, |_ctx| ());
            std::hint::black_box(r);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
