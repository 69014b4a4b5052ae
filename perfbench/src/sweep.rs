//! The layer sweep of the traced pass: one timed call into each core layer's
//! public functions on the workload's own inputs, repeated until the sweep's
//! time budget is spent, plus one engine batch per repetition that reaches
//! every stage kind. Every workload runs it, so every per-layer metric is
//! measured on every workload.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drtopk_core::{
    as_desc, build_delegate_vector, choose_path_sampled, concatenate, distributed_dr_topk,
    distributed_dr_topk_observed, dr_topk, dr_topk_approx, first_topk, flag_radix_topk,
    measured_recall, topk_rows, ChosenPath, DrTopKConfig, DrTopKResult, Executor, PathHint,
    PlannedQuery, ReloadSchedule, RowK, RowMatrix, TopKKey,
};
use drtopk_engine::{CacheReport, EngineConfig, EngineReport, QueryBatch, TopKEngine};
use drtopk_obs::{SpanRecord, TraceRecorder};
use gpu_sim::{Device, DeviceSpec, GpuCluster};
use topk_baselines::reference_topk;

use crate::measure::{empty_launch_us, longest_track_ms, timed, Layers, Spans, Tally};

/// One exact query the sweep decomposes into its phases.
pub struct ExactProbe<'a> {
    pub data: &'a [u32],
    pub k: usize,
    pub smallest: bool,
    pub reference: &'a [u32],
}

/// A query with its exact reference answer.
pub struct Probe<'a> {
    pub data: &'a [u32],
    pub k: usize,
    pub reference: Vec<u32>,
}

impl<'a> Probe<'a> {
    /// A top-`k` probe of `data`, with its reference solved.
    pub fn new(data: &'a [u32], k: usize) -> Probe<'a> {
        Probe {
            data,
            k,
            reference: reference_topk(data, k),
        }
    }
}

/// A row matrix with its per-row references.
pub struct RowsProbe<'a> {
    pub data: &'a [u32],
    pub rows: usize,
    pub cols: usize,
    pub k: usize,
    pub references: Vec<Vec<u32>>,
}

impl<'a> RowsProbe<'a> {
    /// A row-wise top-`k` probe of `data` as a `rows`×`cols` matrix, with
    /// each row's reference solved.
    pub fn new(data: &'a [u32], rows: usize, cols: usize, k: usize) -> RowsProbe<'a> {
        RowsProbe {
            data,
            rows,
            cols,
            k,
            references: data
                .chunks(cols)
                .map(|row| reference_topk(row, k))
                .collect(),
        }
    }
}

/// The workload's inputs to the sweep.
pub struct SweepInputs<'a> {
    pub exact: Vec<ExactProbe<'a>>,
    /// Radix-path probe; a prefix of its data is the sweep engine's pooled
    /// corpus.
    pub radix: Probe<'a>,
    pub approx: Probe<'a>,
    pub rows: RowsProbe<'a>,
    /// Sharded probe, over devices holding `capacity_keys` keys each.
    pub sharded: Probe<'a>,
    pub capacity_keys: usize,
}

/// A cluster of `devices` default devices holding `capacity_keys` u32 keys
/// each.
pub fn capped_cluster(devices: usize, capacity_keys: usize) -> GpuCluster {
    let cluster = GpuCluster::homogeneous(devices, DeviceSpec::v100s());
    for d in cluster.devices() {
        d.set_capacity_elems(capacity_keys);
    }
    cluster
}

fn check(tally: &mut Tally, what: &str, ok: bool) {
    tally.attempted += 1;
    if !ok {
        tally.fail(format!("sweep {what}: wrong answer"));
    }
}

fn check_outcome(tally: &mut Tally, what: &str, outcome: Result<bool, String>) {
    match outcome {
        Ok(ok) => check(tally, what, ok),
        Err(reason) => {
            tally.attempted += 1;
            tally.fail(format!("sweep {what}: {reason}"));
        }
    }
}

/// Phase chain of one exact query in `K` space, each phase timed; returns
/// whether the chain's answer equals `dr_topk`'s, and `dr_topk`'s result.
fn phase_chain<K: TopKKey>(
    device: &Device,
    data: &[K],
    k: usize,
    layers: &mut Layers,
    spans: &mut Spans,
    op: u64,
    chain_first: bool,
) -> (bool, DrTopKResult<K>) {
    let config = DrTopKConfig::default();
    let ((planned, path), plan_ms) = spans.span("core.tuning.plan", op, |_| {
        let planned = PlannedQuery::plan(data.len(), k, &config);
        let path = choose_path_sampled(data, k, device.spec());
        (planned, path)
    });
    let run_full = |spans: &mut Spans| {
        spans.span("core.stages.dr_topk", op, |_| {
            dr_topk(device, data, k, &config)
        })
    };
    // Alternate which of the two runs first, so neither always finds the
    // input cold.
    let early = (!chain_first).then(|| run_full(spans));
    let mut phases_ms = plan_ms;
    let mut chain: Option<Vec<K>> = None;
    if planned.use_delegates && path == ChosenPath::Delegate {
        let cfg = &planned.config;
        let (delegates, delegate_ms) = spans.span("core.delegate", op, |_| {
            build_delegate_vector(device, data, planned.alpha, cfg.beta, cfg.construction)
        });
        let (first, first_ms) = spans.span("core.first_topk", op, |_| {
            first_topk(device, &delegates, planned.k, false)
        });
        let (concatenated, concat_ms) = spans.span("core.concat", op, |_| {
            concatenate(
                device,
                data,
                delegates.subrange_size,
                &first.fully_taken_subranges,
                &first.partial_delegate_values,
                first.threshold,
                cfg.filtering,
            )
        });
        let (values, second_ms) = spans.span("core.second_topk", op, |_| {
            flag_radix_topk(device, &concatenated.elements, planned.k).values
        });
        layers.push("core.plan_us", plan_ms * 1e3);
        layers.push("core.delegate.host_ms", delegate_ms);
        layers.push("core.first_topk.host_ms", first_ms);
        layers.push("core.concat.host_ms", concat_ms);
        layers.push("core.second_topk.host_ms", second_ms);
        phases_ms += delegate_ms + first_ms + concat_ms + second_ms;
        chain = Some(values);
    }
    let (full, full_ms) = early.unwrap_or_else(|| run_full(spans));
    if chain.is_some() {
        layers.push("core.stages.overhead_ms", full_ms - phases_ms);
    }
    // The chain skips the second top-k's short cut (Rule 3), so it is
    // compared as a set of values, in the order `dr_topk` returns them.
    let ok = chain.is_none_or(|mut values| {
        let mut expected = full.values.clone();
        values.sort_by_key(|v| v.to_bits());
        expected.sort_by_key(|v| v.to_bits());
        values == expected
    });
    (ok, full)
}

/// Sweep repetitions run whatever the budget; a workload without engine
/// traffic of its own takes its cache ratios from this many sweep batches.
const COUNTED_REPS: usize = 2;

/// Runs sweep repetitions until `budget` is spent (at least
/// [`COUNTED_REPS`]), adding per-layer samples to `layers`, spans to
/// `spans`, and every checked answer to `tally`. A workload without engine
/// traffic of its own (`own_engine_traffic` false) takes its engine-level
/// figures from the sweep batches.
pub fn run(
    inputs: &SweepInputs<'_>,
    budget: Duration,
    own_engine_traffic: bool,
    layers: &mut Layers,
    spans: &mut Spans,
    tally: &mut Tally,
) {
    let device = Device::new(DeviceSpec::v100s());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let devices = host_cores.clamp(2, 8);
    let cluster = capped_cluster(devices, inputs.capacity_keys);
    let sweep_engine = SweepEngine::new(inputs, devices);
    let mut counts = EngineCounts::default();
    // The paper's useful-work ratio, over every exact query of the
    // workload, so it repeats exactly run to run.
    let fractions: Vec<f64> = inputs
        .exact
        .iter()
        .map(|p| {
            let workload = if p.smallest {
                dr_topk(&device, as_desc(p.data), p.k, &DrTopKConfig::default()).workload
            } else {
                dr_topk(&device, p.data, p.k, &DrTopKConfig::default()).workload
            };
            workload.workload_fraction()
        })
        .collect();
    layers.set(
        "core.workload_fraction",
        fractions.iter().sum::<f64>() / fractions.len() as f64,
    );
    let started = Instant::now();
    let mut rep = 0usize;
    let mut next_id = 1u64 << 40;
    while rep < COUNTED_REPS || started.elapsed() < budget {
        let op = (1u64 << 48) + rep as u64;
        spans.span("sweep.rep", op, |spans| {
            let probe = &inputs.exact[rep % inputs.exact.len()];
            let ok = if probe.smallest {
                let (chain_ok, full) = phase_chain(
                    &device,
                    as_desc(probe.data),
                    probe.k,
                    layers,
                    spans,
                    op,
                    rep.is_multiple_of(2),
                );
                chain_ok && full.into_native().values == probe.reference
            } else {
                let (chain_ok, full) = phase_chain(
                    &device,
                    probe.data,
                    probe.k,
                    layers,
                    spans,
                    op,
                    rep.is_multiple_of(2),
                );
                chain_ok && full.values == probe.reference
            };
            check(tally, "phase chain", ok);

            let (reference, baseline_ms) = spans.span("baseline.reference_topk", op, |_| {
                if probe.smallest {
                    topk_baselines::reference_topk_min(probe.data, probe.k)
                } else {
                    reference_topk(probe.data, probe.k)
                }
            });
            layers.push("baseline.reference_topk_ms", baseline_ms);
            check(tally, "reference", reference == probe.reference);

            let r = &inputs.radix;
            let radix_cfg = DrTopKConfig {
                path: PathHint::Radix,
                ..DrTopKConfig::default()
            };
            let (out, ms) = spans.span("core.radix_path", op, |_| {
                timed(|| Ok(dr_topk(&device, r.data, r.k, &radix_cfg).values)).1
            });
            layers.push("core.radix_path.host_ms", ms);
            check_outcome(tally, "radix path", out.map(|v| v == r.reference));

            let a = &inputs.approx;
            let (out, ms) = spans.span("core.approx", op, |_| {
                timed(|| {
                    Ok(dr_topk_approx(&device, a.data, a.k, 0.95, &DrTopKConfig::default()).values)
                })
                .1
            });
            layers.push("core.approx.host_ms", ms);
            if let Ok(values) = &out {
                layers.push("core.approx.recall", measured_recall(values, &a.reference));
            }
            check_outcome(tally, "approx", out.map(|v| v.len() == a.k));

            let m = &inputs.rows;
            let matrix = RowMatrix::new(m.data, m.rows, m.cols);
            let (out, ms) = spans.span("core.rows", op, |_| {
                timed(|| {
                    Ok(topk_rows(
                        &cluster,
                        matrix,
                        &RowK::Uniform(m.k),
                        &DrTopKConfig::default(),
                    ))
                })
                .1
            });
            layers.push("core.rows.host_ms", ms);
            check_outcome(
                tally,
                "rows",
                out.map(|res| {
                    res.rows
                        .iter()
                        .zip(&m.references)
                        .all(|(got, want)| got.values == *want)
                }),
            );

            let s = &inputs.sharded;
            let (out, ms) = spans.span("core.distributed", op, |_| {
                timed(|| {
                    Ok(distributed_dr_topk(&cluster, s.data, s.k, &DrTopKConfig::default()).values)
                })
                .1
            });
            layers.push("core.distributed.host_ms", ms);
            check_outcome(tally, "distributed", out.map(|v| v == s.reference));
            let recorder = TraceRecorder::new();
            let cfg = DrTopKConfig::default();
            let (out, ms) = spans.span("core.distributed.observed", op, |_| {
                timed(|| {
                    Ok(distributed_dr_topk_observed(
                        &cluster,
                        s.data,
                        s.k,
                        &cfg,
                        ReloadSchedule::default(),
                        Executor::Threaded,
                        &recorder,
                    )
                    .values)
                })
                .1
            });
            let observed = recorder.spans();
            layers.push(
                "core.distributed.executor_overhead_ms",
                ms - longest_track_ms(&observed, |_| true),
            );
            check_outcome(tally, "distributed observed", out.map(|v| v == s.reference));
            spans.add_engine(op, observed);

            let ((engine_spans, report), ms) = spans.span("engine.sweep_batch", op, |_| {
                sweep_engine.run_batch(inputs, &mut next_id, tally)
            });
            match (&report, own_engine_traffic) {
                (Some(report), false) => {
                    engine_layers(layers, report, ms, &engine_spans);
                    if rep < COUNTED_REPS {
                        counts.add(report);
                    }
                }
                _ => stage_layers(layers, &engine_spans),
            }
            layers.push("engine.sweep_batch_ms", ms);
            spans.add_engine(op, engine_spans);
        });
        rep += 1;
    }
    if !own_engine_traffic {
        counts.set_layers(layers);
    }

    // Launch cost: a default device spawns its host threads per launch,
    // a one-thread device runs the warps inline.
    let default_device = Device::new(DeviceSpec::v100s());
    let inline_device = Device::with_host_threads(DeviceSpec::v100s(), 1);
    layers.set(
        "gpu_sim.launch_empty_us",
        empty_launch_us(&default_device, 201),
    );
    layers.set(
        "gpu_sim.launch_empty_inline_us",
        empty_launch_us(&inline_device, 201),
    );
}

/// The sweep's engine. Its devices hold at most half a device's share of
/// the sharded corpus, so the sharded query always reloads chunks; its
/// pooled queries run on prefixes that fit one device.
struct SweepEngine<'a> {
    engine: TopKEngine,
    pool: &'a [u32],
    pool_k: usize,
    pool_reference: Vec<u32>,
    rows: usize,
}

impl<'a> SweepEngine<'a> {
    fn new(inputs: &SweepInputs<'a>, devices: usize) -> SweepEngine<'a> {
        // Two chunks per device: every device reloads at least once.
        let capacity = inputs
            .capacity_keys
            .min(inputs.sharded.data.len() / (2 * devices))
            .max(1);
        let r = &inputs.radix;
        let pool = &r.data[..r.data.len().min(capacity)];
        let pool_k = r.k.min(pool.len() / 8).max(1);
        SweepEngine {
            engine: TopKEngine::with_config(
                capped_cluster(devices, capacity),
                EngineConfig {
                    shard_capacity: Some(capacity),
                    ..EngineConfig::default()
                },
            ),
            pool,
            pool_k,
            pool_reference: reference_topk(pool, pool_k),
            rows: inputs.rows.rows.min(capacity / inputs.rows.cols),
        }
    }

    /// One batch that reaches every stage kind: an exact, a radix-path and
    /// an approximate query on the pooled corpus (under a fresh id, so the
    /// delegate pass runs), the row matrix, and the sharded corpus. Returns
    /// the batch's recorded spans and, if it ran, its report.
    fn run_batch(
        &self,
        inputs: &SweepInputs<'_>,
        next_id: &mut u64,
        tally: &mut Tally,
    ) -> (Vec<SpanRecord>, Option<EngineReport>) {
        let mut batch = QueryBatch::new();
        *next_id += 1;
        let pool = batch.add_corpus(*next_id, self.pool);
        let exact_k = inputs.exact[0].k.min(self.pool_k);
        batch.push_topk(pool, exact_k);
        batch.push_topk_path(pool, self.pool_k, PathHint::Radix);
        batch.push_topk_approx(pool, inputs.approx.k.min(self.pool_k), 0.95);
        let m = &inputs.rows;
        let rows = batch.add_corpus_uncached(&m.data[..self.rows * m.cols]);
        batch.push_rows(rows, self.rows, m.cols, RowK::Uniform(m.k));
        let sharded = batch.add_corpus_uncached(inputs.sharded.data);
        batch.push_topk(sharded, inputs.sharded.k);

        let recorder = Arc::new(TraceRecorder::new());
        self.engine.attach_recorder(recorder.clone());
        let (_, out) = timed(|| self.engine.run_batch(&batch).map_err(|e| e.to_string()));
        self.engine.detach_recorder();
        let report = out.as_ref().ok().map(|out| out.report.clone());
        let ok = out.map(|out| {
            out.results[0].values == self.pool_reference[..exact_k]
                && out.results[1].values == self.pool_reference
                && out.results[2].values.len() == inputs.approx.k.min(self.pool_k)
                && out.results[3].values == inputs.sharded.reference
                && out.row_results[0]
                    .rows
                    .iter()
                    .zip(&m.references)
                    .all(|(got, want)| got.values == *want)
        });
        check_outcome(tally, "engine batch", ok);
        (recorder.spans(), report)
    }
}

/// Per-kind samples: the measured host ms of each recorded stage.
pub fn stage_layers(layers: &mut Layers, spans: &[SpanRecord]) {
    for span in spans {
        layers.push(
            format!("engine.stage_host_ms.{}", span.kind),
            span.measured_end_ms - span.measured_start_ms,
        );
    }
}

/// Engine-level host-time samples of one batch that took `wall_ms` on the
/// host and recorded `spans`.
pub fn engine_layers(
    layers: &mut Layers,
    report: &EngineReport,
    wall_ms: f64,
    spans: &[SpanRecord],
) {
    stage_layers(layers, spans);
    layers.push(
        "engine.nonstage_ms_per_batch",
        wall_ms - longest_track_ms(spans, |track| track.starts_with("compute")),
    );
    layers.push("engine.host_over_modeled", wall_ms / report.total_ms);
}

/// Engine counters summed over a fixed set of batches, so the ratios
/// derived from them repeat exactly run to run.
#[derive(Default)]
pub struct EngineCounts {
    pub batches: usize,
    pub plan: CacheReport,
    pub delegate: CacheReport,
    pub delegate_passes: usize,
    pub occupancy: f64,
}

impl EngineCounts {
    pub fn add(&mut self, report: &EngineReport) {
        self.batches += 1;
        self.plan.hits += report.plan_cache.hits;
        self.plan.misses += report.plan_cache.misses;
        self.delegate.hits += report.delegate_cache.hits;
        self.delegate.misses += report.delegate_cache.misses;
        self.delegate_passes += report.delegate_passes_run;
        self.occupancy += report.batch_occupancy;
    }

    pub fn set_layers(&self, layers: &mut Layers) {
        let batches = self.batches.max(1) as f64;
        layers.set("engine.plan_cache_hit_rate", self.plan.hit_rate());
        layers.set("engine.delegate_cache_hit_rate", self.delegate.hit_rate());
        layers.set(
            "engine.delegate_passes_per_batch",
            self.delegate_passes as f64 / batches,
        );
        layers.set("engine.batch_occupancy", self.occupancy / batches);
    }
}
