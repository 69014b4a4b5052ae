//! The run every workload shares: timed set-ups, then either the untraced
//! timed loop or the traced pass. A workload supplies its ops through
//! [`Workload`]; everything about how they are timed, traced and counted
//! lives here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drtopk_engine::{EngineReport, TopKEngine};
use drtopk_obs::TraceRecorder;
use gpu_sim::Device;

use crate::measure::{
    median, percentile, timed, Deadline, Layers, LogCounters, Reference, Spans, Tally, MIN_SAMPLES,
    REFERENCE_NOMINAL_MS,
};
use crate::sweep::{self, engine_layers, EngineCounts, SweepInputs};
use crate::{Budget, RunResult};

/// A checked op's figures.
pub struct Done {
    /// Vector queries and matrix rows the op completed.
    pub selections: u64,
    /// Modeled makespan of the op, in ms.
    pub modeled_ms: f64,
    /// The engine's report, for workloads whose ops are engine batches.
    pub report: Option<EngineReport>,
}

/// A workload as the driver sees it: a repeating sequence of ops over
/// inputs built from the seed, each op checked against a reference answer.
pub trait Workload: Sized {
    /// What one op returns.
    type Output;
    /// Name of the span around each op in the traced pass.
    const OP_SPAN: &'static str;
    /// Ops between two runs of the reference loop in the timed loop.
    const OPS_PER_REFERENCE: usize;
    /// Whether most of the set-up runs on every core (true) or on one
    /// thread (false); the set-up is rescaled by the reference loop on as
    /// many threads.
    const PARALLEL_SETUP: bool;
    /// Generates the inputs and builds the devices (and engine).
    fn build(seed: u64) -> Self;
    /// Ops `0..cold_ops()` run cold inside the set-up.
    fn cold_ops(&self) -> usize;
    /// Distinct ops before the sequence repeats.
    fn cycle(&self) -> usize;
    /// Solves the reference answers; called once, outside every timing.
    fn solve_references(&mut self);
    /// Runs op `i`.
    fn call(&self, i: usize) -> Result<Self::Output, String>;
    /// Op `i`'s figures, or why its output is wrong.
    fn check(&self, i: usize, out: &Self::Output) -> Result<Done, String>;
    /// The devices whose kernel logs the per-layer counts sum over.
    fn devices(&self) -> Vec<&Device>;
    /// The engine the ops go through, if any; the traced pass attaches a
    /// recorder to it.
    fn engine(&self) -> Option<&TopKEngine> {
        None
    }
    /// The layer sweep's inputs, drawn from this workload's data.
    fn sweep_inputs(&self) -> SweepInputs<'_>;
}

/// Figures of the first cycle of a loop, which repeat exactly run to run.
#[derive(Default)]
struct Cycle {
    modeled_ms: f64,
    selections: u64,
    engine: EngineCounts,
}

/// Runs ops from `next` until `deadline` allows stopping. With `reference`,
/// the reference loop runs before every [`Workload::OPS_PER_REFERENCE`]th
/// op. With `traced`, each op runs inside a span and, if the workload has an
/// engine, with a fresh recorder attached to it.
fn run_ops<W: Workload>(
    workload: &W,
    next: &mut usize,
    deadline: Deadline,
    tally: &mut Tally,
    reference: Option<&Reference>,
    mut traced: Option<(&mut Spans, &mut Layers)>,
) -> Cycle {
    let mut cycle = Cycle::default();
    let mut ops = 0usize;
    while !deadline.done(ops) {
        if let Some(reference) = reference {
            if ops.is_multiple_of(W::OPS_PER_REFERENCE) {
                let ms = reference.run();
                tally.references.push((tally.samples.len(), ms));
            }
        }
        let i = *next;
        let recorder = Arc::new(TraceRecorder::new());
        let (elapsed, out) = match traced.as_mut() {
            None => timed(|| workload.call(i)),
            Some((spans, _)) => {
                if let Some(engine) = workload.engine() {
                    engine.attach_recorder(recorder.clone());
                }
                let (out, _) = spans.span(W::OP_SPAN, i as u64, |_| timed(|| workload.call(i)));
                if let Some(engine) = workload.engine() {
                    engine.detach_recorder();
                }
                out
            }
        };
        let outcome = out.and_then(|out| workload.check(i, &out));
        if let Ok(done) = &outcome {
            if ops < workload.cycle() {
                cycle.modeled_ms += done.modeled_ms;
                cycle.selections += done.selections;
                if let Some(report) = &done.report {
                    cycle.engine.add(report);
                }
            }
        }
        if let Some((spans, layers)) = traced.as_mut() {
            let recorded = recorder.spans();
            if let Ok(Done {
                report: Some(report),
                ..
            }) = &outcome
            {
                engine_layers(layers, report, elapsed.as_secs_f64() * 1e3, &recorded);
            }
            spans.add_engine(i as u64, recorded);
        }
        tally.record(elapsed, outcome.map(|done| done.selections));
        *next += 1;
        ops += 1;
    }
    cycle
}

/// Host seconds of each of `reps` set-ups (inputs, devices, engine, and the
/// cold ops), rescaled to reference speed by the median of reference-loop
/// runs taken just before and after each set-up. The loop runs on as many
/// threads as most of the set-up does: when the host slowed down, work
/// that joins threads on both cores slowed 2.4x where one thread slowed
/// 1.6x. Returns the last set-up's workload and cold outputs.
#[allow(clippy::type_complexity)]
fn set_up<W: Workload>(seed: u64, reps: usize) -> (W, Vec<Result<W::Output, String>>, Vec<f64>) {
    let reference = if W::PARALLEL_SETUP {
        Reference::new()
    } else {
        Reference::with_threads(1)
    };
    let mut seconds = Vec::new();
    let mut refs = Vec::new();
    let mut prepared = None;
    for _ in 0..reps {
        drop(prepared.take());
        refs.extend((0..3).map(|_| reference.run()));
        let started = Instant::now();
        let workload = W::build(seed);
        let cold: Vec<_> = (0..workload.cold_ops())
            .map(|i| timed(|| workload.call(i)).1)
            .collect();
        seconds.push(started.elapsed().as_secs_f64());
        refs.extend((0..3).map(|_| reference.run()));
        prepared = Some((workload, cold));
    }
    let scale = REFERENCE_NOMINAL_MS / median(&refs);
    let setups = seconds.iter().map(|s| s * scale).collect();
    let (workload, cold) = prepared.expect("at least one set-up");
    (workload, cold, setups)
}

/// Runs workload `W`: `budget.setup_reps` set-ups, then the untraced timed
/// loop (end-to-end metrics) or the traced pass (per-layer metrics).
pub fn run<W: Workload>(seed: u64, budget: &Budget) -> RunResult {
    let (mut workload, cold, setups) = set_up::<W>(seed, budget.setup_reps);
    let reference = Reference::new();
    workload.solve_references();
    let mut tally = Tally::default();
    for (i, out) in cold.into_iter().enumerate() {
        tally.attempted += 1;
        if let Err(reason) = out.and_then(|out| workload.check(i, &out).map(|_| ())) {
            tally.fail(format!("cold op {i}: {reason}"));
        }
    }

    let mut result = RunResult::new(setups);
    let cycle = workload.cycle();
    let mut next = workload.cold_ops();
    if !budget.trace {
        let counted = run_ops(
            &workload,
            &mut next,
            Deadline::new(budget.seconds, cycle.max(MIN_SAMPLES)),
            &mut tally,
            Some(&reference),
            None,
        );
        let modeled_us = counted.modeled_ms * 1e3 / counted.selections.max(1) as f64;
        result.end_to_end(&tally, modeled_us);
        return result.finish(tally);
    }

    let mut layers = Layers::default();
    let mut spans = Spans::new();
    let devices = workload.devices();
    let one_cycle = || Deadline::new(Duration::ZERO, cycle);
    let before = LogCounters::read(&devices);
    let mut traced = Tally::default();
    // Exact counts come from the first cycle after set-up, so they repeat
    // run to run.
    let counted = run_ops(
        &workload,
        &mut next,
        one_cycle(),
        &mut traced,
        None,
        Some((&mut spans, &mut layers)),
    );
    let after = LogCounters::read(&devices);
    let (launches, transactions, kernel_ms) = after.per_op_since(&before, cycle);
    layers.set("gpu_sim.launches_per_op", launches);
    layers.set("gpu_sim.transactions_per_op", transactions);
    layers.set("gpu_sim.kernel_host_ms_per_op", kernel_ms);
    let own_engine_traffic = counted.engine.batches > 0;
    if own_engine_traffic {
        counted.engine.set_layers(&mut layers);
    }
    // Untraced and traced cycles alternate, so drift hits both alike.
    let mut untraced = Tally::default();
    let alternating = Deadline::new(budget.segment * 2, MIN_SAMPLES);
    while !alternating.done(untraced.samples.len()) {
        run_ops(&workload, &mut next, one_cycle(), &mut untraced, None, None);
        let traced_pass = Some((&mut spans, &mut layers));
        run_ops(
            &workload,
            &mut next,
            one_cycle(),
            &mut traced,
            None,
            traced_pass,
        );
    }
    layers.set(
        "obs.trace_overhead_pct",
        (untraced.throughput() / traced.throughput() - 1.0) * 100.0,
    );
    layers.set(
        "obs.spans_per_op",
        spans.len() as f64 / traced.attempted as f64,
    );
    let wall_ms: Vec<f64> = untraced.samples.iter().map(|s| s.0).collect();
    layers.set("host.wall_latency_p50_ms", percentile(&wall_ms, 0.5));
    layers.set("host.reference_ms", reference.median_ms(15));

    let inputs = workload.sweep_inputs();
    sweep::run(
        &inputs,
        budget.sweep,
        own_engine_traffic,
        &mut layers,
        &mut spans,
        &mut tally,
    );
    layers.set(
        "gpu_sim.kernel_records_retained",
        LogCounters::read(&devices).records as f64,
    );
    tally.absorb(untraced);
    tally.absorb(traced);
    result.per_layer(layers, spans);
    result.finish(tally)
}
