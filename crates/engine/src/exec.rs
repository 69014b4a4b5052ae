//! Plan execution: a worker pool with one [`Device`] per worker for fused
//! and row-matrix units, and the whole-cluster distributed path for
//! sharded queries.
//!
//! Pool units are pulled from a shared atomic queue (dynamic load
//! balancing: a worker that drew a cheap unit immediately takes the next
//! one). Each unit executes as **one stage graph** on its worker's device.
//! A fused unit's graph is the shared delegate-pass stage — absent when the
//! delegate cache already holds the vector — followed by every member's
//! [`QueryChain`] appended after it: first top-k, concatenation, second
//! top-k for exact members, the candidate top-k for approximate ones, the
//! digit passes for radix members. A row unit's graph holds every member's
//! row blocks ([`RowChain`]). The report that graph's `execute` returns *is*
//! the unit's schedule: per-phase times, counters, the modeled unit cost
//! and the trace spans are read off it, and each member's own result off
//! its stages of it; the executor's debug-build verifier gate checks it
//! like any other graph. Sharded queries run the distributed stage graph
//! (double-buffered chunk ingestion) and report their breakdown and
//! overlap the same way. Worker failures are surfaced per device through
//! [`GpuCluster::try_run_on_all`] instead of poisoning the batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use drtopk_core::{
    as_desc, build_delegate_vector, capacity_in_keys, distributed_dr_topk, DelegateVector,
    DrTopKConfig, DrTopKResult, PhaseBreakdown, QueryChain, Resource, RowChain, RowMatrix,
    RowTopKResult, SharedDelegates, StageGraph, StageKind, StageOutcome, StageReport,
};
use drtopk_obs::TraceSink;
use gpu_sim::{Device, GpuCluster, KernelStats};
use parking_lot::Mutex;
use topk_baselines::{Desc, TopKKey};

use crate::engine::EngineError;
use crate::plan::{ExecutionPlan, FusedUnit, PlanCache, PlanUnit, RowUnit};
use crate::query::{Direction, QueryBatch, RowQuery};
use crate::report::{CacheReport, ExecPath, QueryResult, RowQueryResult};

/// One executed pool unit: its stage schedule and where it started on the
/// host.
struct UnitRun {
    /// The unit graph's report, on the worker's device.
    stages: StageReport,
    /// Host wall-clock at which the unit's graph started executing, in ms
    /// since the batch started.
    host_start_ms: f64,
}

/// What executing one fused unit produced.
struct FusedOutcome<K: TopKKey> {
    unit: usize,
    /// `(query index, modeled predicted recall, result)` per member.
    results: Vec<(usize, f64, DrTopKResult<K>)>,
    run: UnitRun,
    delegate_pass_run: bool,
    delegate_from_cache: bool,
}

/// What executing one row-matrix unit produced.
struct RowsOutcome<K: TopKKey> {
    unit: usize,
    /// `(row-query index, result)` per member.
    results: Vec<(usize, RowQueryResult<K>)>,
    run: UnitRun,
    /// Fused per-block delegate passes the unit ran across its members.
    delegate_passes: usize,
}

/// One pool worker's result for one unit drawn from the shared queue.
enum PoolOutcome<K: TopKKey> {
    Fused(FusedOutcome<K>),
    Rows(RowsOutcome<K>),
}

/// What every pool unit runs against: its worker's device and the
/// batch-wide state.
struct Worker<'a> {
    device: &'a Device,
    /// The worker's device slot; its compute queue hosts the unit graph.
    device_idx: usize,
    base: &'a DrTopKConfig,
    cache: &'a Mutex<PlanCache>,
    /// When the batch started executing (the trace's host time origin).
    epoch: Instant,
}

impl Worker<'_> {
    /// Execute one unit graph on this worker, noting its host start.
    fn run(&self, graph: StageGraph<'_, ()>) -> UnitRun {
        let host_start_ms = self.epoch.elapsed().as_secs_f64() * 1e3;
        UnitRun {
            stages: graph.execute(&()),
            host_start_ms,
        }
    }
}

/// Everything `run_batch` needs back from execution; cache counters are
/// snapshotted by the caller around this call.
pub(crate) struct ExecOutput<K: TopKKey> {
    pub results: Vec<QueryResult<K>>,
    /// One result per row-matrix query, in row-query order.
    pub row_results: Vec<RowQueryResult<K>>,
    pub phase_ms: PhaseBreakdown,
    pub stats: KernelStats,
    pub delegate_passes_run: usize,
    pub delegate_passes_saved: usize,
    /// This batch's delegate-cache activity, derived from the unit
    /// outcomes themselves (not from differencing the cache's cumulative
    /// counters, which concurrent batches would pollute).
    pub delegate_cache: CacheReport,
    /// Makespan of the fused worker-pool portion (slowest worker).
    pub pool_ms: f64,
    /// Modeled time of the sharded whole-cluster portion.
    pub sharded_ms: f64,
    /// Sum of the sharded runs' *serialized* stage cost — what they would
    /// have taken with no transfer/compute overlap.
    pub sharded_serial_ms: f64,
    /// Modeled busy time of each pool worker under the deterministic list
    /// schedule (index = device slot). Feeds the worker busy/occupancy
    /// metrics — the ROADMAP's "idle transfer-lane worker" blind spot.
    pub worker_loads: Vec<f64>,
    /// Fused units each pool worker executed under the list schedule.
    pub worker_units: Vec<usize>,
    /// `(kind, Σ measured host ms, Σ modeled ms)` over every stage of every
    /// unit and sharded run in the batch, one entry per kind that ran.
    pub kind_ms: Vec<(StageKind, f64, f64)>,
}

/// Adds each of `report`'s stages to its kind's measured and modeled sums.
fn add_kind_ms(kind_ms: &mut Vec<(StageKind, f64, f64)>, report: &StageReport) {
    for s in &report.stages {
        match kind_ms.iter_mut().find(|(k, _, _)| *k == s.kind) {
            Some((_, measured, modeled)) => {
                *measured += s.measured_ms();
                *modeled += s.duration_ms();
            }
            None => kind_ms.push((s.kind, s.measured_ms(), s.duration_ms())),
        }
    }
}

/// Run one fused unit's typed half as one stage graph: the shared delegate
/// pass (cache miss only) is the root stage, and every member's query
/// chain is appended after it on the worker's device. The graph is
/// single-resource, so the executor runs it inline on the calling worker
/// thread.
fn run_fused_typed<K: TopKKey>(
    worker: &Worker<'_>,
    data: &[K],
    corpus_id: Option<u64>,
    unit: &FusedUnit,
) -> (
    Vec<DrTopKResult<K>>,
    UnitRun,
    /* pass_run */ bool,
    /* from_cache */ bool,
) {
    let beta = unit.beta;
    // Resolve the delegate cache up front: a hit means the |V|-scan
    // disappears from the batch entirely (no pass stage in the graph); a
    // miss means the graph's first stage builds and caches it.
    let pass: OnceLock<Arc<DelegateVector<K>>> = OnceLock::new();
    if unit.needs_delegates {
        let hit = worker
            .cache
            .lock()
            .get_delegates(corpus_id, data.len(), unit.alpha, beta);
        if let Some(hit) = hit {
            let _ = pass.set(hit);
        }
    }
    let from_cache = pass.get().is_some();
    let needs_build = unit.needs_delegates && !from_cache;

    // A member may only read the shared pass when the pass covers its
    // plan: equal β for exact members, a budget at least the member's own
    // for approximate ones (more candidates only raise recall). The rare
    // member that fell back to an incompatible exact plan builds its own
    // pass.
    let chains: Vec<QueryChain<'_, K>> = unit
        .planned
        .iter()
        .map(|planned| {
            let covered = if planned.config.mode.strict_target().is_some() {
                beta >= planned.config.beta
            } else {
                beta == planned.config.beta
            };
            let shared =
                (unit.needs_delegates && covered).then_some(SharedDelegates::Pending(&pass));
            QueryChain::new(data, planned, shared)
        })
        .collect();

    let (device, resource) = (worker.device, Resource::Compute(worker.device_idx));
    let mut graph: StageGraph<'_, ()> = StageGraph::new();
    let mut member_deps = Vec::new();
    if needs_build {
        // The one shared pass is the unit's first stage; its kind mirrors
        // what the pass is (candidate generation for approximate groups,
        // delegate construction otherwise).
        let kind = if unit.mode.strict_target().is_some() {
            StageKind::BucketTopKPrime
        } else {
            StageKind::DelegateConstruction
        };
        let pass = &pass;
        member_deps.push(graph.add_labeled(
            kind,
            "shared delegate pass",
            resource,
            &[],
            move |_| {
                let built = Arc::new(build_delegate_vector(
                    device,
                    data,
                    unit.alpha,
                    beta,
                    worker.base.construction,
                ));
                if let Some(id) = corpus_id {
                    worker.cache.lock().put_delegates(
                        id,
                        data.len(),
                        unit.alpha,
                        beta,
                        Arc::clone(&built),
                    );
                }
                let outcome = StageOutcome {
                    stats: built.stats,
                    time_ms: built.time_ms,
                };
                let _ = pass.set(built);
                outcome
            },
        ));
    }
    for chain in &chains {
        chain.append(&mut graph, device, resource, &member_deps);
    }
    let run = worker.run(graph);
    let results = chains
        .into_iter()
        .map(|chain| chain.into_result(&run.stages))
        .collect();
    (results, run, needs_build, from_cache)
}

/// Direction dispatch around [`run_fused_typed`].
fn run_fused_unit<K: TopKKey>(
    worker: &Worker<'_>,
    data: &[K],
    corpus_id: Option<u64>,
    unit_idx: usize,
    unit: &FusedUnit,
) -> FusedOutcome<K> {
    let (results, run, pass_run, from_cache) = match unit.direction {
        Direction::Largest => run_fused_typed::<K>(worker, data, corpus_id, unit),
        Direction::Smallest => {
            let (res, run, pass_run, from_cache) =
                run_fused_typed::<Desc<K>>(worker, as_desc(data), corpus_id, unit);
            let res = res.into_iter().map(DrTopKResult::into_native).collect();
            (res, run, pass_run, from_cache)
        }
    };
    FusedOutcome {
        unit: unit_idx,
        results: unit
            .queries
            .iter()
            .zip(&unit.planned)
            .zip(results)
            .map(|((&qi, planned), r)| (qi, planned.predicted_recall, r))
            .collect(),
        run,
        delegate_pass_run: pass_run,
        delegate_from_cache: from_cache,
    }
}

/// Run one row-matrix unit's typed half as one stage graph: every member
/// reinterprets the corpus as its own `rows × cols` matrix, one block per
/// member, and all members' blocks are appended to the graph on the
/// worker's device.
fn run_rows_typed<K: TopKKey>(
    worker: &Worker<'_>,
    data: &[K],
    unit: &RowUnit,
    row_queries: &[RowQuery],
) -> (Vec<RowTopKResult<K>>, UnitRun) {
    let chains: Vec<RowChain<'_, K>> = unit
        .members
        .iter()
        .map(|&qi| {
            let q = &row_queries[qi];
            let cfg = DrTopKConfig {
                inner: q.inner,
                mode: q.mode,
                ..worker.base.clone()
            };
            RowChain::new(RowMatrix::new(data, q.rows, q.cols), &q.ks, &cfg, q.rows)
        })
        .collect();
    let placement = [(worker.device, Resource::Compute(worker.device_idx))];
    let mut graph: StageGraph<'_, ()> = StageGraph::new();
    for chain in &chains {
        chain.append(&mut graph, &placement, &[]);
    }
    let run = worker.run(graph);
    let results = chains
        .into_iter()
        .map(|chain| chain.into_result(&run.stages))
        .collect();
    (results, run)
}

/// Direction dispatch around [`run_rows_typed`] (smallest-direction units
/// run through the order-reversing [`Desc`] adapter, like vector queries).
fn run_rows_unit<K: TopKKey>(
    worker: &Worker<'_>,
    data: &[K],
    unit_idx: usize,
    unit: &RowUnit,
    row_queries: &[RowQuery],
) -> RowsOutcome<K> {
    let (results, run) = match unit.direction {
        Direction::Largest => run_rows_typed::<K>(worker, data, unit, row_queries),
        Direction::Smallest => {
            let (res, run) = run_rows_typed::<Desc<K>>(worker, as_desc(data), unit, row_queries);
            (
                res.into_iter().map(RowTopKResult::into_native).collect(),
                run,
            )
        }
    };
    let delegate_passes = results.iter().map(|r| r.delegate_passes).sum();
    let results = unit
        .members
        .iter()
        .zip(results)
        .map(|(&qi, r)| {
            let result = RowQueryResult {
                rows: r.rows,
                time_ms: r.time_ms,
                stats: r.stats,
                breakdown: r.breakdown,
                delegate_passes: r.delegate_passes,
                num_blocks: r.num_blocks,
                predicted_recall: r.predicted_recall,
                unit: unit_idx,
            };
            (qi, result)
        })
        .collect();
    RowsOutcome {
        unit: unit_idx,
        results,
        run,
        delegate_passes,
    }
}

/// Execute a plan over the cluster.
///
/// When `sink` is present, every unit's stage schedule is re-emitted as
/// trace spans on the batch timeline. Modeled intervals go where the
/// modeled schedule puts them: pool units at their deterministic
/// list-schedule offsets (re-tagged with the modeled worker's device so
/// trace tracks match the schedule the report describes), sharded runs
/// after the pool phase. Measured intervals go where the host ran them:
/// at each unit's real host start since the batch started. Tracing clones
/// the unit reports; with no sink attached nothing extra is allocated.
pub(crate) fn execute_plan<K: TopKKey>(
    cluster: &GpuCluster,
    batch: &QueryBatch<'_, K>,
    plan: &ExecutionPlan,
    base: &DrTopKConfig,
    cache: &Mutex<PlanCache>,
    sink: Option<&dyn TraceSink>,
) -> Result<ExecOutput<K>, EngineError> {
    let pool_indices: Vec<usize> = plan
        .units
        .iter()
        .enumerate()
        .filter_map(|(i, u)| matches!(u, PlanUnit::Fused(_) | PlanUnit::Rows(_)).then_some(i))
        .collect();

    // Worker pool: one worker per device, pulling fused and row-matrix
    // units from a shared queue (dynamic load balance in host wall-clock).
    // The *modeled* makespan is computed afterwards by deterministic list
    // scheduling, so reports do not vary with host-thread timing.
    let epoch = Instant::now();
    let next_unit = AtomicUsize::new(0);
    let per_device = cluster
        .try_run_on_all(|device_idx, device| {
            let worker = Worker {
                device,
                device_idx,
                base,
                cache,
                epoch,
            };
            let mut outcomes: Vec<PoolOutcome<K>> = Vec::new();
            loop {
                let slot = next_unit.fetch_add(1, Ordering::Relaxed);
                let Some(&unit_idx) = pool_indices.get(slot) else {
                    break;
                };
                // Heterogeneous clusters (or an overridden shard
                // threshold) can hand a worker a corpus its device cannot
                // hold; that is a per-device error, not a batch panic.
                // `capacity_elems` is in u32 units, the corpus in keys.
                let check_capacity = |corpus_idx: usize, len: usize| {
                    let device_keys = capacity_in_keys::<K>(device.capacity_elems());
                    if len > device_keys {
                        Err(format!(
                            "corpus {corpus_idx} ({len} keys) exceeds this device's capacity of {device_keys} keys"
                        ))
                    } else {
                        Ok(())
                    }
                };
                match &plan.units[unit_idx] {
                    PlanUnit::Fused(unit) => {
                        let corpus = &batch.corpora()[unit.corpus];
                        check_capacity(unit.corpus, corpus.data.len())?;
                        outcomes.push(PoolOutcome::Fused(run_fused_unit(
                            &worker,
                            corpus.data,
                            corpus.id,
                            unit_idx,
                            unit,
                        )));
                    }
                    PlanUnit::Rows(unit) => {
                        let corpus = &batch.corpora()[unit.corpus];
                        check_capacity(unit.corpus, corpus.data.len())?;
                        outcomes.push(PoolOutcome::Rows(run_rows_unit(
                            &worker,
                            corpus.data,
                            unit_idx,
                            unit,
                            batch.row_queries(),
                        )));
                    }
                    PlanUnit::Sharded(_) => {
                        unreachable!("pool_indices only holds pool units")
                    }
                }
            }
            Ok(outcomes)
        })
        .map_err(|e| EngineError::Device {
            device: e.device,
            message: e.error,
        })?;

    let num_queries = batch.len();
    let mut results: Vec<Option<QueryResult<K>>> = (0..num_queries).map(|_| None).collect();
    let mut row_results: Vec<Option<RowQueryResult<K>>> =
        (0..batch.row_queries().len()).map(|_| None).collect();
    let mut phase_ms = PhaseBreakdown::default();
    let mut stats = KernelStats::default();
    let mut delegate_passes_run = 0usize;
    let mut delegate_passes_saved = 0usize;
    let mut delegate_cache = CacheReport::default();
    let mut kind_ms = Vec::new();
    // Modeled cost and phases of each pool unit, put in unit order below for
    // the deterministic makespan and phase sums; the executed unit rides
    // along only when a trace sink wants spans.
    let mut unit_costs: Vec<(usize, f64, PhaseBreakdown, Option<UnitRun>)> = Vec::new();

    for pool_outcome in per_device.into_iter().flatten() {
        let (unit_idx, run) = match pool_outcome {
            PoolOutcome::Fused(outcome) => {
                let PlanUnit::Fused(unit) = &plan.units[outcome.unit] else {
                    unreachable!()
                };
                let delegate_users = unit.planned.iter().filter(|p| p.use_delegates).count();
                let cacheable = batch.corpora()[unit.corpus].id.is_some();
                if outcome.delegate_pass_run {
                    delegate_passes_run += 1;
                    delegate_passes_saved += delegate_users.saturating_sub(1);
                    if cacheable {
                        delegate_cache.misses += 1;
                    }
                } else if outcome.delegate_from_cache {
                    delegate_passes_saved += delegate_users;
                    delegate_cache.hits += 1;
                }
                for (query_idx, predicted_recall, r) in outcome.results {
                    results[query_idx] = Some(QueryResult {
                        values: r.values,
                        kth_value: r.kth_value,
                        time_ms: r.time_ms,
                        stats: r.stats,
                        breakdown: r.breakdown,
                        predicted_recall,
                        path: ExecPath::Fused { unit: outcome.unit },
                    });
                }
                (outcome.unit, outcome.run)
            }
            PoolOutcome::Rows(outcome) => {
                delegate_passes_run += outcome.delegate_passes;
                for (query_idx, result) in outcome.results {
                    row_results[query_idx] = Some(result);
                }
                (outcome.unit, outcome.run)
            }
        };
        // One instrumentation point: the unit graph's schedule carries the
        // shared pass and every member's stages (and any member-level pass
        // rebuild), so phases, counters and the unit's modeled cost are all
        // read off it.
        stats += run.stages.stats();
        add_kind_ms(&mut kind_ms, &run.stages);
        unit_costs.push((
            unit_idx,
            run.stages.makespan_ms,
            run.stages.phase_breakdown(),
            sink.map(|_| run),
        ));
    }

    // Deterministic modeled makespan of the pool phase: list-schedule the
    // fused units in plan order onto the workers, each unit going to the
    // earliest-available (least-loaded) worker — exactly what the shared
    // queue does in modeled time, but independent of host-thread timing.
    // Phases are summed in the same unit order, so their rounding does not
    // depend on which worker finished first.
    unit_costs.sort_unstable_by_key(|&(unit, ..)| unit);
    let mut worker_loads = vec![0.0f64; cluster.num_devices()];
    let mut worker_units = vec![0usize; cluster.num_devices()];
    for (_, cost, unit_phases, traced) in &unit_costs {
        phase_ms.delegate_ms += unit_phases.delegate_ms;
        phase_ms.first_topk_ms += unit_phases.first_topk_ms;
        phase_ms.concat_ms += unit_phases.concat_ms;
        phase_ms.second_topk_ms += unit_phases.second_topk_ms;
        phase_ms.transfer_ms += unit_phases.transfer_ms;
        let earliest = worker_loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
            .map(|(i, _)| i)
            .expect("cluster has devices");
        if let (Some(sink), Some(run)) = (sink, traced) {
            // Replay the unit's stages on the batch timeline: modeled at
            // this worker's start offset and re-tagged with the *modeled*
            // worker (the wall-clock queue may have used a different one),
            // measured at the unit's real host start.
            let mut replay = run.stages.clone();
            for s in &mut replay.stages {
                s.resource = Resource::Compute(earliest);
            }
            replay.record_shifted(sink, worker_loads[earliest], run.host_start_ms);
        }
        worker_loads[earliest] += cost;
        worker_units[earliest] += 1;
    }
    let pool_ms = worker_loads.iter().fold(0.0f64, |a, &b| a.max(b));

    // Sharded queries: each takes the whole cluster, so they run after the
    // pool phase, serially, through the distributed stage graph
    // (double-buffered chunked ingestion). Sharded execution cannot yet
    // share a delegate pass between *different* queries (the distributed
    // pipeline has no planned-query seam — see the crate docs), but
    // *identical* queries are answered once and the result is reused;
    // engine-level time and counters charge each distinct selection exactly
    // once. Approximate sharded queries run the approximate pipeline on
    // every sub-vector, so the recall target is met per shard (and
    // therefore overall).
    type ShardKey = (
        usize,
        Direction,
        usize,
        drtopk_core::InnerAlgorithm,
        drtopk_core::Mode,
        drtopk_core::PathHint,
    );
    struct ShardAnswer<K: TopKKey> {
        values: Vec<K>,
        kth_value: K,
        total_ms: f64,
        stats: KernelStats,
        predicted_recall: f64,
        breakdown: PhaseBreakdown,
    }
    let mut answered: std::collections::HashMap<ShardKey, ShardAnswer<K>> =
        std::collections::HashMap::new();
    let mut sharded_ms = 0.0f64;
    let mut sharded_serial_ms = 0.0f64;
    for unit in &plan.units {
        let PlanUnit::Sharded(sharded) = unit else {
            continue;
        };
        let q = batch.queries()[sharded.query];
        let key: ShardKey = (q.corpus, q.direction, q.k, q.inner, q.mode, q.path);
        if let std::collections::hash_map::Entry::Vacant(slot) = answered.entry(key) {
            let corpus = &batch.corpora()[q.corpus];
            // The path hint rides into the distributed run: each device's
            // local pipeline resolves `Auto` against its own profile and
            // shard size, so a heterogeneous cluster may mix paths.
            let cfg = DrTopKConfig {
                inner: q.inner,
                mode: q.mode,
                path: q.path,
                ..base.clone()
            };
            let host_start_ms = epoch.elapsed().as_secs_f64() * 1e3;
            let d = match q.direction {
                Direction::Largest => distributed_dr_topk(cluster, corpus.data, q.k, &cfg),
                Direction::Smallest => {
                    distributed_dr_topk(cluster, as_desc(corpus.data), q.k, &cfg).into_native()
                }
            };
            if let Some(sink) = sink {
                // Sharded runs own the whole cluster after the pool phase;
                // their spans keep the distributed resource tracks
                // (compute / copy lanes / interconnect per device).
                d.stages
                    .record_shifted(sink, pool_ms + sharded_ms, host_start_ms);
            }
            add_kind_ms(&mut kind_ms, &d.stages);
            sharded_ms += d.total_ms;
            sharded_serial_ms += d.stages.serial_ms();
            stats += d.stats;
            // Sharded phases report compute and data movement separately
            // (the distributed breakdown keeps reload/gather time under
            // `transfer_ms` instead of folding it into compute).
            phase_ms.delegate_ms += d.breakdown.delegate_ms;
            phase_ms.first_topk_ms += d.breakdown.first_topk_ms;
            phase_ms.concat_ms += d.breakdown.concat_ms;
            phase_ms.second_topk_ms += d.breakdown.second_topk_ms;
            phase_ms.transfer_ms += d.breakdown.transfer_ms;
            slot.insert(ShardAnswer {
                values: d.values,
                kth_value: d.kth_value,
                total_ms: d.total_ms,
                stats: d.stats,
                predicted_recall: d.predicted_recall,
                breakdown: d.breakdown,
            });
        }
        let answer = answered.get(&key).expect("answered above");
        results[sharded.query] = Some(QueryResult {
            values: answer.values.clone(),
            kth_value: answer.kth_value,
            time_ms: answer.total_ms,
            stats: answer.stats,
            breakdown: answer.breakdown,
            predicted_recall: answer.predicted_recall,
            path: ExecPath::Sharded {
                devices: cluster.num_devices(),
            },
        });
    }

    Ok(ExecOutput {
        results: results
            .into_iter()
            .map(|r| r.expect("every query is covered by exactly one plan unit"))
            .collect(),
        row_results: row_results
            .into_iter()
            .map(|r| r.expect("every row query is covered by exactly one row unit"))
            .collect(),
        phase_ms,
        stats,
        delegate_passes_run,
        delegate_passes_saved,
        delegate_cache,
        pool_ms,
        sharded_ms,
        sharded_serial_ms,
        worker_loads,
        worker_units,
        kind_ms,
    })
}
