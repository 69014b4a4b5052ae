//! Acceptance tests for the threaded stage-graph executor:
//!
//! * on an out-of-core sharded run at ≥ 4× aggregate capacity, the
//!   threaded executor's **measured** wall-clock makespan must land at
//!   least 20% below the serial executor's measured wall-clock — real time
//!   has to realize the modeled overlap, not just the model;
//! * results and modeled reports stay bit-identical across executors and
//!   across repeated runs (the determinism stress test), regardless of the
//!   host thread interleaving.

use drtopk::core::{
    distributed_dr_topk_executor, dr_topk, dr_topk_approx, DrTopKConfig, Executor, ReloadSchedule,
};
use drtopk::prelude::*;
use drtopk::sim::{GpuCluster, InterconnectSpec};
use topk_baselines::reference_topk;

/// A cluster whose devices do all simulated kernel work on the calling
/// host thread (`host_threads = 1`), so the only host parallelism in play
/// is the threaded stage-graph executor's — the quantity under test.
fn single_threaded_cluster(devices: usize, capacity: usize) -> GpuCluster {
    let devices = (0..devices)
        .map(|_| Device::with_host_threads(DeviceSpec::v100s(), 1))
        .collect();
    let c = GpuCluster::new(devices, InterconnectSpec::default());
    for d in c.devices() {
        d.set_capacity_elems(capacity);
    }
    c
}

/// The headline acceptance criterion. Wall-clock assertions retry a few
/// times (the host scheduler is allowed an off day) but the bit-identity
/// assertions must hold on **every** attempt.
///
/// On hosts without enough cores to actually run the per-device worker
/// threads concurrently (CI containers are routinely pinned to one CPU),
/// the wall-clock band is physically unreachable — time-slicing one core
/// cannot beat running on it serially — so the timing assertions are
/// skipped there and only the executor-independence bit-identity half
/// runs. The modeled 20%-overlap pin stays enforced unconditionally in
/// `tests/stages.rs`.
#[test]
fn threaded_executor_beats_serial_on_out_of_core_run() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let check_wall_clock = cores >= 4;
    let capacity = 1 << 16;
    let devices = 4;
    let n = capacity * 4 * devices; // 4× the aggregate capacity: 16 chunks
    let k = 128;
    let data = topk_datagen::uniform(n, 0xCA11B);
    let cfg = DrTopKConfig::default();
    let expected = reference_topk(&data, k);

    let mut attempts = Vec::new();
    for _ in 0..3 {
        let c = single_threaded_cluster(devices, capacity);
        let serial = distributed_dr_topk_executor(
            &c,
            &data,
            k,
            &cfg,
            ReloadSchedule::DoubleBuffered,
            Executor::Serial,
        );
        let c = single_threaded_cluster(devices, capacity);
        let threaded = distributed_dr_topk_executor(
            &c,
            &data,
            k,
            &cfg,
            ReloadSchedule::DoubleBuffered,
            Executor::Threaded,
        );

        // Bit-identity holds unconditionally, every attempt.
        assert_eq!(threaded.values, expected);
        assert_eq!(serial.values, expected);
        assert_eq!(threaded.values, serial.values);
        assert_eq!(threaded.stats, serial.stats);
        assert_eq!(threaded.total_ms.to_bits(), serial.total_ms.to_bits());
        assert_eq!(
            threaded.stages.deterministic_summary(),
            serial.stages.deterministic_summary(),
            "modeled report must not depend on the executor"
        );

        // Wall-clock: threaded must beat serial by ≥ 20%.
        if !check_wall_clock {
            eprintln!(
                "note: only {cores} core(s) available — skipping the \
                 wall-clock acceptance band, keeping bit-identity checks"
            );
            return;
        }
        let t = threaded.stages.measured_makespan_ms;
        let s = serial.stages.measured_makespan_ms;
        attempts.push((t, s));
        if t <= 0.80 * s {
            return;
        }
    }
    panic!(
        "threaded executor never hit the wall-clock acceptance band in \
         {} attempts (threaded_ms, serial_ms): {attempts:?}",
        attempts.len()
    );
}

/// Determinism stress test: the same exact, approximate and distributed
/// graphs run repeatedly under the threaded executor must return
/// bit-identical values and byte-identical **modeled** stage reports on
/// every run — thread interleaving may only move the measured fields.
#[test]
fn repeated_threaded_runs_are_bit_identical() {
    let dev = Device::with_host_threads(DeviceSpec::v100s(), 2);
    let cfg = DrTopKConfig::default();
    let data = topk_datagen::customized(1 << 15, 77);
    let k = 96;

    let exact0 = dr_topk(&dev, &data, k, &cfg);
    let approx0 = dr_topk_approx(&dev, &data, k, 0.9, &cfg);
    let dist0 = {
        let c = single_threaded_cluster(4, 1 << 13);
        distributed_dr_topk_executor(
            &c,
            &data,
            k,
            &cfg,
            ReloadSchedule::DoubleBuffered,
            Executor::Threaded,
        )
    };
    for run in 1..4 {
        let exact = dr_topk(&dev, &data, k, &cfg);
        assert_eq!(exact.values, exact0.values, "exact values, run {run}");
        assert_eq!(
            exact.stages.deterministic_summary(),
            exact0.stages.deterministic_summary(),
            "exact report, run {run}"
        );

        let approx = dr_topk_approx(&dev, &data, k, 0.9, &cfg);
        assert_eq!(approx.values, approx0.values, "approx values, run {run}");
        assert_eq!(
            approx.stages.deterministic_summary(),
            approx0.stages.deterministic_summary(),
            "approx report, run {run}"
        );

        let c = single_threaded_cluster(4, 1 << 13);
        let dist = distributed_dr_topk_executor(
            &c,
            &data,
            k,
            &cfg,
            ReloadSchedule::DoubleBuffered,
            Executor::Threaded,
        );
        assert_eq!(dist.values, dist0.values, "distributed values, run {run}");
        assert_eq!(dist.total_ms.to_bits(), dist0.total_ms.to_bits());
        assert_eq!(
            dist.stages.deterministic_summary(),
            dist0.stages.deterministic_summary(),
            "distributed report, run {run}"
        );
    }
}
