//! The simulated device and its kernel launcher.
//!
//! A [`Device`] owns a [`DeviceSpec`], a log of every kernel launched on it
//! ([`DeviceStats`]), and a host-side thread pool size. Kernels are
//! warp-centric closures executed once per warp; warps are distributed over
//! host threads with `std::thread::scope`, each thread accumulating
//! instrumentation counters locally which the launcher merges at the end.
//! A kernel either returns one value per warp ([`Device::launch`]) or writes
//! into its warp's slab of a caller-owned output ([`Device::launch_into`]),
//! so a kernel whose output has a known layout needs no per-warp buffers.

use std::ops::Range;
use std::time::Instant;

use parking_lot::Mutex;

use crate::spec::DeviceSpec;
use crate::stats::{DeviceStats, KernelRecord, KernelStats};
use crate::timing::estimate_time_ms;
use crate::warp::{chunk_range, WarpCtx};

/// Result of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult<R> {
    /// Per-warp outputs, in warp-id order.
    pub output: Vec<R>,
    /// Counters accumulated across all warps of the launch.
    pub stats: KernelStats,
    /// Modeled execution time of the kernel in milliseconds.
    pub time_ms: f64,
    /// Host wall-clock time spent simulating the kernel, in milliseconds.
    pub wall_ms: f64,
}

/// A simulated GPU.
pub struct Device {
    spec: DeviceSpec,
    stats: Mutex<DeviceStats>,
    host_threads: usize,
    /// Maximum number of `u32` elements this device is allowed to hold at
    /// once. Defaults to the spec's capacity; experiments (Table 2) shrink it
    /// to reproduce the out-of-memory / reload regime at reduced scale.
    capacity_elems: Mutex<usize>,
}

impl Device {
    /// Create a device with the given hardware spec, using all available
    /// host CPUs to simulate it.
    pub fn new(spec: DeviceSpec) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Device::with_host_threads(spec, host_threads)
    }

    /// Create a device simulated with an explicit number of host threads
    /// (useful for deterministic single-threaded debugging).
    pub fn with_host_threads(spec: DeviceSpec, host_threads: usize) -> Self {
        let capacity = spec.capacity_u32_elems(0.25);
        Device {
            spec,
            stats: Mutex::new(DeviceStats::default()),
            host_threads: host_threads.max(1),
            capacity_elems: Mutex::new(capacity),
        }
    }

    /// Hardware description of the device.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Number of host threads used to simulate kernels.
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Current device memory capacity expressed in `u32` elements.
    pub fn capacity_elems(&self) -> usize {
        *self.capacity_elems.lock()
    }

    /// Override the device memory capacity (in `u32` elements). Used by the
    /// multi-GPU scalability experiment to reproduce the reload-overhead
    /// regime with scaled-down inputs.
    pub fn set_capacity_elems(&self, elems: usize) {
        *self.capacity_elems.lock() = elems;
    }

    /// Snapshot of the accumulated per-kernel log.
    pub fn stats(&self) -> DeviceStats {
        self.stats.lock().clone()
    }

    /// Clear the per-kernel log and counters.
    pub fn reset_stats(&self) {
        self.stats.lock().reset();
    }

    /// Sum of the modeled time of all kernels launched since the last reset.
    pub fn total_time_ms(&self) -> f64 {
        self.stats.lock().total_time_ms
    }

    /// Record a non-kernel cost (e.g. a host↔device transfer) in the device
    /// log so it shows up in breakdowns and total time.
    pub fn record_external(&self, name: &str, stats: KernelStats, time_ms: f64) {
        self.stats.lock().record(KernelRecord {
            name: name.to_string(),
            stats,
            time_ms,
            wall_ms: 0.0,
        });
    }

    /// Launch a warp-centric kernel: `kernel` is called once per warp with a
    /// [`WarpCtx`], warps being distributed over the host thread pool.
    /// Returns the per-warp outputs in warp order plus the merged counters
    /// and the modeled time.
    pub fn launch<R, F>(&self, name: &str, num_warps: usize, kernel: F) -> LaunchResult<R>
    where
        R: Send,
        F: Fn(&mut WarpCtx<'_>) -> R + Sync,
    {
        self.dispatch::<(), R, _, _>(name, num_warps, &mut [], |_| 0..0, |ctx, _| kernel(ctx))
    }

    /// Launch a warp-centric kernel that writes its output in place: warp
    /// `w` is called with `&mut out[bounds(w)]`, its *slab*. The bounds must
    /// tile `out` in warp order (warp 0's slab starts at 0, each later slab
    /// starts where the previous one ended, the last one ends at
    /// `out.len()`; empty slabs are fine), otherwise the launch panics
    /// before any warp runs. Counters, the modeled time and the device log
    /// entry are exactly those of [`Device::launch`] running the same kernel
    /// body; `output` holds one `()` per warp.
    pub fn launch_into<T, B, F>(
        &self,
        name: &str,
        num_warps: usize,
        out: &mut [T],
        bounds: B,
        kernel: F,
    ) -> LaunchResult<()>
    where
        T: Send,
        B: Fn(usize) -> Range<usize> + Sync,
        F: Fn(&mut WarpCtx<'_>, &mut [T]) + Sync,
    {
        self.dispatch(name, num_warps, out, bounds, kernel)
    }

    /// The one warp-to-host-thread dispatcher behind [`Device::launch`] and
    /// [`Device::launch_into`]: each host thread takes a contiguous run of
    /// warps (and the contiguous part of `out` their slabs tile), runs them
    /// in warp order and merges their counters locally; the launcher then
    /// concatenates outputs and merges counters in thread order, so results
    /// are independent of the host thread count.
    fn dispatch<T, R, B, F>(
        &self,
        name: &str,
        num_warps: usize,
        out: &mut [T],
        bounds: B,
        kernel: F,
    ) -> LaunchResult<R>
    where
        T: Send,
        R: Send,
        B: Fn(usize) -> Range<usize> + Sync,
        F: Fn(&mut WarpCtx<'_>, &mut [T]) -> R + Sync,
    {
        let mut end = 0;
        for warp_id in 0..num_warps {
            let slab = bounds(warp_id);
            assert!(
                slab.start == end && slab.start <= slab.end,
                "kernel `{name}`: warp {warp_id} has output bounds {slab:?}, \
                 but slabs must tile the output in warp order (expected a range starting at {end})"
            );
            end = slab.end;
        }
        assert!(
            end == out.len(),
            "kernel `{name}`: warp output bounds cover 0..{end}, not the whole output 0..{}",
            out.len()
        );

        let started = Instant::now();
        let mut stats = KernelStats::default();
        let mut output: Vec<R> = Vec::with_capacity(num_warps);

        if num_warps == 0 {
            let time_ms = estimate_time_ms(&stats, &self.spec);
            self.stats.lock().record(KernelRecord {
                name: name.to_string(),
                stats,
                time_ms,
                wall_ms: 0.0,
            });
            return LaunchResult {
                output,
                stats,
                time_ms,
                wall_ms: 0.0,
            };
        }

        // Run `warps` in order over `slab`, the part of `out` their bounds
        // tile, appending outputs and merging counters.
        let run = |warps: Range<usize>,
                   mut slab: &mut [T],
                   output: &mut Vec<R>,
                   stats: &mut KernelStats| {
            for warp_id in warps {
                let (mine, rest) = std::mem::take(&mut slab).split_at_mut(bounds(warp_id).len());
                slab = rest;
                let mut ctx = WarpCtx::new(warp_id, num_warps, &self.spec);
                output.push(kernel(&mut ctx, mine));
                stats.merge(&ctx.into_stats());
            }
        };

        let workers = self.host_threads.min(num_warps);
        if workers <= 1 {
            run(0..num_warps, out, &mut output, &mut stats);
        } else {
            let run = &run;
            let mut partials: Vec<(Vec<R>, KernelStats)> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let mut rest = out;
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let warps = chunk_range(num_warps, workers, w);
                    let len = bounds(warps.end - 1).end - bounds(warps.start).start;
                    let (slab, tail) = std::mem::take(&mut rest).split_at_mut(len);
                    rest = tail;
                    handles.push(scope.spawn(move || {
                        let mut local_out = Vec::with_capacity(warps.len());
                        let mut local_stats = KernelStats::default();
                        run(warps, slab, &mut local_out, &mut local_stats);
                        (local_out, local_stats)
                    }));
                }
                for h in handles {
                    partials.push(h.join().expect("simulated warp panicked"));
                }
            });
            for (mut out, s) in partials {
                output.append(&mut out);
                stats.merge(&s);
            }
        }

        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let time_ms = estimate_time_ms(&stats, &self.spec);
        self.stats.lock().record(KernelRecord {
            name: name.to_string(),
            stats,
            time_ms,
            wall_ms,
        });
        LaunchResult {
            output,
            stats,
            time_ms,
            wall_ms,
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("spec", &self.spec.name)
            .field("host_threads", &self.host_threads)
            .field("capacity_elems", &self.capacity_elems())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AtomicBuffer, AtomicCounter};

    #[test]
    fn launch_collects_outputs_in_warp_order() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 4);
        let result = device.launch("identity", 100, |ctx| ctx.warp_id);
        assert_eq!(result.output, (0..100).collect::<Vec<_>>());
        assert_eq!(result.stats.warps_launched, 100);
    }

    #[test]
    fn launch_zero_warps_is_ok() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 4);
        let result: LaunchResult<()> = device.launch("empty", 0, |_| ());
        assert!(result.output.is_empty());
        assert!(result.stats.is_empty() || result.stats.warps_launched == 0);
    }

    #[test]
    fn single_threaded_and_parallel_agree_on_stats() {
        let data: Vec<u32> = (0..32 * 64u32).collect();
        let run = |threads: usize| {
            let device = Device::with_host_threads(DeviceSpec::v100s(), threads);
            let result = device.launch("scan", 64, |ctx| {
                let chunk = ctx.chunk_of(data.len());
                let slice = ctx.read_coalesced(&data[chunk]);
                let lane_max = slice.iter().copied().max().unwrap_or(0);
                ctx.warp_reduce_max(lane_max)
            });
            (result.output.clone(), result.stats)
        };
        let (out1, stats1) = run(1);
        let (out8, stats8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(stats1, stats8);
    }

    /// Warp `w` owns `w % 3` output slots (some warps own none).
    fn slab_bounds(w: usize) -> Range<usize> {
        let start = (0..w).map(|v| v % 3).sum::<usize>();
        start..start + w % 3
    }

    #[test]
    fn launch_into_gives_each_warp_its_slab_in_warp_order() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 4);
        let warps = 50;
        let mut out = vec![(usize::MAX, usize::MAX); slab_bounds(warps).start];
        let result = device.launch_into("slabs", warps, &mut out, slab_bounds, |ctx, slab| {
            assert_eq!(slab.len(), ctx.warp_id % 3);
            for (i, slot) in slab.iter_mut().enumerate() {
                *slot = (ctx.warp_id, i);
            }
        });
        let want: Vec<(usize, usize)> = (0..warps)
            .flat_map(|w| (0..w % 3).map(move |i| (w, i)))
            .collect();
        assert_eq!(out, want);
        assert_eq!(result.output.len(), warps);
        assert_eq!(result.stats.warps_launched, warps as u64);
    }

    /// A kernel body that reads a chunk, shuffles and stores, written once
    /// for `launch` and once for `launch_into`.
    fn scan_body(data: &[u32], ctx: &mut WarpCtx<'_>) -> u32 {
        let slice = ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
        let max = slice.iter().copied().max().unwrap_or(0);
        ctx.record_store_coalesced::<u32>(1);
        ctx.warp_reduce_max(max)
    }

    #[test]
    fn launch_into_matches_launch_and_is_thread_count_independent() {
        let data: Vec<u32> = (0..32 * 97u32)
            .map(|x| x.wrapping_mul(2654435761))
            .collect();
        let warps = 97;
        let run = |threads: usize| {
            let device = Device::with_host_threads(DeviceSpec::v100s(), threads);
            let launched = device.launch("scan", warps, |ctx| scan_body(&data, ctx));
            let mut out = vec![0u32; warps];
            let into = device.launch_into(
                "scan",
                warps,
                &mut out,
                |w| w..w + 1,
                |ctx, slab| {
                    slab[0] = scan_body(&data, ctx);
                },
            );
            assert_eq!(out, launched.output);
            assert_eq!(into.stats, launched.stats);
            assert_eq!(into.time_ms.to_bits(), launched.time_ms.to_bits());
            let log = device.stats();
            assert_eq!(log.kernels[0].stats, log.kernels[1].stats);
            (out, into.stats)
        };
        let (out1, stats1) = run(1);
        let (out8, stats8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(stats1, stats8);
    }

    #[test]
    fn launch_into_zero_warps_records_the_launch() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 4);
        let mut out: Vec<u32> = Vec::new();
        let result = device.launch_into(
            "empty",
            0,
            &mut out,
            |_| 0..0,
            |_, _| unreachable!("no warp runs"),
        );
        assert!(result.output.is_empty());
        assert_eq!(result.stats, KernelStats::default());
        let log = device.stats();
        assert_eq!(log.kernels.len(), 1);
        assert_eq!(log.kernels[0].name, "empty");
    }

    #[test]
    #[should_panic(expected = "slabs must tile the output in warp order")]
    fn launch_into_rejects_bounds_that_skip_slots() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 2);
        let mut out = vec![0u32; 8];
        // warp 1 starts at 3, not where warp 0 ended (2)
        device.launch_into("gap", 2, &mut out, |w| w * 3..w * 3 + 2, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "not the whole output")]
    fn launch_into_rejects_bounds_that_leave_slots_uncovered() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 2);
        let mut out = vec![0u32; 8];
        device.launch_into("short", 2, &mut out, |w| w * 2..w * 2 + 2, |_, _| ());
    }

    #[test]
    fn device_log_accumulates_and_resets() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 2);
        let data = vec![1u32; 1024];
        device.launch("a", 4, |ctx| {
            ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
        });
        device.launch("b", 4, |ctx| {
            ctx.read_coalesced(&data[ctx.chunk_of(data.len())]);
        });
        let log = device.stats();
        assert_eq!(log.kernels.len(), 2);
        assert!(log.total_time_ms > 0.0);
        assert_eq!(log.total.global_loaded_bytes, 2 * 4096);
        device.reset_stats();
        assert!(device.stats().kernels.is_empty());
    }

    #[test]
    fn atomic_counter_yields_disjoint_slots_across_parallel_warps() {
        let device = Device::with_host_threads(DeviceSpec::v100s(), 8);
        let counter = AtomicCounter::new(0);
        let out = AtomicBuffer::zeroed(256);
        device.launch("concat", 64, |ctx| {
            // each warp writes 4 entries at atomically allocated positions
            for i in 0..4u32 {
                let pos = counter.fetch_add(ctx, 1) as usize;
                out.store(ctx, pos, ctx.warp_id as u32 * 10 + i);
            }
        });
        assert_eq!(counter.load(), 256);
        let mut values = out.to_vec();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 256, "every slot written exactly once");
    }

    #[test]
    fn record_external_shows_in_log() {
        let device = Device::new(DeviceSpec::v100s());
        device.record_external("host_to_device", KernelStats::default(), 12.5);
        let log = device.stats();
        assert_eq!(log.kernels.len(), 1);
        assert!((log.total_time_ms - 12.5).abs() < 1e-12);
        assert!((log.time_ms_for("host_to_device") - 12.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_override() {
        let device = Device::new(DeviceSpec::v100s());
        let default_cap = device.capacity_elems();
        assert!(default_cap > 1 << 30);
        device.set_capacity_elems(1 << 20);
        assert_eq!(device.capacity_elems(), 1 << 20);
    }
}
