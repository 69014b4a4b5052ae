//! Delegate vector construction (Sections 4.1, 4.3 and 5.3 of the paper).
//!
//! The input vector is partitioned into subranges of `2^α` elements. From
//! each subrange the construction extracts its top `β` elements — the
//! *delegates* — together with the subrange id, producing the delegate
//! vector the first top-k runs on.
//!
//! Two construction kernels are implemented:
//!
//! * **warp-centric** ([`ConstructionMethod::WarpShuffle`]) — one warp scans
//!   one subrange; each lane keeps a running maximum and the warp combines
//!   lanes with `__shfl_sync` butterfly reductions (31 shuffles per reduction,
//!   β reductions per subrange). This is the paper's baseline construction
//!   and achieves near-peak bandwidth for large subranges.
//! * **coalesced-load-to-shared + strided-compute**
//!   ([`ConstructionMethod::CoalescedShared`]) — for small subranges
//!   (α ≤ 5, which Rule 4 produces when k is large) a warp first stages 32
//!   subranges in shared memory with fully coalesced loads (padded to avoid
//!   bank conflicts) and then each *thread* extracts the delegates of one
//!   subrange privately, eliminating the shuffle traffic entirely
//!   (Section 5.3, Figure 15).
//!
//! The host simulation mirrors the warp's lane structure: element `i` of a
//! subrange goes to lane `i mod 32`, every lane keeps a sorted running
//! top-β through a branch-free compare-exchange chain (so the 32 lanes
//! vectorise), and the lane candidates are then combined as the shuffles
//! would. Each simulated warp writes its entries straight into its slab of
//! the one delegate vector ([`Device::launch_into`]). Counters and modeled
//! time come from the per-subrange accounting alone, so they do not depend
//! on how the host computes the delegates.

use gpu_sim::{chunk_range, Device, KernelStats, WARP_SIZE};
use topk_baselines::{KeyBits, TopKKey};

/// How the delegate vector is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructionMethod {
    /// One warp per subrange, shuffle-based reduction (baseline).
    WarpShuffle,
    /// Coalesced staging of 32 subranges into shared memory, one thread per
    /// subrange (the Section 5.3 optimization).
    CoalescedShared,
    /// Pick automatically: [`CoalescedShared`](ConstructionMethod::CoalescedShared)
    /// when the subrange is too small to keep a warp busy (α ≤ 5), otherwise
    /// [`WarpShuffle`](ConstructionMethod::WarpShuffle).
    Auto,
}

impl ConstructionMethod {
    /// Resolve [`ConstructionMethod::Auto`] for a given subrange exponent.
    pub fn resolve(self, alpha: u32) -> ConstructionMethod {
        match self {
            ConstructionMethod::Auto => {
                if alpha <= 5 {
                    ConstructionMethod::CoalescedShared
                } else {
                    ConstructionMethod::WarpShuffle
                }
            }
            other => other,
        }
    }
}

/// The delegate vector: `β` (value, subrange id) entries per subrange,
/// stored as two parallel columns (structure of arrays).
#[derive(Debug, Clone)]
pub struct DelegateVector<K: TopKKey = u32> {
    /// Delegate values, `β` consecutive entries per subrange, each subrange's
    /// entries in descending order.
    pub values: Vec<K>,
    /// Subrange id of each delegate entry (parallel to `values`).
    pub subrange_ids: Vec<u32>,
    /// Number of delegates extracted per subrange.
    pub beta: usize,
    /// Subrange size `2^α`.
    pub subrange_size: usize,
    /// Number of subranges (`⌈|V| / 2^α⌉`).
    pub num_subranges: usize,
    /// Which construction kernel actually ran.
    pub method: ConstructionMethod,
    /// Counters accumulated by the construction kernel.
    pub stats: KernelStats,
    /// Modeled construction time in milliseconds.
    pub time_ms: f64,
}

impl<K: TopKKey> DelegateVector<K> {
    /// Total number of delegate entries (`num_subranges × β`, minus the
    /// entries that short final subranges could not fill).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the delegate vector is empty (empty input).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Lanes of the simulated warp in the lane-parallel scan of [`top_beta_of`].
const LANES: usize = WARP_SIZE;

/// Write the `out.len()` largest keys of `slice` into `out`, in descending
/// key order (`out.len() ≤ slice.len()`). Comparisons run in the key's
/// order-preserving radix space, so the result is the unique descending
/// top-β sequence, bit for bit. Shared with the row-block fused pass
/// ([`crate::rows`]), which extracts per-row delegates inside a single
/// kernel launch.
///
/// Slices of at least two warp rows with β ≤ 4 — the default β = 2, the
/// max-delegate β = 1 and the approximate candidate budgets — take the
/// lane-parallel scan the construction kernel runs on the device; every
/// other shape takes a scalar insertion pass.
#[inline]
pub(crate) fn top_beta_of<K: TopKKey>(slice: &[K], out: &mut [K]) {
    debug_assert!(out.len() <= slice.len(), "more delegates than keys");
    if slice.len() >= 2 * LANES {
        match out.len() {
            1 => return lane_top_beta::<K, 1>(slice, out),
            2 => return lane_top_beta::<K, 2>(slice, out),
            3 => return lane_top_beta::<K, 3>(slice, out),
            4 => return lane_top_beta::<K, 4>(slice, out),
            _ => {}
        }
    }
    insertion_top_beta(slice, out);
}

/// The warp's scan: element `i` of `slice` goes to lane `i mod 32`, which
/// keeps its own descending top-`B` in `regs[0..B][lane]` through a
/// branch-free compare-exchange chain (vectorised across the lanes). The
/// `32·B` lane candidates plus the tail that does not fill a row of 32 are
/// then combined into the subrange's top-`B`. Lanes that saw fewer than `B`
/// keys hold the radix minimum as padding; since `slice` has at least `B`
/// real keys, a pad survives only where it ties a real key bit for bit.
fn lane_top_beta<K: TopKKey, const B: usize>(slice: &[K], out: &mut [K]) {
    let zero = <K::Bits as KeyBits>::ZERO;
    let mut regs = [[zero; LANES]; B];
    let rows = slice.chunks_exact(LANES);
    let tail = rows.remainder();
    for row in rows {
        let mut v = [zero; LANES];
        for (v, &x) in v.iter_mut().zip(row) {
            *v = x.to_bits();
        }
        for reg in &mut regs {
            for (r, v) in reg.iter_mut().zip(&mut v) {
                let hi = (*r).max(*v);
                *v = (*r).min(*v);
                *r = hi;
            }
        }
    }
    let mut best = [zero; B];
    let mut insert = |mut v: K::Bits| {
        for b in &mut best {
            let hi = (*b).max(v);
            v = (*b).min(v);
            *b = hi;
        }
    };
    for lane in 0..LANES {
        for reg in &regs {
            insert(reg[lane]);
        }
    }
    for &x in tail {
        insert(x.to_bits());
    }
    for (o, &b) in out.iter_mut().zip(&best) {
        *o = K::from_bits(b);
    }
}

/// Scalar top-`out.len()` by insertion into the sorted prefix of `out`.
fn insertion_top_beta<K: TopKKey>(slice: &[K], out: &mut [K]) {
    let beta = out.len();
    let mut len = 0;
    for &x in slice {
        let xb = x.to_bits();
        if len < beta {
            let pos = out[..len].partition_point(|y| y.to_bits() >= xb);
            out.copy_within(pos..len, pos + 1);
            out[pos] = x;
            len += 1;
        } else if beta > 0 && xb > out[beta - 1].to_bits() {
            let pos = out.partition_point(|y| y.to_bits() >= xb);
            out.copy_within(pos..beta - 1, pos + 1);
            out[pos] = x;
        }
    }
}

/// Build the delegate vector of `data` for subrange size `2^alpha` and `beta`
/// delegates per subrange.
pub fn build_delegate_vector<K: TopKKey>(
    device: &Device,
    data: &[K],
    alpha: u32,
    beta: usize,
    method: ConstructionMethod,
) -> DelegateVector<K> {
    assert!(beta >= 1, "beta must be at least 1");
    assert!((1..32).contains(&alpha), "alpha must be in 1..32");
    let subrange_size = 1usize << alpha;
    let num_subranges = data.len().div_ceil(subrange_size);
    let method = method.resolve(alpha);

    if data.is_empty() {
        return DelegateVector {
            values: Vec::new(),
            subrange_ids: Vec::new(),
            beta,
            subrange_size,
            num_subranges: 0,
            method,
            stats: KernelStats::default(),
            time_ms: 0.0,
        };
    }

    // Every subrange but the last is full and yields `per` entries, so
    // subrange `s` starts at entry `s·per`; the last may yield fewer.
    let per = beta.min(subrange_size);
    let last_len = data.len() - (num_subranges - 1) * subrange_size;
    let total = (num_subranges - 1) * per + beta.min(last_len);
    let entry = |s: usize| (s * per).min(total);

    // Each simulated warp handles a contiguous run of subranges; cap the
    // warp count so tiny subranges do not explode the simulation overhead.
    let num_warps = num_subranges.clamp(1, 1 << 14);

    let kernel_name = match method {
        ConstructionMethod::WarpShuffle => "drtopk_delegate_construction_warp",
        ConstructionMethod::CoalescedShared => "drtopk_delegate_construction_coalesced",
        ConstructionMethod::Auto => unreachable!("resolved above"),
    };

    // One (key, subrange id) pair per delegate entry, expressed in u32-sized
    // words so the charged store bytes stay exact for 8-byte keys.
    let kv_words = 1 + std::mem::size_of::<K>() / std::mem::size_of::<u32>();

    // Each warp writes the entries of its subranges straight into its slab
    // of the delegate vector.
    let mut values = vec![K::default(); total];
    let launch = device.launch_into(
        kernel_name,
        num_warps,
        &mut values,
        |w| {
            let subranges = chunk_range(num_subranges, num_warps, w);
            entry(subranges.start)..entry(subranges.end)
        },
        |ctx, slab| {
            let subranges = ctx.chunk_of(num_subranges);
            let base = entry(subranges.start);
            let keys = |s: usize| s * subrange_size..((s + 1) * subrange_size).min(data.len());
            match method {
                ConstructionMethod::WarpShuffle => {
                    for s in subranges {
                        let slice = ctx.read_coalesced(&data[keys(s)]);
                        ctx.record_alu(slice.len() as u64);
                        let delegates = &mut slab[entry(s) - base..entry(s + 1) - base];
                        top_beta_of(slice, delegates);
                        // β warp reductions to agree on the top-β of the subrange
                        for &v in delegates.iter() {
                            ctx.warp_reduce_max(v.to_bits());
                        }
                        // delegate (value, id) pair written to global memory
                        ctx.record_store_coalesced::<u32>(kv_words * delegates.len());
                    }
                }
                ConstructionMethod::CoalescedShared => {
                    // Stage WARP_SIZE subranges at a time: the warp loads them
                    // coalesced into (padded) shared memory, then each thread
                    // extracts the delegates of one subrange without any shuffle.
                    for first in subranges.clone().step_by(WARP_SIZE) {
                        let group = first..(first + WARP_SIZE).min(subranges.end);
                        let staged = ctx.read_coalesced(
                            &data[keys(group.start).start..keys(group.end - 1).end],
                        );
                        // shared-memory staging: one store per element (padded →
                        // conflict free), then each thread reads its subrange
                        // back (strided by the padded pitch → conflict free).
                        ctx.record_shared(2 * staged.len() as u64);
                        ctx.record_alu(staged.len() as u64);
                        ctx.syncthreads();
                        for s in group {
                            let delegates = &mut slab[entry(s) - base..entry(s + 1) - base];
                            top_beta_of(&data[keys(s)], delegates);
                            ctx.record_store_coalesced::<u32>(kv_words * delegates.len());
                        }
                    }
                }
                ConstructionMethod::Auto => unreachable!(),
            }
        },
    );

    // Subrange ids are a pure function of the entry layout.
    let mut subrange_ids = Vec::with_capacity(total);
    for s in 0..num_subranges {
        subrange_ids.resize(entry(s + 1), s as u32);
    }

    DelegateVector {
        values,
        subrange_ids,
        beta,
        subrange_size,
        num_subranges,
        method,
        stats: launch.stats,
        time_ms: launch.time_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::with_host_threads(DeviceSpec::v100s(), 4)
    }

    fn reference_delegates(data: &[u32], alpha: u32, beta: usize) -> (Vec<u32>, Vec<u32>) {
        let size = 1usize << alpha;
        let mut values = Vec::new();
        let mut ids = Vec::new();
        for (s, chunk) in data.chunks(size).enumerate() {
            let mut sorted: Vec<u32> = chunk.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.truncate(beta);
            for v in sorted {
                values.push(v);
                ids.push(s as u32);
            }
        }
        (values, ids)
    }

    #[test]
    fn max_delegate_matches_reference() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 14, 3);
        for alpha in [4u32, 8, 10] {
            let dv = build_delegate_vector(&dev, &data, alpha, 1, ConstructionMethod::WarpShuffle);
            let (vals, ids) = reference_delegates(&data, alpha, 1);
            assert_eq!(dv.values, vals, "alpha={alpha}");
            assert_eq!(dv.subrange_ids, ids);
            assert_eq!(dv.num_subranges, data.len().div_ceil(1 << alpha));
        }
    }

    #[test]
    fn beta_delegates_match_reference_for_both_methods() {
        let dev = device();
        let data = topk_datagen::customized(10_000, 5);
        for beta in [2usize, 3] {
            for method in [
                ConstructionMethod::WarpShuffle,
                ConstructionMethod::CoalescedShared,
            ] {
                let dv = build_delegate_vector(&dev, &data, 6, beta, method);
                let (vals, ids) = reference_delegates(&data, 6, beta);
                assert_eq!(dv.values, vals, "beta={beta} {method:?}");
                assert_eq!(dv.subrange_ids, ids);
            }
        }
    }

    #[test]
    fn short_final_subrange_is_handled() {
        let dev = device();
        let data: Vec<u32> = (0..1000u32).collect(); // not a multiple of 2^α
        let dv = build_delegate_vector(&dev, &data, 8, 2, ConstructionMethod::Auto);
        assert_eq!(dv.num_subranges, 4);
        // last subrange has 1000 - 768 = 232 elements, still 2 delegates
        assert_eq!(dv.len(), 8);
        assert_eq!(dv.values[6], 999);
        assert_eq!(dv.values[7], 998);
        assert_eq!(dv.subrange_ids[6], 3);
    }

    #[test]
    fn subrange_smaller_than_beta_yields_fewer_entries() {
        let dev = device();
        let data: Vec<u32> = vec![10, 20, 30, 40, 50];
        let dv = build_delegate_vector(&dev, &data, 2, 3, ConstructionMethod::WarpShuffle);
        // subrange 0 = [10,20,30,40] -> 3 delegates; subrange 1 = [50] -> 1
        assert_eq!(dv.values, vec![40, 30, 20, 50]);
        assert_eq!(dv.subrange_ids, vec![0, 0, 0, 1]);
    }

    /// Sort-based top-β of one subrange, compared as bit images.
    fn sorted_top<K: TopKKey>(slice: &[K], beta: usize) -> Vec<K::Bits> {
        let mut bits: Vec<K::Bits> = slice.iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable_by(|a, b| b.cmp(a));
        bits.truncate(beta);
        bits
    }

    fn scan<K: TopKKey>(slice: &[K], beta: usize) -> Vec<K::Bits> {
        let mut out = vec![K::default(); beta.min(slice.len())];
        top_beta_of(slice, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn subranges_around_the_lane_scan_threshold_match_sorting() {
        // 63 keys take the insertion pass, 64 and 65 the lane scan (65 with
        // a one-key tail, 127 with a 31-key one); ascending input makes
        // every key a running max.
        for len in [63usize, 64, 65, 127] {
            let random = topk_datagen::uniform(len, len as u64);
            let ascending: Vec<u32> = (0..len as u32).collect();
            let floats: Vec<f32> = (0..len)
                .map(|i| [f32::NAN, -0.0, 0.0, f32::INFINITY, -1e-40][i % 5] * (i as f32))
                .collect();
            for beta in 1..=6 {
                assert_eq!(
                    scan(&random, beta),
                    sorted_top(&random, beta),
                    "{len} {beta}"
                );
                assert_eq!(scan(&ascending, beta), sorted_top(&ascending, beta));
                assert_eq!(scan(&floats, beta), sorted_top(&floats, beta));
                // Every position — each lane, each row, each tail slot — can
                // hold the two largest keys.
                for p in 0..len {
                    let mut spiked = vec![1u32; len];
                    spiked[p] = 5;
                    spiked[(p + 33) % len] = 4;
                    assert_eq!(
                        scan(&spiked, beta),
                        sorted_top(&spiked, beta),
                        "{len} {beta} {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_equal_subrange_yields_beta_copies() {
        let dev = device();
        for value in [0u32, 7, u32::MAX] {
            let data = vec![value; 300];
            for beta in 1..=6 {
                let dv =
                    build_delegate_vector(&dev, &data, 7, beta, ConstructionMethod::WarpShuffle);
                // 128 + 128 + 44 keys: every subrange yields β copies
                assert_eq!(
                    dv.values,
                    vec![value; 3 * beta],
                    "value={value} beta={beta}"
                );
                assert_eq!(dv.subrange_ids.len(), 3 * beta);
            }
        }
    }

    #[test]
    fn beta_larger_than_the_subrange_yields_every_key_sorted() {
        let dev = device();
        let data: Vec<i64> = vec![3, -9, 12, 0, 5, -1, 8];
        for method in [
            ConstructionMethod::WarpShuffle,
            ConstructionMethod::CoalescedShared,
        ] {
            // 2^2 = 4 keys per subrange, β = 6: full subranges yield 4
            // entries, the 3-key tail yields 3
            let dv = build_delegate_vector(&dev, &data, 2, 6, method);
            assert_eq!(dv.values, vec![12, 3, 0, -9, 8, 5, -1], "{method:?}");
            assert_eq!(dv.subrange_ids, vec![0, 0, 0, 0, 1, 1, 1]);
            assert_eq!(dv.num_subranges, 2);
        }
    }

    #[test]
    fn auto_switches_method_on_alpha() {
        assert_eq!(
            ConstructionMethod::Auto.resolve(4),
            ConstructionMethod::CoalescedShared
        );
        assert_eq!(
            ConstructionMethod::Auto.resolve(12),
            ConstructionMethod::WarpShuffle
        );
        assert_eq!(
            ConstructionMethod::WarpShuffle.resolve(4),
            ConstructionMethod::WarpShuffle
        );
    }

    #[test]
    fn coalesced_method_eliminates_shuffles() {
        let dev = device();
        let data = topk_datagen::uniform(1 << 16, 1);
        let warp = build_delegate_vector(&dev, &data, 4, 2, ConstructionMethod::WarpShuffle);
        let coal = build_delegate_vector(&dev, &data, 4, 2, ConstructionMethod::CoalescedShared);
        assert_eq!(warp.values, coal.values);
        assert!(warp.stats.shuffle_instructions > 0);
        assert_eq!(coal.stats.shuffle_instructions, 0);
        assert!(coal.stats.shared_ops > 0);
        // the optimization is what Figure 15 shows: less modeled time for
        // small subranges / β delegates
        assert!(coal.time_ms < warp.time_ms);
    }

    #[test]
    fn construction_reads_whole_vector_once() {
        let dev = device();
        let n = 1 << 16;
        let data = topk_datagen::uniform(n, 1);
        let dv = build_delegate_vector(&dev, &data, 8, 1, ConstructionMethod::WarpShuffle);
        let loaded = dv.stats.global_loaded_bytes;
        assert!(
            loaded >= (n * 4) as u64 && loaded < (n * 4) as u64 * 11 / 10,
            "expected ~|V| loads, got {loaded}"
        );
        // stores are only the delegate entries
        assert!(dv.stats.global_stored_bytes <= (dv.len() * 8 + 64) as u64);
    }

    #[test]
    fn empty_input() {
        let dev = device();
        let dv = build_delegate_vector::<u32>(&dev, &[], 8, 2, ConstructionMethod::Auto);
        assert!(dv.is_empty());
        assert_eq!(dv.num_subranges, 0);
    }

    #[test]
    #[should_panic(expected = "beta must be at least 1")]
    fn zero_beta_panics() {
        let dev = device();
        build_delegate_vector(&dev, &[1, 2, 3], 2, 0, ConstructionMethod::Auto);
    }
}
