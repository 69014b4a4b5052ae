//! `oneshot`: the paper's single-query setting. One default V100S device,
//! two resident 2^22-key corpora (UD and ND) queried alternately, k cycling
//! over {32, 128, 256, 512}, every fourth query a top-k-smallest.

use drtopk_core::{
    choose_path_sampled, dr_topk, dr_topk_min, ChosenPath, DrTopKConfig, DrTopKResult,
};
use gpu_sim::{Device, DeviceSpec};
use topk_baselines::{reference_topk, reference_topk_min};

use crate::derive_seed;
use crate::driver::{Done, Workload};
use crate::sweep::{ExactProbe, Probe, RowsProbe, SweepInputs};

const N: usize = 1 << 22;
const KS: [usize; 4] = [32, 128, 256, 512];
/// Distinct queries before the sequence repeats.
const CYCLE: usize = 16;

#[derive(Clone, Copy)]
struct Query {
    corpus: usize,
    k: usize,
    smallest: bool,
}

/// Query `i`: corpora alternate, k steps every two queries, and four of
/// every sixteen (UD and ND, k = 128 and 512) ask for the smallest keys.
fn query(i: usize) -> Query {
    let i = i % CYCLE;
    Query {
        corpus: i % 2,
        k: KS[(i / 2) % KS.len()],
        smallest: (i + i / 8) % 4 == 3,
    }
}

pub struct Oneshot {
    device: Device,
    corpora: [Vec<u32>; 2],
    references: Vec<Vec<u32>>,
}

impl Workload for Oneshot {
    type Output = DrTopKResult<u32>;
    const OP_SPAN: &'static str = "op.dr_topk";
    const OPS_PER_REFERENCE: usize = 4;
    /// Set-up is mostly generating the two corpora, on one thread.
    const PARALLEL_SETUP: bool = false;

    fn build(seed: u64) -> Oneshot {
        Oneshot {
            device: Device::new(DeviceSpec::v100s()),
            corpora: [
                topk_datagen::uniform(N, derive_seed(seed, 1)),
                topk_datagen::normal(N, derive_seed(seed, 2)),
            ],
            references: Vec::new(),
        }
    }

    fn cold_ops(&self) -> usize {
        1
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn solve_references(&mut self) {
        self.references = (0..CYCLE)
            .map(|i| {
                let q = query(i);
                let data = &self.corpora[q.corpus];
                assert_eq!(
                    choose_path_sampled(data, q.k, self.device.spec()),
                    ChosenPath::Delegate,
                    "oneshot query {i} must resolve to the delegate path"
                );
                if q.smallest {
                    reference_topk_min(data, q.k)
                } else {
                    reference_topk(data, q.k)
                }
            })
            .collect();
    }

    fn call(&self, i: usize) -> Result<DrTopKResult<u32>, String> {
        let q = query(i);
        let data = &self.corpora[q.corpus];
        Ok(if q.smallest {
            dr_topk_min(&self.device, data, q.k, &DrTopKConfig::default())
        } else {
            dr_topk(&self.device, data, q.k, &DrTopKConfig::default())
        })
    }

    fn check(&self, i: usize, out: &DrTopKResult<u32>) -> Result<Done, String> {
        if out.values != self.references[i % CYCLE] {
            return Err(format!("query {}: wrong answer", i % CYCLE));
        }
        Ok(Done {
            selections: 1,
            modeled_ms: out.time_ms,
            report: None,
        })
    }

    fn devices(&self) -> Vec<&Device> {
        vec![&self.device]
    }

    fn sweep_inputs(&self) -> SweepInputs<'_> {
        let ud = &self.corpora[0];
        SweepInputs {
            exact: (0..CYCLE)
                .map(|i| {
                    let q = query(i);
                    ExactProbe {
                        data: &self.corpora[q.corpus],
                        k: q.k,
                        smallest: q.smallest,
                        reference: &self.references[i],
                    }
                })
                .collect(),
            radix: Probe::new(&ud[..1 << 20], 1 << 14),
            approx: Probe::new(ud, 512),
            rows: RowsProbe::new(&ud[..1024 * 128], 1024, 128, 2),
            sharded: Probe::new(ud, 128),
            capacity_keys: 1 << 20,
        }
    }
}
