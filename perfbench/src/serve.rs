//! `serve_churn`: one client submitting batches to a `TopKEngine` over a
//! cluster of one default device per host core (at least two), closed loop.
//! Each batch holds 16 Zipf-k queries over 4 corpora of 2^18 keys under ids
//! never seen before, a top-128 over a 2^21-key corpus (sharded), a
//! top-16384 over a 2^19-key corpus (radix path), a recall-0.95 top-512 and
//! a 1024×128 top-2 row matrix.

use std::collections::HashMap;

use drtopk_core::{InnerAlgorithm, Mode, PathHint, RowK, TopKKey};
use drtopk_engine::{BatchOutput, Direction, EngineConfig, Query, QueryBatch, TopKEngine};
use gpu_sim::Device;
use topk_baselines::{reference_topk, reference_topk_min};
use topk_datagen::{multi_query_workload, CorpusMix, QuerySpec};

use crate::derive_seed;
use crate::driver::{Done, Workload};
use crate::sweep::{capped_cluster, ExactProbe, Probe, RowsProbe, SweepInputs};

/// Devices per cluster: one per host core, at least two.
fn cluster_devices() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(2, 8)
}

/// The query mix is part of the workload's definition, as `oneshot`'s query
/// cycle is: it comes from this fixed seed, and `--seed` generates the
/// corpora.
const QUERY_MIX_SEED: u64 = 0x5eed_0001;

/// Batch template `template`: `queries` Zipf-k queries (k ≤ 1024, exponent
/// 1) spread over 4 corpora, a quarter of them smallest-direction.
fn zipf_template(queries: usize, template: usize) -> Vec<QuerySpec> {
    multi_query_workload(
        queries,
        CorpusMix::Clustered { corpora: 4 },
        1024,
        1.0,
        0.25,
        0.0,
        derive_seed(QUERY_MIX_SEED, template as u64),
    )
}

fn exact_query(corpus: usize, spec: &QuerySpec) -> Query {
    Query {
        corpus,
        k: spec.k,
        direction: if spec.largest {
            Direction::Largest
        } else {
            Direction::Smallest
        },
        inner: InnerAlgorithm::FlagRadix,
        mode: Mode::Exact,
        path: PathHint::Auto,
    }
}

/// Exact references of Zipf queries keyed by (vector, k, largest), each
/// distinct query solved once.
#[derive(Default)]
struct References(HashMap<(usize, usize, bool), Vec<u32>>);

impl References {
    fn add(&mut self, data: &[u32], vector: usize, spec: &QuerySpec) {
        self.0
            .entry((vector, spec.k, spec.largest))
            .or_insert_with(|| {
                if spec.largest {
                    reference_topk(data, spec.k)
                } else {
                    reference_topk_min(data, spec.k)
                }
            });
    }

    fn get(&self, vector: usize, spec: &QuerySpec) -> &[u32] {
        &self.0[&(vector, spec.k, spec.largest)]
    }
}

const CHURN_N: usize = 1 << 18;
const CHURN_QUERIES: usize = 16;
/// Pre-generated 2^18-key vectors the fresh corpora rotate through.
const CHURN_VECTORS: usize = 8;
const CHURN_CYCLE: usize = 8;
const SHARD_CAPACITY: usize = 1 << 20;
const SHARDED_N: usize = 1 << 21;
const SHARDED_K: usize = 128;
const RADIX_N: usize = 1 << 19;
/// Keys a device holds: the sharded corpus spans four chunks.
const DEVICE_CAPACITY: usize = 1 << 19;
const RADIX_K: usize = 1 << 14;
const APPROX_K: usize = 512;
const ROWS: usize = 1024;
const COLS: usize = 128;
const ROW_K: usize = 2;

pub struct Churn {
    engine: TopKEngine,
    vectors: Vec<Vec<u32>>,
    sharded: Vec<u32>,
    radix: Vec<u32>,
    /// MoE gating logits as order-preserving u32 keys.
    matrix: Vec<u32>,
    templates: Vec<Vec<QuerySpec>>,
    references: References,
    sharded_reference: Vec<u32>,
    radix_reference: Vec<u32>,
    row_references: Vec<Vec<u32>>,
}

impl Churn {
    /// The vector behind corpus `c` of batch `b`: batches alternate between
    /// the two halves of the pool.
    fn vector(b: usize, c: usize) -> usize {
        (b % 2) * 4 + c
    }

    /// Batch `b` of the sequence.
    fn batch(&self, b: usize) -> QueryBatch<'_, u32> {
        let mut batch = QueryBatch::new();
        // Ids never seen before: every batch brings four new corpora.
        let slots: Vec<usize> = (0..4)
            .map(|c| {
                let id = 1_000 + (b * 4 + c) as u64;
                batch.add_corpus(id, &self.vectors[Churn::vector(b, c)])
            })
            .collect();
        for spec in &self.templates[b % CHURN_CYCLE] {
            batch.push(exact_query(slots[spec.corpus], spec));
        }
        let sharded = batch.add_corpus(1, &self.sharded);
        batch.push_topk(sharded, SHARDED_K);
        let radix = batch.add_corpus(2, &self.radix);
        batch.push_topk(radix, RADIX_K);
        batch.push_topk_approx(slots[0], APPROX_K, 0.95);
        let matrix = batch.add_corpus(3, &self.matrix);
        batch.push_rows(matrix, ROWS, COLS, RowK::Uniform(ROW_K));
        batch
    }
}

impl Workload for Churn {
    type Output = BatchOutput<u32>;
    const OP_SPAN: &'static str = "op.run_batch";
    const OPS_PER_REFERENCE: usize = 1;
    /// Set-up is mostly the cold cycle of batches, on every core.
    const PARALLEL_SETUP: bool = true;

    fn build(seed: u64) -> Churn {
        // Corpora above 2^20 keys are sharded; devices hold 2^19 keys, so
        // the 2^21-key corpus streams in as four chunks.
        let engine = TopKEngine::with_config(
            capped_cluster(cluster_devices(), DEVICE_CAPACITY),
            EngineConfig {
                shard_capacity: Some(SHARD_CAPACITY),
                ..EngineConfig::default()
            },
        );
        Churn {
            engine,
            vectors: (0..CHURN_VECTORS as u64)
                .map(|v| topk_datagen::uniform(CHURN_N, derive_seed(seed, 20 + v)))
                .collect(),
            sharded: topk_datagen::uniform(SHARDED_N, derive_seed(seed, 30)),
            radix: topk_datagen::uniform(RADIX_N, derive_seed(seed, 31)),
            matrix: topk_datagen::moe_gating_logits(ROWS, COLS, 1.0, derive_seed(seed, 32))
                .into_iter()
                .map(TopKKey::to_bits)
                .collect(),
            templates: (0..CHURN_CYCLE)
                .map(|t| zipf_template(CHURN_QUERIES, 100 + t))
                .collect(),
            references: References::default(),
            sharded_reference: Vec::new(),
            radix_reference: Vec::new(),
            row_references: Vec::new(),
        }
    }

    /// One cold cycle of batches fills the plan cache.
    fn cold_ops(&self) -> usize {
        CHURN_CYCLE
    }

    fn cycle(&self) -> usize {
        CHURN_CYCLE
    }

    fn solve_references(&mut self) {
        for b in 0..CHURN_CYCLE {
            for spec in &self.templates[b] {
                let v = Churn::vector(b, spec.corpus);
                self.references.add(&self.vectors[v], v, spec);
            }
        }
        self.sharded_reference = reference_topk(&self.sharded, SHARDED_K);
        self.radix_reference = reference_topk(&self.radix, RADIX_K);
        self.row_references = self
            .matrix
            .chunks(COLS)
            .map(|row| reference_topk(row, ROW_K))
            .collect();
    }

    fn call(&self, b: usize) -> Result<BatchOutput<u32>, String> {
        self.engine
            .run_batch(&self.batch(b))
            .map_err(|e| e.to_string())
    }

    fn check(&self, b: usize, out: &BatchOutput<u32>) -> Result<Done, String> {
        let wrong = |what: String| Err(format!("batch {b} {what}: wrong answer"));
        let templates = &self.templates[b % CHURN_CYCLE];
        for (i, spec) in templates.iter().enumerate() {
            let v = Churn::vector(b, spec.corpus);
            if out.results[i].values != self.references.get(v, spec) {
                return wrong(format!("query {i} ({spec:?})"));
            }
        }
        if out.report.sharded_queries != 1 || out.report.radix_path_units != 1 {
            return Err(format!(
                "batch {b}: expected one sharded query and one radix-path unit, got {} and {}",
                out.report.sharded_queries, out.report.radix_path_units
            ));
        }
        let extra = &out.results[templates.len()..];
        if extra[0].values != self.sharded_reference {
            return wrong("sharded top-128".into());
        }
        if extra[1].values != self.radix_reference {
            return wrong("radix top-16384".into());
        }
        if extra[2].values.len() != APPROX_K {
            return wrong("approximate top-512 length".into());
        }
        let rows = &out.row_results[0].rows;
        if rows.len() != ROWS
            || rows
                .iter()
                .zip(&self.row_references)
                .any(|(r, want)| r.values != *want)
        {
            return wrong("row matrix".into());
        }
        Ok(Done {
            selections: (templates.len() + 3 + ROWS) as u64,
            modeled_ms: out.report.total_ms,
            report: Some(out.report.clone()),
        })
    }

    fn devices(&self) -> Vec<&Device> {
        self.engine.cluster().devices().iter().collect()
    }

    fn engine(&self) -> Option<&TopKEngine> {
        Some(&self.engine)
    }

    fn sweep_inputs(&self) -> SweepInputs<'_> {
        SweepInputs {
            exact: self.templates[0]
                .iter()
                .map(|spec| {
                    let v = Churn::vector(0, spec.corpus);
                    ExactProbe {
                        data: &self.vectors[v],
                        k: spec.k,
                        smallest: !spec.largest,
                        reference: self.references.get(v, spec),
                    }
                })
                .collect(),
            radix: Probe {
                data: &self.radix,
                k: RADIX_K,
                reference: self.radix_reference.clone(),
            },
            approx: Probe::new(&self.vectors[0], APPROX_K),
            rows: RowsProbe {
                data: &self.matrix,
                rows: ROWS,
                cols: COLS,
                k: ROW_K,
                references: self.row_references.clone(),
            },
            sharded: Probe {
                data: &self.sharded,
                k: SHARDED_K,
                reference: self.sharded_reference.clone(),
            },
            capacity_keys: DEVICE_CAPACITY,
        }
    }
}
