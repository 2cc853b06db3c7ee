//! The half-Llama-7B stack: seeded weights in their serialized form, the
//! deployment built from those bytes through the public session API, and
//! the block forward of `examples/transformer_block.rs` extended with the
//! attention projections.

use crate::trace::Tracer;
use crate::Result;
use bytes::Bytes;
use gpu_sim::device::a100_80g;
use nm_core::index::IndexLayout;
use nm_core::json::JsonValue;
use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::serialize;
use nm_core::sparse::NmSparseMatrix;
use nm_core::spmm::spmm_reference;
use nm_kernels::cpu::offline_staging_passes;
use nm_kernels::measure::{measurement_passes, AutotuneMode};
use nm_kernels::plan::version_name;
use nm_kernels::session::{LoadSpec, PreparedLayer, Session, SessionBuilder};
use nm_kernels::{BackendKind, CpuTiling, NmVersion, DECODE_MAX_ROWS};
use nm_serve::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

/// The seven projections of a block, in forward order.
pub const PROJECTIONS: [&str; 7] = ["q", "k", "v", "o", "gate", "up", "down"];
const KERNEL_SPANS: [&str; 7] = [
    "kernel.q",
    "kernel.k",
    "kernel.v",
    "kernel.o",
    "kernel.gate",
    "kernel.up",
    "kernel.down",
];
/// Index of `gate` in [`PROJECTIONS`]; block 0's gate is the served layer.
pub const GATE: usize = 4;

/// Output tolerance against `spmm_reference`: `|got - ref| <= ATOL + RTOL·|ref|`.
pub const RTOL: f32 = 1e-3;
pub const ATOL: f32 = 1e-4;

/// Stack geometry. Every dimension is a multiple of the vector length 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    pub hidden: usize,
    pub ffn: usize,
    pub blocks: usize,
    pub prompt_rows: usize,
}

impl Dims {
    /// Llama-7B halved (hidden 4096 → 2048, FFN 11008 → 5504), six blocks,
    /// a 256-row prompt (the paper's smallest m).
    pub const HALF_LLAMA_7B: Dims = Dims {
        hidden: 2048,
        ffn: 5504,
        blocks: 6,
        prompt_rows: 256,
    };

    /// `(k, n)` of projection `p`.
    pub fn shape(&self, p: usize) -> (usize, usize) {
        match p {
            0..=3 => (self.hidden, self.hidden),
            4 | 5 => (self.hidden, self.ffn),
            _ => (self.ffn, self.hidden),
        }
    }

    /// Useful flops of one projection-`p` call on `rows` activation rows.
    pub fn flops(&self, p: usize, rows: usize) -> f64 {
        let (k, n) = self.shape(p);
        let cfg = nm_config(p);
        2.0 * rows as f64 * n as f64 * (k * cfg.n / cfg.m) as f64
    }
}

/// Attention projections at 4:8 (50%) and FFN projections at 2:8 (75%),
/// either side of the 70% `col_info` packing threshold, with L = 32.
pub fn nm_config(p: usize) -> NmConfig {
    let n = if p < GATE { 4 } else { 2 };
    NmConfig::new(n, 8, 32).expect("4:8 and 2:8 at L = 32 are valid")
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn uniform(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// A seed for item `index` of input stream `stream`, derived from the run seed.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mixed = seed
        ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)
        ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db);
    SplitMix::new(mixed).next_u64()
}

fn random_matrix(rows: usize, cols: usize, scale: f32, seed: u64) -> MatrixF32 {
    let mut r = SplitMix::new(seed);
    MatrixF32::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| r.uniform() * scale).collect(),
    )
}

/// Everything the benchmark feeds the program, made from the seed before
/// any clock starts.
pub struct Inputs {
    /// Serialized pruned weights, block-major, seven per block.
    pub blobs: Vec<Bytes>,
    /// The prompt, `prompt_rows × hidden`.
    pub prompt: MatrixF32,
    /// Decode token embeddings, one `1 × hidden` row each.
    pub tokens: Vec<MatrixF32>,
    /// Served request vectors and block 0's gate output for each.
    pub requests: Vec<Vec<f32>>,
    pub expected: Vec<Vec<f32>>,
}

const TOKEN_POOL: usize = 16;
const REQUEST_POOL: usize = 32;

/// Generate, magnitude-prune and serialize every weight of the stack, on
/// `threads` threads, plus the activations of every phase.
pub fn generate(dims: Dims, seed: u64, threads: usize) -> Inputs {
    let jobs = dims.blocks * PROJECTIONS.len();
    let threads = threads.clamp(1, jobs);
    let mut done: Vec<(usize, Bytes, Option<NmSparseMatrix>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..jobs)
                        .step_by(threads)
                        .map(|j| {
                            let p = j % PROJECTIONS.len();
                            let (k, n) = dims.shape(p);
                            let cfg = nm_config(p);
                            // Keeps each output's variance near its input's,
                            // so six residual blocks stay finite.
                            let scale = (3.0 / (k * cfg.n / cfg.m) as f32).sqrt();
                            let dense = random_matrix(k, n, scale, derive_seed(seed, 1, j as u64));
                            let sb = NmSparseMatrix::prune_magnitude(&dense, cfg)
                                .expect("generated shapes are valid for their N:M");
                            let blob = serialize::to_bytes(&sb);
                            (j, blob, (j == GATE).then_some(sb))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("weight generator thread panicked"))
            .collect()
    });
    done.sort_by_key(|(j, _, _)| *j);
    let gate = done[GATE]
        .2
        .take()
        .expect("block 0's gate is kept for references");
    let blobs = done.into_iter().map(|(_, b, _)| b).collect();

    let h = dims.hidden;
    let prompt = random_matrix(dims.prompt_rows, h, 1.0, derive_seed(seed, 2, 0));
    let tokens = (0..TOKEN_POOL)
        .map(|i| random_matrix(1, h, 1.0, derive_seed(seed, 3, i as u64)))
        .collect();
    let pool = random_matrix(REQUEST_POOL, h, 1.0, derive_seed(seed, 4, 0));
    let reference = spmm_reference(&pool, &gate);
    Inputs {
        blobs,
        prompt,
        tokens,
        requests: (0..REQUEST_POOL).map(|i| pool.row(i).to_vec()).collect(),
        expected: (0..REQUEST_POOL)
            .map(|i| reference.row(i).to_vec())
            .collect(),
    }
}

/// Prepared layers, `[block][projection]`.
pub type Stack = Vec<Vec<PreparedLayer>>;

/// What one set-up cost, measured around the public calls.
#[derive(Debug, Clone)]
pub struct SetupCost {
    pub total_s: f64,
    pub deserialize_s: f64,
    pub load_prefill_s: f64,
    pub load_decode_s: f64,
    pub measure_passes: u64,
    pub staging_passes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// A deployed stack: the prompt-planned stack, the decode-planned stack
/// when the workload measures decode plans, and the server over block 0's
/// gate.
pub struct Deployment {
    pub prefill: Stack,
    pub decode: Option<Stack>,
    pub server: Server,
    pub cost: SetupCost,
    /// Worker threads the sessions fan out to.
    pub threads: usize,
}

impl Deployment {
    /// The stack decode steps run on: the decode-planned one when present,
    /// else the prompt-planned one (its staging serves `forward_vec` too).
    pub fn decode_stack(&self) -> &Stack {
        self.decode.as_ref().unwrap_or(&self.prefill)
    }

    /// Bytes of every staged weight, in the format each layer staged.
    pub fn staged_bytes(&self) -> usize {
        let served = std::iter::once(self.server.layer());
        self.prefill
            .iter()
            .chain(self.decode.iter().flatten())
            .flatten()
            .chain(served)
            .map(staged_bytes)
            .sum()
    }
}

/// Bytes of one layer's weights in the format it staged: values plus
/// offsets, counted from tensor sizes.
pub fn staged_bytes(layer: &PreparedLayer) -> usize {
    layer
        .weights()
        .storage_bytes_as(layer.storage().unwrap_or_default(), IndexLayout::RowMajorU8)
}

fn session(mode: AutotuneMode, threads: usize) -> Result<Session> {
    Ok(SessionBuilder::new(a100_80g())
        .threads(threads)
        .backend(BackendKind::Cpu(NmVersion::V3))
        .autotune(mode)
        .build()?)
}

/// Which layers a deployment plans by measurement on the host (autotune
/// `Quick`); the rest use the cost model (autotune `Off`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measured {
    Nothing,
    ServedGate,
    DecodeStackAndServedGate,
}

/// Deploy from serialized bytes: `from_bytes`, every `Session::load` and
/// `Server::start`. The prompt-planned stack always uses the cost-model
/// plan; a second, measuring session loads what `measured` names.
pub fn deploy(
    blobs: &[Bytes],
    dims: Dims,
    measured: Measured,
    threads: usize,
    tr: &Tracer,
    rep: u64,
) -> Result<Deployment> {
    let (measure0, stage0) = (measurement_passes(), offline_staging_passes());
    let t0 = Instant::now();
    tr.span("setup", None, rep, |sid| {
        let weights = blobs
            .iter()
            .enumerate()
            .map(|(i, b)| {
                tr.span("core.from_bytes", sid, i as u64, |_| {
                    serialize::from_bytes(b)
                })
            })
            .collect::<std::result::Result<Vec<_>, _>>()?
            .into_iter()
            .map(Arc::new)
            .collect::<Vec<_>>();
        let deserialize_s = t0.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut off = session(AutotuneMode::Off, threads)?;
        let prefill = load_stack(&mut off, &weights, dims, dims.prompt_rows, tr, sid)?;
        let load_prefill_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut quick = match measured {
            Measured::Nothing => None,
            _ => Some(session(AutotuneMode::Quick, threads)?),
        };
        let decode = match (measured, quick.as_mut()) {
            (Measured::DecodeStackAndServedGate, Some(s)) => {
                Some(load_stack(s, &weights, dims, 1, tr, sid)?)
            }
            _ => None,
        };
        let serving = quick.as_mut().unwrap_or(&mut off);
        let gate = tr.span("session.load.decode", sid, GATE as u64, |_| {
            serving.load_with(weights[GATE].clone(), LoadSpec::rows(DECODE_MAX_ROWS))
        })?;
        let load_decode_s = t.elapsed().as_secs_f64();

        let server = tr.span("server.start", sid, 0, |_| {
            Server::start(gate, ServerConfig::default())
        })?;
        let total_s = t0.elapsed().as_secs_f64();
        let stats = [Some(&off), quick.as_ref()]
            .into_iter()
            .flatten()
            .map(|s| s.stats());
        let (cache_hits, cache_misses) = stats.fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        Ok(Deployment {
            threads: off.threads(),
            prefill,
            decode,
            server,
            cost: SetupCost {
                total_s,
                deserialize_s,
                load_prefill_s,
                load_decode_s,
                measure_passes: measurement_passes() - measure0,
                staging_passes: offline_staging_passes() - stage0,
                cache_hits,
                cache_misses,
            },
        })
    })
}

fn load_stack(
    session: &mut Session,
    weights: &[Arc<NmSparseMatrix>],
    dims: Dims,
    rows: usize,
    tr: &Tracer,
    parent: Option<u64>,
) -> Result<Stack> {
    let name = if rows > DECODE_MAX_ROWS {
        "session.load.prefill"
    } else {
        "session.load.decode"
    };
    weights
        .chunks(PROJECTIONS.len())
        .take(dims.blocks)
        .enumerate()
        .map(|(b, block)| {
            block
                .iter()
                .enumerate()
                .map(|(p, w)| {
                    let key = (b * PROJECTIONS.len() + p) as u64;
                    Ok(tr.span(name, parent, key, |_| session.load(w.clone(), rows))?)
                })
                .collect()
        })
        .collect()
}

/// One projection's activations and outputs, kept from an untimed pass
/// for checking against `spmm_reference`.
pub struct Capture {
    pub block: usize,
    pub proj: usize,
    pub a: MatrixF32,
    pub got: MatrixF32,
}

/// Rows of every projection's input and output to keep, and where.
pub struct CaptureRows<'a> {
    pub rows: &'a [usize],
    pub out: &'a mut Vec<Capture>,
}

/// One forward of the whole stack: per block, RMSNorm → q/k/v → o (the
/// attention core is outside this system, so `o` consumes `v`'s output) →
/// residual → RMSNorm → gate/up → SiLU·up → down → residual, as in a
/// pre-norm Llama block. `decode` takes `forward_vec` on the single row
/// of `x`.
pub fn forward_stack(
    stack: &Stack,
    x: &MatrixF32,
    decode: bool,
    tr: &Tracer,
    parent: Option<u64>,
    mut capture: Option<CaptureRows<'_>>,
) -> Result<MatrixF32> {
    let mut x = x.clone();
    for (b, layers) in stack.iter().enumerate() {
        x = tr.span("block", parent, b as u64, |bid| -> Result<MatrixF32> {
            let mut run = |p: usize, a: &MatrixF32| -> Result<MatrixF32> {
                let layer = &layers[p];
                let c = tr
                    .span(KERNEL_SPANS[p], bid, b as u64, |_| {
                        if decode {
                            layer.forward_vec(a.row(0))
                        } else {
                            layer.forward(a)
                        }
                    })?
                    .c;
                if let Some(cap) = capture.as_mut() {
                    cap.out.push(Capture {
                        block: b,
                        proj: p,
                        a: select_rows(a, cap.rows),
                        got: select_rows(&c, cap.rows),
                    });
                }
                Ok(c)
            };
            let xn = rms_norm(&x);
            std::hint::black_box((run(0, &xn)?, run(1, &xn)?));
            let v = run(2, &xn)?;
            let o = run(3, &v)?;
            let h = add(&x, &o);
            let hn = rms_norm(&h);
            let g = run(4, &hn)?;
            let u = run(5, &hn)?;
            let d = run(6, &silu_mul(&g, &u))?;
            Ok(add(&h, &d))
        })?;
    }
    Ok(x)
}

fn add(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x + y)
        .collect();
    MatrixF32::from_vec(a.rows(), a.cols(), data)
}

/// Each row scaled to unit root-mean-square (unit gain).
fn rms_norm(x: &MatrixF32) -> MatrixF32 {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let ms = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
        let s = 1.0 / (ms + 1e-6).sqrt();
        row.iter_mut().for_each(|v| *v *= s);
    }
    out
}

fn silu_mul(g: &MatrixF32, u: &MatrixF32) -> MatrixF32 {
    let data = g
        .as_slice()
        .iter()
        .zip(u.as_slice())
        .map(|(g, u)| g / (1.0 + (-g).exp()) * u)
        .collect();
    MatrixF32::from_vec(g.rows(), g.cols(), data)
}

fn select_rows(m: &MatrixF32, rows: &[usize]) -> MatrixF32 {
    let data = rows
        .iter()
        .flat_map(|&r| m.row(r).iter().copied())
        .collect();
    MatrixF32::from_vec(rows.len(), m.cols(), data)
}

/// Captured outputs that disagree with `spmm_reference` beyond tolerance.
pub fn mismatches(stack: &Stack, captures: &[Capture]) -> u64 {
    captures
        .iter()
        .filter(|c| {
            let want = spmm_reference(&c.a, stack[c.block][c.proj].weights());
            !c.got.allclose(&want, RTOL, ATOL)
        })
        .count() as u64
}

/// The resolved plan of one prepared layer, for the run header.
pub fn describe_plan(stack: &str, proj: &str, layer: &PreparedLayer) -> JsonValue {
    let plan = layer.plan();
    let version = match layer.backend() {
        BackendKind::Cpu(v) => version_name(v).to_string(),
        other => other.name().to_string(),
    };
    let tiling = match &plan.measured {
        Some(m) => Ok(m.cpu_tiling),
        None => plan
            .key
            .cfg()
            .and_then(|cfg| CpuTiling::derive(plan.params, cfg, layer.weights().k())),
    };
    let tiling = match tiling {
        Ok(t) => format!("mb{} nb{} kb{} mt{}", t.mb, t.nb, t.kb, t.mt),
        Err(e) => format!("unresolved: {e}"),
    };
    JsonValue::object(vec![
        ("stack", JsonValue::from_str_value(stack)),
        ("proj", JsonValue::from_str_value(proj)),
        ("shape", JsonValue::from_str_value(&plan.key.shape.tag())),
        ("version", JsonValue::String(version)),
        ("tiling", JsonValue::String(tiling)),
        (
            "storage",
            JsonValue::String(layer.storage().unwrap_or_default().tag()),
        ),
        (
            "provenance",
            JsonValue::from_str_value(plan.provenance.name()),
        ),
        ("packing", JsonValue::Bool(plan.decision.packing)),
    ])
}
