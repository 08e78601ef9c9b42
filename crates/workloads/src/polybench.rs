//! Polybench-style tiled kernel generators (use case 1, §5.3 of the paper).
//!
//! The paper evaluates 12 Polybench kernels, tiled by the PLUTO polyhedral
//! optimizer, over tile sizes from 64 B to 8 MB with *total work held
//! constant*. We reproduce the same setup as access-stream generators: each
//! kernel walks the exact loop nest of its tiled form, emitting per-element
//! loads/stores plus the arithmetic as compute ops, and expresses its
//! optimization intent through XMem exactly as §5.2(1) prescribes —
//! "map the active high-reuse partitions (e.g., tiles) of key data
//! structures to an atom that specifies a high reuse value and the access
//! pattern. When the program is done with one partition, it unmaps the
//! current partition and maps the next partition to the same atom."
//!
//! Every kernel keeps its iteration space fixed regardless of `tile_bytes`,
//! so execution-time differences across tile sizes come purely from memory
//! behaviour — the quantity Fig 4 plots.

use crate::sink::TraceSink;
use xmem_core::addr::addr_to_index;
use xmem_core::attrs::{AccessPattern, AtomAttributes, DataType, Reuse};

/// Element size: all kernels use `f64` data.
const ELEM: u64 = 8;

/// Parameters of one kernel run.
#[derive(Debug, Clone, Copy)]
pub struct KernelParams {
    /// Problem size (matrices are `n × n`, vectors length `n`).
    pub n: usize,
    /// Target tile footprint in bytes (the active working set the software
    /// optimization tries to keep cached).
    pub tile_bytes: u64,
    /// Time steps for the stencil kernels.
    pub steps: usize,
    /// Reuse value expressed for the tile atom.
    pub reuse: u8,
}

impl KernelParams {
    /// A small default: 96×96 matrices, 4 KB tiles, 10 stencil steps.
    pub fn small() -> Self {
        KernelParams {
            n: 96,
            tile_bytes: 4 << 10,
            steps: 10,
            reuse: 192,
        }
    }

    /// Same parameters with a different tile size (the Fig 4 sweep).
    pub fn with_tile(mut self, tile_bytes: u64) -> Self {
        self.tile_bytes = tile_bytes;
        self
    }

    /// Minimum block side for 2D-blocked kernels, in elements. Polyhedral
    /// tilers do not emit degenerate 2- or 3-element blocks (the traffic
    /// amplification from re-streaming the untiled operands would dwarf any
    /// locality effect); tile-size settings below this floor behave as the
    /// smallest realistic block, exactly as PLUTO-generated code would.
    const MIN_BLOCK_SIDE: usize = 16;

    /// Tile side in elements for 2D blocking: the largest `t` with
    /// `t × t × 8 ≤ tile_bytes`, clamped to `[MIN_BLOCK_SIDE, n]`.
    fn tile_side(&self) -> usize {
        let t = ((self.tile_bytes / ELEM) as f64).sqrt() as usize;
        t.clamp(Self::MIN_BLOCK_SIDE.min(self.n), self.n)
    }

    /// Block height in rows for row-blocked kernels: rows of `row_elems`
    /// elements fitting in the tile, clamped to `[1, n]`.
    fn tile_rows(&self, row_elems: usize) -> usize {
        let rows = addr_to_index(self.tile_bytes / ELEM / row_elems as u64);
        rows.clamp(1, self.n)
    }
}

/// A dense row-major matrix (or vector) in simulated virtual memory.
#[derive(Debug, Clone, Copy)]
struct Mat {
    base: u64,
    cols: u64,
}

impl Mat {
    fn alloc<S: TraceSink + ?Sized>(sink: &mut S, rows: usize, cols: usize) -> Mat {
        let base = sink.alloc(rows as u64 * cols as u64 * ELEM, None);
        Mat {
            base,
            cols: cols as u64,
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> u64 {
        self.base + (i as u64 * self.cols + j as u64) * ELEM
    }

    fn row_bytes(&self) -> u64 {
        self.cols * ELEM
    }
}

/// The twelve evaluated kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolybenchKernel {
    /// `C = A·B + C` (general matrix multiply).
    Gemm,
    /// `D = (A·B)·C` (two matrix multiplies).
    TwoMm,
    /// `G = (A·B)·(C·D)` (three matrix multiplies).
    ThreeMm,
    /// `C = A·Aᵀ + C` (symmetric rank-k update).
    Syrk,
    /// `C = A·Bᵀ + B·Aᵀ + C` (symmetric rank-2k update).
    Syr2k,
    /// `B = A·B`, `A` lower-triangular (triangular matrix multiply).
    Trmm,
    /// `x1 = A·y1`, `x2 = Aᵀ·y2` (matrix-vector, both orientations).
    Mvt,
    /// Rank-2 update followed by two matrix-vector products.
    Gemver,
    /// `y = A·x + B·x` (summed matrix-vector).
    Gesummv,
    /// 5-point Jacobi stencil, time-tiled.
    Jacobi2d,
    /// 9-point in-place Gauss–Seidel stencil, time-tiled.
    Seidel2d,
    /// 7-point 3D heat stencil, time-tiled.
    Heat3d,
    /// Right-looking Cholesky factorization (extended set).
    Cholesky,
    /// LU decomposition without pivoting (extended set).
    Lu,
    /// Floyd–Warshall all-pairs shortest paths (extended set).
    FloydWarshall,
    /// Alternating-direction-implicit 2D solver (extended set).
    Adi,
}

impl PolybenchKernel {
    /// The twelve kernels of the paper's Fig 4, in report order.
    pub fn all() -> [PolybenchKernel; 12] {
        use PolybenchKernel::*;
        [
            Gemm, TwoMm, ThreeMm, Syrk, Syr2k, Trmm, Mvt, Gemver, Gesummv, Jacobi2d, Seidel2d,
            Heat3d,
        ]
    }

    /// The extended suite: the Fig 4 twelve plus four additional tileable
    /// Polybench kernels (factorizations and dynamic programming).
    pub fn extended() -> [PolybenchKernel; 16] {
        use PolybenchKernel::*;
        [
            Gemm,
            TwoMm,
            ThreeMm,
            Syrk,
            Syr2k,
            Trmm,
            Mvt,
            Gemver,
            Gesummv,
            Jacobi2d,
            Seidel2d,
            Heat3d,
            Cholesky,
            Lu,
            FloydWarshall,
            Adi,
        ]
    }

    /// The kernel's display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolybenchKernel::Gemm => "gemm",
            PolybenchKernel::TwoMm => "2mm",
            PolybenchKernel::ThreeMm => "3mm",
            PolybenchKernel::Syrk => "syrk",
            PolybenchKernel::Syr2k => "syr2k",
            PolybenchKernel::Trmm => "trmm",
            PolybenchKernel::Mvt => "mvt",
            PolybenchKernel::Gemver => "gemver",
            PolybenchKernel::Gesummv => "gesummv",
            PolybenchKernel::Jacobi2d => "jacobi-2d",
            PolybenchKernel::Seidel2d => "seidel-2d",
            PolybenchKernel::Heat3d => "heat-3d",
            PolybenchKernel::Cholesky => "cholesky",
            PolybenchKernel::Lu => "lu",
            PolybenchKernel::FloydWarshall => "floyd-warshall",
            PolybenchKernel::Adi => "adi",
        }
    }

    /// Generates the kernel's trace into `sink`.
    pub fn generate<S: TraceSink + ?Sized>(&self, p: &KernelParams, sink: &mut S) {
        match self {
            PolybenchKernel::Gemm => gemm(p, sink),
            PolybenchKernel::TwoMm => two_mm(p, sink),
            PolybenchKernel::ThreeMm => three_mm(p, sink),
            PolybenchKernel::Syrk => syrk(p, sink),
            PolybenchKernel::Syr2k => syr2k(p, sink),
            PolybenchKernel::Trmm => trmm(p, sink),
            PolybenchKernel::Mvt => mvt(p, sink),
            PolybenchKernel::Gemver => gemver(p, sink),
            PolybenchKernel::Gesummv => gesummv(p, sink),
            PolybenchKernel::Jacobi2d => jacobi2d(p, sink),
            PolybenchKernel::Seidel2d => seidel2d(p, sink),
            PolybenchKernel::Heat3d => heat3d(p, sink),
            PolybenchKernel::Cholesky => cholesky(p, sink),
            PolybenchKernel::Lu => lu(p, sink),
            PolybenchKernel::FloydWarshall => floyd_warshall(p, sink),
            PolybenchKernel::Adi => adi(p, sink),
        }
    }
}

/// Creates the shared high-reuse tile atom (§5.2(1)).
fn tile_atom<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) -> xmem_core::atom::AtomId {
    sink.create_atom(
        "tile",
        AtomAttributes::builder()
            .data_type(DataType::Float64)
            .access_pattern(AccessPattern::sequential(ELEM as i64))
            .reuse(Reuse(p.reuse))
            .build(),
    )
}

/// One blocked matrix-multiply pass `C += A·B`, mapping the active `B` block
/// to `atom`. Shared by gemm / 2mm / 3mm.
fn gemm_pass<S: TraceSink + ?Sized>(
    p: &KernelParams,
    sink: &mut S,
    atom: xmem_core::atom::AtomId,
    a: Mat,
    b: Mat,
    c: Mat,
) {
    let n = p.n;
    let t = p.tile_side();
    for kk in (0..n).step_by(t) {
        let kb = t.min(n - kk);
        for jj in (0..n).step_by(t) {
            let jb = t.min(n - jj);
            // Express the new active partition: unmap the old, map the new
            // (MAP to the same range replaces, so a single 2D map suffices).
            sink.map_2d(
                atom,
                b.at(kk, jj),
                jb as u64 * ELEM,
                kb as u64,
                b.row_bytes(),
            );
            sink.activate(atom);
            // PLUTO-style loop order: the innermost loop (j) walks the B
            // tile row contiguously, matching the expressed stride.
            for i in 0..n {
                for k in kk..kk + kb {
                    sink.load(a.at(i, k));
                    for j in jj..jj + jb {
                        sink.load(b.at(k, j));
                        sink.load(c.at(i, j));
                        sink.compute(2);
                        sink.store(c.at(i, j));
                    }
                }
            }
            sink.unmap_2d(b.at(kk, jj), jb as u64 * ELEM, kb as u64, b.row_bytes());
        }
    }
    sink.deactivate(atom);
}

fn gemm<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let b = Mat::alloc(sink, p.n, p.n);
    let c = Mat::alloc(sink, p.n, p.n);
    gemm_pass(p, sink, atom, a, b, c);
}

fn two_mm<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let b = Mat::alloc(sink, p.n, p.n);
    let tmp = Mat::alloc(sink, p.n, p.n);
    let c = Mat::alloc(sink, p.n, p.n);
    let d = Mat::alloc(sink, p.n, p.n);
    gemm_pass(p, sink, atom, a, b, tmp);
    gemm_pass(p, sink, atom, tmp, c, d);
}

fn three_mm<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let b = Mat::alloc(sink, p.n, p.n);
    let c = Mat::alloc(sink, p.n, p.n);
    let d = Mat::alloc(sink, p.n, p.n);
    let e = Mat::alloc(sink, p.n, p.n);
    let f = Mat::alloc(sink, p.n, p.n);
    let g = Mat::alloc(sink, p.n, p.n);
    gemm_pass(p, sink, atom, a, b, e);
    gemm_pass(p, sink, atom, c, d, f);
    gemm_pass(p, sink, atom, e, f, g);
}

fn syrk<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // C[i][j] += A[i][k] * A[j][k]: the block of A-rows [jj..jj+jb] over
    // columns [kk..kk+kb] plays the role of gemm's B tile.
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let c = Mat::alloc(sink, p.n, p.n);
    let n = p.n;
    let t = p.tile_side();
    for kk in (0..n).step_by(t) {
        let kb = t.min(n - kk);
        for jj in (0..n).step_by(t) {
            let jb = t.min(n - jj);
            sink.map_2d(
                atom,
                a.at(jj, kk),
                kb as u64 * ELEM,
                jb as u64,
                a.row_bytes(),
            );
            sink.activate(atom);
            for i in 0..n {
                for j in jj..jj + jb {
                    sink.load(c.at(i, j));
                    for k in kk..kk + kb {
                        sink.load(a.at(i, k));
                        sink.load(a.at(j, k));
                        sink.compute(2);
                    }
                    sink.store(c.at(i, j));
                }
            }
            sink.unmap_2d(a.at(jj, kk), kb as u64 * ELEM, jb as u64, a.row_bytes());
        }
    }
    sink.deactivate(atom);
}

fn syr2k<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // C[i][j] += A[i][k]·B[j][k] + B[i][k]·A[j][k]: both the A-row block and
    // the B-row block are high-reuse — one atom maps both (an atom can map
    // non-contiguous data, §3.2).
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let b = Mat::alloc(sink, p.n, p.n);
    let c = Mat::alloc(sink, p.n, p.n);
    let n = p.n;
    // Two blocks live at once: halve the per-block side (same realistic
    // floor as `tile_side`).
    let t = ((p.tile_bytes / 2 / ELEM) as f64).sqrt() as usize;
    let t = t.clamp(KernelParams::MIN_BLOCK_SIDE.min(n), n);
    for kk in (0..n).step_by(t) {
        let kb = t.min(n - kk);
        for jj in (0..n).step_by(t) {
            let jb = t.min(n - jj);
            sink.map_2d(
                atom,
                a.at(jj, kk),
                kb as u64 * ELEM,
                jb as u64,
                a.row_bytes(),
            );
            sink.map_2d(
                atom,
                b.at(jj, kk),
                kb as u64 * ELEM,
                jb as u64,
                b.row_bytes(),
            );
            sink.activate(atom);
            for i in 0..n {
                for j in jj..jj + jb {
                    sink.load(c.at(i, j));
                    for k in kk..kk + kb {
                        sink.load(a.at(i, k));
                        sink.load(b.at(j, k));
                        sink.load(b.at(i, k));
                        sink.load(a.at(j, k));
                        sink.compute(4);
                    }
                    sink.store(c.at(i, j));
                }
            }
            sink.unmap_2d(a.at(jj, kk), kb as u64 * ELEM, jb as u64, a.row_bytes());
            sink.unmap_2d(b.at(jj, kk), kb as u64 * ELEM, jb as u64, b.row_bytes());
        }
    }
    sink.deactivate(atom);
}

fn trmm<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // B[i][j] += A[i][k] · B[k][j] for k < i (A lower-triangular). The block
    // of B-rows [kk..kk+kb] is the reused tile.
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let b = Mat::alloc(sink, p.n, p.n);
    let n = p.n;
    let t = p.tile_side();
    for kk in (0..n).step_by(t) {
        let kb = t.min(n - kk);
        for jj in (0..n).step_by(t) {
            let jb = t.min(n - jj);
            sink.map_2d(
                atom,
                b.at(kk, jj),
                jb as u64 * ELEM,
                kb as u64,
                b.row_bytes(),
            );
            sink.activate(atom);
            // Innermost j walks the B-tile row contiguously.
            for i in kk + 1..n {
                let hi = (kk + kb).min(i);
                for k in kk..hi {
                    sink.load(a.at(i, k));
                    for j in jj..jj + jb {
                        sink.load(b.at(k, j));
                        sink.load(b.at(i, j));
                        sink.compute(2);
                        sink.store(b.at(i, j));
                    }
                }
            }
            sink.unmap_2d(b.at(kk, jj), jb as u64 * ELEM, kb as u64, b.row_bytes());
        }
    }
    sink.deactivate(atom);
}

fn mvt<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // x1 += A·y1 ; x2 += Aᵀ·y2 — the vector chunk is the reused tile; the
    // matrix streams through once per pass.
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let x1 = Mat::alloc(sink, 1, p.n);
    let y1 = Mat::alloc(sink, 1, p.n);
    let x2 = Mat::alloc(sink, 1, p.n);
    let y2 = Mat::alloc(sink, 1, p.n);
    let n = p.n;
    let t = (p.tile_bytes / ELEM).max(1).min(n as u64) as usize;

    // Pass 1: x1[i] += A[i][j] * y1[j], blocked over j.
    for jj in (0..n).step_by(t) {
        let jb = t.min(n - jj);
        sink.map(atom, y1.at(0, jj), jb as u64 * ELEM);
        sink.activate(atom);
        for i in 0..n {
            sink.load(x1.at(0, i));
            for j in jj..jj + jb {
                sink.load(a.at(i, j));
                sink.load(y1.at(0, j));
                sink.compute(2);
            }
            sink.store(x1.at(0, i));
        }
        sink.unmap(y1.at(0, jj), jb as u64 * ELEM);
    }
    // Pass 2: x2[i] += A[j][i] * y2[j]. PLUTO-style: j outer, i inner, so A
    // is walked row-major and the x2 chunk is the reused working set.
    for ii in (0..n).step_by(t) {
        let ib = t.min(n - ii);
        sink.map(atom, x2.at(0, ii), ib as u64 * ELEM);
        sink.activate(atom);
        for j in 0..n {
            sink.load(y2.at(0, j));
            for i in ii..ii + ib {
                sink.load(a.at(j, i));
                sink.load(x2.at(0, i));
                sink.compute(2);
                sink.store(x2.at(0, i));
            }
        }
        sink.unmap(x2.at(0, ii), ib as u64 * ELEM);
    }
    sink.deactivate(atom);
}

fn gemver<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // A += u1·v1ᵀ + u2·v2ᵀ; x = Aᵀ·y + z; w = A·x.
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let u1 = Mat::alloc(sink, 1, p.n);
    let v1 = Mat::alloc(sink, 1, p.n);
    let u2 = Mat::alloc(sink, 1, p.n);
    let v2 = Mat::alloc(sink, 1, p.n);
    let x = Mat::alloc(sink, 1, p.n);
    let y = Mat::alloc(sink, 1, p.n);
    let z = Mat::alloc(sink, 1, p.n);
    let w = Mat::alloc(sink, 1, p.n);
    let n = p.n;
    let t = (p.tile_bytes / ELEM).max(1).min(n as u64) as usize;

    // Rank-2 update: v1/v2 chunks are the reused data, A streams.
    for jj in (0..n).step_by(t) {
        let jb = t.min(n - jj);
        sink.map(atom, v1.at(0, jj), jb as u64 * ELEM);
        sink.map(atom, v2.at(0, jj), jb as u64 * ELEM);
        sink.activate(atom);
        for i in 0..n {
            sink.load(u1.at(0, i));
            sink.load(u2.at(0, i));
            for j in jj..jj + jb {
                sink.load(a.at(i, j));
                sink.load(v1.at(0, j));
                sink.load(v2.at(0, j));
                sink.compute(4);
                sink.store(a.at(i, j));
            }
        }
        sink.unmap(v1.at(0, jj), jb as u64 * ELEM);
        sink.unmap(v2.at(0, jj), jb as u64 * ELEM);
    }
    // x = Aᵀ·y + z: j outer / i inner walks A row-major; the x chunk is the
    // reused working set.
    for ii in (0..n).step_by(t) {
        let ib = t.min(n - ii);
        sink.map(atom, x.at(0, ii), ib as u64 * ELEM);
        sink.activate(atom);
        for j in 0..n {
            sink.load(y.at(0, j));
            for i in ii..ii + ib {
                sink.load(a.at(j, i));
                sink.load(x.at(0, i));
                sink.compute(2);
                sink.store(x.at(0, i));
            }
        }
        sink.unmap(x.at(0, ii), ib as u64 * ELEM);
    }
    for i in 0..n {
        sink.load(z.at(0, i));
        sink.load(x.at(0, i));
        sink.compute(1);
        sink.store(x.at(0, i));
    }
    // w = A·x (x chunk reused).
    for jj in (0..n).step_by(t) {
        let jb = t.min(n - jj);
        sink.map(atom, x.at(0, jj), jb as u64 * ELEM);
        sink.activate(atom);
        for i in 0..n {
            sink.load(w.at(0, i));
            for j in jj..jj + jb {
                sink.load(a.at(i, j));
                sink.load(x.at(0, j));
                sink.compute(2);
            }
            sink.store(w.at(0, i));
        }
        sink.unmap(x.at(0, jj), jb as u64 * ELEM);
    }
    sink.deactivate(atom);
}

fn gesummv<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // y = α·A·x + β·B·x: the x chunk is reused by every row of A and B.
    let atom = tile_atom(p, sink);
    let a = Mat::alloc(sink, p.n, p.n);
    let b = Mat::alloc(sink, p.n, p.n);
    let x = Mat::alloc(sink, 1, p.n);
    let y = Mat::alloc(sink, 1, p.n);
    let n = p.n;
    let t = (p.tile_bytes / ELEM).max(1).min(n as u64) as usize;
    for jj in (0..n).step_by(t) {
        let jb = t.min(n - jj);
        sink.map(atom, x.at(0, jj), jb as u64 * ELEM);
        sink.activate(atom);
        for i in 0..n {
            sink.load(y.at(0, i));
            for j in jj..jj + jb {
                sink.load(a.at(i, j));
                sink.load(b.at(i, j));
                sink.load(x.at(0, j));
                sink.compute(4);
            }
            sink.store(y.at(0, i));
        }
        sink.unmap(x.at(0, jj), jb as u64 * ELEM);
    }
    sink.deactivate(atom);
}

fn jacobi2d<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // Time-tiled 5-point Jacobi: each row block of the two grids is
    // processed for all `steps` sweeps before moving on (the PLUTO-style
    // time-tiled schedule), so the block is reused `steps` times.
    let atom = tile_atom(p, sink);
    let n = p.n;
    let a = Mat::alloc(sink, n, n);
    let b = Mat::alloc(sink, n, n);
    // Two arrays are live per block: halve the row budget.
    let rows = p.tile_rows(n * 2);
    for bb in (0..n).step_by(rows) {
        let rb = rows.min(n - bb);
        sink.map_2d(atom, a.at(bb, 0), n as u64 * ELEM, rb as u64, a.row_bytes());
        sink.map_2d(atom, b.at(bb, 0), n as u64 * ELEM, rb as u64, b.row_bytes());
        sink.activate(atom);
        for step in 0..p.steps {
            let (src, dst) = if step % 2 == 0 { (a, b) } else { (b, a) };
            for i in bb.max(1)..(bb + rb).min(n - 1) {
                for j in 1..n - 1 {
                    sink.load(src.at(i, j));
                    sink.load(src.at(i, j - 1));
                    sink.load(src.at(i, j + 1));
                    sink.load(src.at(i - 1, j));
                    sink.load(src.at(i + 1, j));
                    sink.compute(5);
                    sink.store(dst.at(i, j));
                }
            }
        }
        sink.unmap_2d(a.at(bb, 0), n as u64 * ELEM, rb as u64, a.row_bytes());
        sink.unmap_2d(b.at(bb, 0), n as u64 * ELEM, rb as u64, b.row_bytes());
    }
    sink.deactivate(atom);
}

fn seidel2d<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // In-place 9-point Gauss–Seidel, time-tiled by row blocks.
    let atom = tile_atom(p, sink);
    let n = p.n;
    let a = Mat::alloc(sink, n, n);
    let rows = p.tile_rows(n);
    for bb in (0..n).step_by(rows) {
        let rb = rows.min(n - bb);
        sink.map_2d(atom, a.at(bb, 0), n as u64 * ELEM, rb as u64, a.row_bytes());
        sink.activate(atom);
        for _step in 0..p.steps {
            for i in bb.max(1)..(bb + rb).min(n - 1) {
                for j in 1..n - 1 {
                    for di in -1i64..=1 {
                        for dj in -1i64..=1 {
                            sink.load(a.at((i as i64 + di) as usize, (j as i64 + dj) as usize));
                        }
                    }
                    sink.compute(9);
                    sink.store(a.at(i, j));
                }
            }
        }
        sink.unmap_2d(a.at(bb, 0), n as u64 * ELEM, rb as u64, a.row_bytes());
    }
    sink.deactivate(atom);
}

fn heat3d<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // 7-point 3D heat equation on an m³ grid (m = n^(2/3) to keep total work
    // comparable to the 2D kernels), time-tiled by z-plane blocks.
    let atom = tile_atom(p, sink);
    let m = ((p.n as f64).powf(2.0 / 3.0) as usize).max(8);
    let plane = m * m;
    let a = Mat::alloc(sink, m * m, m); // m planes of m×m
    let b = Mat::alloc(sink, m * m, m);
    let at = |g: Mat, z: usize, y: usize, x: usize| g.at(z * m + y, x);
    // Two grids live: planes per block from the tile budget.
    let planes = (p.tile_bytes / ELEM / (plane as u64 * 2)).max(1) as usize;
    let planes = planes.min(m);
    for zz in (0..m).step_by(planes) {
        let zb = planes.min(m - zz);
        let block_bytes = zb as u64 * plane as u64 * ELEM;
        sink.map(atom, at(a, zz, 0, 0), block_bytes);
        sink.map(atom, at(b, zz, 0, 0), block_bytes);
        sink.activate(atom);
        for step in 0..p.steps {
            let (src, dst) = if step % 2 == 0 { (a, b) } else { (b, a) };
            for z in zz.max(1)..(zz + zb).min(m - 1) {
                for y in 1..m - 1 {
                    for x in 1..m - 1 {
                        sink.load(at(src, z, y, x));
                        sink.load(at(src, z, y, x - 1));
                        sink.load(at(src, z, y, x + 1));
                        sink.load(at(src, z, y - 1, x));
                        sink.load(at(src, z, y + 1, x));
                        sink.load(at(src, z - 1, y, x));
                        sink.load(at(src, z + 1, y, x));
                        sink.compute(7);
                        sink.store(at(dst, z, y, x));
                    }
                }
            }
        }
        sink.unmap(at(a, zz, 0, 0), block_bytes);
        sink.unmap(at(b, zz, 0, 0), block_bytes);
    }
    sink.deactivate(atom);
}

fn cholesky<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // Right-looking Cholesky: at step k, column k below the diagonal is the
    // reused working set for the trailing-submatrix update. The column is a
    // strided region — mapped with `map_2d` (width = one element, pitch =
    // one row), showcasing non-contiguous atoms.
    let atom = tile_atom(p, sink);
    let n = p.n;
    let a = Mat::alloc(sink, n, n);
    let t = p.tile_side();
    for k in 0..n {
        // A[k][k] = sqrt(...)
        sink.load(a.at(k, k));
        sink.compute(4);
        sink.store(a.at(k, k));
        if k + 1 >= n {
            break;
        }
        let col_rows = (n - k - 1) as u64;
        sink.map_2d(atom, a.at(k + 1, k), ELEM, col_rows, a.row_bytes());
        sink.activate(atom);
        // Scale column k.
        for i in k + 1..n {
            sink.load(a.at(i, k));
            sink.compute(1);
            sink.store(a.at(i, k));
        }
        // Trailing update, blocked over j to bound the row working set.
        for jj in (k + 1..n).step_by(t) {
            let jhi = (jj + t).min(n);
            for i in k + 1..n {
                sink.load(a.at(i, k));
                for j in jj..jhi.min(i + 1) {
                    sink.load(a.at(j, k));
                    sink.load(a.at(i, j));
                    sink.compute(2);
                    sink.store(a.at(i, j));
                }
            }
        }
        sink.unmap_2d(a.at(k + 1, k), ELEM, col_rows, a.row_bytes());
    }
    sink.deactivate(atom);
}

fn lu<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // LU without pivoting: at step k, row k right of the diagonal is reused
    // by every row of the trailing submatrix.
    let atom = tile_atom(p, sink);
    let n = p.n;
    let a = Mat::alloc(sink, n, n);
    let t = p.tile_side();
    for k in 0..n {
        if k + 1 >= n {
            break;
        }
        let row_len = ((n - k - 1) as u64) * ELEM;
        sink.map(atom, a.at(k, k + 1), row_len);
        sink.activate(atom);
        for i in k + 1..n {
            // L multiplier.
            sink.load(a.at(i, k));
            sink.load(a.at(k, k));
            sink.compute(1);
            sink.store(a.at(i, k));
            // Update row i, blocked over j.
            for jj in (k + 1..n).step_by(t) {
                let jhi = (jj + t).min(n);
                for j in jj..jhi {
                    sink.load(a.at(k, j));
                    sink.load(a.at(i, j));
                    sink.compute(2);
                    sink.store(a.at(i, j));
                }
            }
        }
        sink.unmap(a.at(k, k + 1), row_len);
    }
    sink.deactivate(atom);
}

fn floyd_warshall<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // All-pairs shortest paths: at step k, row k and column k are the
    // reused working set for the whole n x n sweep. Both map to one atom
    // (flexible non-contiguous mapping, §3.2).
    let atom = tile_atom(p, sink);
    let n = p.n;
    let d = Mat::alloc(sink, n, n);
    // Keep total work bounded: the O(n^3) sweep uses a reduced k range,
    // identical across tile sizes.
    let steps = (p.steps).clamp(1, n);
    for k in 0..steps {
        sink.map(atom, d.at(k, 0), n as u64 * ELEM);
        sink.map_2d(atom, d.at(0, k), ELEM, n as u64, d.row_bytes());
        sink.activate(atom);
        for i in 0..n {
            sink.load(d.at(i, k));
            for j in 0..n {
                sink.load(d.at(k, j));
                sink.load(d.at(i, j));
                sink.compute(2);
                sink.store(d.at(i, j));
            }
        }
        sink.unmap(d.at(k, 0), n as u64 * ELEM);
        sink.unmap_2d(d.at(0, k), ELEM, n as u64, d.row_bytes());
    }
    sink.deactivate(atom);
}

fn adi<S: TraceSink + ?Sized>(p: &KernelParams, sink: &mut S) {
    // Alternating-direction-implicit: each time step does a row-wise sweep
    // (forward + back substitution along rows) then a column-wise sweep.
    // The active row/column block is the reused working set.
    let atom = tile_atom(p, sink);
    let n = p.n;
    let u = Mat::alloc(sink, n, n);
    let v = Mat::alloc(sink, n, n);
    let rows = p.tile_rows(n * 2);
    for _step in 0..p.steps.max(1) / 2 + 1 {
        // Row sweep: u -> v.
        for bb in (0..n).step_by(rows) {
            let rb = rows.min(n - bb);
            sink.map_2d(atom, u.at(bb, 0), n as u64 * ELEM, rb as u64, u.row_bytes());
            sink.activate(atom);
            for i in bb..bb + rb {
                for j in 1..n {
                    sink.load(u.at(i, j));
                    sink.load(u.at(i, j - 1));
                    sink.compute(3);
                    sink.store(v.at(i, j));
                }
                for j in (1..n).rev() {
                    sink.load(v.at(i, j));
                    sink.compute(2);
                    sink.store(v.at(i, j - 1));
                }
            }
            sink.unmap_2d(u.at(bb, 0), n as u64 * ELEM, rb as u64, u.row_bytes());
        }
        // Column sweep: v -> u (walk row-major per PLUTO-transposed order).
        for bb in (0..n).step_by(rows) {
            let rb = rows.min(n - bb);
            sink.map_2d(atom, v.at(bb, 0), n as u64 * ELEM, rb as u64, v.row_bytes());
            sink.activate(atom);
            for i in bb.max(1)..bb + rb {
                for j in 0..n {
                    sink.load(v.at(i, j));
                    sink.load(v.at(i - 1, j));
                    sink.compute(3);
                    sink.store(u.at(i, j));
                }
            }
            sink.unmap_2d(v.at(bb, 0), n as u64 * ELEM, rb as u64, v.row_bytes());
        }
    }
    sink.deactivate(atom);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{LogSink, TraceEvent};
    use cpu_sim::trace::Op;

    fn memory_ops(log: &LogSink) -> u64 {
        log.ops().filter(Op::is_memory).count() as u64
    }

    /// The number of hint events (everything but ops) in `log`.
    fn hints(log: &LogSink) -> usize {
        log.events().len() - log.ops().count()
    }

    fn params(tile: u64) -> KernelParams {
        KernelParams {
            n: 24,
            tile_bytes: tile,
            steps: 3,
            reuse: 192,
        }
    }

    #[test]
    fn all_kernels_generate_nonempty_traces() {
        for k in PolybenchKernel::extended() {
            let mut sink = LogSink::new();
            k.generate(&params(1024), &mut sink);
            assert!(
                memory_ops(&sink) > 1000,
                "{} produced only {} memory ops",
                k.name(),
                memory_ops(&sink)
            );
            assert!(hints(&sink) > 0, "{} expressed no atoms", k.name());
        }
    }

    #[test]
    fn work_is_tile_size_invariant() {
        // The defining property of the Fig 4 sweep: the *computation* is
        // identical across tile sizes (memory traffic legitimately varies —
        // that is precisely what blocking changes).
        for k in PolybenchKernel::extended() {
            let compute = |tile| {
                let mut sink = LogSink::new();
                k.generate(&params(tile), &mut sink);
                sink.ops()
                    .map(|o| match o {
                        Op::Compute(n) => n as u64,
                        _ => 0,
                    })
                    .sum::<u64>()
            };
            let small = compute(256);
            let large = compute(64 << 10);
            assert_eq!(
                small,
                large,
                "{}: computation varies with tile size",
                k.name()
            );
            assert!(small > 0, "{}: no compute", k.name());
        }
    }

    #[test]
    fn every_kernel_maps_and_activates() {
        for k in PolybenchKernel::extended() {
            let mut sink = LogSink::new();
            k.generate(&params(2048), &mut sink);
            let has_map = sink
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Map { .. } | TraceEvent::Map2d { .. }));
            let has_activate = sink
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Activate(_)));
            assert!(has_map && has_activate, "{} incomplete hints", k.name());
        }
    }

    #[test]
    fn smaller_tiles_mean_more_blocks() {
        let maps = |tile| {
            let mut sink = LogSink::new();
            PolybenchKernel::Gemm.generate(&params(tile), &mut sink);
            sink.events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Map2d { .. }))
                .count()
        };
        assert!(maps(256) > maps(8192));
    }

    #[test]
    fn gemm_access_count_matches_formula() {
        // Per inner iteration: B load + C load + C store = 3 ops; plus one
        // A load per (block, i, k) = n²·(n/t) ops for exact tiling.
        let n = 32usize;
        let t = 16usize; // == MIN_BLOCK_SIDE, so the floor does not kick in
        let p = KernelParams {
            n,
            tile_bytes: (t * t * 8) as u64,
            steps: 1,
            reuse: 10,
        };
        let mut sink = LogSink::new();
        PolybenchKernel::Gemm.generate(&p, &mut sink);
        let inner = (n * n * n) as u64;
        let blocks = (n / t) as u64;
        let expected = inner * 3 + (n * n) as u64 * blocks;
        assert_eq!(memory_ops(&sink), expected);
    }

    #[test]
    fn hint_overhead_is_negligible() {
        // §4.4(2): XMem ops ≤ 0.2% of instructions.
        for k in PolybenchKernel::all() {
            let mut sink = LogSink::new();
            k.generate(&params(1024), &mut sink);
            let hints = hints(&sink) as f64;
            let instructions = sink.ops().map(|o| o.instructions()).sum::<u64>() as f64;
            assert!(
                hints / instructions < 0.005,
                "{}: hint fraction {}",
                k.name(),
                hints / instructions
            );
        }
    }
}
