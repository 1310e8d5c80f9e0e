//! im2col / col2im: convolution as a GEMM over a batched column matrix.
//!
//! A batch `x` of shape `[n, in_c, in_h, in_w]` unfolds into the batched
//! column matrix `[col_rows, n · col_cols]`: row `r` is the tap
//! `(c, kh, kw)` in lexicographic order, and sample `i` occupies the column
//! slice `i·cc..(i+1)·cc` of every row. One whole-batch GEMM over it
//! replaces a per-sample loop without changing any per-output-element
//! accumulation order (the GEMM `k` dimension — `col_rows` — is untouched by
//! batching).
//!
//! Both directions are table driven. [`pad_batch`] copies the batch once
//! into a zero-padded buffer `[n, in_c, hp, wp]` (`hp = in_h + 2·pad`,
//! `wp = in_w + 2·pad`; with `pad == 0` the batch itself already has that
//! layout). Every column value is then a plain gather
//! `xp[c·hp·wp + tab[tap][i·cc + j]]` with no per-element padding test,
//! where the [`ColTable`] holds, per kernel tap `(kh, kw)` and batched
//! column, the offset of the tap's pixel relative to channel `c`'s plane of
//! sample 0. [`col2im_batched`] runs the same table backwards as a
//! scatter-add.
//!
//! Both kernels take a [`ColRows`] row selection. A dense layer passes
//! [`ColRows::All`]; a sparse layer passes the ascending list of weight
//! columns that hold at least one stored entry, so it gathers, and later
//! scatters back, only the column rows its sparse weight reads.
//!
//! [`conv2d_fused_into_rt`] never materializes the column matrix at all: its
//! implicit-GEMM pack source gathers through the same table straight into
//! the GEMM's packed `B` panels, byte-identical to packing a materialized
//! matrix.

use crate::matmul::{gemm_src, GemmShape, PackBSource};
use crate::Tensor;
use ft_runtime::Runtime;
use std::ops::Range;
use std::sync::Arc;

/// Geometry of a 2-D convolution over a single sample.
///
/// The same geometry object drives the forward im2col, the backward
/// col2im, and the analytic FLOPs accounting in `ft-metrics`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_h(&self) -> usize {
        checked_out(self.in_h, self.kernel, self.stride, self.pad)
    }

    /// Output width after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_w(&self) -> usize {
        checked_out(self.in_w, self.kernel, self.stride, self.pad)
    }

    /// Rows of the im2col matrix: `in_c * kernel * kernel`.
    pub fn col_rows(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Sides `(in_h + 2·pad, in_w + 2·pad)` of one zero-padded plane.
    pub fn padded_hw(&self) -> (usize, usize) {
        (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad)
    }

    /// Floats per sample of the zero-padded input: `in_c · hp · wp`.
    pub fn padded_len(&self) -> usize {
        let (hp, wp) = self.padded_hw();
        self.in_c * hp * wp
    }
}

fn checked_out(dim: usize, k: usize, s: usize, p: usize) -> usize {
    let padded = dim + 2 * p;
    assert!(
        padded >= k && s > 0,
        "kernel {k} with stride {s} does not fit input dim {dim} (pad {p})"
    );
    (padded - k) / s + 1
}

/// Columns per tap a [`ColTable`] row aims for. A batch whose columns
/// outnumber it runs in blocks of `⌈TABLE_COLS / col_cols⌉` samples, which
/// bounds a table at `kernel² · max(col_cols, TABLE_COLS)` entries while
/// keeping gather runs that long.
const TABLE_COLS: usize = 256;

/// Gather table of one convolution geometry.
///
/// For kernel tap `t = kh·k + kw` and batched column `j = i·cc + oy·ow + ox`
/// of the first `block` samples it stores
/// `i·in_c·hp·wp + (oy·stride + kh)·wp + ox·stride + kw`: the offset of that
/// tap's pixel in a zero-padded batch, relative to the start of the tap's
/// channel plane in sample 0. Along a tap's row the offsets strictly
/// ascend, since `ox·stride + kw < wp`.
///
/// Sample `i`'s offsets do not depend on the batch size, so a smaller batch
/// (an epoch's tail batch) reads a prefix of every tap's row, and a larger
/// one reads the row once per block of `block` samples, shifted by the
/// block's first sample. The table is built for the largest batch it has
/// been fitted to, up to one block of 256 columns. The offsets sit behind
/// an [`Arc`], so cloning a layer shares them instead of copying them.
#[derive(Clone, Debug, Default)]
pub struct ColTable {
    geom: Option<ConvGeom>,
    /// Samples covered by each tap's row.
    block: usize,
    /// `col_cols` of `geom`.
    cc: usize,
    /// `padded_len` of `geom`.
    sample: usize,
    /// `[kernel², block · cc]` offsets.
    offs: Arc<[u32]>,
}

impl ColTable {
    /// Makes the table cover batches of `n` samples of geometry `g`,
    /// rebuilding it only when the geometry changed or `n` needs more
    /// samples per row than it holds.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the input or one block of padded
    /// samples has more than `u32::MAX` elements.
    pub fn fit(&mut self, g: &ConvGeom, n: usize) {
        if self.covers(g, n) {
            return;
        }
        let (_, wp) = g.padded_hw();
        let (oh, ow) = (g.out_h(), g.out_w());
        let (cc, sample) = (oh * ow, g.padded_len());
        let block = n.min(TABLE_COLS.div_ceil(cc.max(1)));
        assert!(
            block.saturating_mul(sample) <= u32::MAX as usize,
            "{block} padded samples of {sample} floats overflow the u32 gather table"
        );
        let mut offs = Vec::with_capacity(g.kernel * g.kernel * block * cc);
        for kh in 0..g.kernel {
            for kw in 0..g.kernel {
                for i in 0..block {
                    for oy in 0..oh {
                        let row = i * sample + (oy * g.stride + kh) * wp + kw;
                        offs.extend((0..ow).map(|ox| (row + ox * g.stride) as u32));
                    }
                }
            }
        }
        *self = ColTable {
            geom: Some(*g),
            block,
            cc,
            sample,
            offs: offs.into(),
        };
    }

    fn covers(&self, g: &ConvGeom, n: usize) -> bool {
        self.geom == Some(*g) && n.min(TABLE_COLS.div_ceil(self.cc.max(1))) <= self.block
    }

    fn check(&self, g: &ConvGeom, n: usize) {
        assert!(
            self.covers(g, n),
            "ColTable fitted to {:?} x{} is used for {g:?} x{n}",
            self.geom,
            self.block
        );
    }

    /// Walks the batched columns `cols` of tap `tap` in runs that stay
    /// within one block: `f(base, offs, at)` gets the run's block offset
    /// `base`, its table offsets, and its position `at` relative to
    /// `cols.start`. Column `cols.start + at + k` sits at `base + offs[k]`.
    #[inline(always)]
    fn runs(&self, tap: usize, cols: Range<usize>, mut f: impl FnMut(usize, &[u32], usize)) {
        let width = self.block * self.cc;
        let row = &self.offs[tap * width..][..width];
        let (mut base, mut r) = (
            cols.start / width * self.block * self.sample,
            cols.start % width,
        );
        let mut at = 0;
        while at < cols.len() {
            let len = (width - r).min(cols.len() - at);
            f(base, &row[r..r + len], at);
            at += len;
            base += self.block * self.sample;
            r = 0;
        }
    }
}

/// The column-matrix rows an [`im2col_batched_rt`] or [`col2im_batched`]
/// call works on.
#[derive(Clone, Copy, Debug)]
pub enum ColRows<'a> {
    /// Every row `0..col_rows`, in order: the full column matrix.
    All,
    /// Only the listed rows, strictly ascending: row `k` of the compacted
    /// column matrix is row `rows[k]` of the full one.
    Only(&'a [u32]),
}

impl<'a> ColRows<'a> {
    /// Rows selected out of a full column matrix of `full` rows.
    pub fn len(&self, full: usize) -> usize {
        match self {
            ColRows::All => full,
            ColRows::Only(rows) => rows.len(),
        }
    }

    /// `(channel, tap)` of each compacted row in `range`, in order, for
    /// `taps` kernel taps per channel. Consecutive rows step the pair, so
    /// only a gap in the selection costs a division.
    #[inline(always)]
    fn taps(self, range: Range<usize>, taps: usize) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (mut next, mut c, mut tap) = (0, 0, 0);
        range.map(move |k| {
            let r = match self {
                ColRows::All => k,
                ColRows::Only(rows) => rows[k] as usize,
            };
            if r != next {
                (c, tap) = (r / taps, r % taps);
            }
            next = r + 1;
            let at = (c, tap);
            tap += 1;
            if tap == taps {
                (c, tap) = (c + 1, 0);
            }
            at
        })
    }

    /// Checks that the selection is strictly ascending and below `full`.
    fn check(&self, full: usize) {
        if let ColRows::Only(rows) = self {
            assert!(
                rows.windows(2).all(|w| w[0] < w[1])
                    && rows.last().is_none_or(|&r| (r as usize) < full),
                "ColRows must ascend strictly below {full}"
            );
        }
    }
}

/// Visits the rows of the padded-batch interior (one per `(sample,
/// channel, y)`, in order): `f(padded_start, row_index)`.
#[inline(always)]
fn interior_rows(rows: usize, g: &ConvGeom, mut f: impl FnMut(usize, usize)) {
    let (p, (hp, wp)) = (g.pad, g.padded_hw());
    let (mut start, mut y) = (p * wp + p, 0);
    for r in 0..rows {
        f(start, r);
        y += 1;
        if y == g.in_h {
            y = 0;
            start += (hp - g.in_h + 1) * wp;
        } else {
            start += wp;
        }
    }
}

/// `dst.copy_from_slice(src)`, without the `memcpy` call for the one-float
/// rows of 1-pixel layers, where the call would cost more than the copy.
#[inline(always)]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    if let ([d], [s]) = (&mut *dst, src) {
        *d = *s;
    } else {
        dst.copy_from_slice(src);
    }
}

/// Copies the batch `x` (`[n, in_c, in_h, in_w]` flat) into `xp` as the
/// zero-padded batch `[n, in_c, hp, wp]` that [`im2col_batched_rt`] and
/// [`conv2d_fused_into_rt`] gather from. `xp` is resized in place and every
/// element is written, so a reused buffer does not reallocate at a steady
/// batch size. With `pad == 0` this is a plain copy.
///
/// # Panics
///
/// Panics if `x` does not hold `n` samples of the geometry.
pub fn pad_batch(x: &[f32], n: usize, g: &ConvGeom, xp: &mut Vec<f32>) {
    assert_eq!(
        x.len(),
        n * g.in_c * g.in_h * g.in_w,
        "pad_batch input length mismatch"
    );
    xp.clear();
    if g.pad == 0 {
        xp.extend_from_slice(x);
        return;
    }
    xp.resize(n * g.padded_len(), 0.0);
    let w = g.in_w;
    interior_rows(x.len() / w, g, |at, r| {
        copy_row(&mut xp[at..at + w], &x[r * w..(r + 1) * w]);
    });
}

/// Unfolds a zero-padded batch `xp` (see [`pad_batch`]; with `pad == 0`,
/// the batch itself) into the rows `rows` of the batched column matrix:
/// `out` is `[rows.len(col_rows), n · col_cols]`, with the rows fanned out
/// over `rt`'s workers. Every element is a pure copy of an input value or
/// of a padding zero, so the result is byte-identical at any thread count,
/// and a selected row is byte-identical to the same row of the full matrix.
///
/// # Panics
///
/// Panics if `tab` is not fitted to `g` and `n`, if `rows` is not strictly
/// ascending below `col_rows`, or on a length mismatch.
pub fn im2col_batched_rt(
    rt: &Runtime,
    xp: &[f32],
    n: usize,
    g: &ConvGeom,
    tab: &ColTable,
    rows: ColRows<'_>,
    out: &mut [f32],
) {
    tab.check(g, n);
    rows.check(g.col_rows());
    let (nrows, ncc) = (rows.len(g.col_rows()), n * g.col_cols());
    assert_eq!(
        xp.len(),
        n * g.padded_len(),
        "im2col_batched input length mismatch"
    );
    assert_eq!(
        out.len(),
        nrows * ncc,
        "im2col_batched output length mismatch"
    );
    if ncc == 0 {
        return;
    }
    if !rt.should_parallelize(out.len()) || nrows <= 1 {
        return gather_rows(xp, n, g, tab, rows, 0..nrows, out);
    }
    let jobs = rt.split_rows_mut(out, ncc);
    rt.scatter(jobs, |(range, chunk)| {
        gather_rows(xp, n, g, tab, rows, range, chunk);
    });
}

/// Gathers the compacted column-matrix rows `range` of the selection
/// `rows`; `chunk` holds exactly those rows.
fn gather_rows(
    xp: &[f32],
    n: usize,
    g: &ConvGeom,
    tab: &ColTable,
    rows: ColRows<'_>,
    range: Range<usize>,
    chunk: &mut [f32],
) {
    let (taps, (hp, wp)) = (g.kernel * g.kernel, g.padded_hw());
    let ncc = n * tab.cc;
    for ((c, tap), dst) in rows.taps(range, taps).zip(chunk.chunks_exact_mut(ncc)) {
        let plane = &xp[c * hp * wp..];
        tab.runs(tap, 0..ncc, |base, offs, at| {
            gather(&plane[base..], offs, &mut dst[at..at + offs.len()]);
        });
    }
}

/// Offsets per contiguity probe in [`gather`] / [`scatter_add`].
const LANE: usize = 8;

/// `dst[k] = src[offs[k]]` over one run of table offsets.
///
/// Offsets ascend strictly within a run (see [`ColTable`]), so a lane of
/// [`LANE`] offsets whose ends lie `LANE - 1` apart is contiguous and moves
/// as one slice copy — the common case for stride-1 output rows. Either
/// way every element is the same pure copy.
#[inline(always)]
fn gather(src: &[f32], offs: &[u32], dst: &mut [f32]) {
    let dst = &mut dst[..offs.len()];
    let mut lanes = dst.chunks_exact_mut(LANE);
    let mut lane_offs = offs.chunks_exact(LANE);
    for (d, o) in (&mut lanes).zip(&mut lane_offs) {
        let o0 = o[0] as usize;
        if o[LANE - 1] as usize == o0 + LANE - 1 {
            d.copy_from_slice(&src[o0..o0 + LANE]);
        } else {
            gather_each(src, o, d);
        }
    }
    gather_each(src, lane_offs.remainder(), lanes.into_remainder());
}

/// Element-wise [`gather`].
#[inline(always)]
fn gather_each(src: &[f32], offs: &[u32], dst: &mut [f32]) {
    for (d, &o) in dst.iter_mut().zip(offs) {
        *d = src[o as usize];
    }
}

/// `dst[offs[k]] += src[k]` over one run of table offsets, in order; the
/// scatter twin of [`gather`], with the same contiguous-lane fast path.
/// Offsets within a run are distinct, so lane order does not change any
/// element's sum.
#[inline(always)]
fn scatter_add(src: &[f32], offs: &[u32], dst: &mut [f32]) {
    let src = &src[..offs.len()];
    let mut lanes = src.chunks_exact(LANE);
    let mut lane_offs = offs.chunks_exact(LANE);
    for (v, o) in (&mut lanes).zip(&mut lane_offs) {
        let o0 = o[0] as usize;
        if o[LANE - 1] as usize == o0 + LANE - 1 {
            for (a, &v) in dst[o0..o0 + LANE].iter_mut().zip(v) {
                *a += v;
            }
        } else {
            scatter_each(v, o, dst);
        }
    }
    scatter_each(lanes.remainder(), lane_offs.remainder(), dst);
}

/// Element-wise [`scatter_add`].
#[inline(always)]
fn scatter_each(src: &[f32], offs: &[u32], dst: &mut [f32]) {
    for (&o, &v) in offs.iter().zip(src) {
        dst[o as usize] += v;
    }
}

/// Folds the rows `rows` of a batched column-space gradient back into image
/// space, *overwriting* `gx` (`[n, in_c, in_h, in_w]` flat): the adjoint of
/// [`im2col_batched_rt`], used for the convolution input gradient. `dcol`
/// is `[rows.len(col_rows), n · col_cols]`.
///
/// Rows are scatter-added through the table in ascending order into `acc`,
/// a zeroed padded batch (resized in place), whose interior is then copied
/// out; with `pad == 0` the adds land in `gx` directly. One row never hits
/// the same pixel twice, so every input element receives `+0.0` followed by
/// its taps' contributions in ascending row order — the accumulation order
/// of the scalar per-sample definition, hence bit-identical to it.
///
/// Leaving out a row is the same as folding it in as all `+0.0`: an
/// accumulator that starts at `+0.0` never becomes `-0.0` (a sum is `-0.0`
/// only when both addends are), and adding `+0.0` to anything else changes
/// no bit. So a compacted `dcol` whose omitted rows would have been `+0.0`
/// folds bit-identically to the full one.
///
/// # Panics
///
/// Panics if `tab` is not fitted to `g` and `n`, if `rows` is not strictly
/// ascending below `col_rows`, or on a length mismatch.
pub fn col2im_batched(
    dcol: &[f32],
    n: usize,
    g: &ConvGeom,
    tab: &ColTable,
    rows: ColRows<'_>,
    acc: &mut Vec<f32>,
    gx: &mut [f32],
) {
    tab.check(g, n);
    rows.check(g.col_rows());
    let ncc = n * g.col_cols();
    assert_eq!(
        dcol.len(),
        rows.len(g.col_rows()) * ncc,
        "col2im_batched input length mismatch"
    );
    assert_eq!(
        gx.len(),
        n * g.in_c * g.in_h * g.in_w,
        "col2im_batched output length mismatch"
    );
    if g.pad == 0 {
        gx.fill(0.0);
        return scatter_rows(dcol, n, g, tab, rows, gx);
    }
    acc.clear();
    acc.resize(n * g.padded_len(), 0.0);
    scatter_rows(dcol, n, g, tab, rows, acc);
    let w = g.in_w;
    interior_rows(gx.len() / w, g, |at, r| {
        copy_row(&mut gx[r * w..(r + 1) * w], &acc[at..at + w]);
    });
}

/// Scatter-adds every row of the compacted `dcol` into the padded batch
/// `acc` at its full-matrix row, rows in ascending order.
fn scatter_rows(
    dcol: &[f32],
    n: usize,
    g: &ConvGeom,
    tab: &ColTable,
    rows: ColRows<'_>,
    acc: &mut [f32],
) {
    let (taps, (hp, wp)) = (g.kernel * g.kernel, g.padded_hw());
    let ncc = n * tab.cc;
    if ncc == 0 {
        return;
    }
    let srcs = dcol.chunks_exact(ncc);
    for ((c, tap), src) in rows.taps(0..srcs.len(), taps).zip(srcs) {
        let plane = &mut acc[c * hp * wp..];
        tab.runs(tap, 0..ncc, |base, offs, at| {
            scatter_add(&src[at..], offs, &mut plane[base..]);
        });
    }
}

/// Implicit-GEMM pack source: gathers the batched column matrix
/// `[col_rows, n · col_cols]` through the table straight into the GEMM's
/// packed `B` panels. Every generated value is the same pure copy (or
/// padding zero) that [`im2col_batched_rt`] would have written and that
/// `pack_b` would then have copied, so the packed panels are byte-identical
/// to the materialized path and the GEMM output is bit-identical.
struct ImageCols<'a> {
    xp: &'a [f32],
    tab: &'a ColTable,
    taps: usize,
    plane: usize,
}

impl PackBSource for ImageCols<'_> {
    fn pack(&self, nr: usize, kr: Range<usize>, cols: Range<usize>, out: &mut [f32]) {
        let kc = kr.len();
        let mut j0 = cols.start;
        let mut strip = 0usize;
        while j0 < cols.end {
            let valid = (cols.end - j0).min(nr);
            let panel = &mut out[strip * kc * nr..(strip + 1) * kc * nr];
            for (row, dst) in kr.clone().zip(panel.chunks_exact_mut(nr)) {
                let plane = &self.xp[(row / self.taps) * self.plane..];
                self.tab
                    .runs(row % self.taps, j0..j0 + valid, |base, offs, at| {
                        gather(&plane[base..], offs, &mut dst[at..at + offs.len()]);
                    });
                dst[valid..].fill(0.0);
            }
            j0 += nr;
            strip += 1;
        }
    }
}

/// Fused dense convolution: `out += W · cols_b(x)` where `W` is the
/// `[out_c, col_rows]` weight matrix and `cols_b(x)` is the batched column
/// matrix of the zero-padded batch `xp` (see [`pad_batch`]) — except the
/// column matrix is never materialized: the GEMM packs its `B` panels
/// straight out of `xp` through `tab`. Output shape is
/// `[out_c, n · col_cols]`, accumulating like the other `_into` kernels,
/// and the result is bit-identical to `matmul_into_rt(w, cols_b, out)` on a
/// materialized batched column matrix.
///
/// # Panics
///
/// Panics if `tab` is not fitted to `g` and `n`, or if shapes do not match
/// the geometry.
pub fn conv2d_fused_into_rt(
    rt: &Runtime,
    w: &Tensor,
    xp: &[f32],
    n: usize,
    g: &ConvGeom,
    tab: &ColTable,
    out: &mut Tensor,
) {
    tab.check(g, n);
    let cr = g.col_rows();
    let ncc = n * g.col_cols();
    assert_eq!(w.shape(), &[w.shape()[0], cr], "fused conv weight shape");
    let oc = w.shape()[0];
    assert_eq!(
        xp.len(),
        n * g.padded_len(),
        "fused conv input length mismatch"
    );
    assert_eq!(out.shape(), &[oc, ncc], "fused conv output shape");
    let (hp, wp) = g.padded_hw();
    let src = ImageCols {
        xp,
        tab,
        taps: g.kernel * g.kernel,
        plane: hp * wp,
    };
    let shape = GemmShape {
        k: cr,
        n: ncc,
        lda: cr,
        ldb: ncc,
    };
    if !rt.should_parallelize(oc.saturating_mul(cr).saturating_mul(ncc)) || oc <= 1 {
        return gemm_src::<false, _>(&shape, w.data(), &src, 0..oc, out.data_mut());
    }
    let wd = w.data();
    let jobs = rt.split_rows_mut(out.data_mut(), ncc.max(1));
    rt.scatter(jobs, |(rows, cchunk)| {
        gemm_src::<false, _>(&shape, wd, &src, rows, cchunk);
    });
}

/// Reference direct convolution of one sample; used by tests to validate the
/// im2col path. `w` has shape `[out_c, in_c, k, k]` flat.
pub fn conv2d_direct(x: &[f32], w: &[f32], g: &ConvGeom, out_c: usize) -> Tensor {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = Tensor::zeros(&[out_c, oh, ow]);
    let od = out.data_mut();
    for oc in 0..out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ic in 0..g.in_c {
                    for kh in 0..g.kernel {
                        for kw in 0..g.kernel {
                            let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            if iy >= 0
                                && (iy as usize) < g.in_h
                                && ix >= 0
                                && (ix as usize) < g.in_w
                            {
                                let xv = x[(ic * g.in_h + iy as usize) * g.in_w + ix as usize];
                                let wv = w[((oc * g.in_c + ic) * g.kernel + kh) * g.kernel + kw];
                                acc += xv * wv;
                            }
                        }
                    }
                }
                od[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Random values with a share of `+0.0` / `-0.0`, so a kernel that
    /// rewrites a copied zero (or starts an accumulator from `-0.0`) shows.
    fn signed_zero_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.gen_range(0u32..6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// The definition of the batched column matrix: a per-element bounds
    /// test, zero outside the image.
    fn ref_im2col(x: &[f32], n: usize, g: &ConvGeom) -> Vec<f32> {
        let (oh, ow, cc) = (g.out_h(), g.out_w(), g.col_cols());
        let mut out = vec![f32::NAN; g.col_rows() * n * cc];
        for r in 0..g.col_rows() {
            let (c, kh, kw) = (
                r / (g.kernel * g.kernel),
                (r / g.kernel) % g.kernel,
                r % g.kernel,
            );
            for i in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        let inside =
                            iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w;
                        out[r * n * cc + i * cc + oy * ow + ox] = if inside {
                            x[((i * g.in_c + c) * g.in_h + iy as usize) * g.in_w + ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
        out
    }

    /// The definition of col2im: every input element starts at `+0.0` and
    /// receives its taps' contributions in ascending row order.
    fn ref_col2im(dcol: &[f32], n: usize, g: &ConvGeom) -> Vec<f32> {
        let (oh, ow, cc) = (g.out_h(), g.out_w(), g.col_cols());
        let mut out = vec![0.0f32; n * g.in_c * g.in_h * g.in_w];
        for r in 0..g.col_rows() {
            let (c, kh, kw) = (
                r / (g.kernel * g.kernel),
                (r / g.kernel) % g.kernel,
                r % g.kernel,
            );
            for i in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        if iy >= 0 && (iy as usize) < g.in_h && ix >= 0 && (ix as usize) < g.in_w {
                            out[((i * g.in_c + c) * g.in_h + iy as usize) * g.in_w
                                + ix as usize] += dcol[r * n * cc + i * cc + oy * ow + ox];
                        }
                    }
                }
            }
        }
        out
    }

    /// Runs the table-driven im2col with fresh scratch.
    fn unfold(rt: &Runtime, x: &[f32], n: usize, g: &ConvGeom) -> Vec<f32> {
        let mut tab = ColTable::default();
        tab.fit(g, n);
        let mut xp = Vec::new();
        pad_batch(x, n, g, &mut xp);
        let mut out = vec![f32::NAN; g.col_rows() * n * g.col_cols()];
        im2col_batched_rt(rt, &xp, n, g, &tab, ColRows::All, &mut out);
        out
    }

    /// Runs the table-driven col2im with fresh scratch.
    fn fold(dcol: &[f32], n: usize, g: &ConvGeom) -> Vec<f32> {
        let mut tab = ColTable::default();
        tab.fit(g, n);
        let mut gx = vec![f32::NAN; n * g.in_c * g.in_h * g.in_w];
        col2im_batched(dcol, n, g, &tab, ColRows::All, &mut Vec::new(), &mut gx);
        gx
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the table-driven im2col over the row selection `live` with
    /// fresh scratch.
    fn unfold_live(rt: &Runtime, x: &[f32], n: usize, g: &ConvGeom, live: &[u32]) -> Vec<f32> {
        let mut tab = ColTable::default();
        tab.fit(g, n);
        let mut xp = Vec::new();
        pad_batch(x, n, g, &mut xp);
        let mut out = vec![f32::NAN; live.len() * n * g.col_cols()];
        im2col_batched_rt(rt, &xp, n, g, &tab, ColRows::Only(live), &mut out);
        out
    }

    /// The rows `live` of a row-major matrix whose rows are `ncc` long.
    fn pick_rows(full: &[f32], ncc: usize, live: &[u32]) -> Vec<f32> {
        live.iter()
            .flat_map(|&r| &full[r as usize * ncc..(r as usize + 1) * ncc])
            .copied()
            .collect()
    }

    /// A row selection out of `rows`: every row, none, or each row kept
    /// with probability 1/2 (by `seed`).
    fn live_rows(rows: usize, pick: usize, seed: u64) -> Vec<u32> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..rows as u32)
            .filter(|_| match pick {
                0 => true,
                1 => false,
                _ => rng.gen_range(0u32..2) == 0,
            })
            .collect()
    }

    /// Kernel 1–3, stride 1–3, pad 0–2, odd sides 1–11, `in_c` 1–5.
    fn geom_strategy() -> impl Strategy<Value = ConvGeom> {
        (
            1usize..=3,
            1usize..=3,
            0usize..=2,
            0usize..6,
            0usize..6,
            1usize..=5,
        )
            .prop_map(|(kernel, stride, pad, h, w, in_c)| ConvGeom {
                in_c,
                in_h: 2 * h + 1,
                in_w: 2 * w + 1,
                kernel,
                stride,
                pad,
            })
    }

    fn fits(g: &ConvGeom) -> bool {
        g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel
    }

    /// Batch sizes under test: 1, 2 and 7 samples.
    const BATCHES: [usize; 3] = [1, 2, 7];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The batched im2col is byte-identical to its definition.
        #[test]
        fn im2col_batched_matches_definition(
            g in geom_strategy(),
            b in 0usize..3,
            seed in 0u64..1000,
        ) {
            prop_assume!(fits(&g));
            let n = BATCHES[b];
            let x = signed_zero_vec(n * g.in_c * g.in_h * g.in_w, seed);
            let got = unfold(&Runtime::sequential(), &x, n, &g);
            prop_assert_eq!(bits(&got), bits(&ref_im2col(&x, n, &g)), "{:?} n={}", g, n);
        }

        /// The batched col2im is byte-identical to its definition.
        #[test]
        fn col2im_batched_matches_definition(
            g in geom_strategy(),
            b in 0usize..3,
            seed in 0u64..1000,
        ) {
            prop_assume!(fits(&g));
            let n = BATCHES[b];
            let dcol = signed_zero_vec(g.col_rows() * n * g.col_cols(), seed);
            prop_assert_eq!(
                bits(&fold(&dcol, n, &g)),
                bits(&ref_col2im(&dcol, n, &g)),
                "{:?} n={}", g, n
            );
        }

        /// Parallel im2col is byte-identical to the sequential form.
        #[test]
        fn rt_im2col_batched_matches_sequential(
            g in geom_strategy(),
            b in 0usize..3,
            seed in 0u64..1000,
        ) {
            prop_assume!(fits(&g));
            let n = BATCHES[b];
            let x = signed_zero_vec(n * g.in_c * g.in_h * g.in_w, seed);
            let seq = unfold(&Runtime::sequential(), &x, n, &g);
            for threads in [2usize, 4, 64] {
                let par = unfold(&Runtime::exact(threads).with_min_work(0), &x, n, &g);
                prop_assert_eq!(bits(&par), bits(&seq), "threads={}", threads);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// im2col over a row selection (all rows, none, or a random subset)
        /// is byte-identical to the selected rows of the full matrix.
        #[test]
        fn im2col_live_rows_match_full_rows(
            g in geom_strategy(),
            b in 0usize..3,
            pick in 0usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(fits(&g));
            let n = BATCHES[b];
            let live = live_rows(g.col_rows(), pick, seed + 7);
            let x = signed_zero_vec(n * g.in_c * g.in_h * g.in_w, seed);
            let rt = Runtime::sequential();
            let full = unfold(&rt, &x, n, &g);
            prop_assert_eq!(
                bits(&unfold_live(&rt, &x, n, &g, &live)),
                bits(&pick_rows(&full, n * g.col_cols(), &live)),
                "{:?} n={} live={:?}", g, n, live
            );
        }

        /// col2im of a compacted gradient (live rows only, with signed
        /// zeros) is byte-identical to col2im of the full gradient whose
        /// other rows are `+0.0`.
        #[test]
        fn col2im_live_rows_match_full_with_zero_rows(
            g in geom_strategy(),
            b in 0usize..3,
            pick in 0usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(fits(&g));
            let n = BATCHES[b];
            let ncc = n * g.col_cols();
            let live = live_rows(g.col_rows(), pick, seed + 7);
            let compact = signed_zero_vec(live.len() * ncc, seed);
            let mut full = vec![0.0f32; g.col_rows() * ncc];
            for (k, &r) in live.iter().enumerate() {
                full[r as usize * ncc..][..ncc].copy_from_slice(&compact[k * ncc..][..ncc]);
            }
            let mut tab = ColTable::default();
            tab.fit(&g, n);
            let mut gx = vec![f32::NAN; n * g.in_c * g.in_h * g.in_w];
            col2im_batched(&compact, n, &g, &tab, ColRows::Only(&live), &mut Vec::new(), &mut gx);
            prop_assert_eq!(bits(&gx), bits(&fold(&full, n, &g)), "{:?} n={} live={:?}", g, n, live);
        }

        /// Parallel im2col over a row selection is byte-identical to the
        /// sequential form.
        #[test]
        fn rt_im2col_live_rows_matches_sequential(
            g in geom_strategy(),
            b in 0usize..3,
            pick in 0usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(fits(&g));
            let n = BATCHES[b];
            let live = live_rows(g.col_rows(), pick, seed + 7);
            let x = signed_zero_vec(n * g.in_c * g.in_h * g.in_w, seed);
            let seq = unfold_live(&Runtime::sequential(), &x, n, &g, &live);
            for threads in [2usize, 4, 64] {
                let rt = Runtime::exact(threads).with_min_work(0);
                let par = unfold_live(&rt, &x, n, &g, &live);
                prop_assert_eq!(bits(&par), bits(&seq), "threads={}", threads);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ColRows must ascend")]
    fn unsorted_row_selection_is_rejected() {
        let g = ConvGeom {
            in_c: 2,
            in_h: 3,
            in_w: 3,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let _ = unfold_live(&Runtime::sequential(), &[0.0; 18], 1, &g, &[1, 0]);
    }

    #[test]
    fn geometry() {
        let g = ConvGeom {
            in_c: 3,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 8);
        assert_eq!(g.out_w(), 8);
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 64);
        assert_eq!(g.padded_hw(), (10, 10));
        assert_eq!(g.padded_len(), 300);
        let g2 = ConvGeom {
            in_c: 1,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(g2.out_h(), 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn geometry_rejects_oversized_kernel() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 2,
            in_w: 2,
            kernel: 5,
            stride: 1,
            pad: 0,
        };
        let _ = g.out_h();
    }

    #[test]
    #[should_panic(expected = "ColTable fitted to")]
    fn unfitted_table_is_rejected() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut tab = ColTable::default();
        tab.fit(&g, 2);
        let mut out = vec![0.0; g.col_rows() * 3 * g.col_cols()];
        im2col_batched_rt(
            &Runtime::sequential(),
            &[0.0; 75],
            3,
            &g,
            &tab,
            ColRows::All,
            &mut out,
        );
    }

    #[test]
    fn im2col_matmul_matches_direct_conv() {
        for (stride, pad) in [(1, 1), (2, 1), (1, 0)] {
            let g = ConvGeom {
                in_c: 3,
                in_h: 7,
                in_w: 6,
                kernel: 3,
                stride,
                pad,
            };
            let out_c = 4;
            let x = rand_vec(g.in_c * g.in_h * g.in_w, 10 + stride as u64);
            let w = rand_vec(out_c * g.col_rows(), 20 + pad as u64);
            let col = unfold(&Runtime::sequential(), &x, 1, &g);
            let wt = Tensor::from_vec(w.clone(), &[out_c, g.col_rows()]);
            let colt = Tensor::from_vec(col, &[g.col_rows(), g.col_cols()]);
            let got = wt.matmul(&colt);
            let expect = conv2d_direct(&x, &w, &g, out_c);
            assert_close(got.data(), expect.data(), 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let g = ConvGeom {
            in_c: 2,
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let n = 3;
        let x = rand_vec(n * g.in_c * g.in_h * g.in_w, 33);
        let y = rand_vec(g.col_rows() * n * g.col_cols(), 44);
        let cx = unfold(&Runtime::sequential(), &x, n, &g);
        let lhs: f32 = cx.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let xy = fold(&y, n, &g);
        let rhs: f32 = x.iter().zip(xy.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// One set of scratch buffers driven through a full batch, a tail
    /// batch, the full batch again and a geometry switch. The tail batch
    /// reads a prefix of the table and the full batch comes back to it
    /// without a rebuild; the switch rebuilds, and its geometry's wide rows
    /// run the 32- and 5-sample batches block by block. Every call stays
    /// byte-identical to the definition.
    #[test]
    fn scratch_reuse_across_batches_and_geometries() {
        let geom = |in_c, side| ConvGeom {
            in_c,
            in_h: side,
            in_w: side,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let (g2, g8) = (geom(32, 2), geom(8, 8));
        let rt = Runtime::sequential();
        let (mut tab, mut xp, mut acc) = (ColTable::default(), Vec::new(), Vec::new());
        let mut prev = ColTable::default();
        let steps = [
            (g2, 32usize, true),
            (g2, 5, false),
            (g2, 32, false),
            (g8, 32, true),
            (g8, 5, false),
        ];
        for (step, (g, n, rebuilds)) in steps.into_iter().enumerate() {
            tab.fit(&g, n);
            assert_eq!(!Arc::ptr_eq(&tab.offs, &prev.offs), rebuilds, "step {step}");
            prev = tab.clone();
            let x = signed_zero_vec(n * g.in_c * g.in_h * g.in_w, 500 + step as u64);
            pad_batch(&x, n, &g, &mut xp);
            let mut cols = vec![f32::NAN; g.col_rows() * n * g.col_cols()];
            im2col_batched_rt(&rt, &xp, n, &g, &tab, ColRows::All, &mut cols);
            assert_eq!(
                bits(&cols),
                bits(&ref_im2col(&x, n, &g)),
                "im2col step {step}"
            );
            let mut gx = vec![f32::NAN; x.len()];
            col2im_batched(&cols, n, &g, &tab, ColRows::All, &mut acc, &mut gx);
            assert_eq!(
                bits(&gx),
                bits(&ref_col2im(&cols, n, &g)),
                "col2im step {step}"
            );
        }
        assert!(tab.block < 5, "8x8 rows hold fewer samples than the batch");
    }

    /// The fused implicit-GEMM conv must be *bit-identical* to the GEMM over
    /// a materialized batched column matrix, at every thread count and for
    /// a table fitted to a larger batch — the packed panels are byte-equal,
    /// so the arithmetic is too.
    #[test]
    fn rt_fused_conv_is_bit_identical_to_materialized_gemm() {
        use crate::matmul::matmul_into;
        for (n, oc, stride, pad) in [(1usize, 1usize, 1, 0), (2, 4, 2, 1), (7, 5, 1, 1)] {
            let g = ConvGeom {
                in_c: 3,
                in_h: 9,
                in_w: 6,
                kernel: 3,
                stride,
                pad,
            };
            let (cr, cc) = (g.col_rows(), g.col_cols());
            let x = rand_vec(n * g.in_c * g.in_h * g.in_w, 90 + n as u64);
            let w = Tensor::from_vec(rand_vec(oc * cr, 91 + oc as u64), &[oc, cr]);
            let cols_b = ref_im2col(&x, n, &g);
            let colst = Tensor::from_vec(cols_b, &[cr, n * cc]);
            let mut expect = Tensor::ones(&[oc, n * cc]);
            matmul_into(&w, &colst, &mut expect);
            let mut tab = ColTable::default();
            tab.fit(&g, n + 3);
            let mut xp = Vec::new();
            pad_batch(&x, n, &g, &mut xp);
            for threads in [1usize, 2, 4] {
                let rt = Runtime::exact(threads).with_min_work(0);
                let mut got = Tensor::ones(&[oc, n * cc]);
                conv2d_fused_into_rt(&rt, &w, &xp, n, &g, &tab, &mut got);
                assert_eq!(got.data(), expect.data(), "n={n} oc={oc} threads={threads}");
            }
        }
    }
}
