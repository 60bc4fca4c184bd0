//! Sparse × dense matrix multiplication (SpMM).
//!
//! Popcorn's dominant per-iteration operation is `E = −2 · K Vᵀ`
//! (paper Alg. 2 line 7), executed with cuSPARSE SpMM. Multiplying the dense
//! kernel matrix by the transposed selection matrix is equivalent to
//! `Eᵀ = −2 · V Kᵀ = −2 · V K` (K is symmetric), i.e. a sparse-times-dense
//! product with the sparse operand on the left — which is the form cuSPARSE
//! (and this module) computes. Both orientations are provided:
//!
//! * [`spmm`]: `C = alpha * A_sparse * B_dense`  (A: m×k CSR, B: k×n dense)
//! * [`spmm_transpose_b`]: `C = alpha * B_dense * A_sparseᵀ` (the literal
//!   `K Vᵀ` shape used in Eq. 10), implemented column-gather style without
//!   materialising `Vᵀ`.
//!
//! # Per-cell order contract of the dense fold
//!
//! Every output cell `(i, j)` of [`spmm_transpose_b_into`] is the fused
//! chain over `A` row `j`'s stored entries, in ascending column order,
//! followed by one scale:
//!
//! ```text
//! acc = 0;  for (l, v) in A.row(j) { acc = v.mul_add(B[i][l], acc) };  C[i][j] = alpha * acc
//! ```
//!
//! The fold only changes *which* cells run side by side: it takes `MR`
//! output rows at a time and keeps one independent chain per row for each
//! `j`, so every stored `(l, v)` is loaded once per `MR` rows; leftover
//! rows run the same chain one at a time. No chain is split, reordered or
//! reassociated, so the output is bit-identical at every tile height,
//! thread count and row partition, and bit-identical to
//! [`spmm_csr_rows_selection_t_into`] at full density.
//!
//! # Dispatch pattern
//!
//! As in `popcorn-dense`'s Gram micro-kernel, the loop nest is one generic
//! `#[inline(always)]` body compiled twice: in an `unsafe`
//! `#[target_feature(enable = "avx2,fma")]` wrapper, where `mul_add` lowers
//! to `vfmadd`, and in a portable wrapper, where `mul_add` stays a libm
//! `fma` call. [`popcorn_dense::has_fma`] picks the wrapper once per row
//! chunk. IEEE-754 fused multiply-add rounds once, so both wrappers produce
//! the same bits; no build flag or option selects between them.

use crate::csr::{CsrMatrix, CsrRows};
use crate::errors::SparseError;
use crate::Result;
use popcorn_dense::parallel::par_chunks_rows;
use popcorn_dense::{DenseMatrix, Scalar};

/// Output rows of the dense fold that share one pass over `A`'s entries.
const MR: usize = 4;

/// FLOPs performed by an SpMM between a sparse matrix with `nnz` stored
/// entries and a dense matrix with `n_cols` columns: each stored entry
/// contributes one multiply-add per output column.
pub fn spmm_flops(nnz: usize, n_cols: usize) -> u64 {
    2 * nnz as u64 * n_cols as u64
}

/// `C = alpha * A * B` where `A` is CSR (m×k) and `B` is dense (k×n).
///
/// Output rows are distributed across threads; each output row is a sparse
/// combination of rows of `B`, so the inner loop streams contiguous memory.
pub fn spmm<T: Scalar>(alpha: T, a: &CsrMatrix<T>, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm",
            expected: (a.cols(), b.rows()),
            found: (b.rows(), b.rows()),
        });
    }
    let m = a.rows();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    if n == 0 || m == 0 {
        return Ok(c);
    }
    par_chunks_rows(c.as_mut_slice(), n, |start_row, chunk| {
        for (local_i, c_row) in chunk.chunks_exact_mut(n).enumerate() {
            let i = start_row + local_i;
            let (cols, vals) = a.row(i);
            for (&k, &v) in cols.iter().zip(vals.iter()) {
                let av = alpha * v;
                let b_row = b.row(k);
                for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_ij = av.mul_add(b_kj, *c_ij);
                }
            }
        }
    });
    Ok(c)
}

/// `C = alpha * B * Aᵀ` where `B` is dense (m×k) and `A` is CSR (n×k), so the
/// result is m×n. This is the literal `K Vᵀ` orientation of paper Eq. 10 with
/// `B = K` (n×n dense) and `A = V` (k×n sparse).
///
/// Each output column `j` is a sparse combination of columns of `B` selected
/// by row `j` of `A`; we iterate output rows in parallel and, within a row,
/// accumulate `C[i][j] = Σ_l A[j][l] * B[i][l]` using the CSR row of `A`.
pub fn spmm_transpose_b<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    a: &CsrMatrix<T>,
) -> Result<DenseMatrix<T>> {
    let mut c = DenseMatrix::zeros(b.rows(), a.rows());
    spmm_transpose_b_into(alpha, b, a, c.as_mut_slice())?;
    Ok(c)
}

/// [`spmm_transpose_b`] writing into a caller-provided row-major buffer of
/// `b.rows() × a.rows()` entries (every cell is overwritten). The streaming
/// kernel-matrix path uses this to compute a row tile's slice of
/// `E = −2 K Vᵀ` directly into the shared accumulator, with no intermediate
/// matrix: output values are identical to the allocating variant bit for bit
/// (each cell is an independent overwrite).
///
/// Every cell follows the module's
/// [per-cell order contract](self#per-cell-order-contract-of-the-dense-fold):
/// `acc = fma(v, B[i][l], acc)` over `A` row `j`'s stored `(l, v)` in
/// ascending `l`, then `alpha * acc`. Rows are split across threads, and
/// each chunk runs the hardware-FMA or the portable build of the same
/// body ([dispatch](self#dispatch-pattern)); neither choice changes a bit.
pub fn spmm_transpose_b_into<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    a: &CsrMatrix<T>,
    out: &mut [T],
) -> Result<()> {
    if b.cols() != a.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_transpose_b",
            expected: (b.cols(), b.cols()),
            found: (a.cols(), a.cols()),
        });
    }
    let m = b.rows();
    let n = a.rows();
    if out.len() != m * n {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_transpose_b_into (output)",
            expected: (m, n),
            found: (out.len(), 1),
        });
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    par_chunks_rows(out, n, |start_row, chunk| {
        fold_rows(alpha, b, start_row, a, chunk)
    });
    Ok(())
}

/// Writes `alpha * (B row · Aᵀ)` for the whole output rows held in `c`
/// (width `a.rows()`); row `r` of `c` pairs with row `b_row0 + r` of `b`.
/// Dispatches to the hardware-FMA or the portable build of [`fold_rows_body`].
fn fold_rows<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    b_row0: usize,
    a: &CsrMatrix<T>,
    c: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    if popcorn_dense::has_fma() {
        // SAFETY: `has_fma` just confirmed the CPU supports AVX2 and FMA,
        // every feature `fold_rows_fma` enables.
        unsafe { fold_rows_fma(alpha, b, b_row0, a, c) };
        return;
    }
    fold_rows_portable(alpha, b, b_row0, a, c);
}

/// [`fold_rows`] compiled with hardware FMA and AVX2 lanes.
///
/// # Safety
/// The running CPU must support the `avx2` and `fma` target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fold_rows_fma<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    b_row0: usize,
    a: &CsrMatrix<T>,
    c: &mut [T],
) {
    fold_rows_body(alpha, b, b_row0, a, c);
}

/// [`fold_rows`] compiled for the baseline target.
fn fold_rows_portable<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    b_row0: usize,
    a: &CsrMatrix<T>,
    c: &mut [T],
) {
    fold_rows_body(alpha, b, b_row0, a, c);
}

#[inline(always)]
fn fold_rows_body<T: Scalar>(
    alpha: T,
    b: &DenseMatrix<T>,
    b_row0: usize,
    a: &CsrMatrix<T>,
    c: &mut [T],
) {
    let n = a.rows();
    if n == 0 {
        return;
    }
    let mut blocks = c.chunks_exact_mut(MR * n);
    let mut i = b_row0;
    for block in blocks.by_ref() {
        let b_rows = std::array::from_fn(|r| b.row(i + r));
        for j in 0..n {
            let (cols, vals) = a.row(j);
            let acc = fold_cells::<T, MR>(b_rows, cols, vals);
            for (r, acc_r) in acc.into_iter().enumerate() {
                block[r * n + j] = alpha * acc_r;
            }
        }
        i += MR;
    }
    for c_row in blocks.into_remainder().chunks_exact_mut(n) {
        let b_row = [b.row(i)];
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            let (cols, vals) = a.row(j);
            let [acc] = fold_cells::<T, 1>(b_row, cols, vals);
            *c_ij = alpha * acc;
        }
        i += 1;
    }
}

/// `M` independent chains of one output column: `acc[r]` folds the stored
/// `(l, v)` of one `A` row against `b_rows[r][l]`, in ascending `l`.
#[inline(always)]
fn fold_cells<T: Scalar, const M: usize>(b_rows: [&[T]; M], cols: &[usize], vals: &[T]) -> [T; M] {
    let mut acc = [T::ZERO; M];
    for (&l, &v) in cols.iter().zip(vals) {
        for (acc_r, b_r) in acc.iter_mut().zip(&b_rows) {
            *acc_r = v.mul_add(b_r[l], *acc_r);
        }
    }
    acc
}

/// `out[i, :] = alpha * (panel_row_i · Vᵀ)` where `V` is a selection matrix
/// given implicitly by `labels` (point → cluster) and `cluster_weights`
/// (`V`'s stored value per cluster row, `1/|L_j|`), and `panel` is a sparse
/// row panel of the symmetric kernel matrix `K`.
///
/// This is the **sparse-K** counterpart of [`spmm_transpose_b_into`]'s dense
/// `E = alpha · K Vᵀ` tile fold, and it is bit-identical to it whenever the
/// panel stores every entry the dense tile holds (exact zeros included):
/// for each output cell `(i, j)` the dense fold accumulates
/// `acc = fma(v_j, K[i, l], acc)` over `V` row `j`'s stored columns `l` in
/// ascending order, then writes `alpha * acc`. Streaming the panel row's
/// stored `(l, K[i, l])` pairs in ascending `l` and scattering each into
/// accumulator `labels[l]` performs, per cluster `j`, exactly that operand
/// sequence on an independent accumulator — and the trailing in-place
/// `alpha *` scale matches the dense write. Cells of empty clusters stay at
/// the zeroed `+0.0` and scale to the same `alpha * 0.0` the dense fold
/// produces. Cost is `O(panel_nnz + rows · k)` instead of `O(rows · n · k)`.
///
/// Accumulation happens directly in `out` (the caller's slice of the shared
/// `n × k` accumulator): no scratch buffer, no allocation.
pub fn spmm_csr_rows_selection_t_into<T: Scalar>(
    alpha: T,
    panel: CsrRows<'_, T>,
    labels: &[usize],
    cluster_weights: &[T],
    out: &mut [T],
    k: usize,
) -> Result<()> {
    let rows = panel.row_count();
    if labels.len() != panel.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_csr_rows_selection_t_into (labels)",
            expected: (panel.cols(), 1),
            found: (labels.len(), 1),
        });
    }
    if out.len() != rows * k {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_csr_rows_selection_t_into (output)",
            expected: (rows, k),
            found: (out.len(), 1),
        });
    }
    if cluster_weights.len() != k {
        return Err(SparseError::DimensionMismatch {
            op: "spmm_csr_rows_selection_t_into (weights)",
            expected: (k, 1),
            found: (cluster_weights.len(), 1),
        });
    }
    if rows == 0 || k == 0 {
        return Ok(());
    }
    par_chunks_rows(out, k, |start_row, chunk| {
        for (local, out_row) in chunk.chunks_exact_mut(k).enumerate() {
            out_row.fill(T::ZERO);
            let (cols, vals) = panel.row(start_row + local);
            for (&l, &v) in cols.iter().zip(vals.iter()) {
                let j = labels[l];
                out_row[j] = cluster_weights[j].mul_add(v, out_row[j]);
            }
            for c in out_row.iter_mut() {
                *c = alpha * *c;
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::matmul;

    fn sparse_sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 3 0]
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]).unwrap(),
        )
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let a = sparse_sample();
        let b = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let c = spmm(1.0, &a, &b).unwrap();
        let reference = matmul(&a.to_dense(), &b).unwrap();
        assert!(c.approx_eq(&reference, 1e-12, 1e-12));
    }

    #[test]
    fn spmm_applies_alpha() {
        let a = sparse_sample();
        let b = DenseMatrix::identity(3);
        let c = spmm(-2.0, &a, &b).unwrap();
        let mut expected = a.to_dense();
        expected.scale(-2.0);
        assert!(c.approx_eq(&expected, 1e-12, 1e-12));
    }

    #[test]
    fn spmm_rejects_bad_shapes() {
        let a = sparse_sample();
        let b = DenseMatrix::<f64>::zeros(2, 2);
        assert!(spmm(1.0, &a, &b).is_err());
    }

    #[test]
    fn spmm_empty_dense_columns() {
        let a = sparse_sample();
        let b = DenseMatrix::<f64>::zeros(3, 0);
        let c = spmm(1.0, &a, &b).unwrap();
        assert_eq!(c.shape(), (2, 0));
    }

    #[test]
    fn spmm_zero_sparse_matrix() {
        let a = CsrMatrix::<f64>::zeros(4, 3);
        let b = DenseMatrix::<f64>::filled(3, 2, 1.0);
        let c = spmm(1.0, &a, &b).unwrap();
        assert_eq!(c, DenseMatrix::zeros(4, 2));
    }

    #[test]
    fn spmm_transpose_b_matches_dense_reference() {
        // K (4x4 symmetric-ish dense) times Vᵀ where V is 2x4 sparse
        let k = DenseMatrix::<f64>::from_fn(4, 4, |i, j| ((i + j) as f64).sin() + 0.5);
        let v = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 1.0, 0.0]]).unwrap(),
        );
        let fast = spmm_transpose_b(-2.0, &k, &v).unwrap();
        let mut reference = matmul(&k, &v.to_dense().transpose()).unwrap();
        reference.scale(-2.0);
        assert!(fast.approx_eq(&reference, 1e-12, 1e-12));
        assert_eq!(fast.shape(), (4, 2));
    }

    #[test]
    fn spmm_transpose_b_rejects_bad_shapes() {
        let k = DenseMatrix::<f64>::zeros(4, 4);
        let v = CsrMatrix::<f64>::zeros(2, 5);
        assert!(spmm_transpose_b(1.0, &k, &v).is_err());
    }

    #[test]
    fn both_orientations_consistent_for_symmetric_dense() {
        // For symmetric K: (V * K)ᵀ == K * Vᵀ
        let base = DenseMatrix::<f64>::from_fn(5, 5, |i, j| ((i * 5 + j) as f64 * 0.3).cos());
        let mut k = base.clone();
        // symmetrise
        for i in 0..5 {
            for j in 0..5 {
                let avg = 0.5 * (base[(i, j)] + base[(j, i)]);
                k[(i, j)] = avg;
            }
        }
        let v = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                vec![1.0, 0.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.5, 0.5, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0, 1.0],
            ])
            .unwrap(),
        );
        let left = spmm(1.0, &v, &k).unwrap(); // V*K : 3x5
        let right = spmm_transpose_b(1.0, &k, &v).unwrap(); // K*Vᵀ : 5x3
        assert!(left.transpose().approx_eq(&right, 1e-12, 1e-12));
    }

    #[test]
    fn flop_count() {
        assert_eq!(spmm_flops(10, 5), 100);
        assert_eq!(spmm_flops(0, 5), 0);
    }

    /// Values spread over several binades, with both signs, so any change
    /// of rounding or association shows in the low bits.
    fn fold_sample<T: Scalar>(rows: usize, cols: usize, salt: usize) -> DenseMatrix<T> {
        DenseMatrix::from_fn(rows, cols, |i, j| {
            let t = ((i * 131 + j * 17 + salt) as f64 * 0.618).sin();
            T::from_f64(t * (1.0 + ((i + 3 * j) % 7) as f64 * 3.7))
        })
    }

    /// A `k × n` selection-shaped `V` (column `l` stored in row `l % k`, or
    /// `l % (k - 1)` when `k > 2` so that the last cluster is empty) with
    /// weights `1/|L_j|`.
    fn fold_selection<T: Scalar>(k: usize, n: usize) -> CsrMatrix<T> {
        let owner = |l: usize| if k > 2 { l % (k - 1) } else { l % k };
        let size = |j: usize| (0..n).filter(|&l| owner(l) == j).count();
        CsrMatrix::from_dense(&DenseMatrix::from_fn(k, n, |j, l| {
            if owner(l) == j {
                T::from_f64(1.0 / size(j) as f64)
            } else {
                T::ZERO
            }
        }))
    }

    /// The per-cell loop the blocked fold replaced: the oracle every result
    /// must match bit for bit.
    fn fold_oracle<T: Scalar>(alpha: T, b: &DenseMatrix<T>, a: &CsrMatrix<T>) -> Vec<T> {
        let mut want = Vec::with_capacity(b.rows() * a.rows());
        for i in 0..b.rows() {
            for j in 0..a.rows() {
                let (cols, vals) = a.row(j);
                let mut acc = T::ZERO;
                for (&l, &v) in cols.iter().zip(vals) {
                    acc = v.mul_add(b[(i, l)], acc);
                }
                want.push(alpha * acc);
            }
        }
        want
    }

    fn assert_fold_bits<T: Scalar>(got: &[T], want: &[T], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{what}: cell {idx} is {g}, oracle {w}"
            );
        }
    }

    fn fold_entry_points_agree<T: Scalar>() {
        let alpha = T::from_f64(-2.0);
        let n = 11;
        for k in [1usize, 3, 10] {
            let a = fold_selection::<T>(k, n);
            if k > 2 {
                assert_eq!(a.row(k - 1).0.len(), 0, "k={k}: last cluster is empty");
            }
            for rows in [0usize, 1, 3, 4, 5, 7, 9] {
                let b = fold_sample::<T>(rows, n, k);
                let want = fold_oracle(alpha, &b, &a);
                let what = format!("k={k} rows={rows}");
                // Each entry point over the whole matrix and over row chunks
                // cut off the 4-row grid, as the thread partition cuts them.
                for cuts in [&[][..], &[1, 2], &[3, 8]] {
                    let cuts: Vec<usize> = cuts.iter().copied().filter(|&c| c < rows).collect();
                    let run = |entry: &dyn Fn(usize, &mut [T])| {
                        let mut got = vec![T::from_f64(7.0); rows * k];
                        let mut rest = got.as_mut_slice();
                        let mut row0 = 0;
                        for &end in cuts.iter().chain(std::iter::once(&rows)) {
                            let (head, tail) = rest.split_at_mut((end - row0) * k);
                            entry(row0, head);
                            rest = tail;
                            row0 = end;
                        }
                        got
                    };
                    let portable = |row0, c: &mut [T]| fold_rows_portable(alpha, &b, row0, &a, c);
                    assert_fold_bits(&run(&portable), &want, &format!("portable {what} {cuts:?}"));
                    #[cfg(target_arch = "x86_64")]
                    if popcorn_dense::has_fma() {
                        let fma = |row0, c: &mut [T]| {
                            // SAFETY: guarded by `has_fma` just above.
                            unsafe { fold_rows_fma(alpha, &b, row0, &a, c) }
                        };
                        assert_fold_bits(&run(&fma), &want, &format!("fma {what} {cuts:?}"));
                    }
                }
                // The public entry fed tile slices of `B` matches the whole
                // matrix at every tile height.
                let mut whole = vec![T::ZERO; rows * k];
                spmm_transpose_b_into(alpha, &b, &a, &mut whole).unwrap();
                assert_fold_bits(&whole, &want, &format!("whole {what}"));
                for tile_rows in [1usize, 2, 3, 4, 5] {
                    let mut tiled = vec![T::ZERO; rows * k];
                    for r0 in (0..rows).step_by(tile_rows) {
                        let r1 = (r0 + tile_rows).min(rows);
                        let tile = DenseMatrix::from_fn(r1 - r0, n, |li, l| b[(r0 + li, l)]);
                        spmm_transpose_b_into(alpha, &tile, &a, &mut tiled[r0 * k..r1 * k])
                            .unwrap();
                    }
                    assert_fold_bits(&tiled, &whole, &format!("tiles of {tile_rows} {what}"));
                }
            }
        }
    }

    #[test]
    fn fold_portable_and_fma_entry_points_give_identical_bits() {
        fold_entry_points_agree::<f32>();
        fold_entry_points_agree::<f64>();
    }

    /// A CSR matrix storing *every* entry of `dense` — exact zeros included —
    /// so the sparse fold sees exactly the dense tile's operand sequence.
    fn csr_all_entries(dense: &DenseMatrix<f64>) -> CsrMatrix<f64> {
        let (rows, cols) = dense.shape();
        let mut row_ptrs = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::with_capacity(rows * cols);
        let mut values = Vec::with_capacity(rows * cols);
        row_ptrs.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                col_indices.push(j);
                values.push(v);
            }
            row_ptrs.push(values.len());
        }
        CsrMatrix::from_raw(rows, cols, row_ptrs, col_indices, values).unwrap()
    }

    #[test]
    fn selection_fold_is_bit_identical_to_dense_fold_at_full_density() {
        let n = 9;
        let k = 3;
        let kmat = DenseMatrix::<f64>::from_fn(n, n, |i, j| {
            ((i.min(j) * n + i.max(j)) as f64 * 0.37).sin() * 2.0
        });
        let labels: Vec<usize> = vec![0, 2, 0, 2, 2, 0, 2, 0, 2];
        // Cluster 1 is empty: its column must still match the dense -0.0.
        let mut cardinalities = vec![0usize; k];
        for &l in &labels {
            cardinalities[l] += 1;
        }
        let weights: Vec<f64> = cardinalities
            .iter()
            .map(|&c| if c == 0 { 0.0 } else { 1.0 / c as f64 })
            .collect();
        // The dense reference: V as explicit CSR, folded per tile.
        let mut v_rows = vec![vec![0.0f64; n]; k];
        for (l, &j) in labels.iter().enumerate() {
            v_rows[j][l] = weights[j];
        }
        let v = CsrMatrix::from_dense(&DenseMatrix::from_rows(&v_rows).unwrap());
        let sparse_k = csr_all_entries(&kmat);
        for tile_rows in [1usize, 2, 4, 9] {
            let mut dense_out = vec![0.0f64; n * k];
            let mut sparse_out = vec![0.0f64; n * k];
            let mut r0 = 0usize;
            while r0 < n {
                let r1 = (r0 + tile_rows).min(n);
                let tile = DenseMatrix::from_fn(r1 - r0, n, |li, j| kmat[(r0 + li, j)]);
                spmm_transpose_b_into(-2.0, &tile, &v, &mut dense_out[r0 * k..r1 * k]).unwrap();
                spmm_csr_rows_selection_t_into(
                    -2.0,
                    sparse_k.rows_view(r0..r1),
                    &labels,
                    &weights,
                    &mut sparse_out[r0 * k..r1 * k],
                    k,
                )
                .unwrap();
                r0 = r1;
            }
            for (i, (a, b)) in dense_out.iter().zip(sparse_out.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tile_rows {tile_rows} cell {i}: dense {a} sparse {b}"
                );
            }
        }
    }

    #[test]
    fn selection_fold_validates_shapes() {
        let kmat = DenseMatrix::<f64>::filled(3, 3, 1.0);
        let csr = csr_all_entries(&kmat);
        let labels = vec![0usize, 1, 0];
        let weights = vec![0.5f64, 1.0];
        let mut out = vec![0.0f64; 6];
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels,
            &weights,
            &mut out,
            2
        )
        .is_ok());
        // Wrong label count.
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels[..2],
            &weights,
            &mut out,
            2
        )
        .is_err());
        // Wrong output size.
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels,
            &weights,
            &mut out[..4],
            2
        )
        .is_err());
        // Wrong weight count.
        assert!(spmm_csr_rows_selection_t_into(
            -2.0,
            csr.rows_view(0..3),
            &labels,
            &weights[..1],
            &mut out,
            2
        )
        .is_err());
    }
}
