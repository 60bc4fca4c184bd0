//! Register-blocked `A · Bᵀ` micro-kernel shared by [`crate::syrk`] and the
//! `A · Bᵀ` branch of [`crate::gemm`] (`matmul_nt`, `matmul_nt_rows`).
//!
//! # Per-entry order contract
//!
//! Every output entry `(i, j)` is the sequential k-order fused chain
//!
//! ```text
//! acc = 0;  for k in 0..d { acc = a_i[k].mul_add(b_j[k], acc) }
//! ```
//!
//! handed to the caller's write (`prev + α·acc` in SYRK, `c_ij += α·acc` in
//! GEMM). The kernel only changes *which* entries run side by side: an
//! `MR x NR` tile keeps `MR · NR` independent chains in registers, and per
//! `k` broadcasts `a_i[k]` against a packed `k`-major panel of `NR` rows of
//! `B`. No entry's chain is split, reordered or reassociated, so the result
//! is bit-identical to the plain per-entry dot-product loop at every tile
//! shape, thread count and row partition.
//!
//! # Dispatch pattern
//!
//! The loop nest is one generic `#[inline(always)]` body compiled twice: in
//! an `unsafe` `#[target_feature(enable = "avx2,fma")]` wrapper, where
//! `mul_add` lowers to `vfmadd` and the lanes vectorise, and in a portable
//! wrapper, where `mul_add` stays a libm `fma` call. The wrapper is chosen
//! once per call with [`crate::has_fma`]. IEEE-754 fused
//! multiply-add rounds once, so both wrappers produce the same bits; no
//! build flag or option selects between them. The micro-tile must stay its
//! own `#[inline(always)]` function: written inline in the loop nest, LLVM
//! does not vectorise it.

use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::syrk::Triangle;

/// Rows of `A` per register tile.
const MR: usize = 4;
/// Rows of `B` (output columns) per register tile and packed panel.
const NR: usize = 16;

/// For every entry `(i, j)` of the output rows held in `c` that lies in
/// `region` (`None` for all of them), computes the dot product of
/// `a.row(a_row0 + i)` and `b.row(j)` under the order contract above and
/// calls `write(&mut c[i][j], acc)`.
///
/// `c` holds whole output rows of width `b.rows()`; its row `i` pairs with
/// row `a_row0 + i` of `A`, and `region` compares that row index against
/// the column `j`. Entries outside `region` are left untouched.
pub(crate) fn nt_rows<T: Scalar, W: Fn(&mut T, T)>(
    a: &DenseMatrix<T>,
    a_row0: usize,
    b: &DenseMatrix<T>,
    c: &mut [T],
    region: Option<Triangle>,
    write: W,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::has_fma() {
        // SAFETY: `has_fma` just confirmed the CPU supports AVX2 and FMA,
        // every feature `nt_rows_fma` enables.
        unsafe { nt_rows_fma(a, a_row0, b, c, region, write) };
        return;
    }
    nt_rows_portable(a, a_row0, b, c, region, write);
}

/// [`nt_rows`] compiled with hardware FMA and AVX2 lanes.
///
/// # Safety
/// The running CPU must support the `avx2` and `fma` target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn nt_rows_fma<T: Scalar, W: Fn(&mut T, T)>(
    a: &DenseMatrix<T>,
    a_row0: usize,
    b: &DenseMatrix<T>,
    c: &mut [T],
    region: Option<Triangle>,
    write: W,
) {
    nt_rows_body(a, a_row0, b, c, region, write);
}

/// [`nt_rows`] compiled for the baseline target.
fn nt_rows_portable<T: Scalar, W: Fn(&mut T, T)>(
    a: &DenseMatrix<T>,
    a_row0: usize,
    b: &DenseMatrix<T>,
    c: &mut [T],
    region: Option<Triangle>,
    write: W,
) {
    nt_rows_body(a, a_row0, b, c, region, write);
}

#[inline(always)]
fn nt_rows_body<T: Scalar, W: Fn(&mut T, T)>(
    a: &DenseMatrix<T>,
    a_row0: usize,
    b: &DenseMatrix<T>,
    c: &mut [T],
    region: Option<Triangle>,
    write: W,
) {
    let n = b.rows();
    let d = a.cols();
    assert_eq!(b.cols(), d, "inner dimensions differ");
    if n == 0 || c.is_empty() {
        return;
    }
    assert_eq!(c.len() % n, 0, "output is not a whole number of rows");
    let rows = c.len() / n;
    // One packed d x NR panel of B, reused by every row tile of this call.
    let mut panel = vec![T::ZERO; d * NR];
    for j0 in (0..n).step_by(NR) {
        let jn = NR.min(n - j0);
        // Local rows owning at least one entry of columns j0..j0 + jn.
        let (lo, hi) = match region {
            None => (0, rows),
            Some(Triangle::Lower) => (j0.saturating_sub(a_row0).min(rows), rows),
            Some(Triangle::Upper) => (0, (j0 + jn).saturating_sub(a_row0).min(rows)),
        };
        if lo >= hi {
            continue;
        }
        pack_panel(b, j0, jn, &mut panel);
        let mut store = |i: usize, acc: &[T; NR]| {
            let row = a_row0 + i;
            let (s, e) = match region {
                None => (0, jn),
                Some(Triangle::Lower) => (0, (row + 1 - j0).min(jn)),
                Some(Triangle::Upper) => (row.saturating_sub(j0), jn),
            };
            let c_row = &mut c[i * n + j0 + s..i * n + j0 + e];
            for (c_ij, &v) in c_row.iter_mut().zip(&acc[s..e]) {
                write(c_ij, v);
            }
        };
        let mut i = lo;
        while i + MR <= hi {
            let acc = tile::<T, MR>(std::array::from_fn(|r| a.row(a_row0 + i + r)), &panel);
            for (r, acc_r) in acc.iter().enumerate() {
                store(i + r, acc_r);
            }
            i += MR;
        }
        for i in i..hi {
            let [acc] = tile::<T, 1>([a.row(a_row0 + i)], &panel);
            store(i, &acc);
        }
    }
}

/// Packs rows `j0..j0 + jn` of `b` `k`-major into `panel`
/// (`panel[k * NR + jj] = b[j0 + jj][k]`), zero-filling lanes `jn..NR`.
#[inline(always)]
fn pack_panel<T: Scalar>(b: &DenseMatrix<T>, j0: usize, jn: usize, panel: &mut [T]) {
    for jj in 0..NR {
        let lane = panel.iter_mut().skip(jj).step_by(NR);
        if jj < jn {
            for (p, &v) in lane.zip(b.row(j0 + jj)) {
                *p = v;
            }
        } else {
            lane.for_each(|p| *p = T::ZERO);
        }
    }
}

/// One `M x NR` register tile: `acc[r][jj]` is the k-order fused dot
/// product of `a[r]` with panel lane `jj`.
#[inline(always)]
fn tile<T: Scalar, const M: usize>(a: [&[T]; M], panel: &[T]) -> [[T; NR]; M] {
    let d = panel.len() / NR;
    let a = a.map(|row| &row[..d]);
    let mut acc = [[T::ZERO; NR]; M];
    for (k, p) in panel.chunks_exact(NR).enumerate() {
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            let x = a_r[k];
            for (acc_rj, &y) in acc_r.iter_mut().zip(p) {
                *acc_rj = x.mul_add(y, *acc_rj);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, matmul_nt, matmul_nt_rows, Transpose};
    use crate::syrk::syrk;

    /// The per-entry dot-product loop the micro-kernel replaced: the oracle
    /// every result must match bit for bit.
    fn dot_oracle<T: Scalar>(x: &[T], y: &[T]) -> T {
        let mut acc = T::ZERO;
        for (x, y) in x.iter().zip(y) {
            acc = x.mul_add(*y, acc);
        }
        acc
    }

    fn in_region(region: Option<Triangle>, i: usize, j: usize) -> bool {
        match region {
            None => true,
            Some(Triangle::Lower) => j <= i,
            Some(Triangle::Upper) => j >= i,
        }
    }

    /// Values spread over several binades, with both signs, so any change
    /// of rounding or association shows in the low bits.
    fn sample<T: Scalar>(rows: usize, cols: usize, salt: usize) -> DenseMatrix<T> {
        DenseMatrix::from_fn(rows, cols, |i, j| {
            let t = ((i * 131 + j * 17 + salt) as f64 * 0.618).sin();
            T::from_f64(t * (1.0 + ((i + 3 * j) % 7) as f64 * 3.7))
        })
    }

    fn assert_bits<T: Scalar>(got: &DenseMatrix<T>, want: &DenseMatrix<T>, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{what}: entry {idx} is {g}, oracle {w}"
            );
        }
    }

    /// Row counts below, at and past every tile edge, including the empty
    /// matrix.
    const SIZES: [usize; 7] = [0, 1, 3, 5, 16, 17, 37];
    /// Inner dimensions including the empty and length-1 dot products.
    const DEPTHS: [usize; 3] = [0, 1, 784];

    fn syrk_matches_oracle<T: Scalar>() {
        let (alpha, beta3) = (T::from_f64(0.7), T::from_f64(3.0));
        for n in SIZES {
            for d in DEPTHS {
                let a = sample::<T>(n, d, 1);
                for triangle in [Triangle::Lower, Triangle::Upper] {
                    for beta in [T::ZERO, beta3] {
                        let c0 = sample::<T>(n, n, 2);
                        let mut want = c0.clone();
                        for i in 0..n {
                            for j in 0..n {
                                if in_region(Some(triangle), i, j) {
                                    let acc = dot_oracle(a.row(i), a.row(j));
                                    let prev = if beta == T::ZERO {
                                        T::ZERO
                                    } else {
                                        beta * want[(i, j)]
                                    };
                                    want[(i, j)] = prev + alpha * acc;
                                }
                            }
                        }
                        let mut got = c0.clone();
                        syrk(alpha, &a, beta, &mut got, triangle).unwrap();
                        assert_bits(&got, &want, &format!("syrk {triangle:?} n={n} d={d}"));
                    }
                }
            }
        }
    }

    fn gemm_nt_matches_oracle<T: Scalar>() {
        for (m, n) in [(0, 5), (5, 0), (1, 1), (3, 17), (37, 5), (17, 37)] {
            for d in DEPTHS {
                let a = sample::<T>(m, d, 3);
                let b = sample::<T>(n, d, 4);
                let want = DenseMatrix::from_fn(m, n, |i, j| {
                    T::ZERO + T::ONE * dot_oracle(a.row(i), b.row(j))
                });
                let what = format!("matmul_nt {m}x{n} d={d}");
                assert_bits(&matmul_nt(&a, &b).unwrap(), &want, &what);
                for (r0, r1) in [(0, m), (0, m.min(1)), (m / 3, m), (m / 2, m / 2)] {
                    let panel = matmul_nt_rows(&a, r0, r1, &b).unwrap();
                    let want_rows = DenseMatrix::from_fn(r1 - r0, n, |i, j| want[(r0 + i, j)]);
                    assert_bits(&panel, &want_rows, &format!("{what} rows {r0}..{r1}"));
                }
                // gemm's own α·acc write onto a β-scaled output.
                let (alpha, beta) = (T::from_f64(-1.3), T::from_f64(3.0));
                let c0 = sample::<T>(m, n, 5);
                let want = DenseMatrix::from_fn(m, n, |i, j| {
                    beta * c0[(i, j)] + alpha * dot_oracle(a.row(i), b.row(j))
                });
                let mut got = c0.clone();
                gemm(alpha, &a, Transpose::No, &b, Transpose::Yes, beta, &mut got).unwrap();
                assert_bits(&got, &want, &format!("gemm nt α,β {m}x{n} d={d}"));
            }
        }
    }

    #[test]
    fn syrk_is_bit_identical_to_per_entry_oracle_f32() {
        syrk_matches_oracle::<f32>();
    }

    #[test]
    fn syrk_is_bit_identical_to_per_entry_oracle_f64() {
        syrk_matches_oracle::<f64>();
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_per_entry_oracle_f32() {
        gemm_nt_matches_oracle::<f32>();
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_per_entry_oracle_f64() {
        gemm_nt_matches_oracle::<f64>();
    }

    /// Runs `entry(row0, chunk)` over a `rows x n` output cut at `cuts`
    /// (each chunk its own call, as the thread partition does).
    fn run_chunked<T: Scalar>(
        entry: &dyn Fn(usize, &mut [T]),
        rows: usize,
        n: usize,
        cuts: &[usize],
    ) -> DenseMatrix<T> {
        let mut c = DenseMatrix::filled(rows, n, T::from_f64(-9.0));
        let mut rest = c.as_mut_slice();
        let mut row0 = 0;
        for &end in cuts.iter().chain(std::iter::once(&rows)) {
            let (head, tail) = rest.split_at_mut((end - row0) * n);
            entry(row0, head);
            rest = tail;
            row0 = end;
        }
        c
    }

    fn entry_points_agree<T: Scalar>() {
        let (rows, n, d) = (23, 21, 784);
        let a = sample::<T>(rows, d, 6);
        let b = sample::<T>(n, d, 7);
        let write = |c: &mut T, acc: T| *c = acc;
        for region in [None, Some(Triangle::Lower), Some(Triangle::Upper)] {
            let want = DenseMatrix::from_fn(rows, n, |i, j| {
                if in_region(region, i, j) {
                    dot_oracle(a.row(i), b.row(j))
                } else {
                    T::from_f64(-9.0)
                }
            });
            for cuts in [&[][..], &[1, 6], &[9, 10, 17]] {
                let what = format!("{region:?} cut at {cuts:?}");
                let portable = |row0, c: &mut [T]| nt_rows_portable(&a, row0, &b, c, region, write);
                let got = run_chunked(&portable, rows, n, cuts);
                assert_bits(&got, &want, &format!("portable {what}"));
                #[cfg(target_arch = "x86_64")]
                if crate::has_fma() {
                    let fma = |row0, c: &mut [T]| {
                        // SAFETY: guarded by `has_fma` just above.
                        unsafe { nt_rows_fma(&a, row0, &b, c, region, write) }
                    };
                    let got = run_chunked(&fma, rows, n, cuts);
                    assert_bits(&got, &want, &format!("fma {what}"));
                }
            }
        }
    }

    #[test]
    fn portable_and_fma_entry_points_give_identical_bits() {
        entry_points_agree::<f32>();
        entry_points_agree::<f64>();
    }
}
