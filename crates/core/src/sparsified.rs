//! Sparse kernel matrices: [`Sparsify`] and [`SparsifiedKernel`], the
//! CSR-resident [`KernelSource`] backend.
//!
//! The paper's thesis is that kernel k-means *is* sparse linear algebra, yet
//! the exact backends all hold (or recompute) `K` dense: every iteration pays
//! an `O(n²k)` GEMM fold and residency is `n²` scalars. For graph-shaped
//! workloads — kNN affinity matrices, thresholded Gaussian kernels, the
//! spectral-clustering-adjacent family — most of `K` is (near) zero, and
//! keeping it in CSR turns the per-iteration hot path into an
//! nnz-proportional SpMM
//! ([`popcorn_sparse::spmm_csr_rows_selection_t_into`]) and shrinks residency
//! from `n²` to `nnz`. This is a second, *independent* way past the `O(n²)`
//! memory wall that composes with the Nyström low-rank path rather than
//! replacing it: Nyström approximates globally with rank `m`, sparsification
//! approximates locally by dropping small couplings.
//!
//! [`SparsifiedKernel::build`] streams the exact kernel matrix in dense row
//! panels (never holding more than one panel), keeps the `knn` largest
//! entries per row (or every `|K_ij| ≥ τ`), always keeps the diagonal, and
//! symmetrizes the pattern as the union `S ∪ Sᵀ` — for a (bitwise symmetric)
//! kernel matrix the mirrored values are bitwise equal, so the union only
//! restores pattern symmetry, never changes a kept value.
//! [`SparsifiedKernel::from_csr`] accepts an externally built CSR kernel
//! (e.g. a graph affinity matrix from `popcorn-data`) as-is.
//!
//! Determinism and bit-identity: the panels come from the same
//! [`TiledKernel`] arithmetic as every exact path, selection is a pure
//! function of the row values (ties broken toward smaller column), and the
//! sparse distance fold scatters stored entries in ascending column order —
//! exactly the order the dense fold reads them. A sparsifier that keeps
//! *every* entry (including explicit zeros) therefore reproduces the dense
//! fold bit for bit; [`crate::kernel_source::run_with_source`] exploits this
//! by degenerating keep-everything configs to the exact dispatch, the same
//! contract as a rank-`n` Nyström fit.

use crate::kernel::KernelFunction;
use crate::kernel_matrix::INDEX_BYTES;
use crate::kernel_source::{
    plan_tile_rows, row_tiles, tile_bytes, workspace_bytes, CsrTileVisitor, KernelSource,
    TilePolicy, TileVisitor, TiledKernel, TrackedBytes,
};
use crate::shard::{DeviceShard, ShardLayout, ShardPlan, ShardedPass};
use crate::solver::FitInput;
use crate::{CoreError, Result};
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_gpusim::{DeviceTopology, Executor, ExecutorExt, OpClass, OpCost, Phase};
use popcorn_sparse::CsrMatrix;
use std::ops::Range;

/// Per-row sparsification rule for the kernel matrix (surfaced on the CLI as
/// `--sparsify {knn:N|threshold:T}`). The diagonal is always kept: `K_ii` is
/// the squared feature-space norm `P̃_i` every distance needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sparsify {
    /// Keep the `neighbors` largest-magnitude entries of each row (ties
    /// broken toward the smaller column index), plus the diagonal.
    Knn {
        /// Entries kept per row (clamped to `n`).
        neighbors: usize,
    },
    /// Keep every entry with `|K_ij| >= tau`, plus the diagonal. `tau = 0`
    /// keeps everything — including explicit zeros.
    Threshold {
        /// The magnitude threshold `τ` (finite, non-negative).
        tau: f64,
    },
}

impl Sparsify {
    /// Name matching the CLI flag values (`knn:N` / `threshold:T`).
    pub fn describe(&self) -> String {
        match self {
            Sparsify::Knn { neighbors } => format!("knn:{neighbors}"),
            Sparsify::Threshold { tau } => format!("threshold:{tau}"),
        }
    }

    /// `true` when this rule keeps every entry of an `n`-point kernel matrix
    /// — the degenerate case the dispatcher routes to the exact backends.
    pub fn keeps_everything(&self, n: usize) -> bool {
        match *self {
            Sparsify::Knn { neighbors } => neighbors >= n,
            Sparsify::Threshold { tau } => tau == 0.0,
        }
    }

    /// Reject parameter values with no meaningful interpretation.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Sparsify::Knn { neighbors: 0 } => Err(CoreError::InvalidConfig(
                "sparsify knn neighbors must be at least 1".into(),
            )),
            Sparsify::Threshold { tau } if !tau.is_finite() || tau < 0.0 => {
                Err(CoreError::InvalidConfig(format!(
                    "sparsify threshold must be finite and non-negative, got {tau}"
                )))
            }
            _ => Ok(()),
        }
    }
}

/// A sparsified kernel matrix held CSR-resident and streamed as zero-copy
/// row-panel views.
///
/// Residency is the CSR footprint (indptr + indices + values) plus the
/// diagonal — *not* `n²` — so the fit check budgets nnz and a device far too
/// small for the dense matrix can still hold a sparse `K`. Tiles are views
/// into the resident arrays, so [`TilePolicy`] only picks the panel height
/// handed to the engines ([`TilePolicy::Rows`]) or a single full-height panel
/// ([`TilePolicy::Auto`] / [`TilePolicy::Full`]); no height changes memory.
#[derive(Debug)]
pub struct SparsifiedKernel<T: Scalar> {
    csr: CsrMatrix<T>,
    /// `diag(K)` as the exact backends compute it — the sparsifier always
    /// keeps the diagonal, so these are the stored diagonal entries.
    diag: Vec<T>,
    /// Mean fraction of per-row absolute mass the sparsifier dropped —
    /// `None` when the matrix was supplied pre-sparsified via
    /// [`SparsifiedKernel::from_csr`].
    dropped_mass: Option<f64>,
    /// Modeled workspace every device holds next to its CSR slice.
    workspace: u128,
    /// The row walk: plain tiling on one device, the elastic sharded pass
    /// on several.
    pass: ShardedPass,
}

impl<T: Scalar> SparsifiedKernel<T> {
    /// Build a sparsified kernel from retained points: stream the exact
    /// kernel matrix in dense row panels (each charged like any exact tiled
    /// pass), apply `sparsify` per row, symmetrize the pattern as `S ∪ Sᵀ`,
    /// and keep the result CSR-resident. The dense panels are transient —
    /// their height comes from [`TilePolicy::Auto`] regardless of `tiling`,
    /// so a policy of [`TilePolicy::Full`] demands only that the *CSR* fits,
    /// never the dense matrix.
    pub fn build(
        input: FitInput<'_, T>,
        kernel: KernelFunction,
        sparsify: Sparsify,
        tiling: TilePolicy,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        sparsify.validate()?;
        let n = input.n();
        if n == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        let elem = std::mem::size_of::<T>();
        let input_bytes = input.upload_bytes();

        // Transient build phase: one dense panel at a time, sized by the
        // *Auto* planner — the user's tiling policy governs the resident CSR
        // stream below, not this scratch buffer.
        let panel_rows = plan_tile_rows(
            n,
            k_budget,
            elem,
            input_bytes,
            TilePolicy::Auto,
            executor.device(),
        )?;
        let exact = TiledKernel::build(input, kernel, panel_rows, executor, false)?;
        let diag = exact.diag(executor)?;
        let build_bytes = tile_bytes(panel_rows, n, elem) + n as u64 * elem as u64 + n as u64 * 8;
        let transient = TrackedBytes::alloc(executor, build_bytes);

        let mut kept_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut kept_vals: Vec<Vec<T>> = vec![Vec::new(); n];
        let mut row_total_abs = vec![0.0f64; n];
        for Range { start: r0, end: r1 } in row_tiles(0..n, panel_rows) {
            let tile = exact.compute_tile(r0, r1, executor)?;
            executor.run(
                format!(
                    "sparsify K rows {r0}..{r1} ({}, n={n})",
                    sparsify.describe()
                ),
                Phase::KernelMatrix,
                OpClass::Elementwise,
                // One magnitude comparison per entry; the panel is read once,
                // survivors are written at assembly below.
                OpCost::new((r1 - r0) as u64 * n as u64, tile_bytes(r1 - r0, n, elem), 0),
                || {
                    for (local, i) in (r0..r1).enumerate() {
                        row_total_abs[i] = select_row(
                            sparsify,
                            i,
                            tile.row(local),
                            &mut kept_cols[i],
                            &mut kept_vals[i],
                        );
                    }
                },
            );
        }

        // Pattern symmetrization S ∪ Sᵀ: a kept (i, j) also keeps (j, i).
        // The kernel matrix is bitwise symmetric (entry (i,j) and (j,i) fold
        // the same products in the same order), so the mirrored value is the
        // bitwise-equal one the row already produced.
        let mut t_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut t_vals: Vec<Vec<T>> = vec![Vec::new(); n];
        for i in 0..n {
            for (&j, &v) in kept_cols[i].iter().zip(kept_vals[i].iter()) {
                t_cols[j].push(i);
                t_vals[j].push(v);
            }
        }
        let mut row_ptrs = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::new();
        let mut values: Vec<T> = Vec::new();
        let mut dropped_sum = 0.0f64;
        row_ptrs.push(0usize);
        for i in 0..n {
            let start = col_indices.len();
            merge_union(
                &kept_cols[i],
                &kept_vals[i],
                &t_cols[i],
                &t_vals[i],
                &mut col_indices,
                &mut values,
            );
            let kept_abs: f64 = values[start..].iter().map(|v| v.to_f64().abs()).sum();
            if row_total_abs[i] > 0.0 {
                dropped_sum += ((row_total_abs[i] - kept_abs) / row_total_abs[i]).max(0.0);
            }
            row_ptrs.push(col_indices.len());
        }
        let dropped_mass = dropped_sum / n as f64;
        let csr = CsrMatrix::from_raw(n, n, row_ptrs, col_indices, values)?;
        executor.charge(
            format!("assemble CSR K (n={n}, nnz={})", csr.nnz()),
            Phase::KernelMatrix,
            OpClass::Other,
            OpCost::new(
                csr.nnz() as u64,
                2 * csr.nnz() as u64 * (elem + INDEX_BYTES) as u64,
                csr.storage_bytes(elem, INDEX_BYTES),
            ),
        );
        drop(transient);

        Self::finish(
            csr,
            diag,
            Some(dropped_mass),
            tiling,
            k_budget,
            input_bytes,
            executor,
        )
    }

    /// Wrap an externally built CSR kernel matrix (e.g. a graph affinity
    /// matrix) without re-sparsifying. The matrix must be square; entries
    /// absent from a row — including a missing diagonal — read as zero.
    pub fn from_csr(
        csr: CsrMatrix<T>,
        tiling: TilePolicy,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let (rows, cols) = csr.shape();
        if rows != cols {
            return Err(CoreError::InvalidInput(format!(
                "sparsified kernel matrix must be square, got {rows}x{cols}"
            )));
        }
        if rows == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        let elem = std::mem::size_of::<T>();
        let diag = executor.run(
            format!("extract diag(K) (csr, n={rows})"),
            Phase::KernelMatrix,
            OpClass::Elementwise,
            OpCost::new(
                csr.nnz() as u64,
                csr.storage_bytes(elem, INDEX_BYTES),
                rows as u64 * elem as u64,
            ),
            || (0..rows).map(|i| csr.get(i, i)).collect::<Vec<T>>(),
        );
        Self::finish(csr, diag, None, tiling, k_budget, 0, executor)
    }

    /// Shared tail of both constructors: the nnz-budgeted fit check, the
    /// panel-height choice, the multi-device row partition and the residency
    /// tracking of the CSR + diagonal.
    fn finish(
        csr: CsrMatrix<T>,
        diag: Vec<T>,
        dropped_mass: Option<f64>,
        tiling: TilePolicy,
        k_budget: usize,
        input_bytes: u64,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = csr.rows();
        let elem = std::mem::size_of::<T>();
        // The engines consume zero-copy views of the resident CSR, so the
        // tile height is purely a batching choice — Rows(r) is honoured
        // verbatim, Auto and Full hand out one full-height panel.
        let tile_rows = match tiling {
            TilePolicy::Rows(0) => {
                return Err(CoreError::InvalidConfig(
                    "tile_rows must be at least 1".into(),
                ));
            }
            TilePolicy::Rows(rows) => rows.min(n),
            TilePolicy::Auto | TilePolicy::Full => n,
        };
        let layout = CsrLayout {
            csr: &csr,
            workspace: workspace_bytes(n, k_budget, elem, input_bytes),
            tile_rows,
        };
        let plan = if executor.shard_count() > 1 {
            Some(ShardPlan::for_executor_with(n, elem, executor, &layout)?)
        } else {
            let required = layout.device_bytes(csr.storage_bytes(elem, INDEX_BYTES));
            let mem = executor.device().mem_bytes;
            if required > mem as u128 {
                return Err(CoreError::DeviceMemoryExceeded {
                    required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                    available_bytes: mem,
                });
            }
            None
        };
        let workspace = layout.workspace;
        let pass = ShardedPass::new(n, k_budget, elem, tile_rows, plan);
        // The diagonal is replicated bookkeeping (tracked on every device);
        // each CSR row slice lives on its owning device.
        executor.track_alloc(n as u64 * elem as u64);
        let source = Self {
            csr,
            diag,
            dropped_mass,
            workspace,
            pass,
        };
        source.pass.track_resident(&source.layout(), executor);
        Ok(source)
    }

    /// Stored entries of the sparsified matrix.
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Fraction of stored entries relative to the dense `n²`.
    pub fn density(&self) -> f64 {
        let n = self.csr.rows() as f64;
        self.csr.nnz() as f64 / (n * n).max(1.0)
    }

    /// Modeled resident bytes of the CSR storage (indptr + indices + values).
    pub fn csr_bytes(&self) -> u64 {
        self.csr
            .storage_bytes(std::mem::size_of::<T>(), INDEX_BYTES)
    }

    /// Mean fraction of per-row absolute mass the sparsifier removed (`None`
    /// when the matrix was supplied pre-sparsified).
    pub fn dropped_mass(&self) -> Option<f64> {
        self.dropped_mass
    }

    fn layout(&self) -> CsrLayout<'_, T> {
        CsrLayout {
            csr: &self.csr,
            workspace: self.workspace,
            tile_rows: self.pass.tile_rows(),
        }
    }
}

impl<T: Scalar> KernelSource<T> for SparsifiedKernel<T> {
    fn n(&self) -> usize {
        self.csr.rows()
    }

    fn tile_rows(&self) -> usize {
        self.pass.tile_rows()
    }

    fn resident_bytes(&self) -> u64 {
        self.csr_bytes() + self.csr.rows() as u64 * std::mem::size_of::<T>() as u64
    }

    fn diag(&self, _executor: &dyn Executor) -> Result<Vec<T>> {
        // Computed (and charged) once at construction.
        Ok(self.diag.clone())
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        let _active = self.pass.activate_owner(i, executor);
        let n = self.csr.rows();
        let elem = std::mem::size_of::<T>();
        let (cols, vals) = self.csr.row(i);
        Ok(executor.run(
            format!("gather sparsified K row {i} (nnz={})", cols.len()),
            Phase::KernelMatrix,
            OpClass::Elementwise,
            OpCost::new(
                cols.len() as u64,
                cols.len() as u64 * (elem + INDEX_BYTES) as u64,
                n as u64 * elem as u64,
            ),
            || {
                let mut row = vec![T::ZERO; n];
                for (&j, &v) in cols.iter().zip(vals.iter()) {
                    row[j] = v;
                }
                row
            },
        ))
    }

    /// Dense fallback for consumers without a sparse fold: each panel is
    /// densified (charged as a gather) before the visit. Absent entries read
    /// as zero — at full density every entry is stored, so the densified
    /// panel equals the exact one bit for bit.
    fn for_each_tile(&self, executor: &dyn Executor, f: &mut TileVisitor<'_, T>) -> Result<()> {
        let n = self.csr.rows();
        let elem = std::mem::size_of::<T>();
        let walk = &mut |rows: Range<usize>, _| {
            let panel = self.csr.rows_view(rows.clone());
            let tile = executor.run(
                format!(
                    "densify sparsified K rows {}..{} (nnz={})",
                    rows.start,
                    rows.end,
                    panel.nnz()
                ),
                Phase::PairwiseDistances,
                OpClass::Elementwise,
                OpCost::new(
                    panel.nnz() as u64,
                    panel.nnz() as u64 * (elem + INDEX_BYTES) as u64,
                    tile_bytes(rows.len(), n, elem),
                ),
                || {
                    let mut tile = DenseMatrix::<T>::zeros(rows.len(), n);
                    for local in 0..rows.len() {
                        let (cols, vals) = panel.row(local);
                        let out = tile.row_mut(local);
                        for (&j, &v) in cols.iter().zip(vals.iter()) {
                            out[j] = v;
                        }
                    }
                    tile
                },
            );
            f(rows, &tile)
        };
        self.pass.for_each_range(&self.layout(), executor, walk)
    }

    fn approx_error_bound(&self) -> Option<f64> {
        self.dropped_mass
    }

    fn csr(&self) -> Option<&CsrMatrix<T>> {
        Some(&self.csr)
    }

    fn for_each_csr_tile(
        &self,
        executor: &dyn Executor,
        f: &mut CsrTileVisitor<'_, T>,
    ) -> Result<()> {
        // The panels are zero-copy views of the resident CSR: streaming
        // charges nothing, the engines charge their nnz-proportional folds.
        self.pass
            .for_each_range(&self.layout(), executor, &mut |rows, _| {
                f(rows.clone(), self.csr.rows_view(rows))
            })
    }
}

/// Bytes of the CSR slice covering `rows` (that row range's stored entries
/// plus its stretch of the row-pointer array).
fn shard_csr_bytes<T: Scalar>(csr: &CsrMatrix<T>, rows: &Range<usize>, elem: usize) -> u64 {
    if rows.is_empty() {
        return 0;
    }
    let ptrs = csr.row_ptrs();
    let nnz = (ptrs[rows.end] - ptrs[rows.start]) as u64;
    nnz * (elem + INDEX_BYTES) as u64 + (rows.len() as u64 + 1) * INDEX_BYTES as u64
}

/// The CSR representation's side of the sharded pass: each entry holds its
/// rows' CSR slice, which must fit next to the replicated workspace and
/// diagonal, and the stored entries exist only host-side, so migrated rows
/// are re-uploaded.
struct CsrLayout<'a, T: Scalar> {
    csr: &'a CsrMatrix<T>,
    workspace: u128,
    tile_rows: usize,
}

impl<T: Scalar> CsrLayout<'_, T> {
    /// Bytes a device needs for `csr_bytes` of CSR slices next to the
    /// workspace and the diagonal.
    fn device_bytes(&self, csr_bytes: u64) -> u128 {
        let diag_bytes = self.csr.rows() as u64 * std::mem::size_of::<T>() as u64;
        self.workspace + csr_bytes as u128 + diag_bytes as u128
    }
}

impl<T: Scalar> ShardLayout for CsrLayout<'_, T> {
    /// Checks everything the entry's device holds, so a recovery that piles
    /// migrated rows onto a survivor is rejected exactly like a build would
    /// be.
    fn plan_entry(
        &self,
        entries: &[DeviceShard],
        index: usize,
        topology: &DeviceTopology,
    ) -> Result<usize> {
        let entry = &entries[index];
        let held = entries
            .iter()
            .filter(|e| e.device == entry.device)
            .map(|e| self.entry_bytes(e))
            .sum();
        let required = self.device_bytes(held);
        let mem = topology.devices[entry.device].mem_bytes;
        if required > mem as u128 {
            return Err(CoreError::DeviceShardMemoryExceeded {
                device: entry.device,
                required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                available_bytes: mem,
            });
        }
        Ok(self.tile_rows.min(entry.rows.len()))
    }

    fn entry_bytes(&self, entry: &DeviceShard) -> u64 {
        shard_csr_bytes(self.csr, &entry.rows, std::mem::size_of::<T>())
    }

    fn reuploads_migrated_rows(&self) -> bool {
        true
    }
}

/// Apply `sparsify` to one dense row: append the kept `(column, value)`
/// pairs — ascending columns, diagonal always included — and return the
/// row's total absolute mass (for the dropped-mass diagnostic).
fn select_row<T: Scalar>(
    sparsify: Sparsify,
    i: usize,
    row: &[T],
    cols: &mut Vec<usize>,
    vals: &mut Vec<T>,
) -> f64 {
    let n = row.len();
    let total_abs: f64 = row.iter().map(|v| v.to_f64().abs()).sum();
    match sparsify {
        Sparsify::Knn { neighbors } => {
            let keep = neighbors.min(n);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                row[b]
                    .to_f64()
                    .abs()
                    .partial_cmp(&row[a].to_f64().abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order.truncate(keep);
            if !order.contains(&i) {
                order.push(i);
            }
            order.sort_unstable();
            for j in order {
                cols.push(j);
                vals.push(row[j]);
            }
        }
        Sparsify::Threshold { tau } => {
            for (j, &v) in row.iter().enumerate() {
                if j == i || v.to_f64().abs() >= tau {
                    cols.push(j);
                    vals.push(v);
                }
            }
        }
    }
    total_abs
}

/// Union-merge two ascending `(column, value)` lists into the output arrays.
/// On a column present in both, the left (row-kept) value wins — for a
/// symmetric kernel matrix both are bitwise equal anyway.
fn merge_union<T: Scalar>(
    a_cols: &[usize],
    a_vals: &[T],
    b_cols: &[usize],
    b_vals: &[T],
    out_cols: &mut Vec<usize>,
    out_vals: &mut Vec<T>,
) {
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < a_cols.len() || ib < b_cols.len() {
        let take_a = match (a_cols.get(ia), b_cols.get(ib)) {
            (Some(&ca), Some(&cb)) => {
                if ca == cb {
                    ib += 1;
                    true
                } else {
                    ca < cb
                }
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("loop condition"),
        };
        if take_a {
            out_cols.push(a_cols[ia]);
            out_vals.push(a_vals[ia]);
            ia += 1;
        } else {
            out_cols.push(b_cols[ib]);
            out_vals.push(b_vals[ib]);
            ib += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_gpusim::{
        DeviceSpec, FaultPlan, LinkSpec, RecoveryPolicy, ResidencyScope, ShardedExecutor,
        SimExecutor,
    };

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            let offset = if i % 2 == 0 { 0.0 } else { 6.0 };
            offset + ((i * d + j) as f64 * 0.37).sin() * 1.5
        })
    }

    fn build(
        points: &DenseMatrix<f64>,
        sparsify: Sparsify,
        tiling: TilePolicy,
    ) -> (SparsifiedKernel<f64>, SimExecutor) {
        let exec = SimExecutor::a100_f32();
        let source = SparsifiedKernel::build(
            FitInput::Dense(points),
            KernelFunction::paper_polynomial(),
            sparsify,
            tiling,
            4,
            &exec,
        )
        .unwrap();
        (source, exec)
    }

    #[test]
    fn sparsify_describe_keeps_everything_and_validation() {
        assert_eq!(Sparsify::Knn { neighbors: 32 }.describe(), "knn:32");
        assert_eq!(Sparsify::Threshold { tau: 0.5 }.describe(), "threshold:0.5");
        assert!(Sparsify::Knn { neighbors: 10 }.keeps_everything(10));
        assert!(!Sparsify::Knn { neighbors: 9 }.keeps_everything(10));
        assert!(Sparsify::Threshold { tau: 0.0 }.keeps_everything(10));
        assert!(!Sparsify::Threshold { tau: 1e-300 }.keeps_everything(10));
        assert!(Sparsify::Knn { neighbors: 1 }.validate().is_ok());
        assert!(Sparsify::Knn { neighbors: 0 }.validate().is_err());
        assert!(Sparsify::Threshold { tau: 0.0 }.validate().is_ok());
        assert!(Sparsify::Threshold { tau: -1.0 }.validate().is_err());
        assert!(Sparsify::Threshold { tau: f64::NAN }.validate().is_err());
        assert!(Sparsify::Threshold { tau: f64::INFINITY }
            .validate()
            .is_err());
        assert_eq!(
            crate::KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 8 }
            }
            .describe(),
            "sparsified(knn:8)"
        );
    }

    #[test]
    fn full_density_sparsifiers_reproduce_the_exact_matrix_bitwise() {
        let points = sample_points(13, 4);
        let kernel = KernelFunction::paper_polynomial();
        // The sparsifier streams the production Gram/GEMM path, so compare
        // against that — not the O(n²d) pairwise reference, whose summation
        // order differs in the last bit.
        let exact = {
            let exec = SimExecutor::a100_f32();
            let tiled = TiledKernel::new(FitInput::Dense(&points), kernel, 13, &exec).unwrap();
            tiled.compute_tile(0, 13, &exec).unwrap()
        };
        for sparsify in [
            Sparsify::Knn { neighbors: 13 },
            Sparsify::Knn { neighbors: 99 },
            Sparsify::Threshold { tau: 0.0 },
        ] {
            let (source, exec) = build(&points, sparsify, TilePolicy::Rows(5));
            assert_eq!(source.nnz(), 13 * 13, "{sparsify:?} must keep everything");
            assert_eq!(source.dropped_mass(), Some(0.0));
            // Dense fallback panels, CSR panels and rows all match bitwise.
            source
                .for_each_tile(&exec, &mut |rows, tile| {
                    for (local, i) in rows.clone().enumerate() {
                        for j in 0..13 {
                            assert_eq!(tile[(local, j)].to_bits(), exact[(i, j)].to_bits());
                        }
                    }
                    Ok(())
                })
                .unwrap();
            source
                .for_each_csr_tile(&exec, &mut |rows, panel| {
                    for (local, i) in rows.clone().enumerate() {
                        let (cols, vals) = panel.row(local);
                        assert_eq!(cols, (0..13).collect::<Vec<_>>().as_slice());
                        for j in 0..13 {
                            assert_eq!(vals[j].to_bits(), exact[(i, j)].to_bits());
                        }
                    }
                    Ok(())
                })
                .unwrap();
            let row = KernelSource::row(&source, 7, &exec).unwrap();
            for j in 0..13 {
                assert_eq!(row[j].to_bits(), exact[(7, j)].to_bits());
            }
            let diag = KernelSource::diag(&source, &exec).unwrap();
            for i in 0..13 {
                assert_eq!(diag[i].to_bits(), exact[(i, i)].to_bits());
            }
        }
    }

    #[test]
    fn sparsified_pattern_is_symmetric_and_keeps_the_diagonal() {
        let points = sample_points(17, 5);
        for sparsify in [
            Sparsify::Knn { neighbors: 3 },
            Sparsify::Threshold { tau: 0.8 },
        ] {
            let (source, _) = build(&points, sparsify, TilePolicy::Auto);
            let csr = KernelSource::csr(&source).unwrap();
            assert!(csr.nnz() < 17 * 17, "{sparsify:?} must actually drop");
            for i in 0..17 {
                let (cols, _) = csr.row(i);
                assert!(cols.contains(&i), "diagonal ({i},{i}) must be kept");
                for &j in cols {
                    let (cols_j, _) = csr.row(j);
                    assert!(
                        cols_j.contains(&i),
                        "{sparsify:?}: kept ({i},{j}) demands ({j},{i})"
                    );
                    // Mirrored values are bitwise equal.
                    assert_eq!(csr.get(i, j).to_bits(), csr.get(j, i).to_bits());
                }
            }
            let bound = source.approx_error_bound().unwrap();
            assert!(bound > 0.0 && bound < 1.0, "dropped mass {bound}");
        }
    }

    #[test]
    fn sparsifier_is_deterministic_and_tiling_independent() {
        let points = sample_points(19, 4);
        let sparsify = Sparsify::Knn { neighbors: 5 };
        let (reference, _) = build(&points, sparsify, TilePolicy::Auto);
        for tiling in [TilePolicy::Rows(1), TilePolicy::Rows(7), TilePolicy::Full] {
            let (other, _) = build(&points, sparsify, tiling);
            let (a, b) = (
                KernelSource::csr(&reference).unwrap(),
                KernelSource::csr(&other).unwrap(),
            );
            assert_eq!(a.row_ptrs(), b.row_ptrs());
            assert_eq!(a.col_indices(), b.col_indices());
            assert_eq!(
                a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(reference.dropped_mass(), other.dropped_mass());
        }
    }

    #[test]
    fn knn_tie_break_prefers_smaller_columns() {
        // A constant row: every off-diagonal magnitude ties, so the kept set
        // must be the smallest column indices plus the diagonal.
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let dense_row = [1.0f64, 1.0, 1.0, 1.0];
        let total = select_row(
            Sparsify::Knn { neighbors: 2 },
            3,
            &dense_row,
            &mut cols,
            &mut vals,
        );
        assert_eq!(total, 4.0);
        // Top-2 by (|v| desc, col asc) is {0, 1}; the diagonal 3 is added.
        assert_eq!(cols, vec![0, 1, 3]);
        assert_eq!(vals, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn from_csr_round_trips_and_reports_no_bound() {
        let dense = DenseMatrix::<f64>::from_fn(6, 6, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let csr = CsrMatrix::from_dense(&dense);
        let exec = SimExecutor::a100_f32();
        let source = SparsifiedKernel::from_csr(csr.clone(), TilePolicy::Auto, 2, &exec).unwrap();
        assert_eq!(KernelSource::n(&source), 6);
        assert!(source.approx_error_bound().is_none());
        let diag = KernelSource::diag(&source, &exec).unwrap();
        for i in 0..6 {
            assert_eq!(diag[i].to_bits(), dense[(i, i)].to_bits());
        }
        source
            .for_each_tile(&exec, &mut |rows, tile| {
                for (local, i) in rows.clone().enumerate() {
                    for j in 0..6 {
                        assert_eq!(tile[(local, j)].to_bits(), dense[(i, j)].to_bits());
                    }
                }
                Ok(())
            })
            .unwrap();
        // Non-square input is rejected.
        let rect = CsrMatrix::<f64>::zeros(3, 4);
        assert!(SparsifiedKernel::from_csr(rect, TilePolicy::Auto, 2, &exec).is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected_with_clear_errors() {
        let points = sample_points(8, 3);
        let exec = SimExecutor::a100_f32();
        let make = |input: FitInput<'_, f64>, sparsify: Sparsify| {
            SparsifiedKernel::build(
                input,
                KernelFunction::Linear,
                sparsify,
                TilePolicy::Auto,
                2,
                &exec,
            )
        };
        assert!(matches!(
            make(FitInput::Dense(&points), Sparsify::Knn { neighbors: 0 }),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            make(FitInput::Dense(&points), Sparsify::Threshold { tau: -0.5 }),
            Err(CoreError::InvalidConfig(_))
        ));
        let empty = DenseMatrix::<f64>::zeros(0, 3);
        assert!(matches!(
            make(FitInput::Dense(&empty), Sparsify::Knn { neighbors: 4 }),
            Err(CoreError::InvalidInput(_))
        ));
        assert!(matches!(
            SparsifiedKernel::build(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                Sparsify::Knn { neighbors: 4 },
                TilePolicy::Rows(0),
                2,
                &exec,
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        // Config-level validation mirrors the API rejection.
        assert!(crate::KernelKmeansConfig::paper_defaults(2)
            .with_approx(crate::KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 0 }
            })
            .validate(10)
            .is_err());
    }

    #[test]
    fn residency_stays_under_a_cap_the_dense_matrix_exceeds() {
        // 900 f64 points: exact K is 6.5 MB; cap the device at 2 MB. The
        // dense Full policy must reject, the sparse source must fit.
        let n = 900;
        let cap: u64 = 2 << 20;
        let points = sample_points(n, 4);
        let exec = SimExecutor::new(DeviceSpec::a100_80gb().with_mem_bytes(cap), 8);
        assert!(
            crate::kernel_source::full_kernel_matrix_bytes(n, 8) > cap as u128,
            "the wall must be real"
        );
        assert!(matches!(
            plan_tile_rows(
                n,
                4,
                8,
                points.rows() as u64 * 4 * 8,
                TilePolicy::Full,
                exec.device()
            ),
            Err(CoreError::DeviceMemoryExceeded { .. })
        ));
        let peak = {
            let _scope = ResidencyScope::new(&exec);
            let source = SparsifiedKernel::build(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                Sparsify::Knn { neighbors: 16 },
                TilePolicy::Full,
                4,
                &exec,
            )
            .unwrap();
            assert!(source.csr_bytes() < cap);
            source
                .for_each_csr_tile(&exec, &mut |_rows, _panel| Ok(()))
                .unwrap();
            exec.peak_resident_bytes()
        };
        assert!(peak > 0);
        assert!(peak <= cap, "peak {peak} must stay under the {cap} cap");
    }

    #[test]
    fn oversized_csr_is_rejected_against_the_device() {
        let n = 900;
        let points = sample_points(n, 4);
        // A cap so small even the kNN CSR cannot fit.
        let exec = SimExecutor::new(DeviceSpec::a100_80gb().with_mem_bytes(64 << 10), 8);
        let err = SparsifiedKernel::build(
            FitInput::Dense(&points),
            KernelFunction::Linear,
            Sparsify::Knn { neighbors: 64 },
            TilePolicy::Auto,
            4,
            &exec,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DeviceMemoryExceeded { .. }));
    }

    #[test]
    fn tile_policy_governs_panel_heights_only() {
        let points = sample_points(10, 3);
        let (auto_src, exec) = build(&points, Sparsify::Knn { neighbors: 4 }, TilePolicy::Auto);
        assert!(auto_src.is_full());
        let mut panels = Vec::new();
        auto_src
            .for_each_csr_tile(&exec, &mut |rows, _| {
                panels.push(rows);
                Ok(())
            })
            .unwrap();
        assert_eq!(panels, vec![0..10]);
        let (rows_src, exec) = build(&points, Sparsify::Knn { neighbors: 4 }, TilePolicy::Rows(4));
        assert_eq!(rows_src.tile_rows(), 4);
        let mut panels = Vec::new();
        rows_src
            .for_each_csr_tile(&exec, &mut |rows, _| {
                panels.push(rows);
                Ok(())
            })
            .unwrap();
        assert_eq!(panels, vec![0..4, 4..8, 8..10]);
        // Same resident bytes either way: tiles are views.
        assert_eq!(auto_src.resident_bytes(), rows_src.resident_bytes());
    }

    #[test]
    fn device_loss_mid_stream_re_shards_and_re_uploads_csr_slices() {
        let n = 60;
        let points = sample_points(n, 4);
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        // Device 1 dies at the start of pass 1 (after a clean pass 0).
        let faulty = base.with_fault_plan(FaultPlan::new().lose(1, 1), RecoveryPolicy::Resume);
        let source = SparsifiedKernel::build(
            FitInput::Dense(&points),
            KernelFunction::paper_polynomial(),
            Sparsify::Knn { neighbors: 8 },
            TilePolicy::Auto,
            4,
            &faulty,
        )
        .unwrap();
        for pass in 0..3 {
            let mut covered = vec![false; n];
            source
                .for_each_csr_tile(&faulty, &mut |rows, _panel| {
                    for i in rows {
                        assert!(!covered[i], "row {i} visited twice in pass {pass}");
                        covered[i] = true;
                    }
                    Ok(())
                })
                .unwrap();
            assert!(
                covered.iter().all(|&c| c),
                "pass {pass} must cover every row exactly once"
            );
        }
        // The walk no longer touches device 1 and the migration was accounted
        // as a modeled re-upload of the lost CSR slices.
        let plan = source.pass.plan().unwrap();
        assert!(plan.shards().iter().all(|s| s.device != 1));
        assert_eq!(
            plan.shards().iter().map(|s| s.rows.len()).sum::<usize>(),
            n,
            "the re-shard must still cover every row"
        );
        let report = faulty.recovery_report().expect("recovery must be recorded");
        assert_eq!(report.events, 1);
        assert_eq!(report.devices_lost, 1);
        assert!(report.rows_migrated > 0);
        assert!(report.bytes_reuploaded > 0);
        assert!(report.reshard_seconds > 0.0);
        assert_eq!(faulty.device_alive(), vec![true, false, true]);
    }

    #[test]
    fn survivor_too_small_for_the_migrated_rows_is_rejected() {
        let n = 60;
        let points = sample_points(n, 4);
        let small = DeviceSpec::a100_80gb().with_mem_bytes(14_014);
        let build = |executor: &dyn Executor| {
            SparsifiedKernel::build(
                FitInput::Dense(&points),
                KernelFunction::paper_polynomial(),
                Sparsify::Knn { neighbors: 8 },
                TilePolicy::Auto,
                4,
                executor,
            )
        };
        // One such device cannot hold the whole CSR kernel...
        let err = build(&SimExecutor::new(small.clone(), 8)).unwrap_err();
        assert_eq!(
            err,
            CoreError::DeviceMemoryExceeded {
                required_bytes: 16_876,
                available_bytes: 14_014,
            }
        );
        // ...but two hold half each. Losing one must not pile every row onto
        // the survivor unchecked.
        let faulty = ShardedExecutor::homogeneous(small, 2, LinkSpec::nvlink(), 8)
            .with_fault_plan(FaultPlan::new().lose(1, 1), RecoveryPolicy::Resume);
        let source = build(&faulty).unwrap();
        source
            .for_each_csr_tile(&faulty, &mut |_rows, _panel| Ok(()))
            .unwrap();
        let err = source
            .for_each_csr_tile(&faulty, &mut |_rows, _panel| Ok(()))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::DeviceShardMemoryExceeded {
                    device: 0,
                    available_bytes: 14_014,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dense_survivor_too_small_for_the_migrated_panels_is_rejected() {
        // The exact panel layout's counterpart: two devices each fit their
        // own 30-row panel, and after device 1 is lost device 0 must be
        // planned against both its own panel and the migrated one.
        use crate::solver::Solver;
        let points = sample_points(60, 4);
        let capacity = 19_200;
        let small = DeviceSpec::a100_80gb().with_mem_bytes(capacity);
        for tiling in [TilePolicy::Full, TilePolicy::Auto, TilePolicy::Rows(20)] {
            let faulty = std::sync::Arc::new(
                ShardedExecutor::homogeneous(small.clone(), 2, LinkSpec::nvlink(), 8)
                    .with_fault_plan(FaultPlan::new().lose(1, 1), RecoveryPolicy::Resume),
            );
            let config = crate::KernelKmeansConfig::paper_defaults(3)
                .with_max_iter(4)
                .with_convergence_check(false, 0.0)
                .with_tiling(tiling);
            let outcome = crate::KernelKmeans::new(config)
                .with_shared_executor(faulty.clone())
                .fit(&points);
            match (tiling, outcome) {
                // Auto shrinks the migrated panel into what is left.
                (TilePolicy::Auto, Ok(_)) => {
                    assert_eq!(faulty.recovery_report().map(|r| r.events), Some(1));
                    let peak = faulty.per_device_peak_resident_bytes()[0];
                    assert!(peak <= capacity, "device 0 peaked at {peak} B");
                }
                // Full and a fixed 20-row tile cannot hold two panels.
                (TilePolicy::Full | TilePolicy::Rows(_), Err(err)) => assert!(
                    matches!(err, CoreError::DeviceShardMemoryExceeded { device: 0, .. }),
                    "{tiling:?}: {err:?}"
                ),
                (tiling, outcome) => panic!(
                    "{tiling:?}: {:?}, device 0 peaked at {} B",
                    outcome.map(|r| r.objective),
                    faulty.per_device_peak_resident_bytes()[0]
                ),
            }
        }
    }
}
