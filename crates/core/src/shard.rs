//! Multi-device row sharding of the kernel matrix: [`ShardPlan`] and
//! [`ShardedKernelSource`].
//!
//! Built exactly the way the roadmap prescribed — on [`KernelSource`]: a
//! sharded source hands each device its own contiguous row range of `K`, so
//! the distance engines and the lockstep batch driver work **unchanged**.
//! Per-device residency planning reuses [`plan_tile_rows`] against each
//! device's [`popcorn_gpusim::DeviceSpec::mem_bytes`]: a device either keeps
//! its whole shard resident or streams it in sub-tiles, and a topology whose
//! devices cannot hold even one row each is rejected up front.
//!
//! Sharding changes **where tiles are priced, never what is computed**: the
//! tiles are produced by the same panel kernels as [`TiledKernel`] (which are
//! bit-identical to the in-core path), they are visited in global row order,
//! and every per-entry fold order is untouched — so sharded fits equal
//! single-device fits to the last bit, for every solver, both layouts,
//! standalone and batched. What the sharding adds is attribution: while a
//! device's tiles stream, the executor's active shard points at that device
//! ([`popcorn_gpusim::Executor::activate_shard`]), so the tile recomputation
//! *and* the engine work folded over the tile are charged to the owning
//! device's concurrent bucket. After each full pass the `n × k` distance
//! partials and per-cluster statistics are all-reduced across the topology's
//! link ([`popcorn_gpusim::LinkSpec`]), charged as one
//! [`OpClass::AllReduce`] operation.
//!
//! Sharding also *aggregates memory*: a shard small enough to sit resident
//! on its device ([`DeviceShard::is_resident`]) is computed — and charged —
//! exactly once, then replayed from device memory on later passes, exactly
//! like the in-core [`crate::FullKernel`] path. Enough devices therefore
//! recover charge-once semantics at an `n` where every single device would
//! have to recompute tiles each iteration.
//!
//! # Elastic topologies
//!
//! Heterogeneous pools are planned by [`ShardPlan::balanced_by_throughput`]:
//! shard sizes proportional to each device's modeled throughput (the
//! geometric mean of its compute and bandwidth roofs), degenerating *exactly*
//! to [`ShardPlan::balanced`] on uniform pools.
//!
//! Every kernel source — this module's exact [`ShardedKernelSource`], the
//! Nyström factors and the CSR-resident sparsified kernel — streams through
//! one crate-private driver, `ShardedPass`. At every pass boundary it drains
//! the executor's fault schedule ([`popcorn_gpusim::Executor::poll_fault`]).
//! Under [`RecoveryPolicy::Abort`] a loss surfaces as
//! [`CoreError::DeviceLost`] for the retry layers. Under
//! [`RecoveryPolicy::Resume`] the driver splices the lost device's rows over
//! the surviving devices (throughput-weighted, in place, so the global row
//! order is unchanged), frees the lost entries' bytes, tracks the new
//! entries' bytes on their owners and fills in one [`RecoveryReport`]. It
//! then walks the rows in global order with the owning device active and
//! charges the all-reduce. Because sharding never changes what is computed,
//! a recovered fit is **bit-identical to a fresh fit on the surviving
//! topology**.
//!
//! A source supplies only what differs, through the `ShardLayout` hooks:
//! how an entry is planned and capacity-checked, the bytes it holds, whether
//! migrated rows are re-uploaded (CSR slices live host-side; dense panels are
//! recomputed in place from replicated points), and — for the exact source —
//! which resident tiles survive a re-plan. Scale-up is lazy: a joined device
//! becomes eligible immediately but is only drafted by the *next* re-plan (a
//! later loss, or the next fit) — moving rows onto it mid-fit would discard
//! survivors' resident tiles for no modeled win.

use crate::kernel::KernelFunction;
use crate::kernel_source::{
    plan_tile_rows, row_tiles, tile_bytes, workspace_bytes, KernelSource, TilePolicy, TileVisitor,
    TiledKernel,
};
use crate::solver::FitInput;
use crate::{CoreError, Result};
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_gpusim::{
    DeviceSpec, DeviceTopology, Executor, ExecutorExt, FaultKind, OpClass, OpCost, Phase,
    RecoveryPolicy, RecoveryReport,
};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// One device's slice of the kernel matrix rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceShard {
    /// Index of the owning device in the topology.
    pub device: usize,
    /// The contiguous row range `K[rows, :]` this device prices.
    pub rows: Range<usize>,
    /// Sub-tile height this device streams its shard in (equals
    /// `rows.len()` when the whole shard is resident; 0 for an empty shard).
    pub tile_rows: usize,
}

impl DeviceShard {
    /// `true` when this device keeps its entire shard resident (one tile).
    pub fn is_resident(&self) -> bool {
        self.tile_rows >= self.rows.len()
    }
}

/// How `n` kernel-matrix rows are partitioned across a [`DeviceTopology`],
/// with a per-device sub-tiling plan from [`plan_tile_rows`].
///
/// A plan is a list of contiguous entries covering `0..n`. Most plans carry
/// one entry per device, but an elastic re-plan
/// ([`ShardPlan::reassign_device`]) may hand a surviving device several
/// entries — [`ShardPlan::device_count`] counts entries, while
/// [`ShardPlan::participating_devices`] counts distinct occupied devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    shards: Vec<DeviceShard>,
}

impl ShardPlan {
    /// Partition `0..n` into contiguous, balanced row ranges — one per device
    /// of `topology` — and plan each device's sub-tiling for a fit with
    /// `k_budget` total distance columns and `input_bytes` of uploaded
    /// points.
    pub fn balanced(
        n: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
    ) -> Result<Self> {
        let p = topology.devices.len();
        let boundaries: Vec<usize> = (1..p).map(|d| d * n / p).collect();
        Self::with_boundaries(
            n,
            &boundaries,
            k_budget,
            elem,
            input_bytes,
            tiling,
            topology,
        )
    }

    /// Partition `0..n` with shard sizes proportional to each device's
    /// modeled throughput, so a mixed pool (say A100s next to H100s) finishes
    /// its shards in lockstep instead of idling the fast devices at the
    /// all-reduce. The weight is the geometric mean of the device's two
    /// roofline ceilings — `sqrt(peak GFLOP/s × memory GB/s)` at the fit's
    /// element width — scaled to an integer so a **uniform pool produces
    /// exactly the [`ShardPlan::balanced`] boundaries** (bit-for-bit the same
    /// plan). [`ShardPlan::with_boundaries`] remains the escape hatch for
    /// hand-placed splits.
    ///
    /// `alive` optionally masks devices out of the plan entirely (a dead
    /// device gets no entry); `None` plans over the whole topology. Under
    /// [`TilePolicy::Full`] each device's share is additionally capped at the
    /// rows it can hold resident next to the replicated workspace, with the
    /// overflow redistributed over the uncapped devices; when the pool as a
    /// whole cannot hold `n` rows the tightest device is reported via
    /// [`CoreError::DeviceShardMemoryExceeded`].
    #[allow(clippy::too_many_arguments)]
    pub fn balanced_by_throughput(
        n: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
        alive: Option<&[bool]>,
    ) -> Result<Self> {
        let p = topology.devices.len();
        if let Some(mask) = alive {
            if mask.len() != p {
                return Err(CoreError::InvalidConfig(format!(
                    "liveness mask covers {} devices but the topology has {p}",
                    mask.len()
                )));
            }
        }
        let active: Vec<usize> = (0..p).filter(|&d| alive.is_none_or(|m| m[d])).collect();
        if active.is_empty() {
            return Err(CoreError::InvalidConfig(
                "no alive devices left to shard the kernel matrix over".into(),
            ));
        }
        let weights: Vec<u128> = active
            .iter()
            .map(|&d| throughput_weight(&topology.devices[d], elem))
            .collect();
        // Capacity caps only bind under Full — every device must hold its
        // whole shard resident; the streamed policies fit by sub-tiling.
        let caps: Vec<Option<usize>> = active
            .iter()
            .map(|&d| {
                matches!(tiling, TilePolicy::Full).then(|| {
                    full_resident_row_cap(n, k_budget, elem, input_bytes, &topology.devices[d])
                })
            })
            .collect();
        let counts = match capped_proportional_rows(n, &weights, &caps) {
            Some(counts) => counts,
            None => {
                // The pool as a whole cannot hold n rows resident: report
                // the first device an uncapped throughput share overfills.
                let counts = proportional_rows(n, &weights);
                let (device, rows) = active
                    .iter()
                    .zip(&counts)
                    .zip(&caps)
                    .find(|((_, &rows), cap)| cap.is_some_and(|c| rows > c))
                    .map(|((&d, &rows), _)| (d, rows))
                    .expect("capacity exhaustion implies an overfull device");
                let required = workspace_bytes(n, k_budget, elem, input_bytes)
                    + tile_bytes(rows, n, elem) as u128;
                return Err(CoreError::DeviceShardMemoryExceeded {
                    device,
                    required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                    available_bytes: topology.devices[device].mem_bytes,
                });
            }
        };
        let layout = PanelLayout {
            n,
            k_budget,
            elem,
            input_bytes,
            tiling,
        };
        Self::planned(
            n,
            consecutive_entries(0, &active, &counts),
            &layout,
            topology,
        )
    }

    /// Plan over an executor's topology and liveness: the throughput-weighted
    /// partition of [`ShardPlan::balanced_by_throughput`] restricted to the
    /// devices the executor reports alive
    /// ([`popcorn_gpusim::Executor::shard_alive`]). This is the entry point
    /// the fit dispatcher uses, so a fit retried after a surfaced device loss
    /// automatically plans over the survivors.
    pub fn for_executor(
        n: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let (topology, alive) = live_topology(executor)?;
        Self::balanced_by_throughput(
            n,
            k_budget,
            elem,
            input_bytes,
            tiling,
            topology,
            Some(&alive),
        )
    }

    /// Partition `0..n` at the given ascending split points (device `d` gets
    /// `boundaries[d-1]..boundaries[d]`); `boundaries.len()` must be one less
    /// than the device count. Property tests use this to prove results are
    /// independent of the partition.
    pub fn with_boundaries(
        n: usize,
        boundaries: &[usize],
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
    ) -> Result<Self> {
        let p = topology.devices.len();
        if boundaries.len() + 1 != p {
            return Err(CoreError::InvalidConfig(format!(
                "a {p}-device topology needs {} shard boundaries, got {}",
                p - 1,
                boundaries.len()
            )));
        }
        let mut shards = Vec::with_capacity(p);
        let mut start = 0usize;
        for (device, &end) in boundaries.iter().chain(std::iter::once(&n)).enumerate() {
            if end < start || end > n {
                return Err(CoreError::InvalidConfig(format!(
                    "shard boundaries must be ascending and at most n = {n}"
                )));
            }
            shards.push(DeviceShard {
                device,
                rows: start..end,
                tile_rows: 0,
            });
            start = end;
        }
        let layout = PanelLayout {
            n,
            k_budget,
            elem,
            input_bytes,
            tiling,
        };
        Self::planned(n, shards, &layout, topology)
    }

    /// Rebuild a plan from explicit entries, validating that they
    /// contiguously cover `0..n`.
    pub fn from_shards(n: usize, shards: Vec<DeviceShard>) -> Result<Self> {
        let mut next = 0usize;
        for shard in &shards {
            if shard.rows.start != next || shard.rows.end < shard.rows.start {
                return Err(CoreError::InvalidConfig(format!(
                    "shard rows must contiguously cover 0..{n}: expected a shard starting at \
                     {next}, got {}..{}",
                    shard.rows.start, shard.rows.end
                )));
            }
            next = shard.rows.end;
        }
        if next != n {
            return Err(CoreError::InvalidConfig(format!(
                "shard rows must contiguously cover 0..{n}: coverage ends at {next}"
            )));
        }
        Ok(Self { n, shards })
    }

    /// Re-partition the `lost` device's rows over the surviving (`alive` and
    /// not `lost`) devices, throughput-weighted, splicing the replacement
    /// chunks exactly where the lost entries sat so the global row order —
    /// and therefore every fold order — is unchanged.
    ///
    /// Returns the new plan and a carry map aligned with its entries:
    /// `Some(i)` marks an entry carried verbatim from index `i` of `self`
    /// (its resident cache survives), `None` marks a fresh chunk whose tiles
    /// the new owner must compute.
    #[allow(clippy::too_many_arguments)]
    pub fn reassign_device(
        &self,
        lost: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
        alive: &[bool],
    ) -> Result<(ShardPlan, Vec<Option<usize>>)> {
        let layout = PanelLayout {
            n: self.n,
            k_budget,
            elem,
            input_bytes,
            tiling,
        };
        self.splice_out(lost, elem, topology, alive, &layout)
    }

    /// Throughput-weighted partition of `0..n` over the executor's alive
    /// devices with every entry sized by `layout` — the planner for
    /// representations whose capacity math is not the dense tile buffer's.
    pub(crate) fn for_executor_with(
        n: usize,
        elem: usize,
        executor: &dyn Executor,
        layout: &dyn ShardLayout,
    ) -> Result<Self> {
        let (topology, alive) = live_topology(executor)?;
        let shards = split_rows_by_throughput(0..n, elem, topology, &alive)?;
        Self::planned(n, shards, layout, topology)
    }

    /// A plan over contiguous `shards`, every entry sized by `layout`.
    fn planned(
        n: usize,
        mut shards: Vec<DeviceShard>,
        layout: &dyn ShardLayout,
        topology: &DeviceTopology,
    ) -> Result<Self> {
        for index in 0..shards.len() {
            shards[index].tile_rows = layout.plan_entry(&shards, index, topology)?;
        }
        Ok(Self { n, shards })
    }

    /// [`ShardPlan::reassign_device`] with each fresh chunk sized by
    /// `layout`, which sees the whole spliced plan so a capacity check can
    /// count what a survivor already holds.
    fn splice_out(
        &self,
        lost: usize,
        elem: usize,
        topology: &DeviceTopology,
        alive: &[bool],
        layout: &dyn ShardLayout,
    ) -> Result<(ShardPlan, Vec<Option<usize>>)> {
        let survivors: Vec<bool> = (0..topology.devices.len())
            .map(|d| d != lost && alive.get(d).copied().unwrap_or(false))
            .collect();
        if !survivors.contains(&true) {
            return Err(CoreError::InvalidConfig(format!(
                "device {lost} was lost but no alive devices remain to take over its rows"
            )));
        }
        let mut shards = Vec::with_capacity(self.shards.len() + survivors.len());
        let mut carry = Vec::with_capacity(shards.capacity());
        for (index, shard) in self.shards.iter().enumerate() {
            if shard.device != lost {
                shards.push(shard.clone());
                carry.push(Some(index));
                continue;
            }
            // An empty lost entry migrates nothing and is dropped.
            for chunk in split_rows_by_throughput(shard.rows.clone(), elem, topology, &survivors)? {
                if !chunk.rows.is_empty() {
                    shards.push(chunk);
                    carry.push(None);
                }
            }
        }
        for index in 0..shards.len() {
            if carry[index].is_none() {
                shards[index].tile_rows = layout.plan_entry(&shards, index, topology)?;
            }
        }
        Ok((ShardPlan { n: self.n, shards }, carry))
    }

    /// Number of points `n` the plan covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-device shards, in row order.
    pub fn shards(&self) -> &[DeviceShard] {
        &self.shards
    }

    /// Number of plan entries (one per device until a re-plan splits rows).
    pub fn device_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct devices that own at least one row — the all-reduce
    /// fires only when this exceeds one.
    pub fn participating_devices(&self) -> usize {
        let mut devices: Vec<usize> = self
            .shards
            .iter()
            .filter(|s| !s.rows.is_empty())
            .map(|s| s.device)
            .collect();
        devices.sort_unstable();
        devices.dedup();
        devices.len()
    }

    /// The device owning row `i`.
    pub fn device_of(&self, row: usize) -> usize {
        self.shards
            .iter()
            .find(|s| s.rows.contains(&row))
            .map(|s| s.device)
            .unwrap_or(0)
    }

    /// The largest per-device sub-tile height in the plan.
    pub fn max_tile_rows(&self) -> usize {
        self.shards.iter().map(|s| s.tile_rows).max().unwrap_or(0)
    }
}

/// Throughput-weighted split of `rows` over the devices marked alive, in
/// device order, as entries still to be planned (`tile_rows` 0). Every alive
/// device gets an entry (possibly empty); the entries always cover `rows`.
fn split_rows_by_throughput(
    rows: Range<usize>,
    elem: usize,
    topology: &DeviceTopology,
    alive: &[bool],
) -> Result<Vec<DeviceShard>> {
    let active: Vec<usize> = (0..topology.devices.len())
        .filter(|&d| alive.get(d).copied().unwrap_or(false))
        .collect();
    if active.is_empty() {
        return Err(CoreError::InvalidConfig(
            "no alive devices left to shard the kernel matrix over".into(),
        ));
    }
    let weights: Vec<u128> = active
        .iter()
        .map(|&d| throughput_weight(&topology.devices[d], elem))
        .collect();
    let counts = proportional_rows(rows.len(), &weights);
    Ok(consecutive_entries(rows.start, &active, &counts))
}

/// Consecutive entries still to be planned, from row `start` on: `counts[i]`
/// rows on `devices[i]`.
fn consecutive_entries(mut start: usize, devices: &[usize], counts: &[usize]) -> Vec<DeviceShard> {
    devices
        .iter()
        .zip(counts)
        .map(|(&device, &count)| {
            let rows = start..start + count;
            start = rows.end;
            DeviceShard {
                device,
                rows,
                tile_rows: 0,
            }
        })
        .collect()
}

/// The executor's device topology and per-device liveness.
fn live_topology(executor: &dyn Executor) -> Result<(&DeviceTopology, Vec<bool>)> {
    let Some(topology) = executor.topology() else {
        return Err(CoreError::InvalidConfig(
            "the executor reports multiple shards but no device topology; \
             an Executor implementation overriding shard_count() must also \
             override topology()"
                .into(),
        ));
    };
    let alive = (0..topology.devices.len())
        .map(|d| executor.shard_alive(d))
        .collect();
    Ok((topology, alive))
}

/// Integer-scaled relative throughput of one device at the fit's element
/// width: `sqrt(peak GFLOP/s × memory GB/s)`, the geometric mean of the two
/// roofline ceilings, scaled by 10⁶ and rounded. The integer scaling makes
/// uniform pools produce *exactly* the `d·n/p` boundaries of
/// [`ShardPlan::balanced`] (float boundaries could round a degenerate pool
/// off by one).
fn throughput_weight(spec: &DeviceSpec, elem: usize) -> u128 {
    let ceiling = (spec.peak_gflops_for(elem) * spec.mem_bandwidth_gbs).sqrt();
    ((ceiling * 1e6).round() as u128).max(1)
}

/// Split `n` rows proportionally to `weights` via cumulative integer
/// boundaries (`end_i = ⌊cum_i · n / total⌋`), so the counts always sum to
/// `n` and equal weights reproduce the balanced split exactly.
fn proportional_rows(n: usize, weights: &[u128]) -> Vec<usize> {
    let total: u128 = weights.iter().sum::<u128>().max(1);
    let mut counts = Vec::with_capacity(weights.len());
    let mut cum = 0u128;
    let mut prev = 0usize;
    for &w in weights {
        cum += w;
        let end = usize::try_from(cum * n as u128 / total).expect("boundary bounded by n");
        counts.push(end - prev);
        prev = end;
    }
    counts
}

/// [`proportional_rows`] with optional per-entry row caps: capped entries are
/// pinned at their cap and the overflow is redistributed proportionally over
/// the rest, iterating until stable. `None` when the caps cannot absorb all
/// `n` rows.
fn capped_proportional_rows(
    n: usize,
    weights: &[u128],
    caps: &[Option<usize>],
) -> Option<Vec<usize>> {
    let m = weights.len();
    let mut fixed: Vec<Option<usize>> = vec![None; m];
    loop {
        let free: Vec<usize> = (0..m).filter(|&i| fixed[i].is_none()).collect();
        let assigned: usize = fixed.iter().flatten().sum();
        let remaining = n - assigned;
        if free.is_empty() {
            return (remaining == 0).then(|| fixed.into_iter().flatten().collect());
        }
        let free_weights: Vec<u128> = free.iter().map(|&i| weights[i]).collect();
        let sub = proportional_rows(remaining, &free_weights);
        let mut capped_any = false;
        for (j, &i) in free.iter().enumerate() {
            if let Some(cap) = caps[i] {
                if sub[j] > cap {
                    fixed[i] = Some(cap);
                    capped_any = true;
                }
            }
        }
        if !capped_any {
            for (j, &i) in free.iter().enumerate() {
                fixed[i] = Some(sub[j]);
            }
            return Some(fixed.into_iter().flatten().collect());
        }
    }
}

/// Rows `spec` can hold resident next to the replicated fit workspace —
/// the [`TilePolicy::Full`] capacity cap, matching [`plan_tile_rows`]'
/// `workspace + rows·n·elem ≤ mem` check exactly.
fn full_resident_row_cap(
    n: usize,
    k_budget: usize,
    elem: usize,
    input_bytes: u64,
    spec: &DeviceSpec,
) -> usize {
    let mem = spec.mem_bytes as u128;
    let workspace = workspace_bytes(n, k_budget, elem, input_bytes);
    let per_row = (n as u128 * elem as u128).max(1);
    if mem <= workspace {
        return 0;
    }
    usize::try_from((mem - workspace) / per_row).unwrap_or(usize::MAX)
}

/// Restores "no active shard" on drop, so an error inside a shard's tile
/// stream cannot leave the executor attributing unrelated work to a device.
pub(crate) struct ActiveShard<'a> {
    executor: &'a dyn Executor,
}

impl<'a> ActiveShard<'a> {
    fn activate(executor: &'a dyn Executor, device: usize) -> Self {
        executor.activate_shard(Some(device));
        Self { executor }
    }
}

impl Drop for ActiveShard<'_> {
    fn drop(&mut self) {
        self.executor.activate_shard(None);
    }
}

/// What a kernel representation tells the [`ShardedPass`] driver about its
/// plan entries. Fault polling, recovery, the row walk and the all-reduce
/// are the driver's.
pub(crate) trait ShardLayout {
    /// Sub-tile height of `entries[index]`, or the capacity error that rules
    /// its device out. `entries` is the whole plan, so a check can count
    /// everything the device holds.
    fn plan_entry(
        &self,
        entries: &[DeviceShard],
        index: usize,
        topology: &DeviceTopology,
    ) -> Result<usize>;

    /// Bytes `entry` keeps resident on its device.
    fn entry_bytes(&self, entry: &DeviceShard) -> u64;

    /// `true` when rows moved onto a survivor are re-uploaded (the stored
    /// entries exist only host-side) instead of recomputed in place.
    fn reuploads_migrated_rows(&self) -> bool {
        false
    }

    /// Called once per recovery, before the spliced plan takes over: `old`
    /// is the plan that lost device `lost`, and `carry[j]` is the index in
    /// `old` that entry `j` of the new plan was carried from (`None` for a
    /// fresh chunk). Per-entry caches are rebuilt here, and what their loss
    /// costs is added to `report`.
    fn carry_over(
        &self,
        old: &[DeviceShard],
        lost: usize,
        carry: &[Option<usize>],
        report: &mut RecoveryReport,
    ) {
        let _ = (old, lost, carry, report);
    }
}

/// The layout of the sources that compute dense row panels on the device
/// (exact and Nyström): each entry holds one `tile_rows × n` buffer, planned
/// by [`plan_tile_rows`] against a workspace with `input_bytes` resident.
pub(crate) struct PanelLayout {
    pub(crate) n: usize,
    pub(crate) k_budget: usize,
    pub(crate) elem: usize,
    /// Resident bytes the workspace holds besides the kernel-matrix tiles
    /// (the points, plus any factors).
    pub(crate) input_bytes: u64,
    pub(crate) tiling: TilePolicy,
}

impl PanelLayout {
    /// Plan a pass over `executor`: a throughput-weighted shard plan on a
    /// multi-device executor, plain tiling otherwise.
    pub(crate) fn plan_pass(&self, executor: &dyn Executor) -> Result<ShardedPass> {
        let (n, k, elem, bytes) = (self.n, self.k_budget, self.elem, self.input_bytes);
        if executor.shard_count() > 1 {
            let plan = ShardPlan::for_executor(n, k, elem, bytes, self.tiling, executor)?;
            let tile_rows = plan.max_tile_rows().max(1);
            Ok(ShardedPass::new(n, k, elem, tile_rows, Some(plan)))
        } else {
            let tile_rows = plan_tile_rows(n, k, elem, bytes, self.tiling, executor.device())?;
            Ok(ShardedPass::new(n, k, elem, tile_rows, None))
        }
    }
}

impl ShardLayout for PanelLayout {
    /// Maps the fit-level [`TilePolicy`] onto one entry, reusing
    /// [`plan_tile_rows`] for the capacity math. The panels of the device's
    /// other entries count as resident next to the workspace, so a recovery
    /// that piles migrated rows onto a survivor is sized (or rejected) against
    /// what the survivor already holds. A capacity rejection is promoted to
    /// [`CoreError::DeviceShardMemoryExceeded`] so the failing device of a
    /// heterogeneous pool is named.
    fn plan_entry(
        &self,
        entries: &[DeviceShard],
        index: usize,
        topology: &DeviceTopology,
    ) -> Result<usize> {
        let DeviceShard { device, rows, .. } = &entries[index];
        if rows.is_empty() {
            return Ok(0);
        }
        let held: u64 = entries
            .iter()
            .enumerate()
            .filter(|&(other, e)| other != index && e.device == *device)
            .map(|(_, e)| self.entry_bytes(e))
            .sum();
        let plan = |policy: TilePolicy| {
            let spec = &topology.devices[*device];
            plan_tile_rows(
                self.n,
                self.k_budget,
                self.elem,
                self.input_bytes.saturating_add(held),
                policy,
                spec,
            )
            .map_err(|e| match e {
                CoreError::DeviceMemoryExceeded {
                    required_bytes,
                    available_bytes,
                } => CoreError::DeviceShardMemoryExceeded {
                    device: *device,
                    required_bytes,
                    available_bytes,
                },
                other => other,
            })
        };
        match self.tiling {
            // "Full" on a sharded fit means: every device keeps its whole
            // shard resident; reject the topology if a device cannot.
            TilePolicy::Full => plan(TilePolicy::Rows(rows.len())),
            TilePolicy::Rows(0) => Err(CoreError::InvalidConfig(
                "tile_rows must be at least 1".into(),
            )),
            TilePolicy::Rows(tile) => plan(TilePolicy::Rows(tile.min(rows.len()))),
            TilePolicy::Auto => Ok(plan(TilePolicy::Auto)?.min(rows.len())),
        }
    }

    fn entry_bytes(&self, entry: &DeviceShard) -> u64 {
        tile_bytes(entry.tile_rows, self.n, self.elem)
    }
}

/// The plan in force and the number of completed passes.
#[derive(Debug)]
struct PassState {
    plan: ShardPlan,
    pass: usize,
}

/// The elastic multi-device pass every kernel source streams through.
///
/// It owns the shard plan and, at every pass boundary, drains the executor's
/// fault schedule: under [`RecoveryPolicy::Abort`] a loss surfaces as
/// [`CoreError::DeviceLost`]; under [`RecoveryPolicy::Resume`] the lost rows
/// are spliced over the survivors and the bytes are moved (see the module
/// docs). It then walks the rows in global row order with the owning device
/// active, and charges the all-reduce of the distance partials when more
/// than one device took part. Without a plan (one device) the pass is plain
/// tiling with no attribution.
#[derive(Debug)]
pub(crate) struct ShardedPass {
    n: usize,
    k_budget: usize,
    elem: usize,
    /// Sub-tile height fixed at construction; the walk's height without a
    /// plan.
    tile_rows: usize,
    /// Behind a mutex because a recovery re-plans between passes. Lock order
    /// is always this state before a source's caches (`carry_over` runs
    /// under it), and the walk releases it before visiting any rows.
    state: Option<Mutex<PassState>>,
}

impl ShardedPass {
    pub(crate) fn new(
        n: usize,
        k_budget: usize,
        elem: usize,
        tile_rows: usize,
        plan: Option<ShardPlan>,
    ) -> Self {
        Self {
            n,
            k_budget,
            elem,
            tile_rows,
            state: plan.map(|plan| Mutex::new(PassState { plan, pass: 0 })),
        }
    }

    fn lock(&self) -> Option<MutexGuard<'_, PassState>> {
        self.state
            .as_ref()
            .map(|state| state.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Track every entry's resident bytes on its owning device; without a
    /// plan, the whole single-device footprint.
    pub(crate) fn track_resident(&self, layout: &dyn ShardLayout, executor: &dyn Executor) {
        let Some(state) = self.lock() else {
            executor.track_alloc(layout.entry_bytes(&DeviceShard {
                device: 0,
                rows: 0..self.n,
                tile_rows: self.tile_rows,
            }));
            return;
        };
        for entry in state.plan.shards() {
            let bytes = layout.entry_bytes(entry);
            if bytes > 0 {
                let _active = ActiveShard::activate(executor, entry.device);
                executor.track_alloc(bytes);
            }
        }
    }

    /// A snapshot of the plan in force (`None` on a single device).
    pub(crate) fn plan(&self) -> Option<ShardPlan> {
        self.lock().map(|state| state.plan.clone())
    }

    /// The sub-tile height fixed at construction.
    pub(crate) fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// The largest sub-tile height of the plan in force.
    pub(crate) fn max_tile_rows(&self) -> usize {
        self.lock()
            .map_or(self.tile_rows, |state| state.plan.max_tile_rows())
    }

    /// Attribute work on `row` to the device that owns it (nothing on a
    /// single device).
    pub(crate) fn activate_owner<'e>(
        &self,
        row: usize,
        executor: &'e dyn Executor,
    ) -> Option<ActiveShard<'e>> {
        let device = self.lock()?.plan.device_of(row);
        Some(ActiveShard::activate(executor, device))
    }

    /// One pass over every row, in global row order, so engines fold tiles
    /// exactly as a single-device stream would. `visit` gets each sub-tile
    /// with its owning device active, plus the plan-entry index when the
    /// range is a whole entry its device keeps resident.
    pub(crate) fn for_each_range(
        &self,
        layout: &dyn ShardLayout,
        executor: &dyn Executor,
        visit: &mut dyn FnMut(Range<usize>, Option<usize>) -> Result<()>,
    ) -> Result<()> {
        let Some(plan) = self.begin_pass(layout, executor)? else {
            for rows in row_tiles(0..self.n, self.tile_rows) {
                visit(rows, None)?;
            }
            return Ok(());
        };
        for (index, entry) in plan.shards().iter().enumerate() {
            if entry.rows.is_empty() {
                continue;
            }
            let _active = ActiveShard::activate(executor, entry.device);
            let resident = entry.is_resident().then_some(index);
            for rows in row_tiles(entry.rows.clone(), entry.tile_rows) {
                visit(rows, resident)?;
            }
        }
        if plan.participating_devices() > 1 {
            // Every device's rows of the `n × k` distance partials plus the
            // `k`-length cluster statistics.
            let bytes = (self.n as u64 + 1) * self.k_budget as u64 * self.elem as u64;
            executor.charge(
                format!(
                    "all-reduce distance partials (n={}, k={})",
                    self.n, self.k_budget
                ),
                Phase::PairwiseDistances,
                OpClass::AllReduce,
                OpCost::transfer(bytes),
            );
        }
        Ok(())
    }

    /// Drain the fault events due at this pass boundary, recover (or
    /// surface) any device loss, bump the pass counter and return this
    /// pass's plan.
    fn begin_pass(
        &self,
        layout: &dyn ShardLayout,
        executor: &dyn Executor,
    ) -> Result<Option<ShardPlan>> {
        let Some(mut state) = self.lock() else {
            return Ok(None);
        };
        let pass = state.pass;
        while let Some(event) = executor.poll_fault(pass) {
            match event.kind {
                FaultKind::DeviceLost { device } => {
                    if executor.recovery_policy() == RecoveryPolicy::Abort {
                        return Err(CoreError::DeviceLost { device, pass });
                    }
                    self.recover(&mut state, layout, device, pass, executor)?;
                }
                // Scale-up is lazy (scale-down is immediate): the joiner is
                // alive from now on but is only drafted by the next re-plan —
                // a later loss, or the next fit — because re-balancing onto
                // it mid-fit would discard survivors' resident tiles.
                FaultKind::DeviceJoined { .. } => {}
            }
        }
        state.pass += 1;
        Ok(Some(state.plan.clone()))
    }

    /// Resume in place after losing `lost`: splice its rows over the
    /// survivors, free its entries' bytes, track the fresh chunks' bytes on
    /// their new owners (charging a re-upload where the layout needs one)
    /// and account the work on one [`RecoveryReport`].
    fn recover(
        &self,
        state: &mut PassState,
        layout: &dyn ShardLayout,
        lost: usize,
        pass: usize,
        executor: &dyn Executor,
    ) -> Result<()> {
        let (topology, alive) =
            live_topology(executor).map_err(|_| CoreError::DeviceLost { device: lost, pass })?;
        let (plan, carry) = state
            .plan
            .splice_out(lost, self.elem, topology, &alive, layout)?;
        let before = executor.total_modeled_seconds();
        let mut report = RecoveryReport::default();
        for entry in state.plan.shards().iter().filter(|e| e.device == lost) {
            report.rows_migrated += entry.rows.len() as u64;
            let bytes = layout.entry_bytes(entry);
            if bytes > 0 {
                let _active = ActiveShard::activate(executor, lost);
                executor.track_free(bytes);
            }
        }
        for (entry, _) in plan
            .shards()
            .iter()
            .zip(&carry)
            .filter(|(_, c)| c.is_none())
        {
            let bytes = layout.entry_bytes(entry);
            if bytes == 0 {
                continue;
            }
            let _active = ActiveShard::activate(executor, entry.device);
            executor.track_alloc(bytes);
            if layout.reuploads_migrated_rows() {
                executor.charge(
                    format!(
                        "re-upload sparsified K rows {}..{} after device {lost} loss",
                        entry.rows.start, entry.rows.end
                    ),
                    Phase::KernelMatrix,
                    OpClass::Transfer,
                    OpCost::transfer(bytes),
                );
                report.bytes_reuploaded += bytes;
            }
        }
        report.reshard_seconds = executor.total_modeled_seconds() - before;
        layout.carry_over(state.plan.shards(), lost, &carry, &mut report);
        state.plan = plan;
        executor.note_recovery(&report);
        Ok(())
    }
}

/// A [`KernelSource`] that streams `K` in global row order while attributing
/// each device's rows — recomputation *and* the engine work folded over them
/// — to that device, then charges the per-pass all-reduce of the distance
/// partials against the topology's link.
///
/// The source is *elastic*: every [`KernelSource::for_each_tile`] pass runs
/// through the sharded pass, which recovers from a device loss under
/// [`RecoveryPolicy::Resume`] (see the module docs). Recovered fits stay
/// bit-identical to a fresh fit on the surviving topology because only
/// pricing attribution ever moves.
pub struct ShardedKernelSource<'a, T: Scalar> {
    inner: TiledKernel<'a, T>,
    layout: PanelLayout,
    pass: ShardedPass,
    /// Resident shards (`DeviceShard::is_resident`) are computed — and
    /// charged to their device — exactly once, then replayed from this cache
    /// on later passes, the multi-device analogue of [`crate::FullKernel`]'s
    /// charge-once semantics. Streaming (sub-tiled) shards never cache: their
    /// device cannot hold more than one tile. Indexed in lockstep with the
    /// plan's entries; a recovery rebuilds it through the carry map so
    /// survivors keep their caches. A `Mutex` (not `RefCell`) so the source
    /// satisfies the [`KernelSource`] `Sync` contract; the tile stream itself
    /// always runs on the driver thread.
    resident: Mutex<Vec<Option<DenseMatrix<T>>>>,
}

impl<'a, T: Scalar> ShardedKernelSource<'a, T> {
    /// Build a sharded source over retained points. Charges the (replicated)
    /// Gram-diagonal computation once, tracks the replicated bookkeeping on
    /// every device and each device's tile buffer on that device alone.
    pub fn new(
        points: FitInput<'a, T>,
        kernel: KernelFunction,
        plan: ShardPlan,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = points.n();
        if plan.n() != n {
            return Err(CoreError::InvalidConfig(format!(
                "shard plan covers {} rows but the input has {n} points",
                plan.n()
            )));
        }
        let elem = std::mem::size_of::<T>();
        let layout = PanelLayout {
            n,
            k_budget,
            elem,
            input_bytes: points.upload_bytes(),
            tiling: TilePolicy::Auto,
        };
        let tile_rows = plan.max_tile_rows().max(1);
        let inner = TiledKernel::build(points, kernel, tile_rows, executor, false)?;
        // The kernel diagonal is read by every device's tile transform:
        // replicated bookkeeping, tracked on all devices.
        executor.track_alloc(n as u64 * elem as u64);
        let resident = Mutex::new(vec![None; plan.shards().len()]);
        let pass = ShardedPass::new(n, k_budget, elem, tile_rows, Some(plan));
        pass.track_resident(&layout, executor);
        Ok(Self {
            inner,
            layout,
            pass,
            resident,
        })
    }

    /// Record the fit-level tile policy so elastic re-plans after a device
    /// loss honour it. The constructor's plan was already built with it; this
    /// only steers future re-plans (defaults to [`TilePolicy::Auto`]).
    pub fn with_tiling(mut self, tiling: TilePolicy) -> Self {
        self.layout.tiling = tiling;
        self
    }

    /// The row partition and per-device tiling currently in effect (a
    /// snapshot — a device loss may re-plan between passes).
    pub fn plan(&self) -> ShardPlan {
        self.pass
            .plan()
            .expect("the exact sharded source is always built over a plan")
    }
}

impl<T: Scalar> ShardLayout for ShardedKernelSource<'_, T> {
    fn plan_entry(
        &self,
        entries: &[DeviceShard],
        index: usize,
        topology: &DeviceTopology,
    ) -> Result<usize> {
        self.layout.plan_entry(entries, index, topology)
    }

    fn entry_bytes(&self, entry: &DeviceShard) -> u64 {
        self.layout.entry_bytes(entry)
    }

    /// The lost device's resident tiles are gone (their rows are recomputed,
    /// and charged, by their new owners on the next passes); survivors keep
    /// theirs.
    fn carry_over(
        &self,
        old: &[DeviceShard],
        lost: usize,
        carry: &[Option<usize>],
        report: &mut RecoveryReport,
    ) {
        let mut cache = self.resident.lock().unwrap_or_else(|p| p.into_inner());
        for (index, entry) in old.iter().enumerate() {
            if entry.device == lost && cache[index].is_some() {
                report.replayed_tiles += 1;
                report.replayed_bytes +=
                    tile_bytes(entry.rows.len(), self.layout.n, self.layout.elem);
            }
        }
        let rebuilt = carry
            .iter()
            .map(|c| c.and_then(|i| cache[i].take()))
            .collect();
        *cache = rebuilt;
    }
}

impl<T: Scalar> KernelSource<T> for ShardedKernelSource<'_, T> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn tile_rows(&self) -> usize {
        self.pass.max_tile_rows()
    }

    fn resident_bytes(&self) -> u64 {
        tile_bytes(self.pass.max_tile_rows(), self.layout.n, self.layout.elem)
    }

    fn diag(&self, executor: &dyn Executor) -> Result<Vec<T>> {
        // Computed from the replicated Gram diagonal: serial/replicated work.
        self.inner.diag(executor)
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        // Seed rows are produced by (and priced on) the device owning them.
        let _active = self.pass.activate_owner(i, executor);
        self.inner.row(i, executor)
    }

    fn for_each_tile(&self, executor: &dyn Executor, f: &mut TileVisitor<'_, T>) -> Result<()> {
        self.pass
            .for_each_range(self, executor, &mut |rows, resident| {
                let Some(index) = resident else {
                    let tile = self.inner.compute_tile(rows.start, rows.end, executor)?;
                    return f(rows, &tile);
                };
                // The device holds its whole shard: compute (and charge) it on
                // the first pass, replay it for free afterwards.
                let mut cache = self.resident.lock().unwrap_or_else(|p| p.into_inner());
                if cache[index].is_none() {
                    cache[index] = Some(self.inner.compute_tile(rows.start, rows.end, executor)?);
                }
                f(rows, cache[index].as_ref().expect("populated above"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_matrix::compute_kernel_matrix;
    use crate::nystrom::NystromKernel;
    use crate::sparsified::{SparsifiedKernel, Sparsify};
    use crate::strategy::KernelMatrixStrategy;
    use popcorn_dense::DenseMatrix;
    use popcorn_gpusim::{DeviceSpec, FaultPlan, LinkSpec, ShardedExecutor, SimExecutor, GIB};

    fn topo(p: usize) -> DeviceTopology {
        DeviceTopology::homogeneous(DeviceSpec::a100_80gb(), p, LinkSpec::nvlink())
    }

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            if (i + j) % 4 == 0 {
                0.0
            } else {
                ((i * d + j) as f64 * 0.29).sin() * 2.0
            }
        })
    }

    #[test]
    fn balanced_plan_partitions_all_rows() {
        for p in [1usize, 2, 3, 4, 7, 16] {
            let plan = ShardPlan::balanced(100, 10, 8, 1000, TilePolicy::Auto, &topo(p)).unwrap();
            assert_eq!(plan.device_count(), p);
            let mut next = 0usize;
            for (d, shard) in plan.shards().iter().enumerate() {
                assert_eq!(shard.device, d);
                assert_eq!(shard.rows.start, next);
                next = shard.rows.end;
                // Balanced shards differ by at most one row.
                assert!(shard.rows.len() >= 100 / p);
                assert!(shard.rows.len() <= 100 / p + 1);
                // Plenty of memory: every shard is fully resident.
                assert!(shard.is_resident());
            }
            assert_eq!(next, 100);
            assert_eq!(plan.device_of(0), 0);
            assert_eq!(plan.device_of(99), p - 1);
        }
    }

    #[test]
    fn more_devices_than_rows_leaves_empty_shards() {
        let plan = ShardPlan::balanced(3, 2, 8, 100, TilePolicy::Auto, &topo(8)).unwrap();
        let occupied: usize = plan.shards().iter().filter(|s| !s.rows.is_empty()).count();
        assert_eq!(occupied, 3);
        let total: usize = plan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(plan.participating_devices(), 3);
    }

    #[test]
    fn with_boundaries_validates_shape() {
        let t = topo(3);
        assert!(ShardPlan::with_boundaries(10, &[4], 2, 8, 0, TilePolicy::Auto, &t).is_err());
        assert!(
            ShardPlan::with_boundaries(10, &[7, 4], 2, 8, 0, TilePolicy::Auto, &t).is_err(),
            "descending boundaries must be rejected"
        );
        assert!(ShardPlan::with_boundaries(10, &[4, 11], 2, 8, 0, TilePolicy::Auto, &t).is_err());
        let plan = ShardPlan::with_boundaries(10, &[2, 9], 2, 8, 0, TilePolicy::Auto, &t).unwrap();
        assert_eq!(plan.shards()[0].rows, 0..2);
        assert_eq!(plan.shards()[1].rows, 2..9);
        assert_eq!(plan.shards()[2].rows, 9..10);
    }

    #[test]
    fn throughput_plan_degenerates_to_balanced_on_uniform_pools() {
        for p in [1usize, 2, 3, 5, 8] {
            let t = topo(p);
            let balanced = ShardPlan::balanced(101, 7, 8, 4096, TilePolicy::Auto, &t).unwrap();
            let weighted =
                ShardPlan::balanced_by_throughput(101, 7, 8, 4096, TilePolicy::Auto, &t, None)
                    .unwrap();
            assert_eq!(weighted, balanced, "p={p}");
        }
    }

    #[test]
    fn throughput_plan_favors_faster_devices_and_skips_dead_ones() {
        let mixed = DeviceTopology {
            devices: vec![
                DeviceSpec::a100_80gb(),
                DeviceSpec::h100_80gb(),
                DeviceSpec::a100_80gb(),
            ],
            interconnect: LinkSpec::nvlink(),
        };
        let n = 3_000;
        let plan =
            ShardPlan::balanced_by_throughput(n, 8, 8, 0, TilePolicy::Auto, &mixed, None).unwrap();
        let total: usize = plan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, n);
        let a100 = plan.shards()[0].rows.len();
        let h100 = plan.shards()[1].rows.len();
        assert!(
            h100 > a100,
            "the H100 must take the larger shard ({h100} vs {a100})"
        );
        // The two A100s get identical shares (up to the boundary rounding).
        assert!(plan.shards()[2].rows.len().abs_diff(a100) <= 1);
        // Masking a device out removes its entry entirely.
        let survivors = ShardPlan::balanced_by_throughput(
            n,
            8,
            8,
            0,
            TilePolicy::Auto,
            &mixed,
            Some(&[true, false, true]),
        )
        .unwrap();
        assert_eq!(survivors.device_count(), 2);
        assert!(survivors.shards().iter().all(|s| s.device != 1));
        let total: usize = survivors.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, n);
        assert!(ShardPlan::balanced_by_throughput(
            n,
            8,
            8,
            0,
            TilePolicy::Auto,
            &mixed,
            Some(&[false, false, false]),
        )
        .is_err());
    }

    #[test]
    fn throughput_plan_caps_full_shards_at_device_capacity() {
        // One roomy device next to one that can only hold a sliver: under
        // Full the sliver device is pinned at its cap and the rest flows to
        // the roomy one.
        let n = 20_000usize;
        let elem = 8usize;
        let small_rows = 2_000usize;
        let small_bytes = u64::try_from(workspace_bytes(n, 10, elem, 0)).unwrap()
            + (small_rows * n * elem) as u64;
        let lopsided = DeviceTopology {
            devices: vec![
                DeviceSpec::a100_80gb(),
                DeviceSpec::a100_80gb().with_mem_bytes(small_bytes),
            ],
            interconnect: LinkSpec::nvlink(),
        };
        let plan =
            ShardPlan::balanced_by_throughput(n, 10, elem, 0, TilePolicy::Full, &lopsided, None)
                .unwrap();
        assert_eq!(plan.shards()[1].rows.len(), small_rows);
        assert_eq!(plan.shards()[0].rows.len(), n - small_rows);
        assert!(plan.shards().iter().all(|s| s.is_resident()));
        // Streamed policies ignore the cap: the small device sub-tiles.
        let auto =
            ShardPlan::balanced_by_throughput(n, 10, elem, 0, TilePolicy::Auto, &lopsided, None)
                .unwrap();
        assert_eq!(auto.shards()[0].rows.len(), n / 2);
    }

    #[test]
    fn full_policy_rejects_devices_too_small_for_their_shard() {
        // 20k rows over 2 devices: each shard is 10k x 20k f64 = 1.6 GB.
        let n = 20_000;
        let small = DeviceTopology::homogeneous(
            DeviceSpec::a100_80gb().with_mem_bytes(GIB),
            2,
            LinkSpec::nvlink(),
        );
        let err = ShardPlan::balanced(n, 10, 8, 0, TilePolicy::Full, &small).unwrap_err();
        assert!(matches!(err, CoreError::DeviceShardMemoryExceeded { .. }));
        // The throughput planner reports the same exhaustion (every device
        // capped below its share).
        let err = ShardPlan::balanced_by_throughput(n, 10, 8, 0, TilePolicy::Full, &small, None)
            .unwrap_err();
        assert!(matches!(err, CoreError::DeviceShardMemoryExceeded { .. }));
        // Auto succeeds by sub-tiling inside each shard.
        let plan = ShardPlan::balanced(n, 10, 8, 0, TilePolicy::Auto, &small).unwrap();
        assert!(plan.shards().iter().all(|s| s.tile_rows < s.rows.len()));
        // And an explicit row height is clamped to the shard.
        let plan = ShardPlan::balanced(n, 10, 8, 0, TilePolicy::Rows(1_000), &small).unwrap();
        assert!(plan.shards().iter().all(|s| s.tile_rows == 1_000));
    }

    #[test]
    fn shard_capacity_error_names_the_device_and_both_byte_figures() {
        // Device 1 is too small for its 12k-row shard under Full; the error
        // must name it and quote both byte figures so a heterogeneous-pool
        // failure is actionable.
        let n = 20_000usize;
        let elem = 8usize;
        let topology = DeviceTopology {
            devices: vec![
                DeviceSpec::a100_80gb(),
                DeviceSpec::a100_80gb().with_mem_bytes(GIB),
            ],
            interconnect: LinkSpec::nvlink(),
        };
        let err = ShardPlan::with_boundaries(n, &[8_000], 10, elem, 0, TilePolicy::Full, &topology)
            .unwrap_err();
        let required =
            u64::try_from(workspace_bytes(n, 10, elem, 0) + tile_bytes(12_000, n, elem) as u128)
                .unwrap();
        assert_eq!(
            err,
            CoreError::DeviceShardMemoryExceeded {
                device: 1,
                required_bytes: required,
                available_bytes: GIB,
            }
        );
        let message = err.to_string();
        assert_eq!(
            message,
            format!(
                "device 1 cannot hold its shard: the shard layout needs {required} bytes \
                 resident but device 1 holds {GIB} bytes; move the boundaries, use the auto \
                 tiling policy, or drop the device"
            )
        );
    }

    #[test]
    fn from_shards_validates_contiguous_cover() {
        let shard = |device: usize, rows: Range<usize>| DeviceShard {
            device,
            tile_rows: rows.len(),
            rows,
        };
        let plan = ShardPlan::from_shards(10, vec![shard(0, 0..4), shard(2, 4..10)]).unwrap();
        assert_eq!(plan.n(), 10);
        assert_eq!(plan.participating_devices(), 2);
        assert!(ShardPlan::from_shards(10, vec![shard(0, 0..4), shard(1, 5..10)]).is_err());
        assert!(ShardPlan::from_shards(10, vec![shard(0, 0..4)]).is_err());
        assert!(ShardPlan::from_shards(10, vec![shard(0, 0..4), shard(1, 4..12)]).is_err());
    }

    #[test]
    fn reassign_device_splices_lost_rows_and_carries_survivors() {
        let t = topo(3);
        let plan = ShardPlan::balanced(90, 5, 8, 0, TilePolicy::Auto, &t).unwrap();
        let (replan, carry) = plan
            .reassign_device(1, 5, 8, 0, TilePolicy::Auto, &t, &[true, false, true])
            .unwrap();
        // Device 1's 30 rows are spliced (in place) over devices 0 and 2.
        let total: usize = replan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 90);
        assert!(replan.shards().iter().all(|s| s.device != 1));
        assert_eq!(replan.participating_devices(), 2);
        // Contiguous global cover is preserved.
        let mut next = 0usize;
        for shard in replan.shards() {
            assert_eq!(shard.rows.start, next);
            next = shard.rows.end;
        }
        assert_eq!(next, 90);
        // The carry map keeps the surviving entries and marks the fresh
        // chunks.
        assert_eq!(carry.len(), replan.shards().len());
        assert_eq!(carry[0], Some(0), "device 0's entry is carried");
        assert_eq!(
            carry.iter().filter(|c| c.is_none()).count(),
            2,
            "device 1's rows became two fresh chunks"
        );
        assert_eq!(
            *carry.last().unwrap(),
            Some(2),
            "device 2's entry is carried"
        );
        // Losing everything is rejected.
        assert!(plan
            .reassign_device(1, 5, 8, 0, TilePolicy::Auto, &t, &[false, false, false])
            .is_err());
    }

    #[test]
    fn sharded_source_reassembles_the_full_kernel_matrix_bit_for_bit() {
        let points = sample_points(17, 5);
        let exec = SimExecutor::a100_f32();
        let (full, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        for p in [2usize, 3, 5] {
            let sharded_exec =
                ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), p, LinkSpec::nvlink(), 8);
            let plan = ShardPlan::balanced(
                17,
                3,
                8,
                17 * 5 * 8,
                TilePolicy::Auto,
                sharded_exec.device_topology(),
            )
            .unwrap();
            let source = ShardedKernelSource::new(
                FitInput::Dense(&points),
                KernelFunction::paper_polynomial(),
                plan,
                3,
                &sharded_exec,
            )
            .unwrap();
            let mut out = DenseMatrix::<f64>::zeros(17, 17);
            let mut last_end = 0usize;
            source
                .for_each_tile(&sharded_exec, &mut |rows, tile| {
                    assert_eq!(rows.start, last_end, "tiles must arrive in row order");
                    last_end = rows.end;
                    for (local, i) in rows.clone().enumerate() {
                        out.row_mut(i).copy_from_slice(tile.row(local));
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(last_end, 17);
            for i in 0..17 {
                for j in 0..17 {
                    assert_eq!(
                        out[(i, j)].to_bits(),
                        full[(i, j)].to_bits(),
                        "p={p} ({i},{j})"
                    );
                }
            }
            // Every occupied device did concurrent work, and the pass ended
            // with exactly one all-reduce priced on the link.
            let busy = sharded_exec
                .per_device_modeled_seconds()
                .into_iter()
                .filter(|&s| s > 0.0)
                .count();
            assert_eq!(busy, p.min(17));
            assert!(sharded_exec.comm_modeled_seconds() > 0.0);
            let trace = sharded_exec.trace();
            let all_reduces = trace
                .records()
                .iter()
                .filter(|r| r.class == OpClass::AllReduce)
                .count();
            assert_eq!(all_reduces, 1);
            // No shard left active after the pass.
            sharded_exec.charge("probe", Phase::Other, OpClass::Other, OpCost::new(1, 1, 1));
            let serial_before = sharded_exec.serial_modeled_seconds();
            assert!(serial_before > 0.0, "post-pass ops must be serial");
        }
    }

    #[test]
    fn sharded_rows_are_priced_on_their_owning_device() {
        let points = sample_points(12, 4);
        let sharded_exec =
            ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        let plan = ShardPlan::balanced(
            12,
            2,
            8,
            12 * 4 * 8,
            TilePolicy::Auto,
            sharded_exec.device_topology(),
        )
        .unwrap();
        let source = ShardedKernelSource::new(
            FitInput::Dense(&points),
            KernelFunction::Linear,
            plan,
            2,
            &sharded_exec,
        )
        .unwrap();
        // Row 11 lives on device 2.
        let row = source.row(11, &sharded_exec).unwrap();
        assert_eq!(row.len(), 12);
        let seconds = sharded_exec.per_device_modeled_seconds();
        assert!(seconds[2] > 0.0);
        assert_eq!(seconds[1], 0.0);
        // diag is replicated/serial.
        let before = sharded_exec.serial_modeled_seconds();
        source.diag(&sharded_exec).unwrap();
        assert!(sharded_exec.serial_modeled_seconds() > before);
        // Per-device tile buffers were tracked on their owners only; the
        // diag bookkeeping on every device.
        let peaks = sharded_exec.per_device_peak_resident_bytes();
        assert!(peaks.iter().all(|&b| b > 0));
    }

    #[test]
    fn device_loss_mid_stream_recovers_bit_identically() {
        let points = sample_points(19, 4);
        let exec = SimExecutor::a100_f32();
        let (full, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        // Device 1 dies at the start of pass 1 (after its pass-0 tiles were
        // cached).
        let faulty = base.with_fault_plan(FaultPlan::new().lose(1, 1), RecoveryPolicy::Resume);
        let plan =
            ShardPlan::for_executor(19, 3, 8, 19 * 4 * 8, TilePolicy::Auto, &faulty).unwrap();
        let source = ShardedKernelSource::new(
            FitInput::Dense(&points),
            KernelFunction::paper_polynomial(),
            plan,
            3,
            &faulty,
        )
        .unwrap();
        for pass in 0..3 {
            let mut out = DenseMatrix::<f64>::zeros(19, 19);
            let mut last_end = 0usize;
            source
                .for_each_tile(&faulty, &mut |rows, tile| {
                    assert_eq!(rows.start, last_end, "row order survives recovery");
                    last_end = rows.end;
                    for (local, i) in rows.clone().enumerate() {
                        out.row_mut(i).copy_from_slice(tile.row(local));
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(last_end, 19);
            for i in 0..19 {
                for j in 0..19 {
                    assert_eq!(out[(i, j)].to_bits(), full[(i, j)].to_bits(), "pass {pass}");
                }
            }
        }
        // The plan no longer mentions device 1 and the recovery was
        // accounted: one event, its rows migrated, its cached tile replayed.
        let plan = source.plan();
        assert!(plan.shards().iter().all(|s| s.device != 1));
        assert_eq!(plan.participating_devices(), 2);
        let report = faulty.recovery_report().expect("recovery must be recorded");
        assert_eq!(report.events, 1);
        assert_eq!(report.devices_lost, 1);
        assert!(report.rows_migrated > 0);
        assert_eq!(report.replayed_tiles, 1);
        assert!(report.replayed_bytes > 0);
        assert_eq!(faulty.device_alive(), vec![true, false, true]);
    }

    /// One kernel source of each representation over `points`, built on
    /// `executor` with k = 2.
    fn elastic_source<'a>(
        representation: &str,
        points: &'a DenseMatrix<f64>,
        executor: &dyn Executor,
    ) -> Box<dyn KernelSource<f64> + 'a> {
        let input = FitInput::Dense(points);
        let kernel = KernelFunction::paper_polynomial();
        match representation {
            "exact" => {
                let plan = ShardPlan::for_executor(
                    input.n(),
                    2,
                    8,
                    input.upload_bytes(),
                    TilePolicy::Auto,
                    executor,
                )
                .unwrap();
                Box::new(ShardedKernelSource::new(input, kernel, plan, 2, executor).unwrap())
            }
            "nystrom" => Box::new(
                NystromKernel::new(input, kernel, 6, 3, TilePolicy::Auto, 2, executor).unwrap(),
            ),
            "csr" => Box::new(
                SparsifiedKernel::build(
                    input,
                    kernel,
                    Sparsify::Knn { neighbors: 6 },
                    TilePolicy::Auto,
                    2,
                    executor,
                )
                .unwrap(),
            ),
            other => unreachable!("no {other} representation"),
        }
    }

    /// Every representation recovers through the one sharded pass: `Abort`
    /// surfaces the loss, `Resume` moves the lost rows onto the survivors
    /// and accounts the move in the representation's own report fields.
    #[test]
    fn elastic_recovery_table_covers_every_representation() {
        let n = 24;
        let points = sample_points(n, 3);
        // (representation, replayed resident tiles, re-uploads migrated rows)
        let table = [("exact", 1, false), ("nystrom", 0, false), ("csr", 0, true)];
        for (name, replayed_tiles, reuploads) in table {
            let base =
                ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);

            let faulty = base.with_fault_plan(FaultPlan::new().lose(1, 1), RecoveryPolicy::Abort);
            let source = elastic_source(name, &points, &faulty);
            source.for_each_tile(&faulty, &mut |_, _| Ok(())).unwrap();
            let err = source
                .for_each_tile(&faulty, &mut |_, _| Ok(()))
                .unwrap_err();
            assert_eq!(err, CoreError::DeviceLost { device: 1, pass: 1 }, "{name}");
            // The loss was consumed: a retried fit plans over the survivors.
            assert_eq!(faulty.device_alive(), vec![true, false, true], "{name}");
            let retry_plan =
                ShardPlan::for_executor(n, 2, 8, 0, TilePolicy::Auto, &faulty).unwrap();
            assert!(retry_plan.shards().iter().all(|s| s.device != 1), "{name}");

            let faulty = base.with_fault_plan(FaultPlan::new().lose(1, 1), RecoveryPolicy::Resume);
            let source = elastic_source(name, &points, &faulty);
            let mut lost_seconds = 0.0;
            for pass in 0..3 {
                let mut covered = vec![0usize; n];
                source
                    .for_each_tile(&faulty, &mut |rows, _| {
                        rows.for_each(|i| covered[i] += 1);
                        Ok(())
                    })
                    .unwrap();
                assert!(covered.iter().all(|&c| c == 1), "{name} pass {pass}");
                if pass == 0 {
                    lost_seconds = faulty.per_device_modeled_seconds()[1];
                    assert!(lost_seconds > 0.0, "{name}: device 1 worked in pass 0");
                }
            }
            // No entry is left on the lost device: it priced nothing after
            // the recovery.
            assert_eq!(
                faulty.per_device_modeled_seconds()[1],
                lost_seconds,
                "{name}"
            );
            let report = faulty.recovery_report().expect("recovery must be recorded");
            assert_eq!(report.events, 1, "{name}");
            assert_eq!(report.devices_lost, 1, "{name}");
            assert_eq!(report.rows_migrated, 8, "{name}");
            assert_eq!(report.replayed_tiles, replayed_tiles, "{name}");
            assert_eq!(report.replayed_bytes > 0, replayed_tiles > 0, "{name}");
            assert_eq!(report.bytes_reuploaded > 0, reuploads, "{name}");
            assert_eq!(report.reshard_seconds > 0.0, reuploads, "{name}");
        }
    }
}
