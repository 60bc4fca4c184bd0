//! The three fit-shaped workloads: their generated inputs, the untraced
//! operation each one repeats, the checks on its outputs, and the traced
//! replay that calls the same public library functions one layer at a time.

use crate::trace::Tracer;
use popcorn_core::assignment::{assign_clusters_into, repair_empty_clusters};
use popcorn_core::distances::{
    accumulate_distance_csr_tile, accumulate_distance_tile, finish_distances, selection_weights,
};
use popcorn_core::init::initial_assignments_source;
use popcorn_core::kernel_matrix::compute_kernel_matrix;
use popcorn_core::{
    BatchOptions, ClusteringResult, FitInput, FitJob, FullKernel, HostParallelism, Initialization,
    KernelApprox, KernelFunction, KernelKmeans, KernelKmeansConfig, KernelSource, Solver,
    SparsifiedKernel, Sparsify,
};
use popcorn_data::synthetic::{blobs_with_noise_dims, gaussian_blobs, sparse_text_like};
use popcorn_data::{Dataset, SparseDataset};
use popcorn_dense::DenseMatrix;
use popcorn_gpusim::Executor;
use popcorn_sparse::SelectionMatrix;

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FitMnist,
    SweepLetter,
    KnnScotus,
    ServeAcoustic,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::FitMnist,
        Kind::SweepLetter,
        Kind::KnnScotus,
        Kind::ServeAcoustic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FitMnist => "fit-mnist",
            Kind::SweepLetter => "sweep-letter",
            Kind::KnnScotus => "knn-scotus",
            Kind::ServeAcoustic => "serve-acoustic",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Iterations every fit runs (no early stop), as in the paper's timings.
pub const ITERATIONS: usize = 30;

/// Shape and settings of one fit workload. `smoke` selects tiny shapes.
#[derive(Debug, Clone)]
pub struct FitSpec {
    pub kind: Kind,
    pub n: usize,
    pub d: usize,
    /// Clusters in the generator.
    pub classes: usize,
    /// `fit-mnist`: informative dimensions; `knn-scotus`: non-zeros per row.
    pub extra: usize,
    /// `k` of each job (one entry for a single fit).
    pub ks: Vec<usize>,
    /// Restarts per `k` (`sweep-letter` only).
    pub restarts: usize,
    /// `knn-scotus`: neighbours kept per row.
    pub knn: usize,
    pub iterations: usize,
    /// ARI against the generator's labels that every checked job must reach.
    pub ari_floor: f64,
}

impl FitSpec {
    pub fn new(kind: Kind, smoke: bool) -> FitSpec {
        let iterations = if smoke { 5 } else { ITERATIONS };
        let spec = match (kind, smoke) {
            (Kind::FitMnist, false) => FitSpec::single(kind, 2000, 784, 10, 16, 0, iterations),
            (Kind::FitMnist, true) => FitSpec::single(kind, 120, 40, 3, 4, 0, iterations),
            (Kind::KnnScotus, false) => FitSpec::single(kind, 1500, 30000, 10, 300, 32, iterations),
            (Kind::KnnScotus, true) => FitSpec::single(kind, 120, 300, 3, 60, 16, iterations),
            (Kind::SweepLetter, false) => FitSpec {
                ks: vec![10, 100],
                restarts: 4,
                ..FitSpec::single(kind, 3000, 16, 10, 0, 0, iterations)
            },
            (Kind::SweepLetter, true) => FitSpec {
                ks: vec![3, 6],
                restarts: 2,
                ..FitSpec::single(kind, 150, 4, 3, 0, 0, iterations)
            },
            (Kind::ServeAcoustic, _) => unreachable!("serve-acoustic is not a fit workload"),
        };
        FitSpec {
            ari_floor: ari_floor(kind, smoke),
            ..spec
        }
    }

    fn single(
        kind: Kind,
        n: usize,
        d: usize,
        classes: usize,
        extra: usize,
        knn: usize,
        iterations: usize,
    ) -> FitSpec {
        FitSpec {
            kind,
            n,
            d,
            classes,
            extra,
            ks: vec![classes],
            restarts: 1,
            knn,
            iterations,
            ari_floor: 0.0,
        }
    }

    /// The parameters recorded with every run.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        let mut p = vec![
            ("n", self.n.to_string()),
            ("d", self.d.to_string()),
            ("generator_classes", self.classes.to_string()),
            ("ks", format!("{:?}", self.ks)),
            ("restarts", self.restarts.to_string()),
            ("iterations", self.iterations.to_string()),
            ("ari_floor", self.ari_floor.to_string()),
        ];
        match self.kind {
            Kind::FitMnist => p.push(("informative_dims", self.extra.to_string())),
            Kind::KnnScotus => {
                p.push(("nnz_per_row", self.extra.to_string()));
                p.push(("knn", self.knn.to_string()));
            }
            _ => {}
        }
        p
    }

    /// Generate the workload's inputs from `seed`.
    pub fn generate(&self, seed: u64) -> Points {
        match self.kind {
            Kind::FitMnist => Points::Dense(blobs_with_noise_dims(
                self.n,
                self.d,
                self.extra,
                self.classes,
                1.0,
                1.0,
                seed,
            )),
            Kind::SweepLetter => {
                Points::Dense(gaussian_blobs(self.n, self.d, self.classes, 1.5, seed))
            }
            Kind::KnnScotus => Points::Sparse(sparse_text_like(
                self.n,
                self.d,
                self.classes,
                self.extra,
                seed,
            )),
            Kind::ServeAcoustic => unreachable!("serve-acoustic is not a fit workload"),
        }
    }

    /// The configuration of every job, in job order.
    pub fn jobs(&self, seed: u64) -> Vec<KernelKmeansConfig> {
        let base = KernelKmeansConfig::paper_defaults(self.ks[0])
            .with_max_iter(self.iterations)
            .with_convergence_check(false, 0.0)
            .with_seed(init_seed(seed));
        let base = match self.kind {
            Kind::KnnScotus => base
                .with_kernel(KernelFunction::Linear)
                .with_init(Initialization::KmeansPlusPlus)
                .with_approx(KernelApprox::Sparsified {
                    sparsify: Sparsify::Knn {
                        neighbors: self.knn,
                    },
                }),
            _ => base,
        };
        FitJob::k_sweep(&base, &self.ks, self.restarts)
            .into_iter()
            .map(|job| job.config)
            .collect()
    }
}

/// ARI floors, set below the lowest value seen over many seeds. The kNN-32
/// sparsified fit of `knn-scotus` reaches only 0.02-0.32 on its generator
/// (its large kernel diagonal favours merging clusters), so its floor only
/// rules out worse-than-chance labels. Smoke shapes run 5 iterations.
fn ari_floor(kind: Kind, smoke: bool) -> f64 {
    match (kind, smoke) {
        (Kind::FitMnist, false) => 0.3,
        (Kind::SweepLetter, false) => 0.3,
        (Kind::FitMnist | Kind::SweepLetter, true) => 0.1,
        _ => 0.0,
    }
}

/// The clustering seed derived from the workload seed.
pub fn init_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)
}

/// Generated points with their generator labels.
pub enum Points {
    Dense(Dataset<f32>),
    Sparse(SparseDataset<f32>),
}

impl Points {
    pub fn input(&self) -> FitInput<'_, f32> {
        match self {
            Points::Dense(d) => FitInput::Dense(d.points()),
            Points::Sparse(s) => FitInput::Sparse(s.points()),
        }
    }

    pub fn labels(&self) -> &[usize] {
        match self {
            Points::Dense(d) => d.labels(),
            Points::Sparse(s) => s.labels(),
        }
        .expect("generated datasets are labelled")
    }
}

/// Labels and objective of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    pub labels: Vec<usize>,
    pub objective: f64,
}

impl JobOutput {
    fn of(result: &ClusteringResult) -> JobOutput {
        JobOutput {
            labels: result.labels.clone(),
            objective: result.objective,
        }
    }

    /// Bitwise equality of labels and objective.
    pub fn same_bits(&self, other: &JobOutput) -> bool {
        self.labels == other.labels && self.objective.to_bits() == other.objective.to_bits()
    }
}

/// Run the workload's untraced operation once: one fit, or one batch under
/// `HostParallelism::Auto`.
pub fn run_op(spec: &FitSpec, points: &Points, seed: u64) -> Result<Vec<JobOutput>, String> {
    run_op_with(spec, points, seed, HostParallelism::Auto)
}

/// [`run_op`] with the batch driver's host parallelism set to `host` (it
/// matters only for the multi-job `sweep-letter` batch).
pub fn run_op_with(
    spec: &FitSpec,
    points: &Points,
    seed: u64,
    host: HostParallelism,
) -> Result<Vec<JobOutput>, String> {
    let jobs = spec.jobs(seed);
    let input = points.input();
    if spec.kind == Kind::SweepLetter {
        let fit_jobs: Vec<FitJob> = jobs.into_iter().map(FitJob::from).collect();
        let options = BatchOptions::default().with_host_threads(host);
        let batch = KernelKmeans::new(fit_jobs[0].config.clone())
            .fit_batch_with(input, &fit_jobs, &options)
            .map_err(|e| e.to_string())?;
        Ok(batch.results.iter().map(JobOutput::of).collect())
    } else {
        let result = KernelKmeans::new(jobs[0].clone())
            .fit_input(input)
            .map_err(|e| e.to_string())?;
        Ok(vec![JobOutput::of(&result)])
    }
}

/// Check one operation's outputs: labels in range, finite objectives, ARI
/// floors (on jobs whose `k` matches the generator), and — when a reference
/// is given — bitwise equality with it. Returns the failures found.
pub fn check(
    spec: &FitSpec,
    points: &Points,
    seed: u64,
    outputs: &[JobOutput],
    reference: Option<&[JobOutput]>,
) -> Vec<String> {
    let jobs = spec.jobs(seed);
    let mut failures = Vec::new();
    if outputs.len() != jobs.len() {
        failures.push(format!(
            "{} jobs returned, {} expected",
            outputs.len(),
            jobs.len()
        ));
        return failures;
    }
    for (j, (out, job)) in outputs.iter().zip(&jobs).enumerate() {
        if out.labels.len() != spec.n || out.labels.iter().any(|&l| l >= job.k) {
            failures.push(format!("job {j}: labels out of range or wrong length"));
        }
        if !out.objective.is_finite() {
            failures.push(format!(
                "job {j}: objective {} is not finite",
                out.objective
            ));
        }
        if job.k == spec.classes {
            match popcorn_metrics::adjusted_rand_index(points.labels(), &out.labels) {
                Ok(ari) if ari >= spec.ari_floor => {}
                Ok(ari) => failures.push(format!(
                    "job {j}: ARI {ari:.4} below the floor {}",
                    spec.ari_floor
                )),
                Err(e) => failures.push(format!("job {j}: ARI failed: {e}")),
            }
        }
        if let Some(reference) = reference {
            if !reference.get(j).is_some_and(|r| r.same_bits(out)) {
                failures.push(format!("job {j}: labels or objective bits differ"));
            }
        }
    }
    failures
}

/// Replay the workload's operation layer by layer under `tracer`, charging
/// every library op to `exec`. Produces the same outputs as [`run_op`].
pub fn replay(
    spec: &FitSpec,
    points: &Points,
    seed: u64,
    tracer: &Tracer,
    exec: &dyn Executor,
) -> Result<Vec<JobOutput>, String> {
    let jobs = spec.jobs(seed);
    let first = &jobs[0];
    let err = |e: popcorn_core::CoreError| e.to_string();
    match (spec.kind, points) {
        (Kind::KnnScotus, Points::Sparse(data)) => {
            let KernelApprox::Sparsified { sparsify } = first.approx else {
                unreachable!("knn-scotus jobs are sparsified");
            };
            let source = tracer
                .span("core.sparsified.select", || {
                    SparsifiedKernel::build(
                        FitInput::Sparse(data.points()),
                        first.kernel,
                        sparsify,
                        first.tiling,
                        first.k,
                        exec,
                    )
                })
                .map_err(err)?;
            replay_iterations(&source, &jobs, tracer, exec).map_err(err)
        }
        (_, Points::Dense(data)) => {
            let routine = first.strategy.select(data.n(), data.d());
            let gram_layer = match routine {
                popcorn_core::GramRoutine::Syrk => "dense.syrk",
                _ => "dense.gemm",
            };
            let (matrix, _) = tracer
                .span(gram_layer, || {
                    compute_kernel_matrix(data.points(), first.kernel, first.strategy, exec)
                })
                .map_err(err)?;
            let source = FullKernel::new(&matrix).map_err(err)?;
            replay_iterations(&source, &jobs, tracer, exec).map_err(err)
        }
        _ => unreachable!("workload inputs match their kind"),
    }
}

/// Per-job state of the lockstep replay.
struct JobState {
    labels: Vec<usize>,
    scratch: Vec<usize>,
    objective: f64,
}

/// The clustering iterations of every job, in lockstep (iteration-major,
/// job order), exactly as the library's fit loop and batch driver run them.
fn replay_iterations(
    source: &dyn KernelSource<f32>,
    jobs: &[KernelKmeansConfig],
    tracer: &Tracer,
    exec: &dyn Executor,
) -> popcorn_core::Result<Vec<JobOutput>> {
    let n = source.n();
    let norms = source.diag(exec)?;
    let sparse = source.csr().is_some();
    let mut states = Vec::with_capacity(jobs.len());
    for job in jobs {
        let init = || initial_assignments_source(source, job.k, job.init, job.seed, exec);
        let labels = match job.init {
            Initialization::KmeansPlusPlus => tracer.span("core.init.kmeanspp", init)?,
            Initialization::Random => init()?,
        };
        states.push(JobState {
            labels,
            scratch: Vec::new(),
            objective: f64::NAN,
        });
    }
    let iterations = jobs.iter().map(|j| j.max_iter).max().unwrap_or(0);
    for iteration in 0..iterations {
        for (job, state) in jobs.iter().zip(states.iter_mut()) {
            if iteration >= job.max_iter {
                continue;
            }
            let k = job.k;
            let selection = SelectionMatrix::<f32>::from_assignments(&state.labels, k)?;
            let weights = selection_weights(&selection);
            let mut e = DenseMatrix::<f32>::zeros(n, k);
            if sparse {
                source.for_each_csr_tile(exec, &mut |rows, panel| {
                    tracer.span("core.distances.fold_csr", || {
                        accumulate_distance_csr_tile(
                            &mut e, rows, panel, &selection, &weights, exec,
                        )
                    })
                })?;
            } else {
                source.for_each_tile(exec, &mut |rows, tile| {
                    tracer.span("core.distances.fold_dense", || {
                        accumulate_distance_tile(&mut e, rows, tile, &selection, exec)
                    })
                })?;
            }
            let distances = tracer
                .span("core.distances.finish", || {
                    finish_distances(e, &norms, &selection, exec)
                })?
                .distances;
            let stats = tracer.span("core.assignment.argmin", || {
                assign_clusters_into(&distances, &state.labels, &mut state.scratch, exec)
            });
            if job.repair_empty_clusters && stats.empty_clusters > 0 {
                repair_empty_clusters(&mut state.scratch, &distances, k);
            }
            std::mem::swap(&mut state.labels, &mut state.scratch);
            state.objective = stats.objective;
        }
    }
    Ok(states
        .into_iter()
        .map(|s| JobOutput {
            labels: s.labels,
            objective: s.objective,
        })
        .collect())
}

/// The `why` of `workload` in the repository's `BENCHMARK.json`.
#[cfg(test)]
pub fn recorded_why(workload: &str) -> String {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let entry = &json[json
        .find(&format!("\"name\": \"{workload}\""))
        .expect("workload listed")..];
    let why = &entry[entry.find("\"why\": \"").expect("workload has a why") + 8..];
    why[..why.find('"').expect("why is quoted")].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_records_the_ari_floors() {
        for kind in [Kind::FitMnist, Kind::SweepLetter, Kind::KnnScotus] {
            let floor = FitSpec::new(kind, false).ari_floor;
            let why = recorded_why(kind.name());
            assert!(
                why.contains(&format!("ARI floor {floor}")),
                "{}: {why}",
                kind.name()
            );
        }
    }
}
