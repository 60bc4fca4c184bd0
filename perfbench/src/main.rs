//! Measured host benchmark for the Popcorn kernel k-means workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Workloads: `fit-mnist`, `sweep-letter`, `knn-scotus`, `serve-acoustic`
//! (see `BENCHMARK.json` for why each exists). Inputs are generated from
//! `--seed`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it start
//! with `#` and carry the run metadata and a readable report.
//!
//! `--trace 0` times the workload's operation untraced and reports the
//! end-to-end metrics. Every workload reports every end-to-end metric, each
//! taken on the workload's own unit of work:
//!
//! | metric          | fit-mnist, knn-scotus | sweep-letter        | serve-acoustic                  |
//! |-----------------|-----------------------|---------------------|---------------------------------|
//! | `setup_s`       | input generation      | input generation    | generation + model fit + start  |
//! | `fit_s`         | one fit               | batch / jobs        | the set-up model fit            |
//! | `batch_s`       | one fit (1-job batch) | one 8-job batch     | service time of one 8-row batch |
//! | `serve_p50_ms`  | median fit latency    | median batch latency| p50 latency at the reference rate |
//! | `serve_max_rps` | fits per second       | batches per second  | highest rate meeting the limit |
//! | `peak_rss_mb`   | process `VmHWM`       | process `VmHWM`     | process `VmHWM`                 |
//!
//! Timings are medians over the run; the report lines add the highest
//! percentile with at least ten samples beyond it, and the sample count.
//! `setup_s` is the median of several set-up bursts spread over the run:
//! one before the measured work, the others between its operations (or
//! traffic phases) and, if too few fit, after it.
//! The p99 latency at the reference rate (`serve_p99_ms` in the report) is
//! too unsteady between runs on a small shared host to gate on, so the
//! result line carries it only in the traced run, as
//! `serve.reference.latency_ms_p99`.
//!
//! `--trace 1` replays the operation layer by layer (see [`trace`]) and
//! reports per-layer metrics, the host roofline probes, the single-thread
//! baseline (a child process with `POPCORN_NUM_THREADS=1`) and modeled
//! seconds on `DeviceSpec::epyc7763_socket()` for comparison.

mod host;
mod serve;
mod stats;
mod trace;
mod workloads;

use stats::{describe, json_num, json_str, median, percentile};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;
use trace::{layer_totals, LayerExecutor, LayerTotals, Tracer};
use workloads::{FitSpec, JobOutput, Kind};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Set-up bursts per run, spread over the run; `setup_s` is the median of
/// their medians. On a shared host the speed of a small set-up drifts by up
/// to 30% from one second to the next, so set-ups done back to back sample
/// one moment of it.
const SETUP_BURSTS: usize = 5;
/// Seconds each set-up burst repeats the set-up for (at least once).
const SETUP_BURST_SECONDS: f64 = 0.3;
/// Untraced operations a run makes at least, however long they take.
const MIN_OPS: usize = 3;
/// Untraced batch repetitions per driver setting in the traced
/// `sweep-letter` run.
const LOCKSTEP_REPS: usize = 3;

/// Layers that report the full set of quantities, in report order.
const LAYERS: [&str; 11] = [
    "dense.syrk",
    "dense.gemm",
    "sparse.gram_panel",
    "core.kernel.apply",
    "core.sparsified.select",
    "core.init.kmeanspp",
    "core.distances.fold_csr",
    "core.distances.fold_dense",
    "sparse.spmv",
    "core.distances.finish",
    "core.assignment.argmin",
];

#[derive(Debug, Clone)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Internal: run one traced replay and print per-layer self times.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            "--child-replay" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        child,
    })
}

/// What a run reports.
#[derive(Debug, Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match child_replay(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.kind == Kind::ServeAcoustic
        && std::env::var_os(popcorn_dense::parallel::NUM_THREADS_ENV).is_none()
    {
        // Set before any thread starts and before the library reads it.
        std::env::set_var(
            popcorn_dense::parallel::NUM_THREADS_ENV,
            serve::library_threads().to_string(),
        );
    }
    let params = match args.kind {
        Kind::ServeAcoustic => serve::ServeSpec::new(args.smoke).params(),
        kind => FitSpec::new(kind, args.smoke).params(),
    };
    println!(
        "# meta {}",
        host::metadata_json(args.kind.name(), args.seed, &params)
    );
    let outcome = match (args.kind, args.trace) {
        (Kind::ServeAcoustic, false) => untraced_serve(&args),
        (Kind::ServeAcoustic, true) => traced_serve(&args),
        (_, false) => untraced_fit(&args),
        (_, true) => traced_fit(&args),
    };
    match outcome {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for (name, value, unit) in &outcome.metrics {
                println!("# metric {name} = {} {unit}", json_num(*value));
            }
            println!(
                "# failed_frac = {} ({} of {} attempted)",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                outcome.failed,
                outcome.attempted
            );
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `full` repetitions, or one in smoke mode.
fn reps(args: &Args, full: usize) -> usize {
    if args.smoke {
        1
    } else {
        full
    }
}

/// Median of `samples`; a run without samples has nothing to report.
fn med(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).ok_or(format!("no successful {what} to report"))
}

/// Set-up timings, taken in bursts spread over the run.
#[derive(Debug, Default)]
struct SetupTimes {
    /// Median seconds of each burst.
    bursts: Vec<f64>,
    /// Every repetition's seconds.
    samples: Vec<f64>,
}

impl SetupTimes {
    /// One burst: repeat `make` for [`SETUP_BURST_SECONDS`] (at least once,
    /// once in smoke mode) and return the last result. Each result is
    /// dropped before the next set-up starts.
    fn burst<T>(
        &mut self,
        args: &Args,
        mut make: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let budget = if args.smoke { 0.0 } else { SETUP_BURST_SECONDS };
        let mut times = Vec::new();
        let mut last = None;
        let start = Instant::now();
        while times.is_empty() || start.elapsed().as_secs_f64() < budget {
            drop(last.take());
            let t = Instant::now();
            let made = make()?;
            times.push(t.elapsed().as_secs_f64());
            last = Some(made);
        }
        self.bursts.push(med(&times, "set-up")?);
        self.samples.extend(times);
        Ok(last.expect("at least one set-up ran"))
    }

    /// `true` until the run has taken its [`SETUP_BURSTS`] bursts.
    fn wants_more(&self, args: &Args) -> bool {
        self.bursts.len() < reps(args, SETUP_BURSTS)
    }

    fn median(&self) -> Result<f64, String> {
        med(&self.bursts, "set-up")
    }

    fn note(&self) -> String {
        format!(
            "setup_s: median of {} burst medians {}; all repetitions: {}",
            self.bursts.len(),
            describe(&self.bursts, "s"),
            describe(&self.samples, "s")
        )
    }
}

/// This program with the run's workload, seed and smoke flag, plus `flag`.
fn child_command(args: &Args, flag: &str) -> Result<Command, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args([
        "--workload",
        args.kind.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
        flag,
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

fn untraced_fit(args: &Args) -> Result<Outcome, String> {
    let spec = FitSpec::new(args.kind, args.smoke);
    let generate = || Ok(spec.generate(args.seed));
    let mut setup = SetupTimes::default();
    let points = setup.burst(args, generate)?;
    let mut out = Outcome::default();
    let mut op_s = Vec::new();
    let mut reference: Option<Vec<JobOutput>> = None;
    let min_ops = reps(args, MIN_OPS);
    let start = Instant::now();
    while out.attempted < min_ops || (!args.smoke && start.elapsed().as_secs_f64() < args.seconds) {
        let t = Instant::now();
        let result = workloads::run_op(&spec, &points, args.seed);
        let dt = t.elapsed().as_secs_f64();
        out.attempted += 1;
        let failures = match &result {
            Ok(outputs) => {
                workloads::check(&spec, &points, args.seed, outputs, reference.as_deref())
            }
            Err(e) => vec![e.clone()],
        };
        if failures.is_empty() {
            op_s.push(dt);
            if reference.is_none() {
                reference = result.ok();
            }
        } else {
            out.fail(failures.join("; "));
        }
        if setup.wants_more(args) {
            setup.burst(args, generate)?;
        }
    }
    while setup.wants_more(args) {
        setup.burst(args, generate)?;
    }
    if let Some(reference) = &reference {
        out.notes
            .push(ari_note(&spec, &points, args.seed, reference));
    }
    let op = med(&op_s, "operation").map_err(|e| format!("{e}: {}", out.notes.join("; ")))?;
    let jobs = spec.ks.len() * spec.restarts;
    let unit_name = if jobs > 1 { "batch" } else { "fit" };
    out.notes.push(setup.note());
    out.notes
        .push(format!("{unit_name} seconds: {}", describe(&op_s, "s")));
    out.metric("setup_s", setup.median()?, "s");
    out.metric("fit_s", op / jobs as f64, "s");
    out.metric("batch_s", op, "s");
    out.metric("serve_p50_ms", op * 1e3, "ms");
    out.metric("serve_max_rps", 1.0 / op, "1/s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    Ok(out)
}

fn ari_note(
    spec: &FitSpec,
    points: &workloads::Points,
    seed: u64,
    outputs: &[JobOutput],
) -> String {
    let aris: Vec<String> = spec
        .jobs(seed)
        .iter()
        .zip(outputs)
        .filter(|(job, _)| job.k == spec.classes)
        .map(|(_, out)| {
            popcorn_metrics::adjusted_rand_index(points.labels(), &out.labels)
                .map_or("error".to_string(), |a| format!("{a:.4}"))
        })
        .collect();
    format!(
        "ARI vs generator labels (floor {}): {}",
        spec.ari_floor,
        aris.join(", ")
    )
}

fn untraced_serve(args: &Args) -> Result<Outcome, String> {
    let spec = serve::ServeSpec::new(args.smoke);
    let mut fits = Vec::new();
    let mut set_up = || {
        let served = serve::set_up(&spec, args.seed)?;
        fits.push(served.fit_s);
        Ok(served)
    };
    let mut setup = SetupTimes::default();
    let served = setup.burst(args, &mut set_up)?;
    let mut expected = serve::Expected::default();
    let mut out = Outcome::default();
    // Later bursts run between traffic phases, while the server is idle.
    let run = serve::run_traffic(&spec, &served, &mut expected, &mut || {
        if setup.wants_more(args) {
            setup.burst(args, &mut set_up).map(drop)
        } else {
            Ok(())
        }
    })?;
    while setup.wants_more(args) {
        setup.burst(args, &mut set_up)?;
    }
    served.server.shutdown();
    for (label, stats) in [("warm-up", &run.warmup), ("reference", &run.reference)]
        .into_iter()
        .chain(run.rungs.iter().map(|(_, r)| ("rung", r)))
    {
        out.attempted += stats.attempted;
        if stats.failed > 0 {
            out.fail(format!(
                "{label}: {} of {} requests failed ({} refused, {} error replies, the rest wrong)",
                stats.failed, stats.attempted, stats.rejected, stats.errors
            ));
        }
    }
    let reference = &run.reference;
    out.notes.push(setup.note());
    out.notes.push(format!(
        "reference {} req/s latency: {}; p90/p95/p99.5/max {:.3}/{:.3}/{:.3}/{:.3} ms",
        serve::REFERENCE_RPS,
        describe(&reference.latency_ms, "ms"),
        percentile(&reference.latency_ms, 90.0).unwrap_or(f64::NAN),
        percentile(&reference.latency_ms, 95.0).unwrap_or(f64::NAN),
        percentile(&reference.latency_ms, 99.5).unwrap_or(f64::NAN),
        percentile(&reference.latency_ms, 100.0).unwrap_or(f64::NAN),
    ));
    out.notes.push(format!(
        "reference generator lateness: {}",
        describe(&reference.lateness_ms, "ms")
    ));
    for (rate, rung) in &run.rungs {
        out.notes.push(format!(
            "rung {rate:.1} req/s: achieved {:.2} req/s, p99 {:.3} ms, max lateness {:.3} ms, \
             backlogged {}, meets limit {}",
            rung.achieved_rps,
            percentile(&rung.latency_ms, 99.0).unwrap_or(f64::NAN),
            rung.lateness_ms.iter().copied().fold(0.0, f64::max),
            rung.backlogged,
            rung.meets_limit()
        ));
    }
    if !run.max_rps.is_finite() {
        return Err("no ladder rung met the latency limit".into());
    }
    out.metric("setup_s", setup.median()?, "s");
    out.metric("fit_s", med(&fits, "fit")?, "s");
    out.metric("batch_s", med(&reference.service_ms, "request")? / 1e3, "s");
    out.metric("serve_p50_ms", med(&reference.latency_ms, "request")?, "ms");
    out.metric("serve_max_rps", run.max_rps, "1/s");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    Ok(out)
}

/// One traced replay's figures.
struct ReplaySample {
    wall: f64,
    totals: BTreeMap<&'static str, LayerTotals>,
}

fn new_tracer(kind: Kind) -> (Arc<Tracer>, LayerExecutor) {
    let tracer = Arc::new(Tracer::new(kind.name()));
    let exec = LayerExecutor::new(
        popcorn_gpusim::DeviceSpec::epyc7763_socket(),
        std::mem::size_of::<f32>(),
        tracer.clone(),
    );
    (tracer, exec)
}

/// A digest of replay outputs, compared between parent and child.
fn digest(outputs: &[JobOutput]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for o in outputs {
        o.labels.hash(&mut h);
        o.objective.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Traced replays until half the run's seconds are spent (at least one).
fn replays(
    args: &Args,
    mut one: impl FnMut(&Tracer, &LayerExecutor) -> Result<(), String>,
) -> Result<Vec<ReplaySample>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let (tracer, exec) = new_tracer(args.kind);
        let t = Instant::now();
        one(&tracer, &exec)?;
        let wall = t.elapsed().as_secs_f64();
        let replay_spans = tracer.spans();
        samples.push(ReplaySample {
            wall,
            totals: layer_totals(&replay_spans),
        });
        spans.push(replay_spans);
        if args.smoke {
            break;
        }
    }
    write_spans(args, &spans)?;
    Ok(samples)
}

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
const SPANS_DIR: &str = ".bench_spans";

/// Write every replay's spans as JSON lines to
/// `.bench_spans/<workload>-seed<seed>.jsonl`.
fn write_spans(args: &Args, replays: &[Vec<trace::Span>]) -> Result<(), String> {
    use std::io::Write;
    let path = std::path::Path::new(SPANS_DIR).join(format!(
        "{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(SPANS_DIR)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (replay, spans) in replays.iter().enumerate() {
            for (id, s) in spans.iter().enumerate() {
                writeln!(
                    file,
                    "{{\"replay\": {replay}, \"id\": {id}, \"name\": {}, \"workload\": {}, \
                     \"start\": {}, \"end\": {}, \"parent\": {}, \"flop\": {}, \"bytes\": {}, \
                     \"modeled_s\": {}}}",
                    json_str(s.name),
                    json_str(s.workload),
                    json_num(s.start),
                    json_num(s.end),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_num(s.flop),
                    json_num(s.bytes),
                    json_num(s.modeled_s),
                )?;
            }
        }
        file.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The child's per-layer self times and wall time.
struct ChildReport {
    wall: f64,
    layers: BTreeMap<String, f64>,
    digest: u64,
}

/// Run one replay in a child process with one library thread.
fn single_thread_baseline(args: &Args) -> Result<ChildReport, String> {
    let mut cmd = child_command(args, "--child-replay")?;
    cmd.env(popcorn_dense::parallel::NUM_THREADS_ENV, "1");
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("single-thread replay failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut report = ChildReport {
        wall: f64::NAN,
        layers: BTreeMap::new(),
        digest: 0,
    };
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["wall", v] => report.wall = v.parse().map_err(|_| "bad wall line")?,
            ["digest", v] => report.digest = v.parse().map_err(|_| "bad digest line")?,
            ["layer", name, v] => {
                report
                    .layers
                    .insert(name.to_string(), v.parse().map_err(|_| "bad layer line")?);
            }
            _ => {}
        }
    }
    Ok(report)
}

fn child_replay(args: &Args) -> Result<(), String> {
    let (tracer, exec) = new_tracer(args.kind);
    let (wall, outputs) = match args.kind {
        Kind::ServeAcoustic => {
            let served = serve::set_up(&serve::ServeSpec::new(args.smoke), args.seed)?;
            let t = Instant::now();
            let labels = serve::replay(&served, &tracer, &exec)?;
            let wall = t.elapsed().as_secs_f64();
            served.server.shutdown();
            (wall, serve_outputs(labels))
        }
        kind => {
            let spec = FitSpec::new(kind, args.smoke);
            let points = spec.generate(args.seed);
            let t = Instant::now();
            let outputs = workloads::replay(&spec, &points, args.seed, &tracer, &exec)?;
            (t.elapsed().as_secs_f64(), outputs)
        }
    };
    println!("wall {wall}");
    println!("digest {}", digest(&outputs));
    for (name, t) in layer_totals(&tracer.spans()) {
        println!("layer {name} {}", t.self_s);
    }
    Ok(())
}

fn serve_outputs(labels: Vec<Vec<usize>>) -> Vec<JobOutput> {
    labels
        .into_iter()
        .map(|labels| JobOutput {
            labels,
            objective: 0.0,
        })
        .collect()
}

/// Per-layer metrics from the median replay figures, the child's
/// single-thread self times and the measured roofs.
fn layer_metrics(
    out: &mut Outcome,
    samples: &[ReplaySample],
    child: &ChildReport,
    roofs: &host::Roofs,
) {
    let threads = popcorn_dense::parallel::num_threads() as f64;
    out.notes.push(
        "gflop and gbytes are computed from the library's op cost records, not counted by \
         hardware; gflops, gbps and roof_frac divide them by measured self time"
            .into(),
    );
    out.notes.push(format!(
        "par_eff = single-thread self time / ({threads} threads x self time); model_ratio = \
         host self time / modeled seconds on DeviceSpec::epyc7763_socket(), a check on the \
         cost model and never a speedup"
    ));
    for layer in LAYERS {
        let self_s = median(
            &samples
                .iter()
                .map(|s| s.totals.get(layer).map_or(0.0, |t| t.self_s))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        let t = samples[0].totals.get(layer).copied().unwrap_or_default();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let gflop = t.flop / 1e9;
        let gbytes = t.bytes / 1e9;
        let gflops = ratio(gflop, self_s);
        let gbps = ratio(gbytes, self_s);
        let roof_frac = ratio(gflops, roofs.fma_gflops).max(ratio(gbps, roofs.triad_gbps));
        let child_self = child.layers.get(layer).copied().unwrap_or(0.0);
        out.metric(format!("{layer}.self_s"), self_s, "s");
        out.metric(format!("{layer}.calls"), t.calls, "count");
        out.metric(format!("{layer}.gflop"), gflop, "GFLOP");
        out.metric(format!("{layer}.gbytes"), gbytes, "GB");
        out.metric(format!("{layer}.gflops"), gflops, "GFLOP/s");
        out.metric(format!("{layer}.gbps"), gbps, "GB/s");
        out.metric(
            format!("{layer}.flop_per_byte"),
            ratio(gflop, gbytes),
            "FLOP/B",
        );
        out.metric(format!("{layer}.roof_frac"), roof_frac, "fraction");
        out.metric(
            format!("{layer}.par_eff"),
            ratio(child_self, threads * self_s),
            "fraction",
        );
        out.metric(
            format!("{layer}.model_ratio"),
            ratio(self_s, t.modeled_s),
            "ratio",
        );
    }
}

/// The replay-wide figures: unattributed share and tracing overhead.
fn replay_metrics(out: &mut Outcome, samples: &[ReplaySample], untraced_wall: f64) {
    let wall = median(&samples.iter().map(|s| s.wall).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let attributed = median(
        &samples
            .iter()
            .map(|s| s.totals.values().map(|t| t.self_s).sum::<f64>())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let unattributed = (wall - attributed) / wall;
    out.notes.push(format!(
        "replay wall {wall:.6} s over {} replays, untraced operation {untraced_wall:.6} s, \
         unattributed share {unattributed:.4}",
        samples.len()
    ));
    out.metric("replay.unattributed_frac", unattributed, "fraction");
    out.metric(
        "replay.overhead_frac",
        (wall - untraced_wall) / untraced_wall,
        "fraction",
    );
}

fn roofs_and_notes(out: &mut Outcome, args: &Args) -> host::Roofs {
    let roofs = host::measure_roofs(host::nproc(), args.smoke);
    out.notes.push(host::describe_roofs(&roofs));
    out.metric("host.fma.gflops", roofs.fma_gflops, "GFLOP/s");
    out.metric("host.triad.gbps", roofs.triad_gbps, "GB/s");
    roofs
}

fn traced_fit(args: &Args) -> Result<Outcome, String> {
    let spec = FitSpec::new(args.kind, args.smoke);
    let points = spec.generate(args.seed);
    let mut out = Outcome::default();
    let t = Instant::now();
    let reference = workloads::run_op(&spec, &points, args.seed)?;
    let untraced_wall = t.elapsed().as_secs_f64();
    out.attempted += 1;
    let failures = workloads::check(&spec, &points, args.seed, &reference, None);
    if !failures.is_empty() {
        out.fail(format!("untraced operation: {}", failures.join("; ")));
    }
    out.notes
        .push(ari_note(&spec, &points, args.seed, &reference));
    let mut mismatches = Vec::new();
    let samples = replays(args, |tracer, exec| {
        let outputs = workloads::replay(&spec, &points, args.seed, tracer, exec)?;
        if !outputs.iter().zip(&reference).all(|(a, b)| a.same_bits(b))
            || outputs.len() != reference.len()
        {
            mismatches.push("traced replay differs from the untraced operation".to_string());
        }
        Ok(())
    })?;
    out.attempted += samples.len();
    for m in mismatches {
        out.fail(m);
    }
    let child = single_thread_baseline(args)?;
    out.attempted += 1;
    if child.digest != digest(&reference) {
        out.fail("single-thread replay differs from the untraced operation".into());
    }
    let roofs = roofs_and_notes(&mut out, args);
    layer_metrics(&mut out, &samples, &child, &roofs);
    let (overhead_s, par_eff) = if args.kind == Kind::SweepLetter {
        lockstep_metrics(&mut out, args, &spec, &points, &reference, &samples)?
    } else {
        (0.0, 0.0)
    };
    out.metric("core.batch.lockstep.overhead_s", overhead_s, "s");
    out.metric("core.batch.lockstep.par_eff", par_eff, "fraction");
    for name in [
        "core.model.assign.self_s",
        "core.model.assign.calls",
        "core.model.assign.service_ms_p50",
        "core.model.assign.service_ms_p99",
        "serve.queue.wait_ms_p50",
        "serve.queue.wait_ms_p99",
        "serve.reference.latency_ms_p99",
    ] {
        out.metric(name, 0.0, unit_of(name));
    }
    replay_metrics(&mut out, &samples, untraced_wall);
    k_bytes_note(&mut out, spec.n, &roofs);
    Ok(out)
}

/// The lockstep driver against itself: median untraced batch seconds under
/// `HostParallelism::Sequential` and `Auto`, checked against `reference`.
/// Returns `overhead_s` (sequential batch minus the replay's summed layer
/// self time; the replay runs the jobs one after another as the sequential
/// driver does) and `par_eff` (T_seq / (workers x T_auto)).
fn lockstep_metrics(
    out: &mut Outcome,
    args: &Args,
    spec: &FitSpec,
    points: &workloads::Points,
    reference: &[JobOutput],
    samples: &[ReplaySample],
) -> Result<(f64, f64), String> {
    use popcorn_core::HostParallelism;
    let settings = [HostParallelism::Sequential, HostParallelism::Auto];
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..reps(args, LOCKSTEP_REPS) {
        for (host, times) in settings.iter().zip(times.iter_mut()) {
            let t = Instant::now();
            let outputs = workloads::run_op_with(spec, points, args.seed, *host)?;
            let dt = t.elapsed().as_secs_f64();
            out.attempted += 1;
            let failures = workloads::check(spec, points, args.seed, &outputs, Some(reference));
            if failures.is_empty() {
                times.push(dt);
            } else {
                out.fail(format!("{host:?} batch: {}", failures.join("; ")));
            }
        }
    }
    let seq = med(&times[0], "sequential batch")?;
    let auto = med(&times[1], "parallel batch")?;
    let workers = HostParallelism::Auto.resolve() as f64;
    let attributed = median(
        &samples
            .iter()
            .map(|s| s.totals.values().map(|t| t.self_s).sum::<f64>())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    out.notes.push(format!(
        "lockstep batch: sequential {}; auto ({workers} workers) {}; replay layer self time \
         {attributed:.6} s",
        describe(&times[0], "s"),
        describe(&times[1], "s")
    ));
    Ok((seq - attributed, seq / (workers * auto)))
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms_p50") || name.ends_with("_ms_p99") {
        "ms"
    } else if name.ends_with(".calls") {
        "count"
    } else if name.ends_with("_frac") {
        "fraction"
    } else {
        "s"
    }
}

fn k_bytes_note(out: &mut Outcome, n: usize, roofs: &host::Roofs) {
    let k_bytes = (n * n * std::mem::size_of::<f32>()) as u64;
    out.notes.push(format!(
        "dense K bytes {k_bytes} ({:.1} MiB) vs LLC {} MiB",
        k_bytes as f64 / (1 << 20) as f64,
        roofs.llc_bytes >> 20
    ));
}

fn traced_serve(args: &Args) -> Result<Outcome, String> {
    let spec = serve::ServeSpec::new(args.smoke);
    let served = serve::set_up(&spec, args.seed)?;
    let mut expected = serve::Expected::default();
    let mut out = Outcome::default();
    let warmup = serve::warm_up(&spec, &served, &mut expected);
    out.attempted += warmup.attempted;
    if warmup.failed > 0 {
        out.fail(format!(
            "warm-up: {} requests refused or wrong",
            warmup.failed
        ));
    }
    let t = Instant::now();
    let phase = serve::open_loop(&served, serve::REFERENCE_RPS, spec.reference_requests);
    let untraced_wall = t.elapsed().as_secs_f64();
    let stats = serve::phase_stats(&served, &mut expected, &phase);
    out.attempted += stats.attempted;
    if stats.failed > 0 {
        out.fail(format!(
            "reference: {} of {} requests refused or wrong",
            stats.failed, stats.attempted
        ));
    }
    let answers: BTreeMap<usize, Vec<usize>> = phase
        .requests
        .iter()
        .filter_map(|r| r.labels.clone().map(|l| (r.batch, l)))
        .collect();
    let mut service_ms = Vec::new();
    let mut mismatches = 0usize;
    let mut replayed = Vec::new();
    let samples = replays(args, |tracer, exec| {
        replayed = serve::replay(&served, tracer, exec)?;
        for (batch, got) in replayed.iter().enumerate() {
            if answers.get(&batch).is_some_and(|want| want != got) {
                mismatches += 1;
            }
        }
        service_ms.extend(
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == "core.model.assign")
                .map(|s| (s.end - s.start) * 1e3),
        );
        Ok(())
    })?;
    out.attempted += samples.len();
    if mismatches > 0 {
        out.fail(format!(
            "{mismatches} replayed answers differ from the served ones"
        ));
    }
    served.server.shutdown();
    let child = single_thread_baseline(args)?;
    out.attempted += 1;
    if child.digest != digest(&serve_outputs(replayed)) {
        out.fail("single-thread replay differs from the direct answers".into());
    }
    let roofs = roofs_and_notes(&mut out, args);
    layer_metrics(&mut out, &samples, &child, &roofs);
    out.metric("core.batch.lockstep.overhead_s", 0.0, "s");
    out.metric("core.batch.lockstep.par_eff", 0.0, "fraction");
    let assign = samples[0]
        .totals
        .get("core.model.assign")
        .copied()
        .unwrap_or_default();
    let assign_self = median(
        &samples
            .iter()
            .map(|s| s.totals.get("core.model.assign").map_or(0.0, |t| t.self_s))
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    out.metric("core.model.assign.self_s", assign_self, "s");
    out.metric("core.model.assign.calls", assign.calls, "count");
    out.metric(
        "core.model.assign.service_ms_p50",
        median(&service_ms).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "core.model.assign.service_ms_p99",
        percentile(&service_ms, 99.0).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "serve.queue.wait_ms_p50",
        median(&stats.wait_ms).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "serve.queue.wait_ms_p99",
        percentile(&stats.wait_ms, 99.0).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "serve.reference.latency_ms_p99",
        percentile(&stats.latency_ms, 99.0).unwrap_or(0.0),
        "ms",
    );
    out.notes.push(format!(
        "reference phase service (FIFO split): {}",
        describe(&stats.service_ms, "ms")
    ));
    // The untraced comparison for the replay is the reference phase's
    // summed service time over one pass of the query pool.
    let per_pass = median(&stats.service_ms).unwrap_or(0.0) / 1e3 * spec.pool as f64;
    out.notes.push(format!(
        "reference phase wall {untraced_wall:.6} s for {} requests",
        stats.attempted
    ));
    replay_metrics(&mut out, &samples, per_pass);
    k_bytes_note(&mut out, spec.n, &roofs);
    Ok(out)
}
