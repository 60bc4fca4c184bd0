//! The `serve-acoustic` workload: open-loop `Assign` traffic against one
//! `popcorn_serve::Server` worker.
//!
//! The client is a single thread that both generates and collects. Request
//! `i` is due at `i / rate` seconds after the phase starts. Until then the
//! client blocks on the oldest outstanding reply, or sleeps when none is
//! outstanding; so it never spins and never retries, and a reply that
//! arrives past a due time makes that send late. Latency counts from the due
//! time, which charges a late send to the request. With one FIFO worker, a
//! request's service starts at the later of its send and the previous reply,
//! which splits latency into queue wait and service time from outside the
//! server.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::init_seed;
use popcorn_baselines::SolverKind;
use popcorn_core::{FitInput, FittedModel, KernelKmeansConfig, OwnedPoints};
use popcorn_data::synthetic::gaussian_blobs;
use popcorn_dense::DenseMatrix;
use popcorn_gpusim::{Executor, SimExecutor};
use popcorn_serve::{ServeOptions, ServeRequest, ServeResponse, Server, SubmitError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per `Assign` request.
pub const BATCH_ROWS: usize = 8;
/// Requests the server may queue before `submit` answers `Busy`.
pub const QUEUE_CAPACITY: usize = 64;
/// A rung stops sending (and fails) once this many requests are outstanding,
/// so an overloaded rung never fills the queue: at the rates this workload
/// sends, `Busy` can only mean a fault, and it counts as a failure.
pub const BACKLOG_LIMIT: usize = 32;
/// The p99 latency limit a rung must meet, in milliseconds.
pub const P99_LIMIT_MS: f64 = 50.0;
/// The reference rate at which `serve_p50_ms` / `serve_p99_ms` are taken.
pub const REFERENCE_RPS: f64 = 100.0;
/// Requests sent at the reference rate (at least).
pub const REFERENCE_REQUESTS: usize = 1000;
/// Ratio between neighbouring rungs of the fixed rate ladder for
/// `serve_max_rps`: rung `i` sends at `REFERENCE_RPS * LADDER_STEP^i`. The
/// ladder is walked upward until a rung fails.
pub const LADDER_STEP: f64 = 1.2;
/// Rungs on the ladder (the top one is about 20,000 req/s).
pub const LADDER_RUNGS: usize = 30;
/// Geometric bisection steps between the last passing and the first failing
/// rung, so the reported rate moves in steps of about 1.2^(1/4) = 4.7%.
pub const BISECT_STEPS: usize = 2;
/// Requests sent at the reference rate before any phase, unmeasured but
/// checked, so the first measured requests do not pay for cold caches.
pub const WARMUP_REQUESTS: usize = 50;
/// Seconds each ladder rung sends for.
pub const RUNG_SECONDS: f64 = 1.5;
/// Attempts a rung gets before the walk stops, so one stall of the host
/// does not end the walk early.
pub const RUNG_ATTEMPTS: usize = 2;

/// Shape of the served model and its query pool.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub n: usize,
    pub d: usize,
    pub k: usize,
    pub pool: usize,
    pub iterations: usize,
    /// Requests at the reference rate.
    pub reference_requests: usize,
    /// Ladder rungs tried at most.
    pub rungs: usize,
}

impl ServeSpec {
    pub fn new(smoke: bool) -> ServeSpec {
        if smoke {
            ServeSpec {
                n: 150,
                d: 6,
                k: 3,
                pool: 8,
                iterations: 5,
                reference_requests: 40,
                rungs: 2,
            }
        } else {
            ServeSpec {
                n: 2000,
                d: 50,
                k: 10,
                pool: 64,
                iterations: crate::workloads::ITERATIONS,
                reference_requests: REFERENCE_REQUESTS,
                rungs: LADDER_RUNGS,
            }
        }
    }

    pub fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("n", self.n.to_string()),
            ("d", self.d.to_string()),
            ("k", self.k.to_string()),
            ("iterations", self.iterations.to_string()),
            ("batch_rows", BATCH_ROWS.to_string()),
            ("query_pool", self.pool.to_string()),
            ("workers", "1".to_string()),
            ("queue_capacity", QUEUE_CAPACITY.to_string()),
            ("backlog_limit", BACKLOG_LIMIT.to_string()),
            ("p99_limit_ms", P99_LIMIT_MS.to_string()),
            ("reference_rps", REFERENCE_RPS.to_string()),
            ("reference_requests", self.reference_requests.to_string()),
            ("ladder_step", LADDER_STEP.to_string()),
            ("ladder_rungs", self.rungs.to_string()),
            ("bisect_steps", BISECT_STEPS.to_string()),
            ("rung_seconds", RUNG_SECONDS.to_string()),
            ("rung_attempts", RUNG_ATTEMPTS.to_string()),
        ]
    }

    /// Training points and the query pool, generated from `seed` (queries
    /// come from the same blobs as the training points).
    pub fn generate(&self, seed: u64) -> (DenseMatrix<f32>, Vec<DenseMatrix<f32>>) {
        let total = self.n + self.pool * BATCH_ROWS;
        let data = gaussian_blobs::<f32>(total, self.d, self.k, 1.0, seed);
        let points = data.points();
        let train = DenseMatrix::from_fn(self.n, self.d, |i, j| points[(i, j)]);
        let queries = (0..self.pool)
            .map(|b| {
                let base = self.n + b * BATCH_ROWS;
                DenseMatrix::from_fn(BATCH_ROWS, self.d, |i, j| points[(base + i, j)])
            })
            .collect();
        (train, queries)
    }

    pub fn config(&self, seed: u64) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(self.k)
            .with_max_iter(self.iterations)
            .with_convergence_check(false, 0.0)
            .with_seed(init_seed(seed))
    }
}

/// A started server with everything the client needs.
pub struct Served {
    pub server: Server,
    pub model: Arc<FittedModel<f32>>,
    pub queries: Vec<DenseMatrix<f32>>,
    /// Seconds the model fit took.
    pub fit_s: f64,
}

/// Library threads for the serve workload: the client thread and the one
/// server worker together use no more threads than the host has.
pub fn library_threads() -> usize {
    crate::host::nproc().saturating_sub(1).max(1)
}

/// Set-up: generate inputs, fit the model and start the server.
pub fn set_up(spec: &ServeSpec, seed: u64) -> Result<Served, String> {
    let (train, queries) = spec.generate(seed);
    let start = Instant::now();
    let (_, model) = SolverKind::Popcorn
        .build::<f32>(spec.config(seed))
        .fit_model(FitInput::Dense(&train))
        .map_err(|e| e.to_string())?;
    let fit_s = start.elapsed().as_secs_f64();
    let server = Server::start(
        model,
        SolverKind::Popcorn,
        ServeOptions {
            queue_capacity: QUEUE_CAPACITY,
            workers: 1,
        },
    );
    let model = server.model();
    Ok(Served {
        server,
        model,
        queries,
        fit_s,
    })
}

/// One request's outcome; times are seconds since the phase started.
#[derive(Debug, Clone)]
pub struct Request {
    pub batch: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// Labels answered, or `None` if refused or answered with an error.
    pub labels: Option<Vec<usize>>,
    /// `submit` refused the request (`Busy` or `Closed`).
    pub refused: bool,
}

/// One open-loop phase at a fixed rate.
#[derive(Debug, Clone)]
pub struct Phase {
    pub requests: Vec<Request>,
    /// The phase stopped sending because the backlog limit was reached.
    pub backlogged: bool,
}

/// Send `count` requests at `rate` per second.
pub fn open_loop(served: &Served, rate: f64, count: usize) -> Phase {
    let interval = 1.0 / rate;
    let t0 = Instant::now() + Duration::from_millis(2);
    let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let mut requests: Vec<Request> = Vec::with_capacity(count);
    let mut outstanding: VecDeque<(usize, popcorn_serve::Ticket)> = VecDeque::new();
    let mut backlogged = false;
    let collect = |requests: &mut Vec<Request>, index: usize, ticket: popcorn_serve::Ticket| {
        let response = ticket.wait();
        requests[index].done = since(Instant::now());
        if let ServeResponse::Assigned(batch) = response {
            requests[index].labels = Some(batch.labels);
        }
    };
    for i in 0..count {
        let batch = i % served.queries.len();
        let request = ServeRequest::Assign {
            queries: OwnedPoints::Dense(served.queries[batch].clone()),
        };
        let due = t0 + Duration::from_secs_f64(i as f64 * interval);
        loop {
            if Instant::now() >= due {
                break;
            }
            match outstanding.pop_front() {
                Some((index, ticket)) => collect(&mut requests, index, ticket),
                None => {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    break;
                }
            }
        }
        if outstanding.len() >= BACKLOG_LIMIT {
            backlogged = true;
            break;
        }
        let sent = since(Instant::now());
        let mut record = Request {
            batch,
            due: since(due),
            sent,
            done: sent,
            labels: None,
            refused: false,
        };
        match served.server.submit(request) {
            Ok(ticket) => {
                outstanding.push_back((requests.len(), ticket));
                requests.push(record);
            }
            Err(SubmitError::Busy) | Err(SubmitError::Closed) => {
                record.done = since(Instant::now());
                record.refused = true;
                requests.push(record);
            }
        }
    }
    while let Some((index, ticket)) = outstanding.pop_front() {
        collect(&mut requests, index, ticket);
    }
    Phase {
        requests,
        backlogged,
    }
}

/// Direct `FittedModel::assign` answers, one per query batch, computed once.
#[derive(Default)]
pub struct Expected {
    labels: HashMap<usize, Vec<usize>>,
}

impl Expected {
    /// `true` iff `request` was answered and equals the direct answer.
    pub fn matches(&mut self, served: &Served, request: &Request) -> bool {
        let Some(got) = &request.labels else {
            return false;
        };
        let want = self.labels.entry(request.batch).or_insert_with(|| {
            let exec = SimExecutor::a100_f32();
            served
                .model
                .assign(FitInput::Dense(&served.queries[request.batch]), &exec)
                .map(|b| b.labels)
                .unwrap_or_default()
        });
        want == got
    }
}

/// Checked figures of one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    pub attempted: usize,
    pub failed: usize,
    /// Requests `submit` refused.
    pub rejected: usize,
    /// Requests answered with an error instead of labels.
    pub errors: usize,
    /// Latency from due time of each correct answer, ms.
    pub latency_ms: Vec<f64>,
    /// Queue wait (due to service start) of each correct answer, ms.
    pub wait_ms: Vec<f64>,
    /// Service time of each correct answer, ms.
    pub service_ms: Vec<f64>,
    /// How late each send was, ms.
    pub lateness_ms: Vec<f64>,
    /// Correct answers per second from the first due time to the last reply.
    pub achieved_rps: f64,
    pub backlogged: bool,
}

impl PhaseStats {
    /// `true` when the phase met the latency limit without a growing
    /// backlog or any failure.
    pub fn meets_limit(&self) -> bool {
        if self.latency_ms.is_empty() {
            return false;
        }
        let p99 = percentile(&self.latency_ms, 99.0).unwrap_or(f64::INFINITY);
        let tenth = self.latency_ms.len() / 10;
        let last = median(&self.latency_ms[self.latency_ms.len() - tenth.max(1)..])
            .unwrap_or(f64::INFINITY);
        !self.backlogged && self.failed == 0 && p99 <= P99_LIMIT_MS && last <= P99_LIMIT_MS
    }
}

/// Check every answer of `phase` and split its latencies.
pub fn phase_stats(served: &Served, expected: &mut Expected, phase: &Phase) -> PhaseStats {
    let mut stats = PhaseStats {
        attempted: phase.requests.len(),
        backlogged: phase.backlogged,
        ..PhaseStats::default()
    };
    let mut previous_done = 0.0f64;
    let mut last_done = 0.0f64;
    for request in &phase.requests {
        stats
            .lateness_ms
            .push((request.sent - request.due).max(0.0) * 1e3);
        if request.refused {
            stats.failed += 1;
            stats.rejected += 1;
            continue;
        }
        if request.labels.is_none() {
            stats.failed += 1;
            stats.errors += 1;
            continue;
        }
        let start = request.sent.max(previous_done);
        previous_done = request.done;
        if !expected.matches(served, request) {
            stats.failed += 1;
            continue;
        }
        last_done = last_done.max(request.done);
        stats.latency_ms.push((request.done - request.due) * 1e3);
        stats.wait_ms.push((start - request.due).max(0.0) * 1e3);
        stats.service_ms.push((request.done - start) * 1e3);
    }
    let first_due = phase.requests.first().map_or(0.0, |r| r.due);
    if last_done > first_due {
        stats.achieved_rps = stats.latency_ms.len() as f64 / (last_done - first_due);
    }
    stats
}

/// The warm-up, the reference phase and the ladder walk.
pub struct ServeRun {
    pub warmup: PhaseStats,
    pub reference: PhaseStats,
    /// Every rung attempt, with its rate.
    pub rungs: Vec<(f64, PhaseStats)>,
    /// Achieved rate of the highest rung that met the limit.
    pub max_rps: f64,
}

/// Run the reference rate, walk the ladder until a rung fails, then bisect
/// between the last passing and the first failing rate. `between` runs after
/// the reference phase and after every rung attempt, while the server is
/// idle; its error ends the run.
pub fn run_traffic(
    spec: &ServeSpec,
    served: &Served,
    expected: &mut Expected,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<ServeRun, String> {
    let warmup = warm_up(spec, served, expected);
    let reference = phase_stats(
        served,
        expected,
        &open_loop(served, REFERENCE_RPS, spec.reference_requests),
    );
    between()?;
    let mut rungs = Vec::new();
    let mut max_rps = f64::NAN;
    // Up to RUNG_ATTEMPTS tries at `rate`; records the passing rate.
    let mut try_rate = |rate: f64, rungs: &mut Vec<(f64, PhaseStats)>| {
        let count = ((rate * RUNG_SECONDS) as usize).max(20);
        for _ in 0..RUNG_ATTEMPTS {
            let stats = phase_stats(served, expected, &open_loop(served, rate, count));
            let passed = stats.meets_limit();
            if passed {
                max_rps = stats.achieved_rps;
            }
            rungs.push((rate, stats));
            between()?;
            if passed {
                return Ok(true);
            }
        }
        Ok::<_, String>(false)
    };
    let mut passing = None;
    let mut failing = None;
    for i in 0..spec.rungs {
        let rate = ladder_rate(i);
        if try_rate(rate, &mut rungs)? {
            passing = Some(rate);
        } else {
            failing = Some(rate);
            break;
        }
    }
    if let (Some(mut lo), Some(mut hi)) = (passing, failing) {
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi).sqrt();
            if try_rate(mid, &mut rungs)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok(ServeRun {
        warmup,
        reference,
        rungs,
        max_rps,
    })
}

/// Rate of ladder rung `i`, requests per second.
pub fn ladder_rate(i: usize) -> f64 {
    REFERENCE_RPS * LADDER_STEP.powi(i as i32)
}

/// The unmeasured warm-up phase at the reference rate.
pub fn warm_up(spec: &ServeSpec, served: &Served, expected: &mut Expected) -> PhaseStats {
    let count = WARMUP_REQUESTS.min(spec.reference_requests);
    phase_stats(served, expected, &open_loop(served, REFERENCE_RPS, count))
}

/// Replay direct `FittedModel::assign` calls over the whole query pool under
/// `tracer`. Returns each batch's labels.
pub fn replay(
    served: &Served,
    tracer: &Tracer,
    exec: &dyn Executor,
) -> Result<Vec<Vec<usize>>, String> {
    served
        .queries
        .iter()
        .map(|q| {
            tracer
                .span("core.model.assign", || {
                    served.model.assign(FitInput::Dense(q), exec)
                })
                .map(|b| b.labels)
                .map_err(|e| e.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_records_the_rates() {
        let why = crate::workloads::recorded_why("serve-acoustic");
        assert!(why.contains(&format!(
            "{REFERENCE_RPS} req/s ({REFERENCE_REQUESTS} requests)"
        )));
        assert!(
            why.contains(&format!(
                "ladder {REFERENCE_RPS}x{LADDER_STEP}^i req/s, {BISECT_STEPS} bisection steps"
            )),
            "{why}"
        );
        assert!(
            why.contains(&format!("p99 limit {P99_LIMIT_MS} ms")),
            "{why}"
        );
    }
}
