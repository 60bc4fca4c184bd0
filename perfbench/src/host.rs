//! Host facts recorded with every run, and the two roofline probes.

use crate::stats::{json_num, json_str};
use std::time::Instant;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size in bytes of the last-level cache as `cpuid` reports it (the source
/// `lscpu` reads too); `None` off x86-64.
pub fn llc_bytes() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let mut best: Option<(u32, u64)> = None;
        for index in 0..16 {
            // Leaf 4 (deterministic cache parameters) exists on every x86-64
            // CPU this benchmark targets; an unused index reports type 0.
            #[allow(unused_unsafe)]
            let r = unsafe { __cpuid_count(4, index) };
            if r.eax & 0x1f == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            let size = ways * partitions * line * sets;
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, size));
            }
        }
        best.map(|(_, size)| size)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// `(feature, compiled in, detected at run time)` for the FMA-related
/// target features.
pub fn target_features() -> Vec<(&'static str, bool, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            (
                "fma",
                cfg!(target_feature = "fma"),
                std::arch::is_x86_feature_detected!("fma"),
            ),
            (
                "avx2",
                cfg!(target_feature = "avx2"),
                std::arch::is_x86_feature_detected!("avx2"),
            ),
            (
                "avx512f",
                cfg!(target_feature = "avx512f"),
                std::arch::is_x86_feature_detected!("avx512f"),
            ),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("fma", cfg!(target_feature = "fma"), false)]
    }
}

/// The run metadata as one JSON object.
pub fn metadata_json(workload: &str, seed: u64, params: &[(&str, String)]) -> String {
    let threads_env = std::env::var(popcorn_dense::parallel::NUM_THREADS_ENV)
        .unwrap_or_else(|_| "unset".to_string());
    let features: Vec<String> = target_features()
        .iter()
        .map(|(name, compiled, detected)| {
            format!(
                "{}: {{\"compiled\": {compiled}, \"detected\": {detected}}}",
                json_str(name)
            )
        })
        .collect();
    let params: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"nproc\": {}, \"popcorn_num_threads\": {}, \
         \"library_threads\": {}, \"target_features\": {{{}}}, \"git_rev\": {}, \"rustc\": {}, \
         \"llc_bytes\": {}, \"params\": {{{}}}}}",
        json_str(workload),
        nproc(),
        json_str(&threads_env),
        popcorn_dense::parallel::num_threads(),
        features.join(", "),
        json_str(env!("PERFBENCH_GIT_REV")),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        llc_bytes().map_or("null".to_string(), |b| b.to_string()),
        params.join(", "),
    )
}

/// Result of the two roofline probes.
#[derive(Debug, Clone, Copy)]
pub struct Roofs {
    /// FMA throughput over all threads, GFLOP/s (2 FLOPs per FMA lane).
    pub fma_gflops: f64,
    /// Triad bandwidth over all threads, GB/s (3 arrays' bytes per pass).
    pub triad_gbps: f64,
    /// Bytes of each triad array.
    pub triad_array_bytes: u64,
    /// The last-level cache size the array size was derived from.
    pub llc_bytes: u64,
}

/// Measure both roofs with `threads` threads. `smoke` shrinks the probes.
pub fn measure_roofs(threads: usize, smoke: bool) -> Roofs {
    let llc = llc_bytes().unwrap_or(32 << 20);
    // The three triad arrays together span four times the last-level cache,
    // so a pass streams from memory; each array is a third of that.
    let array_bytes = if smoke {
        4 << 20
    } else {
        (4 * llc).div_ceil(3)
    };
    let fma_iters = if smoke { 1 << 16 } else { 1 << 24 };
    Roofs {
        fma_gflops: fma_probe(threads, fma_iters),
        triad_gbps: triad_probe(threads, array_bytes as usize, if smoke { 2 } else { 5 }),
        triad_array_bytes: array_bytes,
        llc_bytes: llc,
    }
}

/// Best of three timed runs of `iters` FMA steps on every thread.
fn fma_probe(threads: usize, iters: u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let flops: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || fma_kernel(iters, t as f32)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("FMA probe thread panicked"))
                .sum()
        });
        best = best.max(flops / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Run `iters` steps of independent FMA chains; returns the FLOPs done.
fn fma_kernel(iters: u64, seed: f32) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked just above.
            let (flops, sink) = unsafe { fma_avx512(iters, seed) };
            std::hint::black_box(sink);
            return flops;
        }
        if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2")
        {
            // SAFETY: the CPU supports FMA and AVX2, checked just above.
            let (flops, sink) = unsafe { fma_avx2(iters, seed) };
            std::hint::black_box(sink);
            return flops;
        }
    }
    let mut acc = [seed; 16];
    let (a, b) = (
        std::hint::black_box(0.999_999f32),
        std::hint::black_box(1e-7f32),
    );
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    std::hint::black_box(acc);
    (iters * 16 * 2) as f64
}

/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_avx512(iters: u64, seed: f32) -> (f64, f32) {
    use std::arch::x86_64::*;
    let a = _mm512_set1_ps(0.999_999);
    let b = _mm512_set1_ps(1e-7);
    let mut acc = [_mm512_set1_ps(seed); 12];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm512_fmadd_ps(*x, a, b);
        }
    }
    let mut sum = _mm512_setzero_ps();
    for x in acc {
        sum = _mm512_add_ps(sum, x);
    }
    ((iters * 12 * 16 * 2) as f64, _mm512_reduce_add_ps(sum))
}

/// # Safety
/// The CPU must support FMA and AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64, seed: f32) -> (f64, f32) {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(seed); 12];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = _mm256_setzero_ps();
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    ((iters * 12 * 8 * 2) as f64, lanes.iter().sum())
}

/// Best pass of `a = b + s·c` over `f32` arrays of `array_bytes` each, split
/// across `threads` threads. Counts 3 arrays' bytes per pass.
fn triad_probe(threads: usize, array_bytes: usize, passes: usize) -> f64 {
    let len = array_bytes / std::mem::size_of::<f32>();
    let mut a = vec![0.0f32; len];
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best = 0.0f64;
    for pass in 0..passes {
        let s = 0.5 + pass as f32;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        best = best.max(3.0 * array_bytes as f64 / secs / 1e9);
    }
    best
}

/// Human-readable roof summary.
pub fn describe_roofs(roofs: &Roofs) -> String {
    format!(
        "host roofs: fma {} GFLOP/s, triad {} GB/s (each of 3 arrays {} MiB, LLC {} MiB)",
        json_num(roofs.fma_gflops),
        json_num(roofs.triad_gbps),
        roofs.triad_array_bytes >> 20,
        roofs.llc_bytes >> 20
    )
}
