//! Spans for the traced run, and the executor that attributes the library's
//! own op records to layers.
//!
//! The traced replay wraps each call into a public library function in a
//! [`Tracer::span`] named after the layer it exercises. Some public functions
//! run several layers internally (e.g. `finish_distances` runs the centroid
//! SpMV, `SparsifiedKernel::build` runs the Gram panels and the kernel
//! apply). Every library op is charged through the public
//! [`popcorn_gpusim::Executor`] seam, so [`LayerExecutor`] turns each charged
//! op whose layer differs from the enclosing span into a child span, timed
//! by the op's measured host seconds. Ops of the enclosing span's own layer,
//! and ops that map to no layer, add their computed cost to the enclosing
//! span. Spans stay in memory until the run reads them back.

use popcorn_gpusim::{
    CostModel, DeviceSpec, Executor, OpClass, OpCost, OpTrace, Phase, SimExecutor,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Computed FLOPs of the library ops attributed to this span.
    pub flop: f64,
    /// Computed bytes moved by those ops.
    pub bytes: f64,
    /// Modeled seconds of those ops on the tracer's reference device.
    pub modeled_s: f64,
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder for one workload's replay.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut state = self.lock();
            let parent = state.open.last().copied();
            let index = state.spans.len();
            state.spans.push(Span {
                name,
                workload: self.workload,
                start: self.now(),
                end: f64::NAN,
                parent,
                flop: 0.0,
                bytes: 0.0,
                modeled_s: 0.0,
            });
            state.open.push(index);
            index
        };
        let out = f();
        let end = self.now();
        let mut state = self.lock();
        state.spans[index].end = end;
        state.open.pop();
        out
    }

    /// Attribute one library op that just finished after `host_s` seconds.
    fn op(&self, layer: Option<&'static str>, host_s: f64, cost: &OpCost, modeled_s: f64) {
        let end = self.now();
        let mut state = self.lock();
        let parent = state.open.last().copied();
        let enclosing = parent.map(|p| state.spans[p].name);
        let parent_start = parent.map_or(0.0, |p| state.spans[p].start);
        let target = match layer {
            Some(name) if Some(name) != enclosing => {
                let index = state.spans.len();
                state.spans.push(Span {
                    name,
                    workload: self.workload,
                    start: (end - host_s).max(parent_start),
                    end,
                    parent,
                    flop: 0.0,
                    bytes: 0.0,
                    modeled_s: 0.0,
                });
                Some(index)
            }
            _ => parent,
        };
        if let Some(t) = target {
            let span = &mut state.spans[t];
            span.flop += cost.flops as f64;
            span.bytes += cost.total_bytes() as f64;
            span.modeled_s += modeled_s;
        }
    }

    /// Every closed span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.end.is_finite())
            .cloned()
            .collect()
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub self_s: f64,
    pub calls: f64,
    pub flop: f64,
    pub bytes: f64,
    pub modeled_s: f64,
}

/// Self time per layer: each span's duration minus the time its child spans
/// cover. Children of one span never overlap in a sequential replay.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_time = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_time[p] += span.end - span.start;
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let t = totals.entry(span.name).or_default();
        t.self_s += (span.end - span.start - child_time[i]).max(0.0);
        t.calls += 1.0;
        t.flop += span.flop;
        t.bytes += span.bytes;
        t.modeled_s += span.modeled_s;
    }
    totals
}

/// The layer a charged library op belongs to, from its class and name;
/// `None` keeps the op's cost on the enclosing span.
pub fn layer_of(class: OpClass, name: &str) -> Option<&'static str> {
    match class {
        OpClass::Syrk => Some("dense.syrk"),
        OpClass::Gemm => Some("dense.gemm"),
        OpClass::SpGEMM => Some("sparse.gram_panel"),
        OpClass::SpMM if name.contains("K_csr") => Some("core.distances.fold_csr"),
        OpClass::SpMM => Some("core.distances.fold_dense"),
        OpClass::SpMV => Some("sparse.spmv"),
        OpClass::Elementwise
            if name.starts_with("apply ") || name.starts_with("serve cross kernel map") =>
        {
            Some("core.kernel.apply")
        }
        OpClass::Elementwise if name.starts_with("sparsify ") => Some("core.sparsified.select"),
        OpClass::Elementwise if name.starts_with("gather z") || name.starts_with("assemble D") => {
            Some("core.distances.finish")
        }
        OpClass::Reduction if name.contains("argmin") => Some("core.assignment.argmin"),
        _ => None,
    }
}

/// An [`Executor`] that prices ops on a reference device (like
/// [`SimExecutor`], which it wraps) and reports each one to a [`Tracer`].
#[derive(Debug)]
pub struct LayerExecutor {
    inner: SimExecutor,
    tracer: Arc<Tracer>,
}

impl LayerExecutor {
    pub fn new(device: DeviceSpec, elem_bytes: usize, tracer: Arc<Tracer>) -> Self {
        Self {
            inner: SimExecutor::new(device, elem_bytes),
            tracer,
        }
    }
}

impl Executor for LayerExecutor {
    fn record(&self, name: String, phase: Phase, class: OpClass, cost: OpCost, host_seconds: f64) {
        let modeled = self.inner.cost_model().time_seconds(class, &cost);
        self.tracer
            .op(layer_of(class, &name), host_seconds, &cost, modeled);
        Executor::record(&self.inner, name, phase, class, cost, host_seconds);
    }

    fn device(&self) -> &DeviceSpec {
        self.inner.device()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn trace(&self) -> OpTrace {
        self.inner.trace()
    }

    fn total_modeled_seconds(&self) -> f64 {
        self.inner.total_modeled_seconds()
    }

    fn absorb(&self, trace: &OpTrace) {
        self.inner.absorb(trace)
    }

    fn fork(&self) -> Box<dyn Executor> {
        Box::new(Self {
            inner: self.inner.fork(),
            tracer: self.tracer.clone(),
        })
    }

    fn track_alloc(&self, bytes: u64) {
        self.inner.track_alloc(bytes)
    }

    fn track_free(&self, bytes: u64) {
        self.inner.track_free(bytes)
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.inner.peak_resident_bytes()
    }

    fn merge_peak(&self, peak: u64) {
        self.inner.merge_peak(peak)
    }

    fn reset(&self) {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_attach_by_layer() {
        let tracer = Arc::new(Tracer::new("test"));
        let exec = LayerExecutor::new(DeviceSpec::epyc7763_socket(), 4, tracer.clone());
        tracer.span("core.distances.finish", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            exec.record(
                "spmv c_norms".into(),
                Phase::PairwiseDistances,
                OpClass::SpMV,
                OpCost::new(10, 20, 4),
                0.001,
            );
            exec.record(
                "assemble D".into(),
                Phase::PairwiseDistances,
                OpClass::Elementwise,
                OpCost::new(5, 8, 8),
                0.0,
            );
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "sparse.spmv");
        assert_eq!(spans[1].parent, Some(0));
        let totals = layer_totals(&spans);
        let finish = totals["core.distances.finish"];
        let spmv = totals["sparse.spmv"];
        assert_eq!(finish.flop, 5.0);
        assert_eq!(spmv.flop, 10.0);
        assert!(spmv.modeled_s > 0.0);
        let whole = spans[0].end - spans[0].start;
        assert!((finish.self_s + spmv.self_s - whole).abs() < 1e-9);
    }

    #[test]
    fn layer_mapping_covers_the_fit_ops() {
        assert_eq!(
            layer_of(OpClass::SpMM, "spmm E = -2*K*V^T"),
            Some("core.distances.fold_dense")
        );
        assert_eq!(
            layer_of(OpClass::SpMM, "spmm E[0..9] = -2*K_csr*V^T"),
            Some("core.distances.fold_csr")
        );
        assert_eq!(
            layer_of(OpClass::Elementwise, "apply polynomial kernel to B (n=4)"),
            Some("core.kernel.apply")
        );
        assert_eq!(layer_of(OpClass::Other, "rebuild V"), None);
    }
}
