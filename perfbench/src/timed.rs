//! A `Policy` wrapper that forwards every trait method to the policy it
//! wraps and records the host time of each `decide` and `observe` call.

use std::time::Instant;

use cohmeleon_core::policy::PolicyComplexity;
use cohmeleon_core::reward::InvocationMeasurement;
use cohmeleon_core::{
    AccelInstanceId, AccelKindId, CoherenceMode, Decision, ModeSet, Policy, SystemSnapshot,
};

use crate::trace::Tracer;

/// Times every `decide` and `observe` of the wrapped policy.
///
/// The intervals are buffered in the wrapper (a `Policy` must be `Send`,
/// so it cannot borrow the tracer) and moved into a [`Tracer`] by
/// [`drain_into`](Self::drain_into) after each engine run.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    epoch: Instant,
    /// `(span name, start, end)` of each timed call.
    calls: Vec<(&'static str, u64, u64)>,
    /// Decisions per mode, by [`CoherenceMode::index`].
    pub modes: [u64; CoherenceMode::COUNT],
}

impl TimedPolicy {
    /// Wraps `inner`, timing against the tracer epoch `epoch`.
    pub fn new(inner: Box<dyn Policy>, epoch: Instant) -> TimedPolicy {
        TimedPolicy {
            inner,
            epoch,
            calls: Vec::new(),
            modes: [0; CoherenceMode::COUNT],
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Moves the buffered intervals into `tracer` as children of `parent`.
    pub fn drain_into(&mut self, tracer: &mut Tracer, parent: u32) {
        for (name, start, end) in self.calls.drain(..) {
            tracer.push(name, start, end, parent);
        }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(snapshot, available, accel);
        let end = Instant::now();
        let span = ("core.decide", self.ns(start), self.ns(end));
        self.calls.push(span);
        self.modes[decision.mode.index()] += 1;
        decision
    }

    fn observe(
        &mut self,
        accel: AccelInstanceId,
        decision: &Decision,
        measurement: &InvocationMeasurement,
    ) {
        let start = Instant::now();
        self.inner.observe(accel, decision, measurement);
        let end = Instant::now();
        let span = ("core.observe", self.ns(start), self.ns(end));
        self.calls.push(span);
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.inner.begin_iteration(iteration);
    }

    fn freeze(&mut self) {
        self.inner.freeze();
    }

    fn complexity(&self) -> PolicyComplexity {
        self.inner.complexity()
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        self.inner.bind_topology(topology);
    }

    fn export_table(&self) -> Option<String> {
        self.inner.export_table()
    }

    fn import_table(&mut self, text: &str) -> Result<(), String> {
        self.inner.import_table(text)
    }
}
