//! Figure pipeline that leaks hash order *transitively*: the public
//! entry point below never touches a hash collection itself, yet D4
//! must report it with the full chain into `magellan-trace`.

use magellan_graph::scratch::scratch_degrees;
use magellan_trace::store::freshest_reports;

/// Sums report ids in store order — order-dependent through the
/// helper crate (D4, depth 1).
pub fn total_report_id() -> u32 {
    freshest_reports().iter().sum()
}

/// Exact comparison on a computed float (C2).
pub fn is_unit(x: f64) -> bool {
    x == 1.0
}

/// Per-sample boundary sampler — a hot entry point whose allocation
/// sits one crate away, in `magellan-graph` (H2, depth 1).
// lint:hot
pub fn sample_boundary(off: &[usize]) -> usize {
    scratch_degrees(off).len()
}

/// Hot entry that scans the whole slab per call (H3, depth 0).
// lint:hot
pub fn horizon_scan(xs: &[u32]) -> u32 {
    let mut acc = 0;
    for i in 0..xs.len() {
        acc += xs[i];
    }
    acc
}

/// A rolling window whose hot finalizer calls its own `flush` through
/// `self.` — the trace crate also defines a `flush` that allocates,
/// but a `self.` call resolves to the caller's crate when that crate
/// defines the name, so no H2 chain may cross into it.
pub struct Window {
    queued: usize,
}

impl Window {
    /// Hot entry: per-boundary finalizer.
    // lint:hot
    pub fn finalize(&mut self) {
        self.flush();
    }

    fn flush(&mut self) {
        self.queued = 0;
    }
}
