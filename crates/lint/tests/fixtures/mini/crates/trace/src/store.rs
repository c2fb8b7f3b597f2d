//! Report store with a deliberate hash-order leak: the taint source
//! end of the cross-crate D4 chain asserted by the golden test.

use std::collections::HashMap;

// lint:allow(D9): names a rule that does not exist, so M1 fires

/// Returns stored report ids in whatever order the map yields them —
/// the seed of the transitive chain reported in `magellan-analysis`.
pub fn freshest_reports() -> Vec<u32> {
    let reports: HashMap<u32, u32> = HashMap::new();
    reports.keys().copied().collect()
}

/// An uplink with a same-named `flush` that allocates: cold, and only
/// reachable from `Window::finalize` if `self.` calls resolved across
/// crates.
pub struct Uplink {
    queue: Vec<u32>,
}

impl Uplink {
    /// Hands out the queued ids.
    pub fn flush(&mut self) -> Vec<u32> {
        self.queue.drain(..).collect()
    }
}
