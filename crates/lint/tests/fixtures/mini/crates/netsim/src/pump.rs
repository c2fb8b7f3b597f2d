//! Event pump holding a lock in a simulation crate: P1 fires on both
//! the import and the construction site.

use std::sync::Mutex;

/// Shared counter guarded by a lock that belongs in `magellan-par`.
pub fn pump() -> bool {
    let shared: Mutex<u32> = Mutex::new(7);
    shared.lock().is_ok()
}
