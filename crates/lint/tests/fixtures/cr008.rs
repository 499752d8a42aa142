//! CR008 fixture: raw `std::sync` primitives outside `lockcheck.rs`.
use std::sync::{Condvar, Mutex, RwLock};

pub fn bad() {
    // BAD (line 6), BAD (line 7), BAD (line 8): raw lock constructors.
    let m = Mutex::new(0u32);
    let r = RwLock::new(0u32);
    let c = Condvar::new();
    drop((m, r, c));
}

// GOOD: other `std::sync` constructors are not locks.
pub fn good() -> std::sync::Arc<std::sync::atomic::AtomicU32> {
    std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0))
}

// GOOD: an explicitly justified exception stays quiet.
pub fn suppressed() {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture demonstrates the suppression path"
    )]
    let m = Mutex::new(0u32);
    drop(m);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_scope_may_use_raw_locks() {
        let m = Mutex::new(1u32);
        drop(m);
    }
}
