//! CR008 fixture: raw `std::sync` primitives outside `lockcheck.rs`.
// BAD (line 3): naming a raw lock type, even in a `use`, is flagged.
use std::sync::{Condvar, Mutex, RwLock};

pub fn bad() {
    // BAD (line 7), BAD (line 8), BAD (line 9): raw lock constructors.
    let m = Mutex::new(0u32);
    let r = RwLock::new(0u32);
    let c = Condvar::new();
    drop((m, r, c));
}

pub fn bad_defaults() {
    // BAD (line 16), BAD (line 17), BAD (line 18): the `Default` impls
    // build raw locks as well as `new` does.
    let m = Mutex::<u32>::default();
    let r = RwLock::<u32>::default();
    let c = Condvar::default();
    // BAD (line 20): so does `Default::default()` into a raw lock type.
    let d: std::sync::Mutex<u8> = Default::default();
    drop((m, r, c, d));
}

// BAD (line 28): a derived `Default` builds the raw field's lock; the
// field's type is what is flagged.
#[derive(Default)]
pub struct Derived {
    ready: std::sync::Condvar,
}

// GOOD: other `std::sync` constructors are not locks.
pub fn good() -> std::sync::Arc<std::sync::atomic::AtomicU32> {
    std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0))
}

// GOOD: an explicitly justified exception stays quiet.
pub fn suppressed() {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
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
        let d = Mutex::<u32>::default();
        drop((m, d));
    }
}
