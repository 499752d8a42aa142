//! Lockdep-style checked locking: ranked mutexes, a per-thread held
//! stack, and a global acquisition graph.
//!
//! The concurrent substrate (sharded single-flight cache, bounded
//! worker pool, persistence log, telemetry sinks) documents its lock
//! order in comments — "pending before cache", "never two shards" —
//! but comments don't fail builds. This module turns the order into a
//! machine-checked invariant:
//!
//! * every lock is an [`OrderedMutex`] carrying a static [`LockRank`]
//!   and a name;
//! * each thread keeps a stack of the ranks it holds; an acquire must
//!   be **strictly greater** than the top of the stack. Equal ranks are
//!   rejected too, which is what catches "two shards at once" — both
//!   shard caches share [`LockRank::Cache`];
//! * every acquire made while other locks are held is recorded as an
//!   edge in a global `BTreeMap` acquisition graph, dumped
//!   deterministically by [`report`];
//! * condvar waits ([`OrderedCondvar::wait`]) must hold *exactly* the
//!   guard being waited on — waiting while holding anything else parks
//!   a lock for an unbounded time and is the classic lost-wakeup /
//!   deadlock shape.
//!
//! Ranks are strictly ordered, so any execution in which every acquire
//! passes the check is acyclic in the waits-for graph — rank discipline
//! is a *proof* of deadlock freedom, not a heuristic. What it cannot
//! prove: that the data each lock guards is the right data, or that a
//! non-lock resource (a [`SolveSlot`]-style claim, a bounded queue
//! slot) doesn't form its own cycle; see DESIGN.md §16.
//!
//! **Cost model.** Checks compile in under `debug_assertions` or
//! `--cfg lockcheck` ([`ENABLED`]); otherwise every check is an
//! `if false` the optimizer deletes and `OrderedMutex::lock` is a plain
//! `Mutex::lock` with poison ride-through. Violations panic (tests
//! fail loudly), after being pushed to a deterministic violation log
//! and counted on the installed [`Telemetry`] sink.
//!
//! [`SolveSlot`]: ../../clockroute_service/shard/struct.SolveSlot.html

use crate::telemetry::{Telemetry, Value};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Whether acquisition checking is compiled in. True in debug builds
/// and under `RUSTFLAGS="--cfg lockcheck"` (the sanitizer gate uses the
/// latter to keep checks on in optimized builds).
pub const ENABLED: bool = cfg!(any(debug_assertions, lockcheck));

/// The workspace's total lock order. A thread may only acquire a lock
/// of **strictly higher** rank than everything it already holds.
///
/// The lattice mirrors the request path: pool dispatch, then the
/// single-flight claim (`pending`), then the shard cache, then the
/// persistence log, and telemetry last — sinks are leaf locks that may
/// be taken under anything but must never take anything themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockRank {
    /// Worker-pool queue state (`JobQueue`).
    Pool = 0,
    /// A shard's in-flight key set — the single-flight claim lock.
    Pending = 1,
    /// A shard's result cache. All shards share this rank, so holding
    /// two shards at once is a same-rank violation by construction.
    Cache = 2,
    /// The snapshot/append persistence log.
    Persist = 3,
    /// Telemetry sinks (recorders, trace writers). Leaf rank.
    Telemetry = 4,
}

impl LockRank {
    fn as_str(self) -> &'static str {
        match self {
            LockRank::Pool => "Pool",
            LockRank::Pending => "Pending",
            LockRank::Cache => "Cache",
            LockRank::Persist => "Persist",
            LockRank::Telemetry => "Telemetry",
        }
    }
}

thread_local! {
    /// Ranks (and names) this thread currently holds, in acquisition
    /// order. Rank discipline keeps it strictly increasing.
    static HELD: RefCell<Vec<(LockRank, &'static str)>> = const { RefCell::new(Vec::new()) };

    /// True while [`fail`] notifies the telemetry sink. The sink's own
    /// lock is Telemetry-ranked; without this flag a violation raised
    /// while holding a Telemetry-ranked lock would recurse through the
    /// checker forever.
    static REPORTING: Cell<bool> = const { Cell::new(false) };
}

/// Edges `held -> acquired`, keyed by (rank, name) pairs; values count
/// occurrences. `BTreeMap` so [`report`] is deterministically ordered.
type Edge = ((LockRank, &'static str), (LockRank, &'static str));
static GRAPH: Mutex<BTreeMap<Edge, u64>> = Mutex::new(BTreeMap::new());

/// Violation descriptions in detection order.
static VIOLATIONS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Optional telemetry sink notified (counter + event) on violations.
static SINK: Mutex<Option<Arc<dyn Telemetry + Send + Sync>>> = Mutex::new(None);

/// Rides through poisoning: the checker must stay usable after a
/// violation panic unwound past one of its own globals.
fn ride<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

enum Outcome {
    /// Acquire admitted; snapshot of what was already held (for edges).
    Ok(Vec<(LockRank, &'static str)>),
    /// Acquire rejected; snapshot of the held stack for the message.
    Bad(Vec<(LockRank, &'static str)>),
}

/// Admits or rejects an acquisition of `rank` on this thread. Runs
/// *before* blocking on the inner mutex: the stack is only pushed when
/// the check passes, so a violation panic leaves it consistent.
fn acquire(rank: LockRank, name: &'static str) {
    if !ENABLED || REPORTING.with(Cell::get) {
        return;
    }
    let outcome = HELD.with(|held| {
        let mut held = held.borrow_mut();
        match held.last() {
            Some(&(top, _)) if rank <= top => Outcome::Bad(held.clone()),
            _ => {
                let snapshot = held.clone();
                held.push((rank, name));
                Outcome::Ok(snapshot)
            }
        }
    });
    match outcome {
        Outcome::Ok(snapshot) => {
            if !snapshot.is_empty() {
                let mut graph = ride(&GRAPH);
                for from in snapshot {
                    *graph.entry((from, (rank, name))).or_insert(0) += 1;
                }
            }
        }
        Outcome::Bad(held) => {
            let kind = if held.iter().any(|&(r, _)| r == rank) {
                "same-rank double acquire"
            } else {
                "rank inversion"
            };
            fail(format!(
                "{kind}: acquiring {name}({}) while holding {}",
                rank.as_str(),
                describe(&held)
            ));
        }
    }
}

/// Releases one held entry of `rank`. Guards are usually dropped LIFO
/// but nothing forces it, so this removes the *last* entry of the rank
/// rather than asserting it is the top.
fn release(rank: LockRank) {
    if !ENABLED || REPORTING.with(Cell::get) {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(r, _)| r == rank) {
            held.remove(pos);
        }
    });
}

/// Condvar-wait purity: the waiting thread must hold exactly the guard
/// it is waiting on — nothing above it, nothing below it.
fn check_wait(rank: LockRank, name: &'static str) {
    if !ENABLED {
        return;
    }
    let held = HELD.with(|held| {
        let held = held.borrow();
        if held.len() == 1 && held[0].0 == rank {
            None
        } else {
            Some(held.clone())
        }
    });
    if let Some(held) = held {
        fail(format!(
            "condvar wait on {name}({}) while holding {}",
            rank.as_str(),
            describe(&held)
        ));
    }
}

fn describe(held: &[(LockRank, &'static str)]) -> String {
    if held.is_empty() {
        return "nothing".to_owned();
    }
    let parts: Vec<String> = held
        .iter()
        .map(|&(r, n)| format!("{n}({})", r.as_str()))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// Records the violation, notifies the sink, panics. Never called while
/// `HELD` is borrowed — the telemetry sink may itself take an
/// [`OrderedMutex`], which re-enters [`acquire`].
fn fail(message: String) -> ! {
    ride(&VIOLATIONS).push(message.clone());
    let was_reporting = REPORTING.with(|r| r.replace(true));
    if !was_reporting {
        let sink = ride(&SINK).clone();
        if let Some(sink) = sink {
            sink.counter("lockcheck.violations", 1);
            sink.event("lockcheck.violation", &[("detail", Value::Str(&message))]);
        }
    }
    REPORTING.with(|r| r.set(was_reporting));
    panic!("lockcheck: {message}");
}

/// Asserts this thread holds no checked locks. Free in release builds.
///
/// Long-running call sites (planner workers, the scoped-thread commit
/// path) pin "no lock is held across a solve" with this — a lock held
/// across a multi-millisecond search would serialize the fleet even if
/// it never deadlocked.
pub fn assert_lock_free(context: &str) {
    if !ENABLED {
        return;
    }
    let held = HELD.with(|held| {
        let held = held.borrow();
        if held.is_empty() {
            None
        } else {
            Some(held.clone())
        }
    });
    if let Some(held) = held {
        fail(format!("{context} entered holding {}", describe(&held)));
    }
}

/// Installs (or clears, with `None`) the telemetry sink notified on
/// violations. Global, last-install-wins; the service installs its
/// aggregate recorder at startup.
pub fn install_sink(sink: Option<Arc<dyn Telemetry + Send + Sync>>) {
    *ride(&SINK) = sink;
}

/// Deterministic dump of the acquisition graph and any violations:
/// edges sorted by (rank, name) pairs, counts included, violations in
/// detection order. Stable format for goldens and postmortems.
pub fn report() -> String {
    let mut out = String::from("lockcheck report\nedges:\n");
    {
        let graph = ride(&GRAPH);
        if graph.is_empty() {
            out.push_str("  (none)\n");
        }
        for (&((fr, fname), (tr, tname)), count) in graph.iter() {
            out.push_str(&format!(
                "  {fname}({}) -> {tname}({}) x{count}\n",
                fr.as_str(),
                tr.as_str()
            ));
        }
    }
    let violations = ride(&VIOLATIONS);
    out.push_str(&format!("violations: {}\n", violations.len()));
    for v in violations.iter() {
        out.push_str(&format!("  {v}\n"));
    }
    out
}

/// Snapshot of recorded violation messages, in detection order.
pub fn violations() -> Vec<String> {
    ride(&VIOLATIONS).clone()
}

/// Clears the acquisition graph and violation log (not the per-thread
/// held stacks — those empty themselves as guards drop). Test hook;
/// note the globals are process-wide, so parallel tests should assert
/// "contains", not exact counts.
pub fn reset() {
    ride(&GRAPH).clear();
    ride(&VIOLATIONS).clear();
}

/// A `Mutex` that participates in the global lock order.
///
/// Poisoning is ridden through on every acquisition — a panicking
/// holder must not wedge later requests — matching the service's
/// previous hand-rolled helpers.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: LockRank,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A ranked, named lock. Call sites must pass the rank as a
    /// `LockRank::` literal — crlint CR009 rejects anything else, so
    /// the whole lattice is greppable.
    pub fn new(rank: LockRank, name: &'static str, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires, checking rank monotonicity first (debug/lockcheck
    /// builds) and riding through poison.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        acquire(self.rank, self.name);
        let guard = self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        OrderedGuard {
            rank: self.rank,
            name: self.name,
            guard: ManuallyDrop::new(guard),
        }
    }

    /// Consumes the lock, returning the data (poison ridden through).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// This lock's static rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// This lock's name as it appears in [`report`] edges.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// RAII guard for an [`OrderedMutex`]; pops the held stack on drop.
#[derive(Debug)]
pub struct OrderedGuard<'a, T> {
    rank: LockRank,
    name: &'static str,
    /// `ManuallyDrop` so [`OrderedCondvar::wait`] can move the inner
    /// guard out (the condvar needs it by value) without running this
    /// type's `Drop`.
    guard: ManuallyDrop<MutexGuard<'a, T>>,
}

impl<T> Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        release(self.rank);
        // SAFETY: the inner guard is dropped exactly once: `wait`
        // extracts it only after wrapping the shell in `ManuallyDrop`,
        // which prevents this `Drop` from running at all.
        unsafe { ManuallyDrop::drop(&mut self.guard) }
    }
}

/// A condvar paired with [`OrderedMutex`]. Waits additionally check the
/// thread holds no lock besides the one being waited on.
#[derive(Debug, Default)]
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// A fresh condvar.
    pub fn new() -> OrderedCondvar {
        OrderedCondvar::default()
    }

    /// Blocks until notified, releasing and re-acquiring the guard's
    /// mutex, with the usual spurious-wakeup caveat. Panics (checked
    /// builds) if the thread holds any other checked lock.
    pub fn wait<'a, T>(&self, guard: OrderedGuard<'a, T>) -> OrderedGuard<'a, T> {
        let (rank, name) = (guard.rank, guard.name);
        check_wait(rank, name);
        let inner = Self::dismantle(guard);
        release(rank);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        acquire(rank, name);
        OrderedGuard {
            rank,
            name,
            guard: ManuallyDrop::new(inner),
        }
    }

    /// [`wait`](OrderedCondvar::wait) with a timeout.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: OrderedGuard<'a, T>,
        timeout: Duration,
    ) -> (OrderedGuard<'a, T>, WaitTimeoutResult) {
        let (rank, name) = (guard.rank, guard.name);
        check_wait(rank, name);
        let inner = Self::dismantle(guard);
        release(rank);
        let (inner, timed_out) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        acquire(rank, name);
        (
            OrderedGuard {
                rank,
                name,
                guard: ManuallyDrop::new(inner),
            },
            timed_out,
        )
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Takes the raw `MutexGuard` out of the shell without running the
    /// shell's `Drop` (which would release the mutex).
    fn dismantle<'a, T>(guard: OrderedGuard<'a, T>) -> MutexGuard<'a, T> {
        let mut shell = ManuallyDrop::new(guard);
        // SAFETY: the shell is inside `ManuallyDrop`, so its `Drop`
        // (the only other consumer of `shell.guard`) never runs.
        unsafe { ManuallyDrop::take(&mut shell.guard) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsRecorder;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // The checker's globals are process-wide and libtest runs tests in
    // parallel, so assertions are "contains"-shaped, never exact counts.

    fn on_fresh_thread<F: FnOnce() + Send + 'static>(f: F) -> std::thread::Result<()> {
        // Violations panic; run each probe on its own thread so the
        // held stack of the test thread itself stays pristine.
        std::thread::spawn(f).join()
    }

    #[test]
    fn ranks_are_totally_ordered_and_ascending_acquires_pass() {
        assert!(LockRank::Pool < LockRank::Pending);
        assert!(LockRank::Pending < LockRank::Cache);
        assert!(LockRank::Cache < LockRank::Persist);
        assert!(LockRank::Persist < LockRank::Telemetry);

        let pool = OrderedMutex::new(LockRank::Pool, "t.pool", 0u32);
        let pending = OrderedMutex::new(LockRank::Pending, "t.pending", 0u32);
        let cache = OrderedMutex::new(LockRank::Cache, "t.cache", 0u32);
        let a = pool.lock();
        let b = pending.lock();
        let c = cache.lock();
        drop((a, b, c));
        assert_lock_free("after ascending chain");
        if ENABLED {
            // Edges are only recorded when the checker is compiled in.
            let text = report();
            assert!(
                text.contains("t.pool(Pool) -> t.pending(Pending)"),
                "{text}"
            );
            assert!(
                text.contains("t.pending(Pending) -> t.cache(Cache)"),
                "{text}"
            );
        }
    }

    #[test]
    fn rank_inversion_is_detected() {
        if !ENABLED {
            return; // checks compiled out in release
        }
        let result = on_fresh_thread(|| {
            let pending = OrderedMutex::new(LockRank::Pending, "inv.pending", ());
            let cache = OrderedMutex::new(LockRank::Cache, "inv.cache", ());
            let _c = cache.lock();
            let _p = pending.lock(); // Cache -> Pending: inversion
        });
        assert!(result.is_err(), "inverted acquire must panic");
        assert!(
            violations().iter().any(|v| v.contains("rank inversion")
                && v.contains("inv.pending(Pending)")
                && v.contains("inv.cache(Cache)")),
            "{:?}",
            violations()
        );
    }

    #[test]
    fn same_rank_double_acquire_is_detected() {
        if !ENABLED {
            return;
        }
        let result = on_fresh_thread(|| {
            let shard0 = OrderedMutex::new(LockRank::Cache, "dup.shard0", ());
            let shard1 = OrderedMutex::new(LockRank::Cache, "dup.shard1", ());
            let _a = shard0.lock();
            let _b = shard1.lock(); // two Cache-ranked locks at once
        });
        assert!(result.is_err(), "same-rank double acquire must panic");
        assert!(
            violations()
                .iter()
                .any(|v| v.contains("same-rank double acquire") && v.contains("dup.shard1")),
            "{:?}",
            violations()
        );
    }

    #[test]
    fn condvar_wait_with_extra_lock_is_detected() {
        if !ENABLED {
            return;
        }
        let result = on_fresh_thread(|| {
            let pool = OrderedMutex::new(LockRank::Pool, "waitx.pool", ());
            let pending = OrderedMutex::new(LockRank::Pending, "waitx.pending", ());
            let cv = OrderedCondvar::new();
            let _low = pool.lock();
            let guard = pending.lock();
            let _ = cv.wait(guard); // still holding waitx.pool
        });
        assert!(result.is_err(), "impure wait must panic");
        assert!(
            violations()
                .iter()
                .any(|v| v.contains("condvar wait") && v.contains("waitx.pool")),
            "{:?}",
            violations()
        );
    }

    #[test]
    fn wait_roundtrip_releases_and_reacquires_the_rank() {
        let pair = Arc::new((
            OrderedMutex::new(LockRank::Pool, "rt.state", false),
            OrderedCondvar::new(),
        ));
        let waker = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                *pair.0.lock() = true;
                pair.1.notify_all();
            })
        };
        let mut state = pair.0.lock();
        while !*state {
            state = pair.1.wait(state);
        }
        drop(state);
        assert_lock_free("after wait roundtrip");
        waker.join().unwrap_or_else(|_| panic!("waker panicked"));
    }

    #[test]
    fn wait_timeout_surfaces_the_timeout() {
        let m = OrderedMutex::new(LockRank::Pool, "to.state", ());
        let cv = OrderedCondvar::new();
        let (guard, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out.timed_out());
        drop(guard);
        assert_lock_free("after wait_timeout");
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let pool = OrderedMutex::new(LockRank::Pool, "ooo.pool", ());
        let cache = OrderedMutex::new(LockRank::Cache, "ooo.cache", ());
        let a = pool.lock();
        let b = cache.lock();
        drop(a); // release the *lower* rank first
        drop(b);
        assert_lock_free("after out-of-order drops");
    }

    #[test]
    fn violations_reach_the_telemetry_sink_and_the_report() {
        if !ENABLED {
            return;
        }
        let recorder = Arc::new(MetricsRecorder::new());
        install_sink(Some(recorder.clone()));
        let result = on_fresh_thread(|| {
            let a = OrderedMutex::new(LockRank::Persist, "sink.a", ());
            let b = OrderedMutex::new(LockRank::Pending, "sink.b", ());
            let _a = a.lock();
            let _b = b.lock();
        });
        install_sink(None);
        assert!(result.is_err());
        assert!(
            recorder.counter_value("lockcheck.violations") >= 1,
            "sink must see the violation counter"
        );
        let text = report();
        assert!(text.contains("violations:"), "{text}");
        assert!(text.contains("sink.b(Pending)"), "{text}");
    }

    #[test]
    fn assert_lock_free_names_the_context() {
        if !ENABLED {
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let m = OrderedMutex::new(LockRank::Pool, "ctx.pool", ());
            let _g = m.lock();
            assert_lock_free("solver entry");
        }));
        assert!(result.is_err());
        assert!(
            violations()
                .iter()
                .any(|v| v.contains("solver entry") && v.contains("ctx.pool")),
            "{:?}",
            violations()
        );
    }

    #[test]
    fn release_fast_paths_compile_to_plain_mutexes_when_disabled() {
        // Can't flip `debug_assertions` inside one test binary; assert
        // the gate constant matches the build so the release test run
        // (checks off) and the debug run (checks on) both cover their
        // branch of every `if ENABLED`.
        assert_eq!(ENABLED, cfg!(any(debug_assertions, lockcheck)));
        if !ENABLED {
            // With checks off an inverted acquire must NOT panic.
            let pending = OrderedMutex::new(LockRank::Pending, "off.pending", ());
            let cache = OrderedMutex::new(LockRank::Cache, "off.cache", ());
            let _c = cache.lock();
            let _p = pending.lock();
        }
    }

    #[test]
    fn into_inner_returns_the_data() {
        let m = OrderedMutex::new(LockRank::Cache, "ii.cache", vec![1, 2, 3]);
        *m.lock() = vec![4];
        assert_eq!(m.into_inner(), vec![4]);
    }
}
