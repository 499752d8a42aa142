//! Bounded worker pool for the TCP accept loop.
//!
//! The original listener spawned one thread per accepted connection —
//! unbounded, so a connection flood meant a thread flood regardless of
//! `--max-inflight` (which only gates *solves*, after the thread
//! exists). [`run`] inverts that: a fixed set of workers pulls
//! connections from a bounded [`JobQueue`]; when the queue is full the
//! feeder (the accept loop) blocks, and further connections wait in
//! the OS accept backlog. Memory and thread count are then a function
//! of configuration, not of offered load.
//!
//! Alongside `server.rs` and the planner, this module is an allowed
//! thread-spawn site for crlint CR004 — threads are created in exactly
//! one place here, inside [`run`]'s scope.

use clockroute_core::lockcheck::{LockRank, OrderedCondvar, OrderedMutex};
use std::collections::VecDeque;
use std::thread;

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: `push` blocks while full, `pop` blocks while
/// empty, and [`close`](JobQueue::close) drains then releases every
/// waiter.
///
/// `state` is the *lowest*-ranked lock in the workspace
/// ([`LockRank::Pool`]): it is never held while calling into a job —
/// both waits hold `state` alone, which the lockcheck condvar-purity
/// rule asserts — so pool dispatch can precede every other lock a job
/// goes on to take.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: OrderedMutex<QueueState<T>>,
    /// Signalled when an item arrives or the queue closes.
    added: OrderedCondvar,
    /// Signalled when an item leaves (backpressure release) or closes.
    removed: OrderedCondvar,
    bound: usize,
}

impl<T> JobQueue<T> {
    /// An open queue holding at most `bound` queued items (clamped to
    /// at least 1).
    pub fn new(bound: usize) -> JobQueue<T> {
        JobQueue {
            state: OrderedMutex::new(
                LockRank::Pool,
                "pool.state",
                QueueState {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            added: OrderedCondvar::new(),
            removed: OrderedCondvar::new(),
            bound: bound.max(1),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns
    /// `false` (dropping the item) if the queue closed first.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock();
        while state.items.len() >= self.bound && !state.closed {
            state = self.removed.wait(state);
        }
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.added.notify_one();
        true
    }

    /// Dequeues the next item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.removed.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.added.wait(state);
        }
    }

    /// Closes the queue: pushes start failing, pops drain what is left
    /// and then return `None`. Idempotent.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.added.notify_all();
        self.removed.notify_all();
    }

    /// Items currently queued (racy snapshot, for telemetry).
    pub fn depth(&self) -> usize {
        self.state.lock().items.len()
    }
}

/// Runs `feed` with a bounded queue drained by `workers` pooled
/// threads, each applying `work` to every item it pops. When `feed`
/// returns, the queue closes, the workers drain what is queued and
/// exit, and `feed`'s result is returned after all workers have
/// joined — so `work` never outlives the borrows `feed` captured.
pub fn run<T, R>(
    workers: usize,
    bound: usize,
    work: impl Fn(T) + Sync,
    feed: impl FnOnce(&JobQueue<T>) -> R,
) -> R
where
    T: Send,
{
    let queue = JobQueue::new(bound);
    thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    work(job);
                }
            });
        }
        let out = feed(&queue);
        queue.close();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn every_pushed_job_runs_exactly_once() {
        let seen = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        run(
            4,
            2,
            |job: usize| {
                seen.fetch_add(1, Ordering::SeqCst);
                sum.fetch_add(job, Ordering::SeqCst);
            },
            |queue| {
                for i in 1..=100 {
                    assert!(queue.push(i));
                }
            },
        );
        assert_eq!(seen.load(Ordering::SeqCst), 100);
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn worker_count_never_exceeds_the_pool_size() {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        run(
            3,
            64,
            |_job: usize| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
            },
            |queue| {
                for i in 0..30 {
                    queue.push(i);
                }
            },
        );
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "pool is the parallelism cap"
        );
    }

    #[test]
    fn push_blocks_on_a_full_queue_until_a_worker_drains() {
        // One slow worker + bound 1: the feeder must block on the
        // second push and still get every job through.
        let done = AtomicUsize::new(0);
        run(
            1,
            1,
            |_job: usize| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                done.fetch_add(1, Ordering::SeqCst);
            },
            |queue| {
                for i in 0..5 {
                    assert!(queue.push(i));
                }
            },
        );
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn close_rejects_pushes_and_drains_pops() {
        let queue: JobQueue<u32> = JobQueue::new(4);
        assert!(queue.push(1));
        assert!(queue.push(2));
        queue.close();
        assert!(!queue.push(3), "push after close is refused");
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None, "drained + closed");
        assert_eq!(queue.depth(), 0);
    }
}
