// Fixture: CR004 — threads outside the planner, `static mut` anywhere.
use std::thread;

// BAD for crlint (line 5): static mut is banned outright.
static mut COUNTER: u64 = 0;

fn fan_out() {
    // BAD (line 9): thread::spawn outside crates/plan.
    let h = thread::spawn(|| 1 + 1);
    let _ = h.join();
    // BAD (line 12): scoped threads too.
    thread::scope(|s| {
        // BAD (line 14): a Builder spawns scoped threads the same way.
        let _ = thread::Builder::new().spawn_scoped(s, || ());
    });
    // BAD (line 17): and unscoped ones.
    let _ = thread::Builder::new().spawn(|| ());
}
