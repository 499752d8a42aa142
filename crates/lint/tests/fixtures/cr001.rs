// Fixture: CR001 — NaN-unsound orderings.
use std::cmp::Ordering;

struct Entry {
    key: f64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

// BAD for crlint (line 15): hand-rolled PartialOrd with no total-order delegation.
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        // BAD (line 18): .partial_cmp( call on an f64 key.
        self.key.partial_cmp(&other.key)
    }
}

fn sort_keys(keys: &mut [f64]) {
    // BAD (line 24): the classic sort_by footgun.
    keys.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
}

struct Good {
    key: f64,
    seq: u64,
}

impl PartialEq for Good {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Good {}

impl Ord for Good {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// GOOD: the canonical delegation pattern — no finding.
impl PartialOrd for Good {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
