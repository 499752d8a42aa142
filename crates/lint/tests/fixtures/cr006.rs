// Fixture: CR006 — unordered collections in report/serialization code.
// BAD (line 3): HashMap import alone is flagged in report modules.
use std::collections::HashMap;
// BAD (line 5): so is a signature that names it.
fn summarize(counts: &HashMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in counts {
        out.push_str(&format!("{k}={v}\n"));
    }
    // BAD (line 11): HashSet mention.
    let _seen: std::collections::HashSet<u32> = Default::default();
    out
}
