// Fixture: CR000 — suppression hygiene.

// crlint-allow: CR004
static mut NAKED: u32 = 0;

// crlint-allow: CR004 fixture: written once before any thread starts
static mut JUSTIFIED: u32 = 0;

// crlint-allow: CR999 no such rule exists
fn unknown_rule() {}

// crlint-allow: CR002 a rule that moved to clippy
fn moved_rule() {}
