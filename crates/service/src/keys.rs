//! Canonical scenario fingerprints and near-miss deltas.
//!
//! Two fingerprints per scenario (DESIGN.md §12):
//!
//! * the **scenario key** — die, grid, technology, reservation mode,
//!   nets (in order) *and* the blockage set. Equal keys mean "the same
//!   routing problem"; the cache answers these byte-for-byte.
//! * the **base key** — everything except the blockage set. Equal base
//!   keys with different blocks are warm-start candidates: same die,
//!   same grid, same nets, only the obstacle landscape moved.
//!
//! Both are built from the *parsed* [`Scenario`], so comment, spacing,
//! line-ending and blockage-order differences in the `.cr` text
//! vanish. Net order is deliberately load-bearing (sequential
//! reservation is order-sensitive) and hashed in sequence. Hashes are
//! fingerprints, not proofs: every cache decision re-verifies with the
//! structural equality helpers below before trusting a match.

use clockroute_cli::scenario::Scenario;
use clockroute_core::canon::{combine_unordered, CanonHasher};
use clockroute_geom::{BlockKind, PlacedBlock, Point};
use clockroute_plan::{NetKind, NetSpec};
use std::collections::BTreeSet;

/// Full canonical fingerprint: base + blockage set.
pub fn scenario_key(s: &Scenario) -> u64 {
    let mut h = CanonHasher::new();
    write_base(&mut h, s);
    h.write_u64(blocks_key(s));
    h.finish()
}

/// Blockage-independent fingerprint (die, grid, tech, reserve, nets).
pub fn base_key(s: &Scenario) -> u64 {
    let mut h = CanonHasher::new();
    write_base(&mut h, s);
    h.finish()
}

/// Order-insensitive fingerprint of the blockage multiset.
pub fn blocks_key(s: &Scenario) -> u64 {
    combine_unordered(s.floorplan.blocks().iter().map(block_hash))
}

fn write_base(h: &mut CanonHasher, s: &Scenario) {
    h.write_str("clockroute.scenario.v2");
    h.write_f64(s.floorplan.die_width().mm());
    h.write_f64(s.floorplan.die_height().mm());
    h.write_u32(s.grid.0);
    h.write_u32(s.grid.1);
    h.write_f64(s.tech.unit_res().ohms_per_um());
    h.write_f64(s.tech.unit_cap().ff_per_um());
    h.write_u8(u8::from(s.reserve));
    match s.capacities.default_cap() {
        None => h.write_u8(0),
        Some(c) => {
            h.write_u8(1);
            h.write_u32(c);
        }
    }
    h.write_u64(s.capacities.override_count() as u64);
    for ((ax, ay, bx, by), c) in s.capacities.overrides() {
        h.write_u32(ax);
        h.write_u32(ay);
        h.write_u32(bx);
        h.write_u32(by);
        h.write_u32(c);
    }
    h.write_u64(s.nets.len() as u64);
    for net in &s.nets {
        write_net(h, net);
    }
}

fn write_net(h: &mut CanonHasher, net: &NetSpec) {
    h.write_str(&net.name);
    h.write_u32(net.source.x);
    h.write_u32(net.source.y);
    h.write_u32(net.sink.x);
    h.write_u32(net.sink.y);
    match net.kind {
        NetKind::Combinational => h.write_u8(0),
        NetKind::Registered { period } => {
            h.write_u8(1);
            h.write_f64(period.ps());
        }
        NetKind::Gals { t_s, t_t } => {
            h.write_u8(2);
            h.write_f64(t_s.ps());
            h.write_f64(t_t.ps());
        }
    }
}

fn block_hash(b: &PlacedBlock) -> u64 {
    let mut h = CanonHasher::new();
    h.write_u8(kind_tag(b.kind));
    h.write_u32(b.rect.lo().x);
    h.write_u32(b.rect.lo().y);
    h.write_u32(b.rect.hi().x);
    h.write_u32(b.rect.hi().y);
    h.finish()
}

fn kind_tag(k: BlockKind) -> u8 {
    match k {
        BlockKind::Hard => 0,
        BlockKind::Obstacle => 1,
        BlockKind::WiringOnly => 2,
        BlockKind::RegisterKeepout => 3,
    }
}

/// A block as a sortable tuple, for multiset comparison.
fn block_tuple(b: &PlacedBlock) -> (u8, u32, u32, u32, u32) {
    (
        kind_tag(b.kind),
        b.rect.lo().x,
        b.rect.lo().y,
        b.rect.hi().x,
        b.rect.hi().y,
    )
}

fn sorted_blocks(s: &Scenario) -> Vec<(u8, u32, u32, u32, u32)> {
    let mut v: Vec<_> = s.floorplan.blocks().iter().map(block_tuple).collect();
    v.sort_unstable();
    v
}

/// Structural equality of everything the base key hashes — the
/// collision guard behind every base-key match.
pub fn same_base(a: &Scenario, b: &Scenario) -> bool {
    a.grid == b.grid
        && a.reserve == b.reserve
        && a.tech == b.tech
        && a.floorplan.die_width() == b.floorplan.die_width()
        && a.floorplan.die_height() == b.floorplan.die_height()
        && a.capacities == b.capacities
        && a.nets == b.nets
}

/// Structural equality of the blockage multisets (declaration order
/// ignored).
pub fn same_blocks(a: &Scenario, b: &Scenario) -> bool {
    sorted_blocks(a) == sorted_blocks(b)
}

/// The grid points dirtied by moving from blockage set `a` to `b`: the
/// union of the rasterized footprints of every block present in exactly
/// one of the two multisets. Feeding these to
/// [`clockroute_plan::Planner::plan_warm`] is sound because a block's
/// grid effect (node/edge/register blocking) is confined to the grid
/// points of its rect — incident-edge reads are covered by the
/// footprint check's one-step dilation.
pub fn block_delta(a: &Scenario, b: &Scenario) -> Vec<Point> {
    let sa = sorted_blocks(a);
    let sb = sorted_blocks(b);
    let mut delta_rects: Vec<(u8, u32, u32, u32, u32)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < sa.len() || j < sb.len() {
        match (sa.get(i), sb.get(j)) {
            (Some(x), Some(y)) if x == y => {
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                delta_rects.push(*x);
                i += 1;
            }
            (Some(_), Some(y)) => {
                delta_rects.push(*y);
                j += 1;
            }
            (Some(x), None) => {
                delta_rects.push(*x);
                i += 1;
            }
            (None, Some(y)) => {
                delta_rects.push(*y);
                j += 1;
            }
            (None, None) => break,
        }
    }
    let mut points = BTreeSet::new();
    for (_, x0, y0, x1, y1) in delta_rects {
        for y in y0..=y1 {
            for x in x0..=x1 {
                points.insert((x, y));
            }
        }
    }
    points.into_iter().map(|(x, y)| Point::new(x, y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_cli::scenario::parse;

    const BASE: &str = "die 10mm 10mm\ngrid 20 20\nblock hard 2 2 4 4\nblock obstacle 10 10 12 12\nnet comb name=a src=0,0 dst=19,19\nnet reg name=b src=0,5 dst=19,5 period=400\n";

    #[test]
    fn whitespace_comments_and_crlf_do_not_change_the_key() {
        let noisy = "# a comment\r\n\r\ndie 10mm 10mm   \r\ngrid 20 20\t\r\nblock hard 2 2 4 4 # cpu\r\nblock obstacle 10 10 12 12\r\nnet comb name=a src=0,0 dst=19,19\r\nnet reg name=b src=0,5 dst=19,5 period=400\r\n";
        let a = parse(BASE).unwrap();
        let b = parse(noisy).unwrap();
        assert_eq!(scenario_key(&a), scenario_key(&b));
        assert_eq!(base_key(&a), base_key(&b));
        assert!(same_base(&a, &b) && same_blocks(&a, &b));
    }

    #[test]
    fn block_order_does_not_change_the_key() {
        let swapped = BASE.replace(
            "block hard 2 2 4 4\nblock obstacle 10 10 12 12",
            "block obstacle 10 10 12 12\nblock hard 2 2 4 4",
        );
        let a = parse(BASE).unwrap();
        let b = parse(&swapped).unwrap();
        assert_eq!(scenario_key(&a), scenario_key(&b));
        assert!(same_blocks(&a, &b));
    }

    #[test]
    fn net_order_changes_the_key() {
        let swapped = BASE.replace(
            "net comb name=a src=0,0 dst=19,19\nnet reg name=b src=0,5 dst=19,5 period=400",
            "net reg name=b src=0,5 dst=19,5 period=400\nnet comb name=a src=0,0 dst=19,19",
        );
        let a = parse(BASE).unwrap();
        let b = parse(&swapped).unwrap();
        assert_ne!(scenario_key(&a), scenario_key(&b), "net order is semantic");
        assert_ne!(base_key(&a), base_key(&b));
        assert!(!same_base(&a, &b));
    }

    #[test]
    fn block_changes_move_only_the_block_component() {
        let moved = BASE.replace("block hard 2 2 4 4", "block hard 3 2 5 4");
        let a = parse(BASE).unwrap();
        let b = parse(&moved).unwrap();
        assert_ne!(scenario_key(&a), scenario_key(&b));
        assert_eq!(base_key(&a), base_key(&b), "base ignores blocks");
        assert!(same_base(&a, &b) && !same_blocks(&a, &b));
    }

    #[test]
    fn every_scalar_field_reaches_the_key() {
        let a = parse(BASE).unwrap();
        for (from, to) in [
            ("die 10mm 10mm", "die 10mm 11mm"),
            ("grid 20 20", "grid 20 21"),
            ("period=400", "period=401"),
            ("src=0,0", "src=1,0"),
            ("name=a", "name=aa"),
        ] {
            let b = parse(&BASE.replace(from, to)).unwrap();
            assert_ne!(scenario_key(&a), scenario_key(&b), "{from} -> {to}");
        }
        let b = parse(&format!("{BASE}reserve off\n")).unwrap();
        assert_ne!(scenario_key(&a), scenario_key(&b), "reserve mode");
        let b = parse(&BASE.replace("grid 20 20", "grid 20 20\ntech r=2.0 c=0.02")).unwrap();
        assert_ne!(scenario_key(&a), scenario_key(&b), "technology");
    }

    #[test]
    fn capacities_reach_the_key() {
        let a = parse(BASE).unwrap();
        let capped = parse(&format!("{BASE}capacity default 2\n")).unwrap();
        assert_ne!(scenario_key(&a), scenario_key(&capped), "default capacity");
        assert_ne!(base_key(&a), base_key(&capped));
        assert!(!same_base(&a, &capped));
        // A different default, an override, and a tighter override all
        // move the key again.
        let tighter = parse(&format!("{BASE}capacity default 1\n")).unwrap();
        assert_ne!(base_key(&capped), base_key(&tighter));
        let edged = parse(&format!(
            "{BASE}capacity default 2\ncapacity edge 0,0 1,0 1\n"
        ))
        .unwrap();
        assert_ne!(base_key(&capped), base_key(&edged));
        assert!(!same_base(&capped, &edged));
        // Equal capacity sections agree regardless of how they were
        // written (rect vs per-edge declarations).
        let rect = parse(&format!("{BASE}capacity rect 0 3 3 3 1\n")).unwrap();
        let edges = parse(&format!(
            "{BASE}capacity edge 0,3 1,3 1\ncapacity edge 1,3 2,3 1\ncapacity edge 2,3 3,3 1\n"
        ))
        .unwrap();
        assert_eq!(base_key(&rect), base_key(&edges));
        assert!(same_base(&rect, &edges));
    }

    #[test]
    fn block_kind_reaches_the_key() {
        let a = parse(BASE).unwrap();
        let b = parse(&BASE.replace("block hard 2 2 4 4", "block wiring 2 2 4 4")).unwrap();
        assert_ne!(scenario_key(&a), scenario_key(&b));
        assert!(!same_blocks(&a, &b));
    }

    #[test]
    fn delta_is_the_symmetric_difference_footprint() {
        let a = parse(BASE).unwrap();
        let b = parse(&BASE.replace("block hard 2 2 4 4", "block hard 2 2 4 5")).unwrap();
        let delta = block_delta(&a, &b);
        // Old rect 2..=4 × 2..=4 (9 points) ∪ new rect 2..=4 × 2..=5
        // (12 points) — union is the new rect's 12 points.
        assert_eq!(delta.len(), 12);
        assert!(delta.contains(&Point::new(2, 2)));
        assert!(delta.contains(&Point::new(4, 5)));
        assert!(
            !delta.contains(&Point::new(10, 10)),
            "shared block is clean"
        );
        // Identical scenarios have an empty delta.
        assert!(block_delta(&a, &a).is_empty());
    }

    #[test]
    fn delta_respects_multiplicity() {
        let doubled = BASE.replace(
            "block hard 2 2 4 4",
            "block hard 2 2 4 4\nblock hard 2 2 4 4",
        );
        let a = parse(BASE).unwrap();
        let b = parse(&doubled).unwrap();
        assert!(!same_blocks(&a, &b), "multiplicity differs");
        let delta = block_delta(&a, &b);
        assert_eq!(delta.len(), 9, "the extra copy's footprint is dirty");
    }
}
