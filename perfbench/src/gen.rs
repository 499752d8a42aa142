//! Seeded workload inputs. Everything the program sees is scenario text
//! rendered here from `(seed, workload)`; the same seed gives the same
//! bytes (pinned by hash in the tests).

use clockroute_core::canon::{mix64, CanonHasher};
use std::collections::BTreeSet;

/// splitmix64 over a counter: tiny, seedable and stable across
/// platforms, which is all the generator needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of `seed`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = CanonHasher::new();
        h.write_str(stream);
        Rng(mix64(seed ^ h.finish()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// `true` with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Comb,
    Reg { period: u32 },
    Gals { ts: u32, tt: u32 },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    pub name: String,
    pub kind: Kind,
    pub src: (u32, u32),
    pub dst: (u32, u32),
}

/// Inclusive grid rectangle `(x0, y0, x1, y1)` of a hard block.
pub type Block = (u32, u32, u32, u32);

/// One scenario, before it is rendered to `.cr` text.
#[derive(Debug, Clone, PartialEq)]
pub struct Scn {
    pub die_mm: u32,
    pub grid: u32,
    pub blocks: Vec<Block>,
    pub nets: Vec<Net>,
    /// `capacity default <n>` (every edge unbounded when `None`).
    pub cap: Option<u32>,
    /// `capacity rect` overrides: `(x0, y0, x1, y1, cap)`.
    pub cap_rects: Vec<(u32, u32, u32, u32, u32)>,
}

/// Textual variation that must not change the canonical fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    Plain,
    Comments,
    Crlf,
    ReorderedBlocks,
}

pub const STYLES: [Style; 4] = [
    Style::Plain,
    Style::Comments,
    Style::Crlf,
    Style::ReorderedBlocks,
];

impl Scn {
    pub fn render(&self, style: Style) -> String {
        let mut lines: Vec<String> = Vec::new();
        let comment = |lines: &mut Vec<String>, text: &str| {
            if style == Style::Comments {
                lines.push(format!("# {text}"));
            }
        };
        comment(&mut lines, "generated scenario");
        lines.push(format!("die {0}mm {0}mm", self.die_mm));
        lines.push(format!("grid {0} {0}", self.grid));
        lines.push("tech paper".to_owned());
        lines.push("reserve off".to_owned());
        let reordered = style == Style::ReorderedBlocks;
        let mut blocks = self.blocks.clone();
        if reordered {
            blocks.reverse();
        }
        let caps: Vec<String> = self
            .cap
            .map(|c| format!("capacity default {c}"))
            .into_iter()
            .chain(
                self.cap_rects
                    .iter()
                    .map(|(x0, y0, x1, y1, c)| format!("capacity rect {x0} {y0} {x1} {y1} {c}")),
            )
            .collect();
        // Directives other than nets are order-free, so the reordered
        // variant also moves the capacities ahead of the blocks.
        if reordered {
            lines.extend(caps.iter().cloned());
        }
        comment(&mut lines, "hard blocks");
        let (pad, tail) = match style {
            Style::Comments => ("   ", "  # macro"),
            _ => (" ", ""),
        };
        for (x0, y0, x1, y1) in blocks {
            lines.push(format!("block hard{pad}{x0} {y0} {x1} {y1}{tail}"));
        }
        if !reordered {
            lines.extend(caps);
        }
        comment(&mut lines, "nets (order is significant)");
        for n in &self.nets {
            let (kind, params) = match n.kind {
                Kind::Comb => ("comb", String::new()),
                Kind::Reg { period } => ("reg", format!(" period={period}")),
                Kind::Gals { ts, tt } => ("gals", format!(" ts={ts} tt={tt}")),
            };
            lines.push(format!(
                "net {kind} name={} src={},{} dst={},{}{params}",
                n.name, n.src.0, n.src.1, n.dst.0, n.dst.1
            ));
        }
        let eol = if style == Style::Crlf { "\r\n" } else { "\n" };
        let mut text = lines.join(eol);
        text.push_str(eol);
        text
    }

    /// `true` when no block covers a terminal or a capacity channel.
    fn routable(&self) -> bool {
        self.nets
            .iter()
            .all(|n| !self.blocked(n.src) && !self.blocked(n.dst))
            && self.cap_rects.iter().all(|&(x0, y0, x1, y1, _)| {
                (x0..=x1).all(|x| (y0..=y1).all(|y| !self.blocked((x, y))))
            })
    }

    fn blocked(&self, p: (u32, u32)) -> bool {
        self.blocks
            .iter()
            .any(|&(x0, y0, x1, y1)| (x0..=x1).contains(&p.0) && (y0..=y1).contains(&p.1))
    }
}

/// A period no register spacing can meet: the net can only be routed
/// by the degradation ladder's unbuffered fallback, so every scenario
/// carries a non-zero `nets_degraded`.
const INFEASIBLE_PERIOD: u32 = 1;

/// A terminal pair `len_lo..=len_hi` apart (Manhattan), both off-block.
fn short_pair(rng: &mut Rng, s: &Scn, len_lo: u32, len_hi: u32) -> ((u32, u32), (u32, u32)) {
    let max = s.grid - 1;
    loop {
        let a = (rng.range(0, max), rng.range(0, max));
        let len = rng.range(len_lo, len_hi);
        let dx = rng.range(0, len);
        let dy = len - dx;
        let bx = if rng.chance(50) {
            a.0.checked_sub(dx)
        } else {
            Some(a.0 + dx)
        };
        let by = if rng.chance(50) {
            a.1.checked_sub(dy)
        } else {
            Some(a.1 + dy)
        };
        if let (Some(bx), Some(by)) = (bx, by) {
            if bx <= max && by <= max && !s.blocked(a) && !s.blocked((bx, by)) {
                return (a, (bx, by));
            }
        }
    }
}

fn random_kind(rng: &mut Rng, gals_pct: u64, reg_pct: u64) -> Kind {
    let roll = rng.next_u64() % 100;
    if roll < gals_pct {
        Kind::Gals {
            ts: rng.range(300, 450),
            tt: rng.range(300, 450),
        }
    } else if roll < gals_pct + reg_pct {
        Kind::Reg {
            period: rng.range(250, 450),
        }
    } else {
        Kind::Comb
    }
}

fn place_blocks(rng: &mut Rng, s: &mut Scn, count: u32, size_lo: u32, size_hi: u32) {
    for _ in 0..count {
        let w = rng.range(size_lo, size_hi);
        let h = rng.range(size_lo, size_hi);
        let x0 = rng.range(1, s.grid - 2 - w);
        let y0 = rng.range(1, s.grid - 2 - h);
        s.blocks.push((x0, y0, x0 + w, y0 + h));
    }
}

/// A 2-bit bus on a straight, block-free row segment of `len` edges,
/// declared a capacity-1 channel. Both bits take the straight route, so
/// the channel is over capacity on exactly `len` edges whatever the
/// seed: `overflow_edges` stays non-zero and steady across seeds.
fn add_bus(rng: &mut Rng, s: &mut Scn, prefix: &str, len: u32) {
    loop {
        let y = rng.range(0, s.grid - 1);
        let x0 = rng.range(0, s.grid - 1 - len);
        if (x0..=x0 + len).all(|x| !s.blocked((x, y))) {
            for bit in 0..2 {
                s.nets.push(Net {
                    name: format!("{prefix}bus{bit}"),
                    kind: Kind::Comb,
                    src: (x0, y),
                    dst: (x0 + len, y),
                });
            }
            s.cap_rects.push((x0, y, x0 + len, y, 1));
            return;
        }
    }
}

/// One register net with an unmeetable period: only the degradation
/// ladder's unbuffered fallback routes it, so `nets_degraded` counts
/// one net per scenario unless the program degrades or drops others.
fn add_tight_net(rng: &mut Rng, s: &mut Scn, prefix: &str, len_lo: u32, len_hi: u32) {
    let (a, b) = short_pair(rng, s, len_lo, len_hi);
    s.nets.push(Net {
        name: format!("{prefix}tight"),
        kind: Kind::Reg {
            period: INFEASIBLE_PERIOD,
        },
        src: a,
        dst: b,
    });
}

// ---------------------------------------------------------------------
// serve_hit: a working set of large-but-cheap scenarios
// ---------------------------------------------------------------------

/// Scenarios in the `serve_hit` working set (below the cache cap of 64).
pub const HIT_WORKING_SET: usize = 24;
/// Nets per `serve_hit` scenario.
pub const HIT_NETS: usize = 240;

pub fn hit_working_set(seed: u64) -> Vec<Scn> {
    let mut rng = Rng::new(seed, "serve_hit");
    (0..HIT_WORKING_SET)
        .map(|i| {
            let mut s = Scn {
                die_mm: 16,
                grid: 64,
                blocks: Vec::new(),
                nets: Vec::new(),
                cap: None,
                cap_rects: Vec::new(),
            };
            place_blocks(&mut rng, &mut s, 5, 3, 7);
            for n in 0..HIT_NETS - 3 {
                let (src, dst) = short_pair(&mut rng, &s, 2, 6);
                let kind = random_kind(&mut rng, 0, 30);
                s.nets.push(Net {
                    name: format!("s{i}n{n}"),
                    kind,
                    src,
                    dst,
                });
            }
            add_bus(&mut rng, &mut s, &format!("s{i}"), 6);
            add_tight_net(&mut rng, &mut s, &format!("s{i}"), 4, 8);
            s
        })
        .collect()
}

/// Per-connection request orders for `serve_hit`: every working-set
/// scenario in every textual style, shuffled, as `(scenario, style)`.
pub fn hit_requests(seed: u64, conn: usize) -> Vec<(usize, Style)> {
    let mut rng = Rng::new(seed, &format!("serve_hit.conn{conn}"));
    let mut all: Vec<(usize, Style)> = (0..HIT_WORKING_SET)
        .flat_map(|i| STYLES.iter().map(move |&st| (i, st)))
        .collect();
    for i in (1..all.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        all.swap(i, j);
    }
    all
}

// ---------------------------------------------------------------------
// serve_solve: a never-repeating stream with warm-start near-misses
// ---------------------------------------------------------------------

/// Share (percent) of `serve_solve` requests that are near-misses of a
/// recent request: one block moved a few cells, same nets.
pub const NEAR_MISS_PCT: u64 = 30;

/// Lazily generated `serve_solve` stream: request `j` depends only on
/// the seed and requests `0..j`.
#[derive(Debug, Clone)]
pub struct SolveStream {
    rng: Rng,
    /// `(family, scenario)` per generated request.
    pub items: Vec<(usize, Scn)>,
    families: usize,
    seen: BTreeSet<(usize, Vec<Block>)>,
}

impl SolveStream {
    pub fn new(seed: u64) -> SolveStream {
        SolveStream {
            rng: Rng::new(seed, "serve_solve"),
            items: Vec::new(),
            families: 0,
            seen: BTreeSet::new(),
        }
    }

    /// Request `j`, generating up to it.
    pub fn get(&mut self, j: usize) -> &Scn {
        while self.items.len() <= j {
            let next = self.generate();
            self.items.push(next);
        }
        &self.items[j].1
    }

    fn generate(&mut self) -> (usize, Scn) {
        let rng = &mut self.rng;
        if !self.items.is_empty() && rng.chance(NEAR_MISS_PCT) {
            // Near-miss of one of the last few requests, so its family
            // is certainly still cached.
            let back = rng.range(1, (self.items.len() as u32).min(6)) as usize;
            let (family, _) = self.items[self.items.len() - back];
            let latest = self
                .items
                .iter()
                .rev()
                .find(|(f, _)| *f == family)
                .map(|(_, s)| s.clone())
                .expect("family has a member");
            for _ in 0..64 {
                let mut s = latest.clone();
                let b = (rng.next_u64() % s.blocks.len() as u64) as usize;
                let (x0, y0, x1, y1) = s.blocks[b];
                let dx = rng.range(1, 3);
                let dy = rng.range(0, 2);
                let (w, h) = (x1 - x0, y1 - y0);
                let nx = if rng.chance(50) {
                    x0.saturating_sub(dx).max(1)
                } else {
                    x0 + dx
                };
                let ny = if rng.chance(50) {
                    y0.saturating_sub(dy).max(1)
                } else {
                    y0 + dy
                };
                if nx + w > s.grid - 2 || ny + h > s.grid - 2 {
                    continue;
                }
                s.blocks[b] = (nx, ny, nx + w, ny + h);
                if s.routable() && self.seen.insert((family, s.blocks.clone())) {
                    return (family, s);
                }
            }
        }
        let family = self.families;
        self.families += 1;
        let mut s = Scn {
            die_mm: 16,
            grid: 64,
            blocks: Vec::new(),
            nets: Vec::new(),
            cap: None,
            cap_rects: Vec::new(),
        };
        place_blocks(rng, &mut s, 5, 3, 6);
        for n in 0..SOLVE_NETS - 3 {
            let (src, dst) = short_pair(rng, &s, 20, 40);
            let kind = random_kind(rng, 25, 40);
            s.nets.push(Net {
                name: format!("f{family}n{n}"),
                kind,
                src,
                dst,
            });
        }
        add_bus(rng, &mut s, &format!("f{family}"), 16);
        add_tight_net(rng, &mut s, &format!("f{family}"), 10, 20);
        self.seen.insert((family, s.blocks.clone()));
        (family, s)
    }
}

/// Nets per `serve_solve` scenario.
pub const SOLVE_NETS: usize = 40;

// ---------------------------------------------------------------------
// flow_congested: capacitated batches across a walled bottleneck
// ---------------------------------------------------------------------

/// Scenario files in the `flow_congested` set: enough that per-seed
/// differences between scenarios average out within a run. (With 24,
/// the set's mix alone spread `req_p50_ms` by ~15 % across seeds.)
pub const FLOW_SCENARIOS: usize = 96;
/// Nets per `flow_congested` scenario.
pub const FLOW_NETS: usize = 26;

/// Net kinds of the crossing nets, in rotation, so every scenario has
/// the same mix.
fn rotation_kind(rng: &mut Rng, n: usize) -> Kind {
    match n % 5 {
        1 | 4 => Kind::Reg {
            period: rng.range(250, 450),
        },
        3 => Kind::Gals {
            ts: rng.range(300, 450),
            tt: rng.range(300, 450),
        },
        _ => Kind::Comb,
    }
}

/// Each scenario has a vertical wall of hard blocks with three gaps,
/// one per third of its height, each two rows wide with capacity 1 per
/// row (default capacity elsewhere is 2): six tracks through the wall
/// in all. Every net but the guard crosses the wall, so demand (25
/// nets) exceeds the gaps' capacity: some overflow is unavoidable and
/// the price rounds have work to do.
pub fn flow_set(seed: u64) -> Vec<Scn> {
    let mut rng = Rng::new(seed, "flow_congested");
    (0..FLOW_SCENARIOS)
        .map(|i| {
            let grid = 32;
            let mut s = Scn {
                die_mm: 8,
                grid,
                blocks: Vec::new(),
                nets: Vec::new(),
                cap: Some(2),
                cap_rects: Vec::new(),
            };
            let wall = rng.range(grid / 2 - 2, grid / 2 + 2);
            let third = grid / 3;
            let gaps: Vec<u32> = (0..3)
                .map(|k| k * third + rng.range(3, third - 4))
                .collect();
            let mut y = 0;
            for g in &gaps {
                s.blocks.push((wall, y, wall + 1, g - 1));
                y = g + 2;
            }
            s.blocks.push((wall, y, wall + 1, grid - 1));
            for g in &gaps {
                s.cap_rects.push((wall - 1, *g, wall + 2, g + 1, 1));
            }
            let crossing = FLOW_NETS - 1;
            for n in 0..crossing {
                let band = |rng: &mut Rng| {
                    (n as u32 * grid / crossing as u32 + rng.range(0, 1)).min(grid - 1)
                };
                let left = (rng.range(0, wall - 4), band(&mut rng));
                let right = (rng.range(wall + 4, grid - 1), rng.range(0, grid - 1));
                let (src, dst) = if n % 2 == 0 {
                    (left, right)
                } else {
                    (right, left)
                };
                s.nets.push(Net {
                    name: format!("c{i}n{n}"),
                    kind: rotation_kind(&mut rng, n),
                    src,
                    dst,
                });
            }
            add_tight_net(&mut rng, &mut s, &format!("c{i}"), 6, 12);
            s
        })
        .collect()
}

/// The one-net scenario `crplan.floor_ms` times: process start-up,
/// file read, parse and report with next to no search.
pub fn floor_scenario() -> String {
    "die 1mm 1mm\ngrid 4 4\nnet comb name=floor src=0,0 dst=3,0\n".to_owned()
}
