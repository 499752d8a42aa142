//! The `.cr` scenario file format: a small, line-oriented description of
//! a die, its blockages, and the global nets to plan.
//!
//! ```text
//! # comments start with '#'
//! die 25mm 25mm            # physical die size (mm or um suffix)
//! grid 200 200             # routing grid resolution
//! tech paper               # or: tech r=1.39 c=0.0100  (Ω/µm, fF/µm)
//!
//! # block <kind> <x0> <y0> <x1> <y1>   (grid coords, inclusive)
//! block hard 40 40 80 90
//! block obstacle 120 10 150 60
//! block wiring 20 120 60 150
//! block regkeepout 100 100 130 130
//!
//! # net <kind> name=<id> src=<x>,<y> dst=<x>,<y> [period=<ps>] [ts=<ps> tt=<ps>]
//! net comb name=probe src=19,19 dst=179,179
//! net reg  name=dbus  src=19,30 dst=179,160 period=343
//! net gals name=xdom  src=30,19 dst=160,179 ts=300 tt=400
//!
//! reserve off              # optional: disable resource reservation
//!
//! # optional channel capacities for `crplan --flow` (default: unbounded)
//! capacity default 2                # every edge carries at most 2 nets
//! capacity edge 4,7 5,7 1           # one adjacent edge
//! capacity rect 10 0 12 19 1        # every edge inside the rect
//! ```

use clockroute_elmore::Technology;
use clockroute_geom::units::{CapPerLength, Length, ResPerLength, Time};
use clockroute_geom::{BlockKind, Floorplan, Point, Rect};
use clockroute_grid::EdgeCapacities;
use clockroute_plan::NetSpec;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A parsed scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Die outline + blocks.
    pub floorplan: Floorplan,
    /// Grid resolution `(width, height)`.
    pub grid: (u32, u32),
    /// Technology parameters.
    pub tech: Technology,
    /// Nets to plan, in order.
    pub nets: Vec<NetSpec>,
    /// Whether routed nets reserve their resources.
    pub reserve: bool,
    /// Channel capacities for `--flow` mode. Empty (every edge
    /// unbounded) unless the scenario declares `capacity` directives.
    pub capacities: EdgeCapacities,
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ParseScenarioError {
    ParseScenarioError {
        line,
        message: message.into(),
    }
}

fn parse_length(tok: &str, line: usize) -> Result<Length, ParseScenarioError> {
    if let Some(v) = tok.strip_suffix("mm") {
        v.parse::<f64>()
            .map(Length::from_mm)
            .map_err(|_| err(line, format!("bad length `{tok}`")))
    } else if let Some(v) = tok.strip_suffix("um") {
        v.parse::<f64>()
            .map(Length::from_um)
            .map_err(|_| err(line, format!("bad length `{tok}`")))
    } else {
        Err(err(line, format!("length `{tok}` needs a mm/um suffix")))
    }
}

fn parse_point(tok: &str, line: usize) -> Result<Point, ParseScenarioError> {
    let (x, y) = tok
        .split_once(',')
        .ok_or_else(|| err(line, format!("bad point `{tok}` (expected x,y)")))?;
    let x = x
        .parse()
        .map_err(|_| err(line, format!("bad x coordinate `{x}`")))?;
    let y = y
        .parse()
        .map_err(|_| err(line, format!("bad y coordinate `{y}`")))?;
    Ok(Point::new(x, y))
}

fn kv<'a>(tokens: &[&'a str], key: &str, line: usize) -> Result<&'a str, ParseScenarioError> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| err(line, format!("missing `{key}=...`")))
}

fn parse_cap(tok: &str, line: usize) -> Result<u32, ParseScenarioError> {
    tok.parse::<u32>()
        .map_err(|_| err(line, format!("bad capacity `{tok}` (expected a non-negative integer)")))
}

/// One `capacity` directive, held until the grid bounds are known.
#[derive(Debug, Clone, Copy)]
enum CapDirective {
    Default(u32),
    Edge(Point, Point, u32),
    Rect(u32, u32, u32, u32, u32),
}

/// Parses a scenario from text.
///
/// # Errors
///
/// Returns the first [`ParseScenarioError`] encountered, with its line
/// number. A scenario must declare `die` and `grid` and at least one
/// `net`.
pub fn parse(text: &str) -> Result<Scenario, ParseScenarioError> {
    let mut die: Option<(Length, Length)> = None;
    let mut grid: Option<(u32, u32)> = None;
    let mut tech = Technology::paper_070nm();
    let mut blocks: Vec<(Rect, BlockKind, usize)> = Vec::new();
    let mut nets: Vec<(NetSpec, usize)> = Vec::new();
    // Net name → the line that first declared it, so the duplicate
    // check stays one lookup per net: `crserve` parses every request,
    // hits included, at up to `max_nets` nets.
    let mut net_lines: BTreeMap<&str, usize> = BTreeMap::new();
    let mut reserve = true;
    let mut cap_directives: Vec<(CapDirective, usize)> = Vec::new();

    for (i, raw) in text.split('\n').enumerate() {
        let line_no = i + 1;
        // CRLF files: splitting on '\n' leaves a trailing '\r' on every
        // line, which must not reach the tokens (canonical hashing makes
        // a `\r`-polluted net name a silent cache miss). One explicit
        // strip, then ordinary whitespace trimming handles trailing
        // spaces/tabs.
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "die" => {
                if tokens.len() != 3 {
                    return Err(err(line_no, "usage: die <width> <height>"));
                }
                let w = parse_length(tokens[1], line_no)?;
                let h = parse_length(tokens[2], line_no)?;
                if w.mm() <= 0.0 || h.mm() <= 0.0 {
                    return Err(err(line_no, "die must have positive area"));
                }
                die = Some((w, h));
            }
            "grid" => {
                if tokens.len() != 3 {
                    return Err(err(line_no, "usage: grid <w> <h>"));
                }
                let w = tokens[1]
                    .parse()
                    .map_err(|_| err(line_no, "bad grid width"))?;
                let h = tokens[2]
                    .parse()
                    .map_err(|_| err(line_no, "bad grid height"))?;
                if w == 0 || h == 0 {
                    return Err(err(line_no, "grid dimensions must be non-zero"));
                }
                grid = Some((w, h));
            }
            "tech" => {
                if tokens.len() == 2 && tokens[1] == "paper" {
                    tech = Technology::paper_070nm();
                } else {
                    let r: f64 = kv(&tokens, "r", line_no)?
                        .parse()
                        .map_err(|_| err(line_no, "bad r value"))?;
                    let c: f64 = kv(&tokens, "c", line_no)?
                        .parse()
                        .map_err(|_| err(line_no, "bad c value"))?;
                    if r <= 0.0 || c <= 0.0 {
                        return Err(err(line_no, "tech parameters must be positive"));
                    }
                    tech = Technology::new(
                        ResPerLength::from_ohms_per_um(r),
                        CapPerLength::from_ff_per_um(c),
                    );
                }
            }
            "block" => {
                if tokens.len() != 6 {
                    return Err(err(line_no, "usage: block <kind> <x0> <y0> <x1> <y1>"));
                }
                let kind = match tokens[1] {
                    "hard" => BlockKind::Hard,
                    "obstacle" => BlockKind::Obstacle,
                    "wiring" => BlockKind::WiringOnly,
                    "regkeepout" => BlockKind::RegisterKeepout,
                    other => return Err(err(line_no, format!("unknown block kind `{other}`"))),
                };
                let coords: Result<Vec<u32>, _> =
                    tokens[2..6].iter().map(|t| t.parse::<u32>()).collect();
                let coords =
                    coords.map_err(|_| err(line_no, "block coordinates must be integers"))?;
                blocks.push((
                    Rect::new(
                        Point::new(coords[0], coords[1]),
                        Point::new(coords[2], coords[3]),
                    ),
                    kind,
                    line_no,
                ));
            }
            "net" => {
                if tokens.len() < 2 {
                    return Err(err(line_no, "usage: net <comb|reg|gals> ..."));
                }
                let name = kv(&tokens, "name", line_no)?;
                if let Some(first) = net_lines.insert(name, line_no) {
                    return Err(err(
                        line_no,
                        format!("duplicate net name `{name}` (first declared on line {first})"),
                    ));
                }
                let src = parse_point(kv(&tokens, "src", line_no)?, line_no)?;
                let dst = parse_point(kv(&tokens, "dst", line_no)?, line_no)?;
                let net = match tokens[1] {
                    "comb" => NetSpec::combinational(name, src, dst),
                    "reg" => {
                        let period: f64 = kv(&tokens, "period", line_no)?
                            .parse()
                            .map_err(|_| err(line_no, "bad period"))?;
                        NetSpec::registered(name, src, dst, Time::from_ps(period))
                    }
                    "gals" => {
                        let ts: f64 = kv(&tokens, "ts", line_no)?
                            .parse()
                            .map_err(|_| err(line_no, "bad ts"))?;
                        let tt: f64 = kv(&tokens, "tt", line_no)?
                            .parse()
                            .map_err(|_| err(line_no, "bad tt"))?;
                        NetSpec::gals(name, src, dst, Time::from_ps(ts), Time::from_ps(tt))
                    }
                    other => return Err(err(line_no, format!("unknown net kind `{other}`"))),
                };
                nets.push((net, line_no));
            }
            "reserve" => {
                reserve = match tokens.get(1).copied() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => return Err(err(line_no, "usage: reserve on|off")),
                };
            }
            "capacity" => {
                let directive = match tokens.get(1).copied() {
                    Some("default") => {
                        if tokens.len() != 3 {
                            return Err(err(line_no, "usage: capacity default <n>"));
                        }
                        CapDirective::Default(parse_cap(tokens[2], line_no)?)
                    }
                    Some("edge") => {
                        if tokens.len() != 5 {
                            return Err(err(line_no, "usage: capacity edge <x1,y1> <x2,y2> <n>"));
                        }
                        let a = parse_point(tokens[2], line_no)?;
                        let b = parse_point(tokens[3], line_no)?;
                        if !a.is_adjacent(b) {
                            return Err(err(
                                line_no,
                                format!("capacity edge {a} {b}: endpoints are not adjacent"),
                            ));
                        }
                        CapDirective::Edge(a, b, parse_cap(tokens[4], line_no)?)
                    }
                    Some("rect") => {
                        if tokens.len() != 7 {
                            return Err(err(
                                line_no,
                                "usage: capacity rect <x0> <y0> <x1> <y1> <n>",
                            ));
                        }
                        let coords: Result<Vec<u32>, _> =
                            tokens[2..6].iter().map(|t| t.parse::<u32>()).collect();
                        let c = coords.map_err(|_| {
                            err(line_no, "capacity rect coordinates must be integers")
                        })?;
                        if c[0] > c[2] || c[1] > c[3] {
                            return Err(err(line_no, "capacity rect is inverted (x0>x1 or y0>y1)"));
                        }
                        CapDirective::Rect(c[0], c[1], c[2], c[3], parse_cap(tokens[6], line_no)?)
                    }
                    _ => {
                        return Err(err(
                            line_no,
                            "usage: capacity default <n> | capacity edge <x1,y1> <x2,y2> <n> | \
                             capacity rect <x0> <y0> <x1> <y1> <n>",
                        ))
                    }
                };
                cap_directives.push((directive, line_no));
            }
            other => return Err(err(line_no, format!("unknown directive `{other}`"))),
        }
    }

    let (dw, dh) = die.ok_or_else(|| err(0, "missing `die` directive"))?;
    let (gw, gh) = grid.ok_or_else(|| err(0, "missing `grid` directive"))?;
    if nets.is_empty() {
        return Err(err(0, "scenario declares no nets"));
    }
    let mut floorplan = Floorplan::new(dw, dh);
    for (rect, kind, line) in blocks {
        if rect.hi().x >= gw || rect.hi().y >= gh {
            return Err(err(line, format!("block {rect} exceeds the {gw}×{gh} grid")));
        }
        floorplan.add_block(rect, kind);
    }
    for (net, line) in &nets {
        for (what, p) in [("src", net.source), ("dst", net.sink)] {
            if p.x >= gw || p.y >= gh {
                return Err(err(
                    *line,
                    format!("net `{}` {what} {p} is off-grid", net.name),
                ));
            }
        }
    }
    // Capacities are validated against the (now known) grid bounds at
    // their declaration lines; within one kind, later directives win.
    let mut capacities = EdgeCapacities::new();
    for (directive, line) in &cap_directives {
        match *directive {
            CapDirective::Default(c) => capacities.set_default(c),
            CapDirective::Edge(a, b, c) => {
                for p in [a, b] {
                    if p.x >= gw || p.y >= gh {
                        return Err(err(*line, format!("capacity edge point {p} is off-grid")));
                    }
                }
                capacities.set_edge(a, b, c);
            }
            CapDirective::Rect(x0, y0, x1, y1, c) => {
                if x1 >= gw || y1 >= gh {
                    return Err(err(
                        *line,
                        format!("capacity rect exceeds the {gw}×{gh} grid"),
                    ));
                }
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        let p = Point::new(x, y);
                        if x < x1 {
                            capacities.set_edge(p, Point::new(x + 1, y), c);
                        }
                        if y < y1 {
                            capacities.set_edge(p, Point::new(x, y + 1), c);
                        }
                    }
                }
            }
        }
    }
    Ok(Scenario {
        floorplan,
        grid: (gw, gh),
        tech,
        nets: nets.into_iter().map(|(n, _)| n).collect(),
        reserve,
        capacities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_plan::NetKind;

    const GOOD: &str = "\
# demo scenario
die 25mm 25mm
grid 100 100
tech paper

block hard 40 40 60 60        # cpu macro
block regkeepout 10 70 30 90

net comb name=a src=5,5 dst=95,95
net reg  name=b src=5,50 dst=95,50 period=343
net gals name=c src=50,5 dst=50,95 ts=300 tt=400
";

    #[test]
    fn parses_complete_scenario() {
        let s = parse(GOOD).unwrap();
        assert_eq!(s.grid, (100, 100));
        assert_eq!(s.floorplan.blocks().len(), 2);
        assert_eq!(s.nets.len(), 3);
        assert!(s.reserve);
        assert!(matches!(s.nets[0].kind, NetKind::Combinational));
        assert!(matches!(s.nets[1].kind, NetKind::Registered { .. }));
        assert!(matches!(s.nets[2].kind, NetKind::Gals { .. }));
        assert_eq!(s.nets[1].source, Point::new(5, 50));
    }

    #[test]
    fn custom_tech_and_reserve_off() {
        let text = "die 10mm 10mm\ngrid 20 20\ntech r=2.0 c=0.02\nreserve off\nnet comb name=x src=0,0 dst=19,19\n";
        let s = parse(text).unwrap();
        assert!(!s.reserve);
        assert!((s.tech.unit_res().ohms_per_um() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn um_lengths_accepted() {
        let text = "die 5000um 5000um\ngrid 10 10\nnet comb name=x src=0,0 dst=9,9\n";
        let s = parse(text).unwrap();
        assert!((s.floorplan.die_width().mm() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "die 25mm 25mm\ngrid 10 10\nblok hard 0 0 1 1\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("blok"));
        assert!(e.to_string().starts_with("line 3:"));
    }

    #[test]
    fn missing_required_fields() {
        assert!(parse("grid 10 10\nnet comb name=x src=0,0 dst=9,9\n")
            .unwrap_err()
            .message
            .contains("die"));
        assert!(parse("die 1mm 1mm\nnet comb name=x src=0,0 dst=0,1\n")
            .unwrap_err()
            .message
            .contains("grid"));
        assert!(parse("die 1mm 1mm\ngrid 4 4\n")
            .unwrap_err()
            .message
            .contains("no nets"));
    }

    #[test]
    fn rejects_off_grid_references() {
        let e = parse("die 1mm 1mm\ngrid 4 4\nblock hard 0 0 9 9\nnet comb name=x src=0,0 dst=3,3\n")
            .unwrap_err();
        assert!(e.message.contains("exceeds"));
        let e = parse("die 1mm 1mm\ngrid 4 4\nnet comb name=x src=0,0 dst=9,9\n").unwrap_err();
        assert!(e.message.contains("off-grid"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse("die 25 25\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\n")
            .unwrap_err()
            .message
            .contains("suffix"));
        assert!(parse("die 1mm 1mm\ngrid 4 4\nnet reg name=x src=0,0 dst=3,3\n")
            .unwrap_err()
            .message
            .contains("period"));
        assert!(
            parse("die 1mm 1mm\ngrid 4 4\nnet comb name=x src=zero dst=3,3\n")
                .unwrap_err()
                .message
                .contains("point")
        );
        assert!(parse("die 1mm 1mm\ngrid 4 4\ntech r=-1 c=0.1\nnet comb name=x src=0,0 dst=3,3\n")
            .unwrap_err()
            .message
            .contains("positive"));
    }

    #[test]
    fn rejects_duplicate_net_names() {
        let text = "die 1mm 1mm\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\nnet comb name=x src=1,0 dst=3,2\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("duplicate net name `x`"), "{e}");
        assert!(e.message.contains("line 3"), "{e}");
    }

    #[test]
    fn duplicate_after_512_nets_names_the_first_line() {
        let mut text = String::from("die 1mm 1mm\ngrid 4 4\n");
        for i in 0..512 {
            text.push_str(&format!("net comb name=n{i} src=0,0 dst=3,3\n"));
        }
        // n17 is declared on line 2 + 17 + 1; its duplicate is line 515.
        text.push_str("net comb name=n17 src=1,0 dst=3,2\n");
        let e = parse(&text).unwrap_err();
        assert_eq!(e.line, 515);
        assert_eq!(
            e.message,
            "duplicate net name `n17` (first declared on line 20)"
        );
        // Without the duplicate, all 512 nets parse in order.
        let s = parse(&text[..text.len() - "net comb name=n17 src=1,0 dst=3,2\n".len()]).unwrap();
        assert_eq!(s.nets.len(), 512);
        assert_eq!(s.nets[511].name, "n511");
    }

    #[test]
    fn rejects_zero_grid_at_its_line() {
        let e = parse("die 1mm 1mm\ngrid 0 0\nnet comb name=x src=0,0 dst=0,0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("non-zero"), "{e}");
        let e = parse("die 1mm 1mm\ngrid 4 0\nnet comb name=x src=0,0 dst=3,0\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_zero_area_die_at_its_line() {
        let e = parse("grid 4 4\ndie 0mm 10mm\nnet comb name=x src=0,0 dst=3,3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("positive area"), "{e}");
    }

    #[test]
    fn late_validations_carry_line_numbers() {
        let e = parse("die 1mm 1mm\ngrid 4 4\nblock hard 0 0 9 9\nnet comb name=x src=0,0 dst=3,3\n")
            .unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse("die 1mm 1mm\ngrid 4 4\nnet comb name=x src=0,0 dst=9,9\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn accepts_crlf_line_endings() {
        let lf = "die 1mm 1mm\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\n";
        let crlf = lf.replace('\n', "\r\n");
        let a = parse(lf).unwrap();
        let b = parse(&crlf).unwrap();
        assert_eq!(a.nets[0].name, "x");
        assert_eq!(b.nets[0].name, "x", "no \\r may leak into tokens");
        assert_eq!(a.grid, b.grid);
        assert_eq!(a.nets, b.nets);
        // Error line numbers are preserved under CRLF.
        let bad = "die 1mm 1mm\r\ngrid 4 4\r\nblok hard 0 0 1 1\r\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn accepts_trailing_whitespace() {
        let text = "die 1mm 1mm  \t\ngrid 4 4   \nnet comb name=x src=0,0 dst=3,3\t\t\nreserve off  \n";
        let s = parse(text).unwrap();
        assert_eq!(s.nets.len(), 1);
        assert_eq!(s.nets[0].name, "x");
        assert!(!s.reserve);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# hi\ndie 1mm 1mm # trailing\n\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\n";
        assert!(parse(text).is_ok());
    }

    const CAP_BASE: &str = "die 1mm 1mm\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\n";

    #[test]
    fn scenarios_without_capacities_are_unconstrained() {
        let s = parse(CAP_BASE).unwrap();
        assert!(s.capacities.is_unconstrained());
    }

    #[test]
    fn parses_capacity_directives() {
        let text = format!(
            "{CAP_BASE}capacity default 2\ncapacity edge 0,0 1,0 5\ncapacity rect 1 1 2 2 1\n"
        );
        let s = parse(&text).unwrap();
        assert!(!s.capacities.is_unconstrained());
        assert_eq!(s.capacities.default_cap(), Some(2));
        assert_eq!(s.capacities.cap(Point::new(0, 0), Point::new(1, 0)), Some(5));
        // Rect covers the 4 interior edges of the 2×2 square.
        assert_eq!(s.capacities.cap(Point::new(1, 1), Point::new(2, 1)), Some(1));
        assert_eq!(s.capacities.cap(Point::new(2, 1), Point::new(2, 2)), Some(1));
        // Edges outside any directive fall back to the default.
        assert_eq!(s.capacities.cap(Point::new(2, 3), Point::new(3, 3)), Some(2));
        assert_eq!(s.capacities.override_count(), 5);
    }

    #[test]
    fn capacity_errors_carry_line_numbers() {
        for (suffix, needle) in [
            ("capacity default many\n", "bad capacity"),
            ("capacity default\n", "usage: capacity default"),
            ("capacity edge 0,0 2,0 1\n", "not adjacent"),
            ("capacity edge 0,0 9,0\n", "usage: capacity edge"),
            ("capacity rect 2 2 1 1 1\n", "inverted"),
            ("capacity rect 0 0 9 9 1\n", "exceeds"),
            ("capacity bogus 1\n", "usage: capacity"),
        ] {
            let e = parse(&format!("{CAP_BASE}{suffix}")).unwrap_err();
            assert_eq!(e.line, 4, "{suffix}: {e}");
            assert!(e.message.contains(needle), "{suffix}: {e}");
        }
        // Off-grid edge endpoints are caught at post-validation with the
        // declaring line, even when the grid is declared later.
        let e = parse("die 1mm 1mm\ncapacity edge 5,0 6,0 1\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("off-grid"), "{e}");
    }

    #[test]
    fn later_capacity_directives_win() {
        let text = format!("{CAP_BASE}capacity default 3\ncapacity default 1\ncapacity edge 0,0 1,0 9\ncapacity edge 1,0 0,0 4\n");
        let s = parse(&text).unwrap();
        assert_eq!(s.capacities.default_cap(), Some(1));
        assert_eq!(s.capacities.cap(Point::new(0, 0), Point::new(1, 0)), Some(4));
    }
}
