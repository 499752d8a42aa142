//! The `crserve` wire protocol: line-oriented JSON (JSONL).
//!
//! Every request is one line holding one *flat* JSON object (string,
//! number, boolean or null values only — nesting is rejected, which
//! keeps the grammar in DESIGN.md §12 small). Every response is one line
//! of JSON produced through [`clockroute_core::json::json_string`], so
//! the whole conversation satisfies `validate_jsonl`.
//!
//! ```text
//! → {"id":"r1","op":"route","scenario":"die 10mm 10mm\ngrid 20 20\n..."}
//! ← {"id":"r1","status":"ok","cache":"cold","routed":1,"failed":0,"degraded":0,"report":"a: ...\n"}
//! → {"id":"r2","op":"ping"}
//! ← {"id":"r2","status":"ok","pong":true}
//! ```
//!
//! Requests are decoded by [`clockroute_core::json::parse`], the same
//! strict parser `validate_json` uses, so a line the service accepts is
//! valid JSON. The one exception is a memo hit ([`raw_route`]): its
//! line is walked by the same parser with the `scenario` literal left
//! undecoded, and accepted only when that literal is byte for byte one
//! the parser accepted before — so it is accepted by identity with a
//! line `parse` accepts, with the same fields and scenario text.
//!
//! A `route` answer embeds the cached report as an escaped literal,
//! stored once per solve; [`route_ok`] is the same response built from
//! the unescaped report.

use clockroute_core::json::{self, json_string};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A request field's value. Requests may carry only the scalar variants
/// ([`parse_flat`] rejects `Arr` and `Obj`); the alias keeps the name
/// clients already match on.
pub use clockroute_core::json::Value as JsonValue;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// What to do.
    pub op: Op,
}

/// Request operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Solve (or answer from cache) the given `.cr` scenario text.
    Route {
        /// Scenario file contents.
        scenario: String,
    },
    /// Liveness probe.
    Ping,
    /// Dump the service's aggregated telemetry counters and gauges.
    Stats,
    /// Stop accepting requests and exit cleanly.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message describing the first syntax or schema
/// violation. The caller wraps it in a `malformed` response; the
/// connection survives.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut fields = parse_flat(line)?;
    let id = request_id(fields.remove("id"))?;
    let op = match fields.remove("op") {
        Some(JsonValue::Str(s)) => s,
        Some(_) => return Err("`op` must be a string".to_owned()),
        None => return Err("missing `op`".to_owned()),
    };
    let op = match op.as_str() {
        "route" => match fields.remove("scenario") {
            Some(JsonValue::Str(scenario)) => Op::Route { scenario },
            Some(_) => return Err("`scenario` must be a string".to_owned()),
            None => return Err("route needs a `scenario`".to_owned()),
        },
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok(Request { id, op })
}

/// The request id from its field's value: a string, or none when the
/// field is absent or null.
fn request_id(value: Option<JsonValue>) -> Result<Option<String>, String> {
    match value {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s)),
        Some(_) => Err("`id` must be a string or null".to_owned()),
    }
}

/// A `route` request read without decoding its scenario: the memo's
/// view of a line.
#[derive(Debug, PartialEq)]
pub(crate) struct RawRoute<'a> {
    /// As [`Request::id`].
    pub(crate) id: Option<String>,
    /// The `scenario` value's raw JSON string literal, quotes included.
    pub(crate) literal: &'a str,
}

/// Reads `line` as a `route` request carrying `op`, `scenario` and an
/// optional `id` (string or null) and nothing else, with the scenario
/// left as its raw literal ([`json::parse_deferred`]).
///
/// `None` for every other line; the caller then takes
/// [`parse_request`]. When the literal is valid, as it is whenever it
/// equals one [`parse_request`] accepted, `parse_request(line)` returns
/// the same id and the literal's decoded text as the scenario.
pub(crate) fn raw_route(line: &str) -> Option<RawRoute<'_>> {
    let (mut fields, literal) = json::parse_deferred(line, "scenario")?;
    let id = request_id(fields.remove("id")).ok()?;
    match fields.remove("op") {
        Some(JsonValue::Str(op)) if op == "route" && fields.is_empty() => {
            Some(RawRoute { id, literal })
        }
        _ => None,
    }
}

/// Decodes one flat JSON object (e.g. a `route` response) into its
/// field map. Public so clients — and the crate's own end-to-end tests
/// — can read responses without a JSON dependency. Fails on nested
/// values; of the response family only `stats` nests.
pub fn parse_flat(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let start = line.len() - line.trim_start_matches([' ', '\t', '\n', '\r']).len();
    let not_object = || format!("expected '{{' at byte {start}");
    if !line[start..].starts_with('{') {
        return Err(not_object());
    }
    let JsonValue::Obj(fields) = json::parse(line)? else {
        return Err(not_object());
    };
    match fields
        .iter()
        .find(|(_, v)| matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_)))
    {
        Some((key, _)) => Err(format!("nested values are not allowed (field `{key}`)")),
        None => Ok(fields),
    }
}

/// The response `id` field: the request's id, or `null` when the
/// request was too mangled to carry one.
fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => json_string(id),
        None => "null".to_owned(),
    }
}

/// Successful route response. `report` is byte-identical to
/// `crplan --quiet` stdout for the same scenario; `cache` is `cold`,
/// `hit` or `warm`.
pub fn route_ok(
    id: Option<&str>,
    cache: &str,
    routed: usize,
    failed: usize,
    degraded: usize,
    report: &str,
) -> String {
    route_ok_spliced(id, cache, routed, failed, degraded, &json_string(report))
}

/// [`route_ok`] with the report already escaped: `report_literal` is
/// `json_string(report)`, spliced in as it is. The response is built in
/// one buffer of exactly its length.
pub(crate) fn route_ok_spliced(
    id: Option<&str>,
    cache: &str,
    routed: usize,
    failed: usize,
    degraded: usize,
    report_literal: &str,
) -> String {
    let head = format!(
        "{{\"id\":{},\"status\":\"ok\",\"cache\":{},\"routed\":{routed},\"failed\":{failed},\"degraded\":{degraded},\"report\":",
        id_field(id),
        json_string(cache),
    );
    let mut out = String::with_capacity(head.len() + report_literal.len() + 1);
    out.push_str(&head);
    out.push_str(report_literal);
    out.push('}');
    out
}

/// Admission rejection. `retry_after_ms` is the deterministic back-off
/// hint for transient (`busy`) rejections; permanent rejections (net
/// cap) pass `None` and the field is omitted — retrying cannot help.
pub fn busy(id: Option<&str>, reason: &str, retry_after_ms: Option<u64>) -> String {
    match retry_after_ms {
        Some(ms) => format!(
            "{{\"id\":{},\"status\":\"busy\",\"reason\":{},\"retry_after_ms\":{ms}}}",
            id_field(id),
            json_string(reason),
        ),
        None => format!(
            "{{\"id\":{},\"status\":\"busy\",\"reason\":{}}}",
            id_field(id),
            json_string(reason),
        ),
    }
}

/// Scenario or internal error; the connection stays up.
pub fn error(id: Option<&str>, message: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"error\",\"error\":{}}}",
        id_field(id),
        json_string(message),
    )
}

/// Unparseable request line.
pub fn malformed(message: &str) -> String {
    format!(
        "{{\"id\":null,\"status\":\"malformed\",\"error\":{}}}",
        json_string(message),
    )
}

/// Ping response.
pub fn pong(id: Option<&str>) -> String {
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"pong\":true}}",
        id_field(id)
    )
}

/// Stats response: one nested object of counters and gauges, compact
/// (single-line) unlike `MetricsRecorder::to_json`, because JSONL
/// responses must stay one line.
pub fn stats(id: Option<&str>, counters: &[(String, u64)], gauges: &[(String, u64)]) -> String {
    let mut out = format!("{{\"id\":{},\"status\":\"ok\",\"stats\":{{", id_field(id));
    let mut first = true;
    for (name, value) in counters.iter().chain(gauges) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("}}");
    out
}

/// Shutdown acknowledgement.
pub fn bye(id: Option<&str>) -> String {
    format!("{{\"id\":{},\"status\":\"ok\",\"bye\":true}}", id_field(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::json::{validate_json, validate_jsonl};

    #[test]
    fn parses_route_request() {
        let r = parse_request(
            r#"{"id":"r1","op":"route","scenario":"die 1mm 1mm\ngrid 4 4\nnet comb name=x src=0,0 dst=3,3\n"}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("r1"));
        match r.op {
            Op::Route { scenario } => {
                assert!(scenario.starts_with("die 1mm 1mm\ngrid 4 4\n"));
                assert!(scenario.ends_with('\n'), "\\n escapes decoded");
            }
            other => panic!("wrong op {other:?}"),
        }
    }

    #[test]
    fn parses_control_requests() {
        assert_eq!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request {
                id: None,
                op: Op::Ping
            }
        );
        assert_eq!(
            parse_request(r#"{ "id" : "s" , "op" : "stats" }"#)
                .unwrap()
                .op,
            Op::Stats
        );
        assert_eq!(
            parse_request(r#"{"id":null,"op":"shutdown"}"#).unwrap(),
            Request {
                id: None,
                op: Op::Shutdown
            }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for (line, needle) in [
            ("", "expected '{'"),
            ("{", "expected '\"' at byte 1"),
            (r#"{"op""#, "expected ':' at byte 5"),
            ("not json", "expected '{'"),
            (r#"{"op":"route"}"#, "scenario"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"id":7,"op":"ping"}"#, "`id` must be"),
            (r#"{"op":42}"#, "`op` must be"),
            (r#"{"op":"ping","op":"ping"}"#, "duplicate"),
            (r#"{"op":{"nested":true}}"#, "nested"),
            (r#"{"op":["a"]}"#, "nested"),
            (r#"{"op":"ping"} extra"#, "trailing"),
            (r#"{"op":"ping","n":1e999}"#, "bad number"),
            (r#"{"op":"ping""#, "expected"),
            ("{\"op\":\"pi\nng\"}", "control byte"),
            (r#"{"op":"ping","n":1.}"#, "bad number"),
            (r#"{"op":"ping","n":01}"#, "bad number"),
            (r#"{"id":"\ud83d","op":"ping"}"#, "lone surrogate"),
            ("[1]", "expected '{'"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?}: got {err:?}");
        }
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let r = parse_request(r#"{"id":"ému A\t","op":"ping"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("ému A\t"));
        let r = parse_request(r#"{"id":"\ud83d\ude00","op":"ping"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("😀"));
    }

    #[test]
    fn responses_are_valid_single_line_json() {
        let all = [
            route_ok(Some("r1"), "cold", 3, 0, 1, "a: 1 cycles\nb: FAILED\n"),
            busy(
                Some("r2"),
                "too many requests in flight (limit 4)",
                Some(25),
            ),
            busy(Some("r3"), "scenario has 9 nets, limit 4", None),
            error(None, "line 3: unknown directive `blok`"),
            malformed("expected '{' at byte 0"),
            pong(Some("p")),
            stats(
                Some("s"),
                &[("service.hits".to_owned(), 3)],
                &[("service.cache.len".to_owned(), 2)],
            ),
            bye(None),
        ];
        for response in &all {
            assert!(!response.contains('\n'), "multiline: {response}");
            validate_json(response).unwrap_or_else(|e| panic!("{response}: {e}"));
        }
        let transcript = all.join("\n");
        validate_jsonl(&transcript).unwrap();
    }

    #[test]
    fn raw_route_reads_only_plain_route_envelopes() {
        let lit = r#""die 1mm 1mm\ngrid 4 4\n""#;
        for (line, id) in [
            (
                format!(r#"{{"id":"r1","op":"route","scenario":{lit}}}"#),
                Some("r1"),
            ),
            (
                format!(r#" {{ "scenario" : {lit} , "op":"route" }} "#),
                None,
            ),
            (
                format!(r#"{{"id":null,"op":"route","scenario":{lit}}}"#),
                None,
            ),
            (
                format!(r#"{{"id":"\u00e9","\u006fp":"route","scenario":{lit}}}"#),
                Some("é"),
            ),
        ] {
            let raw = raw_route(&line).unwrap_or_else(|| panic!("{line}"));
            assert_eq!(
                raw,
                RawRoute {
                    id: id.map(str::to_owned),
                    literal: lit
                }
            );
            let Ok(Request {
                id: parsed_id,
                op: Op::Route { scenario },
            }) = parse_request(&line)
            else {
                panic!("{line}");
            };
            assert_eq!(
                (parsed_id.as_deref(), scenario.as_str()),
                (id, "die 1mm 1mm\ngrid 4 4\n")
            );
        }
        for line in [
            format!(r#"{{"op":"ping","scenario":{lit}}}"#),
            format!(r#"{{"op":"route","scenario":{lit},"extra":1}}"#),
            format!(r#"{{"id":7,"op":"route","scenario":{lit}}}"#),
            format!(r#"{{"id":["a"],"op":"route","scenario":{lit}}}"#),
            format!(r#"{{"op":"route","scenario":{lit},"scenario":{lit}}}"#),
            format!(r#"{{"id":"a","id":"a","op":"route","scenario":{lit}}}"#),
            format!(r#"{{"op":"route","scenario":{lit}}}x"#),
            format!(r#"{{"op":"route","scenario":{lit}"#),
            r#"{"op":"route","scenario":7}"#.to_owned(),
            r#"{"op":"route"}"#.to_owned(),
        ] {
            assert_eq!(raw_route(&line), None, "{line}");
        }
    }

    #[test]
    fn spliced_ok_matches_one_format_call() {
        for report in ["", "a: 1 cycles\nb: FAILED\n", "q\"\\\u{1}é"] {
            for id in [None, Some("r\"1")] {
                let reference = format!(
                    "{{\"id\":{},\"status\":\"ok\",\"cache\":\"hit\",\"routed\":3,\"failed\":1,\"degraded\":2,\"report\":{}}}",
                    id_field(id),
                    json_string(report),
                );
                let spliced = route_ok_spliced(id, "hit", 3, 1, 2, &json_string(report));
                assert_eq!(spliced, reference);
                assert_eq!(spliced.len(), spliced.capacity(), "one exact buffer");
                assert_eq!(route_ok(id, "hit", 3, 1, 2, report), reference);
            }
        }
    }

    #[test]
    fn responses_echo_ids_or_null() {
        assert!(route_ok(None, "hit", 1, 0, 0, "x\n").starts_with("{\"id\":null,"));
        assert!(pong(Some("a\"b")).starts_with("{\"id\":\"a\\\"b\","));
    }

    #[test]
    fn busy_carries_the_hint_only_for_transient_rejections() {
        let transient = busy(
            Some("t"),
            "too many requests in flight (limit 2)",
            Some(300),
        );
        assert!(
            transient.ends_with("\"retry_after_ms\":300}"),
            "{transient}"
        );
        let permanent = busy(Some("p"), "scenario has 9 nets, limit 4", None);
        assert!(!permanent.contains("retry_after_ms"), "{permanent}");
    }
}
