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
//! valid JSON.

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
    let id = match fields.remove("id") {
        None | Some(JsonValue::Null) => None,
        Some(JsonValue::Str(s)) => Some(s),
        Some(_) => return Err("`id` must be a string or null".to_owned()),
    };
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
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"cache\":{},\"routed\":{routed},\"failed\":{failed},\"degraded\":{degraded},\"report\":{}}}",
        id_field(id),
        json_string(cache),
        json_string(report),
    )
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
