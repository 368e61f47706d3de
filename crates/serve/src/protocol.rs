//! The JSON-lines job/result protocol.
//!
//! One request per input line, one result per output line, in input
//! order. A job is a JSON object with these keys (unknown keys are
//! rejected so typos cannot silently change meaning):
//!
//! | key             | type      | meaning                                         |
//! |-----------------|-----------|-------------------------------------------------|
//! | `id`            | string    | optional client tag, echoed back                |
//! | `spec`          | string    | leaf-spec ISF instance (`"d1 01 1d 01"`)        |
//! | `blif`          | string    | BLIF network to ODC-simplify                    |
//! | `heuristic`     | string    | filter (cli grammar; default `all`, blif `osm_bt`) |
//! | `step_limit`    | integer   | deterministic per-run step budget               |
//! | `node_limit`    | integer   | live-node ceiling per run                       |
//! | `time_limit_ms` | integer   | wall-clock budget (nondeterministic)            |
//! | `var_map`       | int array | spec only: source var `i` → target var `map[i]` |
//!
//! Exactly one of `spec`/`blif` must be present. The heuristic filter is
//! parsed by [`HeuristicFilter::parse`] — the same function the cli
//! uses — so the two front ends accept and reject identical strings.
//!
//! A result line always starts `{"index":N,...,"status":...` and is a
//! pure function of the input line and its position; see
//! [`render_result`] for the exact field order.

use bddmin_bdd::{LeafSpec, ParseLeafSpecError};
use bddmin_cli::HeuristicFilter;
use bddmin_core::{BudgetLimits, Heuristic};

use crate::json;

/// Hard ceiling on leaf-spec variables per request: the dispatcher keys
/// its cache on specs built in one shared manager, so a request may not
/// force that manager beyond 2^16-leaf specs.
pub const SERVE_MAX_VARS: usize = 16;

/// The work payload of a parsed job.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Minimize one leaf-spec ISF.
    Spec {
        /// The parsed specification.
        spec: LeafSpec,
        /// Optional variable renaming applied through
        /// [`bddmin_bdd::Bdd::try_transfer`] before minimizing; a bad
        /// map is a structured per-job error, never a panic.
        var_map: Option<Vec<u32>>,
    },
    /// ODC-simplify a BLIF network (parse-validated at dispatch).
    Blif {
        /// The BLIF source text.
        source: String,
    },
}

/// One validated request.
#[derive(Clone, Debug)]
pub struct Job {
    /// Client tag, echoed into the result line.
    pub id: Option<String>,
    /// What to do.
    pub kind: JobKind,
    /// Heuristics to run (spec) or the single simplification hook (blif).
    pub filter: HeuristicFilter,
    /// Per-request resource budget; unarmed means run to completion.
    pub budget: BudgetLimits,
}

/// Parses and validates one job line. The error string is ready for a
/// `status:"error"` result line.
pub fn parse_job(line: &str) -> Result<Job, String> {
    let value = json::parse(line).map_err(|e| format!("malformed job: {e}"))?;
    let members = value
        .members()
        .ok_or_else(|| "malformed job: line is not a JSON object".to_owned())?;
    const KNOWN: [&str; 8] = [
        "id",
        "spec",
        "blif",
        "heuristic",
        "step_limit",
        "node_limit",
        "time_limit_ms",
        "var_map",
    ];
    for (key, _) in members {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!(
                "unknown job key {key:?} (known: {})",
                KNOWN.join(" ")
            ));
        }
    }
    let str_field = |key: &str| -> Result<Option<String>, String> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_owned()))
                .ok_or_else(|| format!("job key {key:?} must be a string")),
        }
    };
    let int_field = |key: &str| -> Result<Option<u64>, String> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("job key {key:?} must be a non-negative integer")),
        }
    };
    let id = str_field("id")?;
    let spec_text = str_field("spec")?;
    let blif_text = str_field("blif")?;
    let heuristic = str_field("heuristic")?;
    let budget = BudgetLimits {
        step_limit: int_field("step_limit")?,
        node_limit: int_field("node_limit")?.map(|n| n as usize),
        time_limit_ms: int_field("time_limit_ms")?,
    };
    let kind = match (spec_text, blif_text) {
        (Some(_), Some(_)) => {
            return Err("job carries both \"spec\" and \"blif\"; pick one".to_owned())
        }
        (None, None) => return Err("job carries neither \"spec\" nor \"blif\"".to_owned()),
        (Some(spec_text), None) => {
            let spec = LeafSpec::parse(&spec_text)
                .map_err(|e: ParseLeafSpecError| format!("bad spec: {e}"))?;
            if spec.num_vars() > SERVE_MAX_VARS {
                return Err(format!(
                    "spec has {} variables; this service caps requests at {SERVE_MAX_VARS}",
                    spec.num_vars()
                ));
            }
            let var_map = match value.get("var_map") {
                None => None,
                Some(v) => {
                    let items = v
                        .as_array()
                        .ok_or_else(|| "job key \"var_map\" must be an array".to_owned())?;
                    let map: Vec<u32> = items
                        .iter()
                        .map(|item| {
                            item.as_u64()
                                .filter(|&n| n <= u32::MAX as u64)
                                .map(|n| n as u32)
                                .ok_or_else(|| {
                                    "var_map entries must be non-negative integers".to_owned()
                                })
                        })
                        .collect::<Result<_, _>>()?;
                    if map.len() != spec.num_vars() {
                        return Err(format!(
                            "var_map has {} entries but the spec has {} variables",
                            map.len(),
                            spec.num_vars()
                        ));
                    }
                    Some(map)
                }
            };
            JobKind::Spec { spec, var_map }
        }
        (None, Some(source)) => {
            if value.get("var_map").is_some() {
                return Err("var_map only applies to spec jobs".to_owned());
            }
            // Validate the parse at dispatch so syntax errors surface
            // with the job, not from inside a worker.
            bddmin_fsm::parse_blif(&source).map_err(|e| format!("bad blif: {e}"))?;
            JobKind::Blif { source }
        }
    };
    // The serve default mirrors the cli: spec jobs run the whole
    // registry, blif jobs run the cli `simplify` default. A blif job
    // drives a single traversal hook, so its filter must select exactly
    // one heuristic, same as `bddmin simplify`.
    let filter = match heuristic {
        Some(raw) => HeuristicFilter::parse(&raw).map_err(|e| e.0)?,
        None => match kind {
            JobKind::Spec { .. } => {
                HeuristicFilter::parse("all").expect("the all filter always parses")
            }
            JobKind::Blif { .. } => HeuristicFilter::single(Heuristic::OsmBt),
        },
    };
    if matches!(kind, JobKind::Blif { .. }) && filter.selected.len() != 1 {
        return Err(format!(
            "blif jobs take exactly one heuristic, filter {:?} selected {}",
            filter.raw,
            filter.selected.len()
        ));
    }
    Ok(Job {
        id,
        kind,
        filter,
        budget,
    })
}

/// Cache provenance of a result, reported verbatim in the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLabel {
    /// Served by running the job; the result seeded the cache.
    Miss,
    /// Served from the result cache: an earlier job made the same exact
    /// request.
    Hit,
    /// Not cacheable (blif jobs, malformed jobs).
    Bypass,
}

impl CacheLabel {
    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            CacheLabel::Miss => "miss",
            CacheLabel::Hit => "hit",
            CacheLabel::Bypass => "bypass",
        }
    }
}

/// Renders one result line (without the trailing newline).
///
/// Field order is fixed — `index`, optional `id`, `status`, `cache`,
/// optional `shard`, then the body — so equal results are byte-equal.
/// `shard` is emitted only when the caller opts in (`--emit-shard`):
/// shard assignment depends on the shard count, so including it would
/// break the byte-identical-across-shard-counts contract.
pub fn render_result(
    index: usize,
    id: Option<&str>,
    ok: bool,
    cache: CacheLabel,
    shard: Option<usize>,
    body: &str,
) -> String {
    use std::fmt::Write as _;
    let mut line = format!("{{\"index\":{index}");
    if let Some(id) = id {
        let _ = write!(line, ",\"id\":\"{}\"", json::escape(id));
    }
    let _ = write!(
        line,
        ",\"status\":\"{}\",\"cache\":\"{}\"",
        if ok { "ok" } else { "error" },
        cache.name()
    );
    if let Some(shard) = shard {
        let _ = write!(line, ",\"shard\":{shard}");
    }
    if !body.is_empty() {
        let _ = write!(line, ",{body}");
    }
    line.push('}');
    line
}

/// The body of an error result: one `error` member.
pub fn error_body(message: &str) -> String {
    format!("\"error\":\"{}\"", json::escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_spec_job() {
        let job = parse_job(r#"{"id":"a","spec":"d1 01","step_limit":7}"#).unwrap();
        assert_eq!(job.id.as_deref(), Some("a"));
        assert_eq!(job.budget.step_limit, Some(7));
        assert!(job.budget.armed());
        match &job.kind {
            JobKind::Spec { spec, var_map } => {
                assert_eq!(spec.num_vars(), 2);
                assert!(var_map.is_none());
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(
            job.filter.selected.len(),
            13,
            "default is the full registry"
        );
    }

    #[test]
    fn rejects_bad_jobs_with_named_causes() {
        for (line, needle) in [
            ("", "malformed job"),
            ("[1]", "not a JSON object"),
            (r#"{"spec":"d1 01","blif":".model m\n.end"}"#, "pick one"),
            (r#"{"id":"x"}"#, "neither"),
            (r#"{"spec":"dx 01"}"#, "bad spec"),
            (r#"{"spec":"d1 01","frobnicate":1}"#, "unknown job key"),
            (
                r#"{"spec":"d1 01","step_limit":-3}"#,
                "non-negative integer",
            ),
            (r#"{"spec":"d1 01","var_map":[0,1,2]}"#, "2 variables"),
            (
                r#"{"spec":"d1 01","var_map":["a"]}"#,
                "non-negative integers",
            ),
            (r#"{"blif":"not blif"}"#, "bad blif"),
            (
                r#"{"blif":".model m\n.end","var_map":[0]}"#,
                "only applies to spec",
            ),
            (
                r#"{"spec":"d1 01","heuristic":"osm_td,,tsm_td"}"#,
                "empty segment at position 2",
            ),
            (
                r#"{"spec":"d1 01","heuristic":"nope"}"#,
                "unknown heuristic",
            ),
        ] {
            let err = parse_job(line).unwrap_err();
            assert!(
                err.contains(needle),
                "{line:?}: wanted {needle:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn blif_jobs_default_to_one_heuristic_and_reject_filters() {
        let job = parse_job(r#"{"blif":".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end"}"#)
            .unwrap();
        match job.kind {
            JobKind::Blif { .. } => {}
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(job.filter.selected, vec![Heuristic::OsmBt]);
        let err = parse_job(
            r#"{"blif":".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end","heuristic":"osm_*"}"#,
        )
        .unwrap_err();
        assert!(err.contains("exactly one heuristic"), "{err}");
    }

    #[test]
    fn result_lines_have_a_fixed_shape() {
        assert_eq!(
            render_result(3, Some("j\"3"), true, CacheLabel::Hit, None, "\"x\":1"),
            r#"{"index":3,"id":"j\"3","status":"ok","cache":"hit","x":1}"#
        );
        assert_eq!(
            render_result(
                0,
                None,
                false,
                CacheLabel::Bypass,
                Some(2),
                &error_body("boom")
            ),
            r#"{"index":0,"status":"error","cache":"bypass","shard":2,"error":"boom"}"#
        );
    }
}
