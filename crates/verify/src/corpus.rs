//! The committed regression corpus.
//!
//! Every shrunk reproducer is serialized in the paper's `(d1 01)`
//! leaf-spec notation plus the oracle it tripped and the chaos plan it
//! needs, and appended to `tests/corpus/` at the repository root. The
//! `corpus_replay` tier-1 test parses every file in that directory and
//! re-runs **all nine** oracles on each instance forever — a corpus entry
//! records a bug that once existed, so after the fix it must pass
//! everything, and any future regression that resurrects the bug fails
//! the replay immediately.
//!
//! Format (line-oriented, `#` starts a comment):
//!
//! ```text
//! # bddmin-verify reproducer — replayed forever by tests/corpus_replay.rs
//! # provenance: seed 3, iteration 17, shrunk 9 -> 5 in 4 steps
//! oracle: cover
//! spec: (d1 01)
//! chaos: flush=0 gc=0
//! ```
//!
//! Parsing is strict: unknown keys, malformed specs, duplicate or
//! missing required keys are hard errors. The replay test fails loudly
//! on an unparsable entry instead of skipping it — a corpus file that
//! silently stops parsing is a regression test that silently stopped
//! running.

use bddmin_bdd::LeafSpec;

use crate::gen::{ChaosPlan, Instance};
use crate::oracle::Oracle;

/// A parsed corpus entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The reproducer instance.
    pub instance: Instance,
    /// The oracle the instance originally tripped.
    pub oracle: Oracle,
}

/// Error from [`parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusError {
    message: String,
}

impl CorpusError {
    fn new(message: impl Into<String>) -> CorpusError {
        CorpusError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CorpusError {}

/// Serializes a reproducer. `provenance` is a free-form note (seed,
/// iteration, shrink stats) stored as a comment.
pub fn serialize(inst: &Instance, oracle: Oracle, provenance: &str) -> String {
    let mut out = String::new();
    out.push_str("# bddmin-verify reproducer — replayed forever by tests/corpus_replay.rs\n");
    if !provenance.is_empty() {
        out.push_str(&format!("# provenance: {provenance}\n"));
    }
    out.push_str(&format!("# oracle basis: {}\n", oracle.paper_basis()));
    out.push_str(&format!("oracle: {oracle}\n"));
    out.push_str(&format!("spec: {}\n", inst.spec_string()));
    out.push_str(&format!(
        "chaos: flush={} gc={}",
        u8::from(inst.chaos.flush_between),
        u8::from(inst.chaos.gc_between)
    ));
    // Budget/reorder fields are emitted only when armed, so
    // entries from before each oracle existed stay byte-identical.
    if let Some(steps) = inst.chaos.step_budget {
        out.push_str(&format!(" steps={steps}"));
    }
    if let Some(nodes) = inst.chaos.node_budget {
        out.push_str(&format!(" nodes={nodes}"));
    }
    if inst.chaos.reorder_between {
        out.push_str(" reorder=1");
    }
    out.push('\n');
    out
}

/// Parses a corpus entry.
///
/// # Errors
///
/// Returns [`CorpusError`] on unknown keys, duplicate keys, malformed
/// values, or a missing `oracle`/`spec` line.
pub fn parse(text: &str) -> Result<CorpusEntry, CorpusError> {
    let mut oracle: Option<Oracle> = None;
    let mut leaves: Option<Vec<Option<bool>>> = None;
    let mut chaos: Option<ChaosPlan> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(':').ok_or_else(|| {
            CorpusError::new(format!("line {}: expected `key: value`", lineno + 1))
        })?;
        let value = value.trim();
        match key.trim() {
            "oracle" => {
                if oracle.is_some() {
                    return Err(CorpusError::new("duplicate `oracle` line"));
                }
                oracle = Some(
                    value
                        .parse()
                        .map_err(|e| CorpusError::new(format!("{e}")))?,
                );
            }
            "spec" => {
                if leaves.is_some() {
                    return Err(CorpusError::new("duplicate `spec` line"));
                }
                let spec = LeafSpec::parse(value)
                    .map_err(|e| CorpusError::new(format!("bad spec: {e}")))?;
                leaves = Some(spec.leaves());
            }
            "chaos" => {
                if chaos.is_some() {
                    return Err(CorpusError::new("duplicate `chaos` line"));
                }
                chaos = Some(parse_chaos(value)?);
            }
            other => {
                return Err(CorpusError::new(format!(
                    "line {}: unknown key {other:?}",
                    lineno + 1
                )));
            }
        }
    }
    let oracle = oracle.ok_or_else(|| CorpusError::new("missing `oracle` line"))?;
    let leaves = leaves.ok_or_else(|| CorpusError::new("missing `spec` line"))?;
    Ok(CorpusEntry {
        instance: Instance::new(leaves, chaos.unwrap_or(ChaosPlan::NONE)),
        oracle,
    })
}

fn parse_chaos(value: &str) -> Result<ChaosPlan, CorpusError> {
    let mut plan = ChaosPlan::NONE;
    for part in value.split_whitespace() {
        let (key, v) = part
            .split_once('=')
            .ok_or_else(|| CorpusError::new(format!("bad chaos field {part:?}")))?;
        let flag = || match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(CorpusError::new(format!(
                "bad chaos value {v:?} (want 0/1)"
            ))),
        };
        match key {
            "flush" => plan.flush_between = flag()?,
            "gc" => plan.gc_between = flag()?,
            "steps" => {
                plan.step_budget =
                    Some(v.parse().map_err(|e| {
                        CorpusError::new(format!("bad chaos steps value {v:?}: {e}"))
                    })?);
            }
            "nodes" => {
                plan.node_budget =
                    Some(v.parse().map_err(|e| {
                        CorpusError::new(format!("bad chaos nodes value {v:?}: {e}"))
                    })?);
            }
            "reorder" => plan.reorder_between = flag()?,
            _ => return Err(CorpusError::new(format!("unknown chaos field {key:?}"))),
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_instance;
    use bddmin_core::rng::XorShift64;

    #[test]
    fn round_trip() {
        let mut rng = XorShift64::seed_from_u64(1);
        for round in 0..40 {
            let inst = random_instance(&mut rng, round);
            for oracle in Oracle::ALL {
                let text = serialize(&inst, oracle, "seed 1, round x");
                let entry = parse(&text).unwrap();
                assert_eq!(entry.instance, inst);
                assert_eq!(entry.oracle, oracle);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        // Missing oracle.
        assert!(parse("spec: (d1 01)\n").is_err());
        // Missing spec.
        assert!(parse("oracle: cover\n").is_err());
        // Unknown oracle.
        assert!(parse("oracle: bogus\nspec: (d1 01)\n").is_err());
        // Bad spec characters and bad length.
        assert!(parse("oracle: cover\nspec: (dx 01)\n").is_err());
        assert!(parse("oracle: cover\nspec: (d1 0)\n").is_err());
        // Unknown key.
        assert!(parse("oracle: cover\nspec: (d1 01)\nwat: 1\n").is_err());
        // Duplicate key.
        assert!(parse("oracle: cover\noracle: cover\nspec: (d1 01)\n").is_err());
        // Bad chaos syntax.
        assert!(parse("oracle: cover\nspec: (d1 01)\nchaos: flush=2\n").is_err());
        assert!(parse("oracle: cover\nspec: (d1 01)\nchaos: spin=1\n").is_err());
        // Line without a colon.
        assert!(parse("oracle cover\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a comment\noracle: agreement\n\nspec: (1d d1 d0 0d)\n# tail\n";
        let entry = parse(text).unwrap();
        assert_eq!(entry.oracle, Oracle::Agreement);
        assert_eq!(entry.instance.num_vars(), 3);
        assert_eq!(entry.instance.chaos, ChaosPlan::NONE);
    }

    #[test]
    fn chaos_defaults_to_none_and_parses_flags() {
        let entry = parse("oracle: invariance\nspec: (d1 01)\nchaos: flush=1 gc=1\n").unwrap();
        assert!(entry.instance.chaos.flush_between);
        assert!(entry.instance.chaos.gc_between);
        assert_eq!(entry.instance.chaos.step_budget, None);
        assert_eq!(entry.instance.chaos.node_budget, None);
        let entry = parse("oracle: invariance\nspec: (d1 01)\n").unwrap();
        assert_eq!(entry.instance.chaos, ChaosPlan::NONE);
    }

    #[test]
    fn chaos_reorder_field_round_trips_and_chain_is_rejected() {
        let entry = parse("oracle: cover\nspec: (d1 01)\nchaos: flush=0 gc=0 reorder=1\n").unwrap();
        assert!(entry.instance.chaos.reorder_between);
        let text = serialize(&entry.instance, entry.oracle, "");
        assert!(text.contains("chaos: flush=0 gc=0 reorder=1\n"));
        assert_eq!(parse(&text).unwrap(), entry);
        // Unarmed plans never emit the field (old entries stable).
        let plain = Instance::new(vec![None, Some(true)], ChaosPlan::NONE);
        let text = serialize(&plain, Oracle::Cover, "");
        assert!(!text.contains("reorder="));
        // Garbage values are hard errors.
        assert!(parse("oracle: cover\nspec: (d1 01)\nchaos: reorder=2\n").is_err());
        // Chain-reduced managers are retired: an old entry's `chain=` is
        // an error that names the field.
        let err = parse("oracle: cover\nspec: (d1 01)\nchaos: flush=0 gc=0 chain=1\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("\"chain\""), "{err}");
    }

    #[test]
    fn chaos_budget_fields_round_trip_and_reject_garbage() {
        let entry =
            parse("oracle: budget\nspec: (d1 01)\nchaos: flush=0 gc=0 steps=7 nodes=32\n").unwrap();
        assert_eq!(entry.oracle, Oracle::Budget);
        assert_eq!(entry.instance.chaos.step_budget, Some(7));
        assert_eq!(entry.instance.chaos.node_budget, Some(32));
        // Serialization omits unarmed budgets (old entries stay stable)
        // and re-emits armed ones.
        let text = serialize(&entry.instance, entry.oracle, "");
        assert!(text.contains("chaos: flush=0 gc=0 steps=7 nodes=32"));
        assert_eq!(parse(&text).unwrap(), entry);
        let plain = Instance::new(
            vec![None, Some(true), Some(false), Some(true)],
            ChaosPlan::NONE,
        );
        assert!(serialize(&plain, Oracle::Budget, "").contains("chaos: flush=0 gc=0\n"));
        // Garbage budget values are hard errors.
        assert!(parse("oracle: budget\nspec: (d1 01)\nchaos: steps=abc\n").is_err());
        assert!(parse("oracle: budget\nspec: (d1 01)\nchaos: nodes=-1\n").is_err());
    }
}
