//! The feedback scheduler: a coverage-proxy multi-armed bandit.
//!
//! The structured fuzz loop has seven generator arms (classic sweep,
//! dense sweep, corpus mutation, corpus splicing, BLIF, expression,
//! CLI-args). With a fixed rotation, arms that mostly produce instances
//! the oracles *skip* (precondition unmet) or shapes the run has already
//! visited burn budget without adding coverage. Real coverage feedback
//! would need compiler instrumentation; offline and hermetic, the next
//! best signal is a **coverage proxy**:
//!
//! * *oracle reachability* — the fraction of oracle invocations this
//!   play that did not skip (for surface arms: whether the input got
//!   past the parser at all), and
//! * *shape novelty* — whether the play produced a structural shape
//!   (variable count, density bucket, chaos axes, netlist profile, …)
//!   the run has not seen before.
//!
//! Each play's reward is the mean of the two, and a deterministic UCB1
//! bandit steers the arm choice: unplayed arms first (lowest index),
//! then the arm maximizing `mean + c·sqrt(ln(total)/plays)`, ties
//! broken by index. Determinism matters more than regret here — the
//! same `(seed, history)` must always pick the same arm so every run is
//! replayable — hence no randomized tie-breaking.

use std::fmt;

/// One generator arm of the structured fuzz loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArmKind {
    /// The classic leaf-table sweep ([`crate::gen::random_instance`]).
    Classic,
    /// Dense high-arity instances ([`crate::structured::dense_instance`]).
    Dense,
    /// Mutations of committed corpus reproducers.
    CorpusMutate,
    /// Splices of two committed corpus reproducers.
    CorpusSplice,
    /// Structured BLIF netlists through the fsm parser.
    Blif,
    /// Expression strings through `Bdd::from_expr`.
    Expr,
    /// CLI argument vectors through the in-process entry point.
    Args,
}

impl ArmKind {
    /// All arms, in scheduler index order.
    pub const ALL: [ArmKind; 7] = [
        ArmKind::Classic,
        ArmKind::Dense,
        ArmKind::CorpusMutate,
        ArmKind::CorpusSplice,
        ArmKind::Blif,
        ArmKind::Expr,
        ArmKind::Args,
    ];

    /// Stable name (CLI `--arm` values and report keys).
    pub fn name(self) -> &'static str {
        match self {
            ArmKind::Classic => "classic",
            ArmKind::Dense => "dense",
            ArmKind::CorpusMutate => "corpus-mutate",
            ArmKind::CorpusSplice => "corpus-splice",
            ArmKind::Blif => "blif",
            ArmKind::Expr => "expr",
            ArmKind::Args => "args",
        }
    }

    /// True for arms whose plays are leaf-table instances run through
    /// the ten oracles (these count toward the report's `instances`).
    pub fn is_instance_arm(self) -> bool {
        matches!(
            self,
            ArmKind::Classic | ArmKind::Dense | ArmKind::CorpusMutate | ArmKind::CorpusSplice
        )
    }
}

impl fmt::Display for ArmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ArmKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ArmKind, String> {
        ArmKind::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = ArmKind::ALL.iter().map(|a| a.name()).collect();
                format!("unknown arm {s:?} (known: {})", names.join(", "))
            })
    }
}

/// Per-arm bandit state.
#[derive(Clone, Copy, Debug, Default)]
struct ArmState {
    plays: u64,
    total_reward: f64,
}

/// Deterministic UCB1 bandit over generator arms.
#[derive(Clone, Debug)]
pub struct Bandit {
    arms: Vec<ArmState>,
    total_plays: u64,
    exploration: f64,
}

impl Bandit {
    /// A bandit over `num_arms` arms with the standard UCB1 exploration
    /// constant `sqrt(2)`.
    pub fn new(num_arms: usize) -> Bandit {
        assert!(num_arms > 0, "bandit needs at least one arm");
        Bandit {
            arms: vec![ArmState::default(); num_arms],
            total_plays: 0,
            exploration: std::f64::consts::SQRT_2,
        }
    }

    /// Picks the next arm: unplayed arms first (lowest index), then the
    /// highest upper confidence bound, ties broken by lowest index.
    pub fn select(&self) -> usize {
        if let Some(idx) = self.arms.iter().position(|a| a.plays == 0) {
            return idx;
        }
        let ln_total = (self.total_plays as f64).ln();
        let mut best = 0;
        let mut best_ucb = f64::NEG_INFINITY;
        for (idx, arm) in self.arms.iter().enumerate() {
            let mean = arm.total_reward / arm.plays as f64;
            let ucb = mean + self.exploration * (ln_total / arm.plays as f64).sqrt();
            // Strict `>` keeps the lowest index on ties.
            if ucb > best_ucb {
                best_ucb = ucb;
                best = idx;
            }
        }
        best
    }

    /// Records one play of `arm` with `reward` (clamped to `[0, 1]`).
    pub fn update(&mut self, arm: usize, reward: f64) {
        let reward = reward.clamp(0.0, 1.0);
        self.arms[arm].plays += 1;
        self.arms[arm].total_reward += reward;
        self.total_plays += 1;
    }

    /// Plays recorded for `arm` so far.
    pub fn plays(&self, arm: usize) -> u64 {
        self.arms[arm].plays
    }

    /// Mean reward of `arm` (0 when unplayed).
    pub fn mean_reward(&self, arm: usize) -> f64 {
        let a = &self.arms[arm];
        if a.plays == 0 {
            0.0
        } else {
            a.total_reward / a.plays as f64
        }
    }
}

/// The set of structural shapes seen this run, for the novelty half of
/// the reward. Shapes are caller-computed [`shape_hash`] values.
#[derive(Clone, Debug, Default)]
pub struct ShapeSet {
    seen: std::collections::HashSet<u64>,
}

impl ShapeSet {
    /// An empty shape set.
    pub fn new() -> ShapeSet {
        ShapeSet::default()
    }

    /// Records a shape; returns `true` when it was novel.
    pub fn observe(&mut self, shape: u64) -> bool {
        self.seen.insert(shape)
    }

    /// Distinct shapes seen so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// Deterministic FNV-1a fold of shape features. The std hasher's
/// `RandomState` would break run-to-run replayability; this never can.
pub fn shape_hash(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in parts {
        for byte in p.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplayed_arms_go_first_in_index_order() {
        let mut b = Bandit::new(3);
        assert_eq!(b.select(), 0);
        b.update(0, 1.0);
        assert_eq!(b.select(), 1);
        b.update(1, 0.0);
        assert_eq!(b.select(), 2);
    }

    #[test]
    fn bandit_prefers_the_rewarding_arm() {
        let mut b = Bandit::new(2);
        // Warm both arms, then feed arm 1 consistently higher rewards.
        b.update(0, 0.1);
        b.update(1, 0.9);
        let mut plays = [0u64; 2];
        for _ in 0..200 {
            let a = b.select();
            plays[a] += 1;
            b.update(a, if a == 1 { 0.9 } else { 0.1 });
        }
        assert!(
            plays[1] > plays[0] * 3,
            "UCB1 should exploit the better arm: {plays:?}"
        );
        // The worse arm is still explored occasionally.
        assert!(plays[0] > 0, "UCB1 must never starve an arm");
    }

    #[test]
    fn selection_is_deterministic() {
        let run = || {
            let mut b = Bandit::new(4);
            let mut picks = Vec::new();
            for i in 0..50u64 {
                let a = b.select();
                picks.push(a);
                // A fixed reward schedule; no randomness anywhere.
                b.update(a, (i % 3) as f64 / 2.0);
            }
            picks
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rewards_are_clamped() {
        let mut b = Bandit::new(1);
        b.update(0, 7.5);
        b.update(0, -3.0);
        assert!(b.mean_reward(0) <= 1.0);
        assert!(b.mean_reward(0) >= 0.0);
    }

    #[test]
    fn shape_set_reports_novelty_once() {
        let mut s = ShapeSet::new();
        let h = shape_hash(&[3, 1, 4]);
        assert!(s.observe(h));
        assert!(!s.observe(h));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn shape_hash_separates_nearby_shapes() {
        assert_ne!(shape_hash(&[1, 2]), shape_hash(&[2, 1]));
        assert_ne!(shape_hash(&[0]), shape_hash(&[0, 0]));
    }

    #[test]
    fn arm_names_round_trip() {
        for arm in ArmKind::ALL {
            assert_eq!(arm.name().parse::<ArmKind>().unwrap(), arm);
        }
        assert!("bogus".parse::<ArmKind>().is_err());
    }
}
