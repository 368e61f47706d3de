//! Tag encodings for the kernel-resident minimization memo.
//!
//! The manager's memo table (`bddmin_bdd::Bdd::memo_get` /
//! `memo_insert`) keys entries by `(tag, a, b)`, where the 64-bit `tag`
//! is chosen by the caller. Tags are compared for equality, so the only
//! requirement is that the encoding be **injective**: two recursions whose
//! results could differ must never share a tag.
//!
//! Layout used by this crate (bits 61..=63 hold the operation class, so
//! classes can never collide):
//!
//! * sibling matcher (`generic_td`): class 1, `SiblingConfig` in bits
//!   0..=3, no salt — sibling results are pure in `(f, c, config)`, so
//!   cross-invocation reuse is sound.
//! * windowed pass (`windowed_sibling_pass`): class 2, config in bits
//!   56..=59, window `top` in bits 28..=55 and `bottom` in bits 0..=27
//!   (both must fit 28 bits — far beyond any realistic variable count).
//!
//!   Both run the one sibling recursion (`sibling::sibling_rec`), but they
//!   store different results: `generic_td` a cover `(g, g)`, the pass a
//!   rewritten ISF `(f', c')`. A full-window pass therefore keeps class 2
//!   rather than sharing class 1's entries.
//! * below-level substitution (`substitute_below_level`): class 3, salt in
//!   bits 0..=31. Always salted: the result depends on the invocation's
//!   substitution map, which is not part of the `(f, c)` key.

use crate::matching::MatchCriterion;
use crate::sibling::SiblingConfig;
use crate::windowed::LevelWindow;

const CLASS_SIBLING: u64 = 1 << 61;
const CLASS_WINDOW: u64 = 2 << 61;
const CLASS_SUBST: u64 = 3 << 61;

/// `SiblingConfig` packed into 4 bits (criterion 0..=2, then the flags).
fn config_bits(config: SiblingConfig) -> u64 {
    let crit = match config.criterion {
        MatchCriterion::Osdm => 0u64,
        MatchCriterion::Osm => 1,
        MatchCriterion::Tsm => 2,
    };
    crit | ((config.match_complement as u64) << 2) | ((config.no_new_vars as u64) << 3)
}

/// Tag for the generic top-down sibling matcher, shared across
/// invocations with the same config.
pub(crate) fn sibling_tag(config: SiblingConfig) -> u64 {
    CLASS_SIBLING | config_bits(config)
}

/// Tag for a windowed sibling pass: results depend on the window bounds,
/// so they are part of the key.
pub(crate) fn window_tag(config: SiblingConfig, window: LevelWindow) -> u64 {
    debug_assert!(window.top.0 < (1 << 28), "window top overflows tag");
    debug_assert!(window.bottom.0 < (1 << 28), "window bottom overflows tag");
    CLASS_WINDOW
        | (config_bits(config) << 56)
        | ((window.top.0 as u64) << 28)
        | window.bottom.0 as u64
}

/// Tag for one below-level substitution invocation; always freshly salted
/// because the substitution map is call-local state.
pub(crate) fn subst_tag(salt: u32) -> u64 {
    CLASS_SUBST | salt as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sibling::all_configs;
    use bddmin_bdd::Var;

    #[test]
    fn tags_are_injective_across_classes_configs_and_windows() {
        let mut tags = Vec::new();
        for cfg in all_configs() {
            tags.push(sibling_tag(cfg));
            for (t, b) in [(0u32, 0u32), (0, 3), (1, 3), (2, 7)] {
                tags.push(window_tag(cfg, LevelWindow::new(Var(t), Var(b))));
            }
        }
        tags.push(subst_tag(0));
        tags.push(subst_tag(1));
        let mut dedup = tags.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tags.len(), "tag collision");
    }
}
