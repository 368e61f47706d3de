//! The explicit-state checker is the reference `equiv_check` is judged
//! against, so it must agree with the symbolic checker where both are
//! trusted: the suite machines against themselves and a flipped copy.

use bddmin_fsm::{generators, verify_fsm_equivalence_with, with_flipped_latch, ImageMethod};
use bddmin_perfbench::explicit::check_equivalence;

#[test]
fn explicit_checker_agrees_with_verify_on_the_30_suite_pairs() {
    let mut inequivalent = 0;
    for bench in generators::benchmark_suite() {
        let c = &bench.circuit;
        let flipped = with_flipped_latch(c, c.num_latches() / 2);
        for (kind, b) in [("self", c), ("flip", &flipped)] {
            let symbolic = verify_fsm_equivalence_with(c, b, None, ImageMethod::Mono);
            let explicit = check_equivalence(c, b);
            assert_eq!(explicit, symbolic, "{} {kind}", bench.paper_name);
            inequivalent += usize::from(explicit.is_err());
        }
    }
    // Self-checks pass; most flips are observable, so both verdicts occur.
    assert!(
        (10..=15).contains(&inequivalent),
        "{inequivalent} inequivalent pairs"
    );
}

#[test]
fn explicit_checker_reports_the_depth_of_the_first_difference() {
    // A 3-bit counter reaches 8 states; flipping latch 2 shows on the
    // outputs once bit 2 first differs.
    let counter = generators::counter("c", 3);
    assert_eq!(check_equivalence(&counter, &counter), Ok(8));
    let flipped = with_flipped_latch(&counter, 2);
    assert_eq!(
        check_equivalence(&counter, &flipped),
        verify_fsm_equivalence_with(&counter, &flipped, None, ImageMethod::Mono)
    );
}
