//! Shared shard/merge primitives for multi-manager pipelines.
//!
//! The parallel experiment harness ([`crate::par`]) splits work across
//! private `Bdd` managers and must honor the determinism contract — *the
//! merged output is byte-identical for every shard count at a fixed
//! input order* — through three primitives:
//!
//! 1. [`round_robin`] — the shard assignment is a pure function of the
//!    input index and the shard count, never of timing;
//! 2. [`transfer_isf`] — instances cross manager boundaries through the
//!    checked [`Bdd::try_transfer`] (a semantic rebuild: sizes and covers
//!    are canonical under a fixed variable order, so nothing measured
//!    depends on which manager holds the function), and a bad variable
//!    map surfaces as a [`TransferError`] value instead of killing the
//!    worker;
//! 3. [`merge_indexed`] — results reassemble in input order, erasing the
//!    completion order of the shards.
//!
//! The `bddmin-serve` daemon uses only [`transfer_isf`], for a job's
//! variable map: it sends each job to its least-loaded worker and keeps
//! input order with an ordered buffer of its own.

use bddmin_bdd::{Bdd, TransferError, Var};
use bddmin_core::Isf;

/// The shard an input at `index` is dispatched to: plain round-robin
/// over `shards` workers (which must be nonzero). Deterministic in the
/// index alone, so a stream replays onto the same shards every run.
pub fn round_robin(index: usize, shards: usize) -> usize {
    debug_assert!(shards > 0, "round_robin over zero shards");
    index % shards
}

/// Builds `shards` fresh private worker managers over `num_vars`
/// variables.
pub fn worker_managers(shards: usize, num_vars: usize) -> Vec<Bdd> {
    (0..shards).map(|_| Bdd::new(num_vars)).collect()
}

/// Copies an ISF from `src` into `dst` under `var_map` through the
/// checked [`Bdd::try_transfer`]. On error nothing has been built in
/// `dst` and both managers remain fully usable — the caller can report
/// the failure and keep serving.
pub fn transfer_isf(
    src: &mut Bdd,
    isf: Isf,
    dst: &mut Bdd,
    var_map: impl Fn(Var) -> Var + Copy,
) -> Result<Isf, TransferError> {
    let f = src.try_transfer(isf.f, dst, var_map)?;
    let c = src.try_transfer(isf.c, dst, var_map)?;
    Ok(Isf::new(f, c))
}

/// Reassembles sharded results in input order: sorts by the extracted
/// index. The sort is stable, but indices are expected to be unique (one
/// result per input), so stability is incidental.
pub fn merge_indexed<T>(mut items: Vec<T>, index: impl Fn(&T) -> usize) -> Vec<T> {
    items.sort_by_key(|item| index(item));
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_a_pure_function_of_the_index() {
        for shards in 1..5 {
            for i in 0..20 {
                assert_eq!(round_robin(i, shards), i % shards);
                assert!(round_robin(i, shards) < shards);
            }
        }
    }

    #[test]
    fn worker_managers_inherit_width() {
        let workers = worker_managers(3, 4);
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|b| b.num_vars() == 4));
    }

    #[test]
    fn transfer_isf_round_trips_and_rejects_bad_maps() {
        let mut src = Bdd::new(3);
        let a = src.var(Var(0));
        let b = src.var(Var(1));
        let f = src.and(a, b);
        let c = src.or(a, b);
        let isf = Isf::new(f, c);
        let mut dst = Bdd::new(3);
        let moved = transfer_isf(&mut src, isf, &mut dst, |v| v).unwrap();
        assert_eq!(dst.size(moved.f), src.size(isf.f));
        assert_eq!(dst.size(moved.c), src.size(isf.c));
        // A non-injective map is a value-level error; both managers stay
        // alive and the identity transfer still works afterwards.
        let err = transfer_isf(&mut src, isf, &mut dst, |_| Var(0)).unwrap_err();
        assert!(matches!(err, TransferError::NotInjective { .. }));
        assert!(transfer_isf(&mut src, isf, &mut dst, |v| v).is_ok());
    }

    #[test]
    fn merge_indexed_restores_input_order() {
        let shuffled = vec![(2usize, "c"), (0, "a"), (3, "d"), (1, "b")];
        let merged = merge_indexed(shuffled, |&(i, _)| i);
        assert_eq!(merged, vec![(0, "a"), (1, "b"), (2, "c"), (3, "d")]);
    }
}
