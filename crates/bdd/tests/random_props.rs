//! Randomized property tests for the BDD substrate, driven by the in-tree
//! [`XorShift64`] generator so they run offline under plain
//! `cargo test -q`. Strategy: random truth tables over a small variable
//! set, built through the public API and checked against direct
//! truth-table evaluation. Fixed seeds keep every run identical; a
//! failure message always includes the offending table(s).

use bddmin_bdd::{Bdd, BddStats, Budget, BudgetExceeded, Cube, Edge, ReorderSettings, Var};
use bddmin_core::rng::XorShift64;

const NVARS: usize = 4;
const TABLE: usize = 1 << NVARS;
const CASES: usize = 64;

/// Builds the function with the given truth table (bit `i` = value on
/// the assignment whose bits are `i`, MSB = `Var(0)`).
fn from_table(bdd: &mut Bdd, table: u16) -> Edge {
    let mut f = Edge::ZERO;
    for row in 0..TABLE {
        if table >> row & 1 == 1 {
            let lits: Vec<(Var, bool)> = (0..NVARS)
                .map(|v| (Var(v as u32), row >> (NVARS - 1 - v) & 1 == 1))
                .collect();
            let cube = Cube::new(lits).to_edge(bdd);
            f = bdd.or(f, cube);
        }
    }
    f
}

fn to_table(bdd: &Bdd, f: Edge) -> u16 {
    let mut t = 0u16;
    for row in 0..TABLE {
        let assign: Vec<bool> = (0..NVARS)
            .map(|v| row >> (NVARS - 1 - v) & 1 == 1)
            .collect();
        if bdd.eval(f, &assign) {
            t |= 1 << row;
        }
    }
    t
}

#[test]
fn truth_table_round_trip_and_canonicity() {
    let mut rng = XorShift64::seed_from_u64(0xB0D);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        assert_eq!(to_table(&bdd, f), table, "round trip of {table:#06x}");
        // Rebuild through a different construction path: minterms
        // high-to-low must land on the identical edge.
        let mut g = Edge::ZERO;
        for row in (0..TABLE).rev() {
            if table >> row & 1 == 1 {
                let lits: Vec<(Var, bool)> = (0..NVARS)
                    .map(|v| (Var(v as u32), row >> (NVARS - 1 - v) & 1 == 1))
                    .collect();
                let cube = Cube::new(lits).to_edge(&mut bdd);
                g = bdd.or(g, cube);
            }
        }
        assert_eq!(f, g, "canonicity of {table:#06x}");
    }
}

#[test]
fn boolean_algebra_laws() {
    let mut rng = XorShift64::seed_from_u64(0xA16EB2A);
    for _ in 0..CASES {
        let (ta, tb, tc) = (rng.gen_u16(), rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let a = from_table(&mut bdd, ta);
        let b = from_table(&mut bdd, tb);
        let c = from_table(&mut bdd, tc);
        // Distributivity.
        let bc = bdd.or(b, c);
        let lhs = bdd.and(a, bc);
        let ab = bdd.and(a, b);
        let ac = bdd.and(a, c);
        let rhs = bdd.or(ab, ac);
        assert_eq!(lhs, rhs, "distributivity on {ta:#06x} {tb:#06x} {tc:#06x}");
        // De Morgan.
        let n_ab = bdd.and(a, b).complement();
        let na_or_nb = bdd.or(a.complement(), b.complement());
        assert_eq!(n_ab, na_or_nb, "De Morgan on {ta:#06x} {tb:#06x}");
        // Double complement.
        assert_eq!(a.complement().complement(), a);
        // XOR associativity.
        let x1 = bdd.xor(a, b);
        let x1c = bdd.xor(x1, c);
        let x2 = bdd.xor(b, c);
        let ax2 = bdd.xor(a, x2);
        assert_eq!(x1c, ax2, "xor associativity on {ta:#06x} {tb:#06x} {tc:#06x}");
    }
}

#[test]
fn ite_matches_semantics() {
    let mut rng = XorShift64::seed_from_u64(0x17E);
    for _ in 0..CASES {
        let (tf, tg, th) = (rng.gen_u16(), rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let g = from_table(&mut bdd, tg);
        let h = from_table(&mut bdd, th);
        let r = bdd.ite(f, g, h);
        let expect = (tf & tg) | (!tf & th);
        assert_eq!(to_table(&bdd, r), expect, "ite on {tf:#06x} {tg:#06x} {th:#06x}");
    }
}

#[test]
fn shannon_decomposition() {
    let mut rng = XorShift64::seed_from_u64(0x5A);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let var = rng.gen_range(0..NVARS) as u32;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        let f1 = bdd.cofactor(f, Var(var), true);
        let f0 = bdd.cofactor(f, Var(var), false);
        let v = bdd.var(Var(var));
        let rebuilt = bdd.ite(v, f1, f0);
        assert_eq!(rebuilt, f, "Shannon on {table:#06x} at var {var}");
        // Cofactors do not depend on the variable.
        assert!(!bdd.depends_on(f1, Var(var)));
        assert!(!bdd.depends_on(f0, Var(var)));
    }
}

#[test]
fn quantifier_duality() {
    let mut rng = XorShift64::seed_from_u64(0x0D7);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let var = rng.gen_range(0..NVARS) as u32;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        let cube = bdd.cube_of_vars(&[Var(var)]);
        let ex = bdd.exists(f, cube);
        let fa = bdd.forall(f, cube);
        // ∃x.f = f1 + f0 ; ∀x.f = f1·f0.
        let f1 = bdd.cofactor(f, Var(var), true);
        let f0 = bdd.cofactor(f, Var(var), false);
        assert_eq!(ex, bdd.or(f1, f0), "exists on {table:#06x}");
        assert_eq!(fa, bdd.and(f1, f0), "forall on {table:#06x}");
        // Duality: ¬∃x.f = ∀x.¬f.
        let nf = bdd.not(f);
        let fanf = bdd.forall(nf, cube);
        assert_eq!(ex.complement(), fanf, "duality on {table:#06x}");
        // Containment: ∀x.f ≤ f ≤ ∃x.f.
        assert!(bdd.implies_holds(fa, f));
        assert!(bdd.implies_holds(f, ex));
    }
}

#[test]
fn constrain_restrict_are_covers_and_constrain_agrees_on_care() {
    let mut rng = XorShift64::seed_from_u64(0xC0);
    let mut checked = 0;
    while checked < CASES {
        let (tf, tc) = (rng.gen_u16(), rng.gen_u16());
        if tc == 0 {
            continue;
        }
        checked += 1;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let onset = bdd.and(f, c);
        let nc = bdd.not(c);
        let upper = bdd.or(f, nc);
        for g in [bdd.constrain(f, c), bdd.restrict(f, c)] {
            assert!(bdd.implies_holds(onset, g), "cover lower on {tf:#06x}/{tc:#06x}");
            assert!(bdd.implies_holds(g, upper), "cover upper on {tf:#06x}/{tc:#06x}");
        }
        // constrain agrees with f everywhere on the care set.
        let g = bdd.constrain(f, c);
        let gf = bdd.xor(g, f);
        let disagreement = bdd.and(gf, c);
        assert!(disagreement.is_zero(), "constrain image on {tf:#06x}/{tc:#06x}");
    }
}

#[test]
fn sat_counts_are_exact_and_additive() {
    let mut rng = XorShift64::seed_from_u64(0x5A7);
    for _ in 0..CASES {
        let (ta, tb) = (rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let a = from_table(&mut bdd, ta);
        let b = from_table(&mut bdd, tb);
        let aub = bdd.or(a, b);
        let aib = bdd.and(a, b);
        let lhs = bdd.sat_fraction(aub) + bdd.sat_fraction(aib);
        let rhs = bdd.sat_fraction(a) + bdd.sat_fraction(b);
        assert!((lhs - rhs).abs() < 1e-12, "additivity on {ta:#06x} {tb:#06x}");
        assert_eq!(bdd.sat_count(a), f64::from(ta.count_ones()));
    }
}

#[test]
fn gc_preserves_roots_and_canonicity() {
    let mut rng = XorShift64::seed_from_u64(0x6C);
    for _ in 0..CASES {
        let (ta, tb) = (rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let a = from_table(&mut bdd, ta);
        let b = from_table(&mut bdd, tb);
        let keep = bdd.xor(a, b);
        let table_before = to_table(&bdd, keep);
        let size_before = bdd.size(keep);
        bdd.collect_garbage(&[keep]);
        assert_eq!(to_table(&bdd, keep), table_before, "gc on {ta:#06x} {tb:#06x}");
        assert_eq!(bdd.size(keep), size_before);
        // Rebuild after GC stays canonical: identical edge.
        let a2 = from_table(&mut bdd, ta);
        let b2 = from_table(&mut bdd, tb);
        let keep2 = bdd.xor(a2, b2);
        assert_eq!(keep2, keep, "post-gc canonicity on {ta:#06x} {tb:#06x}");
    }
}

#[test]
fn cubes_partition_onset() {
    let mut rng = XorShift64::seed_from_u64(0xC0BE);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        let cubes: Vec<Cube> = bdd.cubes(f).collect();
        let mut union = Edge::ZERO;
        let mut total = 0.0;
        for q in &cubes {
            let e = q.to_edge(&mut bdd);
            total += bdd.sat_fraction(e);
            union = bdd.or(union, e);
        }
        assert_eq!(union, f, "cube union of {table:#06x}");
        // BDD 1-paths are disjoint, so their fractions add up exactly.
        assert!(
            (total - bdd.sat_fraction(f)).abs() < 1e-12,
            "overlapping cubes in {table:#06x}"
        );
    }
}

#[test]
fn support_is_exact() {
    let mut rng = XorShift64::seed_from_u64(0x5097);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        let support = bdd.support(f);
        for v in 0..NVARS as u32 {
            let f1 = bdd.cofactor(f, Var(v), true);
            let f0 = bdd.cofactor(f, Var(v), false);
            assert_eq!(
                support.contains(&Var(v)),
                f1 != f0,
                "support of {table:#06x} at var {v}"
            );
        }
    }
}

#[test]
fn size_is_minimal_under_reduction() {
    let mut rng = XorShift64::seed_from_u64(0x517E);
    for table in (0..CASES).map(|_| rng.gen_u16()).chain([0, u16::MAX]) {
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        // A canonical ROBDD never exceeds the unreduced decision tree:
        // 2^NVARS - 1 internal nodes plus the one shared terminal.
        assert!(bdd.size(f) <= 1 << NVARS, "size of {table:#06x}");
        if table == 0 || table == u16::MAX {
            assert_eq!(bdd.size(f), 1, "constant {table:#06x}");
        }
    }
}

#[test]
fn isop_interval_soundness_and_irredundancy() {
    let mut rng = XorShift64::seed_from_u64(0x150F);
    for _ in 0..CASES / 2 {
        let (t_onset, t_extra) = (rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let lower = from_table(&mut bdd, t_onset);
        let extra = from_table(&mut bdd, t_extra);
        let upper = bdd.or(lower, extra);
        let isop = bdd.isop(lower, upper);
        assert!(bdd.implies_holds(lower, isop.function));
        assert!(bdd.implies_holds(isop.function, upper));
        // Cube list and function agree.
        let parts: Vec<Edge> = isop.cubes.iter().map(|c| c.to_edge(&mut bdd)).collect();
        let union = bdd.or_many(parts);
        assert_eq!(union, isop.function);
        // Irredundancy: dropping any one cube uncovers part of lower.
        for skip in 0..isop.cubes.len() {
            let parts: Vec<Edge> = isop
                .cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.to_edge(&mut bdd))
                .collect();
            let partial = bdd.or_many(parts);
            assert!(
                !bdd.implies_holds(lower, partial),
                "redundant cube on {t_onset:#06x}/{t_extra:#06x}"
            );
        }
        // No freedom ⟹ exact.
        let exact = bdd.isop(lower, lower);
        assert_eq!(exact.function, lower);
    }
}

/// Truth table of `Var(v)` (see [`from_table`] for the row encoding).
fn var_table(v: usize) -> u16 {
    (0..TABLE)
        .filter(|row| row >> (NVARS - 1 - v) & 1 == 1)
        .fold(0, |t, row| t | 1 << row)
}

#[test]
fn agree_decides_the_disagreement_product() {
    let mut rng = XorShift64::seed_from_u64(0xA64EE);
    for case in 0..CASES {
        let mut bdd = Bdd::new(NVARS);
        // Random operands, one of them an or over the top levels, plus
        // complements.
        let or_top = var_table(0) | var_table(1) | var_table(2) | rng.gen_u16();
        let mut tables = vec![rng.gen_u16(), rng.gen_u16(), or_top];
        tables.extend([!tables[0], !tables[2]]);
        let ops: Vec<Edge> = tables.iter().map(|&t| from_table(&mut bdd, t)).collect();
        for &e in &ops {
            bdd.pin(e);
        }
        for phase in ["fresh", "after gc", "after sift"] {
            match phase {
                "after gc" => {
                    bdd.collect_garbage(&[]);
                }
                "after sift" => {
                    bdd.reorder(&ReorderSettings::default());
                }
                _ => {}
            }
            for (i, &f) in ops.iter().enumerate() {
                for (j, &g) in ops.iter().enumerate() {
                    for (k, &c) in ops.iter().enumerate() {
                        let allocated = bdd.stats().allocated_nodes;
                        let agree = bdd.agree(f, g, c);
                        let implies = bdd.implies_holds(f, g);
                        assert_eq!(bdd.stats().allocated_nodes, allocated, "agree allocated");
                        let x = bdd.xor(f, g);
                        assert_eq!(agree, bdd.and(x, c).is_zero(), "agree {phase} {case}");
                        let ng = bdd.not(g);
                        assert_eq!(implies, bdd.and(f, ng).is_zero(), "implies {phase} {case}");
                        let (tf, tg, tc) = (tables[i], tables[j], tables[k]);
                        assert_eq!(
                            agree,
                            (tf ^ tg) & tc == 0,
                            "tables {tf:#06x} {tg:#06x} {tc:#06x}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn try_agree_blown_budget_is_error_and_leaves_the_manager_consistent() {
    let mut rng = XorShift64::seed_from_u64(0xB4D6);
    let mut tripped = 0;
    for _ in 0..CASES {
        let (ta, tb, tc) = (rng.gen_u16(), rng.gen_u16(), rng.gen_u16());
        if ta == tb || (ta ^ tb) & tc == 0 {
            continue; // decided without recursing, or agreement: skip
        }
        let mut bdd = Bdd::new(NVARS);
        let (a, b, c) = (
            from_table(&mut bdd, ta),
            from_table(&mut bdd, tb),
            from_table(&mut bdd, tc),
        );
        bdd.clear_caches();
        bdd.set_budget(Budget::default().steps(1));
        match bdd.try_agree(a, b, c) {
            Err(e) => {
                assert_eq!(e, BudgetExceeded::STEPS);
                tripped += 1;
            }
            // A terminal rule may decide at the first step; it must be right.
            Ok(r) => assert!(!r),
        }
        bdd.clear_budget();
        assert!(!bdd.agree(a, b, c), "verdict after the abort");
        // No broken structures: rebuilding lands on the same edges.
        assert_eq!(from_table(&mut bdd, ta), a);
        let x = bdd.xor(a, b);
        assert_eq!(to_table(&bdd, x), ta ^ tb);
    }
    assert!(tripped > 0, "no case reached the budget");
}

#[test]
fn agree_depth_guard_converts_stack_overflow_into_error() {
    // f = x0·…·x3999 and g = x0·…·x3998·¬x3999 first differ at the
    // bottom, so the descent is 4000 frames deep.
    let n = 4000;
    let mut bdd = Bdd::new(n);
    let last = bdd.var(Var(n as u32 - 1));
    let (mut f, mut g) = (last, bdd.not(last));
    for i in (0..n as u32 - 1).rev() {
        let v = bdd.var(Var(i));
        f = bdd.and(v, f);
        g = bdd.and(v, g);
    }
    assert_eq!(bdd.try_agree(f, g, f), Err(BudgetExceeded::DEPTH));
    assert_eq!(bdd.try_implies_holds(f, g), Err(BudgetExceeded::DEPTH));
}

#[test]
fn agree_op_class_is_appended() {
    assert_eq!(
        BddStats::OP_CLASSES[..7],
        ["ite", "exists", "forall", "constrain", "restrict", "compose", "and_exists"]
    );
    assert_eq!(BddStats::OP_CLASSES[7], "agree");
}
