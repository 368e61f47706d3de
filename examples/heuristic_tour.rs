//! A tour of the full heuristic framework on one instance family: shows
//! the matching criteria, the sibling matcher's parameters, level
//! matching, scheduling and the lower bound, narrated step by step.
//!
//! Run with: `cargo run -p bddmin-eval --example heuristic_tour`

use bddmin_bdd::{Bdd, Var};
use bddmin_core::{
    gather_below_level, generic_td, lower_bound, matches_directed, minimize_at_level, opt_lv,
    windowed_sibling_pass, CliqueOptions, Heuristic, Isf, LevelWindow, MatchCriterion, Schedule,
    SiblingConfig,
};

fn main() {
    let mut bdd = Bdd::new(4);
    // A 4-variable instance with a generous don't-care set.
    let (f, c) = bdd
        .from_leaf_spec("0d d1 10 01 11 d0 d1 00")
        .expect("valid spec");
    let isf = Isf::new(f, c);
    println!("instance: leaves (x1x2x3) = 0d d1 10 01 11 d0 d1 00");
    println!(
        "|f| = {}, |c| = {}, care onset = {:.1}%\n",
        bdd.size(f),
        bdd.size(c),
        bdd.onset_percentage(c)
    );

    // 1. Matching criteria on the root siblings.
    println!("== 1. matching criteria (root siblings) ==");
    let top = bdd.level(f).min(bdd.level(c));
    let (ft, fe) = bdd.branches_at(f, top);
    let (ct, ce) = bdd.branches_at(c, top);
    let then_isf = Isf::new(ft, ct);
    let else_isf = Isf::new(fe, ce);
    for crit in MatchCriterion::ALL {
        let fwd = matches_directed(&mut bdd, crit, then_isf, else_isf);
        let bwd = matches_directed(&mut bdd, crit, else_isf, then_isf);
        println!("  {crit:<5} then→else: {fwd:<5}  else→then: {bwd}");
    }

    // 2. The eight sibling heuristics (paper Table 2).
    println!("\n== 2. sibling matching (generic_td, Figure 2) ==");
    for crit in MatchCriterion::ALL {
        for compl in [false, true] {
            for nnv in [false, true] {
                let cfg = SiblingConfig::new(crit)
                    .match_complement(compl)
                    .no_new_vars(nnv);
                let g = generic_td(&mut bdd, isf, cfg);
                println!(
                    "  {:<10} compl={:<5} nnv={:<5} -> {} nodes",
                    cfg.paper_name(),
                    compl,
                    nnv,
                    bdd.size(g)
                );
            }
        }
    }

    // 3. Level matching: what hangs below level x1?
    println!("\n== 3. level matching (Section 3.3) ==");
    let gathered = gather_below_level(&mut bdd, isf, Var(0));
    println!("  {} sub-function pairs below level x1:", gathered.len());
    for g in &gathered {
        println!(
            "    path {:?}  |f_j| = {}, |c_j| = {}",
            g.path,
            bdd.size(g.isf.f),
            bdd.size(g.isf.c)
        );
    }
    let after = minimize_at_level(
        &mut bdd,
        isf,
        Var(0),
        MatchCriterion::Tsm,
        CliqueOptions::default(),
    );
    println!(
        "  after one tsm pass at x1: care onset {:.1}% -> {:.1}%",
        bdd.onset_percentage(isf.c),
        bdd.onset_percentage(after.c)
    );
    let g_lv = opt_lv(&mut bdd, isf, CliqueOptions::default());
    println!("  opt_lv (all levels, tsm): {} nodes", bdd.size(g_lv));

    // 4. Windowed passes compose (Section 3.4).
    println!("\n== 4. scheduling ==");
    let w = LevelWindow::new(Var(0), Var(2));
    let mid = windowed_sibling_pass(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osm), w);
    println!(
        "  osm window [x1,x3): care onset {:.1}% -> {:.1}% (DCs partially consumed)",
        bdd.onset_percentage(isf.c),
        bdd.onset_percentage(mid.c)
    );
    for (label, schedule) in [
        ("window=2 stop=1", Schedule::new(2, 1)),
        ("window=4 stop=2", Schedule::new(4, 2)),
        ("no level passes", Schedule::new(2, 1).level_passes(false)),
    ] {
        let g = schedule.apply(&mut bdd, isf);
        println!("  schedule {label:<16} -> {} nodes", bdd.size(g));
    }

    // 5. How close are we to optimal?
    println!("\n== 5. lower bound (Theorem 7) ==");
    let lb = lower_bound(&mut bdd, isf, 1000);
    let best = Heuristic::ALL
        .into_iter()
        .map(|h| {
            let g = h.minimize(&mut bdd, isf);
            bdd.size(g)
        })
        .min()
        .unwrap();
    println!(
        "  lower bound {} <= best heuristic {} ({} cubes examined)",
        lb.bound, best, lb.cubes_examined
    );
}
