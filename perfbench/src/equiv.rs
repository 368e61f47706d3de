//! `equiv_check`: product-machine equivalence as `bddmin verify` runs it
//! (`verify_fsm_equivalence_with(a, b, None, ImageMethod::Mono)`), on each
//! machine against itself and against a copy with one latch input
//! inverted. Machines: the suite, fixed structured machines, and seeded
//! `random_fsm` machines.
//!
//! Ops: one per pair. The reference is the explicit-state checker, run
//! once per pair after the timed region.

use std::time::Instant;

use bddmin_bdd::BddStats;
use bddmin_fsm::{
    generators, product_circuit, with_flipped_latch, Circuit, ImageMethod, SymbolicFsm,
};

use crate::config::Sizes;
use crate::explicit::check_equivalence;
use crate::run::{elapsed_ms, Rng, Workload};
use crate::trace::Tracer;

type Verdict = Result<usize, usize>;

struct Pair {
    name: String,
    a: Circuit,
    b: Circuit,
    /// Explicit-state verdict, computed on first use.
    reference: Option<Verdict>,
}

/// The workload state: the pairs and the last pass's verdicts.
pub struct EquivCheck {
    pairs: Vec<Pair>,
    last: Vec<Verdict>,
}

impl EquivCheck {
    /// Builds every pair; the random machines and their flipped latches
    /// come from `seed`.
    pub fn setup(sizes: &Sizes, seed: u64) -> Result<EquivCheck, String> {
        let mut machines: Vec<(String, Circuit, usize)> = Vec::new();
        let suite = generators::benchmark_suite();
        for name in &sizes.equiv_suite {
            let bench = suite
                .iter()
                .find(|b| b.paper_name == name)
                .ok_or_else(|| format!("equiv_check: no suite machine {name:?}"))?;
            let c = bench.circuit.clone();
            let flip = c.num_latches() / 2;
            machines.push((name.clone(), c, flip));
        }
        for s in &sizes.equiv_structured {
            let c = match s.generator.as_str() {
                "serial_mult" => generators::serial_mult(&format!("mult{}", s.bits), s.bits),
                "minmax" => generators::minmax(&format!("minmax{}", s.bits), s.bits),
                other => return Err(format!("equiv_check: unknown generator {other:?}")),
            };
            let flip = c.num_latches() / 2;
            machines.push((c.name().to_owned(), c, flip));
        }
        let mut rng = Rng::new(seed);
        let (lo, hi) = sizes.equiv_random_latches;
        for i in 0..sizes.equiv_random_machines {
            let latches = lo + rng.below(hi - lo + 1);
            let name = format!("rnd{i}_{latches}");
            let c =
                generators::random_fsm(&name, latches, sizes.equiv_random_inputs, rng.next_u64());
            let flip = rng.below(latches);
            machines.push((name, c, flip));
        }
        let mut pairs = Vec::with_capacity(2 * machines.len());
        for (name, c, flip) in machines {
            let flipped = with_flipped_latch(&c, flip);
            pairs.push(Pair {
                name: format!("{name}/self"),
                a: c.clone(),
                b: c.clone(),
                reference: None,
            });
            pairs.push(Pair {
                name: format!("{name}/flip{flip}"),
                a: c,
                b: flipped,
                reference: None,
            });
        }
        Ok(EquivCheck {
            pairs,
            last: Vec::new(),
        })
    }
}

impl Workload for EquivCheck {
    fn pass(&mut self) -> Vec<f64> {
        self.last.clear();
        let mut latencies = Vec::with_capacity(self.pairs.len());
        for pair in &self.pairs {
            let start = Instant::now();
            let verdict =
                bddmin_fsm::verify_fsm_equivalence_with(&pair.a, &pair.b, None, ImageMethod::Mono);
            latencies.push(elapsed_ms(start));
            self.last.push(verdict);
        }
        latencies
    }

    fn check(&mut self) -> usize {
        let mut failed = 0;
        for (pair, got) in self.pairs.iter_mut().zip(&self.last) {
            let want = *pair
                .reference
                .get_or_insert_with(|| check_equivalence(&pair.a, &pair.b));
            if *got != want {
                eprintln!(
                    "equiv_check: {} gave {got:?}, explicit search {want:?}",
                    pair.name
                );
                failed += 1;
            }
        }
        failed
    }

    fn replay(&mut self, tr: &mut Tracer) -> usize {
        let mut failed = 0;
        for (pair, want) in self.pairs.iter().zip(&self.last) {
            tr.begin_op();
            let got = traced_verify(&pair.a, &pair.b, tr);
            tr.end_op();
            if got != *want {
                eprintln!(
                    "traced equiv_check: {} gave {got:?}, untraced {want:?}",
                    pair.name
                );
                failed += 1;
            }
        }
        failed
    }
}

/// `verify_fsm_equivalence_with(a, b, None, Mono)` rebuilt from public
/// calls, with a span around each.
fn traced_verify(a: &Circuit, b: &Circuit, tr: &mut Tracer) -> Verdict {
    let mut fsm = tr.span("fsm", "compile", || {
        SymbolicFsm::new(&product_circuit(a, b))
    });
    let miter = tr.span("fsm", "miter", || {
        let outs = fsm.output_fns().to_vec();
        fsm.bdd_mut().or_many(outs)
    });
    let init = fsm.initial_states();
    let (mut reached, mut frontier) = (init, init);
    let mut depth = 0;
    let verdict = loop {
        let bad = tr.span("fsm", "miter", || fsm.bdd_mut().and(frontier, miter));
        if !bad.is_zero() {
            break Err(depth);
        }
        if frontier.is_zero() {
            break Ok(depth);
        }
        let care = tr.span("bdd", "ops", || {
            let bdd = fsm.bdd_mut();
            let not_reached = bdd.not(reached);
            bdd.or(frontier, not_reached)
        });
        let minimized = tr.span("bdd", "constrain", || {
            fsm.bdd_mut().constrain(frontier, care)
        });
        let image = tr.span("fsm", "image", || {
            fsm.image_with(ImageMethod::Mono, minimized)
        });
        (reached, frontier) = tr.span("bdd", "ops", || {
            let bdd = fsm.bdd_mut();
            let new_reached = bdd.or(reached, image);
            let not_reached = bdd.not(reached);
            (new_reached, bdd.and(image, not_reached))
        });
        depth += 1;
    };
    tr.kernel(&BddStats::default(), &fsm.bdd().stats());
    verdict
}
