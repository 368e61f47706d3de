//! The fuzz loop: generate → check → shrink → record.
//!
//! [`run_fuzz`] drives the whole harness. For every configured seed it
//! draws instances from the in-tree [`XorShift64`] stream, runs the
//! selected oracles on each, and on the first failing verdict hands the
//! instance to the shrinker and serializes the minimal reproducer into
//! the corpus directory (unless writing is disabled). The loop is
//! deterministic up to wall-clock: the *set of instances visited* under
//! a time budget depends on machine speed, but every `(seed, round)`
//! pair always denotes the same instance and verdict, so any failure is
//! replayable from the numbers in the report alone.
//!
//! With [`FuzzConfig::structured`] set, the loop instead plays the
//! seven-arm generator family from [`crate::structured`] under the
//! UCB1 scheduler of [`crate::sched`]: classic and dense instance
//! sweeps, mutation and splicing over the committed corpus, and the
//! BLIF/expression/CLI-args surfaces with their own oracles
//! ([`crate::surface`]). Instance-arm plays run the full oracle
//! battery and count toward [`FuzzReport::instances`]; surface plays
//! are tallied separately in [`FuzzReport::surface_checks`]. Surface
//! failures shrink through [`crate::shrink::shrink_with`] and are
//! written next to the instance reproducers with surface-specific
//! extensions (`.blif`, `.expr`, `.args`) so the corpus replay — which
//! parses every `.repro` strictly — never confuses the two.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use bddmin_core::rng::XorShift64;

use crate::corpus;
use crate::gen::{random_instance, Instance};
use crate::oracle::{check, Mutant, Oracle, Verdict};
use crate::sched::{shape_hash, ArmKind, Bandit, ShapeSet};
use crate::shrink::{instance_size, shrink, shrink_with};
use crate::structured::{dense_instance, ArgVec, BlifProgram, ExprInput, Generate, Mutate};
use crate::surface;

/// Configuration for one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seeds to sweep, each an independent instance stream.
    pub seeds: Vec<u64>,
    /// Instances to draw per seed.
    pub iters: u64,
    /// Overall wall-clock budget across all seeds; `None` means only
    /// `iters` bounds the run.
    pub budget_ms: Option<u64>,
    /// Oracles to run on every instance.
    pub oracles: Vec<Oracle>,
    /// Injected bug (always [`Mutant::None`] in CI gates; the breaking
    /// mutants exist to prove the oracles fire).
    pub mutant: Mutant,
    /// Where to write shrunk reproducers; `None` disables writing.
    pub corpus_dir: Option<PathBuf>,
    /// Stop fuzzing after this many failures (a broken build fails fast
    /// instead of shrinking hundreds of duplicates).
    pub max_failures: usize,
    /// When set, run the structured multi-arm loop instead of the
    /// classic instance sweep.
    pub structured: Option<StructuredOpts>,
}

/// Options for the structured (bandit-scheduled) fuzz mode.
#[derive(Clone, Debug, Default)]
pub struct StructuredOpts {
    /// Committed reproducers seeding the corpus-mutation and splicing
    /// arms. With an empty seed corpus those arms degrade to the
    /// classic generator, so the schedule stays total.
    pub seed_corpus: Vec<Instance>,
    /// Arms to rotate; empty means all of [`ArmKind::ALL`].
    pub arms: Vec<ArmKind>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seeds: vec![1],
            iters: 1000,
            budget_ms: None,
            oracles: Oracle::ALL.to_vec(),
            mutant: Mutant::None,
            corpus_dir: None,
            max_failures: 4,
            structured: None,
        }
    }
}

/// Per-oracle verdict tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleStats {
    /// Contract held.
    pub passes: u64,
    /// Oracle did not apply (precondition unmet).
    pub skips: u64,
    /// Contract violated.
    pub fails: u64,
}

/// One shrunk failure, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Seed of the stream that produced the original instance.
    pub seed: u64,
    /// Round within the stream.
    pub round: u64,
    /// The oracle that failed.
    pub oracle: Oracle,
    /// Evidence from the original (pre-shrink) failing verdict.
    pub evidence: String,
    /// Shrink statistics: accepted steps and size before/after.
    pub shrink_steps: usize,
    /// [`instance_size`] before shrinking.
    pub initial_size: usize,
    /// [`instance_size`] of the reproducer.
    pub final_size: usize,
    /// The reproducer in corpus format, ready to commit.
    pub reproducer: String,
    /// Where the reproducer was written, if writing was enabled.
    pub corpus_path: Option<PathBuf>,
}

/// One shrunk failure from a non-instance surface.
#[derive(Clone, Debug)]
pub struct SurfaceFailure {
    /// Which generator arm produced the input.
    pub arm: ArmKind,
    /// Seed of the stream.
    pub seed: u64,
    /// Round within the stream.
    pub round: u64,
    /// Evidence from the original failing verdict.
    pub evidence: String,
    /// The shrunk reproducer artifact (rendered input plus a comment
    /// header), ready to paste or commit.
    pub artifact: String,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
    /// Where the artifact was written, if writing was enabled.
    pub path: Option<PathBuf>,
}

/// Per-arm scheduler statistics.
#[derive(Clone, Debug)]
pub struct ArmReport {
    /// The arm.
    pub arm: ArmKind,
    /// Plays the bandit granted this arm.
    pub plays: u64,
    /// Plays whose verdicts included at least one failure.
    pub fails: u64,
    /// Instance-arm plays that skipped every oracle, or surface plays
    /// the parser rejected.
    pub skips: u64,
    /// Plays that produced a structurally novel shape.
    pub novel_shapes: u64,
    /// Mean bandit reward over all plays.
    pub mean_reward: f64,
}

/// Aggregate result of [`run_fuzz`].
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Leaf-table instances generated (across all seeds; in structured
    /// mode only instance-arm plays count here).
    pub instances: u64,
    /// Oracle invocations (instances × selected oracles, minus any cut
    /// short by the failure limit).
    pub checks: u64,
    /// Surface plays (BLIF/expr/args) in structured mode.
    pub surface_checks: u64,
    /// Tallies indexed like [`Oracle::ALL`].
    pub oracle_stats: [OracleStats; 11],
    /// Shrunk failures, in discovery order.
    pub failures: Vec<Failure>,
    /// Shrunk surface failures, in discovery order.
    pub surface_failures: Vec<SurfaceFailure>,
    /// Per-arm scheduler statistics (structured mode only).
    pub arm_reports: Vec<ArmReport>,
    /// Wall-clock for the whole run.
    pub elapsed_ms: u64,
    /// True when the wall-clock budget, not the iteration count, ended
    /// the run.
    pub budget_exhausted: bool,
}

impl FuzzReport {
    /// Instances per second over the whole run.
    pub fn instances_per_sec(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return self.instances as f64 * 1000.0;
        }
        self.instances as f64 * 1000.0 / self.elapsed_ms as f64
    }

    /// True when any oracle — instance or surface — failed.
    pub fn has_failures(&self) -> bool {
        !self.failures.is_empty() || !self.surface_failures.is_empty()
    }

    /// Total failures across both failure classes.
    pub fn num_failures(&self) -> usize {
        self.failures.len() + self.surface_failures.len()
    }

    /// Total accepted shrink steps across all failures.
    pub fn total_shrink_steps(&self) -> usize {
        self.failures.iter().map(|f| f.shrink_steps).sum()
    }

    /// Renders the JSON stats blob for CI logs. Hand-rolled like
    /// `crates/eval`'s reports — no serde in the workspace.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"harness\": \"bddmin-verify\",\n");
        s.push_str(&format!("  \"instances\": {},\n", self.instances));
        s.push_str(&format!("  \"checks\": {},\n", self.checks));
        s.push_str(&format!("  \"surface_checks\": {},\n", self.surface_checks));
        s.push_str(&format!("  \"elapsed_ms\": {},\n", self.elapsed_ms));
        s.push_str(&format!(
            "  \"instances_per_sec\": {:.1},\n",
            self.instances_per_sec()
        ));
        s.push_str(&format!(
            "  \"budget_exhausted\": {},\n",
            self.budget_exhausted
        ));
        s.push_str(&format!("  \"failures\": {},\n", self.failures.len()));
        s.push_str(&format!(
            "  \"surface_failures\": {},\n",
            self.surface_failures.len()
        ));
        s.push_str(&format!(
            "  \"total_shrink_steps\": {},\n",
            self.total_shrink_steps()
        ));
        if !self.arm_reports.is_empty() {
            s.push_str("  \"arms\": {\n");
            for (i, ar) in self.arm_reports.iter().enumerate() {
                s.push_str(&format!(
                    "    \"{}\": {{\"plays\": {}, \"fails\": {}, \"skips\": {}, \
                     \"novel_shapes\": {}, \"mean_reward\": {:.3}}}{}\n",
                    ar.arm,
                    ar.plays,
                    ar.fails,
                    ar.skips,
                    ar.novel_shapes,
                    ar.mean_reward,
                    if i + 1 < self.arm_reports.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            s.push_str("  },\n");
        }
        s.push_str("  \"oracles\": {\n");
        for (i, oracle) in Oracle::ALL.into_iter().enumerate() {
            let st = &self.oracle_stats[i];
            s.push_str(&format!(
                "    \"{}\": {{\"pass\": {}, \"skip\": {}, \"fail\": {}}}{}\n",
                oracle,
                st.passes,
                st.skips,
                st.fails,
                if i + 1 < Oracle::ALL.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n");
        s.push('}');
        s
    }
}

/// Runs the fuzzer to completion (iteration count, budget, or failure
/// limit, whichever comes first).
///
/// # Errors
///
/// Only corpus-file I/O can fail; the fuzzing itself is infallible.
pub fn run_fuzz(config: &FuzzConfig) -> std::io::Result<FuzzReport> {
    let start = Instant::now();
    let mut report = FuzzReport::default();
    if config.structured.is_some() {
        run_structured(config, start, &mut report)?;
    } else {
        run_classic(config, start, &mut report)?;
    }
    report.elapsed_ms = start.elapsed().as_millis() as u64;
    Ok(report)
}

/// Cumulative per-seed deadline: the budget is split evenly across
/// seeds so every seed's stream gets visited, and earlier seeds' unused
/// time rolls forward naturally (the check is against cumulative
/// elapsed time).
fn seed_deadline(config: &FuzzConfig, seed_idx: usize) -> Option<u64> {
    let num_seeds = config.seeds.len().max(1) as u64;
    config
        .budget_ms
        .map(|ms| ms * (seed_idx as u64 + 1) / num_seeds)
}

/// Runs all configured oracles on one instance, tallying verdicts and
/// shrinking/serializing failures. Returns `(skips, hit_limit)`.
fn sweep_oracles(
    config: &FuzzConfig,
    report: &mut FuzzReport,
    seed: u64,
    round: u64,
    inst: &Instance,
) -> std::io::Result<(u64, bool)> {
    let mut skips = 0u64;
    for oracle in &config.oracles {
        let oracle = *oracle;
        let idx = Oracle::ALL.iter().position(|o| *o == oracle).unwrap();
        report.checks += 1;
        match check(oracle, inst, config.mutant) {
            Verdict::Pass => report.oracle_stats[idx].passes += 1,
            Verdict::Skip(_) => {
                report.oracle_stats[idx].skips += 1;
                skips += 1;
            }
            Verdict::Fail(evidence) => {
                report.oracle_stats[idx].fails += 1;
                let outcome = shrink(inst, oracle, config.mutant);
                let provenance = format!(
                    "seed {seed}, iteration {round}, shrunk {} -> {} in {} steps",
                    outcome.initial_size, outcome.final_size, outcome.steps
                );
                let reproducer = corpus::serialize(&outcome.instance, oracle, &provenance);
                let corpus_path = match &config.corpus_dir {
                    Some(dir) => Some(write_reproducer(dir, oracle, seed, round, &reproducer)?),
                    None => None,
                };
                report.failures.push(Failure {
                    seed,
                    round,
                    oracle,
                    evidence,
                    shrink_steps: outcome.steps,
                    initial_size: outcome.initial_size,
                    final_size: instance_size(&outcome.instance),
                    reproducer,
                    corpus_path,
                });
                if report.num_failures() >= config.max_failures {
                    return Ok((skips, true));
                }
            }
        }
    }
    Ok((skips, false))
}

/// The classic single-generator sweep.
fn run_classic(
    config: &FuzzConfig,
    start: Instant,
    report: &mut FuzzReport,
) -> std::io::Result<()> {
    'outer: for (seed_idx, &seed) in config.seeds.iter().enumerate() {
        let deadline_ms = seed_deadline(config, seed_idx);
        let mut rng = XorShift64::seed_from_u64(seed);
        for round in 0..config.iters {
            if let Some(deadline) = deadline_ms {
                if start.elapsed().as_millis() as u64 >= deadline {
                    report.budget_exhausted = true;
                    break;
                }
            }
            let inst = random_instance(&mut rng, round);
            report.instances += 1;
            let (_, hit_limit) = sweep_oracles(config, report, seed, round, &inst)?;
            if hit_limit {
                break 'outer;
            }
        }
    }
    Ok(())
}

/// Recent surface values feeding the mutation/splice plays of a surface
/// arm; a small ring so splices have partners without unbounded growth.
struct Ring<T> {
    items: Vec<T>,
}

impl<T: Clone> Ring<T> {
    fn new() -> Ring<T> {
        Ring { items: Vec::new() }
    }

    fn push(&mut self, item: T) {
        if self.items.len() >= 8 {
            self.items.remove(0);
        }
        self.items.push(item);
    }

    fn pick(&self, rng: &mut XorShift64) -> Option<T> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.gen_range(0..self.items.len())].clone())
        }
    }
}

/// Draws a surface play: mostly fresh generation, with mutation and
/// splice plays over the recent ring once it has content.
fn draw_surface<T: Generate + Mutate>(ring: &mut Ring<T>, rng: &mut XorShift64, round: u64) -> T {
    let value = match (ring.pick(rng), ring.pick(rng)) {
        (Some(a), Some(b)) if rng.gen_bool(0.2) => a.splice(&b, rng),
        (Some(a), _) if rng.gen_bool(0.3) => a.mutate(rng),
        _ => T::generate(rng, round),
    };
    ring.push(value.clone());
    value
}

/// Per-arm accumulators folded into [`ArmReport`]s at the end.
#[derive(Clone, Copy, Default)]
struct ArmAccum {
    plays: u64,
    fails: u64,
    skips: u64,
    novel: u64,
    reward: f64,
}

/// The structured multi-arm loop: a UCB1 bandit steers plays across
/// the generator arms, rewarding oracle reachability and shape novelty.
fn run_structured(
    config: &FuzzConfig,
    start: Instant,
    report: &mut FuzzReport,
) -> std::io::Result<()> {
    let opts = config.structured.as_ref().expect("structured opts");
    let arms: Vec<ArmKind> = if opts.arms.is_empty() {
        ArmKind::ALL.to_vec()
    } else {
        opts.arms.clone()
    };
    let mut bandit = Bandit::new(arms.len());
    let mut shapes = ShapeSet::new();
    let mut accum = vec![ArmAccum::default(); arms.len()];
    let mut blif_ring: Ring<BlifProgram> = Ring::new();
    let mut expr_ring: Ring<ExprInput> = Ring::new();
    let mut args_ring: Ring<ArgVec> = Ring::new();
    'outer: for (seed_idx, &seed) in config.seeds.iter().enumerate() {
        let deadline_ms = seed_deadline(config, seed_idx);
        let mut rng = XorShift64::seed_from_u64(seed);
        for round in 0..config.iters {
            if let Some(deadline) = deadline_ms {
                if start.elapsed().as_millis() as u64 >= deadline {
                    report.budget_exhausted = true;
                    break;
                }
            }
            let slot = bandit.select();
            let arm = arms[slot];
            accum[slot].plays += 1;
            let fails_before = report.num_failures();
            // Reachability half of the reward: how much of the oracle
            // battery (or the surface's accept path) this play reached.
            let reach;
            let shape;
            let mut hit_limit = false;
            if arm.is_instance_arm() {
                let inst = match arm {
                    ArmKind::Classic => random_instance(&mut rng, round),
                    ArmKind::Dense => dense_instance(&mut rng, round),
                    ArmKind::CorpusMutate => match pick_instance(&opts.seed_corpus, &mut rng) {
                        Some(base) => {
                            let mut m = base;
                            for _ in 0..1 + round % 3 {
                                m = m.mutate(&mut rng);
                            }
                            m
                        }
                        None => random_instance(&mut rng, round),
                    },
                    ArmKind::CorpusSplice => match (
                        pick_instance(&opts.seed_corpus, &mut rng),
                        pick_instance(&opts.seed_corpus, &mut rng),
                    ) {
                        (Some(a), Some(b)) => a.splice(&b, &mut rng),
                        _ => random_instance(&mut rng, round),
                    },
                    _ => unreachable!("surface arms handled below"),
                };
                report.instances += 1;
                let (skips, limit) = sweep_oracles(config, report, seed, round, &inst)?;
                hit_limit = limit;
                let checks = config.oracles.len().max(1) as u64;
                reach = (checks.saturating_sub(skips)) as f64 / checks as f64;
                if skips == checks {
                    accum[slot].skips += 1;
                }
                shape = shape_hash(&[
                    1,
                    inst.num_vars() as u64,
                    // Density bucket (eighths), not raw count: novelty
                    // should saturate, not grow forever.
                    (inst.specified() * 8 / inst.leaves.len()) as u64,
                    chaos_bits(&inst),
                ]);
            } else {
                report.surface_checks += 1;
                let (verdict, shp, artifact_on_fail) = match arm {
                    ArmKind::Blif => {
                        let p = draw_surface(&mut blif_ring, &mut rng, round);
                        let v = surface::check_blif(&p);
                        let shp = shape_hash(&[
                            2,
                            p.inputs.len() as u64,
                            p.latches.len() as u64,
                            p.names.len() as u64,
                            p.names.iter().map(|n| n.rows.len() as u64).sum(),
                            u64::from(p.end),
                        ]);
                        (v, shp, SurfaceArtifact::Blif(p))
                    }
                    ArmKind::Expr => {
                        let e = draw_surface(&mut expr_ring, &mut rng, round);
                        let v = surface::check_expr(&e);
                        let shp = shape_hash(&[
                            3,
                            e.vars as u64,
                            (e.function.size() / 4) as u64,
                            u64::from(e.mangle.is_some()),
                        ]);
                        (v, shp, SurfaceArtifact::Expr(e))
                    }
                    ArmKind::Args => {
                        let a = draw_surface(&mut args_ring, &mut rng, round);
                        let v = surface::check_args(&a);
                        let shp = shape_hash(&[
                            4,
                            a.args.len() as u64,
                            a.args.first().map_or(0, |t| t.len() as u64),
                            u64::from(a.expect_valid),
                        ]);
                        (v, shp, SurfaceArtifact::Args(a))
                    }
                    _ => unreachable!("instance arms handled above"),
                };
                shape = shp;
                match verdict {
                    Verdict::Pass => reach = 1.0,
                    Verdict::Skip(_) => {
                        reach = 0.0;
                        accum[slot].skips += 1;
                    }
                    Verdict::Fail(evidence) => {
                        reach = 1.0;
                        record_surface_failure(
                            config,
                            report,
                            arm,
                            seed,
                            round,
                            evidence,
                            artifact_on_fail,
                        )?;
                        hit_limit = report.num_failures() >= config.max_failures;
                    }
                }
            }
            if report.num_failures() > fails_before {
                accum[slot].fails += 1;
            }
            let novel = shapes.observe(shape);
            if novel {
                accum[slot].novel += 1;
            }
            let reward = 0.5 * reach + 0.5 * f64::from(u8::from(novel));
            accum[slot].reward += reward;
            bandit.update(slot, reward);
            if hit_limit {
                break 'outer;
            }
        }
    }
    report.arm_reports = arms
        .iter()
        .zip(&accum)
        .map(|(&arm, a)| ArmReport {
            arm,
            plays: a.plays,
            fails: a.fails,
            skips: a.skips,
            novel_shapes: a.novel,
            mean_reward: if a.plays == 0 {
                0.0
            } else {
                a.reward / a.plays as f64
            },
        })
        .collect();
    Ok(())
}

/// Packs the chaos plan into shape-feature bits.
fn chaos_bits(inst: &Instance) -> u64 {
    let c = inst.chaos;
    u64::from(c.flush_between)
        | u64::from(c.gc_between) << 1
        | u64::from(c.step_budget.is_some()) << 2
        | u64::from(c.node_budget.is_some()) << 3
        | u64::from(c.reorder_between) << 4
}

fn pick_instance(corpus: &[Instance], rng: &mut XorShift64) -> Option<Instance> {
    if corpus.is_empty() {
        None
    } else {
        Some(corpus[rng.gen_range(0..corpus.len())].clone())
    }
}

/// A failing surface input awaiting shrinking.
enum SurfaceArtifact {
    Blif(BlifProgram),
    Expr(ExprInput),
    Args(ArgVec),
}

/// Shrinks a failing surface input, renders the reproducer artifact,
/// and records (and optionally writes) the failure.
fn record_surface_failure(
    config: &FuzzConfig,
    report: &mut FuzzReport,
    arm: ArmKind,
    seed: u64,
    round: u64,
    evidence: String,
    artifact: SurfaceArtifact,
) -> std::io::Result<()> {
    let (text, ext, steps) = match artifact {
        SurfaceArtifact::Blif(p) => {
            let (min, steps) = shrink_with(&p, |c| surface::check_blif(c).is_fail());
            let mut text = String::from("# bddmin-verify structured reproducer (blif surface)\n");
            text.push_str(&format!(
                "# provenance: arm {arm}, seed {seed}, round {round}\n"
            ));
            text.push_str(&min.render());
            (text, "blif", steps)
        }
        SurfaceArtifact::Expr(e) => {
            let (min, steps) = shrink_with(&e, |c| surface::check_expr(c).is_fail());
            let mut text = String::from("# bddmin-verify structured reproducer (expr surface)\n");
            text.push_str(&format!(
                "# provenance: arm {arm}, seed {seed}, round {round}\n"
            ));
            text.push_str(&format!("vars: {}\n", min.vars));
            text.push_str(&format!("function: {}\n", min.function_text()));
            text.push_str(&format!("care: {}\n", min.care_text()));
            match min.mangle {
                Some((pos, pick)) => text.push_str(&format!("mangle: {pos} {pick}\n")),
                None => text.push_str("mangle: none\n"),
            }
            (text, "expr", steps)
        }
        SurfaceArtifact::Args(a) => {
            let (min, steps) = shrink_with(&a, |c| surface::check_args(c).is_fail());
            let mut text = String::from("# bddmin-verify structured reproducer (args surface)\n");
            text.push_str(&format!(
                "# provenance: arm {arm}, seed {seed}, round {round}\n"
            ));
            text.push_str(&format!("expect_valid: {}\n", min.expect_valid));
            for tok in &min.args {
                text.push_str(&format!("arg: {tok}\n"));
            }
            (text, "args", steps)
        }
    };
    let path = match &config.corpus_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("shrunk-{arm}-s{seed}-i{round}.{ext}"));
            let mut file = std::fs::File::create(&path)?;
            file.write_all(text.as_bytes())?;
            Some(path)
        }
        None => None,
    };
    report.surface_failures.push(SurfaceFailure {
        arm,
        seed,
        round,
        evidence,
        artifact: text,
        shrink_steps: steps,
        path,
    });
    Ok(())
}

fn write_reproducer(
    dir: &std::path::Path,
    oracle: Oracle,
    seed: u64,
    round: u64,
    text: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("shrunk-{oracle}-s{seed}-i{round}.repro"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(text.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_reports_no_failures() {
        let config = FuzzConfig {
            seeds: vec![1],
            iters: 20,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).unwrap();
        assert_eq!(report.instances, 20);
        assert_eq!(report.checks, 180);
        assert!(report.failures.is_empty());
        assert!(!report.budget_exhausted);
        let passes: u64 = report.oracle_stats.iter().map(|s| s.passes).sum();
        let skips: u64 = report.oracle_stats.iter().map(|s| s.skips).sum();
        assert_eq!(passes + skips, 180);
    }

    #[test]
    fn mutant_run_finds_shrinks_and_serializes_a_failure() {
        let config = FuzzConfig {
            seeds: vec![1],
            iters: 400,
            oracles: vec![Oracle::Cover],
            mutant: Mutant::BreakCover,
            max_failures: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).unwrap();
        assert_eq!(report.failures.len(), 1, "break-cover must fire");
        let failure = &report.failures[0];
        assert_eq!(failure.oracle, Oracle::Cover);
        assert!(failure.final_size <= failure.initial_size);
        // The reproducer round-trips through the corpus parser and still
        // fails the same oracle under the same mutant.
        let entry = corpus::parse(&failure.reproducer).unwrap();
        assert_eq!(entry.oracle, Oracle::Cover);
        assert!(check(entry.oracle, &entry.instance, Mutant::BreakCover).is_fail());
    }

    #[test]
    fn budget_stops_an_unbounded_run() {
        let config = FuzzConfig {
            seeds: vec![1],
            iters: u64::MAX,
            budget_ms: Some(100),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).unwrap();
        assert!(report.budget_exhausted);
        assert!(report.instances > 0);
    }

    #[test]
    fn json_report_has_the_ci_grep_keys() {
        let report = run_fuzz(&FuzzConfig {
            iters: 5,
            ..FuzzConfig::default()
        })
        .unwrap();
        let json = report.to_json();
        for key in [
            "\"instances\"",
            "\"instances_per_sec\"",
            "\"total_shrink_steps\"",
            "\"cover\"",
            "\"cube-optimal\"",
            "\"osm-level\"",
            "\"sandwich\"",
            "\"agreement\"",
            "\"invariance\"",
            "\"budget\"",
            "\"reorder-invariance\"",
            "\"image-equivalence\"",
        ] {
            assert!(json.contains(key), "missing {key} in report:\n{json}");
        }
    }

    #[test]
    fn structured_clean_run_covers_every_arm() {
        let config = FuzzConfig {
            seeds: vec![5],
            iters: 120,
            structured: Some(StructuredOpts::default()),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).unwrap();
        assert!(!report.has_failures(), "failures: {:?}", report.failures);
        assert!(report.surface_failures.is_empty());
        // Instance plays and surface plays partition the rounds.
        assert_eq!(report.arm_reports.len(), ArmKind::ALL.len());
        let instance_plays: u64 = report
            .arm_reports
            .iter()
            .filter(|a| a.arm.is_instance_arm())
            .map(|a| a.plays)
            .sum();
        let surface_plays: u64 = report
            .arm_reports
            .iter()
            .filter(|a| !a.arm.is_instance_arm())
            .map(|a| a.plays)
            .sum();
        assert_eq!(report.instances, instance_plays);
        assert_eq!(report.surface_checks, surface_plays);
        assert_eq!(instance_plays + surface_plays, 120);
        // UCB1 warms every arm before exploiting, so all seven play.
        for arm in &report.arm_reports {
            assert!(arm.plays > 0, "arm {} never played", arm.arm);
        }
        let json = report.to_json();
        for key in ["\"arms\"", "\"classic\"", "\"blif\"", "\"surface_checks\""] {
            assert!(json.contains(key), "missing {key} in report:\n{json}");
        }
    }

    #[test]
    fn structured_runs_are_deterministic() {
        let run = || {
            let report = run_fuzz(&FuzzConfig {
                seeds: vec![9],
                iters: 60,
                structured: Some(StructuredOpts::default()),
                ..FuzzConfig::default()
            })
            .unwrap();
            report
                .arm_reports
                .iter()
                .map(|a| (a.arm, a.plays, a.fails, a.novel_shapes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn structured_arm_filter_restricts_plays() {
        let config = FuzzConfig {
            seeds: vec![3],
            iters: 30,
            structured: Some(StructuredOpts {
                arms: vec![ArmKind::Expr, ArmKind::Args],
                ..StructuredOpts::default()
            }),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).unwrap();
        assert!(!report.has_failures());
        assert_eq!(report.instances, 0, "no instance arms were scheduled");
        assert_eq!(report.surface_checks, 30);
        assert_eq!(report.arm_reports.len(), 2);
    }

    #[test]
    fn structured_corpus_arms_consume_the_seed_corpus() {
        let mut rng = bddmin_core::rng::XorShift64::seed_from_u64(77);
        let seed_corpus: Vec<Instance> = (0..4).map(|r| random_instance(&mut rng, r)).collect();
        let config = FuzzConfig {
            seeds: vec![11],
            iters: 80,
            structured: Some(StructuredOpts {
                seed_corpus,
                arms: vec![ArmKind::CorpusMutate, ArmKind::CorpusSplice],
            }),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config).unwrap();
        assert!(!report.has_failures(), "failures: {:?}", report.failures);
        assert_eq!(report.instances, 80);
    }
}
