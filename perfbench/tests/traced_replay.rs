//! The traced replays rebuild library paths from public calls
//! (`runner::run_benchmark`, `verify_fsm_equivalence_with`, the service's
//! dispatcher and worker). On small inputs, each replay must reproduce the
//! measured pass exactly, so a library change that the copies miss fails
//! here rather than as failed ops in a long traced run.

use bddmin_perfbench::config::{JobMix, Sizes};
use bddmin_perfbench::equiv::EquivCheck;
use bddmin_perfbench::run::Workload;
use bddmin_perfbench::serve::ServeWorkload;
use bddmin_perfbench::table3::PaperTable3;
use bddmin_perfbench::trace::Tracer;

/// One measured pass, then one untraced and one traced replay; returns
/// the ops of the pass and the traced tracer.
fn pass_and_replay(workload: &mut dyn Workload) -> (usize, Tracer) {
    let ops = workload.pass().len();
    assert!(ops > 0);
    let mut untraced = Tracer::new(false);
    assert_eq!(workload.replay(&mut untraced), 0, "untraced replay differs");
    assert_eq!(untraced.op_ms.len(), ops);
    let mut traced = Tracer::new(true);
    assert_eq!(workload.replay(&mut traced), 0, "traced replay differs");
    assert_eq!(traced.op_ms.len(), ops);
    (ops, traced)
}

#[test]
fn paper_pipeline_replay_renders_the_same_tables() {
    let mut workload = PaperTable3::setup(&["s386".into()]).expect("suite machine");
    let (ops, traced) = pass_and_replay(&mut workload);
    assert_eq!(ops, 2, "one machine and the render");
    let m = traced.metrics();
    assert!(m["core.self_pct"] > 0.0);
    assert!(m["eval.filter_pct"] > 0.0);
}

#[test]
fn equivalence_replay_gives_the_same_verdicts() {
    let mut sizes = Sizes::load().expect("workloads.json parses");
    sizes.equiv_suite = vec!["s386".into()];
    sizes.equiv_structured.clear();
    sizes.equiv_random_machines = 1;
    sizes.equiv_random_latches = (6, 6);
    let mut workload = EquivCheck::setup(&sizes, 3).expect("machines build");
    let (ops, traced) = pass_and_replay(&mut workload);
    assert_eq!(
        ops, 4,
        "two machines, each against itself and a flipped copy"
    );
    assert_eq!(workload.check(), 0, "explicit search disagrees");
    assert!(traced.metrics()["fsm.image_pct"] > 0.0);
}

#[test]
fn service_replay_writes_the_same_result_lines() {
    let mix = JobMix {
        vars: (3, 6),
        filters: vec!["all".into(), "osm_bt,tsm_td".into(), "restr".into()],
        repeat_share: 0.3,
    };
    let mut workload = ServeWorkload::burst(&mix, 20, 5);
    let (ops, traced) = pass_and_replay(&mut workload);
    assert_eq!(ops, 20);
    assert_eq!(workload.check(), 0);
    let m = traced.metrics();
    assert!(m["serve.parse_pct"] > 0.0 && m["serve.job_pct"] > 0.0);
}
