//! The two configuration files, parsed with the service's JSON module.
//!
//! `BENCHMARK.json` at the repository root declares the workloads, the
//! metrics with their units and bounds, and the run length. It may carry
//! no other keys, so the workload sizes live beside the benchmark in
//! `perfbench/workloads.json`. Both are compiled into the binary, so a run
//! reads no file and cannot pick up a stale copy.

use bddmin_serve::json::{self, Json};

/// The repository's `BENCHMARK.json`.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// The workload sizes.
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Declared, String> {
        let root = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = array(&root, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            array(&root, key)?
                .iter()
                .map(|m| {
                    let better = string(m, "better")?;
                    Ok(MetricDecl {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        higher_is_better: match better.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => {
                                return Err(format!(
                                    "metric better must be higher or lower, got {other:?}"
                                ))
                            }
                        },
                        bound: m.get("bound").map(|_| number(m, "bound")).transpose()?,
                    })
                })
                .collect()
        };
        Ok(Declared {
            run_seconds: number(&root, "run_seconds")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declared metrics for a run with or without tracing.
    pub fn metrics(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A leaf-spec job mix for the service workloads.
#[derive(Clone, Debug)]
pub struct JobMix {
    /// Inclusive range of variables per job.
    pub vars: (usize, usize),
    /// Heuristic filters, drawn uniformly.
    pub filters: Vec<String>,
    /// Share of jobs that exactly repeat an earlier job under a new id.
    pub repeat_share: f64,
}

/// One fixed structured machine of the equivalence workload.
#[derive(Clone, Debug)]
pub struct Structured {
    /// Generator name: `serial_mult` or `minmax`.
    pub generator: String,
    /// Width in bits.
    pub bits: usize,
}

/// Every workload size, from `workloads.json`.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `paper_table3`: suite machines (paper names), in suite order.
    pub table3_machines: Vec<String>,
    /// `equiv_check`: suite machines checked against themselves and a
    /// flipped copy.
    pub equiv_suite: Vec<String>,
    /// `equiv_check`: fixed structured machines.
    pub equiv_structured: Vec<Structured>,
    /// `equiv_check`: seeded random machines per pass.
    pub equiv_random_machines: usize,
    /// `equiv_check`: inclusive latch range of the random machines.
    pub equiv_random_latches: (usize, usize),
    /// `equiv_check`: primary inputs of the random machines.
    pub equiv_random_inputs: usize,
    /// `serve_burst`: jobs per burst (one `process_stream` call).
    pub burst_jobs: usize,
    /// `serve_burst`: the job mix.
    pub burst_mix: JobMix,
    /// `serve_open`: jobs per stream (one `process_stream` call).
    pub open_jobs: usize,
    /// `serve_open`: offered jobs per second.
    pub open_rate: f64,
    /// `serve_open`: the job mix.
    pub open_mix: JobMix,
}

impl Sizes {
    /// Parses the compiled-in `workloads.json`.
    pub fn load() -> Result<Sizes, String> {
        let root = json::parse(WORKLOADS_JSON).map_err(|e| format!("workloads.json: {e}"))?;
        let table3 = field(&root, "paper_table3")?;
        let equiv = field(&root, "equiv_check")?;
        let random = field(equiv, "random")?;
        let burst = field(&root, "serve_burst")?;
        let open = field(&root, "serve_open")?;
        Ok(Sizes {
            table3_machines: strings(table3, "machines")?,
            equiv_suite: strings(equiv, "suite")?,
            equiv_structured: array(equiv, "structured")?
                .iter()
                .map(|s| {
                    Ok(Structured {
                        generator: string(s, "generator")?,
                        bits: number(s, "bits")? as usize,
                    })
                })
                .collect::<Result<_, String>>()?,
            equiv_random_machines: number(random, "machines")? as usize,
            equiv_random_latches: range(random, "latches")?,
            equiv_random_inputs: number(random, "inputs")? as usize,
            burst_jobs: number(burst, "jobs")? as usize,
            burst_mix: job_mix(burst)?,
            open_jobs: number(open, "jobs")? as usize,
            open_rate: number(open, "rate")?,
            open_mix: job_mix(open)?,
        })
    }
}

fn job_mix(v: &Json) -> Result<JobMix, String> {
    Ok(JobMix {
        vars: range(v, "vars")?,
        filters: strings(v, "filters")?,
        repeat_share: number(v, "repeat_share")?,
    })
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn number(v: &Json, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Json::Num(n) => Ok(*n),
        _ => Err(format!("key {key:?} must be a number")),
    }
}

fn string(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("key {key:?} must be a string"))
}

fn array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("key {key:?} must be an array"))
}

fn strings(v: &Json, key: &str) -> Result<Vec<String>, String> {
    array(v, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{key:?} must hold strings"))
        })
        .collect()
}

fn range(v: &Json, key: &str) -> Result<(usize, usize), String> {
    match array(v, key)? {
        [lo, hi] => match (lo.as_u64(), hi.as_u64()) {
            (Some(lo), Some(hi)) if lo <= hi => Ok((lo as usize, hi as usize)),
            _ => Err(format!("{key:?} must be [lo, hi] with lo <= hi")),
        },
        _ => Err(format!("{key:?} must be [lo, hi]")),
    }
}
