//! The nn-baton benchmark harness.
//!
//! ```text
//! baton-perfbench --workload map-zoo|sweep-fig15|serve-zipf --seed N --seconds S --trace 0|1
//!                 [--baton PATH]
//! baton-perfbench --setup-probe map-zoo|sweep-fig15
//!                 one cold set-up of that workload, in seconds (spawned by it)
//! ```
//!
//! Every workload drives the public entry points of the `nn-baton`
//! workspace from this one process (plus the real `baton serve` binary for
//! `serve-zipf`), checks the outputs, and prints one JSON object as the last
//! line of stdout. `--trace 0` reports the end-to-end metrics with the
//! program's telemetry off; `--trace 1` is a separate run that turns the
//! telemetry session on, times calls into each layer from outside and
//! reports the per-layer metrics. See `NOTES.md` for what each number means.

mod calib;
mod map_zoo;
mod openloop;
mod serve_zipf;
mod stats;
mod sweep_fig15;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The counting allocator of the `baton` binary, so allocation counts and
/// the allocator's own cost match what a CLI user gets.
#[global_allocator]
static ALLOC: nn_baton::telemetry::alloc::CountingAlloc =
    nn_baton::telemetry::alloc::CountingAlloc::new();

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p90_ms", "ms"),
    ("max_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("des_gap_mean", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // map-zoo: post-design search.
    ("mapping.enumerate_ms", "ms"),
    ("mapping.candidates", "count"),
    ("c3p.search_ms", "ms"),
    ("c3p.ns_per_candidate", "ns"),
    ("c3p.candidates_per_s", "1/s"),
    ("c3p.evals_per_s", "1/s"),
    ("c3p.survivor_share", "share"),
    ("c3p.memo_hit_share", "share"),
    ("dse.map_model_self_ms", "ms"),
    ("alloc.allocs_per_op", "count"),
    ("sim.replay_ms", "ms"),
    ("model.energy_pj", "pJ"),
    ("model.cycles", "cycles"),
    // sweep-fig15: pre-design sweep.
    ("dse.full_sweep_ms", "ms"),
    ("dse.audit_ms", "ms"),
    ("dse.pareto_ms", "ms"),
    ("dse.unit_ms_p50", "ms"),
    ("dse.unit_ms_max", "ms"),
    ("parallel.efficiency", "share"),
    ("alloc.allocs_per_point", "count"),
    ("alloc.peak_live_mb", "MiB"),
    ("sweep.points", "count"),
    ("sweep.front_size", "count"),
    ("sweep.optimum.darknet19", "geometry"),
    ("sweep.optimum.vgg16", "geometry"),
    ("sweep.optimum.resnet50", "geometry"),
    // serve-zipf: the HTTP service, hit path.
    ("serve.hit_p50_ms", "ms"),
    ("serve.reject_p50_ms", "ms"),
    ("serve.scrape_ms", "ms"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.parse_us_p50", "us"),
    ("serve.cache_us_p50", "us"),
    ("serve.render_us_p50", "us"),
    // serve-zipf: miss path and capacity.
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.search_us_p99", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("report.explain_ms_p50", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_share", "share"),
    ("serve.evictions", "count"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.rss_mb", "MiB"),
    ("serve.body_digest", "digest"),
    ("loadgen.lateness_ms_p99", "ms"),
    // Every workload: how much of the wall the timed calls explain, and
    // what turning the telemetry on costs.
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
];

/// One run's outcome: op accounting, failed checks and metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric `{name}` is not declared");
        self.values.insert(name, value);
    }

    /// Counts one op; a failed op also records why.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.error(why());
        }
    }

    /// Records a failed output check that is not tied to a single op.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.error(why());
        }
    }

    fn error(&mut self, message: String) {
        // Keep stderr readable when many ops fail the same way.
        if self.errors.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.errors.push(message);
    }

    /// The result line: every declared metric of the requested set.
    fn result_line(&mut self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() && (trace || *v > 0.0) => *v,
                Some(v) => {
                    self.error(format!("metric {name} is {v}"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.error(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Path of the `baton` binary (serve-zipf only).
    pub baton: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        baton: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--baton" => args.baton = Some(value()?.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--setup-probe") {
        // A fresh process: one cold set-up, timed and printed.
        match raw.get(1).map(String::as_str) {
            Some("map-zoo") => println!("{}", map_zoo::cold_setup_s()),
            Some("sweep-fig15") => println!("{}", sweep_fig15::cold_setup_s()),
            other => {
                eprintln!("error: no set-up probe for {other:?}");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "map-zoo" => map_zoo::run(&args, &mut report),
        "sweep-fig15" => sweep_fig15::run(&args, &mut report),
        "serve-zipf" => serve_zipf::run(&args, &mut report),
        other => Err(format!(
            "unknown workload `{other}` (map-zoo, sweep-fig15, serve-zipf)"
        )),
    };
    if let Err(e) = run {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}

/// The zoo models at 224, in the fixed order every workload starts from.
pub fn zoo_224() -> Vec<nn_baton::model::Model> {
    use nn_baton::model::zoo;
    vec![
        zoo::alexnet(224),
        zoo::vgg16(224),
        zoo::resnet50(224),
        zoo::darknet19(224),
        zoo::mobilenet_v2(224),
    ]
}

/// Mean |DES − analytical| / analytical cycles over the energy winners of
/// every layer of the 224 zoo, replayed through `dse::simulate_mapped`.
pub fn des_gap_mean(
    models: &[nn_baton::model::Model],
    reports: &[nn_baton::dse::ModelReport],
) -> Result<f64, String> {
    let arch = nn_baton::arch::presets::case_study_accelerator();
    let tech = nn_baton::arch::Technology::paper_16nm();
    let mut gaps = Vec::new();
    for (model, report) in models.iter().zip(reports) {
        for s in nn_baton::dse::simulate_mapped(model, report, &arch, &tech)? {
            let a = s.analytical_cycles as f64;
            gaps.push((s.sim.total_cycles as f64 - a).abs() / a);
        }
    }
    Ok(stats::mean(&gaps))
}

/// [`des_gap_mean`] for workloads that do not map the zoo themselves.
pub fn zoo_des_gap() -> Result<f64, String> {
    let arch = nn_baton::arch::presets::case_study_accelerator();
    let tech = nn_baton::arch::Technology::paper_16nm();
    let models = zoo_224();
    let reports = models
        .iter()
        .map(|m| nn_baton::dse::map_model(m, &arch, &tech).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    des_gap_mean(&models, &reports)
}

/// Runs `--setup-probe <workload>` in a fresh process of this executable
/// and returns the set-up time it prints, in seconds.
pub fn setup_probe(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(&exe)
        .args(["--setup-probe", workload])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let s: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("set-up probe printed `{}`", text.trim()))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited {}", out.status));
    }
    Ok(s)
}

/// This process's peak resident set in MiB.
pub fn self_peak_rss_mb() -> f64 {
    stats::vm_hwm_mb("self").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_reports_every_metric_of_its_set() {
        let mut r = Report::default();
        r.op(true, String::new);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = r.result_line(true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());

        let mut missing = Report::default();
        missing.op(true, String::new);
        assert!(missing
            .result_line(false)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let raw: Vec<String> = "--workload map-zoo --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("map-zoo", 7, 10.0, true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
