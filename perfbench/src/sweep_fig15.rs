//! `sweep-fig15`: the pre-design flow as a one-caller closed loop, two
//! worker threads. A job is one Figure 15 sweep of a model —
//! `dse::full_sweep_audited` at the default sweep options (4096 MACs,
//! 3 mm²) with its JSONL audit written to an in-memory sink, then
//! `dse::pareto_front` on (area, EDP). One op is one Figure 15: a job on each
//! of darknet19@224, vgg16@512 and resnet50@512, in seeded order. Timed jobs
//! run as chiplet-count slices normalized to the reference host speed (see
//! `calib`), and are checked against one whole-sweep call per model.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nn_baton::arch::Technology;
use nn_baton::dse::{self, AuditRecord, DesignPoint, SweepAudit, SweepOptions};
use nn_baton::model::{zoo, Model};
use nn_baton::telemetry::{self, alloc, json};

use crate::calib::{self, Calibrator};
use crate::stats::{pct, Rng};
use crate::{Args, Report};

/// Input builds timed per batch, batches per set-up probe, and probe
/// processes per run; the median over the probes of each one's median build
/// is reported as `setup_s`.
const SETUP_REPS: usize = 41;
const SETUP_BATCHES: usize = 5;
const SETUP_PROCESSES: usize = 5;

const THREADS: usize = 2;

struct Inputs {
    models: Vec<Model>,
    opts: SweepOptions,
    tech: Technology,
}

fn build_inputs() -> Inputs {
    Inputs {
        models: vec![zoo::darknet19(224), zoo::vgg16(512), zoo::resnet50(512)],
        opts: SweepOptions::default(),
        tech: Technology::paper_16nm(),
    }
}

/// The in-memory audit sink: bytes are kept until the job is checked, then
/// dropped.
#[derive(Clone, Default)]
struct Buffer(Arc<Mutex<Vec<u8>>>);

impl Write for Buffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("audit buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Job {
    points: Vec<DesignPoint>,
    front: Vec<usize>,
    audit: Vec<u8>,
    sweep: Duration,
    pareto: Duration,
    /// The job's time normalized to the reference host speed, when it ran
    /// calibrated.
    norm_ms: Option<f64>,
}

impl Job {
    fn ms(&self) -> f64 {
        (self.sweep + self.pareto).as_secs_f64() * 1e3
    }
}

/// The sweep options split by chiplet count. Geometries sort with `N_P`
/// first, so the slices' points, concatenated, are the whole sweep's.
fn slices(opts: &SweepOptions) -> Vec<SweepOptions> {
    opts.space
        .compute
        .chiplets
        .iter()
        .map(|&np| {
            let mut slice = opts.clone();
            slice.space.compute.chiplets = vec![np];
            slice
        })
        .collect()
}

/// One job. Uncalibrated, the sweep is one `full_sweep_audited` call.
/// Calibrated, it runs as its chiplet-count slices, each bracketed by
/// kernel samples on every worker's core, so that every timed call is short
/// next to the spells of contention it is normalized against.
fn job(model: &Model, inp: &Inputs, audited: bool, cal: Option<&Calibrator>) -> Job {
    let buffer = Buffer::default();
    let parts = match cal {
        Some(_) => slices(&inp.opts),
        None => vec![inp.opts.clone()],
    };
    let mut before = cal.map(|c| c.sample_ms_on(THREADS));
    let mut norm_ms = 0.0;
    // Times `f` and, calibrated, adds its normalized time to `norm_ms`.
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        let elapsed = t.elapsed();
        if let (Some(c), Some(b)) = (cal, before) {
            let after = c.sample_ms_on(THREADS);
            norm_ms += calib::normalize(elapsed.as_secs_f64() * 1e3, b, after);
            before = Some(after);
        }
        elapsed
    };
    let mut points = Vec::new();
    let mut sweep = Duration::ZERO;
    for opts in &parts {
        let audit = if audited {
            SweepAudit::new(1, Some(Box::new(buffer.clone())))
        } else {
            SweepAudit::disabled()
        };
        sweep += timed(&mut || {
            points.extend(dse::full_sweep_audited(model, &inp.tech, opts, &audit));
        });
    }
    let mut front = Vec::new();
    let pareto = timed(&mut || {
        front = dse::pareto_front(&points, |p| (p.chiplet_area_mm2, p.edp(&inp.tech)));
    });
    let audit = std::mem::take(&mut *buffer.0.lock().expect("audit buffer lock"));
    Job {
        points,
        front,
        audit,
        sweep,
        pareto,
        norm_ms: cal.map(|_| norm_ms),
    }
}

/// Per-model outputs of the first job, which every repeat must equal.
struct Checker {
    first: Vec<Option<Vec<DesignPoint>>>,
}

impl Checker {
    fn check(&mut self, i: usize, model: &Model, j: &Job, tech: &Technology, report: &mut Report) {
        let first = self.first[i].get_or_insert_with(|| j.points.clone());
        let mut ok = !j.points.is_empty() && !j.front.is_empty() && *first == j.points;
        if !j.audit.is_empty() {
            ok &= audit_points_match(&j.audit, &j.points, tech);
        }
        report.op(ok, || {
            format!(
                "{}: {} points, front {}, repeat-identical {}",
                model.name(),
                j.points.len(),
                j.front.len(),
                *first == j.points
            )
        });
    }
}

/// The audit's `point` records, in order, are exactly the returned points.
fn audit_points_match(audit: &[u8], points: &[DesignPoint], tech: &Technology) -> bool {
    let text = String::from_utf8_lossy(audit);
    let mut lines = text
        .lines()
        .filter(|l| l.starts_with("{\"record\":\"point\""));
    points.iter().all(|p| {
        let expected = AuditRecord::Point {
            geometry: p.geometry,
            memory: p.memory,
            chiplet_area_mm2: p.chiplet_area_mm2,
            energy_pj: p.energy_pj,
            cycles: p.cycles,
            edp_js: p.edp(tech),
        }
        .to_json();
        lines.next() == Some(expected.as_str())
    }) && lines.next().is_none()
}

/// One cycle over the three models in `order`.
fn cycle(
    inp: &Inputs,
    order: &[usize],
    audited: bool,
    cal: Option<&Calibrator>,
    checker: &mut Checker,
    report: &mut Report,
) -> Vec<(usize, Job)> {
    order
        .iter()
        .map(|&i| {
            let j = job(&inp.models[i], inp, audited, cal);
            checker.check(i, &inp.models[i], &j, &inp.tech, report);
            (i, j)
        })
        .collect()
}

/// Times [`SETUP_REPS`] input builds into `samples`, normalized by kernel
/// samples on either side of the batch.
fn time_setup(cal: &Calibrator, samples: &mut Vec<f64>) {
    let before = cal.sample_ms();
    let batch: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(build_inputs());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let after = cal.sample_ms();
    samples.extend(batch.iter().map(|&s| calib::normalize(s, before, after)));
}

/// The median normalized input build of a process that has swept nothing
/// yet, as a user pays it.
pub fn cold_setup_s() -> f64 {
    let cal = Calibrator::default();
    let mut samples = Vec::new();
    for _ in 0..SETUP_BATCHES {
        time_setup(&cal, &mut samples);
    }
    pct(&samples, 50.0)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Each process lays out its heap differently, and a build of ~10 µs
    // feels that, so the set-up is measured in several fresh processes.
    let setup = if args.trace {
        Vec::new()
    } else {
        (0..SETUP_PROCESSES)
            .map(|_| crate::setup_probe("sweep-fig15"))
            .collect::<Result<Vec<_>, _>>()?
    };
    let inp = build_inputs();
    nn_baton::parallel::configure_threads(Some(THREADS));
    let mut checker = Checker {
        first: vec![None; inp.models.len()],
    };
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..inp.models.len()).collect();

    if !args.trace {
        // Every time is normalized to the reference host speed (see
        // `calib`). The first job of each model runs whole and
        // uncalibrated, so the sliced jobs that follow are checked against
        // the points of one `full_sweep_audited` call.
        for i in 0..inp.models.len() {
            let j = job(&inp.models[i], &inp, true, None);
            checker.check(i, &inp.models[i], &j, &inp.tech, report);
        }
        let cal = Calibrator::default();
        // One op is one Figure 15: a job on each of the three models.
        let window = Duration::from_secs_f64(args.seconds);
        let (mut lat, mut points) = (Vec::new(), 0usize);
        let t0 = Instant::now();
        while lat.is_empty() || t0.elapsed() < window {
            rng.shuffle(&mut order);
            let jobs = cycle(&inp, &order, true, Some(&cal), &mut checker, report);
            lat.push(
                jobs.iter()
                    .map(|(_, j)| j.norm_ms.expect("calibrated"))
                    .sum::<f64>(),
            );
            points += jobs.iter().map(|(_, j)| j.points.len()).sum::<usize>();
        }
        let busy_s = lat.iter().sum::<f64>() / 1e3;
        report.set("setup_s", pct(&setup, 50.0));
        report.set("ops_per_s", points as f64 / busy_s);
        report.set("p90_ms", pct(&lat, 90.0));
        report.set("max_rps", lat.len() as f64 / busy_s);
        report.set("peak_rss_mb", crate::self_peak_rss_mb());
        report.set("des_gap_mean", crate::zoo_des_gap()?);
        return Ok(());
    }

    let t_wall = Instant::now();
    rng.shuffle(&mut order);
    // Audited, telemetry off: the overhead baseline.
    let plain = cycle(&inp, &order, true, None, &mut checker, report);
    // Unaudited: the sweep alone, and its allocations.
    let a0 = alloc::totals().allocs;
    let bare = cycle(&inp, &order, false, None, &mut checker, report);
    let allocs = alloc::totals().allocs - a0;
    let peak_live = alloc::totals().peak_live_bytes;
    // Audited with the telemetry session on.
    let session = telemetry::attach_with_sink(&telemetry::TelemetryConfig::default(), None);
    let traced = cycle(&inp, &order, true, None, &mut checker, report);
    drop(session);
    // One worker: the parallel fan-out's efficiency.
    nn_baton::parallel::configure_threads(Some(1));
    let serial = cycle(&inp, &order, false, None, &mut checker, report);
    nn_baton::parallel::configure_threads(Some(THREADS));
    let wall_ms = t_wall.elapsed().as_secs_f64() * 1e3;

    let all = || plain.iter().chain(&bare).chain(&traced).chain(&serial);
    let ms = |jobs: &[(usize, Job)]| jobs.iter().map(|(_, j)| j.ms()).collect::<Vec<_>>();
    let sweep_ms = |jobs: &[(usize, Job)]| -> f64 {
        jobs.iter().map(|(_, j)| j.sweep.as_secs_f64() * 1e3).sum()
    };
    let n = bare.len() as f64;
    let points: usize = bare.iter().map(|(_, j)| j.points.len()).sum();
    let units: Vec<f64> = traced
        .iter()
        .flat_map(|(_, j)| unit_wall_ms(&j.audit))
        .collect();
    report.check(!units.is_empty(), || "no unit records in the audit".into());
    report.set("dse.full_sweep_ms", sweep_ms(&bare) / n);
    report.set("dse.audit_ms", (sweep_ms(&plain) - sweep_ms(&bare)) / n);
    report.set(
        "dse.pareto_ms",
        all()
            .map(|(_, j)| j.pareto.as_secs_f64() * 1e3)
            .sum::<f64>()
            / (4.0 * n),
    );
    report.set("dse.unit_ms_p50", pct(&units, 50.0));
    report.set("dse.unit_ms_max", pct(&units, 100.0));
    report.set(
        "parallel.efficiency",
        sweep_ms(&serial) / (THREADS as f64 * sweep_ms(&bare)),
    );
    report.set("alloc.allocs_per_point", allocs as f64 / points as f64);
    report.set("alloc.peak_live_mb", peak_live as f64 / (1024.0 * 1024.0));
    report.set("sweep.points", points as f64);
    report.set(
        "sweep.front_size",
        bare.iter().map(|(_, j)| j.front.len() as f64).sum(),
    );
    for (i, j) in &bare {
        let name = match inp.models[*i].name() {
            "darknet19" => "sweep.optimum.darknet19",
            "vgg16" => "sweep.optimum.vgg16",
            _ => "sweep.optimum.resnet50",
        };
        report.set(name, optimum_code(&j.points, &inp));
    }
    let timed: f64 = all().map(|(_, j)| j.ms()).sum();
    report.set("trace.coverage", timed / wall_ms);
    report.set(
        "trace.overhead",
        pct(&ms(&traced), 50.0) / pct(&ms(&plain), 50.0) - 1.0,
    );
    Ok(())
}

/// `wall_us` of every `unit` record in an audit stream, in ms.
fn unit_wall_ms(audit: &[u8]) -> Vec<f64> {
    String::from_utf8_lossy(audit)
        .lines()
        .filter(|l| l.starts_with("{\"record\":\"unit\""))
        .filter_map(|l| json::parse_flat_object(l).ok()?.get("wall_us")?.as_f64())
        .map(|us| us / 1e3)
        .collect()
}

/// The minimum-EDP geometry within the area limit, as the decimal digits
/// `NP NC L P` (two per field): 4-4-16-8 reads 4041608.
fn optimum_code(points: &[DesignPoint], inp: &Inputs) -> f64 {
    let limit = inp.opts.area_limit_mm2.unwrap_or(f64::INFINITY);
    points
        .iter()
        .filter(|p| p.chiplet_area_mm2 <= limit)
        .min_by(|a, b| a.edp(&inp.tech).total_cmp(&b.edp(&inp.tech)))
        .map_or(0.0, |p| {
            let (np, nc, l, pp) = p.geometry;
            f64::from(np) * 1e6 + f64::from(nc) * 1e4 + f64::from(l) * 1e2 + f64::from(pp)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_concatenate_to_the_whole_sweep() {
        let mut opts = SweepOptions::default();
        opts.space.memory.a_l1.truncate(2);
        opts.space.memory.w_l1.truncate(2);
        let inp = Inputs {
            models: vec![zoo::alexnet(64)],
            opts,
            tech: Technology::paper_16nm(),
        };
        let whole = job(&inp.models[0], &inp, true, None);
        let cal = Calibrator::default();
        let sliced = job(&inp.models[0], &inp, true, Some(&cal));
        assert_eq!(slices(&inp.opts).len(), 4);
        assert!(!whole.points.is_empty());
        assert_eq!(sliced.points, whole.points);
        assert_eq!(sliced.front, whole.front);
        assert!(audit_points_match(&sliced.audit, &sliced.points, &inp.tech));
        assert!(sliced.norm_ms.is_some_and(|ms| ms > 0.0) && whole.norm_ms.is_none());
    }

    #[test]
    fn audit_check_rejects_a_changed_point() {
        let tech = Technology::paper_16nm();
        let p = DesignPoint {
            geometry: (4, 4, 16, 8),
            memory: (1024, 2048, 4096, 8192),
            chiplet_area_mm2: 2.5,
            energy_pj: 1.0e6,
            cycles: 1000,
        };
        let rec = |p: &DesignPoint| {
            AuditRecord::Point {
                geometry: p.geometry,
                memory: p.memory,
                chiplet_area_mm2: p.chiplet_area_mm2,
                energy_pj: p.energy_pj,
                cycles: p.cycles,
                edp_js: p.edp(&tech),
            }
            .to_json()
        };
        let audit = format!("{{\"record\":\"unit\",\"wall_us\":5}}\n{}\n", rec(&p));
        assert!(audit_points_match(
            audit.as_bytes(),
            std::slice::from_ref(&p),
            &tech
        ));
        let mut q = p.clone();
        q.cycles += 1;
        assert!(!audit_points_match(audit.as_bytes(), &[q], &tech));
        assert!(!audit_points_match(
            audit.as_bytes(),
            &[p.clone(), p],
            &tech
        ));
        assert_eq!(unit_wall_ms(audit.as_bytes()), vec![0.005]);
    }
}
