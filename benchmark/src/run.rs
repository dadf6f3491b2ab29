//! One run of one workload: set up, measure, check, report.

use crate::accuracy::{self, Accuracy};
use crate::bench::{Harness, Samples};
use crate::calib::{Calibration, Guard};
use crate::host::KeepAwake;
use crate::json::Json;
use crate::layers::{self, Readings};
use crate::metrics::{self, Def};
use crate::model::{self, Oracle, Workload};
use crate::stats::{self, Segmented};
use crate::stream::Kind;
use crate::topology::RunDir;
use crate::traced;
use entropydb_core::plan::QueryRequest;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A set-up faster than this is repeated and its median reported.
const SETUP_REPEAT_BELOW_S: f64 = 1.0;
const SETUP_REPEATS: usize = 5;
const WARM_UP_REQUESTS: usize = 300;
/// A pass the host-noise guard flags is measured again, this many times at
/// most. (Three would not fit the driver's time cap on a noisy day.)
const MAX_TRIES: usize = 2;
/// Waiting for a quiet host and all passes together take at most this many
/// times `--seconds`.
const MEASURE_BUDGET: f64 = 2.3;
/// The traced pass runs this share of `--seconds`.
const TRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `entropydb-serve` and `entropydb-cluster` were built.
    pub bin_dir: PathBuf,
    /// `benchmark/target`: scratch directories and result files live here.
    pub work_dir: PathBuf,
    pub git_rev: String,
    pub git_dirty: bool,
    /// CPUs the machine offered before the process confined itself to one.
    pub machine_cpus: usize,
    /// Whether that confinement took hold (see `host`).
    pub confined: bool,
}

/// Everything one run found out.
#[derive(Debug)]
pub struct Record {
    pub options: Options,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Segment inter-quartile spread beside each timing metric.
    pub spreads: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub noisy: bool,
    pub tries: usize,
}

impl Record {
    fn defs(&self) -> &'static [Def] {
        if self.options.trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }

    /// Every metric of this run's kind has a finite reading, end-to-end
    /// ones a non-zero one, and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.defs().iter().all(|def| {
                self.metrics
                    .get(def.name)
                    .is_some_and(|v| v.is_finite() && (def.bound.is_none() || *v != 0.0))
            })
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.defs().iter().map(|def| {
            let value = self.metrics.get(def.name).copied().unwrap_or(f64::NAN);
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.to_string())),
                ]),
            )
        }))
    }

    /// The line the driver reads: exactly these four keys.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .encode()
    }

    /// The full record `compare` reads back, on one line.
    pub fn to_json(&self) -> Json {
        let o = &self.options;
        Json::obj([
            ("workload", Json::Str(o.workload.name().to_string())),
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds)),
            ("trace", Json::Bool(o.trace)),
            ("git_rev", Json::Str(o.git_rev.clone())),
            ("git_dirty", Json::Bool(o.git_dirty)),
            ("machine_cpus", Json::Num(o.machine_cpus as f64)),
            ("confined_to_one_cpu", Json::Bool(o.confined)),
            ("noisy", Json::Bool(self.noisy)),
            ("tries", Json::Num(self.tries as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", self.metrics_json()),
            (
                "spreads",
                Json::obj(self.spreads.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
        ])
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        let o = &self.options;
        println!(
            "# {} seed={} seconds={} trace={} rev={}{} tries={}{}",
            o.workload.name(),
            o.seed,
            o.seconds,
            u8::from(o.trace),
            o.git_rev,
            if o.git_dirty { "+dirty" } else { "" },
            self.tries,
            if self.noisy { " NOISY" } else { "" },
        );
        for def in self.defs() {
            let value = self.metrics.get(def.name).copied().unwrap_or(f64::NAN);
            match self.spreads.get(def.name) {
                Some(spread) => println!(
                    "{:<36} {:>16.6} {:<6} segment spread {:.3}",
                    def.name, value, def.unit, spread
                ),
                None => println!("{:<36} {:>16.6} {}", def.name, value, def.unit),
            }
        }
        println!("ops attempted {} failed {}", self.attempted, self.failed);
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
    }
}

/// The end-to-end timing metrics of one measured pass.
fn timing_metrics(samples: &Samples) -> Vec<(&'static str, Segmented)> {
    let fresh = |kind: Kind| stats::segmented(&samples.fresh_us[kind.index()]);
    vec![
        ("point_p50_us", fresh(Kind::Point)),
        ("range_p50_us", fresh(Kind::Range)),
        ("groupby_p50_us", fresh(Kind::GroupBy)),
        ("topk_p50_us", fresh(Kind::TopK)),
        ("batch16_p50_us", stats::segmented(&samples.batch16_us)),
        ("repeat_p50_us", stats::segmented(&samples.repeat_point_us)),
        (
            "append_visible_p50_ms",
            stats::segmented(&samples.append_visible_ms),
        ),
    ]
}

/// The accuracy trio over the wire; every answer is also compared with the
/// oracle's encoded line.
fn wire_accuracy(
    harness: &mut Harness<'_>,
    oracle: &Oracle,
    table: &entropydb_storage::Table,
) -> Result<Accuracy, String> {
    let deployed = harness.deployed;
    accuracy::evaluate(table, &deployed.dataset, |pred| {
        let request = QueryRequest::count(pred.clone());
        match harness.client.execute(&request) {
            Ok(response) => {
                let want = oracle.answer_line(&request);
                if response.encode() == want {
                    harness.ops.ok();
                } else {
                    harness.ops.fail(format!(
                        "accuracy answer differs: {}: wire {:?}, oracle {want:?}",
                        request.encode(),
                        response.encode()
                    ));
                }
                response.estimate().map_or(0.0, |e| e.expectation)
            }
            Err(e) => {
                harness.ops.fail(format!("accuracy query: {e}"));
                0.0
            }
        }
    })
}

fn loadgen_readings(
    samples: &Samples,
    timings: &[(&'static str, Segmented)],
    calibration: &Calibration,
    out: &mut Readings,
) {
    for (kind, name) in Kind::ALL.into_iter().zip([
        "loadgen.point_p99_us",
        "loadgen.range_p99_us",
        "loadgen.groupby_p99_us",
        "loadgen.topk_p99_us",
    ]) {
        out.insert(name, stats::p99(&samples.fresh_us[kind.index()]));
    }
    out.insert("loadgen.repeat_p99_us", stats::p99(&samples.repeat_any_us));
    let (pct, tail_ms) = stats::tail(&samples.append_visible_ms);
    out.insert("loadgen.append_visible_tail_ms", tail_ms);
    out.insert("loadgen.append_visible_tail_pct", pct);
    for (kind, name) in Kind::ALL.into_iter().zip([
        "loadgen.samples_point",
        "loadgen.samples_range",
        "loadgen.samples_groupby",
        "loadgen.samples_topk",
    ]) {
        out.insert(name, samples.fresh_us[kind.index()].len() as f64);
    }
    out.insert(
        "loadgen.samples_repeat",
        samples.repeat_point_us.len() as f64,
    );
    out.insert(
        "loadgen.samples_append",
        samples.append_visible_ms.len() as f64,
    );
    out.insert(
        "loadgen.segment_iqr_share",
        timings.iter().map(|(_, s)| s.iqr_share).fold(0.0, f64::max),
    );
    out.insert("loadgen.calib_cpu_ms", calibration.cpu_ms);
    out.insert("loadgen.calib_echo_rtt_us", calibration.echo_rtt_us);
}

/// The traced pass and every per-layer reading; writes the span file.
fn per_layer_metrics(
    context: &layers::Context<'_>,
    harness: &mut Harness<'_>,
    timings: &[(&'static str, Segmented)],
    calibration: &Calibration,
    options: &Options,
) -> Result<Readings, String> {
    let point_p50_us = timings[0].1.median;
    let traced = traced::run(harness, context.oracle, options.seconds * TRACED_SHARE);
    let mut metrics = layers::measure(context, &mut harness.client, point_p50_us)?;
    loadgen_readings(context.samples, timings, calibration, &mut metrics);
    let accounted = metrics["server.ping_rtt_us"]
        + traced.point_decode_request_us
        + traced.point_engine_execute_us
        + traced.point_encode_response_us;
    metrics.insert(
        "loadgen.unaccounted_share_point",
        (traced.point_execute_us - accounted).abs() / traced.point_execute_us,
    );
    metrics.insert(
        "loadgen.trace_overhead_share",
        (traced.point_execute_us - point_p50_us) / point_p50_us,
    );
    let workload = options.workload.name();
    let results = options.work_dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let file = results.join(format!("{workload}.trace.json"));
    std::fs::write(&file, traced.trace.to_json(workload).encode())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(metrics)
}

pub fn run(options: Options, process_start: Instant) -> Result<Record, String> {
    let workload = options.workload;
    let awake = KeepAwake::start();
    let run_dir = RunDir::create(&options.work_dir).map_err(|e| e.to_string())?;
    let mut guard = Guard::open(&options.work_dir).map_err(|e| format!("calibration: {e}"))?;

    // Set-up, never cached; cheap ones are repeated for a steadier median.
    let mut deployed = model::setup(
        workload,
        &options.bin_dir,
        &run_dir.path().join("setup-0"),
        process_start,
    )?;
    let mut setup_s = vec![deployed.times.total_s];
    while setup_s[0] < SETUP_REPEAT_BELOW_S && setup_s.len() < SETUP_REPEATS {
        drop(deployed);
        let dir = run_dir.path().join(format!("setup-{}", setup_s.len()));
        deployed = model::setup(workload, &options.bin_dir, &dir, Instant::now())?;
        setup_s.push(deployed.times.total_s);
    }
    let (oracle, load_s) = Oracle::load(&deployed)?;
    let mut harness = Harness::new(&deployed, options.seed)?;
    harness.warm_up(WARM_UP_REQUESTS);

    // The measured pass, under the host-noise guard: wait (briefly) for a
    // quiet host, measure, and measure again if the host was not quiet on
    // both sides of the pass. Waits and passes together stay inside
    // `MEASURE_BUDGET` × seconds. A live topology has changed state after
    // one pass, so it is never measured twice.
    let mut table = deployed.dataset.table.clone();
    let pass = Duration::from_secs_f64(options.seconds);
    let budget_end = Instant::now() + pass.mul_f64(MEASURE_BUDGET);
    let mut tries = 0;
    let (samples, calibration, noisy) = loop {
        tries += 1;
        let passes_left = (MAX_TRIES + 1 - tries) as u32;
        let before = guard
            .wait_for_quiet(budget_end - pass * passes_left)
            .map_err(|e| format!("calibration: {e}"))?;
        let samples = if workload.is_live() {
            let (samples, appended) = harness.measure_live(options.seconds);
            harness.ops.absorb(appended.ops);
            harness.check_live_count(appended.rows.len());
            oracle.append_and_fold(&appended.rows)?;
            table
                .append_rows(&appended.rows)
                .map_err(|e| e.to_string())?;
            samples
        } else {
            harness.measure_static(options.seconds)
        };
        let after = guard.read().map_err(|e| format!("calibration: {e}"))?;
        let noisy = !(guard.is_quiet(&before) && guard.is_quiet(&after));
        if noisy {
            eprintln!("pass {tries}: host not quiet: before {before:?}, after {after:?}");
        }
        if !noisy || workload.is_live() || tries == MAX_TRIES {
            break (samples, after, noisy);
        }
        harness.checks.clear();
    };
    guard.save().map_err(|e| format!("host baseline: {e}"))?;
    harness.verify(&oracle);
    let accuracy = wire_accuracy(&mut harness, &oracle, &table)?;

    let timings = timing_metrics(&samples);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spreads = BTreeMap::new();
    if options.trace {
        let context = layers::Context {
            deployed: &deployed,
            oracle: &oracle,
            samples: &samples,
            seed: options.seed,
            load_s,
            table: &table,
        };
        metrics = per_layer_metrics(&context, &mut harness, &timings, &calibration, &options)?;
    } else {
        metrics.insert("setup_s", stats::median(&setup_s));
        for (name, timing) in &timings {
            if timing.samples == 0 {
                harness.ops.fail(format!("no samples for {name}"));
            }
            metrics.insert(name, timing.median);
            spreads.insert(*name, timing.iqr_share);
        }
        metrics.insert("rel_err_heavy", accuracy.rel_err_heavy);
        metrics.insert("rel_err_light", accuracy.rel_err_light);
        metrics.insert("f_measure_null", accuracy.f_measure_null);
        metrics.insert("summary_bytes", deployed.summary_bytes as f64);
    }
    let ops = std::mem::take(&mut harness.ops);
    if options.trace {
        metrics.insert("loadgen.ops_attempted", ops.attempted as f64);
        metrics.insert("loadgen.ops_failed", ops.failed as f64);
    }
    // Unconfined or with a halting CPU, the host's wake-ups are in every
    // sample.
    let noisy = noisy | !awake.finish() | !options.confined;
    Ok(Record {
        options,
        metrics,
        spreads,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        noisy,
        tries,
    })
}
