//! The repository benchmark: three paper-shaped workloads, each timed end to
//! end through the public API with its output checked on every run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <jan2020_ndjson|jan2020_large_spill|oct2016_window1h> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Human-readable lines come first; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). The exit code is non-zero when any
//! run's output check fails. See `perfbench/README.md` for what each
//! workload and metric means.

mod digest;
mod metrics;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER};
use stats::{median, tail_percentile};
use workloads::{Input, Workload, RANKS};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Peak-RSS probe children per run; `peak_rss_mb` is their median.
const RSS_PROBES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as a peak-RSS probe child over this input file.
    rss_child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut rss_child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--rss-child" => rss_child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        rss_child,
    })
}

/// Scratch directory for generated inputs and shuffle spill segments,
/// inside the working directory and removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Self {
        let dir = std::env::current_dir()
            .expect("working directory")
            .join(".perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // only succeeds once no other run is using it
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn llc_size() -> String {
    // the highest-level cache of cpu0, as sysfs spells it (e.g. "107520K")
    (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            Some(format!("L{} {}", level.trim(), size.trim()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak-RSS probe child: load the input, reset the high-water mark, make the
/// one timed call, and print the output digest and VmHWM in kB.
fn rss_child(args: &Args, input: &Path, nranks: usize) {
    let input = workloads::child_input(args.workload, input);
    // "5" resets VmHWM to the current RSS, so loading the input stays in
    // the figure and nothing from before it does
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset VmHWM ({e}); peak includes input loading");
    }
    let outcome = args.workload.run(&input, nranks);
    let kb = obs::peak_rss_kb().expect("read VmHWM");
    println!("{:016x} {kb}", digest::digest(&outcome.out));
}

/// Spawn `RSS_PROBES` probe children one after another; median peak in MiB.
fn probe_peak_rss(args: &Args, input: &Input, reference: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .arg("--rss-child")
            .arg(&input.path)
            .output()
            .map_err(|e| format!("spawn RSS probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "RSS probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let (digest, kb) = text
            .trim()
            .split_once(' ')
            .ok_or_else(|| format!("unreadable RSS probe output {text:?}"))?;
        if u64::from_str_radix(digest, 16) != Ok(reference) {
            return Err(format!(
                "RSS probe output digest {digest} differs from the reference"
            ));
        }
        let kb: f64 = kb.parse().map_err(|e| format!("RSS probe kB: {e}"))?;
        peaks.push(kb / 1024.0);
    }
    let all: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
    println!("# peak_rss_mb samples {}", all.join(" "));
    Ok(median(&peaks))
}

/// Checked runs of one kind, with their wall times.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    secs: Vec<f64>,
}

impl Tally {
    fn record(&mut self, secs: f64, check: Result<(), String>) {
        self.attempted += 1;
        match check {
            Ok(()) => self.secs.push(secs),
            Err(e) => {
                self.failed += 1;
                println!("# FAILED run {}: {e}", self.attempted);
            }
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nranks = RANKS.min(threads);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build the rayon pool");
    if let Some(input) = &args.rss_child {
        pool.install(|| rss_child(&args, input, nranks));
        return;
    }
    let work = WorkDir::create();
    // shuffle spill segments land in the temp dir; keep them in the work dir
    // (set before any thread is spawned, and inherited by probe children)
    std::env::set_var("TMPDIR", &work.0);
    let code = pool.install(|| bench(&args, &work.0, threads, nranks));
    drop(work);
    std::process::exit(code);
}

fn bench(args: &Args, dir: &Path, threads: usize, nranks: usize) -> i32 {
    let w = args.workload;
    let mut setup_secs = Vec::new();
    let mut input: Option<Input> = None;
    for _ in 0..SETUP_REPS {
        drop(input.take()); // free the previous repetition's input first
        let t = Instant::now();
        let fresh = w.prepare(args.seed, dir);
        setup_secs.push(t.elapsed().as_secs_f64());
        input = Some(fresh);
    }
    let input = input.expect("at least one set-up");
    let t = Instant::now();
    let reference = digest::digest(&w.reference(&input));
    let reference_secs = t.elapsed().as_secs_f64();

    println!("# workload {} seed {}", w.name(), args.seed);
    println!(
        "# env nproc {threads} rayon_pool {threads} rayon_current_num_threads {} ranks {nranks} \
         rustc \"{}\" llc \"{}\"",
        rayon::current_num_threads(),
        env!("PERFBENCH_RUSTC"),
        llc_size()
    );
    println!(
        "# input comments {} bytes {} reference_digest {reference:016x} reference_s {reference_secs:.4}",
        input.comments, input.bytes
    );

    // warm-up: caches, page faults and lazy statics, checked but not timed
    let mut warm = Tally::default();
    let outcome = w.run(&input, nranks);
    let recall = w.planted_recall(&input, &outcome);
    warm.record(0.0, w.check(&input, &outcome, reference));
    drop(outcome);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (attempted, failed) = if args.trace {
        let (plain, traced, layers) = traced_loop(args, &input, reference, nranks, deadline);
        report_times("untraced run_s", &plain.secs);
        report_times("traced run_s", &traced.secs);
        let trace_run = median_or_nan(&traced.secs);
        metrics.insert("trace.run_s", trace_run);
        metrics.insert(
            "trace.overhead_ratio",
            trace_run / median_or_nan(&plain.secs),
        );
        for (name, values) in &layers {
            let m = PER_LAYER.iter().find(|m| m.name == name.as_str());
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "# layer {name} = {} {} ({}; {lo}..{hi} over {} traced calls)",
                median(values),
                m.map_or("count", |m| m.unit),
                m.map_or("not in BENCHMARK.json", |m| m.class.describe()),
                values.len()
            );
        }
        for m in PER_LAYER {
            let v = layers.get(m.name).map_or(0.0, |v| median(v));
            metrics.entry(m.name).or_insert(v);
        }
        (
            warm.attempted + plain.attempted + traced.attempted,
            warm.failed + plain.failed + traced.failed,
        )
    } else {
        let mut runs = Tally::default();
        while Instant::now() < deadline || runs.attempted == 0 {
            let t = Instant::now();
            let outcome = w.run(&input, nranks);
            let secs = t.elapsed().as_secs_f64();
            runs.record(secs, w.check(&input, &outcome, reference));
        }
        report_times("run_s", &runs.secs);
        let run_s = median_or_nan(&runs.secs);
        let mut failed = warm.failed + runs.failed;
        let peak = probe_peak_rss(args, &input, reference).unwrap_or_else(|e| {
            println!("# FAILED RSS probe: {e}");
            failed += 1;
            f64::NAN
        });
        metrics.insert("comments_per_s", input.comments as f64 / run_s);
        metrics.insert("run_s", run_s);
        metrics.insert("peak_rss_mb", peak);
        metrics.insert("setup_s", median(&setup_secs));
        metrics.insert("planted_recall", recall);
        (warm.attempted + runs.attempted + 1, failed)
    };
    let all: Vec<String> = setup_secs.iter().map(|s| format!("{s:.4}")).collect();
    println!("# setup_s samples {}", all.join(" "));

    let correct = failed == 0;
    let units = END_TO_END.iter().chain(PER_LAYER).map(|m| (m.name, m.unit));
    let body: Vec<String> = units
        .filter_map(|(name, unit)| {
            let v = metrics.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Alternate untraced and traced runs until the deadline. Returns both
/// tallies and, per layer metric, one value per traced run.
fn traced_loop(
    args: &Args,
    input: &Input,
    reference: u64,
    nranks: usize,
    deadline: Instant,
) -> (Tally, Tally, BTreeMap<String, Vec<f64>>) {
    let w = args.workload;
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    while Instant::now() < deadline || traced.attempted == 0 {
        let t = Instant::now();
        let outcome = w.run(input, nranks);
        let secs = t.elapsed().as_secs_f64();
        plain.record(secs, w.check(input, &outcome, reference));
        drop(outcome);

        obs::reset();
        obs::Obs::enable();
        let t = Instant::now();
        let (outcome, times) = w.run_traced(input, nranks);
        let secs = t.elapsed().as_secs_f64();
        obs::Obs::disable();
        let check = w.check(input, &outcome, reference);
        if check.is_ok() {
            for (name, v) in metrics::layer_values(input, &outcome, &times, &obs::snapshot()) {
                layers.entry(name).or_default().push(v);
            }
        }
        traced.record(secs, check);
    }
    (plain, traced, layers)
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

fn report_times(label: &str, secs: &[f64]) {
    if secs.is_empty() {
        println!("# {label}: no successful runs");
        return;
    }
    let tail = tail_percentile(secs, 10).map_or_else(
        || "no percentile above the median has 10 samples beyond it".to_string(),
        |(p, v)| format!("p{p} {v:.4}"),
    );
    let (lo, hi) = secs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    println!(
        "# {label}: median {:.4} s, {tail}, min {lo:.4}, max {hi:.4}, n {}",
        median(secs),
        secs.len()
    );
    let all: Vec<String> = secs.iter().map(|s| format!("{s:.4}")).collect();
    println!("# {label} samples {}", all.join(" "));
}

/// JSON has no NaN or infinity; a metric that could not be measured is null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
