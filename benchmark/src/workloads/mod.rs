//! The four workloads and what they share: run settings, the latency
//! recorder, and process facts (peak memory, filesystem type).

pub mod bulk_closure;
pub mod churn_durable;
pub mod describe_mix;
pub mod univ_read;

use crate::oracle::fnv1a;
use crate::report::Outcome;
use crate::stats::{micros, quantile, sorted};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// The timed phase is sized for this long at the seed commit: op counts
    /// are `rate × seconds` with the per-workload rates frozen in each
    /// workload's module, so the work (and every exact counter) is a
    /// function of `(seed, seconds)` alone.
    pub seconds: f64,
    pub trace: bool,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    /// Where `churn_durable` keeps its store: a real directory on disk.
    pub data_dir: PathBuf,
    pub results_dir: PathBuf,
}

impl RunConfig {
    /// `rate` ops per second of `--seconds`, at least `floor`.
    pub fn ops(&self, rate: f64, floor: usize) -> usize {
        ((rate * self.seconds).round() as usize).max(floor)
    }

    /// 5 % warm-up ops, run untimed as part of set-up.
    pub fn warmup(&self, ops: usize) -> usize {
        (ops / 20).max(1)
    }
}

pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "univ_read" => univ_read::run(cfg),
        "describe_mix" => describe_mix::run(cfg),
        "churn_durable" => churn_durable::run(cfg),
        "bulk_closure" => bulk_closure::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `setup` `reps` times and keeps the last state; returns it with the
/// median set-up time in seconds.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let (s, d) = timed(&mut setup);
        state = Some(s?);
        times.push(d.as_secs_f64());
    }
    Ok((
        state.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Latency samples in µs, in op order.
#[derive(Clone, Debug, Default)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.0.push(micros(d));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_seconds(&self) -> f64 {
        self.0.iter().sum::<f64>() / 1e6
    }

    /// Median over all samples.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.0)
    }

    /// Reports `<prefix>_p50_us` and `<prefix>_p95_us`, both over every
    /// sample of the phase. A class in which every op failed has no samples
    /// and reports nothing: the result line then fails for want of the name.
    pub fn report(&self, out: &mut Outcome, prefix: &str) {
        if self.0.is_empty() {
            return;
        }
        let v = sorted(self.0.clone());
        out.metric(format!("{prefix}_p50_us"), self.median(), v.len());
        out.metric(format!("{prefix}_p95_us"), quantile(&v, 0.95), v.len());
    }
}

/// Folds every rendered answer, in op order, into one digest, so two
/// commits can be diffed on what they answered.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnswersDigest(pub u64);

impl AnswersDigest {
    pub fn fold(&mut self, rendered: &str) {
        self.0 = (self.0.rotate_left(5) ^ fnv1a(rendered.as_bytes()))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path`, from `/proc/mounts` (longest
/// mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Reports the metrics every workload has, after its timed pass.
pub fn report_common(out: &mut Outcome, setup_s: f64, ops: usize, busy_seconds: f64) {
    out.metric("setup_s", setup_s, 1);
    out.metric("ops_per_s", ops as f64 / busy_seconds, ops);
    out.metric("peak_rss_mb", peak_rss_mb(), 1);
    let failed_share = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    out.metric("failed_share", failed_share, out.checks.attempted as usize);
}
