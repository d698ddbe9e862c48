//! # perfbench — the CauSumX benchmark
//!
//! Three seeded, closed-loop workloads run against the engine's public
//! API with the default configuration (Exact numerics, LP-rounding
//! selection, one scheduler worker per core):
//!
//! * `so-adhoc` — one analyst sends distinct WHERE-varied statements over
//!   30k SO rows. Chosen because the treatment walk dominates, selection
//!   is under 1 % and serve is absent: `mining` work shows here, and it
//!   is the no-change control for `lpsolve` and `serve`.
//! * `synth-wide` — one client queries 100k synthetic rows in 500
//!   groups. Chosen because with hundreds of groups the LP is most of
//!   each query and view materialization is the next cost: `lpsolve`
//!   and `table` work shows here.
//! * `serve-mixed` — two clients send `POST /query` over loopback to
//!   `serve::spawn` on 4k SO rows; two thirds repeat four respelled
//!   statements, a third are unique. Chosen because queries are cheap, so
//!   transport, admission, prepare and the prepared-statement cache (hits
//!   and LRU inserts/evictions) are a visible share; the only workload
//!   that exercises `serve`.
//!
//! An untraced run measures the end-to-end metrics; a traced run
//! (`trace = true`) repeats the same measurement, then replays the same
//! statements layer by layer with spans (see [`trace`]) and reports the
//! per-layer metrics. Every answer is checked in both.

pub mod stream;
pub mod trace;

mod direct;
mod layers;
mod served;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use causal::Dag;
use causumx::{ConfigBuilder, Session, Summary};
use table::Table;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoAdhoc,
    SynthWide,
    ServeMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::SoAdhoc, Workload::SynthWide, Workload::ServeMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoAdhoc => "so-adhoc",
            Workload::SynthWide => "synth-wide",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients the workload runs.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Table rows, and synthetic tuples per group.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub rows: usize,
    pub tuples_per_group: usize,
}

impl Workload {
    /// Input size at `scale`.
    pub fn size(self, scale: Scale) -> Size {
        let full = scale == Scale::Full;
        match self {
            Workload::SoAdhoc => Size {
                rows: if full { 30_000 } else { 1_500 },
                tuples_per_group: 0,
            },
            Workload::SynthWide => Size {
                rows: if full { 100_000 } else { 4_000 },
                tuples_per_group: if full { 200 } else { 80 },
            },
            Workload::ServeMixed => Size {
                rows: if full { 4_000 } else { 800 },
                tuples_per_group: 0,
            },
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, reported by every run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("table.view_ms", "ms"),
    ("table.groups", "count"),
    ("core.prepare_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.report_bytes", "bytes"),
    ("core.prepared_cache_hit_rate", "ratio"),
    ("core.prepared_cache_evictions", "count"),
    ("core.fd_closures_per_query", "count"),
    ("core.backdoor_walks_per_query", "count"),
    ("mining.grouping_ms", "ms"),
    ("mining.grouping_patterns", "count"),
    ("mining.treatment_ms", "ms"),
    ("mining.cate_evaluations", "count"),
    ("mining.downdates", "count"),
    ("mining.regathers", "count"),
    ("mining.candidates", "count"),
    ("mining.candidate_yield", "ratio"),
    ("lpsolve.selection_ms", "ms"),
    ("lpsolve.lp_ms", "ms"),
    ("lpsolve.rounding_ms", "ms"),
    ("lpsolve.fallback_frac", "ratio"),
    ("serve.handle_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.unique_p50_ms", "ms"),
    ("serve.rejected_frac", "ratio"),
    ("trace.query_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Queries (or requests) issued, across every pass.
    pub attempted: usize,
    /// Of those, the ones that errored, panicked, were refused or failed
    /// an answer check.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable context lines (tail percentile, layer shares, …).
    pub notes: Vec<String>,
    /// Every recorded span, one JSON object per line (traced runs).
    pub spans_jsonl: String,
}

impl Outcome {
    /// True when something ran and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Count one attempted operation; `Err` counts as a failure.
    pub(crate) fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    pub(crate) fn metric(&mut self, name: &'static str, value: f64) {
        let (list, unit) = match END_TO_END.iter().find(|(n, _)| *n == name) {
            Some((_, unit)) => (&mut self.end_to_end, *unit),
            None => {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, u)| *u)
                    .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
                (&mut self.per_layer, unit)
            }
        };
        list.push(Metric { name, value, unit });
    }

    pub(crate) fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    match opts.workload {
        Workload::SoAdhoc | Workload::SynthWide => direct::run(opts, &mut out),
        Workload::ServeMixed => served::run(opts, &mut out),
    }
    out
}

/// Generate the workload's table and DAG from `seed`.
pub(crate) fn generate(w: Workload, scale: Scale, seed: u64) -> (Table, Dag) {
    let size = w.size(scale);
    let ds = match w {
        Workload::SoAdhoc | Workload::ServeMixed => datagen::so::generate(size.rows, seed),
        Workload::SynthWide => datagen::synthetic::generate(
            datagen::synthetic::SynthParams {
                n: size.rows,
                tuples_per_group: size.tuples_per_group,
                ..Default::default()
            },
            seed,
        ),
    };
    (ds.table, ds.dag)
}

/// A session under the default configuration.
pub(crate) fn new_session(table: Table, dag: Dag) -> Session {
    Session::new(
        table,
        dag,
        ConfigBuilder::new()
            .build()
            .expect("the default configuration is valid"),
    )
}

/// Set-ups per run: at least [`SETUPS_MIN`], then more until
/// [`SETUP_SECONDS`] of set-up time are measured or [`SETUPS_MAX`] are
/// done. `setup_s` is their median. Spreading them over seconds, not a
/// fraction of one, keeps a short burst of host noise from deciding it.
const SETUPS_MIN: usize = 21;
const SETUPS_MAX: usize = 200;
const SETUP_SECONDS: f64 = 5.0;

/// Time `build` repeatedly (see [`SETUPS_MIN`]), record the median as
/// `setup_s`, and return the last result. Each earlier result is dropped
/// before the next build starts, so only one copy is ever alive and the
/// process's peak memory is the workload's own.
pub(crate) fn timed_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUPS_MIN
        || (times.len() < SETUPS_MAX && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(kept.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    out.metric("setup_s", median(&times));
    out.note(format!("setup_s is the median of {} set-ups", times.len()));
    kept.expect("SETUPS_MIN > 0")
}

/// The summary fingerprint that must repeat bit-for-bit: CATE
/// evaluations, candidates, covered groups and the bits of the total
/// weight.
pub(crate) type Fingerprint = (usize, usize, usize, u64);

/// Check the selection contract on `s` and return its fingerprint:
/// `covered ≤ m`, and `covered ≥ ⌈θ·m⌉` whenever the summary says it is
/// feasible.
pub(crate) fn check_summary(s: &Summary, theta: f64) -> Result<Fingerprint, String> {
    if s.covered > s.m {
        return Err(format!("covered {} > m {}", s.covered, s.m));
    }
    let required = (theta * s.m as f64).ceil() as usize;
    if s.feasible && s.covered < required {
        return Err(format!(
            "feasible summary covers {} < ⌈θ·m⌉ = {required}",
            s.covered
        ));
    }
    Ok((
        s.cate_evaluations,
        s.candidates,
        s.covered,
        s.total_weight.to_bits(),
    ))
}

/// Run `f`, turning a panic into an error message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it:
/// `(value, percentile, samples)`. With ten or fewer samples it is the
/// maximum.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => (0.0, 100.0, 0),
        1..=10 => (s[n - 1], 100.0, n),
        _ => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n),
    }
}

/// Record the end-to-end latency metrics of one measured pass.
pub(crate) fn latency_metrics(out: &mut Outcome, latencies: &[f64], completed: usize, secs: f64) {
    let (tail_ms, pct, n) = tail(latencies);
    out.metric("query_p50_ms", median(latencies));
    out.metric("query_tail_ms", tail_ms);
    out.metric("queries_per_s", completed as f64 / secs);
    let beyond = if n > 10 { 10 } else { 0 };
    out.note(format!(
        "query_tail_ms is p{pct:.1} of {n} samples ({beyond} beyond it)"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 90.0).abs() < 1e-12);
        assert_eq!(tail(&[3.0, 1.0]).0, 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
