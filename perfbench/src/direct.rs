//! `so-adhoc` and `synth-wide`: one client calling the public API in a
//! closed loop — prepare, run, render to JSON — cycling through a seeded
//! stream of distinct statements, so every statement's summary
//! fingerprint is checked against its earlier passes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use causumx::Session;

use crate::layers::{layer_metrics, traced_query};
use crate::trace::Trace;
use crate::{
    check_summary, generate, guarded, latency_metrics, median, new_session, served, stream,
    timed_setup, Fingerprint, Options, Outcome, Workload,
};

/// Statements whose serve-layer cost a traced run probes (each sent twice).
const SERVE_PROBE_STATEMENTS: usize = 4;

/// Prepare, run and render one statement, as the workload's client does.
fn run_query(session: &Session, sql: &str) -> Result<Fingerprint, String> {
    guarded(|| {
        let prepared = session
            .sql(sql)
            .map_err(|e| format!("prepare `{sql}`: {e}"))?;
        let summary = prepared
            .try_run()
            .map_err(|e| format!("run `{sql}`: {e}"))?;
        black_box(prepared.report(&summary).to_json());
        check_summary(&summary, session.config().theta)
    })
}

/// Record `fp` as statement `k`'s fingerprint, or check it against the
/// one recorded before.
fn same_as_before(
    seen: &mut [Option<Fingerprint>],
    k: usize,
    fp: Fingerprint,
) -> Result<(), String> {
    match seen[k] {
        None => {
            seen[k] = Some(fp);
            Ok(())
        }
        Some(first) if first == fp => Ok(()),
        Some(first) => Err(format!(
            "statement {k} fingerprint changed between passes: {first:?} then {fp:?}"
        )),
    }
}

pub(crate) fn run(opts: &Options, out: &mut Outcome) {
    let w = opts.workload;
    let statements = match w {
        Workload::SoAdhoc => stream::so_adhoc(opts.seed),
        _ => stream::synth_wide(opts.seed),
    };
    let sqls: Vec<String> = statements.iter().map(|s| s.canonical()).collect();
    let session = timed_setup(out, || {
        let (table, dag) = generate(w, opts.scale, opts.seed);
        new_session(table, dag)
    });
    let mut seen: Vec<Option<Fingerprint>> = vec![None; sqls.len()];

    // Untimed warm-up on the first statement, which also records its
    // fingerprint for the first pass to repeat.
    let warm = run_query(&session, &sqls[0]).and_then(|fp| same_as_before(&mut seen, 0, fp));
    out.tally(warm);

    let mut latencies = Vec::new();
    let mut completed = 0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    while start.elapsed() < budget || latencies.is_empty() {
        let k = latencies.len() % sqls.len();
        let t0 = Instant::now();
        let result = run_query(&session, &sqls[k]);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        let checked = result.and_then(|fp| same_as_before(&mut seen, k, fp));
        completed += usize::from(checked.is_ok());
        out.tally(checked);
    }
    let secs = start.elapsed().as_secs_f64();
    latency_metrics(out, &latencies, completed, secs);
    out.metric(
        "peak_rss_mb",
        mining::sched::guard::peak_rss_mb().unwrap_or(0.0),
    );
    out.note(format!(
        "{} queries over {} distinct statements ({:.1} passes)",
        latencies.len(),
        sqls.len(),
        latencies.len() as f64 / sqls.len() as f64
    ));

    if opts.trace {
        let untraced_p50 = median(&latencies);
        let fresh = new_session(session.table().clone(), session.dag().clone());
        drop(session);
        traced_pass(out, &fresh, &sqls, latencies.len(), &mut seen, untraced_p50);
        let probe = served::probe_lists(&statements, SERVE_PROBE_STATEMENTS, opts.seed);
        served::serve_layer(out, fresh.table(), fresh.dag(), &probe, None);
    }
}

/// Replay the measured pass's `count` queries layer by layer on a fresh
/// session, checking each fingerprint against the untraced pass.
fn traced_pass(
    out: &mut Outcome,
    session: &Session,
    sqls: &[String],
    count: usize,
    seen: &mut [Option<Fingerprint>],
    untraced_p50: f64,
) {
    let before = session.counters();
    let mut trace = Trace::new(Instant::now());
    // The warm-up of the untraced pass, repeated untraced.
    out.tally(run_query(session, &sqls[0]).and_then(|fp| same_as_before(seen, 0, fp)));
    let mut samples = Vec::with_capacity(count);
    for q in 0..count {
        let k = q % sqls.len();
        let result = traced_query(&mut trace, q, session, &sqls[k], false);
        let checked = match result {
            Ok(sample) => {
                let fp = sample.fingerprint;
                samples.push(sample);
                same_as_before(seen, k, fp)
            }
            Err(e) => Err(e),
        };
        out.tally(checked);
    }
    let after = session.counters();
    // Per query, the warm-up included: it pays the first cache misses.
    let n = (count + 1) as f64;
    let totals: Vec<f64> = samples.iter().map(|s| s.total_ms).collect();
    let total: f64 = totals.iter().sum();
    layer_metrics(out, &samples, total, &[]);
    let cache = session.prepared_cache_stats();
    let lookups = cache.hits + cache.misses;
    out.metric(
        "core.prepared_cache_hit_rate",
        cache.hits as f64 / lookups.max(1) as f64,
    );
    out.metric("core.prepared_cache_evictions", cache.evictions as f64);
    out.metric(
        "core.fd_closures_per_query",
        (after.fd_closures_computed - before.fd_closures_computed) as f64 / n,
    );
    out.metric(
        "core.backdoor_walks_per_query",
        (after.backdoor_walks - before.backdoor_walks) as f64 / n,
    );
    out.metric("trace.query_p50_ms", median(&totals));
    out.metric("trace.overhead_ms", median(&totals) - untraced_p50);
    out.spans_jsonl += &trace.to_jsonl("layers");
}
