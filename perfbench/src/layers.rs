//! The traced query: the same statement, prepare → mine → select →
//! render, called one public layer function at a time with a span around
//! each, followed by replays of the inner layers (view, grouping, LP,
//! rounding) that split each outer span into its layers' self times.

use causumx::{select_candidates, Session};
use lpsolve::{randomized_rounding, solve_lp_relaxation, CoverInstance};
use mining::grouping::mine_grouping_patterns;

use crate::trace::Trace;
use crate::{check_summary, guarded, median, Fingerprint, Outcome};

/// What one traced query measured, in milliseconds and counts.
pub(crate) struct Sample {
    /// Root span: the query as a caller sees it, replays excluded.
    pub total_ms: f64,
    /// `GroupByAvgQuery::run` replay; `None` on a prepared-cache hit,
    /// which materializes no view.
    pub view_ms: Option<f64>,
    /// `Session::prepare` self time (view excluded).
    pub prepare_ms: f64,
    pub grouping_ms: f64,
    /// `try_mine_candidates` self time (grouping excluded).
    pub treatment_ms: f64,
    /// `select_candidates`, LP and rounding included.
    pub selection_ms: f64,
    pub lp_ms: f64,
    pub rounding_ms: Option<f64>,
    /// `report` + `to_json`.
    pub render_ms: f64,
    /// Root self time: the glue between the calls.
    pub glue_ms: f64,
    pub groups: usize,
    pub patterns: usize,
    pub cate_evaluations: usize,
    pub downdates: usize,
    pub regathers: usize,
    pub candidates: usize,
    /// The LP (or its rounding) returned `None` and selection fell back
    /// to greedy.
    pub fallback: bool,
    pub fingerprint: Fingerprint,
    pub json: String,
}

impl Sample {
    /// Self time per layer: table, core, mining, lpsolve. They add up to
    /// the query total.
    pub fn layers(&self) -> [f64; 4] {
        let view = self.view_ms.unwrap_or(0.0);
        [
            view,
            self.prepare_ms + self.render_ms + self.glue_ms,
            self.grouping_ms + self.treatment_ms,
            self.selection_ms,
        ]
    }
}

/// Layer names in [`Sample::layers`] order.
pub(crate) const LAYERS: [&str; 4] = ["table", "core", "mining", "lpsolve"];

/// Run `sql` as query `q` of `trace`, layer by layer; `cached` prepares
/// through the session's prepared-statement cache. The caller must not
/// prepare on `session` from another thread meanwhile: whether a view was
/// materialized is read from the session's counters.
pub(crate) fn traced_query(
    trace: &mut Trace,
    q: usize,
    session: &Session,
    sql: &str,
    cached: bool,
) -> Result<Sample, String> {
    let config = session.config();
    let views_before = session.counters().views_materialized;
    let root = trace.begin("query", q, None, false);
    let (prepared, prep) = trace.time("core.prepare", q, Some(root), false, || {
        guarded(|| {
            if cached {
                session.sql_cached(sql)
            } else {
                session.sql(sql)
            }
            .map_err(|e| format!("prepare `{sql}`: {e}"))
        })
    });
    let prepared = prepared.inspect_err(|_| trace.end(root))?;
    let materialized = session.counters().views_materialized > views_before;
    let guard = config.run_guard();
    let (candidates, mine) = trace.time("mining.mine", q, Some(root), false, || {
        guarded(|| {
            prepared
                .try_mine_candidates(&guard)
                .map_err(|e| format!("mine `{sql}`: {e}"))
        })
    });
    let candidates = candidates.inspect_err(|_| trace.end(root))?;
    let (summary, sel) = trace.time("lpsolve.selection", q, Some(root), false, || {
        select_candidates(config, &candidates, config.selection)
    });
    let (json, render) = trace.time("core.render", q, Some(root), false, || {
        prepared.report(&summary).to_json()
    });
    trace.end(root);
    let fingerprint = check_summary(&summary, config.theta)?;

    // Replays: the inner layers' public functions on the same inputs.
    let view_ms = if materialized {
        let (view, id) = trace.time("table.view", q, Some(prep), true, || {
            prepared.query().run(session.table())
        });
        let groups = view.map_err(|e| format!("view replay `{sql}`: {e}"))?;
        if groups.num_groups() != summary.m {
            return Err(format!("view replay of `{sql}` has a different m"));
        }
        Some(trace.ms(id))
    } else {
        None
    };
    let (patterns, grouping) = trace.time("mining.grouping", q, Some(mine), true, || {
        mine_grouping_patterns(
            session.table(),
            prepared.view(),
            &prepared.attr_split().grouping,
            config.apriori_tau,
            config.max_grouping_len,
        )
    });
    let inst = CoverInstance {
        weights: candidates.explanations.iter().map(|e| e.weight).collect(),
        covers: candidates
            .explanations
            .iter()
            .map(|e| e.coverage.clone())
            .collect(),
        m: summary.m,
        k: config.k,
        theta: config.theta,
    };
    let (lp, lp_id) = trace.time("lpsolve.lp", q, Some(sel), true, || {
        solve_lp_relaxation(&inst)
    });
    let rounded = lp.map(|g| {
        trace.time("lpsolve.rounding", q, Some(sel), true, || {
            randomized_rounding(&inst, &g, config.rounding_rounds, config.seed)
        })
    });
    let rounding_ms = rounded.as_ref().map(|(_, id)| trace.ms(*id));
    let fallback = match rounded.and_then(|(r, _)| r) {
        Some(r) => {
            // The replay must reproduce the measured selection, or the
            // split between LP, rounding and the rest means nothing.
            if r.total_weight.to_bits() != summary.total_weight.to_bits()
                || r.coverage != summary.covered
            {
                return Err(format!("LP replay of `{sql}` disagrees with selection"));
            }
            false
        }
        None => true,
    };

    Ok(Sample {
        total_ms: trace.ms(root),
        view_ms,
        prepare_ms: trace.self_ms(prep),
        grouping_ms: trace.ms(grouping),
        treatment_ms: trace.self_ms(mine),
        selection_ms: trace.ms(sel),
        lp_ms: trace.ms(lp_id),
        rounding_ms,
        render_ms: trace.ms(render),
        glue_ms: trace.self_ms(root),
        groups: summary.m,
        patterns: patterns.len(),
        cate_evaluations: candidates.cate_evaluations,
        downdates: candidates.downdates,
        regathers: candidates.regathers,
        candidates: candidates.explanations.len(),
        fallback,
        fingerprint,
        json,
    })
}

/// Record the table/core/mining/lpsolve metrics of a traced pass, and a
/// note with each layer's share of the summed query time `total_ms`
/// (plus `extra`, layers measured elsewhere such as serve).
pub(crate) fn layer_metrics(
    out: &mut Outcome,
    samples: &[Sample],
    total_ms: f64,
    extra: &[(&str, f64)],
) {
    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let views: Vec<f64> = samples.iter().filter_map(|s| s.view_ms).collect();
    let roundings: Vec<f64> = samples.iter().filter_map(|s| s.rounding_ms).collect();
    let n = samples.len().max(1) as f64;
    let candidates: usize = samples.iter().map(|s| s.candidates).sum();
    let patterns: usize = samples.iter().map(|s| s.patterns).sum();

    out.metric("table.view_ms", median(&views));
    out.metric("table.groups", med(&|s| s.groups as f64));
    out.metric("core.prepare_ms", med(&|s| s.prepare_ms));
    out.metric("core.render_ms", med(&|s| s.render_ms));
    out.metric("core.report_bytes", med(&|s| s.json.len() as f64));
    out.metric("mining.grouping_ms", med(&|s| s.grouping_ms));
    out.metric("mining.grouping_patterns", med(&|s| s.patterns as f64));
    out.metric("mining.treatment_ms", med(&|s| s.treatment_ms));
    out.metric(
        "mining.cate_evaluations",
        med(&|s| s.cate_evaluations as f64),
    );
    out.metric("mining.downdates", med(&|s| s.downdates as f64));
    out.metric("mining.regathers", med(&|s| s.regathers as f64));
    out.metric("mining.candidates", med(&|s| s.candidates as f64));
    out.metric(
        "mining.candidate_yield",
        candidates as f64 / patterns.max(1) as f64,
    );
    out.metric("lpsolve.selection_ms", med(&|s| s.selection_ms));
    out.metric("lpsolve.lp_ms", med(&|s| s.lp_ms));
    out.metric("lpsolve.rounding_ms", median(&roundings));
    out.metric(
        "lpsolve.fallback_frac",
        samples.iter().filter(|s| s.fallback).count() as f64 / n,
    );

    let mut sums: Vec<(&str, f64)> = LAYERS
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, samples.iter().map(|s| s.layers()[i]).sum()))
        .collect();
    sums.extend_from_slice(extra);
    let largest = sums
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);
    let shares: Vec<String> = sums
        .iter()
        .map(|(name, ms)| {
            format!(
                "{name} {:.1}%",
                100.0 * ms / total_ms.max(f64::MIN_POSITIVE)
            )
        })
        .collect();
    out.note(format!(
        "layer self time over {} traced queries: {}; largest: {largest}",
        samples.len(),
        shares.join(", ")
    ));
}
