//! Figure-series extraction: turns experiment results into the exact
//! rows/series the paper's figures plot, ready for printing or CSV export.

use crate::experiment::ExperimentResult;
use crate::paths::PathSpec;
use pftk_model::params::ModelParams;
use pftk_model::sendrate::ModelKind;
use pftk_model::units::LossProb;
use tcp_trace::analyzer::{analyze, AnalyzerConfig};
use tcp_trace::intervals::{split_intervals_bounded, IntervalCategory, IntervalStats};
use tcp_trace::metrics::{average_error, Observation};

/// One scatter point of a Fig. 7 panel: an interval's observed loss rate
/// and packet count, with its TD/T0/T1/… category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Observed loss-indication frequency in the interval.
    pub p: f64,
    /// Packets sent in the interval.
    pub packets: u64,
    /// Paper's interval category.
    pub category: IntervalCategory,
}

/// A model curve: packets-per-interval predictions over a loss-rate grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCurve {
    /// Which model generated the curve.
    pub model: ModelKind,
    /// `(p, predicted packets per interval)` pairs.
    pub points: Vec<(f64, f64)>,
}

/// A complete Fig. 7 panel: scatter + the paper's two model curves.
#[derive(Debug, Clone)]
pub struct Fig7Panel {
    /// Path identifier (`"manic->baskerville"`).
    pub path_id: String,
    /// Parameters printed in the panel title.
    pub rtt: f64,
    /// Mean single-timeout duration.
    pub t0: f64,
    /// Receiver window.
    pub wmax: u32,
    /// Per-interval observations.
    pub scatter: Vec<ScatterPoint>,
    /// "TD only" and "proposed (full)" curves.
    pub curves: Vec<ModelCurve>,
}

/// The model parameters the paper would fit to this experiment: trace-wide
/// RTT and T0 (ground truth from the simulator, matching §III's use of
/// trace-wide averages), the path's `W_m`, and delayed ACKs (`b = 2`).
pub fn fitted_params(spec: &PathSpec, result: &ExperimentResult) -> ModelParams {
    let rtt = result.ground_rtt.unwrap_or(spec.rtt);
    let t0 = result.ground_t0.unwrap_or(spec.t0);
    //~ allow(expect): calibrated constants validated by construction
    ModelParams::new(rtt, t0, 2, spec.wmax).expect("calibrated parameters are valid")
}

/// The loss-rate grid the model curves are evaluated on (log-spaced,
/// spanning the paper's 0.001–0.3 range).
pub fn loss_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    let (lo, hi, steps) = (1e-3f64, 0.3f64, 60usize);
    for i in 0..=steps {
        let t = i as f64 / steps as f64;
        grid.push(lo * (hi / lo).powf(t));
    }
    grid
}

/// The per-interval rows for a report at `interval_secs`: the streamed
/// segmentation when the run produced one at that length (the campaign
/// default — no trace was materialized), else a batch recomputation from
/// the retained trace.
///
/// # Panics
/// When the run neither streamed intervals at `interval_secs` nor
/// retained its trace — the experiment options and the report request are
/// inconsistent, which is a caller bug, not a recoverable condition.
fn intervals_for(
    spec: &PathSpec,
    result: &ExperimentResult,
    interval_secs: f64,
) -> Vec<IntervalStats> {
    if result.stream.interval_secs == Some(interval_secs) {
        if let Some(iv) = result.intervals() {
            return iv.to_vec();
        }
    }
    //~ allow(expect): options/report mismatch is a construction-time caller bug
    let trace = result.trace.as_ref().expect(
        "report needs intervals the run neither streamed nor can recompute \
         (no retained trace): run with matching ExperimentOptions::interval_secs \
         or retain_trace",
    );
    let analyzer = AnalyzerConfig {
        dupack_threshold: spec.sender_os().dupack_threshold(),
    };
    let analysis = analyze(trace, analyzer);
    split_intervals_bounded(trace, &analysis, interval_secs, result.duration_secs)
}

/// Builds a Fig. 7 panel from an hour-long experiment.
pub fn fig7_panel(spec: &PathSpec, result: &ExperimentResult, interval_secs: f64) -> Fig7Panel {
    let intervals = intervals_for(spec, result, interval_secs);
    let scatter = intervals
        .iter()
        .map(|iv| ScatterPoint {
            p: iv.loss_rate,
            packets: iv.packets_sent,
            category: iv.category,
        })
        .collect();
    let params = fitted_params(spec, result);
    let curves = [ModelKind::TdOnly, ModelKind::Full]
        .iter()
        .map(|&model| ModelCurve {
            model,
            points: loss_grid()
                .into_iter()
                .map(|p| {
                    let rate = model.evaluate(LossProb::new(p).unwrap(), &params); //~ allow(unwrap): calibrated constants validated by construction
                    (p, rate * interval_secs)
                })
                .collect(),
        })
        .collect();
    Fig7Panel {
        path_id: spec.id(),
        rtt: params.rtt.get(),
        t0: params.t0.get(),
        wmax: spec.wmax,
        scatter,
        curves,
    }
}

/// One Fig. 8 trace triple: measured rate plus both models' predictions for
/// one 100-second connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Trace number (0–99).
    pub trace_no: usize,
    /// Measured packets sent.
    pub measured: u64,
    /// Full-model prediction (packets per 100 s).
    pub proposed: f64,
    /// TD-only prediction.
    pub td_only: f64,
}

/// Builds the Fig. 8 series for one path from its serial experiments.
/// Per §III, RTT and T0 are calculated *per trace* here.
pub fn fig8_series(spec: &PathSpec, results: &[ExperimentResult]) -> Vec<Fig8Point> {
    results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let analysis = r.analysis();
            let p = analysis.loss_rate().clamp(1e-9, 1.0 - 1e-9);
            let params = fitted_params(spec, r);
            let lp = LossProb::new(p).unwrap(); //~ allow(unwrap): calibrated constants validated by construction
            Fig8Point {
                trace_no: i,
                measured: analysis.packets_sent,
                proposed: ModelKind::Full.evaluate(lp, &params) * r.duration_secs,
                td_only: ModelKind::TdOnly.evaluate(lp, &params) * r.duration_secs,
            }
        })
        .collect()
}

/// The three per-path average errors of Figs. 9/10.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTriple {
    /// Path identifier.
    pub path_id: String,
    /// Average error of the full model (Eq. (32)).
    pub full: f64,
    /// Average error of the approximate model (Eq. (33)).
    pub approx: f64,
    /// Average error of the TD-only baseline.
    pub td_only: f64,
}

/// Computes the Fig. 9 error triple from an hour-long experiment, using the
/// paper's procedure: per-100-s observations, trace-wide RTT/T0.
pub fn error_triple_hourly(
    spec: &PathSpec,
    result: &ExperimentResult,
    interval_secs: f64,
) -> ErrorTriple {
    let intervals = intervals_for(spec, result, interval_secs);
    let observations = Observation::from_intervals(&intervals, interval_secs);
    let params = fitted_params(spec, result);
    let eval = |model: ModelKind| {
        average_error(&observations, |p| {
            //~ allow(unwrap): calibrated constants validated by construction
            model.evaluate(LossProb::new(p).unwrap(), &params)
        })
    };
    ErrorTriple {
        path_id: spec.id(),
        full: eval(ModelKind::Full),
        approx: eval(ModelKind::Approximate),
        td_only: eval(ModelKind::TdOnly),
    }
}

/// Computes the Fig. 10 error triple from serial 100-s experiments, using
/// per-trace RTT/T0 (§III: "we use the value of round-trip time and
/// time-out calculated for each 100 s trace").
pub fn error_triple_serial(spec: &PathSpec, results: &[ExperimentResult]) -> ErrorTriple {
    let mut sums = (0.0, 0.0, 0.0);
    let mut n = 0u64;
    for r in results {
        let analysis = r.analysis();
        if analysis.packets_sent == 0 {
            continue;
        }
        let p = analysis.loss_rate().clamp(1e-9, 1.0 - 1e-9);
        let lp = LossProb::new(p).unwrap(); //~ allow(unwrap): calibrated constants validated by construction
        let params = fitted_params(spec, r);
        let observed = analysis.packets_sent as f64;
        let err = |model: ModelKind| {
            (model.evaluate(lp, &params) * r.duration_secs - observed).abs() / observed
        };
        sums.0 += err(ModelKind::Full);
        sums.1 += err(ModelKind::Approximate);
        sums.2 += err(ModelKind::TdOnly);
        n += 1;
    }
    let nf = (n.max(1)) as f64;
    ErrorTriple {
        path_id: spec.id(),
        full: sums.0 / nf,
        approx: sums.1 / nf,
        td_only: sums.2 / nf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_hour_budgeted, run_serial_100s, DEFAULT_EVENT_BUDGET};
    use crate::paths::table2_path;

    #[test]
    fn loss_grid_is_log_spaced_and_in_range() {
        let g = loss_grid();
        assert!(g.len() > 10);
        assert!((g[0] - 1e-3).abs() < 1e-12);
        assert!((g.last().unwrap() - 0.3).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
        // Log spacing: ratios constant.
        let r0 = g[1] / g[0];
        let r1 = g[11] / g[10];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn fig7_panel_has_intervals_and_curves() {
        let spec = table2_path("manic", "baskerville").unwrap();
        let result = run_hour_budgeted(spec, 11, DEFAULT_EVENT_BUDGET);
        let panel = fig7_panel(spec, &result, 100.0);
        assert_eq!(
            panel.scatter.len(),
            36,
            "an hour gives 36 intervals of 100 s"
        );
        assert_eq!(panel.curves.len(), 2);
        assert!(panel
            .curves
            .iter()
            .all(|c| c.points.len() == loss_grid().len()));
        // TD-only must sit above the full model at high p.
        let td = &panel.curves[0];
        let full = &panel.curves[1];
        let last = td.points.len() - 1;
        assert!(td.points[last].1 > full.points[last].1);
    }

    #[test]
    fn fig8_series_aligns_with_results() {
        let spec = table2_path("manic", "mafalda").unwrap();
        let results = run_serial_100s(spec, 5, 21);
        let series = fig8_series(spec, &results);
        assert_eq!(series.len(), 5);
        for pt in &series {
            assert!(pt.measured > 0);
            assert!(pt.proposed > 0.0);
            assert!(pt.td_only > 0.0);
        }
    }

    #[test]
    fn error_triples_rank_models_as_in_paper() {
        // On a timeout-dominated path the full model must beat TD-only.
        let spec = table2_path("manic", "maria").unwrap();
        let result = run_hour_budgeted(spec, 31, DEFAULT_EVENT_BUDGET);
        let errs = error_triple_hourly(spec, &result, 100.0);
        assert!(
            errs.full < errs.td_only,
            "full {:.3} should beat TD-only {:.3}",
            errs.full,
            errs.td_only
        );
        assert!(errs.full.is_finite() && errs.approx.is_finite());
    }

    #[test]
    fn serial_error_triple_finite() {
        let spec = table2_path("manic", "mafalda").unwrap();
        let results = run_serial_100s(spec, 4, 41);
        let errs = error_triple_serial(spec, &results);
        assert!(errs.full.is_finite());
        assert!(errs.td_only >= 0.0);
    }
}
