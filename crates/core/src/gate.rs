//! Noise-aware regression gating over the [`crate::history`] trend store.
//!
//! The old CI perf gate compared two single runs with a flat percentage
//! threshold, and had to be cranked to a "catastrophic only" 75% because
//! cross-run wall noise on shared CI runners reaches ~25%. This module
//! replaces it with a statistical verdict:
//!
//! * the **new value** of each metric is the median of the N fresh
//!   samples supplied (one artifact is fine; repeated quick runs are
//!   better),
//! * the **expected value** is the rolling median of that metric over
//!   the last [`GateConfig::window`] matching history records, and
//! * the **tolerance band** is
//!   `max(k·MAD, rel_floor·|median|)` — the median absolute deviation
//!   of the history, floored at a relative band so a freakishly quiet
//!   history cannot make ordinary jitter significant.
//!
//! A metric **regresses** when it moves past the band in its worsening
//! direction ([`crate::compare::direction_of`]): throughput-like metrics
//! falling, cost-like metrics rising. Informational metrics are never
//! judged; neither are metrics with fewer than
//! [`GateConfig::min_history`] history points (a young store passes by
//! construction, with a note). Improvements never fail the gate. The
//! comparison is strict (`>`), so an exactly-repeated run — zero MAD,
//! zero movement — always passes.

use crate::compare::{direction_of, Direction};
use crate::history::HistoryRecord;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Gate tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Band width in MADs.
    pub k: f64,
    /// Relative band floor: the band is at least this fraction of the
    /// history median's magnitude.
    pub rel_floor: f64,
    /// Rolling window: only the newest this-many matching history
    /// records are consulted.
    pub window: usize,
    /// Minimum history points before a metric is judged at all.
    pub min_history: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        // k=4 over a MAD (≈2.7σ for Gaussian noise) plus a 10% floor
        // tolerates the observed ~25% CI wall jitter once 2+ history
        // points exist, while a genuine 3× slowdown lands far outside.
        Self { k: 4.0, rel_floor: 0.10, window: 12, min_history: 2 }
    }
}

/// One judged metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVerdict {
    /// Dotted metric path.
    pub path: String,
    /// The metric's direction (never informational here).
    pub direction: Direction,
    /// Median of the fresh samples.
    pub median_new: f64,
    /// Rolling median of the history window.
    pub median_hist: f64,
    /// Median absolute deviation of the history window.
    pub mad: f64,
    /// The tolerance band actually applied.
    pub band: f64,
    /// Direction-signed absolute movement (positive = worse).
    pub worsening: f64,
    /// History points consulted for this metric.
    pub history_points: usize,
    /// Whether the movement is a statistically significant regression.
    pub significant: bool,
}

/// The gate's full output.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Every judged directional metric.
    pub verdicts: Vec<MetricVerdict>,
    /// Directional metrics skipped for insufficient history.
    pub skipped_insufficient: usize,
    /// Informational metrics skipped (counts, ids, ...).
    pub skipped_informational: usize,
    /// History records in the rolling window after quick-flag filtering.
    pub history_used: usize,
    /// Fresh sample artifacts judged.
    pub new_samples: usize,
}

impl GateReport {
    /// The significant regressions, worst (largest band overshoot) first.
    pub fn regressions(&self) -> Vec<&MetricVerdict> {
        let mut out: Vec<&MetricVerdict> =
            self.verdicts.iter().filter(|v| v.significant).collect();
        out.sort_by(|a, b| {
            let ratio = |v: &MetricVerdict| v.worsening / v.band.max(1e-12);
            ratio(b).partial_cmp(&ratio(a)).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Whether the gate passes (no significant regression).
    pub fn pass(&self) -> bool {
        self.verdicts.iter().all(|v| !v.significant)
    }

    /// Renders the human report.
    pub fn render(&self, cfg: &GateConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gate: {} metric(s) judged from {} fresh sample(s) against {} history \
             record(s) (window {}, k={}, floor {:.0}%)",
            self.verdicts.len(),
            self.new_samples,
            self.history_used,
            cfg.window,
            cfg.k,
            cfg.rel_floor * 100.0,
        );
        let fmt = |v: &MetricVerdict| {
            format!(
                "{}: {:.4} -> {:.4} ({} {:.4}, band {:.4} = max(k*MAD {:.4}, \
                 floor {:.4}), {} pts)",
                v.path,
                v.median_hist,
                v.median_new,
                if v.worsening > 0.0 { "worsened" } else { "moved" },
                v.worsening,
                v.band,
                cfg.k * v.mad,
                cfg.rel_floor * v.median_hist.abs(),
                v.history_points,
            )
        };
        let regressions = self.regressions();
        for v in &regressions {
            let _ = writeln!(out, "  REGRESSION {}", fmt(v));
        }
        // The closest non-significant calls give the operator a feel for
        // the margin without drowning the report.
        let mut close: Vec<&MetricVerdict> =
            self.verdicts.iter().filter(|v| !v.significant && v.worsening > 0.0).collect();
        close.sort_by(|a, b| {
            let ratio = |v: &MetricVerdict| v.worsening / v.band.max(1e-12);
            ratio(b).partial_cmp(&ratio(a)).unwrap_or(std::cmp::Ordering::Equal)
        });
        for v in close.iter().take(3) {
            let _ = writeln!(out, "  within band {}", fmt(v));
        }
        if self.skipped_insufficient > 0 {
            let _ = writeln!(
                out,
                "  note: {} metric(s) skipped — fewer than {} history points",
                self.skipped_insufficient, cfg.min_history,
            );
        }
        let _ = writeln!(
            out,
            "  {}: {} regression(s), {} informational metric(s) ignored",
            if regressions.is_empty() { "PASS" } else { "FAIL" },
            regressions.len(),
            self.skipped_informational,
        );
        out
    }
}

/// Median of a slice (mean of the middle two for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Median absolute deviation around `center`.
fn mad(values: &[f64], center: f64) -> f64 {
    let dev: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&dev).unwrap_or(0.0)
}

/// Judges fresh records against the history.
///
/// `history` and `new` are [`HistoryRecord`]s of the same artifact (the
/// caller filters by name; [`crate::history::HistoryStore::load`] does).
/// History records whose `quick` flag contradicts the fresh samples'
/// flag are excluded — quick and full runs measure different workloads.
pub fn gate(history: &[HistoryRecord], new: &[HistoryRecord], cfg: &GateConfig) -> GateReport {
    let mut report = GateReport { new_samples: new.len(), ..GateReport::default() };
    if new.is_empty() {
        return report;
    }
    let new_quick = new.iter().find_map(|r| r.quick);
    let mut window: Vec<&HistoryRecord> = history
        .iter()
        .filter(|h| match (h.quick, new_quick) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        })
        .collect();
    window.sort_by_key(|h| h.unix);
    if window.len() > cfg.window {
        window.drain(..window.len() - cfg.window);
    }
    report.history_used = window.len();

    let paths: BTreeSet<&String> = new.iter().flat_map(|r| r.metrics.keys()).collect();
    for path in paths {
        match direction_of(path) {
            Direction::Informational => {
                report.skipped_informational += 1;
                continue;
            }
            direction => {
                let new_vals: Vec<f64> =
                    new.iter().filter_map(|r| r.metrics.get(path)).copied().collect();
                let hist_vals: Vec<f64> =
                    window.iter().filter_map(|r| r.metrics.get(path)).copied().collect();
                if hist_vals.len() < cfg.min_history {
                    report.skipped_insufficient += 1;
                    continue;
                }
                let median_new = median(&new_vals).expect("path came from new records");
                let median_hist = median(&hist_vals).expect("len checked above");
                let mad = mad(&hist_vals, median_hist);
                let band = (cfg.k * mad).max(cfg.rel_floor * median_hist.abs());
                let worsening = match direction {
                    Direction::HigherIsBetter => median_hist - median_new,
                    Direction::LowerIsBetter => median_new - median_hist,
                    Direction::Informational => unreachable!("filtered above"),
                };
                report.verdicts.push(MetricVerdict {
                    path: path.clone(),
                    direction,
                    median_new,
                    median_hist,
                    mad,
                    band,
                    worsening,
                    history_points: hist_vals.len(),
                    significant: worsening > band,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rec(unix: u64, quick: Option<bool>, metrics: &[(&str, f64)]) -> HistoryRecord {
        HistoryRecord {
            artifact: "A".into(),
            git: format!("g{unix}"),
            unix,
            quick,
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    #[test]
    fn median_and_parity() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn self_compare_passes_even_with_zero_mad() {
        let hist = vec![
            rec(1, Some(true), &[("cycles_per_sec", 1000.0)]),
            rec(2, Some(true), &[("cycles_per_sec", 1000.0)]),
        ];
        let new = vec![rec(3, Some(true), &[("cycles_per_sec", 1000.0)])];
        let r = gate(&hist, &new, &GateConfig::default());
        assert!(r.pass(), "{:?}", r.regressions());
        assert_eq!(r.verdicts.len(), 1);
    }

    #[test]
    fn noise_within_band_passes_and_collapse_fails() {
        // ~10% jitter history around 1000.
        let hist = vec![
            rec(1, Some(true), &[("cycles_per_sec", 950.0)]),
            rec(2, Some(true), &[("cycles_per_sec", 1050.0)]),
            rec(3, Some(true), &[("cycles_per_sec", 1000.0)]),
        ];
        let cfg = GateConfig::default();
        // Ordinary jitter: well inside max(4*MAD=200, floor=100).
        let ok = vec![rec(4, Some(true), &[("cycles_per_sec", 870.0)])];
        assert!(gate(&hist, &ok, &cfg).pass());
        // A 3x collapse is far beyond any band.
        let bad = vec![rec(4, Some(true), &[("cycles_per_sec", 330.0)])];
        let r = gate(&hist, &bad, &cfg);
        assert!(!r.pass());
        assert_eq!(r.regressions()[0].path, "cycles_per_sec");
        assert!(r.render(&cfg).contains("REGRESSION"));
    }

    #[test]
    fn direction_awareness() {
        let hist = vec![
            rec(1, None, &[("avg_latency_cycles", 40.0), ("cycles_per_sec", 1000.0)]),
            rec(2, None, &[("avg_latency_cycles", 40.0), ("cycles_per_sec", 1000.0)]),
        ];
        let cfg = GateConfig::default();
        // Latency tripling regresses; throughput tripling improves.
        let new = vec![rec(3, None, &[("avg_latency_cycles", 120.0), ("cycles_per_sec", 3000.0)])];
        let r = gate(&hist, &new, &cfg);
        let regs = r.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "avg_latency_cycles");
    }

    #[test]
    fn quick_flag_filtering_and_insufficient_history() {
        let hist = vec![
            rec(1, Some(false), &[("cycles_per_sec", 9999.0)]),
            rec(2, Some(true), &[("cycles_per_sec", 1000.0)]),
        ];
        let cfg = GateConfig::default();
        let new = vec![rec(3, Some(true), &[("cycles_per_sec", 1000.0)])];
        // Only one matching-quick record < min_history=2: skipped, pass.
        let r = gate(&hist, &new, &cfg);
        assert!(r.pass());
        assert_eq!(r.history_used, 1);
        assert_eq!(r.skipped_insufficient, 1);
        assert!(r.verdicts.is_empty());
        assert!(r.render(&cfg).contains("skipped"));
    }

    #[test]
    fn rolling_window_drops_ancient_records() {
        // 20 ancient records at 100, then 12 recent at 1000: the window
        // of 12 must only see the recent regime.
        let mut hist = Vec::new();
        for i in 0..20 {
            hist.push(rec(i, None, &[("cycles_per_sec", 100.0)]));
        }
        for i in 20..32 {
            hist.push(rec(i, None, &[("cycles_per_sec", 1000.0)]));
        }
        let new = vec![rec(40, None, &[("cycles_per_sec", 950.0)])];
        let r = gate(&hist, &new, &GateConfig::default());
        assert_eq!(r.history_used, 12);
        assert!(r.pass());
        assert!((r.verdicts[0].median_hist - 1000.0).abs() < 1e-9);
    }
}
