//! Monte-Carlo resilience campaigns: seeds × profiles × loads × correlated
//! fault intensities, executed on the parallel plan machinery and
//! summarised into a `RESILIENCE_*` artifact.
//!
//! A campaign crosses the three seeded traffic profiles
//! ([`Profile::Expected`] / `Stress` / `Adversarial`) with a ladder of
//! offered loads and a ladder of correlated-fault intensities (regional
//! mesh storms, load-scaled glitch bursts, and a band-down-during-retune
//! race — see `FaultPlan::correlated`). Every intensity ladder includes
//! `0.0`, which maps to a fault-free run and is the per-point baseline
//! ([`BaselineSel::fault`]), so degradation is always measured against the
//! same profile/seed/load without faults.
//!
//! [`summarize`] reduces the plan results to per-profile saturation
//! points, per-intensity degradation envelopes, recovery-time aggregates
//! (drain, table rewrite, latency re-convergence — see `RecoveryRecord`),
//! and worst-case replay IDs. The artifact deliberately contains no wall
//! times: two runs with the same seeds produce byte-identical summaries
//! (modulo the `generated_unix` stamp, which `rfnoc-cli compare`
//! ignores), so CI can regenerate and diff it as a determinism and
//! regression gate.

use crate::artifact::{header, write_artifact, write_csv_logged};
use crate::plan::{labeled, BaselineSel, Design, Labeled, Plan, SweepSpec};
use crate::runner::{PlanResults, PointResult};
use crate::suite::SuiteOptions;
use crate::{geomean, print_table};
use rfnoc::json::{rounded, Json};
use rfnoc::{Architecture, FaultSpec, WorkloadSpec};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{RecoveryConfig, RecoveryRecord, SimConfig};
use rfnoc_traffic::{Profile, ProfileSpec, TrafficConfig};

/// Master seed for the correlated fault plans of the standard campaign.
pub const CAMPAIGN_FAULT_SEED: u64 = 0x57_0821;

/// The stable label of a fault-intensity rung (`0.0`, `1.0`, …) — shared
/// by the campaign and the fault sweep so baselines pair identically.
pub fn intensity_label(value: f64) -> String {
    format!("{value:.1}")
}

/// Expands an intensity ladder into a fault dimension: `0.0` maps to
/// [`FaultSpec::None`] (the baseline), every positive rung through `mk`.
/// Pair with `BaselineSel::fault(intensity_label(0.0))`.
pub fn fault_dimension<F>(intensities: &[f64], mk: F) -> Vec<Labeled<FaultSpec>>
where
    F: Fn(f64) -> FaultSpec,
{
    intensities
        .iter()
        .map(|&v| {
            let spec = if v > 0.0 { mk(v) } else { FaultSpec::None };
            labeled(intensity_label(v), spec)
        })
        .collect()
}

/// One resilience campaign: the cross product it sweeps and the simulator
/// it runs under. Build the runnable plan with [`CampaignSpec::plan`].
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Plan name; prefixes every point ID and the artifact file stem.
    pub name: String,
    /// Designs under test (the adversarial profile targets each design's
    /// own selected shortcut set).
    pub designs: Vec<Design>,
    /// Master campaign seeds; each crosses all three profiles.
    pub seeds: Vec<u64>,
    /// Offered loads (injection rates) — the saturation ladder.
    pub loads: Vec<f64>,
    /// Correlated-fault intensities; must include `0.0` (the baseline).
    pub intensities: Vec<f64>,
    /// Seed of the correlated fault plans.
    pub fault_seed: u64,
    /// Simulator config (recovery tracking should be on).
    pub sim: SimConfig,
}

impl CampaignSpec {
    /// The standard resilience campaign: the adaptive-50 RF-I design,
    /// shrunk to one seed and 2×2 load/intensity ladders in quick mode.
    pub fn resilience(opts: &SuiteOptions) -> Self {
        let (seeds, loads, intensities) = if opts.quick {
            (vec![1], vec![0.008, 0.020], vec![0.0, 1.0])
        } else {
            (vec![1, 2], vec![0.006, 0.010, 0.020], vec![0.0, 0.5, 2.0])
        };
        let sim = crate::suite::windows(opts, SimConfig::paper_baseline(), 2_000, 30_000)
            .with_recovery(RecoveryConfig::slo());
        Self {
            name: "resilience".into(),
            designs: vec![Design::new(
                "adaptive",
                Architecture::AdaptiveShortcuts { access_points: 50 },
                LinkWidth::B16,
            )],
            seeds,
            loads,
            intensities,
            fault_seed: CAMPAIGN_FAULT_SEED,
            sim,
        }
    }

    /// profiles × seeds, labelled `"{profile} s{seed}"` — the seed is part
    /// of the point ID, which is the replay handle for worst cases.
    fn workloads(&self) -> Vec<Labeled<WorkloadSpec>> {
        self.seeds
            .iter()
            .flat_map(|&seed| {
                Profile::all().into_iter().map(move |p| {
                    labeled(
                        format!("{} s{seed}", p.label()),
                        WorkloadSpec::Profile(ProfileSpec::new(p, seed)),
                    )
                })
            })
            .collect()
    }

    fn traffics(&self) -> Vec<Labeled<TrafficConfig>> {
        self.loads
            .iter()
            .map(|&rate| {
                labeled(
                    format!("{rate:.3}"),
                    TrafficConfig { injection_rate: rate, ..TrafficConfig::default() },
                )
            })
            .collect()
    }

    /// Expands the campaign into a runnable plan, every point baselined
    /// against its own fault-free (`0.0` intensity) twin.
    ///
    /// # Panics
    ///
    /// Panics when `intensities` does not include `0.0` (the baseline
    /// must be part of the sweep) or when dimension labels collide.
    pub fn plan(&self) -> Plan {
        let seed = self.fault_seed;
        SweepSpec::new(self.name.clone())
            .designs(self.designs.clone())
            .workloads(self.workloads())
            .sims(vec![labeled("default", self.sim.clone())])
            .traffics(self.traffics())
            .faults(fault_dimension(&self.intensities, |intensity| {
                FaultSpec::Correlated { seed, intensity }
            }))
            .baseline(BaselineSel::fault(intensity_label(0.0)))
            .expand()
    }
}

// ------------------------------------------------------------- summary

/// Running mean/max over `u64` samples (`mean()` is NaN when empty,
/// which the JSON writer renders as `null`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanMax {
    /// Samples absorbed.
    pub count: usize,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl MeanMax {
    fn push(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean of the absorbed samples (NaN when none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Recovery-time aggregates over every [`RecoveryRecord`] of a result
/// subset: drain, table-rewrite, and latency re-convergence durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryAggregate {
    /// Fault recoveries tracked.
    pub records: usize,
    /// Recoveries whose windowed latency re-converged within ε.
    pub converged: usize,
    /// Drain durations (fault → retune applied).
    pub drain: MeanMax,
    /// Table-rewrite durations (retune applied → tables rewritten).
    pub rewrite: MeanMax,
    /// Convergence durations (fault → windowed mean back within ε).
    pub convergence: MeanMax,
}

impl RecoveryAggregate {
    fn absorb(&mut self, records: &[RecoveryRecord]) {
        for r in records {
            self.records += 1;
            if r.converged() {
                self.converged += 1;
            }
            if let Some(d) = r.drain_cycles {
                self.drain.push(d);
            }
            if let Some(w) = r.rewrite_cycles {
                self.rewrite.push(w);
            }
            if let Some(c) = r.convergence_cycles {
                self.convergence.push(c);
            }
        }
    }
}

/// One rung of a profile's degradation envelope: all runs of one fault
/// intensity, across seeds and loads.
#[derive(Debug, Clone)]
pub struct IntensitySummary {
    /// Intensity label (`"0.0"`, `"1.0"`, …).
    pub label: String,
    /// Runs aggregated.
    pub runs: usize,
    /// Runs that saturated.
    pub saturated_runs: usize,
    /// Geometric mean of latency normalised to the fault-free twin.
    pub mean_norm_latency: f64,
    /// Worst normalised latency.
    pub max_norm_latency: f64,
    /// Arithmetic mean completion rate.
    pub mean_completion: f64,
    /// Recovery-time aggregates of these runs.
    pub recovery: RecoveryAggregate,
}

/// One profile's campaign outcome.
#[derive(Debug, Clone)]
pub struct ProfileSummary {
    /// The traffic profile.
    pub profile: Profile,
    /// Lowest offered load at which a *fault-free* run of this profile
    /// saturated (`None`: never within the swept ladder).
    pub saturation_rate: Option<f64>,
    /// Plan-point ID of the worst normalised-latency run — the replay
    /// handle (its labels carry the seed, load, and intensity).
    pub worst_point: Option<String>,
    /// That run's normalised latency.
    pub worst_norm_latency: f64,
    /// Degradation envelope, one rung per intensity, mildest first.
    pub degradation: Vec<IntensitySummary>,
}

/// The whole campaign, reduced.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Per-profile outcomes, mildest profile first.
    pub profiles: Vec<ProfileSummary>,
    /// Worst adversarial degradation minus worst expected degradation
    /// (normalised-latency delta) — how much harder the shortcut-seeking
    /// shape is hit by the same faults.
    pub degradation_delta: f64,
    /// Whether the adversarial profile saturates at an offered load no
    /// higher than the expected profile (never-saturated = ∞).
    pub adversarial_saturates_no_later: bool,
}

fn profile_of(workload_label: &str) -> Option<Profile> {
    Profile::all().into_iter().find(|p| workload_label.starts_with(p.label()))
}

fn norm_latency(r: &PointResult) -> f64 {
    r.normalized.map_or(1.0, |(lat, _)| lat)
}

/// Reduces campaign results to the per-profile summary. Points whose
/// workload label is not a campaign profile are ignored, so this also
/// works on a merged suite run's subset.
pub fn summarize(results: &PlanResults) -> CampaignSummary {
    let mut profiles = Vec::new();
    for profile in Profile::all() {
        let points: Vec<&PointResult> = results
            .iter()
            .filter(|r| profile_of(&r.point.labels.workload) == Some(profile))
            .collect();
        if points.is_empty() {
            continue;
        }
        let mut intensity_labels: Vec<String> = Vec::new();
        for p in &points {
            if !intensity_labels.contains(&p.point.labels.fault) {
                intensity_labels.push(p.point.labels.fault.clone());
            }
        }
        intensity_labels.sort_by(|a, b| {
            a.parse::<f64>().unwrap_or(0.0).total_cmp(&b.parse::<f64>().unwrap_or(0.0))
        });
        let degradation = intensity_labels
            .iter()
            .map(|label| {
                let subset: Vec<&&PointResult> =
                    points.iter().filter(|p| p.point.labels.fault == *label).collect();
                let norms: Vec<f64> = subset.iter().map(|p| norm_latency(p)).collect();
                let mut recovery = RecoveryAggregate::default();
                for p in &subset {
                    recovery.absorb(&p.report.stats.recovery);
                }
                IntensitySummary {
                    label: label.clone(),
                    runs: subset.len(),
                    saturated_runs: subset
                        .iter()
                        .filter(|p| p.report.stats.saturated)
                        .count(),
                    mean_norm_latency: geomean(&norms).unwrap_or(f64::NAN),
                    max_norm_latency: norms.iter().copied().fold(f64::NAN, f64::max),
                    mean_completion: subset
                        .iter()
                        .map(|p| p.report.stats.completion_rate())
                        .sum::<f64>()
                        / subset.len().max(1) as f64,
                    recovery,
                }
            })
            .collect();
        let baseline_label = intensity_labels.first().cloned().unwrap_or_default();
        let mut saturation_rate: Option<f64> = None;
        for p in &points {
            if p.point.labels.fault == baseline_label && p.report.stats.saturated {
                if let Ok(rate) = p.point.labels.traffic.parse::<f64>() {
                    saturation_rate =
                        Some(saturation_rate.map_or(rate, |s| s.min(rate)));
                }
            }
        }
        let worst = points
            .iter()
            .max_by(|a, b| norm_latency(a).total_cmp(&norm_latency(b)))
            .copied();
        profiles.push(ProfileSummary {
            profile,
            saturation_rate,
            worst_point: worst.map(|p| p.point.id.clone()),
            worst_norm_latency: worst.map_or(1.0, norm_latency),
            degradation,
        });
    }
    let find = |p: Profile| profiles.iter().find(|s| s.profile == p);
    let (degradation_delta, adversarial_saturates_no_later) =
        match (find(Profile::Adversarial), find(Profile::Expected)) {
            (Some(adv), Some(exp)) => (
                adv.worst_norm_latency - exp.worst_norm_latency,
                adv.saturation_rate.unwrap_or(f64::INFINITY)
                    <= exp.saturation_rate.unwrap_or(f64::INFINITY),
            ),
            _ => (0.0, true),
        };
    CampaignSummary { profiles, degradation_delta, adversarial_saturates_no_later }
}

// ------------------------------------------------------------ artifact

/// The `RESILIENCE_*` artifact (`name` is the full artifact name). No
/// wall times: same seeds, same bytes (modulo `generated_unix`), so CI
/// can diff two regenerations.
pub fn resilience_artifact(name: &str, quick: bool, summary: &CampaignSummary) -> Json {
    let r4 = |v: f64| rounded(v, 4);
    let profiles = summary.profiles.iter().map(|p| {
        let degradation = p.degradation.iter().map(|d| {
            let r = &d.recovery;
            Json::obj()
                .field("id", &d.label)
                .field("runs", d.runs)
                .field("saturated_runs", d.saturated_runs)
                .field("mean_norm_latency", r4(d.mean_norm_latency))
                .field("max_norm_latency", r4(d.max_norm_latency))
                .field("mean_completion_rate", r4(d.mean_completion))
                .field("recovery_records", r.records)
                .field("recovery_converged", r.converged)
                .field("mean_drain_cycles", r4(r.drain.mean()))
                .field("max_drain_cycles", r.drain.max)
                .field("mean_rewrite_cycles", r4(r.rewrite.mean()))
                .field("max_rewrite_cycles", r.rewrite.max)
                .field("mean_convergence_cycles", r4(r.convergence.mean()))
                .field("max_convergence_cycles", r.convergence.max)
        });
        Json::obj()
            .field("id", p.profile.label())
            .field("saturation_rate", p.saturation_rate.map(r4))
            .field("worst_point", p.worst_point.as_ref())
            .field("worst_norm_latency", r4(p.worst_norm_latency))
            .field("degradation", Json::arr(degradation))
    });
    header(name)
        .field("quick", quick)
        .field("degradation_delta", r4(summary.degradation_delta))
        .field("adversarial_saturates_no_later", summary.adversarial_saturates_no_later)
        .field("profiles", Json::arr(profiles))
}

/// The campaign figure renderer: summary tables, CSV, and the
/// `RESILIENCE_*` artifact.
pub fn render_campaign(results: &PlanResults, opts: &SuiteOptions) {
    let summary = summarize(results);
    let fmt_mm = |m: &MeanMax| {
        if m.count == 0 {
            "-".to_string()
        } else {
            format!("{:.0}/{}", m.mean(), m.max)
        }
    };
    let mut rows = Vec::new();
    for p in &summary.profiles {
        for d in &p.degradation {
            rows.push(vec![
                p.profile.label().to_string(),
                d.label.clone(),
                format!("{}/{}", d.saturated_runs, d.runs),
                format!("{:.3}", d.mean_norm_latency),
                format!("{:.3}", d.max_norm_latency),
                format!("{:.4}", d.mean_completion),
                format!("{}/{}", d.recovery.converged, d.recovery.records),
                fmt_mm(&d.recovery.drain),
                fmt_mm(&d.recovery.rewrite),
                fmt_mm(&d.recovery.convergence),
            ]);
        }
    }
    let headers = [
        "profile",
        "intensity",
        "saturated",
        "gm lat vs clean",
        "max lat vs clean",
        "completion",
        "recovered",
        "drain (mean/max)",
        "rewrite (mean/max)",
        "converge (mean/max)",
    ];
    print_table("Resilience campaign: degradation and recovery", &headers, &rows);
    write_csv_logged("results/csv/resilience.csv", &headers, &rows);
    for p in &summary.profiles {
        let sat = p
            .saturation_rate
            .map_or("beyond swept loads".into(), |r| format!("at load {r:.3}"));
        println!(
            "{}: saturates {sat}; worst run {} ({:.3}x clean latency)",
            p.profile.label(),
            p.worst_point.as_deref().unwrap_or("-"),
            p.worst_norm_latency,
        );
    }
    println!(
        "adversarial-vs-expected degradation delta: {:+.3}x; adversarial \
         saturates no later than expected: {}",
        summary.degradation_delta, summary.adversarial_saturates_no_later,
    );
    let name = "RESILIENCE_resilience";
    write_artifact(name, &resilience_artifact(name, opts.quick, &summary));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_plan, RunnerConfig};

    #[test]
    fn fault_dimension_zero_is_faultless() {
        let dim = fault_dimension(&[0.0, 1.5], |v| FaultSpec::Correlated {
            seed: 7,
            intensity: v,
        });
        assert_eq!(dim[0].label, "0.0");
        assert_eq!(dim[0].value, FaultSpec::None);
        assert_eq!(dim[1].label, "1.5");
        assert!(matches!(dim[1].value, FaultSpec::Correlated { intensity, .. }
            if (intensity - 1.5).abs() < 1e-12));
    }

    #[test]
    fn resilience_plan_shape() {
        let opts = SuiteOptions { quick: true };
        let plan = CampaignSpec::resilience(&opts).plan();
        // 3 profiles × 1 seed × 2 loads × 2 intensities on 1 design.
        assert_eq!(plan.len(), 12);
        for point in &plan.points {
            if point.labels.fault == "0.0" {
                assert!(point.is_baseline, "{}", point.id);
            } else {
                assert!(point.baseline_id.is_some(), "{}", point.id);
            }
        }
    }

    #[test]
    fn tiny_campaign_summarizes_and_renders() {
        let mut spec = CampaignSpec::resilience(&SuiteOptions { quick: true });
        spec.loads = vec![0.02];
        spec.sim.warmup_cycles = 200;
        spec.sim.measure_cycles = 2_000;
        let results =
            run_plan(&spec.plan(), &RunnerConfig { jobs: 2, quiet: true, ..RunnerConfig::default() });
        let summary = summarize(&results);
        assert_eq!(summary.profiles.len(), 3);
        for p in &summary.profiles {
            assert_eq!(p.degradation.len(), 2);
            assert_eq!(p.degradation[0].label, "0.0");
            assert!(p.worst_point.is_some());
            // Fault-free rung normalises to exactly 1.0 (its own baseline).
            assert!((p.degradation[0].mean_norm_latency - 1.0).abs() < 1e-9);
            // The correlated plan fired something at intensity 1.0.
            assert!(p.degradation[1].recovery.records > 0, "{:?}", p.profile);
        }
        let json = resilience_artifact("RESILIENCE_t", true, &summary).pretty();
        assert!(json.contains("\"id\": \"adversarial\""));
        assert!(json.contains("\"degradation_delta\""));
        assert!(!json.contains("wall_ms"), "artifact must stay wall-time free");
    }

    #[test]
    fn mean_max_null_when_empty() {
        let mm = MeanMax::default();
        assert!(mm.mean().is_nan());
        assert_eq!(rounded(mm.mean(), 4).line(), "null");
        let mut mm = MeanMax::default();
        mm.push(4);
        mm.push(8);
        assert!((mm.mean() - 6.0).abs() < 1e-12);
        assert_eq!(mm.max, 8);
    }
}
