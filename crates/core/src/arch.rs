//! The architecture design points evaluated in the paper.

use rfnoc_power::LinkWidth;
use rfnoc_sim::SimConfig;
use std::fmt;

/// Default RF-I shortcut budget: a 256B aggregate RF-I bandwidth divided
/// into 16B channels gives **B = 16** unidirectional shortcuts (§3.2).
pub const DEFAULT_SHORTCUT_BUDGET: usize = 16;

/// Default number of RF-enabled routers for the adaptive architecture
/// (§5.1.1 picks 50 as the design point of interest).
pub const DEFAULT_ACCESS_POINTS: usize = 50;

/// An architecture design point from the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Architecture {
    /// Plain mesh, XY routing, no RF-I ("Mesh Baseline").
    Baseline,
    /// Architecture-specific shortcuts fixed at design time, selected by
    /// the Figure 3b max-cost heuristic ("Mesh Static Shortcuts").
    StaticShortcuts,
    /// The same static shortcut set realised in conventional buffered wire
    /// ("Mesh Wire Shortcuts", Figure 10a).
    WireShortcuts,
    /// Application-specific shortcuts re-selected per workload over
    /// `access_points` staggered RF-enabled routers ("Mesh Adaptive
    /// Shortcuts").
    AdaptiveShortcuts {
        /// Number of RF-enabled routers (50 or 25 in the paper).
        access_points: usize,
    },
    /// Baseline mesh with Virtual Circuit Tree multicast (Figure 9 "VCT").
    VctMulticast,
    /// RF-I broadcast channel only: all access points' receivers tuned to
    /// the multicast band, no shortcuts (Figure 9 "MC").
    RfMulticast {
        /// Number of RF-enabled routers.
        access_points: usize,
    },
    /// Adaptive shortcuts plus RF multicast: `shortcut_budget` shortcuts
    /// (15 in the paper) and the remaining receivers on the multicast band
    /// (Figure 9 "MC+SC").
    AdaptiveWithMulticast {
        /// Number of RF-enabled routers.
        access_points: usize,
        /// Shortcuts allocated; the rest of the RF budget serves multicast.
        shortcut_budget: usize,
    },
}

impl Architecture {
    /// Whether this architecture needs a traffic profile to select its
    /// shortcuts (the adaptive design points).
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            Architecture::AdaptiveShortcuts { .. } | Architecture::AdaptiveWithMulticast { .. }
        )
    }

    /// Whether this architecture overlays RF-I (or wire) shortcuts, and so
    /// has a selection to make before it can be elaborated.
    pub fn selects_shortcuts(&self) -> bool {
        match self {
            Architecture::StaticShortcuts
            | Architecture::WireShortcuts
            | Architecture::AdaptiveShortcuts { .. }
            | Architecture::AdaptiveWithMulticast { .. } => true,
            Architecture::Baseline
            | Architecture::VctMulticast
            | Architecture::RfMulticast { .. } => false,
        }
    }

    /// Short display name following the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Architecture::Baseline => "Mesh Baseline".into(),
            Architecture::StaticShortcuts => "Mesh Static Shortcuts".into(),
            Architecture::WireShortcuts => "Mesh Wire Shortcuts".into(),
            Architecture::AdaptiveShortcuts { access_points } => {
                format!("Mesh Adaptive Shortcuts ({access_points} APs)")
            }
            Architecture::VctMulticast => "VCT Multicast".into(),
            Architecture::RfMulticast { access_points } => {
                format!("RF Multicast ({access_points} APs)")
            }
            Architecture::AdaptiveWithMulticast { access_points, shortcut_budget } => format!(
                "Adaptive Shortcuts + RF Multicast ({access_points} APs, {shortcut_budget} SC)"
            ),
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A complete system configuration: architecture + link width + simulator
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The architecture design point.
    pub arch: Architecture,
    /// Conventional mesh link width (16B baseline; 8B/4B reduced).
    pub link_width: LinkWidth,
    /// Simulator microarchitecture parameters.
    pub sim: SimConfig,
    /// RF-I shortcut budget for the shortcut architectures.
    pub shortcut_budget: usize,
}

impl SystemConfig {
    /// The given architecture at the given width with paper-default
    /// simulator parameters.
    pub fn new(arch: Architecture, link_width: LinkWidth) -> Self {
        Self {
            arch,
            link_width,
            sim: SimConfig::paper_baseline().with_link_width(link_width),
            shortcut_budget: DEFAULT_SHORTCUT_BUDGET,
        }
    }

    /// Replaces the simulator configuration (keeping its link width in
    /// sync with this system's).
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim.with_link_width(self.link_width);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptivity_flags() {
        assert!(!Architecture::Baseline.selects_shortcuts());
        assert!(Architecture::WireShortcuts.selects_shortcuts());
        assert!(!Architecture::RfMulticast { access_points: 50 }.selects_shortcuts());
        assert!(!Architecture::Baseline.is_adaptive());
        assert!(!Architecture::StaticShortcuts.is_adaptive());
        assert!(Architecture::AdaptiveShortcuts { access_points: 50 }.is_adaptive());
        assert!(Architecture::AdaptiveWithMulticast { access_points: 50, shortcut_budget: 15 }
            .is_adaptive());
    }

    #[test]
    fn system_config_syncs_width() {
        let sys = SystemConfig::new(Architecture::Baseline, LinkWidth::B4);
        assert_eq!(sys.sim.link_width, LinkWidth::B4);
        let sys = sys.with_sim(SimConfig::paper_baseline());
        assert_eq!(sys.sim.link_width, LinkWidth::B4, "width must stay in sync");
    }

    #[test]
    fn names_are_distinct() {
        let archs = [
            Architecture::Baseline,
            Architecture::StaticShortcuts,
            Architecture::WireShortcuts,
            Architecture::AdaptiveShortcuts { access_points: 50 },
            Architecture::VctMulticast,
            Architecture::RfMulticast { access_points: 50 },
            Architecture::AdaptiveWithMulticast { access_points: 50, shortcut_budget: 15 },
        ];
        let names: std::collections::HashSet<String> =
            archs.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), archs.len());
    }
}
