//! Result-based error layer for the simulator's public API.
//!
//! The seed version of this crate panicked on every misuse: invalid
//! configurations, malformed shortcut sets, reconfiguration while one was
//! already in flight. A production-scale service embedding the simulator
//! needs to *reject* bad inputs, not die on them, so the fallible entry
//! points ([`crate::SimConfig::validate`], [`crate::Network::try_new`],
//! [`crate::Network::reconfigure`]) return these types. The panicking
//! constructors remain as thin `expect` wrappers for tests and examples.

use std::error::Error;
use std::fmt;

/// A rejected [`crate::SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// No virtual channels at all.
    NoVcs,
    /// No escape virtual channels — escape VCs are required for deadlock
    /// freedom (§4).
    NoEscapeVcs,
    /// No adaptive virtual channels (`vcs_escape` must be strictly less
    /// than the total so shortcut-capable VCs exist).
    NoAdaptiveVcs,
    /// Flit buffers must hold at least one flit.
    ZeroBufferDepth,
    /// A router dimension is larger than the engine's flat router block
    /// can index: `vcs_adaptive + vcs_escape` above the width of the
    /// per-port VC masks, `buffer_depth` above the range of the `u8`
    /// ring positions and credit counts, or a fabric whose widest router
    /// has more ports than the per-router port masks.
    ShapeTooLarge {
        /// The offending parameter.
        parameter: &'static str,
        /// Its configured value.
        value: usize,
        /// The largest value the engine supports.
        limit: usize,
    },
    /// The measurement window is empty.
    EmptyMeasureWindow,
    /// The local injection/ejection port moves no flits.
    NoLocalBandwidth,
    /// The sharded cycle engine was configured with zero worker threads.
    ZeroSimThreads,
    /// The watchdog window is shorter than a routing-table rewrite stall,
    /// which would flag healthy reconfigurations as hangs.
    WatchdogTooTight {
        /// The configured watchdog window.
        watchdog: u64,
        /// The minimum meaningful window.
        minimum: u64,
    },
    /// Telemetry was enabled with a zero sampling interval.
    ZeroTelemetryInterval,
    /// The run ledger was enabled with a zero heartbeat interval.
    ZeroLedgerInterval,
    /// The ledger follower (`rfnoc-cli tail --follow`) was asked to poll
    /// with a zero-millisecond interval, which would spin a CPU core
    /// re-reading the file.
    ZeroPollInterval,
    /// Recovery tracking was enabled with a zero-completion window.
    ZeroRecoveryWindow,
    /// Recovery tracking was enabled with a non-positive convergence
    /// tolerance.
    NonPositiveRecoveryEpsilon,
    /// A fault event names a router outside the grid.
    FaultRouterOutOfRange {
        /// The offending router id.
        router: usize,
        /// Number of routers in the grid.
        nodes: usize,
    },
    /// A mesh-link fault names two routers that are not mesh neighbours.
    FaultLinkNotAdjacent {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A repair event precedes any failure of the same resource, so the
    /// plan would silently no-op (or worse, double-repair).
    FaultRepairBeforeFail {
        /// Cycle of the premature repair.
        cycle: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoVcs => write!(f, "need at least one VC"),
            Self::NoEscapeVcs => {
                write!(f, "escape VCs are required for deadlock freedom")
            }
            Self::NoAdaptiveVcs => write!(
                f,
                "vcs_escape must be less than the total VC count (need at least one adaptive VC)"
            ),
            Self::ZeroBufferDepth => write!(f, "buffers must hold at least one flit"),
            Self::ShapeTooLarge { parameter, value, limit } => {
                write!(f, "{parameter} is {value}, above the engine limit of {limit}")
            }
            Self::EmptyMeasureWindow => write!(f, "measurement window must be non-empty"),
            Self::NoLocalBandwidth => write!(f, "local port needs bandwidth"),
            Self::ZeroSimThreads => {
                write!(f, "simulation threads must be at least 1")
            }
            Self::WatchdogTooTight { watchdog, minimum } => write!(
                f,
                "watchdog window of {watchdog} cycles is below the {minimum}-cycle minimum"
            ),
            Self::ZeroTelemetryInterval => {
                write!(f, "telemetry sampling interval must be non-zero")
            }
            Self::ZeroLedgerInterval => {
                write!(f, "ledger heartbeat interval must be non-zero")
            }
            Self::ZeroPollInterval => {
                write!(f, "poll interval must be a non-zero number of milliseconds")
            }
            Self::ZeroRecoveryWindow => {
                write!(f, "recovery tracking needs a non-zero completion window")
            }
            Self::NonPositiveRecoveryEpsilon => {
                write!(f, "recovery convergence tolerance must be positive")
            }
            Self::FaultRouterOutOfRange { router, nodes } => {
                write!(f, "fault event names router {router}, but the grid has {nodes} routers")
            }
            Self::FaultLinkNotAdjacent { a, b } => {
                write!(f, "mesh-link fault between non-adjacent routers {a} and {b}")
            }
            Self::FaultRepairBeforeFail { cycle } => {
                write!(f, "repair at cycle {cycle} precedes any failure of that resource")
            }
        }
    }
}

impl Error for ConfigError {}

/// A rejected live reconfiguration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigError {
    /// The network routes by XY; there are no tables to rewrite.
    XyRouting,
    /// A reconfiguration is already draining or updating.
    InProgress,
    /// A shortcut endpoint does not name a router.
    EndpointOutOfRange {
        /// The offending shortcut's source.
        src: usize,
        /// The offending shortcut's destination.
        dst: usize,
    },
    /// A shortcut connects a router to itself.
    SelfLoop {
        /// The router with the self-loop.
        router: usize,
    },
    /// Two shortcuts transmit from the same router (one Tx per router).
    DuplicateSource {
        /// The over-subscribed router.
        router: usize,
    },
    /// Two shortcuts receive at the same router (one Rx per router).
    DuplicateDest {
        /// The over-subscribed router.
        router: usize,
    },
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::XyRouting => {
                write!(f, "reconfiguration requires shortest-path (table) routing")
            }
            Self::InProgress => write!(f, "reconfiguration already in progress"),
            Self::EndpointOutOfRange { src, dst } => {
                write!(f, "shortcut {src} -> {dst} endpoint out of range")
            }
            Self::SelfLoop { router } => {
                write!(f, "shortcut at router {router} is a self-loop")
            }
            Self::DuplicateSource { router } => {
                write!(f, "router {router} has two outbound shortcuts")
            }
            Self::DuplicateDest { router } => {
                write!(f, "router {router} has two inbound shortcuts")
            }
        }
    }
}

impl Error for ReconfigError {}

/// A rejected network specification or simulator request.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The microarchitectural configuration is degenerate.
    Config(ConfigError),
    /// The fabric topology is degenerate (see [`rfnoc_topology::TopologyError`]).
    Fabric(rfnoc_topology::TopologyError),
    /// The shortcut set violates the one-in/one-out port constraint.
    Shortcuts(ReconfigError),
    /// RF broadcast multicast on a fabric without the mesh-wide RF medium.
    RfMulticastNeedsMesh,
    /// Shortcuts were supplied to an XY-routed network.
    ShortcutsOnXy,
    /// The distance matrix the spec carries
    /// ([`crate::NetworkSpec::with_selection`]) does not belong to its
    /// fabric and shortcut set — the shortcuts were edited after the
    /// selection that produced both.
    StaleDistances {
        /// What does not fit.
        reason: String,
    },
    /// RF multicast mode without an [`crate::McConfig`].
    MissingMcConfig,
    /// The [`crate::McConfig`] is inconsistent with itself or the grid.
    InvalidMcConfig {
        /// Why the configuration is invalid.
        reason: String,
    },
    /// The fault plan names a resource outside the network.
    InvalidFault {
        /// The cycle of the offending event.
        cycle: u64,
        /// Why the event is invalid.
        reason: String,
    },
    /// A unicast message whose source equals its destination.
    SelfUnicast {
        /// The offending node.
        node: usize,
    },
    /// A multicast message with no destinations.
    EmptyMulticast,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "{e}"),
            Self::Fabric(e) => write!(f, "{e}"),
            Self::Shortcuts(e) => write!(f, "{e}"),
            Self::RfMulticastNeedsMesh => {
                write!(f, "RF broadcast multicast requires the mesh fabric")
            }
            Self::ShortcutsOnXy => {
                write!(f, "XY routing cannot use shortcuts; use ShortestPath")
            }
            Self::StaleDistances { reason } => {
                write!(f, "the spec's distance matrix is not its shortcut set's: {reason}")
            }
            Self::MissingMcConfig => write!(f, "RF multicast requires an McConfig"),
            Self::InvalidMcConfig { reason } => write!(f, "invalid McConfig: {reason}"),
            Self::InvalidFault { cycle, reason } => {
                write!(f, "invalid fault event at cycle {cycle}: {reason}")
            }
            Self::SelfUnicast { node } => write!(f, "unicast to self at node {node}"),
            Self::EmptyMulticast => write!(f, "empty multicast destination set"),
        }
    }
}

impl Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<ReconfigError> for SimError {
    fn from(e: ReconfigError) -> Self {
        Self::Shortcuts(e)
    }
}

impl From<rfnoc_topology::TopologyError> for SimError {
    fn from(e: rfnoc_topology::TopologyError) -> Self {
        Self::Fabric(e)
    }
}

/// Checks a shortcut set against the one-in/one-out port constraint
/// (§3.2: each router hosts at most one RF transmitter and one receiver)
/// over `n` routers, including the self-loop case the seed version
/// silently accepted.
pub(crate) fn check_shortcut_set(
    shortcuts: &[rfnoc_topology::Shortcut],
    n: usize,
) -> Result<(), ReconfigError> {
    let mut out_used = vec![false; n];
    let mut in_used = vec![false; n];
    for s in shortcuts {
        if s.src >= n || s.dst >= n {
            return Err(ReconfigError::EndpointOutOfRange { src: s.src, dst: s.dst });
        }
        if s.src == s.dst {
            return Err(ReconfigError::SelfLoop { router: s.src });
        }
        if out_used[s.src] {
            return Err(ReconfigError::DuplicateSource { router: s.src });
        }
        if in_used[s.dst] {
            return Err(ReconfigError::DuplicateDest { router: s.dst });
        }
        out_used[s.src] = true;
        in_used[s.dst] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_topology::Shortcut;

    #[test]
    fn shortcut_set_accepts_legal_sets() {
        assert_eq!(
            check_shortcut_set(&[Shortcut::new(0, 5), Shortcut::new(5, 0)], 16),
            Ok(())
        );
    }

    #[test]
    fn shortcut_set_rejects_self_loops() {
        assert_eq!(
            check_shortcut_set(&[Shortcut::new(3, 3)], 16),
            Err(ReconfigError::SelfLoop { router: 3 })
        );
    }

    #[test]
    fn shortcut_set_rejects_duplicate_ports() {
        assert_eq!(
            check_shortcut_set(&[Shortcut::new(0, 5), Shortcut::new(0, 6)], 16),
            Err(ReconfigError::DuplicateSource { router: 0 })
        );
        assert_eq!(
            check_shortcut_set(&[Shortcut::new(0, 5), Shortcut::new(1, 5)], 16),
            Err(ReconfigError::DuplicateDest { router: 5 })
        );
    }

    #[test]
    fn shortcut_set_rejects_out_of_range() {
        assert_eq!(
            check_shortcut_set(&[Shortcut::new(0, 99)], 16),
            Err(ReconfigError::EndpointOutOfRange { src: 0, dst: 99 })
        );
    }

    #[test]
    fn errors_display() {
        assert!(ConfigError::NoEscapeVcs.to_string().contains("escape VCs"));
        assert!(ConfigError::ZeroPollInterval.to_string().contains("poll interval"));
        let too_deep =
            ConfigError::ShapeTooLarge { parameter: "buffer_depth", value: 300, limit: 255 };
        assert_eq!(too_deep.to_string(), "buffer_depth is 300, above the engine limit of 255");
        assert!(ReconfigError::XyRouting.to_string().contains("shortest-path"));
        assert!(SimError::ShortcutsOnXy.to_string().contains("XY routing"));
    }
}
