//! Multi-band frequency allocation on the RF-I transmission lines
//! (paper §2, §3.2).
//!
//! The RF-I medium is a bundle of on-chip transmission lines shared by
//! frequency-division multiplexing: each of the `N` mixers on the
//! transmitting side up-converts one data stream into its own frequency
//! band, and the matching receiver mixer + low-pass filter recovers it.
//! The paper's budget: **256 B/cycle aggregate = 4096 Gbps at 2 GHz**,
//! carried on **43 parallel transmission lines of 96 Gbps** each; carved
//! into **16-byte channels**, that is a budget of 16 simultaneous
//! shortcuts (or 15 + one broadcast band for multicast).
//!
//! [`BandPlan`] performs that carving: it assigns every shortcut a band
//! index, optionally reserves a broadcast band, checks the budget, and
//! produces the per-router tuning tables ("each transmitter or receiver
//! in the topology will be tuned to a particular frequency (or disabled
//! entirely)", §3.2 step 2).

use crate::packet::DestSet;
use rfnoc_topology::{NodeId, Shortcut};
use std::collections::HashMap;

/// Aggregate RF-I budget and channelisation (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfBudget {
    /// Aggregate bandwidth in bytes per network cycle (paper: 256).
    pub aggregate_bytes_per_cycle: u32,
    /// Bytes per channel (paper: 16).
    pub channel_bytes: u32,
    /// Bandwidth of one physical transmission line in Gbps (paper: 96).
    pub line_gbps: f64,
    /// Network clock in Hz (paper: 2 GHz).
    pub clock_hz: f64,
}

impl RfBudget {
    /// The paper's budget: 256B aggregate in 16B channels at 2 GHz over
    /// 96 Gbps lines.
    pub fn paper_default() -> Self {
        Self {
            aggregate_bytes_per_cycle: 256,
            channel_bytes: 16,
            line_gbps: 96.0,
            clock_hz: 2.0e9,
        }
    }

    /// Aggregate bandwidth in Gbps (paper: 4096).
    pub fn aggregate_gbps(&self) -> f64 {
        self.aggregate_bytes_per_cycle as f64 * 8.0 * self.clock_hz / 1e9
    }

    /// Number of 16B channels (bands) available (paper: 16).
    pub fn channels(&self) -> usize {
        (self.aggregate_bytes_per_cycle / self.channel_bytes) as usize
    }

    /// Physical transmission lines needed to carry the aggregate
    /// bandwidth (paper: 43).
    pub fn transmission_lines(&self) -> usize {
        (self.aggregate_gbps() / self.line_gbps).ceil() as usize
    }
}

impl Default for RfBudget {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// What a router's RF transmitter or receiver is tuned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tuning {
    /// Powered down (the router has no active role on the RF-I).
    Disabled,
    /// Tuned to the point-to-point shortcut band with this index.
    Shortcut(usize),
    /// Tuned to the shared broadcast (multicast) band.
    Broadcast,
}

/// A complete frequency-band assignment: shortcut bands, optional
/// broadcast band, and per-router Tx/Rx tuning tables.
#[derive(Debug, Clone, PartialEq)]
pub struct BandPlan {
    budget: RfBudget,
    shortcuts: Vec<Shortcut>,
    broadcast_band: Option<usize>,
    tx: HashMap<NodeId, Tuning>,
    rx: HashMap<NodeId, Tuning>,
    broadcast_rx: Vec<NodeId>,
}

/// Errors produced when a band plan cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanBandsError {
    /// More channels requested than the aggregate budget provides.
    BudgetExceeded {
        /// Channels requested (shortcuts + broadcast).
        requested: usize,
        /// Channels available.
        available: usize,
    },
    /// A router would need two transmitters (two outbound shortcuts).
    DuplicateTransmitter(NodeId),
    /// A router would need two receivers (two inbound shortcuts, or a
    /// shortcut receiver also tuned to the broadcast band).
    DuplicateReceiver(NodeId),
}

impl std::fmt::Display for PlanBandsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanBandsError::BudgetExceeded { requested, available } => write!(
                f,
                "requested {requested} channels but the RF-I budget provides {available}"
            ),
            PlanBandsError::DuplicateTransmitter(r) => {
                write!(f, "router {r} would need two RF transmitters")
            }
            PlanBandsError::DuplicateReceiver(r) => {
                write!(f, "router {r} would need two RF receivers")
            }
        }
    }
}

impl std::error::Error for PlanBandsError {}

impl BandPlan {
    /// Builds a band plan: one band per shortcut (in order) and, when
    /// `broadcast_receivers` is non-empty, a dedicated broadcast band that
    /// all those receivers tune to.
    ///
    /// # Errors
    ///
    /// Returns an error if the budget is exceeded or any router would need
    /// more than one transmitter or receiver (the paper's 6-port limit).
    pub fn new(
        budget: RfBudget,
        shortcuts: &[Shortcut],
        broadcast_receivers: &[NodeId],
    ) -> Result<Self, PlanBandsError> {
        let broadcast = !broadcast_receivers.is_empty();
        let requested = shortcuts.len() + usize::from(broadcast);
        let available = budget.channels();
        if requested > available {
            return Err(PlanBandsError::BudgetExceeded { requested, available });
        }
        let mut tx = HashMap::new();
        let mut rx = HashMap::new();
        for (band, s) in shortcuts.iter().enumerate() {
            if tx.insert(s.src, Tuning::Shortcut(band)).is_some() {
                return Err(PlanBandsError::DuplicateTransmitter(s.src));
            }
            if rx.insert(s.dst, Tuning::Shortcut(band)).is_some() {
                return Err(PlanBandsError::DuplicateReceiver(s.dst));
            }
        }
        let broadcast_band = broadcast.then_some(shortcuts.len());
        for &r in broadcast_receivers {
            if rx.insert(r, Tuning::Broadcast).is_some() {
                return Err(PlanBandsError::DuplicateReceiver(r));
            }
        }
        Ok(Self {
            budget,
            shortcuts: shortcuts.to_vec(),
            broadcast_band,
            tx,
            rx,
            broadcast_rx: broadcast_receivers.to_vec(),
        })
    }

    /// The budget this plan was carved from.
    pub fn budget(&self) -> RfBudget {
        self.budget
    }

    /// The broadcast band index, if one was reserved.
    pub fn broadcast_band(&self) -> Option<usize> {
        self.broadcast_band
    }

    /// Bands in use (shortcuts + broadcast).
    pub fn bands_used(&self) -> usize {
        self.shortcuts.len() + usize::from(self.broadcast_band.is_some())
    }

    /// Spare channels left in the budget.
    pub fn bands_free(&self) -> usize {
        self.budget.channels() - self.bands_used()
    }

    /// The transmitter tuning of `router`.
    pub fn tx_tuning(&self, router: NodeId) -> Tuning {
        self.tx.get(&router).copied().unwrap_or(Tuning::Disabled)
    }

    /// The receiver tuning of `router`.
    pub fn rx_tuning(&self, router: NodeId) -> Tuning {
        self.rx.get(&router).copied().unwrap_or(Tuning::Disabled)
    }

    /// Routers whose receivers listen on the broadcast band.
    pub fn broadcast_receivers(&self) -> &[NodeId] {
        &self.broadcast_rx
    }

    /// Retunes the plan for a new shortcut set (a reconfiguration, §3.2):
    /// same budget, same broadcast receivers minus any now used as
    /// shortcut endpoints.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BandPlan::new`].
    pub fn retune(&self, shortcuts: &[Shortcut]) -> Result<Self, PlanBandsError> {
        let shortcut_rx: DestSet = shortcuts.iter().map(|s| s.dst).collect();
        let receivers: Vec<NodeId> = self
            .broadcast_rx
            .iter()
            .copied()
            .filter(|r| !shortcut_rx.contains(*r))
            .collect();
        Self::new(self.budget, shortcuts, &receivers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_figures() {
        let b = RfBudget::paper_default();
        assert_eq!(b.aggregate_gbps(), 4096.0);
        assert_eq!(b.channels(), 16);
        assert_eq!(b.transmission_lines(), 43);
    }

    #[test]
    fn plan_assigns_distinct_bands() {
        let shortcuts = vec![Shortcut::new(0, 9), Shortcut::new(5, 3)];
        let plan = BandPlan::new(RfBudget::paper_default(), &shortcuts, &[]).unwrap();
        assert_eq!(plan.tx_tuning(0), Tuning::Shortcut(0));
        assert_eq!(plan.rx_tuning(9), Tuning::Shortcut(0));
        assert_eq!(plan.tx_tuning(5), Tuning::Shortcut(1));
        assert_eq!(plan.rx_tuning(3), Tuning::Shortcut(1));
        assert_eq!(plan.tx_tuning(7), Tuning::Disabled);
        assert_eq!(plan.bands_used(), 2);
        assert_eq!(plan.bands_free(), 14);
        assert_eq!(plan.broadcast_band(), None);
    }

    #[test]
    fn broadcast_band_reserved_after_shortcuts() {
        let shortcuts = vec![Shortcut::new(0, 9)];
        let plan =
            BandPlan::new(RfBudget::paper_default(), &shortcuts, &[2, 4, 6]).unwrap();
        assert_eq!(plan.broadcast_band(), Some(1));
        assert_eq!(plan.rx_tuning(4), Tuning::Broadcast);
        assert_eq!(plan.bands_used(), 2);
        assert_eq!(plan.broadcast_receivers(), &[2, 4, 6]);
    }

    #[test]
    fn budget_enforced() {
        let shortcuts: Vec<Shortcut> = (0..16).map(|i| Shortcut::new(i, i + 20)).collect();
        // 16 shortcuts alone fit…
        assert!(BandPlan::new(RfBudget::paper_default(), &shortcuts, &[]).is_ok());
        // …but 16 + broadcast does not.
        let err = BandPlan::new(RfBudget::paper_default(), &shortcuts, &[50]).unwrap_err();
        assert_eq!(err, PlanBandsError::BudgetExceeded { requested: 17, available: 16 });
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn port_conflicts_detected() {
        let two_tx = vec![Shortcut::new(0, 9), Shortcut::new(0, 5)];
        assert_eq!(
            BandPlan::new(RfBudget::paper_default(), &two_tx, &[]).unwrap_err(),
            PlanBandsError::DuplicateTransmitter(0)
        );
        let two_rx = vec![Shortcut::new(1, 9), Shortcut::new(2, 9)];
        assert_eq!(
            BandPlan::new(RfBudget::paper_default(), &two_rx, &[]).unwrap_err(),
            PlanBandsError::DuplicateReceiver(9)
        );
        // shortcut receiver cannot also listen to the broadcast band
        let sc = vec![Shortcut::new(1, 9)];
        assert_eq!(
            BandPlan::new(RfBudget::paper_default(), &sc, &[9]).unwrap_err(),
            PlanBandsError::DuplicateReceiver(9)
        );
    }

    #[test]
    fn retune_preserves_broadcast_receivers() {
        let plan =
            BandPlan::new(RfBudget::paper_default(), &[Shortcut::new(0, 9)], &[2, 4]).unwrap();
        // retune so a broadcast receiver becomes a shortcut receiver
        let retuned = plan.retune(&[Shortcut::new(1, 4)]).unwrap();
        assert_eq!(retuned.rx_tuning(4), Tuning::Shortcut(0));
        assert_eq!(retuned.broadcast_receivers(), &[2]);
        assert_eq!(retuned.rx_tuning(9), Tuning::Disabled, "old shortcut dropped");
    }
}
