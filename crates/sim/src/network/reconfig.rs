//! Live RF-I reconfiguration (paper §3.2 steps 1–3): drain the
//! channels, retune transmitters/receivers, rewrite the routing tables.
//! Fault-driven shortcut teardowns reuse the same drain → retune →
//! rewrite machinery, so graceful degradation and planned retuning share
//! one code path.

#[allow(clippy::wildcard_imports)]
use super::*;

impl Network {

    /// Requests a live reconfiguration to a new shortcut set (paper §3.2):
    /// the RF-I ports stop accepting traffic, drain, the transmitters and
    /// receivers retune, and the routing tables are rewritten (stalling
    /// injection for [`SimConfig::reconfig_cycles`]). Traffic in the mesh
    /// keeps flowing throughout. Shortcuts whose transmitter has failed
    /// (and not been repaired) are skipped at retune time.
    ///
    /// # Errors
    ///
    /// Returns a [`ReconfigError`] if the network uses XY routing (no
    /// tables to rewrite), a reconfiguration is already in progress, or
    /// the new set violates the one-in/one-out port constraint (including
    /// self-loop shortcuts, which the constraint implies).
    pub fn reconfigure(&mut self, shortcuts: Vec<Shortcut>) -> Result<(), ReconfigError> {
        if self.routes.is_none() {
            return Err(ReconfigError::XyRouting);
        }
        if self.reconfig != ReconfigState::Idle || self.pending_target.is_some() {
            return Err(ReconfigError::InProgress);
        }
        check_shortcut_set(&shortcuts, self.dims.nodes())?;
        self.begin_draining(shortcuts);
        Ok(())
    }

    /// Starts draining the RF ports toward `target`. They stop accepting
    /// new packets, which reroutes every head bound for one, so every head
    /// is unparked (leaving the drain, `apply_retuning` unparks them
    /// again).
    pub(super) fn begin_draining(&mut self, target: Vec<Shortcut>) {
        self.reconfig = ReconfigState::Draining(target);
        self.unpark_all();
    }

    /// Completed reconfigurations so far (planned retunes and fault-driven
    /// degradations both count).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Whether every RF-I port in the network is idle (no owners, full
    /// credits, empty buffers and link queues).
    pub(super) fn rf_idle(&self) -> bool {
        self.routers.iter().all(|r| r.port_idle(r.rf_port()))
    }

    /// Retunes the RF ports to `shortcuts` (minus failed transmitters) and
    /// rebuilds the routing tables.
    pub(super) fn apply_retuning(&mut self, shortcuts: &[Shortcut]) {
        let installed: Vec<Shortcut> = shortcuts
            .iter()
            .filter(|s| !self.failed_rf_tx[s.src])
            .copied()
            .collect();
        // Tear down all RF ports (drained by construction).
        for r in self.routers.iter_mut() {
            r.disconnect(r.rf_port());
        }
        for s in &installed {
            let rf_src = self.rf_port(s.src);
            let rf_dst = self.rf_port(s.dst);
            self.routers[s.src].connect_output(
                rf_src,
                OutLink {
                    target: Some((s.dst, rf_dst as u8)),
                    capacity: self.config.rf_flits_per_cycle(),
                    shortcut_hops: self.fabric.base_route_len(s.src, s.dst),
                    ..OutLink::default()
                },
            );
            self.routers[s.dst].connect_input(rf_dst, Some((s.src, rf_src as u8)));
        }
        self.active_shortcuts = installed;
        self.rebuild_unicast_tables();
        self.tel_event(telemetry::TimelineEventKind::RetuneApplied {
            installed: self.active_shortcuts.len(),
        });
        // Retuning rewrites the routing tables and reopens the RF ports;
        // wake everyone so any packet whose route just changed is
        // revisited promptly, and unpark every head.
        self.mark_all_active();
    }

    /// Rebuilds the shortest-path routes over the current topology: the
    /// oracle over the intact fabric plus the active shortcuts, as at
    /// construction (so a fault-free retune behaves exactly as it always
    /// did), and while base links are down the dense detour tables of a
    /// per-destination BFS over the surviving links, which routing then
    /// follows.
    pub(super) fn rebuild_unicast_tables(&mut self) {
        let detour =
            (self.mesh_link_failures > 0).then(|| self.detour_tables(&self.active_shortcuts));
        let oracle = DistanceOracle::new(&self.fabric, &self.active_shortcuts);
        self.routes = Some(Routes { oracle, detour });
    }

    /// Advances the reconfiguration state machine by one cycle.
    pub(super) fn step_reconfig(&mut self) {
        match std::mem::replace(&mut self.reconfig, ReconfigState::Idle) {
            ReconfigState::Idle => {}
            ReconfigState::Draining(shortcuts) => {
                if self.rf_idle() {
                    self.apply_retuning(&shortcuts);
                    self.reconfig =
                        ReconfigState::Updating(self.cycle + self.config.reconfig_cycles);
                } else {
                    self.reconfig = ReconfigState::Draining(shortcuts);
                }
            }
            ReconfigState::Updating(until) => {
                if self.cycle >= until {
                    self.reconfigurations += 1;
                    self.tel_event(telemetry::TimelineEventKind::TablesRewritten);
                    // A fault that struck mid-rewrite queued a fresh target;
                    // start draining toward it now.
                    if let Some(target) = self.pending_target.take() {
                        self.begin_draining(target);
                    }
                } else {
                    self.reconfig = ReconfigState::Updating(until);
                }
            }
        }
    }

    /// Whether injection is stalled by a routing-table rewrite.
    pub(super) fn injection_stalled(&self) -> bool {
        matches!(self.reconfig, ReconfigState::Updating(_))
    }

    /// Whether RF output ports may accept new packets.
    pub(super) fn rf_accepting(&self) -> bool {
        !matches!(self.reconfig, ReconfigState::Draining(_))
    }
}
