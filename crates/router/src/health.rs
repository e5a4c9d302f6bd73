//! Per-backend health: a small deterministic state machine driven by
//! ping outcomes and drain commands (DESIGN.md §13).
//!
//! ```text
//!             failure              failure
//!   Healthy ──────────▶ Suspect ──────────▶ Down
//!      ▲                   │                  │
//!      └─────── success ───┴───── success ────┘
//!
//!   drain (from any state) ──▶ Drained   (absorbing)
//! ```
//!
//! `Suspect` exists so one dropped ping (a GC pause, a TCP retransmit)
//! does not evict a backend's tenants from their home: a suspect backend
//! is still **routable**, only a second consecutive failure takes it out
//! of rotation. Any success fully restores `Healthy`. `Drained` is the
//! operator's absorbing state — health checks stop and no transition
//! leaves it, so a drained backend can be retired at leisure.

/// A backend's health, `repr(u8)`-aligned with the wire encoding in
/// [`vfps_serve::proto::BackendStatus::state`] (see
/// [`vfps_serve::health_state_name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthState {
    /// Ping succeeding; in rotation.
    Healthy = 0,
    /// One consecutive ping failure; still in rotation.
    Suspect = 1,
    /// Two or more consecutive ping failures; out of rotation until a
    /// ping succeeds.
    Down = 2,
    /// Operator-drained; out of rotation forever (absorbing).
    Drained = 3,
}

impl HealthState {
    /// The wire byte for this state.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Whether new requests may be routed to a backend in this state.
    #[must_use]
    pub fn routable(self) -> bool {
        matches!(self, HealthState::Healthy | HealthState::Suspect)
    }
}

/// Drives one backend's [`HealthState`] from observed ping outcomes.
#[derive(Clone, Copy, Debug)]
pub struct HealthMachine {
    state: HealthState,
}

impl Default for HealthMachine {
    fn default() -> Self {
        HealthMachine::new()
    }
}

impl HealthMachine {
    /// A new machine; backends start `Healthy` (they were configured by
    /// an operator who presumably just started them — the first failed
    /// ping demotes within one health interval).
    #[must_use]
    pub fn new() -> HealthMachine {
        HealthMachine { state: HealthState::Healthy }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether new requests may be routed here.
    #[must_use]
    pub fn routable(&self) -> bool {
        self.state.routable()
    }

    /// Records a successful ping. Returns the previous state if this
    /// transitioned (for logging), `None` if nothing changed.
    pub fn record_success(&mut self) -> Option<HealthState> {
        match self.state {
            HealthState::Drained | HealthState::Healthy => None,
            prev @ (HealthState::Suspect | HealthState::Down) => {
                self.state = HealthState::Healthy;
                Some(prev)
            }
        }
    }

    /// Records a failed ping. Returns the previous state if this
    /// transitioned, `None` if nothing changed.
    pub fn record_failure(&mut self) -> Option<HealthState> {
        match self.state {
            HealthState::Drained | HealthState::Down => None,
            HealthState::Healthy => {
                self.state = HealthState::Suspect;
                Some(HealthState::Healthy)
            }
            HealthState::Suspect => {
                self.state = HealthState::Down;
                Some(HealthState::Suspect)
            }
        }
    }

    /// Drains the backend (absorbing). Returns the previous state if
    /// this transitioned, `None` if it was already drained.
    pub fn drain(&mut self) -> Option<HealthState> {
        if self.state == HealthState::Drained {
            return None;
        }
        let prev = self.state;
        self.state = HealthState::Drained;
        Some(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_walk_healthy_suspect_down() {
        let mut m = HealthMachine::new();
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.routable());
        assert_eq!(m.record_failure(), Some(HealthState::Healthy));
        assert_eq!(m.state(), HealthState::Suspect);
        assert!(m.routable(), "one dropped ping must not take a backend out of rotation");
        assert_eq!(m.record_failure(), Some(HealthState::Suspect));
        assert_eq!(m.state(), HealthState::Down);
        assert!(!m.routable());
        assert_eq!(m.record_failure(), None, "Down is stable under further failures");
    }

    #[test]
    fn any_success_restores_healthy() {
        let mut m = HealthMachine::new();
        m.record_failure();
        assert_eq!(m.record_success(), Some(HealthState::Suspect));
        assert_eq!(m.state(), HealthState::Healthy);
        m.record_failure();
        m.record_failure();
        assert_eq!(m.record_success(), Some(HealthState::Down));
        assert_eq!(m.state(), HealthState::Healthy);
    }

    #[test]
    fn drained_absorbs_everything() {
        let mut m = HealthMachine::new();
        assert_eq!(m.drain(), Some(HealthState::Healthy));
        assert_eq!(m.state(), HealthState::Drained);
        assert!(!m.routable());
        assert_eq!(m.record_success(), None);
        assert_eq!(m.record_failure(), None);
        assert_eq!(m.drain(), None);
        assert_eq!(m.state(), HealthState::Drained);
    }

    #[test]
    fn wire_bytes_match_the_proto_names() {
        for (state, name) in [
            (HealthState::Healthy, "healthy"),
            (HealthState::Suspect, "suspect"),
            (HealthState::Down, "down"),
            (HealthState::Drained, "drained"),
        ] {
            assert_eq!(vfps_serve::health_state_name(state.as_u8()), name);
        }
    }
}
