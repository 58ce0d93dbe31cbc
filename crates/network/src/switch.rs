//! Switch devices (§III-B): ports that are Active, in Low Power Idle or
//! Off, line cards that are Active, asleep or Off, and the LPI and ALR
//! mechanisms that idle them, over the power profiles of
//! `holdcsim-power`.

use holdcsim_des::stats::TimeWeighted;
use holdcsim_des::time::{SimDuration, SimTime};
use holdcsim_power::states::{LineCardPowerState, PortPowerState};
use holdcsim_power::switch_profile::SwitchPowerProfile;

use crate::ids::NodeId;

/// One port or line card: its power state and its draw over time.
#[derive(Debug)]
struct Part<S> {
    state: S,
    draw: TimeWeighted,
}

impl<S> Part<S> {
    fn new(now: SimTime, state: S, power_w: f64) -> Self {
        Part {
            state,
            draw: TimeWeighted::new(now, power_w),
        }
    }

    /// Enters `state` at `now`, drawing `power_w` from then on.
    fn set(&mut self, now: SimTime, state: S, power_w: f64) {
        self.state = state;
        self.draw.set(now, power_w);
    }
}

/// One switch's power model: chassis + line cards + ports.
///
/// Wake/sleep timing model: every port and card transition is
/// instantaneous. Port LPI exit and line-card wake latencies are *charged
/// to the traffic* (returned from [`SwitchDevice::wake_for_tx`] so the
/// caller delays the packet/flow) while the state flips at once for power
/// accounting. At microsecond/millisecond scales this misattributes a
/// negligible sliver of energy and keeps every transition single-event.
///
/// # Examples
///
/// ```
/// use holdcsim_network::switch::SwitchDevice;
/// use holdcsim_network::ids::NodeId;
/// use holdcsim_power::switch_profile::SwitchPowerProfile;
/// use holdcsim_des::time::SimTime;
///
/// let profile = SwitchPowerProfile::cisco_ws_c2960_24s();
/// let sw = SwitchDevice::new(SimTime::ZERO, NodeId(0), 1, 24, profile);
/// // All ports active: 14.7 + 24 * 0.23.
/// assert!((sw.power_w() - 20.22).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct SwitchDevice {
    node: NodeId,
    profile: SwitchPowerProfile,
    ports_per_card: u32,
    chassis: TimeWeighted,
    cards: Vec<Part<LineCardPowerState>>,
    ports: Vec<Part<PortPowerState>>,
    /// Per-port negotiated rate (None = full rate) for ALR.
    port_rates: Vec<Option<u64>>,
    /// Last time each port finished transmitting (LPI-policy input).
    last_tx_end: Vec<SimTime>,
    lpi_entries: u64,
    card_sleeps: u64,
}

impl SwitchDevice {
    /// Creates a switch with all cards and ports active.
    pub fn new(
        now: SimTime,
        node: NodeId,
        linecards: u32,
        ports_per_card: u32,
        profile: SwitchPowerProfile,
    ) -> Self {
        let n_ports = (linecards * ports_per_card) as usize;
        let cards = (0..linecards)
            .map(|_| Part::new(now, LineCardPowerState::Active, profile.linecard.active_w))
            .collect();
        let ports = (0..n_ports)
            .map(|_| Part::new(now, PortPowerState::Active, profile.port.active_w))
            .collect();
        SwitchDevice {
            node,
            chassis: TimeWeighted::new(now, profile.chassis_w),
            profile,
            ports_per_card,
            cards,
            ports,
            port_rates: vec![None; n_ports],
            last_tx_end: vec![now; n_ports],
            lpi_entries: 0,
            card_sleeps: 0,
        }
    }

    /// The topology node this switch occupies.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The power profile this device was built with.
    pub fn profile(&self) -> &SwitchPowerProfile {
        &self.profile
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The line card carrying `port`.
    pub fn card_of(&self, port: u32) -> usize {
        (port / self.ports_per_card) as usize
    }

    /// Current state of `port`.
    pub fn port_state(&self, port: u32) -> PortPowerState {
        self.ports[port as usize].state
    }

    /// Current state of line card `card`.
    pub fn card_state(&self, card: usize) -> LineCardPowerState {
        self.cards[card].state
    }

    /// Ensures `port` (and its line card) can transmit at `now`, flipping
    /// them active and returning the wake latency to charge the traffic
    /// (zero when already active).
    pub fn wake_for_tx(&mut self, now: SimTime, port: u32) -> SimDuration {
        let card = self.card_of(port);
        let mut delay = self.card_wake(card);
        if self.card_state(card) != LineCardPowerState::Active {
            self.cards[card].set(
                now,
                LineCardPowerState::Active,
                self.profile.linecard.active_w,
            );
            self.refresh_chassis(now);
        }
        // A port parked at a reduced ALR rate renegotiates back to full
        // speed; the switching time is approximated by the LPI exit latency
        // (both are PHY resynchronizations of the same order).
        if self.port_rates[port as usize].take().is_some() {
            delay += self.profile.port.lpi_exit;
        }
        delay += self.port_wake(port);
        // Set even on an active port: restoring the full rate changes
        // its draw.
        self.ports[port as usize].set(now, PortPowerState::Active, self.profile.port.active_w);
        delay
    }

    /// The wake latency [`wake_for_tx`](Self::wake_for_tx) *would* charge,
    /// without changing any state (the network-aware scheduler's cost probe).
    pub fn wake_cost(&self, port: u32) -> SimDuration {
        self.card_wake(self.card_of(port)) + self.port_wake(port)
    }

    /// The wake latency of line card `card` alone.
    fn card_wake(&self, card: usize) -> SimDuration {
        match self.card_state(card) {
            LineCardPowerState::Active => SimDuration::ZERO,
            LineCardPowerState::Sleep | LineCardPowerState::Off => {
                self.profile.linecard.wake_latency
            }
        }
    }

    /// The wake latency of `port` alone, without its card's.
    fn port_wake(&self, port: u32) -> SimDuration {
        match self.port_state(port) {
            PortPowerState::Active => SimDuration::ZERO,
            PortPowerState::Lpi => self.profile.port.lpi_exit,
            // Re-enabling a disabled port: modeled like a card wake.
            PortPowerState::Off => self.profile.linecard.wake_latency,
        }
    }

    /// Records that `port` finished a transmission at `tx_end` (the LPI
    /// controller's idle-clock input).
    pub fn note_tx_end(&mut self, port: u32, tx_end: SimTime) {
        let slot = &mut self.last_tx_end[port as usize];
        *slot = (*slot).max(tx_end);
    }

    /// When `port` last finished transmitting.
    pub fn last_tx_end(&self, port: u32) -> SimTime {
        self.last_tx_end[port as usize]
    }

    /// Puts `port` into LPI at `now` if it is active and has been idle since
    /// before `now` (callers check their hold-time policy first).
    /// Returns `true` if the port entered LPI.
    pub fn enter_lpi(&mut self, now: SimTime, port: u32) -> bool {
        let p = &mut self.ports[port as usize];
        if p.state == PortPowerState::Active && self.last_tx_end[port as usize] <= now {
            p.set(now, PortPowerState::Lpi, self.profile.port.lpi_w);
            self.lpi_entries += 1;
            true
        } else {
            false
        }
    }

    /// Puts line card `card` to sleep at `now` if all its ports are in LPI
    /// or off. Returns `true` on success.
    pub fn sleep_card(&mut self, now: SimTime, card: usize) -> bool {
        let lo = card as u32 * self.ports_per_card;
        let hi = lo + self.ports_per_card;
        let all_idle = (lo..hi).all(|p| self.port_state(p) != PortPowerState::Active);
        if all_idle && self.card_state(card) == LineCardPowerState::Active {
            self.cards[card].set(
                now,
                LineCardPowerState::Sleep,
                self.profile.linecard.sleep_w,
            );
            self.card_sleeps += 1;
            self.refresh_chassis(now);
            true
        } else {
            false
        }
    }

    /// Drops the chassis to its sleep draw once every card sleeps (and
    /// restores it on the first card wake).
    fn refresh_chassis(&mut self, now: SimTime) {
        let any_active = self
            .cards
            .iter()
            .any(|c| c.state == LineCardPowerState::Active);
        let w = if any_active {
            self.profile.chassis_w
        } else {
            self.profile.chassis_sleep_w
        };
        self.chassis.set(now, w);
    }

    /// Negotiates `port` down/up to `rate_bps` (ALR), adjusting active
    /// power. Pass `None` to restore the full rate.
    pub fn set_port_rate(&mut self, now: SimTime, port: u32, rate_bps: Option<u64>) {
        self.port_rates[port as usize] = rate_bps;
        if self.port_state(port) == PortPowerState::Active {
            let port_profile = &self.profile.port;
            let w = rate_bps.map_or(port_profile.active_w, |rate| {
                port_profile.active_power_at_rate_w(rate)
            });
            self.ports[port as usize].draw.set(now, w);
        }
    }

    /// Instantaneous switch power (chassis + cards + ports).
    pub fn power_w(&self) -> f64 {
        self.chassis.value()
            + self.cards.iter().map(|c| c.draw.value()).sum::<f64>()
            + self.ports.iter().map(|p| p.draw.value()).sum::<f64>()
    }

    /// Total energy consumed through `now`, in joules (chassis included).
    pub fn energy_j(&self, now: SimTime) -> f64 {
        self.chassis.integral(now)
            + self.cards.iter().map(|c| c.draw.integral(now)).sum::<f64>()
            + self.ports.iter().map(|p| p.draw.integral(now)).sum::<f64>()
    }

    /// `(LPI entries, card sleeps)` counters.
    pub fn power_event_counts(&self) -> (u64, u64) {
        (self.lpi_entries, self.card_sleeps)
    }

    /// `true` if any port is active (the "switch is awake" predicate the
    /// network-aware policy uses).
    pub fn any_port_active(&self) -> bool {
        self.ports.iter().any(|p| p.state == PortPowerState::Active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cisco(now: SimTime) -> SwitchDevice {
        SwitchDevice::new(
            now,
            NodeId(0),
            1,
            24,
            SwitchPowerProfile::cisco_ws_c2960_24s(),
        )
    }

    #[test]
    fn initial_power_matches_all_active() {
        let sw = cisco(SimTime::ZERO);
        assert!((sw.power_w() - 20.22).abs() < 1e-9);
        assert_eq!(sw.port_count(), 24);
        assert_eq!(sw.card_of(23), 0, "one card carries every port");
    }

    #[test]
    fn lpi_entry_reduces_power_and_counts() {
        let mut sw = cisco(SimTime::ZERO);
        assert!(sw.enter_lpi(SimTime::from_secs(1), 0));
        let expected = 14.7 + 23.0 * 0.23 + 0.023;
        assert!((sw.power_w() - expected).abs() < 1e-9);
        assert_eq!(sw.power_event_counts().0, 1);
        assert_eq!(sw.port_state(0), PortPowerState::Lpi);
    }

    #[test]
    fn lpi_entry_refused_while_recently_active() {
        let mut sw = cisco(SimTime::ZERO);
        sw.note_tx_end(0, SimTime::from_secs(5));
        // A check firing earlier than the tx end must not idle the port.
        assert!(!sw.enter_lpi(SimTime::from_secs(2), 0));
        assert_eq!(sw.port_state(0), PortPowerState::Active);
    }

    #[test]
    fn wake_from_lpi_charges_exit_latency() {
        let mut sw = cisco(SimTime::ZERO);
        sw.enter_lpi(SimTime::from_secs(1), 3);
        let d = sw.wake_for_tx(SimTime::from_secs(2), 3);
        assert_eq!(d, SimDuration::from_micros(5));
        assert_eq!(sw.port_state(3), PortPowerState::Active);
        // Already active: no charge.
        assert_eq!(sw.wake_for_tx(SimTime::from_secs(2), 3), SimDuration::ZERO);
    }

    #[test]
    fn wake_cost_probe_is_side_effect_free() {
        let mut sw = cisco(SimTime::ZERO);
        sw.enter_lpi(SimTime::from_secs(1), 3);
        let cost = sw.wake_cost(3);
        assert_eq!(cost, SimDuration::from_micros(5));
        assert_eq!(sw.port_state(3), PortPowerState::Lpi);
    }

    #[test]
    fn card_sleep_requires_all_ports_idle() {
        let mut sw = SwitchDevice::new(
            SimTime::ZERO,
            NodeId(1),
            2,
            2,
            SwitchPowerProfile::datacenter_48port(),
        );
        let t = SimTime::from_secs(1);
        assert!(!sw.sleep_card(t, 0), "ports still active");
        sw.enter_lpi(t, 0);
        sw.enter_lpi(t, 1);
        assert!(sw.sleep_card(t, 0));
        assert_eq!(sw.card_state(0), LineCardPowerState::Sleep);
        // Waking port 0 also wakes the card, charging both latencies.
        let d = sw.wake_for_tx(SimTime::from_secs(2), 0);
        assert_eq!(
            d,
            SimDuration::from_millis(10) + SimDuration::from_micros(5)
        );
        assert_eq!(sw.card_state(0), LineCardPowerState::Active);
    }

    #[test]
    fn card_mapping() {
        let sw = SwitchDevice::new(
            SimTime::ZERO,
            NodeId(1),
            4,
            12,
            SwitchPowerProfile::datacenter_48port(),
        );
        assert_eq!(sw.card_of(0), 0);
        assert_eq!(sw.card_of(11), 0);
        assert_eq!(sw.card_of(12), 1);
        assert_eq!(sw.card_of(47), 3);
    }

    #[test]
    fn alr_scales_active_power() {
        let mut sw = SwitchDevice::new(
            SimTime::ZERO,
            NodeId(1),
            1,
            2,
            SwitchPowerProfile::datacenter_48port(),
        );
        let p_full = sw.power_w();
        sw.set_port_rate(SimTime::from_secs(1), 0, Some(1_000_000_000));
        assert!(sw.power_w() < p_full);
        sw.set_port_rate(SimTime::from_secs(2), 0, None);
        assert!((sw.power_w() - p_full).abs() < 1e-9);
    }

    #[test]
    fn chassis_sleeps_when_all_cards_sleep() {
        let mut sw = SwitchDevice::new(
            SimTime::ZERO,
            NodeId(1),
            2,
            2,
            SwitchPowerProfile::datacenter_48port(),
        );
        let t = SimTime::from_secs(1);
        for p in 0..4 {
            sw.enter_lpi(t, p);
        }
        assert!(sw.sleep_card(t, 0));
        let one_card = sw.power_w();
        assert!(sw.sleep_card(t, 1));
        let all_sleep = sw.power_w();
        // Chassis dropped from 52 W to 6.5 W on the last card sleep.
        assert!(
            one_card - all_sleep > 45.0,
            "one {one_card} all {all_sleep}"
        );
        // First wake restores the chassis.
        sw.wake_for_tx(SimTime::from_secs(2), 0);
        assert!(sw.power_w() > all_sleep + 45.0);
    }

    #[test]
    fn alr_restore_charges_renegotiation() {
        let mut sw = SwitchDevice::new(
            SimTime::ZERO,
            NodeId(1),
            1,
            2,
            SwitchPowerProfile::datacenter_48port(),
        );
        sw.set_port_rate(SimTime::from_secs(1), 0, Some(100_000_000));
        let d = sw.wake_for_tx(SimTime::from_secs(2), 0);
        assert_eq!(d, SimDuration::from_micros(5));
        assert_eq!(
            sw.wake_for_tx(SimTime::from_secs(3), 0),
            SimDuration::ZERO,
            "rate restored to full: no second renegotiation"
        );
    }

    #[test]
    fn energy_integrates_states() {
        let mut sw = cisco(SimTime::ZERO);
        // 24 ports active for 10 s, then all in LPI for 10 s.
        let t1 = SimTime::from_secs(10);
        for p in 0..24 {
            sw.enter_lpi(t1, p);
        }
        let t2 = SimTime::from_secs(20);
        let expected = 14.7 * 20.0 + 24.0 * (0.23 * 10.0 + 0.023 * 10.0);
        assert!((sw.energy_j(t2) - expected).abs() < 1e-6);
    }

    #[test]
    fn any_port_active_predicate() {
        let mut sw = cisco(SimTime::ZERO);
        assert!(sw.any_port_active());
        for p in 0..24 {
            sw.enter_lpi(SimTime::from_secs(1), p);
        }
        assert!(!sw.any_port_active());
    }
}
