//! Second-order RLC power-delivery-network model.
//!
//! The regulator supplies `vdd` through a series resistance `R` and package
//! inductance `L` into the on-die/package decoupling capacitance `C`, which
//! the core draws its load current from:
//!
//! ```text
//! L · di_L/dt = vdd − R·i_L − v_die
//! C · dv_die/dt = i_L − i_load(t)
//! ```
//!
//! The network's first-order resonance sits at `1/(2π√(LC))`. Load-current
//! waveforms that alternate low/high activity at that frequency pump the
//! ringing and produce the deepest droops and highest overshoots — exactly
//! the mechanism the paper's dI/dt viruses exploit (§II, §VI). Steady high
//! current instead produces only the modest IR drop, which is why a power
//! virus is *not* a good voltage-noise virus (paper Figures 8–9).
//!
//! Integration is semi-implicit (symplectic) Euler at one step per clock
//! cycle; with `ω₀·dt ≈ 0.2` for the Athlon preset this is comfortably
//! stable. The step gains `dt/L` and `dt/C` are folded once at
//! construction, so a step is multiply–add only: the dI/dt search runs
//! thousands of steps per candidate on one loop-carried chain, where a
//! division's latency would dominate. Folded gains move voltages only in
//! their trailing ulps relative to dividing by `L` and `C` each step.

use crate::machine::PdnConfig;

/// Min/max statistics of the die-voltage waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageStats {
    /// Nominal supply voltage the run used.
    pub nominal_v: f64,
    /// Minimum die voltage observed.
    pub min_v: f64,
    /// Maximum die voltage observed (overshoot).
    pub max_v: f64,
}

impl VoltageStats {
    /// Peak-to-peak voltage swing — the dI/dt search's fitness metric
    /// (paper §VI: "the binaries that achieve the highest difference
    /// between maximum and minimum recorded voltages are considered the
    /// fittest").
    pub fn peak_to_peak(&self) -> f64 {
        self.max_v - self.min_v
    }

    /// Maximum droop below nominal.
    pub fn max_droop(&self) -> f64 {
        self.nominal_v - self.min_v
    }
}

/// The PDN integrator.
///
/// # Examples
///
/// ```
/// use gest_sim::{MachineConfig, Pdn};
/// let config = MachineConfig::athlon_x4().pdn.unwrap();
/// let dt = 1.0 / MachineConfig::athlon_x4().clock_hz;
/// let mut pdn = Pdn::new(config, 5.0, dt);
/// // A step from 5 A to 40 A rings the network below its IR-drop level.
/// for _ in 0..2000 { pdn.step(40.0); }
/// let stats = pdn.stats();
/// let ir_only = config.vdd - 40.0 * config.resistance;
/// assert!(stats.min_v < ir_only - 1e-4, "dI/dt droop exceeds IR drop");
/// ```
#[derive(Debug, Clone)]
pub struct Pdn {
    config: PdnConfig,
    /// Inductor step gain `dt / L` (A per V).
    dt_over_l: f64,
    /// Capacitor step gain `dt / C` (V per A).
    dt_over_c: f64,
    /// Inductor current (A).
    i_l: f64,
    /// Die voltage (V).
    v_die: f64,
    min_v: f64,
    max_v: f64,
    /// Steps to run before min/max recording starts (settling).
    warmup_remaining: u32,
}

impl Pdn {
    /// Default number of settle steps before statistics are recorded.
    pub const DEFAULT_WARMUP_STEPS: u32 = 64;

    /// Creates a PDN initialized to DC steady state at `idle_current_a`,
    /// stepping `dt_s` seconds per [`step`](Pdn::step).
    pub fn new(config: PdnConfig, idle_current_a: f64, dt_s: f64) -> Pdn {
        let v_die = config.vdd - config.resistance * idle_current_a;
        Pdn {
            config,
            dt_over_l: dt_s / config.inductance,
            dt_over_c: dt_s / config.capacitance,
            i_l: idle_current_a,
            v_die,
            min_v: f64::INFINITY,
            max_v: f64::NEG_INFINITY,
            warmup_remaining: Self::DEFAULT_WARMUP_STEPS,
        }
    }

    /// Advances one clock cycle with the given load current and returns
    /// the new die voltage.
    pub fn step(&mut self, i_load_a: f64) -> f64 {
        // Semi-implicit Euler: current first, then voltage with the new
        // current (symplectic pairing keeps the oscillation energy
        // bounded). di = (vdd − R·i_L − v_die)·dt/L, dv = (i_L − i_load)·dt/C.
        let di =
            (self.config.vdd - self.config.resistance * self.i_l - self.v_die) * self.dt_over_l;
        self.i_l += di;
        let dv = (self.i_l - i_load_a) * self.dt_over_c;
        self.v_die += dv;
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
        } else {
            self.min_v = self.min_v.min(self.v_die);
            self.max_v = self.max_v.max(self.v_die);
        }
        self.v_die
    }

    /// Current die voltage.
    pub fn v_die(&self) -> f64 {
        self.v_die
    }

    /// Recorded min/max statistics.
    ///
    /// Before any post-warmup step the min/max collapse to the current die
    /// voltage.
    pub fn stats(&self) -> VoltageStats {
        if self.min_v > self.max_v {
            VoltageStats {
                nominal_v: self.config.vdd,
                min_v: self.v_die,
                max_v: self.v_die,
            }
        } else {
            VoltageStats {
                nominal_v: self.config.vdd,
                min_v: self.min_v,
                max_v: self.max_v,
            }
        }
    }

    /// The PDN parameters.
    pub fn config(&self) -> PdnConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn setup(idle_a: f64) -> (Pdn, PdnConfig, f64) {
        let machine = MachineConfig::athlon_x4();
        let config = machine.pdn.unwrap();
        let dt = 1.0 / machine.clock_hz;
        (Pdn::new(config, idle_a, dt), config, dt)
    }

    #[test]
    fn constant_current_settles_to_ir_drop() {
        let (mut pdn, config, _) = setup(10.0);
        for _ in 0..200_000 {
            pdn.step(10.0);
        }
        let expected = config.vdd - 10.0 * config.resistance;
        assert!(
            (pdn.v_die() - expected).abs() < 1e-6,
            "{} vs {expected}",
            pdn.v_die()
        );
    }

    #[test]
    fn step_load_rings_below_ir_level() {
        let (mut pdn, config, _) = setup(5.0);
        for _ in 0..5000 {
            pdn.step(45.0);
        }
        let stats = pdn.stats();
        let ir_level = config.vdd - 45.0 * config.resistance;
        assert!(stats.min_v < ir_level, "undershoot below final DC level");
        assert!(stats.max_v > ir_level, "ring-back above final DC level");
    }

    #[test]
    fn resonant_excitation_beats_dc_and_off_resonance() {
        let (machine, config) = (
            MachineConfig::athlon_x4(),
            MachineConfig::athlon_x4().pdn.unwrap(),
        );
        let dt = 1.0 / machine.clock_hz;
        let period_cycles = (machine.clock_hz / config.resonance_hz()).round() as usize;

        let swing_for = |period: usize| {
            let mut pdn = Pdn::new(config, 20.0, dt);
            for cycle in 0..50_000 {
                // Square wave between 5 A and 35 A (same average as DC 20 A).
                let phase = if period == 0 { 0 } else { cycle % period };
                let current = if period == 0 || phase < period / 2 {
                    35.0
                } else {
                    5.0
                };
                pdn.step(current);
            }
            pdn.stats().peak_to_peak()
        };

        let dc = {
            let mut pdn = Pdn::new(config, 20.0, dt);
            for _ in 0..50_000 {
                pdn.step(20.0);
            }
            pdn.stats().peak_to_peak()
        };
        let resonant = swing_for(period_cycles);
        let off_resonance = swing_for(period_cycles * 6);
        assert!(
            resonant > 5.0 * dc.max(1e-6),
            "resonant {resonant} vs dc {dc}"
        );
        assert!(
            resonant > 1.5 * off_resonance,
            "resonant {resonant} vs off-resonance {off_resonance}"
        );
    }

    #[test]
    fn integration_is_stable() {
        let (mut pdn, config, _) = setup(0.0);
        // Hammer with a worst-case alternating load for a long time; the
        // voltage must stay within a physically plausible window.
        for cycle in 0..500_000u64 {
            let current = if cycle % 16 < 8 { 60.0 } else { 0.0 };
            let v = pdn.step(current);
            assert!(v.is_finite());
            assert!(v > 0.0 && v < 2.0 * config.vdd, "cycle {cycle}: v = {v}");
        }
    }

    #[test]
    fn stats_empty_before_warmup() {
        let (mut pdn, config, _) = setup(10.0);
        pdn.step(10.0);
        let stats = pdn.stats();
        assert!((stats.peak_to_peak()).abs() < 1e-12);
        assert_eq!(stats.nominal_v, config.vdd);
    }

    #[test]
    fn droop_and_p2p_accessors() {
        let stats = VoltageStats {
            nominal_v: 1.4,
            min_v: 1.3,
            max_v: 1.45,
        };
        assert!((stats.peak_to_peak() - 0.15).abs() < 1e-12);
        assert!((stats.max_droop() - 0.1).abs() < 1e-12);
    }
}
