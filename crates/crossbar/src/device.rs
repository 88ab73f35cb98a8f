//! Pulsed crosspoint device dynamics.
//!
//! Training on a resistive crossbar changes each device's conductance by a
//! small increment per voltage-pulse coincidence (paper Fig. 1, right).
//! The physics of that increment — its size, its dependence on the current
//! state, its up/down asymmetry, and its cycle-to-cycle randomness — is
//! what separates candidate technologies (Sec. II-B). [`PulsedDevice`]
//! captures all of it in one parametric model:
//!
//! ```text
//! Δw₊(w) = dw_up   · max(0, 1 − γ_up   · w / w_max)   + noise
//! Δw₋(w) = dw_down · max(0, 1 + γ_down · w / w_min)   + noise   (w_min < 0)
//! ```
//!
//! * `γ = 0` gives the ideal constant-step device of the original RPU
//!   specification \[14\].
//! * `γ = 1` gives fully saturating "soft bounds" — the shape measured on
//!   filamentary RRAM (paper Fig. 2).
//! * `dw_up ≠ dw_down` produces the up/down *asymmetry* that biases
//!   gradient accumulation and motivates zero-shifting \[30\] and the
//!   coupled-dynamics training algorithm \[35\].

use enw_numerics::rng::Rng64;

/// Direction of a programming pulse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PulseDir {
    /// Potentiation: conductance (weight) increase.
    Up,
    /// Depression: conductance (weight) decrease.
    Down,
}

/// One materialized crosspoint device: concrete step sizes, bounds,
/// nonlinearity and noise for a single array position.
///
/// # Example
///
/// ```
/// use enw_crossbar::device::{PulseDir, PulsedDevice};
/// use enw_numerics::rng::Rng64;
///
/// let dev = PulsedDevice::ideal(1000); // 1000 states over [-1, 1]
/// let mut rng = Rng64::new(0);
/// let w1 = dev.pulse(0.0, PulseDir::Up, &mut rng);
/// assert!(w1 > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsedDevice {
    /// Mean weight increment of an up pulse evaluated at `w = 0`.
    pub dw_up: f32,
    /// Mean weight decrement magnitude of a down pulse at `w = 0`.
    pub dw_down: f32,
    /// Lower weight bound (negative).
    pub w_min: f32,
    /// Upper weight bound (positive).
    pub w_max: f32,
    /// Up-direction nonlinearity in `[0, 1]`: 0 = constant step,
    /// 1 = fully saturating soft bound.
    pub gamma_up: f32,
    /// Down-direction nonlinearity in `[0, 1]`.
    pub gamma_down: f32,
    /// Cycle-to-cycle write-noise σ, as a fraction of the mean step size.
    pub write_noise: f32,
    /// `false` for defective (stuck) devices that ignore pulses.
    pub responsive: bool,
}

impl PulsedDevice {
    /// An ideal symmetric constant-step device with `states` resolvable
    /// levels over `[-1, 1]` and no noise — the reference point of the RPU
    /// specification study.
    ///
    /// # Panics
    ///
    /// Panics if `states < 2`.
    pub fn ideal(states: u32) -> Self {
        assert!(states >= 2, "need at least two states");
        let dw = 2.0 / states as f32;
        PulsedDevice {
            dw_up: dw,
            dw_down: dw,
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.0,
            gamma_down: 0.0,
            write_noise: 0.0,
            responsive: true,
        }
    }

    /// Mean (noise-free) signed weight change of one pulse at state `w`.
    pub fn expected_step(&self, w: f32, dir: PulseDir) -> f32 {
        if !self.responsive {
            return 0.0;
        }
        match dir {
            PulseDir::Up => self.dw_up * (1.0 - self.gamma_up * w / self.w_max).max(0.0),
            // Down steps saturate toward w_min: the magnitude shrinks as w
            // approaches the lower bound (w/w_min → 1).
            PulseDir::Down => -self.dw_down * (1.0 - self.gamma_down * w / self.w_min).max(0.0),
        }
    }

    /// Applies one pulse and returns the new weight (bounded, noisy).
    pub fn pulse(&self, w: f32, dir: PulseDir, rng: &mut Rng64) -> f32 {
        if !self.responsive {
            return w;
        }
        let mut dw = self.expected_step(w, dir);
        if self.write_noise > 0.0 {
            let scale = 0.5 * (self.dw_up + self.dw_down);
            dw += (self.write_noise as f64 * scale as f64 * rng.normal()) as f32;
        }
        (w + dw).clamp(self.w_min, self.w_max)
    }

    /// The symmetry point `w*` where up and down steps have equal
    /// magnitude: under alternating up/down pulse pairs the weight
    /// converges here. Zero-shifting \[30\] measures this point and treats it
    /// as the logical zero.
    ///
    /// For a constant-step device (`γ = 0`) with equal step sizes this is
    /// `0`; with unequal steps and no state dependence there is no interior
    /// symmetry point and the relevant bound is returned.
    pub fn symmetry_point(&self) -> f32 {
        let denom =
            self.dw_up * self.gamma_up / self.w_max - self.dw_down * self.gamma_down / self.w_min;
        if denom.abs() < 1e-12 {
            // No state dependence: fixed point is wherever steps balance.
            return match self.dw_up.partial_cmp(&self.dw_down) {
                Some(std::cmp::Ordering::Greater) => self.w_max,
                Some(std::cmp::Ordering::Less) => self.w_min,
                _ => 0.0,
            };
        }
        ((self.dw_up - self.dw_down) / denom).clamp(self.w_min, self.w_max)
    }

    /// Up/down asymmetry at `w = 0`:
    /// `(dw_up − dw_down) / (dw_up + dw_down)` ∈ `(-1, 1)`.
    pub fn asymmetry(&self) -> f32 {
        (self.dw_up - self.dw_down) / (self.dw_up + self.dw_down)
    }

    /// Average granularity relative to the full weight range — the paper's
    /// "~0.1 % of the conductance range" requirement.
    pub fn relative_granularity(&self) -> f32 {
        0.5 * (self.dw_up + self.dw_down) / (self.w_max - self.w_min)
    }
}

/// A *specification* for a population of devices: a base device plus
/// device-to-device variability. Materializing the spec for each array
/// position yields the per-device parameter spread real arrays exhibit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Nominal device parameters.
    pub base: PulsedDevice,
    /// Relative σ of per-device step-size variation (device-to-device).
    pub dw_variability: f32,
    /// Relative σ of per-device bound variation.
    pub bound_variability: f32,
}

impl DeviceSpec {
    /// A spec with no device-to-device variation.
    pub fn uniform(base: PulsedDevice) -> Self {
        DeviceSpec { base, dw_variability: 0.0, bound_variability: 0.0 }
    }

    /// Draws one concrete device.
    pub fn materialize(&self, rng: &mut Rng64) -> PulsedDevice {
        let mut d = self.base;
        if self.dw_variability > 0.0 {
            // Log-normal-ish positive scaling keeps steps positive.
            let s_up = (1.0 + self.dw_variability as f64 * rng.normal()).max(0.05);
            let s_dn = (1.0 + self.dw_variability as f64 * rng.normal()).max(0.05);
            d.dw_up *= s_up as f32;
            d.dw_down *= s_dn as f32;
        }
        if self.bound_variability > 0.0 {
            let s_max = (1.0 + self.bound_variability as f64 * rng.normal()).max(0.1);
            let s_min = (1.0 + self.bound_variability as f64 * rng.normal()).max(0.1);
            d.w_max *= s_max as f32;
            d.w_min *= s_min as f32;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_device_steps_symmetric() {
        let d = PulsedDevice::ideal(1000);
        assert!((d.expected_step(0.0, PulseDir::Up) - 0.002).abs() < 1e-7);
        assert!((d.expected_step(0.0, PulseDir::Down) + 0.002).abs() < 1e-7);
        assert_eq!(d.asymmetry(), 0.0);
        assert_eq!(d.symmetry_point(), 0.0);
    }

    #[test]
    fn pulses_respect_bounds() {
        let d = PulsedDevice::ideal(10); // coarse: dw = 0.2
        let mut rng = Rng64::new(1);
        let mut w = 0.9;
        for _ in 0..20 {
            w = d.pulse(w, PulseDir::Up, &mut rng);
        }
        assert!(w <= d.w_max);
        for _ in 0..100 {
            w = d.pulse(w, PulseDir::Down, &mut rng);
        }
        assert!(w >= d.w_min);
    }

    #[test]
    fn soft_bounds_shrink_step_near_max() {
        let d = PulsedDevice { gamma_up: 1.0, ..PulsedDevice::ideal(100) };
        let near_max = d.expected_step(0.9, PulseDir::Up);
        let at_zero = d.expected_step(0.0, PulseDir::Up);
        assert!(near_max < at_zero * 0.2);
        // At the bound the step vanishes entirely.
        assert!(d.expected_step(1.0, PulseDir::Up).abs() < 1e-7);
    }

    #[test]
    fn symmetry_point_of_asymmetric_soft_bounds() {
        // dw_up twice dw_down with full soft bounds: symmetry point is
        // where dw_up(1 - w) = dw_down(1 + w) → w = 1/3.
        let d = PulsedDevice {
            dw_up: 0.02,
            dw_down: 0.01,
            gamma_up: 1.0,
            gamma_down: 1.0,
            ..PulsedDevice::ideal(100)
        };
        assert!((d.symmetry_point() - 1.0 / 3.0).abs() < 1e-5);
        // At w*, up and down steps must cancel.
        let w = d.symmetry_point();
        let net = d.expected_step(w, PulseDir::Up) + d.expected_step(w, PulseDir::Down);
        assert!(net.abs() < 1e-7);
    }

    #[test]
    fn alternating_pulses_converge_to_symmetry_point() {
        let d = PulsedDevice {
            dw_up: 0.04,
            dw_down: 0.02,
            gamma_up: 1.0,
            gamma_down: 1.0,
            ..PulsedDevice::ideal(50)
        };
        let mut rng = Rng64::new(2);
        let mut w = -0.8;
        for _ in 0..2000 {
            w = d.pulse(w, PulseDir::Up, &mut rng);
            w = d.pulse(w, PulseDir::Down, &mut rng);
        }
        assert!((w - d.symmetry_point()).abs() < 0.05, "w {w} vs {}", d.symmetry_point());
    }

    #[test]
    fn stuck_device_ignores_pulses() {
        let d = PulsedDevice { responsive: false, ..PulsedDevice::ideal(100) };
        let mut rng = Rng64::new(3);
        assert_eq!(d.pulse(0.25, PulseDir::Up, &mut rng), 0.25);
        assert_eq!(d.expected_step(0.25, PulseDir::Up), 0.0);
    }

    #[test]
    fn write_noise_produces_spread() {
        let d = PulsedDevice { write_noise: 1.0, ..PulsedDevice::ideal(100) };
        let mut rng = Rng64::new(4);
        let a = d.pulse(0.0, PulseDir::Up, &mut rng);
        let b = d.pulse(0.0, PulseDir::Up, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn materialized_devices_vary() {
        let spec = DeviceSpec {
            base: PulsedDevice::ideal(100),
            dw_variability: 0.3,
            bound_variability: 0.1,
        };
        let mut rng = Rng64::new(5);
        let a = spec.materialize(&mut rng);
        let b = spec.materialize(&mut rng);
        assert_ne!(a.dw_up, b.dw_up);
        assert!(a.dw_up > 0.0 && b.dw_up > 0.0);
    }

    #[test]
    fn uniform_spec_is_exact() {
        let spec = DeviceSpec::uniform(PulsedDevice::ideal(100));
        let mut rng = Rng64::new(6);
        assert_eq!(spec.materialize(&mut rng), spec.base);
    }

    #[test]
    fn relative_granularity_matches_states() {
        let d = PulsedDevice::ideal(1000);
        assert!((d.relative_granularity() - 0.001).abs() < 1e-6);
    }

    #[test]
    fn constant_step_unequal_rates_saturate_at_bound() {
        let d = PulsedDevice { dw_up: 0.03, ..PulsedDevice::ideal(100) };
        assert_eq!(d.symmetry_point(), d.w_max);
    }
}
