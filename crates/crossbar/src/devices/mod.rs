//! Technology presets for the candidate crosspoint devices of paper
//! Sec. II-B, plus the one device structure that does not fit the
//! generic bidirectional pulse model (PCM differential pairs).
//!
//! The numeric parameters are behavioural: they reproduce the published
//! qualitative characteristics (step count, asymmetry, noise,
//! device-to-device spread) that the paper discusses, not any specific
//! wafer's measurements.

pub mod pcm;

use crate::device::{DeviceSpec, PulsedDevice};

/// Ideal symmetric RPU reference device: `states` resolvable levels,
/// constant step, no noise or variability. The baseline of the
/// device-requirement study \[14\].
pub fn ideal(states: u32) -> DeviceSpec {
    DeviceSpec::uniform(PulsedDevice::ideal(states))
}

/// An ideal device with added cycle-to-cycle write noise (σ as a fraction
/// of the step size) and device-to-device step variability.
pub fn noisy_ideal(states: u32, write_noise: f32, d2d: f32) -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice { write_noise, ..PulsedDevice::ideal(states) },
        dw_variability: d2d,
        bound_variability: d2d / 2.0,
    }
}

/// Filamentary oxide RRAM (paper Sec. II-B2, Fig. 2): bidirectional but
/// strongly asymmetric, saturating soft bounds, large cycle-to-cycle
/// stochasticity from the atomistic filament dynamics, and substantial
/// device-to-device spread.
pub fn rram() -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice {
            dw_up: 0.004,   // ~500 potentiation steps over the range
            dw_down: 0.002, // depression markedly weaker
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.9,
            gamma_down: 0.9,
            write_noise: 0.6,
            responsive: true,
        },
        dw_variability: 0.3,
        bound_variability: 0.15,
    }
}

/// RRAM after carefully optimized 1T1R pulse conditions \[34\]: better
/// symmetry and linearity at the cost of signal-to-noise ratio.
pub fn rram_optimized() -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice {
            dw_up: 0.0025,
            dw_down: 0.002,
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.4,
            gamma_down: 0.4,
            write_noise: 1.0, // symmetry traded for SNR
            responsive: true,
        },
        dw_variability: 0.2,
        bound_variability: 0.1,
    }
}

/// TiN/HfO₂/TiN ferroelectric tunnel junction (paper Sec. II-B3,
/// ref. \[40\]): a two-terminal, CMOS-compatible bidirectional device.
/// Polarization-controlled tunneling gives analog tuning, but with
/// asymmetric updates and substantial stochasticity from the mixed
/// ferroelectric domain state.
pub fn ftj() -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice {
            dw_up: 0.008, // ~250 states
            dw_down: 0.005,
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.8,
            gamma_down: 0.8,
            write_noise: 0.5,
            responsive: true,
        },
        dw_variability: 0.3,
        bound_variability: 0.15,
    }
}

/// Three-terminal metal-oxide ECRAM (paper Sec. II-B4): ~1000 highly
/// symmetric up/down steps with excellent SNR thanks to the separation of
/// read and write paths.
pub fn ecram() -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice {
            dw_up: 0.002,
            dw_down: 0.002,
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.15,
            gamma_down: 0.15,
            write_noise: 0.05,
            responsive: true,
        },
        dw_variability: 0.05,
        bound_variability: 0.05,
    }
}

/// ECRAM driven by *voltage* pulses instead of gate-current control
/// (paper Sec. II-B4): the compliance transistor disappears (a more
/// compact cell), but the nonzero open-circuit potential of demonstrated
/// devices produces asymmetric update characteristics and extra noise —
/// the trade-off the paper describes verbatim.
pub fn ecram_voltage() -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice {
            dw_up: 0.0026,
            dw_down: 0.0016, // open-circuit potential skews depression
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.4,
            gamma_down: 0.4,
            write_noise: 0.3,
            responsive: true,
        },
        dw_variability: 0.1,
        bound_variability: 0.05,
    }
}

/// Single FeFET synapse (paper Sec. II-B3): faster and lower-voltage than
/// Flash but with RRAM-like asymmetric updates. Endurance and retention
/// are not modeled.
pub fn fefet_single() -> DeviceSpec {
    DeviceSpec {
        base: PulsedDevice {
            dw_up: 0.0125, // ~160 states: polarization domains are coarse
            dw_down: 0.008,
            w_min: -1.0,
            w_max: 1.0,
            gamma_up: 0.7,
            gamma_down: 0.7,
            write_noise: 0.4,
            responsive: true,
        },
        dw_variability: 0.25,
        bound_variability: 0.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rram_is_asymmetric_and_noisy() {
        let d = rram().base;
        assert!(d.asymmetry() > 0.2);
        assert!(d.write_noise > 0.3);
    }

    #[test]
    fn ecram_is_nearly_symmetric() {
        let d = ecram().base;
        assert!(d.asymmetry().abs() < 0.01);
        assert!(d.write_noise < 0.1);
        // ~1000 steps → 0.1% granularity, meeting the RPU spec.
        assert!((d.relative_granularity() - 0.001).abs() < 2e-4);
    }

    #[test]
    fn presets_have_interior_symmetry_points() {
        for spec in [rram(), rram_optimized(), ecram(), ecram_voltage(), fefet_single(), ftj()] {
            let sp = spec.base.symmetry_point();
            assert!(sp > spec.base.w_min && sp < spec.base.w_max, "sp {sp}");
        }
    }

    #[test]
    fn ideal_matches_device_ideal() {
        assert_eq!(ideal(1000).base, PulsedDevice::ideal(1000));
    }

    #[test]
    fn optimized_rram_less_asymmetric_than_raw() {
        assert!(rram_optimized().base.asymmetry() < rram().base.asymmetry());
    }

    #[test]
    fn voltage_controlled_ecram_trades_symmetry_for_compactness() {
        // Current-controlled ECRAM is nearly symmetric; the voltage-pulsed
        // variant pays an asymmetry penalty (open-circuit potential).
        assert!(ecram_voltage().base.asymmetry() > 5.0 * ecram().base.asymmetry().abs());
    }

    #[test]
    fn ftj_is_bidirectional_but_rough() {
        let d = ftj().base;
        assert!(d.asymmetry() > 0.1, "FTJ updates are asymmetric");
        assert!(d.write_noise >= 0.4, "FTJ switching is stochastic");
        // Bidirectional: both steps nonzero at w = 0.
        assert!(d.expected_step(0.0, crate::device::PulseDir::Up) > 0.0);
        assert!(d.expected_step(0.0, crate::device::PulseDir::Down) < 0.0);
    }
}
