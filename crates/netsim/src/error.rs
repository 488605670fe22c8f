//! Typed configuration errors.
//!
//! The engine historically reported bad parameters by panicking wherever a
//! value was first *used* — an invalid rate deep inside the injection loop
//! of one job of a thousand-job sweep.  [`crate::Config::validate`] and
//! [`validate_sweep`] move those checks up front and return a
//! [`ConfigError`], so harnesses can refuse a malformed experiment before
//! scheduling anything (and exit with a diagnostic instead of a backtrace).

use std::fmt;

/// A rejected simulator or sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_vcs` was zero — the engine needs at least one virtual channel.
    NoVirtualChannels,
    /// `buf_size` was zero — credit-based flow control needs buffer space.
    NoBufferSpace,
    /// `window` was zero — warmup and measurement windows would be empty.
    ZeroWindow,
    /// `speedup` was zero — no switch-allocation rounds would ever run.
    ZeroSpeedup,
    /// `sat_latency` was not a positive finite number.
    BadSaturationLatency(f64),
    /// `vlb_candidates` was zero — UGAL needs at least one VLB draw.
    NoVlbCandidates,
    /// An offered load was outside `(0, 1]` (Bernoulli injection per node
    /// per cycle cannot exceed one packet).
    BadRate(f64),
    /// A sweep was scheduled with no offered loads.
    EmptyRates,
    /// A sweep was scheduled with no replication seeds.
    EmptySeeds,
    /// An evaluation was asked for no traffic patterns (Algorithm 1's
    /// `eval_patterns` was zero).
    EmptyPatterns,
    /// A bisection resolution was not a finite number in `(0, 1)`.
    BadResolution(f64),
    /// The same seed appeared twice in a seed list: the duplicated
    /// replications would be bit-identical and silently over-weight that
    /// seed in the aggregate.
    DuplicateSeed(u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoVirtualChannels => {
                write!(f, "num_vcs is 0: the engine needs at least one VC")
            }
            ConfigError::NoBufferSpace => {
                write!(
                    f,
                    "buf_size is 0: per-VC buffers need at least one flit of space"
                )
            }
            ConfigError::ZeroWindow => {
                write!(
                    f,
                    "window is 0: warmup and measurement windows would be empty"
                )
            }
            ConfigError::ZeroSpeedup => {
                write!(f, "speedup is 0: no switch-allocation rounds would run")
            }
            ConfigError::BadSaturationLatency(v) => {
                write!(f, "sat_latency {v} is not a positive finite latency")
            }
            ConfigError::NoVlbCandidates => {
                write!(f, "vlb_candidates is 0: UGAL needs at least one VLB draw")
            }
            ConfigError::BadRate(r) => {
                write!(f, "offered load {r} is outside (0, 1]")
            }
            ConfigError::EmptyRates => write!(f, "no offered loads to sweep"),
            ConfigError::EmptySeeds => write!(f, "no replication seeds to sweep"),
            ConfigError::EmptyPatterns => write!(f, "no traffic patterns to evaluate"),
            ConfigError::BadResolution(r) => {
                write!(
                    f,
                    "bisection resolution {r} is not a finite number in (0, 1)"
                )
            }
            ConfigError::DuplicateSeed(s) => {
                write!(f, "seed {s} appears more than once in the seed list")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates the (rates × seeds) grid of a sweep: every rate in `(0, 1]`,
/// at least one rate, at least one seed, no duplicate seeds.
pub fn validate_sweep(rates: &[f64], seeds: &[u64]) -> Result<(), ConfigError> {
    if rates.is_empty() {
        return Err(ConfigError::EmptyRates);
    }
    for &r in rates {
        if !(r > 0.0 && r <= 1.0) {
            return Err(ConfigError::BadRate(r));
        }
    }
    validate_seeds(seeds)
}

/// Validates a sweep's replication seeds: at least one, no duplicates.
pub fn validate_seeds(seeds: &[u64]) -> Result<(), ConfigError> {
    if seeds.is_empty() {
        return Err(ConfigError::EmptySeeds);
    }
    let mut sorted = seeds.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(ConfigError::DuplicateSeed(w[0]));
    }
    Ok(())
}

/// Validates a bisection resolution: finite and in `(0, 1)`, so the
/// search interval `[resolution, 1]` is a real interval of offered loads.
pub fn validate_resolution(resolution: f64) -> Result<(), ConfigError> {
    if resolution > 0.0 && resolution < 1.0 {
        Ok(())
    } else {
        Err(ConfigError::BadResolution(resolution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_is_validated() {
        assert!(validate_sweep(&[0.1, 1.0], &[1, 2]).is_ok());
        assert_eq!(validate_sweep(&[], &[1]), Err(ConfigError::EmptyRates));
        assert_eq!(validate_sweep(&[0.0], &[1]), Err(ConfigError::BadRate(0.0)));
        assert_eq!(
            validate_sweep(&[-0.5], &[1]),
            Err(ConfigError::BadRate(-0.5))
        );
        assert_eq!(validate_sweep(&[1.5], &[1]), Err(ConfigError::BadRate(1.5)));
        assert_eq!(validate_sweep(&[0.1], &[]), Err(ConfigError::EmptySeeds));
        assert_eq!(
            validate_sweep(&[0.1], &[3, 1, 3]),
            Err(ConfigError::DuplicateSeed(3))
        );
    }

    #[test]
    fn errors_render_a_diagnostic() {
        let msg = ConfigError::DuplicateSeed(7).to_string();
        assert!(msg.contains("seed 7"), "{msg}");
        let msg = ConfigError::BadRate(1.5).to_string();
        assert!(msg.contains("1.5"), "{msg}");
    }
}
