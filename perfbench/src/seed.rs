//! Deterministic input generation from the workload seed.

/// SplitMix64 of `seed` salted with `salt`: the same pair always gives
/// the same value, and nearby pairs give unrelated ones.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[0, 1)` drawn from `(seed, salt)`.
pub fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// Scales `base` by a factor in `[1 - spread, 1 + spread]` drawn from
/// `(seed, salt)`, rounding to the nearest whole number (at least 1).
pub fn scale(base: usize, spread: f64, seed: u64, salt: u64) -> usize {
    let f = 1.0 + spread * (2.0 * unit(seed, salt) - 1.0);
    ((base as f64 * f).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(8, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_eq!(scale(4000, 0.02, 11, 1), scale(4000, 0.02, 11, 1));
    }

    #[test]
    fn scale_stays_within_spread() {
        for seed in 0..200 {
            let v = scale(4000, 0.02, seed, 9);
            assert!((3920..=4080).contains(&v), "{v}");
            assert!((0.0..1.0).contains(&unit(seed, 9)));
        }
    }
}
