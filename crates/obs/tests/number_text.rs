//! Differential test of the drain's number writers against `{}`: every
//! byte [`push_f64`] and [`push_u64`] append must equal what
//! `format!("{x}")` prints, because the journal, the decision CSV and the
//! telemetry snapshot are byte-compared across runs and builds.
//!
//! The fixed sets cover the edges of the format (signed zero, subnormals,
//! every binary exponent, every power of ten and its neighbours, the
//! integer/fraction switch-over, exact decimal ties); a seeded sweep of
//! random bit patterns covers the rest. `cargo test --release -p clr-obs
//! --test number_text -- --ignored` runs the long sweep.

use clr_obs::num::{push_bool, push_f64, push_u64, push_usize};

/// The splitmix64 step that seeds every random stream in the workspace.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Asserts that `push_f64` agrees with `{}` on `x`, appending after a
/// non-empty prefix as the drains do; `seed` names the stream `x` came
/// from (0 for the fixed sets).
fn check(out: &mut String, x: f64, seed: u64) {
    out.clear();
    out.push('|');
    push_f64(out, x);
    let want = format!("{x}");
    assert!(
        out[1..] == want,
        "seed {seed}: push_f64({x:e}, bits {:#018x}) wrote {:?}, `{{}}` writes {want:?}",
        x.to_bits(),
        &out[1..]
    );
}

fn check_both_signs(out: &mut String, x: f64) {
    check(out, x, 0);
    check(out, -x, 0);
}

#[test]
fn special_values_match_display() {
    let mut out = String::new();
    for x in [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1 + 0.2,
        1.0 / 3.0,
        0.5,
        31.25,
        1e21,
        1e-7,
        123_456.789,
    ] {
        check(&mut out, x, 0);
    }
}

#[test]
fn every_binary_exponent_matches_display() {
    let mut out = String::new();
    for exponent in 0..=2046u64 {
        for mantissa in [0, 1, 2, 1 << 51, (1 << 52) - 1] {
            check_both_signs(&mut out, f64::from_bits(exponent << 52 | mantissa));
        }
    }
}

#[test]
fn powers_of_ten_and_neighbours_match_display() {
    let mut out = String::new();
    for p in -324..=308 {
        let x: f64 = format!("1e{p}").parse().unwrap();
        let bits = x.to_bits();
        for delta in [-2i64, -1, 0, 1, 2] {
            let Some(b) = bits.checked_add_signed(delta) else {
                continue;
            };
            let y = f64::from_bits(b);
            if y.is_finite() {
                check_both_signs(&mut out, y);
            }
        }
    }
}

#[test]
fn large_integers_match_display() {
    let mut out = String::new();
    let two53 = 1u64 << 53;
    for n in two53 - 1000..two53 + 1000 {
        check_both_signs(&mut out, n as f64);
    }
    // 10^15 ..= 10^19 through u64, then up to 10^23 as float multiples.
    let mut n = 1_000_000_000_000_000u64;
    loop {
        for d in [0, 1, 7, 500, 999_999] {
            check_both_signs(&mut out, (n + d) as f64);
        }
        let Some(next) = n.checked_mul(10) else { break };
        n = next;
    }
    for p in 15..=23 {
        let base: f64 = format!("1e{p}").parse().unwrap();
        for k in 1..200 {
            check_both_signs(&mut out, base * f64::from(k));
        }
    }
}

#[test]
fn exact_decimal_ties_round_up_as_display_does() {
    let mut out = String::new();
    // Exactly halfway between two 17-digit decimals: `{}` rounds up.
    let tie = 1_099_514_114_116_857.0 + 0.25;
    push_f64(&mut out, tie);
    assert_eq!(out, "1099514114116857.3");
    check(&mut out, tie, 0);
    // More ties: integers + 0.25/0.75 in [2^50, 2^51), where the ulp is
    // 1/4 and the shortest candidates sit a quarter ulp apart.
    let base = (1u64 << 50) as f64;
    let mut state = 17;
    for _ in 0..20_000 {
        let n = (splitmix64(&mut state) >> 14) as f64;
        for frac in [0.25, 0.75, 0.5] {
            check_both_signs(&mut out, base + n + frac);
        }
    }
}

#[test]
fn short_fractions_match_display() {
    let mut out = String::new();
    for i in 0..100_000u32 {
        check_both_signs(&mut out, f64::from(i) / 8.0);
        check_both_signs(&mut out, f64::from(i) * 1e-3);
    }
}

/// `n` random bit patterns from splitmix64 seeded with `seed`; NaNs and
/// infinities included.
fn sweep(seed: u64, n: usize) {
    let mut out = String::new();
    let mut state = seed;
    for _ in 0..n {
        check(&mut out, f64::from_bits(splitmix64(&mut state)), seed);
    }
}

#[test]
fn random_bit_patterns_match_display() {
    sweep(0x5eed_0001, 1_000_000);
}

#[test]
#[ignore = "long sweep: 2e7 values, run in release"]
fn random_bit_patterns_match_display_long() {
    for seed in 1..=20 {
        sweep(seed, 1_000_000);
    }
}

#[test]
fn integers_match_display() {
    let mut out = String::new();
    let mut values = vec![0, 9, 10, 99, 100, u64::MAX, i64::MIN.unsigned_abs()];
    let mut p = 1u64;
    while let Some(next) = p.checked_mul(10) {
        values.extend([next - 1, next, next + 1]);
        p = next;
    }
    values.extend([p - 1, p + 1]);
    let mut state = 3;
    values.extend((0..10_000).map(|_| splitmix64(&mut state) >> (state % 64)));
    for n in values {
        out.clear();
        push_u64(&mut out, n);
        assert_eq!(out, n.to_string(), "u64 {n}");
        if let Ok(u) = usize::try_from(n) {
            out.clear();
            push_usize(&mut out, u);
            assert_eq!(out, u.to_string(), "usize {u}");
        }
    }
    for b in [false, true] {
        out.clear();
        push_bool(&mut out, b);
        assert_eq!(out, b.to_string());
    }
}
