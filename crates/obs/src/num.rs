//! Number-to-text writers for every drain: the journal, the decision CSV,
//! the telemetry snapshot and the Chrome trace.
//!
//! Each writer appends the exact bytes Rust's `{}` (`Display`) would, and
//! allocates nothing beyond the caller's `String` growth:
//!
//! * [`push_u64`] writes two digits per step from a 100-entry pair table.
//! * [`push_f64`] writes the shortest decimal that reads back to the same
//!   `f64`, laid out as `{}` does: never an exponent, `-0` for `-0.0`,
//!   `NaN`, `inf` and `-inf` for the non-finite values.
//!
//! The float digits come from two paths. Values `n / 2^k` whose decimal
//! expansion has at most 15 significant digits (integer cycle stamps,
//! `0.5`, `31.25`) are written exactly: every other decimal of at most
//! that length lies at least `10^-15` away in relative terms, beyond half
//! an ulp (`2^-53`), so the exact expansion is the shortest round-trip
//! output. Everything else goes through Ryū (Adams, *Ryū: fast
//! float-to-string conversion*, PLDI 2018), with one change: an exact tie
//! between two shortest candidates rounds **up**, as core's formatter
//! does, where Ryū rounds half to even (`1099514114116857.25` prints
//! `1099514114116857.3`). Ryū's 125-bit power-of-5 tables are computed
//! once, on first use, with a small big-integer routine.

use std::sync::OnceLock;

/// `DIGIT_PAIRS[2n..2n + 2]` spells `n` in two ASCII digits, `n < 100`.
const DIGIT_PAIRS: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
}

/// `POW5[k] = 5^k` for the exact path, `k <= MAX_EXACT_K`.
const POW5: [u64; MAX_EXACT_K as usize + 1] = pow5_u64();

/// `5^22 > 10^15`: an exact expansion `m * 5^k / 10^k` with `m` odd has
/// more than 15 significant digits once `k` exceeds this.
const MAX_EXACT_K: u32 = 21;

/// Exact expansions below this have at most 15 significant digits.
const EXACT_LIMIT: u64 = 1_000_000_000_000_000;

const fn pow5_u64() -> [u64; MAX_EXACT_K as usize + 1] {
    let mut table = [1u64; MAX_EXACT_K as usize + 1];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 5;
        k += 1;
    }
    table
}

/// Writes the decimal digits of `n` into `buf`, ending at `buf.len()`,
/// and returns the index of the first one. `buf` must hold 20 digits.
fn digits_into(n: u64, buf: &mut [u8]) -> usize {
    let mut i = buf.len();
    let mut pair = |i: &mut usize, p: u32| {
        let p = p as usize * 2;
        *i -= 2;
        buf[*i..*i + 2].copy_from_slice(&DIGIT_PAIRS[p..p + 2]);
    };
    // Eight digits at a time, then pairs, all in 32-bit arithmetic.
    let mut n = n;
    while n >= 100_000_000 {
        let mut chunk = (n % 100_000_000) as u32;
        n /= 100_000_000;
        for _ in 0..4 {
            pair(&mut i, chunk % 100);
            chunk /= 100;
        }
    }
    let mut n = n as u32;
    while n >= 100 {
        pair(&mut i, n % 100);
        n /= 100;
    }
    if n >= 10 {
        pair(&mut i, n);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Appends ASCII bytes (digits and `.`) that the writers assembled.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("number writers assemble ASCII only"));
}

/// Appends `n` as `{}` would.
pub fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = digits_into(n, &mut buf);
    push_ascii(out, &buf[start..]);
}

/// Appends `n` as `{}` would (`usize` is at most 64 bits wide on every
/// supported target).
pub fn push_usize(out: &mut String, n: usize) {
    push_u64(out, n as u64);
}

/// Appends `b` as `{}` would: `true` or `false`.
pub fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends `x` as `{}` would: the shortest round-trip digits, never an
/// exponent, `-0` for `-0.0`, and `NaN`, `inf` or `-inf` when not finite.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    if x.is_infinite() {
        out.push_str("inf");
        return;
    }
    if x == 0.0 {
        out.push('0');
        return;
    }
    let bits = x.to_bits();
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let (digits, exp) = exact(mantissa, exponent).unwrap_or_else(|| ryu(mantissa, exponent));
    layout(out, digits, exp);
}

/// Widest `0.` + zeros + digits run [`layout`] assembles in one buffer.
const LAYOUT_BUF: usize = 48;

/// Appends `digits * 10^exp` in positional notation, assembling the
/// common shapes in one stack buffer so they cost a single append.
fn layout(out: &mut String, digits: u64, exp: i32) {
    let mut buf = [b'0'; LAYOUT_BUF];
    let start = digits_into(digits, &mut buf);
    let len = (LAYOUT_BUF - start) as i32;
    if exp >= 0 {
        push_ascii(out, &buf[start..]);
        push_zeros(out, exp.unsigned_abs() as usize);
        return;
    }
    // Digits before the decimal point; `<= 0` means a leading `0.`.
    let int_len = len + exp;
    if int_len > 0 {
        let point = start + int_len as usize;
        buf.copy_within(start..point, start - 1);
        buf[point - 1] = b'.';
        push_ascii(out, &buf[start - 1..]);
        return;
    }
    // `0.` then `-int_len` zeros; the buffer is zero-filled already.
    let lead = int_len.unsigned_abs() as usize + 2;
    match start.checked_sub(lead) {
        Some(first) => {
            buf[first + 1] = b'.';
            push_ascii(out, &buf[first..]);
        }
        None => {
            out.push_str("0.");
            push_zeros(out, lead - 2);
            push_ascii(out, &buf[start..]);
        }
    }
}

/// Appends `n` ASCII zeros.
fn push_zeros(out: &mut String, mut n: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let chunk = n.min(ZEROS.len());
        out.push_str(&ZEROS[..chunk]);
        n -= chunk;
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// The exact decimal `(digits, exp)` of a normal `f64`, when it has at
/// most 15 significant digits, which makes it the shortest output.
fn exact(mantissa: u64, exponent: u32) -> Option<(u64, i32)> {
    let e2 = exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32;
    // Subnormals have hundreds of significant digits, and `e2 >= 0`
    // means `x >= 2^52 > 10^15`.
    if exponent == 0 || e2 >= 0 {
        return None;
    }
    let m = (1 << MANTISSA_BITS) | mantissa;
    let shift = e2.unsigned_abs();
    let tz = m.trailing_zeros();
    if tz >= shift {
        let n = m >> shift;
        return (n < EXACT_LIMIT).then_some((n, 0));
    }
    // x = odd / 2^k = odd * 5^k / 10^k with odd = m >> tz; `odd * 5^k`
    // is not a multiple of 10, so its digit count is its significant-
    // digit count.
    let k = shift - tz;
    if k > MAX_EXACT_K {
        return None;
    }
    let digits = (m >> tz).checked_mul(POW5[k as usize])?;
    (digits < EXACT_LIMIT).then_some((digits, -(k as i32)))
}

/// Bits kept of each power of five (`DOUBLE_POW5_BITCOUNT`).
const POW5_BITCOUNT: i32 = 125;
/// Bits kept of each inverse power of five (`DOUBLE_POW5_INV_BITCOUNT`).
const POW5_INV_BITCOUNT: i32 = 125;
/// Table sizes: every `q` and `i` that a finite `f64` reaches.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 342;

/// Ryū's multipliers: `pos[i]` is the top 125 bits of `5^i`, `inv[q]` is
/// `floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1`.
struct Tables {
    pos: [u128; POW5_TABLE_SIZE],
    inv: [u128; POW5_INV_TABLE_SIZE],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// `5^341` has 792 bits.
const BIG_LIMBS: usize = 13;

/// A little-endian unsigned big integer just wide enough for `5^341`.
struct Big([u64; BIG_LIMBS]);

impl Big {
    fn bit_len(&self) -> u32 {
        self.0
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| 64 * i as u32 + 64 - self.0[i].leading_zeros())
    }

    fn mul_small(&mut self, k: u64) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let wide = u128::from(*limb) * u128::from(k) + carry;
            *limb = wide as u64;
            carry = wide >> 64;
        }
    }

    /// `floor(self / 2^shift)`, which must fit in 128 bits.
    fn shr_u128(&self, shift: u32) -> u128 {
        let (limb, bit) = ((shift / 64) as usize, shift % 64);
        let word = |i: usize| u128::from(self.0.get(i).copied().unwrap_or(0));
        let low = word(limb) | word(limb + 1) << 64;
        let spill = if bit == 0 {
            0
        } else {
            word(limb + 2) << (128 - bit)
        };
        (low >> bit) | spill
    }

    fn shl1(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
    }

    fn ge(&self, other: &Big) -> bool {
        self.0.iter().rev().cmp(other.0.iter().rev()).is_ge()
    }

    fn sub_assign(&mut self, other: &Big) {
        let mut borrow = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (d, b1) = a.overflowing_sub(b);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *a = d;
            borrow = b1 || b2;
        }
    }

    fn power_of_two(bit: u32) -> Big {
        let mut big = Big([0; BIG_LIMBS]);
        big.0[(bit / 64) as usize] = 1 << (bit % 64);
        big
    }
}

fn build_tables() -> Tables {
    let mut tables = Tables {
        pos: [0; POW5_TABLE_SIZE],
        inv: [0; POW5_INV_TABLE_SIZE],
    };
    let mut pow = Big::power_of_two(0);
    for i in 0..POW5_INV_TABLE_SIZE {
        let len = pow.bit_len();
        if i < POW5_TABLE_SIZE {
            tables.pos[i] = if len as i32 > POW5_BITCOUNT {
                pow.shr_u128(len - POW5_BITCOUNT as u32)
            } else {
                pow.shr_u128(0) << (POW5_BITCOUNT - len as i32)
            };
        }
        // Long division of 2^(len - 1 + 125) by 5^i, one quotient bit at
        // a time: 5^i >= 2^(len - 1), so the first partial remainder
        // 2^(len - 1) yields at most one bit.
        let mut rem = Big::power_of_two(len - 1);
        let mut quot = 0u128;
        for step in 0..=POW5_INV_BITCOUNT {
            if step > 0 {
                rem.shl1();
            }
            quot <<= 1;
            if rem.ge(&pow) {
                rem.sub_assign(&pow);
                quot |= 1;
            }
        }
        tables.inv[i] = quot + 1;
        pow.mul_small(5);
    }
    tables
}

/// `floor(log2(5^e)) + 1` for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e.unsigned_abs() * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e.unsigned_abs() * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e.unsigned_abs() * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) && count < p {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(m * mul / 2^j)` for a 125-bit multiplier and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryū's shortest `(digits, exp)` with `x = digits * 10^exp`, exact ties
/// rounded up.
fn ryu(mantissa: u64, exponent: u32) -> (u64, i32) {
    let t = tables();
    // Two extra bits so the interval bounds are integers.
    let (e2, m2) = if exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (
            exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower neighbour is half as far at a power of two.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // Whether vm is exactly `mm * 10^-e10` (its dropped digits are all
    // zero). Ryū also tracks the same for vr, but only to round an exact
    // tie to even; rounding ties up needs no such flag.
    let mut vm_trailing = false;
    let (e10, vr, vp, vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = t.inv[q as usize];
        vr = mul_shift(mv, mul, i);
        vm = mul_shift(mm, mul, i);
        let mut hi = mul_shift(mp, mul, i);
        // At most one of mp, mv, mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing = multiple_of_pow5(mm, q);
            } else {
                hi -= u64::from(multiple_of_pow5(mp, q));
            }
        }
        vp = hi;
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = t.pos[i as usize];
        vr = mul_shift(mv, mul, j);
        vm = mul_shift(mm, mul, j);
        let mut hi = mul_shift(mp, mul, j);
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit iff
            // mm_shift is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_trailing = mm_shift == 1;
            } else {
                hi -= 1;
            }
        }
        vp = hi;
    }
    let (output, removed) = shortest_in(vr, vp, vm, vm_trailing);
    (output, e10 + removed)
}

/// Drops digits from `vr` while `vm < vp` still differ, then rounds:
/// up when the dropped tail is at least half (an exact tie included),
/// or when `vr` fell on the lower bound and that bound is excluded.
/// `vm_trailing` (vm exact, only ever set when the bounds are accepted)
/// lets trailing zeros of vm go too.
fn shortest_in(mut vr: u64, mut vp: u64, mut vm: u64, mut vm_trailing: bool) -> (u64, i32) {
    let mut removed = 0;
    if vm_trailing {
        // The rare case: vm may end on zeros that let more digits go.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let round_up = (vr == vm && !vm_trailing) || last_removed >= 5;
        return (vr + u64::from(round_up), removed);
    }
    let mut round_up = false;
    if vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    (vr + u64::from(vr == vm || round_up), removed)
}
