//! Decimal writers for the wire formats, byte-identical to `Display` and
//! free of `core::fmt`.
//!
//! [`write_f64`] and [`write_f32`] print the shortest decimal that reads
//! back as the same float, laid out exactly as Rust's `{}` lays it out: no
//! exponent ever (`5e-324` is written with all 323 zeros), no trailing
//! `.0` (`1` for 1.0), `-0` for −0.0, `inf`, `-inf` and `NaN`. The digits
//! come from Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI 2018):
//! the value's rounding interval is scaled by a 125-bit power of five
//! taken from a table, and digits are dropped while the interval still
//! holds a shorter decimal. Two choices follow core's `Display` (Grisu
//! with Dragon4 fallback) rather than the Ryū paper, as the tests against
//! `Display` pin down: a tie between the two nearest shortest decimals
//! rounds up, not to even, and every normal power of two (the smallest one
//! included) gets the narrower lower half-interval. `f32` runs through the
//! same 64-bit routine: its mantissa is narrower and its exponents a
//! subset of `f64`'s.
//!
//! The power-of-five tables are computed at compile time by the `const fn`s
//! below; a test re-derives every entry with an independent bignum.

/// Bits kept of each table entry.
const POW5_BITCOUNT: i32 = 125;
/// Entries of [`POW5_INV_SPLIT`]: `q` reaches 290 for `f64`.
const POW5_INV_TABLE_SIZE: usize = 292;
/// Entries of [`POW5_SPLIT`]: `i` reaches 325 for `f64`.
const POW5_TABLE_SIZE: usize = 326;
/// 64-bit limbs of the compile-time bignum: 2^895 and 5^325 both fit.
const LIMBS: usize = 14;

/// `POW5_INV_SPLIT[q] = ⌊2^(pow5bits(q) − 1 + 125) / 5^q⌋ + 1`, as
/// `[low 64 bits, high bits]`.
static POW5_INV_SPLIT: [[u64; 2]; POW5_INV_TABLE_SIZE] = pow5_inv_table();
/// `POW5_SPLIT[i]` = the top 125 bits of 5^i (5^i shifted left when it has
/// fewer), as `[low 64 bits, high bits]`.
static POW5_SPLIT: [[u64; 2]; POW5_TABLE_SIZE] = pow5_table();

/// Bit length of a little-endian limb array.
const fn bit_length(x: &[u64; LIMBS]) -> usize {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i + 64 - x[i].leading_zeros() as usize;
        }
    }
    0
}

/// The 128 bits of `x` starting at bit `shift`.
const fn bits_at(x: &[u64; LIMBS], shift: usize) -> u128 {
    let (word, bit) = (shift / 64, shift % 64);
    let mut out = 0u128;
    let mut k = 0;
    // Three limbs cover 128 bits at any bit offset.
    while k < 3 {
        if word + k < LIMBS {
            let limb = x[word + k] as u128;
            let at = 64 * k as i32 - bit as i32;
            if at >= 0 {
                if at < 128 {
                    out |= limb << at;
                }
            } else {
                out |= limb >> -at;
            }
        }
        k += 1;
    }
    out
}

const fn split(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

const fn pow5_table() -> [[u64; 2]; POW5_TABLE_SIZE] {
    let mut table = [[0u64; 2]; POW5_TABLE_SIZE];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = bit_length(&pow);
        table[i] = if len >= POW5_BITCOUNT as usize {
            split(bits_at(&pow, len - POW5_BITCOUNT as usize))
        } else {
            split((pow[0] as u128 | (pow[1] as u128) << 64) << (POW5_BITCOUNT as usize - len))
        };
        // pow *= 5
        let mut carry = 0u128;
        let mut l = 0;
        while l < LIMBS {
            let cur = pow[l] as u128 * 5 + carry;
            pow[l] = cur as u64;
            carry = cur >> 64;
            l += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [[u64; 2]; POW5_INV_TABLE_SIZE] {
    // quot = ⌊2^TOP / 5^q⌋, kept exact by dividing by 5 once per entry
    // (⌊⌊a⌋ / 5⌋ = ⌊a / 5⌋), then shifted down to the entry's width.
    const TOP: usize = 64 * LIMBS - 1;
    let mut table = [[0u64; 2]; POW5_INV_TABLE_SIZE];
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_TABLE_SIZE {
        let k = pow5bits(q as i32) as usize - 1 + POW5_BITCOUNT as usize;
        table[q] = split(bits_at(&quot, TOP - k) + 1);
        let mut rem = 0u128;
        let mut l = LIMBS;
        while l > 0 {
            l -= 1;
            let cur = rem << 64 | quot[l] as u128;
            quot[l] = (cur / 5) as u64;
            rem = cur % 5;
        }
        q += 1;
    }
    table
}

/// Bit length of 5^e (1 for e = 0), for 0 <= e <= 3528.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// ⌊log10(2^e)⌋ for 0 <= e <= 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// ⌊log10(5^e)⌋ for 0 <= e <= 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

/// Whether 5^p divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// ⌊m × mul / 2^shift⌋ for a 125-bit table entry, `shift >= 64`.
fn mul_shift(m: u64, mul: &[u64; 2], shift: i32) -> u64 {
    let low = m as u128 * mul[0] as u128;
    let high = m as u128 * mul[1] as u128;
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The shortest `digits × 10^exp` inside the rounding interval of the
/// positive binary value `m2 × 2^e2` (where `e2` already carries the
/// two extra bits of the interval computation) — the nearest such decimal,
/// ties away from zero. `lower_shift` is 1 when the gap below the value
/// equals the gap above, 0 when it is half of it; `accept_bounds` makes
/// the interval closed (an even mantissa rounds-to-even back onto itself).
fn shortest(m2: u64, e2: i32, lower_shift: u64, accept_bounds: bool) -> (u64, i32) {
    let mv = 4 * m2;
    let (mp, mm) = (mv + 2, mv - 1 - lower_shift);
    let (mut vr, mut vp, mut vm, e10);
    // Whether the exact lower bound is the integer `vm` (so a decimal
    // ending at it may be output).
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_BITCOUNT + pow5bits(q as i32) - 1;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // Ryū's bound: past q = 21 no bound is taken to be a multiple of
        // 5^q.
        if q <= 21 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= multiple_of_pow5(mp, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5bits(i) - POW5_BITCOUNT);
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // A bound is exact here iff it has q trailing zero bits: mp has
        // one, mm one with the lower shift and none without it.
        if q <= 1 {
            if accept_bounds {
                vm_exact = lower_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let output = if vm_exact {
        // Rare: the lower bound is itself a candidate, so digits are
        // dropped past the point where vp and vm part while vm stays exact.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + ((vr == vm && !vm_exact) || last_removed >= 5) as u64
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + (vr == vm || round_up) as u64
    };
    (output, e10 + removed)
}

/// `"00" "01" … "99"`, for writing two digits per division.
static DIGIT_PAIRS: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut out = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        out[2 * i] = b'0' + (i / 10) as u8;
        out[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    out
}

/// Writes the decimal digits of `n` into the tail of `buf` and returns
/// them. Eight digits at a time go through `u32` halves, so the divisions
/// form short independent chains.
fn digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    let mut pair = |at: &mut usize, v: u32| {
        *at -= 2;
        let v = v as usize * 2;
        buf[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[v..v + 2]);
    };
    while n >= 100_000_000 {
        let chunk = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (high, low) = (chunk / 10_000, chunk % 10_000);
        pair(&mut at, low % 100);
        pair(&mut at, low / 100);
        pair(&mut at, high % 100);
        pair(&mut at, high / 100);
    }
    let mut n = n as u32;
    while n >= 100 {
        pair(&mut at, n % 100);
        n /= 100;
    }
    if n >= 10 {
        pair(&mut at, n);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    &buf[at..]
}

/// Appends `n` in decimal, as `{}` would.
pub(crate) fn write_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(digits(n, &mut [0; 20]));
}

/// Appends `x` exactly as `format!("{x}")` writes it.
pub(crate) fn write_f64(out: &mut Vec<u8>, x: f64) {
    let bits = x.to_bits();
    let (exponent, fraction) = ((bits >> 52) as u32 & 0x7ff, bits & ((1 << 52) - 1));
    write_float(out, bits >> 63 != 0, exponent, fraction, 52, 0x7ff);
}

/// Appends `x` exactly as `format!("{x}")` writes it.
pub(crate) fn write_f32(out: &mut Vec<u8>, x: f32) {
    let bits = x.to_bits();
    let (exponent, fraction) = ((bits >> 23) & 0xff, (bits & ((1 << 23) - 1)) as u64);
    write_float(out, bits >> 31 != 0, exponent, fraction, 23, 0xff);
}

/// Writes one IEEE float given as its fields: the biased `exponent`, the
/// stored `fraction` of `fraction_bits` bits, and the all-ones exponent
/// `exponent_max` of infinities and NaNs.
fn write_float(
    out: &mut Vec<u8>,
    negative: bool,
    exponent: u32,
    fraction: u64,
    fraction_bits: i32,
    exponent_max: u32,
) {
    if exponent == exponent_max {
        out.extend_from_slice(match (fraction != 0, negative) {
            (true, _) => b"NaN",
            (false, false) => b"inf",
            (false, true) => b"-inf",
        });
        return;
    }
    if negative {
        out.push(b'-');
    }
    if exponent == 0 && fraction == 0 {
        out.push(b'0');
        return;
    }
    let bias = (exponent_max >> 1) as i32;
    // Two extra bits below the mantissa hold the interval's bounds.
    let (m2, e2) = if exponent == 0 {
        (fraction, 1 - bias - fraction_bits - 2)
    } else {
        (fraction | 1 << fraction_bits, exponent as i32 - bias - fraction_bits - 2)
    };
    let lower_shift = (fraction != 0 || exponent == 0) as u64;
    let (mantissa, exp) = shortest(m2, e2, lower_shift, m2 % 2 == 0);

    // Display's layout of 0.d₁d₂…dₙ × 10^point: zeros between "0." and
    // the digits when the point is left of them, zeros after the digits
    // when it is right of them.
    let mut buf = [0u8; 20];
    let digits = digits(mantissa, &mut buf);
    let n = digits.len() as i32;
    let point = exp + n;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if point < n {
        out.extend_from_slice(&digits[..point as usize]);
        out.push(b'.');
        out.extend_from_slice(&digits[point as usize..]);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - n) as usize, b'0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    fn check_f64(x: f64) {
        let mut out = Vec::new();
        write_f64(&mut out, x);
        let got = std::str::from_utf8(&out).unwrap();
        assert_eq!(got, format!("{x}"), "f64 bits {:#018x}", x.to_bits());
    }

    fn check_f32(x: f32) {
        let mut out = Vec::new();
        write_f32(&mut out, x);
        let got = std::str::from_utf8(&out).unwrap();
        assert_eq!(got, format!("{x}"), "f32 bits {:#010x}", x.to_bits());
    }

    /// `x` and its neighbours up to `k` ulps away on either side.
    fn around64(x: f64, k: u64) -> impl Iterator<Item = f64> {
        let b = x.to_bits();
        (b.saturating_sub(k)..=b.saturating_add(k)).map(f64::from_bits)
    }

    fn around32(x: f32, k: u32) -> impl Iterator<Item = f32> {
        let b = x.to_bits();
        (b.saturating_sub(k)..=b.saturating_add(k)).map(f32::from_bits)
    }

    #[test]
    fn edge_cases_match_display() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.3,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1e300,
            5e-324,
        ];
        for x in specials {
            check_f64(x);
        }
        for x in around64(f64::MIN_POSITIVE, 4).chain(around64(f64::MAX, 4)) {
            check_f64(x);
        }
        // Integers around 2^53, where the ulp passes 1 and then 2.
        for x in around64(9007199254740992.0, 8) {
            check_f64(x);
            check_f64(-x);
        }
        // Powers of ten and the floats next to them.
        for k in -30..=30 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            around64(p, 3).for_each(check_f64);
            around32(p as f32, 3).for_each(check_f32);
        }
        let specials32 = [
            0.0,
            -0.0,
            1.0,
            0.1,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits((1 << 23) - 1),
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NAN,
        ];
        for x in specials32 {
            around32(x, 2).for_each(check_f32);
        }
    }

    /// A value exactly between the two nearest shortest decimals, such as
    /// 2^50 + 0.25 (…624.2 and …624.3 both read back): `Display` rounds up.
    #[test]
    fn ties_round_up_like_display() {
        for k in 0..2000u64 {
            check_f64((1u64 << 50) as f64 + k as f64 + 0.25);
            check_f64((1u64 << 50) as f64 + k as f64 + 0.75);
            check_f32((1u32 << 21) as f32 + k as f32 + 0.25);
            check_f32((1u32 << 21) as f32 + k as f32 + 0.75);
        }
    }

    /// Every exponent field with the smallest, largest and a mixed
    /// fraction, which reaches every table entry both routines use.
    #[test]
    fn every_exponent_matches_display() {
        for e in 0..0x7ffu64 {
            for f in [0, 1, 2, 0x5555_5555_5555, (1 << 52) - 1, (1 << 52) - 2] {
                check_f64(f64::from_bits(e << 52 | f));
            }
        }
        for e in 0..0xffu32 {
            for f in [0, 1, 2, 0x55_5555, (1 << 23) - 1, (1 << 23) - 2] {
                check_f32(f32::from_bits(e << 23 | f));
            }
        }
    }

    #[test]
    fn integers_match_display() {
        let mut out = Vec::new();
        for n in [0, 1, 9, 10, 99, 100, 101, 12345, u32::MAX as u64, u64::MAX - 1, u64::MAX]
            .into_iter()
            .chain((0..64).map(|s| 1u64 << s))
            .chain((0..20).map(|s| 10u64.pow(s)))
            .chain((1..20).map(|s| 10u64.pow(s) - 1))
        {
            out.clear();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(100_000))]

        #[test]
        fn random_f64_bits_match_display(bits in any::<u64>()) {
            check_f64(f64::from_bits(bits));
        }

        #[test]
        fn random_f32_bits_match_display(bits in any::<u32>()) {
            check_f32(f32::from_bits(bits));
        }

        /// Short decimals and the floats around them: the values whose
        /// shortest form sits on or next to a rounding boundary.
        #[test]
        fn floats_near_short_decimals_match_display(
            digits in 1u64..100_000_000,
            exp in -330i32..310,
            width in 1u32..18,
        ) {
            let digits = digits % 10u64.pow(width.min(8)) + 1;
            let x: f64 = format!("{digits}e{exp}").parse().unwrap();
            around64(x, 2).for_each(check_f64);
            let y: f32 = format!("{digits}e{}", exp / 8).parse().unwrap();
            around32(y, 2).for_each(check_f32);
        }
    }

    /// Every `f32`, both signs: about ten minutes on two threads, so
    /// ignored by default (`cargo test --release -p edge-serve -- --ignored
    /// every_f32`).
    #[test]
    #[ignore]
    fn every_f32_matches_display() {
        let threads = 2u64;
        let chunk = (1u64 << 32) / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let (mut out, mut want) = (Vec::new(), String::new());
                    for bits in t * chunk..(t + 1) * chunk {
                        let x = f32::from_bits(bits as u32);
                        out.clear();
                        want.clear();
                        write_f32(&mut out, x);
                        write!(want, "{x}").unwrap();
                        assert_eq!(out, want.as_bytes(), "f32 bits {bits:#010x}");
                    }
                });
            }
        });
    }

    /// A little-endian base-2^32 bignum, independent of the `const fn`s
    /// that build the tables.
    #[derive(Clone, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(mut v: u128) -> Big {
            let mut limbs = Vec::new();
            while v > 0 {
                limbs.push(v as u32);
                v >>= 32;
            }
            Big(limbs)
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                    out[i + j] = cur as u32;
                    carry = cur >> 32;
                }
                out[i + other.0.len()] = carry as u32;
            }
            Big(out).trim()
        }

        fn pow2(n: usize) -> Big {
            let mut limbs = vec![0u32; n / 32 + 1];
            limbs[n / 32] = 1 << (n % 32);
            Big(limbs)
        }

        fn trim(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn bits(&self) -> usize {
            self.0.last().map_or(0, |top| 32 * self.0.len() - top.leading_zeros() as usize)
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> Ordering {
            let (a, b) = (self.clone().trim(), other.clone().trim());
            a.0.len().cmp(&b.0.len()).then_with(|| a.0.iter().rev().cmp(b.0.iter().rev()))
        }
    }

    fn entry(e: &[u64; 2]) -> u128 {
        e[0] as u128 | (e[1] as u128) << 64
    }

    #[test]
    fn tables_hold_the_top_bits_of_each_power_of_five() {
        let five = Big::from_u128(5);
        let mut pow = Big::from_u128(1);
        for i in 0..POW5_INV_TABLE_SIZE.max(POW5_TABLE_SIZE) {
            let len = pow.bits();
            assert_eq!(pow5bits(i as i32) as usize, len, "pow5bits({i})");
            if i < POW5_TABLE_SIZE {
                // POW5_SPLIT[i] · 2^s <= 5^i < (POW5_SPLIT[i] + 1) · 2^s,
                // s = len − 125, exact when 5^i has fewer bits.
                let e = entry(&POW5_SPLIT[i]);
                assert_eq!(128 - e.leading_zeros(), 125, "entry {i} is 125 bits");
                if len >= 125 {
                    let scale = Big::pow2(len - 125);
                    assert!(Big::from_u128(e).mul(&scale) <= pow, "POW5_SPLIT[{i}] too big");
                    assert!(Big::from_u128(e + 1).mul(&scale) > pow, "POW5_SPLIT[{i}] too small");
                } else {
                    assert!(Big::from_u128(e) == pow.mul(&Big::pow2(125 - len)), "POW5_SPLIT[{i}]");
                }
            }
            if i < POW5_INV_TABLE_SIZE {
                // (e − 1) · 5^i <= 2^k < e · 5^i, k = len − 1 + 125.
                let e = entry(&POW5_INV_SPLIT[i]);
                let top = Big::pow2(len - 1 + 125);
                assert!(Big::from_u128(e - 1).mul(&pow) <= top, "POW5_INV_SPLIT[{i}] too big");
                assert!(Big::from_u128(e).mul(&pow) > top, "POW5_INV_SPLIT[{i}] too small");
            }
            pow = pow.mul(&five);
        }
    }
}
