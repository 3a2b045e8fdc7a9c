//! Shortest round-trip decimal text for `f64`, byte for byte what `{:?}`
//! prints, without going through `core::fmt`.
//!
//! Digit generation is Schubfach (Giulietti, "The Schubfach way to render
//! doubles"): scale the value and its two rounding-interval boundaries by a
//! 128-bit power of ten with three round-to-odd multiplies, then pick the
//! shortest decimal inside the interval. One deliberate departure from the
//! paper: when two candidates are exactly equidistant it rounds to even,
//! `std` rounds up (`1658206780088562.25` prints as `…562.3`), and this
//! printer follows `std`, because its contract is `{:?}`'s bytes.

/// Decimal exponents the power-of-ten table covers: every `-k` the digit
/// generator can ask for over the whole `f64` range.
const MIN_K: i32 = -292;
const MAX_K: i32 = 324;
const TABLE_LEN: usize = (MAX_K - MIN_K + 1) as usize;

/// Limbs of the bignums the table is built with: 1152 bits hold `10^324`
/// (1077 bits) and leave `⌊2^1151 / 10^292⌋` 181 significant bits.
const LIMBS: usize = 18;

/// `POW10[k - MIN_K]` is `g = ⌈10^k · 2^-r⌉` with `r = ⌊log2 10^k⌋ - 127`,
/// so `2^127 <= g < 2^128`, as `(high, low)` words. Computed at compile
/// time: no set-up cost, no lock on the way to the table.
static POW10: [(u64, u64); TABLE_LEN] = pow10_table();

const fn pow10_table() -> [(u64, u64); TABLE_LEN] {
    let mut table = [(0u64, 0u64); TABLE_LEN];
    // Upward: one exact running 10^k; an entry is its top 128 bits, plus
    // one when any bit below them is set (exact through 10^55).
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut k = 0;
    while k <= MAX_K {
        let (top, inexact) = top_128_bits(&pow);
        table[(k - MIN_K) as usize] = split(top + inexact as u128);
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let t = pow[i] as u128 * 10 + carry;
            pow[i] = t as u64;
            carry = t >> 64;
            i += 1;
        }
        k += 1;
    }
    // Downward: one running ⌊2^1151 / 10^m⌋. Floor division composes, so
    // each quotient and its top 128 bits are exact floors; 10^m never
    // divides a power of two, so the ceiling is always floor + 1.
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1 << 63;
    let mut m = 1;
    while m <= -MIN_K {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let t = (rem << 64) | quot[i] as u128;
            quot[i] = (t / 10) as u64;
            rem = t % 10;
        }
        table[(-m - MIN_K) as usize] = split(top_128_bits(&quot).0 + 1);
        m += 1;
    }
    table
}

const fn split(g: u128) -> (u64, u64) {
    ((g >> 64) as u64, g as u64)
}

/// The 128 most significant bits of a nonzero little-endian bignum (shifted
/// up when it is shorter), and whether any lower bit is set.
const fn top_128_bits(limbs: &[u64; LIMBS]) -> (u128, bool) {
    let mut top = LIMBS - 1;
    while limbs[top] == 0 {
        top -= 1;
    }
    let bit_len = 64 * top + 64 - limbs[top].leading_zeros() as usize;
    if bit_len <= 128 {
        let v = (limbs[1] as u128) << 64 | limbs[0] as u128;
        return (v << (128 - bit_len), false);
    }
    // Bits `[bit_len - 128, bit_len)` start `shift` bits into limb `first`
    // and end in limb `first + 2`, which `LIMBS` leaves room for.
    let (first, shift) = ((bit_len - 128) / 64, (bit_len - 128) % 64);
    let high = (limbs[first + 2] as u128) << 64 | limbs[first + 1] as u128;
    let v = high << (64 - shift) | (limbs[first] >> shift) as u128;
    let mut inexact = limbs[first] & ((1 << shift) - 1) != 0;
    let mut i = 0;
    while i < first {
        inexact |= limbs[i] != 0;
        i += 1;
    }
    (v, inexact)
}

/// `⌊log2 10^e⌋` for `|e| <= 1233`.
fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// The integer part of `g · cp / 2^64` for a 128-bit `g`, with the lowest
/// bit set when any discarded bit was: exact enough to compare against the
/// interval boundaries, which is all the caller does with it.
fn round_to_odd((hi, lo): (u64, u64), cp: u64) -> u64 {
    let x = (lo as u128 * cp as u128) >> 64;
    let y = hi as u128 * cp as u128 + x;
    (y >> 64) as u64 | ((y as u64) > 1) as u64
}

/// The shortest `(digits, exponent)` with `digits · 10^exponent` inside the
/// rounding interval of the finite, nonzero double whose bits (sign cleared)
/// are `abs`, closest to it among equally short ones. `digits` may end in
/// zeros.
fn shortest(abs: u64) -> (u64, i32) {
    let fraction = abs & ((1 << 52) - 1);
    let exponent = (abs >> 52) as i32;
    let (c, q) = if exponent != 0 {
        (fraction | 1 << 52, exponent - 1075)
    } else {
        (fraction, -1074)
    };
    // An even significand wins ties at parse time, so its interval is closed.
    let closed = c & 1 == 0;
    // At a power of two the gap below is half the gap above.
    let lower_is_closer = fraction == 0 && exponent > 1;

    let k = (q * 1_262_611 - if lower_is_closer { 524_031 } else { 0 }) >> 22;
    let h = q + floor_log2_pow10(-k) + 1;
    let g = POW10[(-k - MIN_K) as usize];
    let lower = round_to_odd(g, (4 * c - 2 + lower_is_closer as u64) << h) + !closed as u64;
    let vb = round_to_odd(g, (4 * c) << h);
    let upper = round_to_odd(g, (4 * c + 2) << h) - !closed as u64;

    let s = vb / 4;
    if s >= 10 {
        let sp = s / 10;
        let below_inside = lower <= 40 * sp;
        let above_inside = 40 * sp + 40 <= upper;
        if below_inside != above_inside {
            return (sp + above_inside as u64, k + 1);
        }
    }
    let below_inside = lower <= 4 * s;
    let above_inside = 4 * s + 4 <= upper;
    if below_inside != above_inside {
        return (s + above_inside as u64, k);
    }
    // Both neighbours are inside: take the nearer, and on an exact tie the
    // upper one, as `std` does (the paper rounds to even here).
    let round_up = vb >= 4 * s + 2;
    (s + round_up as u64, k)
}

static DIGIT_PAIRS: [u8; 200] = *b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v` in decimal so that its last digit lands at `buf[end - 1]`;
/// returns the index of its first digit.
fn write_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + v as u8;
    }
    end
}

/// Append bytes this module laid out. Validating them costs 8 of the 46 ns
/// a float field takes and 5 of the 16 ns an integer field takes.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    debug_assert!(bytes.is_ascii());
    // SAFETY: every caller passes a range of a local buffer it filled from
    // `DIGIT_PAIRS`, `b'0' + d` with `d < 10`, and the literals `-`, `.`,
    // `e` and `0` — all ASCII, so the bytes are valid UTF-8.
    out.push_str(unsafe { std::str::from_utf8_unchecked(bytes) });
}

/// Append `v` in decimal.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut start = write_digits(&mut buf, 20, v.unsigned_abs());
    if v < 0 {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..]);
}

/// Append exactly the bytes `write!(out, "{v:?}")` appends.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let abs = bits & !(1 << 63);
    if abs == 0 {
        return out.push_str(if negative { "-0.0" } else { "0.0" });
    }
    if abs >= 0x7ff << 52 {
        return out.push_str(match (abs > 0x7ff << 52, negative) {
            (true, _) => "NaN",
            (false, true) => "-inf",
            (false, false) => "inf",
        });
    }
    let (mut digits, mut k) = shortest(abs);
    while digits % 10 == 0 {
        digits /= 10;
        k += 1;
    }
    let n = digits.ilog10() as usize + 1;
    // The value is 0.d₁d₂…dₙ × 10^e.
    let e = n as i32 + k;

    // The text is laid out from `buf[1]`, behind a sign that is kept or
    // skipped; the longest is `-d.dddddddddddddddde-324`, 24 bytes. Zero
    // padding comes from the fill.
    let mut buf = [b'0'; 32];
    buf[0] = b'-';
    let end = if !(-3..=16).contains(&e) {
        // d₁[.d₂…dₙ]e±x
        write_digits(&mut buf, 2 + n, digits);
        buf[1] = buf[2];
        let mut at = 2;
        if n > 1 {
            buf[2] = b'.';
            at += n;
        }
        buf[at] = b'e';
        at += 1;
        let x = e - 1;
        if x < 0 {
            buf[at] = b'-';
            at += 1;
        }
        let x = x.unsigned_abs();
        let end = at + 1 + (x >= 10) as usize + (x >= 100) as usize;
        write_digits(&mut buf, end, u64::from(x));
        end
    } else if e <= 0 {
        // 0.[000]d₁…dₙ
        let lead = 3 + e.unsigned_abs() as usize;
        buf[2] = b'.';
        write_digits(&mut buf, lead + n, digits);
        lead + n
    } else if (e as usize) < n {
        // d₁…dₑ.dₑ₊₁…dₙ
        let e = e as usize;
        write_digits(&mut buf, 2 + n, digits);
        buf.copy_within(2..2 + e, 1);
        buf[1 + e] = b'.';
        2 + n
    } else {
        // d₁…dₙ[000].0
        let e = e as usize;
        write_digits(&mut buf, 1 + n, digits);
        buf[1 + e] = b'.';
        3 + e
    };
    push_ascii(out, &buf[!negative as usize..end]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pcg64;

    /// `{:?}` is the oracle: same text, and the text parses back to the
    /// same bits.
    fn check(bits: u64) {
        let v = f64::from_bits(bits);
        let mut got = String::new();
        push_f64(&mut got, v);
        assert_eq!(got, format!("{v:?}"), "bits {bits:#018x}");
        if !v.is_nan() {
            let back: f64 = got.parse().expect("printed text parses");
            assert_eq!(back.to_bits(), bits, "round trip of {got}");
        }
    }

    fn check_with_neighbours(v: f64) {
        let bits = v.to_bits();
        for b in [bits.wrapping_sub(1), bits, bits + 1] {
            check(b);
            check(b | 1 << 63);
        }
    }

    #[test]
    fn matches_debug_on_seeded_bit_patterns() {
        let mut rng = Pcg64::new(0x9e37_79b9_7f4a_7c15);
        for _ in 0..250_000 {
            check(rng.next_u64());
        }
    }

    #[test]
    #[ignore = "release sweep: cargo test --release -p genbase-util -- --include-ignored"]
    fn matches_debug_on_fifty_million_bit_patterns() {
        let mut rng = Pcg64::new(0x2545_f491_4f6c_dd1d);
        for _ in 0..50_000_000u32 {
            check(rng.next_u64());
        }
    }

    #[test]
    fn matches_debug_on_every_exponent() {
        let mantissas = [0, 1, 2, 1 << 51, (1 << 52) - 2, (1 << 52) - 1];
        for exponent in 0..2047u64 {
            for m in mantissas {
                check(exponent << 52 | m);
                check(1 << 63 | exponent << 52 | m);
            }
        }
    }

    #[test]
    fn matches_debug_on_specials_and_subnormals() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            check(v.to_bits());
        }
        check(0x7ff0_0000_0000_0001); // signalling NaN payloads
        check(0xfff8_dead_beef_0001);
        let mut rng = Pcg64::new(0x1234_5678_9abc_def1);
        for _ in 0..20_000 {
            check(rng.next_u64() >> 12); // exponent field 0
        }
        for bits in (1..=64).chain((1 << 52) - 64..(1 << 52) + 64) {
            check(bits);
        }
    }

    #[test]
    fn matches_debug_around_powers_of_ten() {
        for e in -323..=308 {
            let v: f64 = format!("1e{e}").parse().unwrap();
            check_with_neighbours(v);
        }
        // The scientific/decimal switch-overs and the layouts beside them.
        for text in [
            "1e-5",
            "1.5e-7",
            "0.0001",
            "0.00012",
            "1e16",
            "1.5e16",
            "9999999999999998",
        ] {
            let v: f64 = text.parse().unwrap();
            check_with_neighbours(v);
        }
    }

    #[test]
    fn breaks_ties_upward_like_std() {
        // …562.25 where doubles are multiples of ¼: the textbook algorithms
        // print …562.2.
        let mut out = String::new();
        push_f64(&mut out, f64::from_bits(0x4317_9085_685d_83c9));
        assert_eq!(out, "1658206780088562.3");
        // Where doubles are ¼ or ½ apart a dropped digit can be exactly 5;
        // past 2^53 they are even integers and a dropped last digit can be.
        let mut rng = Pcg64::new(0x0dd_ba11);
        for exponent in 1023 + 50..1023 + 56u64 {
            for _ in 0..20_000 {
                check(exponent << 52 | rng.next_u64() >> 12);
            }
        }
    }

    #[test]
    fn matches_debug_on_integers_the_csv_writer_sends_here() {
        // `csv::push_f64` prints integers below 1e15 itself; [1e15, 1e16]
        // reaches this printer and must keep its `.0`.
        let mut rng = Pcg64::new(0xfeed_f00d);
        for _ in 0..20_000 {
            let i = 1_000_000_000_000_000 + rng.next_u64() % 9_000_000_000_000_001;
            check((i as f64).to_bits());
        }
        for i in [
            1e15,
            1e15 + 1.0,
            9007199254740992.0,
            9999999999999998.0,
            1e16,
        ] {
            check_with_neighbours(i);
        }
        // And the small ones, for completeness of the `{:?}` contract.
        for i in 0..2_000 {
            check((i as f64).to_bits());
            check((-(i as f64) * 1000.0).to_bits());
        }
    }

    #[test]
    fn i64_digits_match_display() {
        let mut rng = Pcg64::new(0xabad_1dea);
        let mut values = vec![
            0,
            1,
            -1,
            9,
            10,
            99,
            100,
            -100,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        for shift in 0..64 {
            values.push(rng.next_u64() as i64 >> shift);
        }
        for v in values {
            let mut out = String::new();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    // ---- the table, against a from-scratch bignum ----

    /// Little-endian base-2^32 natural number, just enough arithmetic to
    /// state the table's defining inequality.
    struct Big(Vec<u32>);

    impl Big {
        fn pow(base: u32, exp: u32) -> Big {
            let mut out = Big(vec![1]);
            for _ in 0..exp {
                out = out.mul(&Big(vec![base]));
            }
            out
        }

        fn from_u128(v: u128) -> Big {
            Big((0..4).map(|i| (v >> (32 * i)) as u32).collect()).trimmed()
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + other.0.len()] = carry as u32;
            }
            Big(out).trimmed()
        }

        fn trimmed(mut self) -> Big {
            while self.0.len() > 1 && self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn cmp(&self, other: &Big) -> std::cmp::Ordering {
            let by_len = self.0.len().cmp(&other.0.len());
            by_len.then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn table_entries_are_the_ceilings_they_claim_to_be() {
        use std::cmp::Ordering::{Greater, Less};
        for k in MIN_K..=MAX_K {
            let (hi, lo) = POW10[(k - MIN_K) as usize];
            assert!(hi >> 63 == 1, "k={k}: not normalized");
            let g = u128::from(hi) << 64 | u128::from(lo);
            // (g-1)·2^r < 10^k <= g·2^r, with the powers moved to whichever
            // side keeps everything an integer.
            let r = floor_log2_pow10(k) - 127;
            let two = Big::pow(2, r.unsigned_abs());
            let ten = Big::pow(10, k.unsigned_abs());
            let side = |g: u128| {
                let g = Big::from_u128(g);
                let (mut left, mut right) = (g, Big(vec![1]));
                if r >= 0 {
                    left = left.mul(&two)
                } else {
                    right = right.mul(&two)
                }
                if k >= 0 {
                    right = right.mul(&ten)
                } else {
                    left = left.mul(&ten)
                }
                left.cmp(&right)
            };
            assert_eq!(side(g - 1), Less, "k={k}: g-1 is already enough");
            assert_ne!(side(g), Less, "k={k}: g falls short");
            if !(0..=55).contains(&k) {
                assert_eq!(side(g), Greater, "k={k}: only 10^0..10^55 are exact");
            }
        }
        let at = |k: i32| POW10[(k - MIN_K) as usize];
        assert_eq!(at(0), (1 << 63, 0));
        assert_eq!(at(1), (0xa000_0000_0000_0000, 0));
        assert_eq!(at(-1), (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd));
    }
}
