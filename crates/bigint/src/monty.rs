//! Montgomery-domain modular arithmetic for odd moduli.
//!
//! [`MontyParams`] precomputes everything needed for fast reduction modulo an
//! odd modulus `m`: the negated inverse of `m` mod `2^64` and the Montgomery
//! constants `R mod m` and `R² mod m` where `R = 2^(64·L)`.
//!
//! Values in Montgomery form are plain [`Uint`]s; the caller is responsible
//! for tracking which domain a value lives in (the field layer in
//! `tre-pairing` wraps this in a type-safe API).

use crate::slicearith;
use crate::uint::{adc, mac, Uint, MAX_LIMBS};

/// Precomputed context for Montgomery arithmetic modulo an odd `m`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MontyParams<const L: usize> {
    modulus: Uint<L>,
    /// `-m^{-1} mod 2^64`.
    inv_neg: u64,
    /// `R mod m` — the Montgomery form of 1.
    r: Uint<L>,
    /// `R² mod m` — used to convert into Montgomery form.
    r2: Uint<L>,
}

impl<const L: usize> MontyParams<L> {
    /// Builds a context for the given modulus.
    ///
    /// Returns `None` if the modulus is even or `< 3` (Montgomery reduction
    /// requires an odd modulus).
    pub fn new(modulus: Uint<L>) -> Option<Self> {
        if modulus.is_even() || modulus <= Uint::ONE {
            return None;
        }
        assert!(L <= MAX_LIMBS, "limb count exceeds MAX_LIMBS");
        // Newton iteration for m^{-1} mod 2^64; five steps double precision
        // each time starting from the 5-bit-correct seed m (valid for odd m).
        let m0 = modulus.limbs()[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let inv_neg = inv.wrapping_neg();

        // R mod m where R = 2^(64·L): reduce the (L+1)-limb value 2^(64L).
        let mut r_limbs = vec![0u64; L + 1];
        r_limbs[L] = 1;
        let (_, r_red) = slicearith::div_rem(&r_limbs, modulus.limbs());
        let mut r_arr = [0u64; L];
        r_arr.copy_from_slice(&r_red[..L]);
        let r = Uint::from_limbs(r_arr);

        let mut params = Self {
            modulus,
            inv_neg,
            r,
            r2: Uint::ZERO,
        };
        // R² mod m = monty_mul would need r2 itself, so reduce the wide
        // product r·r directly.
        let (lo, hi) = r.widening_mul(&r);
        let mut wide = vec![0u64; 2 * L];
        wide[..L].copy_from_slice(lo.limbs());
        wide[L..].copy_from_slice(hi.limbs());
        let (_, r2_red) = slicearith::div_rem(&wide, modulus.limbs());
        let mut r2_arr = [0u64; L];
        r2_arr.copy_from_slice(&r2_red[..L]);
        params.r2 = Uint::from_limbs(r2_arr);
        Some(params)
    }

    /// The modulus `m`.
    #[inline]
    pub fn modulus(&self) -> &Uint<L> {
        &self.modulus
    }

    /// The Montgomery form of 1 (`R mod m`).
    #[inline]
    pub fn one(&self) -> Uint<L> {
        self.r
    }

    /// Converts `x` (reduced automatically) into Montgomery form.
    pub fn to_monty(&self, x: &Uint<L>) -> Uint<L> {
        let x = if *x >= self.modulus {
            x.rem(&self.modulus)
        } else {
            *x
        };
        self.mul(&x, &self.r2)
    }

    /// Converts out of Montgomery form back to the plain representative.
    pub fn from_monty(&self, x: &Uint<L>) -> Uint<L> {
        self.mul(x, &Uint::ONE)
    }

    /// Montgomery product `a·b·R^{-1} mod m`; inputs and output in Montgomery
    /// form and `< m`.
    ///
    /// Fused CIOS: each outer round interleaves one limb of the schoolbook
    /// product with one REDC round, so the accumulator never grows past
    /// `L + 2` limbs and the product is never materialized at double width.
    /// With both inputs `< m` the pre-subtraction result is `< 2m`
    /// (Koç–Acar–Kaliski bound), so a single conditional subtract suffices.
    pub fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        // The accumulator's low L limbs, plus its top limb (at most 1).
        let mut t = [0u64; L];
        let mut top = 0u64;
        let bl = b.limbs();
        let m = self.modulus.limbs();
        for &ai in a.limbs() {
            // t += a[i] · b
            let mut carry = 0u64;
            for j in 0..L {
                let (v, c) = mac(t[j], ai, bl[j], carry);
                t[j] = v;
                carry = c;
            }
            let (hi, hi_carry) = adc(top, carry, 0);
            // t := (t + u·m) / 2^64 with u chosen to zero the low limb.
            let u = t[0].wrapping_mul(self.inv_neg);
            let (_, mut carry) = mac(t[0], u, m[0], 0);
            for j in 1..L {
                let (v, c) = mac(t[j], u, m[j], carry);
                t[j - 1] = v;
                carry = c;
            }
            let (v, c) = adc(hi, carry, 0);
            t[L - 1] = v;
            // Both top contributions are ≤ 1 and the shifted value is < 2m,
            // so the new top limb is at most 1.
            top = hi_carry + c;
            debug_assert!(top <= 1);
        }
        let mut out = Uint::from_limbs(t);
        if top != 0 || out >= self.modulus {
            out = out.wrapping_sub(&self.modulus);
        }
        out
    }

    /// Reference two-pass Montgomery product: full schoolbook widening
    /// multiply followed by a separate REDC sweep.
    ///
    /// Kept as the independent oracle for the fused CIOS [`Self::mul`]
    /// (property-tested against it across limb widths and random moduli);
    /// not used on any hot path.
    pub fn mul_two_pass(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        let mut t = [[0u64; L]; 2];
        let t = t.as_flattened_mut();
        // Schoolbook product into t[..2L].
        let al = a.limbs();
        let bl = b.limbs();
        for i in 0..L {
            let mut carry = 0u64;
            for j in 0..L {
                let (v, c) = mac(t[i + j], al[i], bl[j], carry);
                t[i + j] = v;
                carry = c;
            }
            t[i + L] = carry;
        }
        self.redc(t)
    }

    /// Montgomery squaring `a²·R^{-1} mod m`; input and output in
    /// Montgomery form and `< m`.
    ///
    /// Each off-diagonal product `aᵢ·aⱼ` (`i < j`) is computed once, the
    /// sum is doubled by a one-bit shift and the diagonal squares `aᵢ²`
    /// are added in the same pass, then one REDC sweep reduces the
    /// `2L`-limb square: `L(L+1)/2` limb products for the square instead
    /// of the `L²` of [`Self::mul`].
    pub fn square(&self, a: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.modulus);
        let al = a.limbs();
        let mut t = [[0u64; L]; 2];
        let t = t.as_flattened_mut();
        for i in 0..L {
            let mut carry = 0u64;
            for j in i + 1..L {
                let (v, c) = mac(t[i + j], al[i], al[j], carry);
                t[i + j] = v;
                carry = c;
            }
            t[i + L] = carry;
        }
        // The off-diagonal sum is < a²/2, so doubling it loses no bit and
        // adding the diagonal leaves a² < 2^(128·L) with no final carry.
        let mut shifted_out = 0u64;
        let mut carry = 0u64;
        for (i, &ai) in al.iter().enumerate() {
            let (lo, hi) = mac(0, ai, ai, 0);
            let d0 = (t[2 * i] << 1) | shifted_out;
            let d1 = (t[2 * i + 1] << 1) | (t[2 * i] >> 63);
            shifted_out = t[2 * i + 1] >> 63;
            let (v, c) = adc(d0, lo, carry);
            t[2 * i] = v;
            let (v, c) = adc(d1, hi, c);
            t[2 * i + 1] = v;
            carry = c;
        }
        debug_assert!(shifted_out == 0 && carry == 0);
        self.redc(t)
    }

    /// Modular addition of reduced values (domain-agnostic).
    pub fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        let (s, carry) = a.overflowing_add(b);
        if carry || s >= self.modulus {
            s.wrapping_sub(&self.modulus)
        } else {
            s
        }
    }

    /// Modular subtraction of reduced values (domain-agnostic).
    pub fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        let (d, borrow) = a.overflowing_sub(b);
        if borrow {
            d.wrapping_add(&self.modulus)
        } else {
            d
        }
    }

    /// Modular negation of a reduced value (domain-agnostic).
    pub fn neg(&self, a: &Uint<L>) -> Uint<L> {
        if a.is_zero() {
            Uint::ZERO
        } else {
            self.modulus.wrapping_sub(a)
        }
    }

    /// Doubles a reduced value.
    #[inline]
    pub fn double(&self, a: &Uint<L>) -> Uint<L> {
        self.add(a, a)
    }

    /// Modular exponentiation: `base^exp` with `base` in Montgomery form,
    /// result in Montgomery form. Square-and-multiply, variable time.
    pub fn pow<const E: usize>(&self, base: &Uint<L>, exp: &Uint<E>) -> Uint<L> {
        let mut acc = self.r; // 1 in Montgomery form
        let bits = exp.bits();
        for i in (0..bits).rev() {
            acc = self.square(&acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Plain (non-Montgomery) modular exponentiation convenience:
    /// `base^exp mod m` on plain representatives.
    pub fn pow_plain<const E: usize>(&self, base: &Uint<L>, exp: &Uint<E>) -> Uint<L> {
        let b = self.to_monty(base);
        let r = self.pow(&b, exp);
        self.from_monty(&r)
    }

    /// Montgomery-domain inverse via binary extended GCD on the plain value.
    ///
    /// Returns `None` if the value is not invertible.
    pub fn inv(&self, a: &Uint<L>) -> Option<Uint<L>> {
        let plain = self.from_monty(a);
        let inv = crate::modinv::mod_inverse(&plain, &self.modulus)?;
        Some(self.to_monty(&inv))
    }

    /// Montgomery REDC of the `2L`-limb value in `t` (which must be
    /// `< m·R`): returns `t·R^{-1} mod m`, fully reduced.
    ///
    /// Each round's carry out of limb `i + L` is deferred into the next
    /// round's top add instead of rippling upward, so the sweep touches
    /// exactly `L + 1` limbs per round. With `t < m·R` the shifted result
    /// is `< 2m`: one conditional subtract finishes it.
    fn redc(&self, t: &mut [u64]) -> Uint<L> {
        debug_assert_eq!(t.len(), 2 * L);
        let m = self.modulus.limbs();
        // Carry out of limb `i + L`, owed to limb `i + L + 1`.
        let mut top = 0u64;
        for i in 0..L {
            let u = t[i].wrapping_mul(self.inv_neg);
            let mut carry = 0u64;
            for j in 0..L {
                let (v, c) = mac(t[i + j], u, m[j], carry);
                t[i + j] = v;
                carry = c;
            }
            let (v, c) = adc(t[i + L], carry, top);
            t[i + L] = v;
            top = c;
        }
        let mut res = [0u64; L];
        res.copy_from_slice(&t[L..]);
        let mut out = Uint::from_limbs(res);
        if top != 0 || out >= self.modulus {
            out = out.wrapping_sub(&self.modulus);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U256 = Uint<4>;

    fn params() -> MontyParams<4> {
        // secp256k1 field prime.
        let p =
            U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        MontyParams::new(p).unwrap()
    }

    #[test]
    fn rejects_even_modulus() {
        assert!(MontyParams::<4>::new(U256::from_u64(100)).is_none());
        assert!(MontyParams::<4>::new(U256::ONE).is_none());
        assert!(MontyParams::<4>::new(U256::ZERO).is_none());
    }

    #[test]
    fn monty_roundtrip() {
        let ctx = params();
        let x = U256::from_u128(0xdead_beef_cafe_babe_0123_4567_89ab_cdef);
        let xm = ctx.to_monty(&x);
        assert_eq!(ctx.from_monty(&xm), x);
    }

    #[test]
    fn mul_matches_plain() {
        let ctx = params();
        let a = U256::from_u64(123456789);
        let b = U256::from_u64(987654321);
        let am = ctx.to_monty(&a);
        let bm = ctx.to_monty(&b);
        let prod = ctx.from_monty(&ctx.mul(&am, &bm));
        assert_eq!(prod, U256::from_u128(123456789u128 * 987654321u128));
    }

    #[test]
    fn pow_fermat() {
        // a^(p-1) ≡ 1 (mod p) for prime p.
        let ctx = params();
        let a = ctx.to_monty(&U256::from_u64(7));
        let pm1 = ctx.modulus().wrapping_sub(&U256::ONE);
        let r = ctx.pow(&a, &pm1);
        assert_eq!(r, ctx.one());
    }

    #[test]
    fn pow_small_cases() {
        let ctx = MontyParams::<4>::new(U256::from_u64(97)).unwrap();
        let b = ctx.to_monty(&U256::from_u64(5));
        // 5^13 mod 97 = 1220703125 mod 97
        let e = U256::from_u64(13);
        let got = ctx.from_monty(&ctx.pow(&b, &e));
        assert_eq!(got, U256::from_u64(1220703125u64 % 97));
        // exponent zero
        let got = ctx.from_monty(&ctx.pow(&b, &U256::ZERO));
        assert_eq!(got, U256::ONE);
    }

    #[test]
    fn add_sub_neg() {
        let ctx = MontyParams::<4>::new(U256::from_u64(101)).unwrap();
        let a = U256::from_u64(77);
        let b = U256::from_u64(55);
        assert_eq!(ctx.add(&a, &b), U256::from_u64(31)); // 132 mod 101
        assert_eq!(ctx.sub(&b, &a), U256::from_u64(79)); // -22 mod 101
        assert_eq!(ctx.neg(&a), U256::from_u64(24));
        assert_eq!(ctx.neg(&U256::ZERO), U256::ZERO);
        assert_eq!(ctx.double(&a), U256::from_u64(53)); // 154 mod 101
    }

    #[test]
    fn inverse() {
        let ctx = params();
        let a = ctx.to_monty(&U256::from_u64(1234567));
        let ainv = ctx.inv(&a).unwrap();
        assert_eq!(ctx.mul(&a, &ainv), ctx.one());
        assert!(ctx.inv(&U256::ZERO).is_none());
    }

    #[test]
    fn fused_cios_matches_two_pass() {
        let ctx = params();
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            // xorshift64 — deterministic, no RNG dependency in this crate.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let a = U256::from_limbs([next(), next(), next(), next()]).rem(ctx.modulus());
            let b = U256::from_limbs([next(), next(), next(), next()]).rem(ctx.modulus());
            assert_eq!(ctx.mul(&a, &b), ctx.mul_two_pass(&a, &b));
        }
        // Boundary values.
        let top = ctx.modulus().wrapping_sub(&U256::ONE);
        assert_eq!(ctx.mul(&top, &top), ctx.mul_two_pass(&top, &top));
        assert_eq!(ctx.mul(&top, &U256::ZERO), U256::ZERO);
        assert_eq!(ctx.mul(&U256::ZERO, &U256::ZERO), U256::ZERO);
    }

    #[test]
    fn square_matches_mul() {
        let ctx = params();
        let top = ctx.modulus().wrapping_sub(&U256::ONE);
        let mut seed = 0x0fed_cba9_8765_4321u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut cases = vec![U256::ZERO, U256::ONE, ctx.one(), top];
        for _ in 0..200 {
            cases.push(U256::from_limbs([next(), next(), next(), next()]).rem(ctx.modulus()));
        }
        for a in cases {
            assert_eq!(ctx.square(&a), ctx.mul(&a, &a), "a = {a:?}");
        }
    }

    #[test]
    fn pow_plain_convenience() {
        let ctx = MontyParams::<4>::new(U256::from_u64(1000003)).unwrap();
        let got = ctx.pow_plain(&U256::from_u64(2), &U256::from_u64(20));
        assert_eq!(got, U256::from_u64(1048576 % 1000003));
    }
}
