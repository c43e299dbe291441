//! The base field `F_p` and its quadratic extension `F_{p²}`.
//!
//! `p ≡ 3 (mod 4)`, so `−1` is a quadratic non-residue and
//! `F_{p²} = F_p[i]/(i² + 1)`. Elements are stored in Montgomery form;
//! every operation takes an explicit [`FpCtx`] (GMP-style context API),
//! which keeps elements `Copy` and lets one code path serve all widths.

use tre_bigint::{MontyParams, Uint};

/// Arithmetic context for `F_p` (and, via the `i² = −1` tower, `F_{p²}`).
#[derive(Clone, Debug)]
pub struct FpCtx<const L: usize> {
    monty: MontyParams<L>,
}

/// An element of `F_p` in Montgomery form.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct Fp<const L: usize>(Uint<L>);

/// An element of `F_{p²} = F_p[i]/(i²+1)`: `c0 + c1·i`.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct Fp2<const L: usize> {
    /// Real part.
    pub c0: Fp<L>,
    /// Imaginary part (coefficient of `i`).
    pub c1: Fp<L>,
}

impl<const L: usize> FpCtx<L> {
    /// Builds a context for prime `p ≡ 3 (mod 4)`.
    ///
    /// Primality is the caller's responsibility (parameters are generated by
    /// the `gen-params` tool); the congruence is enforced here.
    ///
    /// # Panics
    /// Panics if `p` is even, `p < 3`, or `p ≢ 3 (mod 4)`.
    pub fn new(p: Uint<L>) -> Self {
        let monty = MontyParams::new(p).expect("modulus must be odd and > 2");
        assert_eq!(
            monty.modulus().limbs()[0] & 3,
            3,
            "FpCtx requires p ≡ 3 (mod 4)"
        );
        Self { monty }
    }

    /// The prime modulus.
    #[inline]
    pub fn modulus(&self) -> &Uint<L> {
        self.monty.modulus()
    }

    /// The additive identity.
    #[inline]
    pub fn zero(&self) -> Fp<L> {
        Fp(Uint::ZERO)
    }

    /// The multiplicative identity.
    #[inline]
    pub fn one(&self) -> Fp<L> {
        Fp(self.monty.one())
    }

    /// Embeds an integer (reduced mod `p`).
    pub fn from_uint(&self, v: &Uint<L>) -> Fp<L> {
        Fp(self.monty.to_monty(v))
    }

    /// Embeds a small integer.
    pub fn from_u64(&self, v: u64) -> Fp<L> {
        self.from_uint(&Uint::from_u64(v))
    }

    /// Canonical (non-Montgomery) representative in `[0, p)`.
    pub fn to_uint(&self, a: &Fp<L>) -> Uint<L> {
        self.monty.from_monty(&a.0)
    }

    /// Reduces an arbitrary-length big-endian byte string into `F_p`.
    ///
    /// Montgomery Horner over `BYTES`-sized chunks, most significant
    /// first: with `R = 2^(8·BYTES)`, the step `acc ← acc·R + c` is
    /// `to_monty(acc) + to_monty(c)` on the Montgomery form `acc·R`, so
    /// each chunk costs two Montgomery products and no division.
    pub fn from_be_bytes_mod(&self, bytes: &[u8]) -> Fp<L> {
        let (head, rest) = bytes.split_at(bytes.len() % Uint::<L>::BYTES);
        let mut acc = Uint::ZERO;
        for chunk in [head]
            .into_iter()
            .filter(|c| !c.is_empty())
            .chain(rest.chunks_exact(Uint::<L>::BYTES))
        {
            let c = Uint::from_be_bytes(chunk).expect("a chunk fits one element");
            acc = self
                .monty
                .add(&self.monty.to_monty(&acc), &self.monty.to_monty(&c));
        }
        Fp(acc)
    }

    /// Inverts every element in place with Montgomery's batch trick
    /// (one field inversion + `3(n−1)` multiplications total).
    ///
    /// Returns `false` (leaving the slice unspecified) if any element is
    /// zero.
    pub fn batch_invert(&self, xs: &mut [Fp<L>]) -> bool {
        if xs.iter().any(Fp::is_zero) {
            return false;
        }
        // Prefix products: acc[i] = x_0 · … · x_i.
        let mut acc = Vec::with_capacity(xs.len());
        let mut running = self.one();
        for x in xs.iter() {
            running = running.mul(x, self);
            acc.push(running);
        }
        let mut inv = match running.invert(self) {
            Some(v) => v,
            None => return false,
        };
        for i in (0..xs.len()).rev() {
            let prev = if i == 0 { self.one() } else { acc[i - 1] };
            let xi_inv = inv.mul(&prev, self);
            inv = inv.mul(&xs[i], self);
            xs[i] = xi_inv;
        }
        true
    }
}

impl<const L: usize> Fp<L> {
    /// Whether this is the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        Fp(ctx.monty.add(&self.0, &rhs.0))
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        Fp(ctx.monty.sub(&self.0, &rhs.0))
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self, ctx: &FpCtx<L>) -> Self {
        Fp(ctx.monty.neg(&self.0))
    }

    /// Doubling.
    #[inline]
    pub fn double(&self, ctx: &FpCtx<L>) -> Self {
        Fp(ctx.monty.double(&self.0))
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        tre_obs::record_fp_muls(1);
        Fp(ctx.monty.mul(&self.0, &rhs.0))
    }

    /// Squaring.
    #[inline]
    pub fn square(&self, ctx: &FpCtx<L>) -> Self {
        tre_obs::record_fp_muls(1);
        Fp(ctx.monty.square(&self.0))
    }

    /// Multiplicative inverse; `None` for zero.
    pub fn invert(&self, ctx: &FpCtx<L>) -> Option<Self> {
        tre_obs::record_fp_inv();
        ctx.monty.inv(&self.0).map(Fp)
    }

    /// Exponentiation by an arbitrary-width integer.
    pub fn pow<const E: usize>(&self, exp: &Uint<E>, ctx: &FpCtx<L>) -> Self {
        Fp(ctx.monty.pow(&self.0, exp))
    }

    /// Square root for `p ≡ 3 (mod 4)`: `a^((p+1)/4)` with verification.
    /// Returns `None` for quadratic non-residues.
    pub fn sqrt(&self, ctx: &FpCtx<L>) -> Option<Self> {
        tre_obs::record_fp_sqrt();
        if self.is_zero() {
            return Some(*self);
        }
        let e = ctx.modulus().wrapping_add(&Uint::ONE).shr_vartime(2);
        let r = self.pow(&e, ctx);
        if r.square(ctx) == *self {
            Some(r)
        } else {
            None
        }
    }

    /// Whether this is a square in `F_p` (zero included): the Jacobi
    /// symbol of the canonical representative, a screen that costs a
    /// fraction of [`Fp::sqrt`]'s exponentiation.
    pub fn is_square(&self, ctx: &FpCtx<L>) -> bool {
        tre_bigint::prime::jacobi(&ctx.to_uint(self), ctx.modulus()) >= 0
    }

    /// Whether the canonical representative is odd (used as the compressed
    /// `y` sign bit).
    pub fn is_odd(&self, ctx: &FpCtx<L>) -> bool {
        ctx.to_uint(self).is_odd()
    }
}

impl<const L: usize> Fp2<L> {
    /// Builds an `F_{p²}` element from its parts.
    #[inline]
    pub fn new(c0: Fp<L>, c1: Fp<L>) -> Self {
        Self { c0, c1 }
    }

    /// The additive identity.
    #[inline]
    pub fn zero(ctx: &FpCtx<L>) -> Self {
        Self::new(ctx.zero(), ctx.zero())
    }

    /// The multiplicative identity.
    #[inline]
    pub fn one(ctx: &FpCtx<L>) -> Self {
        Self::new(ctx.one(), ctx.zero())
    }

    /// Whether this is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Whether this is the multiplicative identity.
    pub fn is_one(&self, ctx: &FpCtx<L>) -> bool {
        *self == Self::one(ctx)
    }

    /// Addition.
    pub fn add(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        Self::new(self.c0.add(&rhs.c0, ctx), self.c1.add(&rhs.c1, ctx))
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        Self::new(self.c0.sub(&rhs.c0, ctx), self.c1.sub(&rhs.c1, ctx))
    }

    /// Negation.
    pub fn neg(&self, ctx: &FpCtx<L>) -> Self {
        Self::new(self.c0.neg(ctx), self.c1.neg(ctx))
    }

    /// Multiplication: Karatsuba over the fused-CIOS base-field product,
    /// `v0 = a0·b0`, `v1 = a1·b1`, `v2 = (a0+a1)(b0+b1)`, giving
    /// `c0 = v0 − v1` and `c1 = v2 − v0 − v1` (3 products instead of 4).
    pub fn mul(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        let v0 = self.c0.mul(&rhs.c0, ctx);
        let v1 = self.c1.mul(&rhs.c1, ctx);
        let v2 = self
            .c0
            .add(&self.c1, ctx)
            .mul(&rhs.c0.add(&rhs.c1, ctx), ctx);
        Self::new(v0.sub(&v1, ctx), v2.sub(&v0, ctx).sub(&v1, ctx))
    }

    /// Reference schoolbook multiplication (4 products, eager reductions).
    ///
    /// The independent oracle for the Karatsuba [`Self::mul`] in
    /// property tests; not used on any hot path.
    pub fn mul_schoolbook(&self, rhs: &Self, ctx: &FpCtx<L>) -> Self {
        // (a0 + a1·i)(b0 + b1·i) = (a0b0 − a1b1) + (a0b1 + a1b0)·i
        let t0 = self.c0.mul(&rhs.c0, ctx);
        let t1 = self.c1.mul(&rhs.c1, ctx);
        let t2 = self.c0.mul(&rhs.c1, ctx);
        let t3 = self.c1.mul(&rhs.c0, ctx);
        Self::new(t0.sub(&t1, ctx), t2.add(&t3, ctx))
    }

    /// Squaring (complex method, 2 base-field products, one reduction per
    /// output coefficient — each coefficient is a single fused-CIOS product).
    pub fn square(&self, ctx: &FpCtx<L>) -> Self {
        // (a+bi)² = (a+b)(a−b) + 2ab·i
        let t0 = self.c0.add(&self.c1, ctx);
        let t1 = self.c0.sub(&self.c1, ctx);
        let t2 = self.c0.mul(&self.c1, ctx);
        Self::new(t0.mul(&t1, ctx), t2.double(ctx))
    }

    /// Squaring of a **unitary** element (norm `a² + b² = 1`, as every
    /// `G_T` value and every `f^(p−1)` is): substituting `b² = 1 − a²`
    /// gives `(a+bi)² = (2a² − 1) + ((a+b)² − 1)·i`, two base-field
    /// squarings instead of two general products.
    pub(crate) fn unitary_square(&self, ctx: &FpCtx<L>) -> Self {
        debug_assert!(self.is_unitary(ctx), "unitary_square on norm ≠ 1");
        let one = ctx.one();
        let a2 = self.c0.square(ctx);
        let s2 = self.c0.add(&self.c1, ctx).square(ctx);
        Self::new(a2.double(ctx).sub(&one, ctx), s2.sub(&one, ctx))
    }

    /// Whether the norm is 1, computed on the raw Montgomery values so the
    /// check leaves the `F_p` multiplication counters untouched.
    fn is_unitary(&self, ctx: &FpCtx<L>) -> bool {
        let m = &ctx.monty;
        m.add(&m.square(&self.c0.0), &m.square(&self.c1.0)) == m.one()
    }

    /// Multiplication by a base-field scalar.
    pub fn mul_fp(&self, s: &Fp<L>, ctx: &FpCtx<L>) -> Self {
        Self::new(self.c0.mul(s, ctx), self.c1.mul(s, ctx))
    }

    /// Conjugation `a − b·i` — also the `p`-power Frobenius in `F_{p²}`.
    pub fn conjugate(&self, ctx: &FpCtx<L>) -> Self {
        Self::new(self.c0, self.c1.neg(ctx))
    }

    /// Norm `a² + b²` (an `F_p` element).
    pub fn norm(&self, ctx: &FpCtx<L>) -> Fp<L> {
        self.c0.square(ctx).add(&self.c1.square(ctx), ctx)
    }

    /// Multiplicative inverse; `None` for zero.
    pub fn invert(&self, ctx: &FpCtx<L>) -> Option<Self> {
        let norm_inv = self.norm(ctx).invert(ctx)?;
        Some(Self::new(
            self.c0.mul(&norm_inv, ctx),
            self.c1.neg(ctx).mul(&norm_inv, ctx),
        ))
    }

    /// Exponentiation by an arbitrary-width integer (square-and-multiply).
    pub fn pow<const E: usize>(&self, exp: &Uint<E>, ctx: &FpCtx<L>) -> Self {
        let mut acc = Self::one(ctx);
        for i in (0..exp.bits()).rev() {
            acc = acc.square(ctx);
            if exp.bit(i) {
                acc = acc.mul(self, ctx);
            }
        }
        acc
    }

    /// Canonical serialization: `c0 ‖ c1`, each as fixed-width big-endian.
    pub fn to_bytes(&self, ctx: &FpCtx<L>) -> Vec<u8> {
        let mut out = ctx.to_uint(&self.c0).to_be_bytes();
        out.extend_from_slice(&ctx.to_uint(&self.c1).to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ctx = FpCtx<4>;

    fn ctx() -> Ctx {
        // 2^255 - 19 is ≡ 1 mod 4; use secp-like p ≡ 3 mod 4 instead:
        // p = 2^252 + 27742...? simplest: a known prime ≡ 3 mod 4.
        // 115792089237316195423570985008687907853269984665640564039457584007913129639747
        // = 2^256 - 189 is prime? Use a vetted one: p = 2^251 - 9 ≡ 3 mod 4? Safer:
        // use the 127-bit Mersenne prime 2^127 - 1 ≡ 3 (mod 4).
        let p = Uint::<4>::ONE.shl_vartime(127).wrapping_sub(&Uint::ONE);
        Ctx::new(p)
    }

    #[test]
    fn fp_basic_identities() {
        let c = ctx();
        let a = c.from_u64(123456789);
        let b = c.from_u64(987654321);
        assert_eq!(a.add(&b, &c), b.add(&a, &c));
        assert_eq!(a.sub(&a, &c), c.zero());
        assert_eq!(a.mul(&b, &c), b.mul(&a, &c));
        assert_eq!(a.mul(&c.one(), &c), a);
        assert_eq!(a.add(&a.neg(&c), &c), c.zero());
        assert_eq!(a.double(&c), a.add(&a, &c));
        assert_eq!(a.square(&c), a.mul(&a, &c));
    }

    #[test]
    fn fp_inverse() {
        let c = ctx();
        let a = c.from_u64(0xdeadbeef);
        let inv = a.invert(&c).unwrap();
        assert_eq!(a.mul(&inv, &c), c.one());
        assert!(c.zero().invert(&c).is_none());
    }

    #[test]
    fn fp_sqrt() {
        let c = ctx();
        let a = c.from_u64(98765);
        let sq = a.square(&c);
        let r = sq.sqrt(&c).unwrap();
        assert!(r == a || r == a.neg(&c));
        // −1 is a non-residue for p ≡ 3 (mod 4).
        assert!(c.one().neg(&c).sqrt(&c).is_none());
        assert_eq!(c.zero().sqrt(&c), Some(c.zero()));
    }

    #[test]
    fn fp2_ring_identities() {
        let c = ctx();
        let a = Fp2::new(c.from_u64(3), c.from_u64(7));
        let b = Fp2::new(c.from_u64(11), c.from_u64(13));
        let d = Fp2::new(c.from_u64(17), c.from_u64(23));
        assert_eq!(a.mul(&b, &c), b.mul(&a, &c));
        assert_eq!(
            a.mul(&b.add(&d, &c), &c),
            a.mul(&b, &c).add(&a.mul(&d, &c), &c)
        );
        assert_eq!(a.square(&c), a.mul(&a, &c));
        assert_eq!(a.mul(&Fp2::one(&c), &c), a);
        assert_eq!(a.sub(&a, &c), Fp2::zero(&c));
    }

    #[test]
    fn fp2_karatsuba_matches_schoolbook() {
        let c = ctx();
        // Deterministic pseudo-random coverage plus edge values near p.
        let top = c.from_uint(&c.modulus().wrapping_sub(&Uint::ONE));
        let cases = [
            (
                Fp2::new(c.from_u64(3), c.from_u64(7)),
                Fp2::new(c.from_u64(11), c.from_u64(13)),
            ),
            (Fp2::new(top, top), Fp2::new(top, top)),
            (Fp2::new(c.zero(), top), Fp2::new(top, c.zero())),
            (Fp2::zero(&c), Fp2::new(top, top)),
            (Fp2::one(&c), Fp2::new(c.from_u64(5), c.from_u64(9))),
        ];
        for (a, b) in cases {
            assert_eq!(a.mul(&b, &c), a.mul_schoolbook(&b, &c));
            assert_eq!(a.square(&c), a.mul_schoolbook(&a, &c));
        }
    }

    #[test]
    fn fp2_i_squared_is_minus_one() {
        let c = ctx();
        let i = Fp2::new(c.zero(), c.one());
        let minus_one = Fp2::new(c.one().neg(&c), c.zero());
        assert_eq!(i.square(&c), minus_one);
    }

    #[test]
    fn fp2_inverse() {
        let c = ctx();
        let a = Fp2::new(c.from_u64(5), c.from_u64(9));
        let inv = a.invert(&c).unwrap();
        assert!(a.mul(&inv, &c).is_one(&c));
        assert!(Fp2::zero(&c).invert(&c).is_none());
    }

    #[test]
    fn fp2_conjugate_is_frobenius() {
        let c = ctx();
        let a = Fp2::new(c.from_u64(42), c.from_u64(77));
        let p = *c.modulus();
        assert_eq!(a.pow(&p, &c), a.conjugate(&c));
    }

    #[test]
    fn fp2_norm_multiplicative() {
        let c = ctx();
        let a = Fp2::new(c.from_u64(3), c.from_u64(4));
        let b = Fp2::new(c.from_u64(5), c.from_u64(12));
        let nab = a.mul(&b, &c).norm(&c);
        assert_eq!(nab, a.norm(&c).mul(&b.norm(&c), &c));
    }

    #[test]
    fn fp2_pow_addition_law() {
        let c = ctx();
        let a = Fp2::new(c.from_u64(6), c.from_u64(11));
        let e1 = Uint::<4>::from_u64(123);
        let e2 = Uint::<4>::from_u64(456);
        let lhs = a.pow(&Uint::<4>::from_u64(579), &c);
        let rhs = a.pow(&e1, &c).mul(&a.pow(&e2, &c), &c);
        assert_eq!(lhs, rhs);
        assert!(a.pow(&Uint::<4>::ZERO, &c).is_one(&c));
    }

    #[test]
    fn fp2_serialization_unique() {
        let c = ctx();
        let a = Fp2::new(c.from_u64(1), c.from_u64(2));
        let b = Fp2::new(c.from_u64(2), c.from_u64(1));
        assert_ne!(a.to_bytes(&c), b.to_bytes(&c));
        assert_eq!(a.to_bytes(&c).len(), 2 * 32);
    }

    #[test]
    #[should_panic(expected = "p ≡ 3 (mod 4)")]
    fn rejects_p_1_mod_4() {
        // 13 ≡ 1 (mod 4)
        let _ = Ctx::new(Uint::from_u64(13));
    }

    /// The Montgomery Horner reduction against the `Uint` path it
    /// replaced (byte-serial `rem_bytes`, then `from_uint`), for every
    /// length up to three elements' worth of bytes.
    fn check_bytes_mod<const L: usize>(c: &FpCtx<L>, seed: u8) {
        let n = Uint::<L>::BYTES;
        for len in 0..=3 * n {
            let random: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(167).wrapping_add(seed) ^ (len as u8))
                .collect();
            for bytes in [random, vec![0xff; len], vec![0; len]] {
                let expect = c.from_uint(&Uint::from_be_bytes_mod(&bytes, c.modulus()));
                assert_eq!(c.from_be_bytes_mod(&bytes), expect, "len {len}");
            }
        }
    }

    #[test]
    fn bytes_mod_matches_uint_path_on_every_curve() {
        check_bytes_mod(crate::toy64().fp(), 1);
        check_bytes_mod(crate::mid96().fp(), 2);
        check_bytes_mod(crate::high128().fp(), 3);
        check_bytes_mod(&ctx(), 4);
    }

    #[test]
    fn square_screen_agrees_with_sqrt() {
        let mut rng = rand::thread_rng();
        let c = crate::toy64().fp();
        let p_minus_1 = c.one().neg(c);
        let mut xs = vec![c.zero(), c.one(), p_minus_1, c.from_u64(2), c.from_u64(3)];
        xs.extend((0..200).map(|_| c.from_uint(&Uint::random(&mut rng))));
        for x in xs {
            assert_eq!(x.is_square(c), x.sqrt(c).is_some(), "{:?}", c.to_uint(&x));
            assert!(x.square(c).is_square(c));
        }
        // −1 is a non-residue for p ≡ 3 (mod 4).
        assert!(!p_minus_1.is_square(c));
    }
}
