//! The supersingular curve `E : y² = x³ + x` over `F_p`, `p ≡ 3 (mod 4)`.
//!
//! `E(F_p)` has exactly `p + 1` points; parameters are chosen with
//! `p + 1 = h·q` for a large prime `q`, and all protocol points live in the
//! order-`q` subgroup (a Gap Diffie-Hellman group, per the paper's §4).
//! Scalar multiplication runs in Jacobian coordinates; the embedding-degree-2
//! distortion map `φ(x, y) = (−x, i·y)` lives in [`crate::pairing`].

use rand::RngCore;
use tre_bigint::{MontyParams, Uint, U256};

use crate::fp::{Fp, FpCtx};
use crate::pairing::GT_WNAF_WIDTH;

/// Window width of variable-base `G1` scalar multiplication.
const G1_WNAF_WIDTH: u32 = 4;

/// Odd multiples `P, 3P, …, (2^(w−1) − 1)·P` a width-[`G1_WNAF_WIDTH`]
/// digit can name.
const G1_ODD_MULTIPLES: usize = 1 << (G1_WNAF_WIDTH - 2);

/// A point on `E(F_p)` in affine coordinates (or the point at infinity).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct G1Affine<const L: usize> {
    pub(crate) x: Fp<L>,
    pub(crate) y: Fp<L>,
    pub(crate) inf: bool,
}

impl<const L: usize> G1Affine<L> {
    /// The point at infinity (group identity).
    pub fn infinity(ctx: &FpCtx<L>) -> Self {
        Self {
            x: ctx.zero(),
            y: ctx.zero(),
            inf: true,
        }
    }

    /// Whether this is the identity.
    #[inline]
    pub fn is_infinity(&self) -> bool {
        self.inf
    }

    /// Affine x-coordinate.
    ///
    /// # Panics
    /// Panics on the point at infinity.
    pub fn x(&self) -> &Fp<L> {
        assert!(!self.inf, "infinity has no affine coordinates");
        &self.x
    }

    /// Affine y-coordinate.
    ///
    /// # Panics
    /// Panics on the point at infinity.
    pub fn y(&self) -> &Fp<L> {
        assert!(!self.inf, "infinity has no affine coordinates");
        &self.y
    }
}

/// Internal Jacobian representation: `(X : Y : Z)` with `x = X/Z²`,
/// `y = Y/Z³`; infinity encoded as `Z = 0`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct G1Jac<const L: usize> {
    pub(crate) x: Fp<L>,
    pub(crate) y: Fp<L>,
    pub(crate) z: Fp<L>,
}

/// Error returned when decoding a point from bytes fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodePointError {
    /// Wrong input length or unknown tag byte.
    Malformed,
    /// Coordinates do not satisfy the curve equation (or x not a residue).
    NotOnCurve,
    /// The point is not in the order-`q` subgroup.
    WrongSubgroup,
}

impl core::fmt::Display for DecodePointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Malformed => "malformed point encoding",
            Self::NotOnCurve => "point not on curve",
            Self::WrongSubgroup => "point not in the prime-order subgroup",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodePointError {}

/// The full curve context: base field, subgroup order `q`, scalar-field
/// arithmetic, cofactor `h = (p+1)/q`, and the subgroup generator.
#[derive(Clone, Debug)]
pub struct Curve<const L: usize> {
    fp: FpCtx<L>,
    q: U256,
    scalar: MontyParams<4>,
    cofactor: Uint<L>,
    /// `h mod q`: the exponent that moves cofactor clearing from an
    /// `H1` candidate onto an order-`q` pairing partner.
    cofactor_mod_q: U256,
    /// Width-5 wNAF digits of the cofactor, recoded once for the final
    /// exponentiation's signed-window power.
    cofactor_naf: Vec<i8>,
    /// Width-[`G1_WNAF_WIDTH`] wNAF digits of `q`, recoded once for the
    /// subgroup check.
    order_naf: Vec<i8>,
    gen: G1Affine<L>,
    name: &'static str,
}

impl<const L: usize> Curve<L> {
    /// Assembles a curve context from raw parameters.
    ///
    /// Checks: `p ≡ 3 (mod 4)`, `q` odd, `q | p + 1`, the generator is on
    /// the curve and has order exactly `q`.
    ///
    /// # Panics
    /// Panics if any validation fails — parameters are compile-time
    /// constants, so failure is a programming error, not an input error.
    pub fn new(p: Uint<L>, q: U256, gen_x: Uint<L>, gen_y: Uint<L>, name: &'static str) -> Self {
        let fp = FpCtx::new(p);
        let scalar = MontyParams::new(q).expect("q must be odd");
        // cofactor = (p+1)/q; p+1 never overflows L limbs for our params
        // (p has a few leading zero bits by construction), but handle the
        // general case via checked arithmetic.
        let p1 = p.checked_add(&Uint::ONE).expect("p+1 overflow");
        let (cof, rem) = p1.div_rem(&q.resize::<L>());
        assert!(rem.is_zero(), "q must divide p+1");
        let cofactor_mod_q = cof
            .rem(&q.resize::<L>())
            .try_narrow::<4>()
            .expect("h mod q < q fits 256 bits");
        assert!(!cofactor_mod_q.is_zero(), "q must not divide the cofactor");
        let gen = G1Affine {
            x: fp.from_uint(&gen_x),
            y: fp.from_uint(&gen_y),
            inf: false,
        };
        let curve = Self {
            fp,
            q,
            scalar,
            cofactor: cof,
            cofactor_mod_q,
            cofactor_naf: wnaf_digits(&cof, GT_WNAF_WIDTH),
            order_naf: wnaf_digits(&q, G1_WNAF_WIDTH),
            gen,
            name,
        };
        assert!(curve.is_on_curve(&gen), "generator not on curve");
        assert!(
            curve.g1_mul_uint(&gen, &q.resize::<L>()).is_infinity(),
            "generator does not have order q"
        );
        assert!(!gen.is_infinity());
        curve
    }

    /// Human-readable parameter-set name (`toy64`, `mid96`, `high128`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The base-field context.
    #[inline]
    pub fn fp(&self) -> &FpCtx<L> {
        &self.fp
    }

    /// The subgroup order `q`.
    #[inline]
    pub fn order(&self) -> &U256 {
        &self.q
    }

    /// The cofactor `h = (p+1)/q`.
    #[inline]
    pub fn cofactor(&self) -> &Uint<L> {
        &self.cofactor
    }

    /// The cofactor reduced mod `q`, non-zero by construction. For `A` of
    /// order `q` and any `P` on the curve, bilinearity gives
    /// `ê(A, h·P) = ê((h mod q)·A, P)`, so a pairing against a fixed `A`
    /// can take an uncleared [`Curve::h1_candidate`] and carry the
    /// cofactor on `A`'s side.
    #[inline]
    pub fn cofactor_mod_q(&self) -> &U256 {
        &self.cofactor_mod_q
    }

    /// The cofactor's width-[`GT_WNAF_WIDTH`] wNAF digits, least
    /// significant first.
    #[inline]
    pub(crate) fn cofactor_naf(&self) -> &[i8] {
        &self.cofactor_naf
    }

    /// The subgroup generator `G`.
    #[inline]
    pub fn generator(&self) -> G1Affine<L> {
        self.gen
    }

    /// Byte length of a compressed point encoding.
    pub fn point_len(&self) -> usize {
        1 + Uint::<L>::BYTES
    }

    /// Whether `P` satisfies the curve equation `y² = x³ + x`.
    pub fn is_on_curve(&self, p: &G1Affine<L>) -> bool {
        if p.inf {
            return true;
        }
        let ctx = &self.fp;
        let y2 = p.y.square(ctx);
        let x3px = p.x.square(ctx).mul(&p.x, ctx).add(&p.x, ctx);
        y2 == x3px
    }

    /// Point negation.
    pub fn g1_neg(&self, p: &G1Affine<L>) -> G1Affine<L> {
        if p.inf {
            return *p;
        }
        G1Affine {
            x: p.x,
            y: p.y.neg(&self.fp),
            inf: false,
        }
    }

    /// Affine point addition (handles identity, doubling, inverses).
    pub fn g1_add(&self, a: &G1Affine<L>, b: &G1Affine<L>) -> G1Affine<L> {
        let ctx = &self.fp;
        if a.inf {
            return *b;
        }
        if b.inf {
            return *a;
        }
        if a.x == b.x {
            if a.y == b.y.neg(ctx) {
                return G1Affine::infinity(ctx);
            }
            return self.g1_double(a);
        }
        let lambda =
            b.y.sub(&a.y, ctx)
                .mul(&b.x.sub(&a.x, ctx).invert(ctx).expect("x1 != x2"), ctx);
        let x3 = lambda.square(ctx).sub(&a.x, ctx).sub(&b.x, ctx);
        let y3 = lambda.mul(&a.x.sub(&x3, ctx), ctx).sub(&a.y, ctx);
        G1Affine {
            x: x3,
            y: y3,
            inf: false,
        }
    }

    /// Affine point doubling.
    pub fn g1_double(&self, p: &G1Affine<L>) -> G1Affine<L> {
        let ctx = &self.fp;
        if p.inf || p.y.is_zero() {
            return G1Affine::infinity(ctx);
        }
        // λ = (3x² + 1) / 2y   (curve coefficient a = 1)
        let three_x2 = {
            let x2 = p.x.square(ctx);
            x2.double(ctx).add(&x2, ctx)
        };
        let num = three_x2.add(&ctx.one(), ctx);
        let lambda = num.mul(&p.y.double(ctx).invert(ctx).expect("y != 0"), ctx);
        let x3 = lambda.square(ctx).sub(&p.x.double(ctx), ctx);
        let y3 = lambda.mul(&p.x.sub(&x3, ctx), ctx).sub(&p.y, ctx);
        G1Affine {
            x: x3,
            y: y3,
            inf: false,
        }
    }

    /// Scalar multiplication by a 256-bit scalar (protocol scalars mod `q`).
    ///
    /// # Contract
    /// This is the **fast path** (signed-window wNAF) and the one protocol code
    /// must call. [`Curve::g1_mul_binary`] is the slow **reference path**
    /// (plain double-and-add) kept for ablation benchmarks and
    /// cross-checking; [`crate::G1Precomp::mul`] is the fixed-base path.
    /// All three compute the same group operation and are pinned together
    /// by the `scalar_mul_paths_agree` property test (random scalars plus
    /// the edge scalars 0, 1, q−1 and the unreduced q+5 and 2²⁵⁵+3).
    ///
    /// **None of them is constant-time**: iteration count and memory
    /// access pattern depend on the scalar (this workspace is explicitly
    /// variable-time research code — see the crate-level warning). Do not
    /// assume either path hides the scalar from a timing observer.
    pub fn g1_mul(&self, p: &G1Affine<L>, k: &U256) -> G1Affine<L> {
        self.g1_mul_generic(p, k)
    }

    /// Scalar multiplication by a full-width integer (cofactor clearing).
    pub fn g1_mul_uint(&self, p: &G1Affine<L>, k: &Uint<L>) -> G1Affine<L> {
        self.g1_mul_generic(p, k)
    }

    /// Width-[`G1_WNAF_WIDTH`] wNAF scalar multiplication: the odd
    /// multiples the digits can name (batch-normalized to affine with one
    /// inversion), then one mixed addition per non-zero digit.
    fn g1_mul_generic<const E: usize>(&self, p: &G1Affine<L>, k: &Uint<E>) -> G1Affine<L> {
        tre_obs::record_scalar_mul();
        if p.inf || k.is_zero() {
            return G1Affine::infinity(&self.fp);
        }
        self.jac_to_affine(&self.wnaf_mul(p, &wnaf_digits(k, G1_WNAF_WIDTH)))
    }

    /// `k·P` in Jacobian coordinates from the width-[`G1_WNAF_WIDTH`]
    /// wNAF digits of `k`, for a non-identity `P`.
    fn wnaf_mul(&self, p: &G1Affine<L>, digits: &[i8]) -> G1Jac<L> {
        let table = self.batch_normalize(&self.odd_multiples(p));
        let mut acc = G1Jac::infinity(&self.fp);
        for &d in digits.iter().rev() {
            acc = self.add_digit(&self.jac_double(&acc), &table, d);
        }
        acc
    }

    /// Multi-scalar multiplication `Σ kᵢ·Pᵢ` (Straus interleaving over
    /// width-4 wNAF digits): every term's odd multiples are
    /// batch-normalized to affine with one shared inversion, one doubling
    /// chain runs over the longest digit string adding each term's
    /// digits as mixed additions, and the sum is normalized once.
    /// Identity points and zero scalars contribute nothing. Records one
    /// scalar multiplication per term, as the `Σ g1_mul` it equals.
    ///
    /// **Variable-time**, like [`Curve::g1_mul`].
    ///
    /// # Panics
    /// Panics if `points` and `scalars` differ in length.
    pub fn g1_msm(&self, points: &[G1Affine<L>], scalars: &[U256]) -> G1Affine<L> {
        assert_eq!(points.len(), scalars.len(), "one scalar per point");
        let mut jacs = Vec::with_capacity(points.len() * G1_ODD_MULTIPLES);
        let mut digits = Vec::with_capacity(points.len());
        for (p, k) in points.iter().zip(scalars) {
            tre_obs::record_scalar_mul();
            if !p.inf && !k.is_zero() {
                jacs.extend(self.odd_multiples(p));
                digits.push(wnaf_digits(k, G1_WNAF_WIDTH));
            }
        }
        let tables = self.batch_normalize(&jacs);
        let len = digits.iter().map(Vec::len).max().unwrap_or(0);
        let mut acc = G1Jac::infinity(&self.fp);
        for i in (0..len).rev() {
            acc = self.jac_double(&acc);
            for (term, table) in digits.iter().zip(tables.chunks_exact(G1_ODD_MULTIPLES)) {
                acc = self.add_digit(&acc, table, term.get(i).copied().unwrap_or(0));
            }
        }
        self.jac_to_affine(&acc)
    }

    /// `acc + d·P` for one wNAF digit `d`, off `P`'s odd-multiple table.
    fn add_digit(&self, acc: &G1Jac<L>, table: &[G1Affine<L>], d: i8) -> G1Jac<L> {
        if d == 0 {
            return *acc;
        }
        let entry = table[(d.unsigned_abs() as usize - 1) / 2];
        self.jac_add_affine(acc, &if d > 0 { entry } else { self.g1_neg(&entry) })
    }

    /// Plain binary double-and-add — the **reference path**, kept for the
    /// ablation benchmark and as a cross-check against the wNAF path used
    /// by [`Curve::g1_mul`]. Like `g1_mul` it is **variable-time** (one
    /// conditional add per set bit); neither path is a constant-time
    /// implementation, the two differ only in speed. See the contract on
    /// [`Curve::g1_mul`].
    pub fn g1_mul_binary(&self, p: &G1Affine<L>, k: &U256) -> G1Affine<L> {
        tre_obs::record_scalar_mul();
        let ctx = &self.fp;
        if p.inf || k.is_zero() {
            return G1Affine::infinity(ctx);
        }
        let mut acc = G1Jac::infinity(ctx);
        for i in (0..k.bits()).rev() {
            acc = self.jac_double(&acc);
            if k.bit(i) {
                acc = self.jac_add_affine(&acc, p);
            }
        }
        self.jac_to_affine(&acc)
    }

    /// The odd multiples `[P, 3P, …]` a width-[`G1_WNAF_WIDTH`] digit
    /// can name, in Jacobian coordinates, for a non-identity `P`. Callers
    /// normalize them with [`Curve::batch_normalize`], one inversion per
    /// batch of tables.
    fn odd_multiples(&self, p: &G1Affine<L>) -> [G1Jac<L>; G1_ODD_MULTIPLES] {
        let one = G1Jac::from_affine(p, &self.fp);
        let two_p = self.jac_double(&one);
        let mut jacs = [one; G1_ODD_MULTIPLES];
        for i in 1..G1_ODD_MULTIPLES {
            jacs[i] = self.jac_add(&jacs[i - 1], &two_p);
        }
        jacs
    }

    /// Full Jacobian + Jacobian addition (add-2007-bl).
    pub(crate) fn jac_add(&self, a: &G1Jac<L>, b: &G1Jac<L>) -> G1Jac<L> {
        let ctx = &self.fp;
        if a.z.is_zero() {
            return *b;
        }
        if b.z.is_zero() {
            return *a;
        }
        let z1z1 = a.z.square(ctx);
        let z2z2 = b.z.square(ctx);
        let u1 = a.x.mul(&z2z2, ctx);
        let u2 = b.x.mul(&z1z1, ctx);
        let s1 = a.y.mul(&b.z, ctx).mul(&z2z2, ctx);
        let s2 = b.y.mul(&a.z, ctx).mul(&z1z1, ctx);
        let h = u2.sub(&u1, ctx);
        let rr = s2.sub(&s1, ctx).double(ctx);
        if h.is_zero() {
            if rr.is_zero() {
                return self.jac_double(a);
            }
            return G1Jac::infinity(ctx);
        }
        let i = h.double(ctx).square(ctx);
        let j = h.mul(&i, ctx);
        let v = u1.mul(&i, ctx);
        let x3 = rr.square(ctx).sub(&j, ctx).sub(&v.double(ctx), ctx);
        let y3 = rr
            .mul(&v.sub(&x3, ctx), ctx)
            .sub(&s1.mul(&j, ctx).double(ctx), ctx);
        let z3 =
            a.z.add(&b.z, ctx)
                .square(ctx)
                .sub(&z1z1, ctx)
                .sub(&z2z2, ctx)
                .mul(&h, ctx);
        G1Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Converts a batch of Jacobian points to affine with a single shared
    /// inversion; infinities (an odd multiple of a low-order point) pass
    /// through as infinity.
    pub(crate) fn batch_normalize(&self, points: &[G1Jac<L>]) -> Vec<G1Affine<L>> {
        let ctx = &self.fp;
        // Infinities (z = 0) are passed through; substitute 1 so the batch
        // inversion never sees a zero.
        let mut zs: Vec<Fp<L>> = points
            .iter()
            .map(|p| if p.z.is_zero() { ctx.one() } else { p.z })
            .collect();
        let ok = ctx.batch_invert(&mut zs);
        debug_assert!(ok);
        points
            .iter()
            .zip(&zs)
            .map(|(p, zinv)| {
                if p.z.is_zero() {
                    return G1Affine::infinity(ctx);
                }
                let zinv2 = zinv.square(ctx);
                let zinv3 = zinv2.mul(zinv, ctx);
                G1Affine {
                    x: p.x.mul(&zinv2, ctx),
                    y: p.y.mul(&zinv3, ctx),
                    inf: false,
                }
            })
            .collect()
    }

    /// Jacobian doubling (dbl-2007-bl, curve coefficient `a = 1`).
    pub(crate) fn jac_double(&self, p: &G1Jac<L>) -> G1Jac<L> {
        let ctx = &self.fp;
        if p.z.is_zero() || p.y.is_zero() {
            return G1Jac::infinity(ctx);
        }
        let xx = p.x.square(ctx);
        let yy = p.y.square(ctx);
        let yyyy = yy.square(ctx);
        let zz = p.z.square(ctx);
        // S = 2((X+YY)² − XX − YYYY)
        let s =
            p.x.add(&yy, ctx)
                .square(ctx)
                .sub(&xx, ctx)
                .sub(&yyyy, ctx)
                .double(ctx);
        // M = 3XX + a·ZZ², a = 1
        let m = xx.double(ctx).add(&xx, ctx).add(&zz.square(ctx), ctx);
        let x3 = m.square(ctx).sub(&s.double(ctx), ctx);
        // Y3 = M(S − X3) − 8·YYYY
        let eight_yyyy = yyyy.double(ctx).double(ctx).double(ctx);
        let y3 = m.mul(&s.sub(&x3, ctx), ctx).sub(&eight_yyyy, ctx);
        // Z3 = (Y+Z)² − YY − ZZ
        let z3 = p.y.add(&p.z, ctx).square(ctx).sub(&yy, ctx).sub(&zz, ctx);
        G1Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed Jacobian + affine addition (madd-2007-bl).
    pub(crate) fn jac_add_affine(&self, p: &G1Jac<L>, q: &G1Affine<L>) -> G1Jac<L> {
        let ctx = &self.fp;
        if q.inf {
            return *p;
        }
        if p.z.is_zero() {
            return G1Jac {
                x: q.x,
                y: q.y,
                z: ctx.one(),
            };
        }
        let z1z1 = p.z.square(ctx);
        let u2 = q.x.mul(&z1z1, ctx);
        let s2 = q.y.mul(&p.z, ctx).mul(&z1z1, ctx);
        let h = u2.sub(&p.x, ctx);
        let rr = s2.sub(&p.y, ctx).double(ctx);
        if h.is_zero() {
            if rr.is_zero() {
                return self.jac_double(p);
            }
            return G1Jac::infinity(ctx);
        }
        let hh = h.square(ctx);
        let i = hh.double(ctx).double(ctx);
        let j = h.mul(&i, ctx);
        let v = p.x.mul(&i, ctx);
        let x3 = rr.square(ctx).sub(&j, ctx).sub(&v.double(ctx), ctx);
        let y3 = rr
            .mul(&v.sub(&x3, ctx), ctx)
            .sub(&p.y.mul(&j, ctx).double(ctx), ctx);
        let z3 = p.z.add(&h, ctx).square(ctx).sub(&z1z1, ctx).sub(&hh, ctx);
        G1Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    pub(crate) fn jac_to_affine(&self, p: &G1Jac<L>) -> G1Affine<L> {
        let ctx = &self.fp;
        if p.z.is_zero() {
            return G1Affine::infinity(ctx);
        }
        let zinv = p.z.invert(ctx).expect("z != 0");
        let zinv2 = zinv.square(ctx);
        let zinv3 = zinv2.mul(&zinv, ctx);
        G1Affine {
            x: p.x.mul(&zinv2, ctx),
            y: p.y.mul(&zinv3, ctx),
            inf: false,
        }
    }

    /// Whether `P` lies in the order-`q` subgroup: `q·P` off the digits
    /// recoded in [`Curve::new`], read as the identity straight from the
    /// Jacobian `Z = 0` with no affine conversion.
    pub fn in_subgroup(&self, p: &G1Affine<L>) -> bool {
        if !self.is_on_curve(p) {
            return false;
        }
        tre_obs::record_scalar_mul();
        p.inf || self.wnaf_mul(p, &self.order_naf).z.is_zero()
    }

    /// Uniform random scalar in `[1, q)` — a private key or encryption nonce.
    pub fn random_scalar(&self, rng: &mut (impl RngCore + ?Sized)) -> U256 {
        loop {
            let k = U256::random_below(rng, &self.q);
            if !k.is_zero() {
                return k;
            }
        }
    }

    /// Scalar-field multiplication `a·b mod q`.
    pub fn scalar_mul(&self, a: &U256, b: &U256) -> U256 {
        let am = self.scalar.to_monty(a);
        let bm = self.scalar.to_monty(b);
        self.scalar.from_monty(&self.scalar.mul(&am, &bm))
    }

    /// Scalar-field addition `a + b mod q`.
    pub fn scalar_add(&self, a: &U256, b: &U256) -> U256 {
        self.scalar.add(&a.rem(&self.q), &b.rem(&self.q))
    }

    /// Scalar-field subtraction `a − b mod q`.
    pub fn scalar_sub(&self, a: &U256, b: &U256) -> U256 {
        self.scalar.sub(&a.rem(&self.q), &b.rem(&self.q))
    }

    /// Scalar-field inversion; `None` for zero.
    pub fn scalar_inv(&self, a: &U256) -> Option<U256> {
        tre_bigint::mod_inverse(a, &self.q)
    }

    /// Reduces bytes into a scalar mod `q`.
    pub fn scalar_from_bytes_mod(&self, bytes: &[u8]) -> U256 {
        U256::from_be_bytes_mod(bytes, &self.q)
    }

    /// Compressed point encoding: tag byte (`0` = infinity, `2`/`3` = y
    /// parity) followed by the big-endian x-coordinate.
    pub fn g1_to_bytes(&self, p: &G1Affine<L>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.point_len());
        if p.inf {
            out.push(0);
            out.extend_from_slice(&vec![0u8; Uint::<L>::BYTES]);
            return out;
        }
        out.push(if p.y.is_odd(&self.fp) { 3 } else { 2 });
        out.extend_from_slice(&self.fp.to_uint(&p.x).to_be_bytes());
        out
    }

    /// Decodes a compressed point, verifying the curve equation.
    ///
    /// # Errors
    /// Returns [`DecodePointError`] on malformed input or invalid points.
    /// Subgroup membership is **not** checked here (see
    /// [`Curve::g1_from_bytes_checked`]).
    pub fn g1_from_bytes(&self, bytes: &[u8]) -> Result<G1Affine<L>, DecodePointError> {
        if bytes.len() != self.point_len() {
            return Err(DecodePointError::Malformed);
        }
        let tag = bytes[0];
        if tag == 0 {
            if bytes[1..].iter().any(|&b| b != 0) {
                return Err(DecodePointError::Malformed);
            }
            return Ok(G1Affine::infinity(&self.fp));
        }
        if tag != 2 && tag != 3 {
            return Err(DecodePointError::Malformed);
        }
        let x_int =
            Uint::<L>::from_be_bytes(&bytes[1..]).map_err(|_| DecodePointError::Malformed)?;
        if x_int >= *self.fp.modulus() {
            return Err(DecodePointError::Malformed);
        }
        let ctx = &self.fp;
        let x = ctx.from_uint(&x_int);
        let rhs = x.square(ctx).mul(&x, ctx).add(&x, ctx);
        let mut y = rhs.sqrt(ctx).ok_or(DecodePointError::NotOnCurve)?;
        if y.is_odd(ctx) != (tag == 3) {
            y = y.neg(ctx);
        }
        Ok(G1Affine { x, y, inf: false })
    }

    /// Decodes a compressed point and verifies subgroup membership.
    ///
    /// # Errors
    /// As [`Curve::g1_from_bytes`], plus [`DecodePointError::WrongSubgroup`].
    pub fn g1_from_bytes_checked(&self, bytes: &[u8]) -> Result<G1Affine<L>, DecodePointError> {
        let p = self.g1_from_bytes(bytes)?;
        if !self.in_subgroup(&p) {
            return Err(DecodePointError::WrongSubgroup);
        }
        Ok(p)
    }
}

impl<const L: usize> G1Jac<L> {
    pub(crate) fn infinity(ctx: &FpCtx<L>) -> Self {
        Self {
            x: ctx.one(),
            y: ctx.one(),
            z: ctx.zero(),
        }
    }

    pub(crate) fn from_affine(p: &G1Affine<L>, ctx: &FpCtx<L>) -> Self {
        if p.inf {
            Self::infinity(ctx)
        } else {
            Self {
                x: p.x,
                y: p.y,
                z: ctx.one(),
            }
        }
    }
}

/// Width-`w` NAF recoding: digits in `{0, ±1, ±3, …, ±(2^(w−1)−1)}`,
/// least-significant first, with no two adjacent non-zeros within `w`
/// positions. Defined for every `k < 2^(64·E)`: a negative digit's carry
/// out of the top limb is shifted back in as the top bit.
pub(crate) fn wnaf_digits<const E: usize>(k: &Uint<E>, w: u32) -> Vec<i8> {
    debug_assert!((2..=7).contains(&w));
    let mut k = *k;
    let window = 1u64 << w;
    let half = 1u64 << (w - 1);
    let mut digits = Vec::with_capacity(k.bits() as usize + 1);
    while !k.is_zero() {
        let mut overflow = false;
        if k.is_odd() {
            let mods = k.limbs()[0] & (window - 1);
            let d: i64 = if mods >= half {
                mods as i64 - window as i64
            } else {
                mods as i64
            };
            if d > 0 {
                k = k.wrapping_sub(&Uint::from_u64(d as u64));
            } else {
                (k, overflow) = k.overflowing_add(&Uint::from_u64((-d) as u64));
            }
            digits.push(d as i8);
        } else {
            digits.push(0);
        }
        k = k.shr1();
        if overflow {
            k.limbs_mut()[E - 1] |= 1 << 63;
        }
    }
    digits
}

#[cfg(test)]
mod wnaf_tests {
    use super::*;

    #[test]
    fn recoding_reconstructs_value() {
        for v in [1u64, 2, 3, 15, 16, 17, 255, 0xdead_beef, u64::MAX / 3] {
            let k = U256::from_u64(v);
            let digits = wnaf_digits(&k, 4);
            let mut acc: i128 = 0;
            for &d in digits.iter().rev() {
                acc = acc * 2 + d as i128;
            }
            assert_eq!(acc, v as i128, "v={v}");
            // Every non-zero digit is odd and within the window.
            for &d in &digits {
                if d != 0 {
                    assert!(d % 2 != 0 && d.abs() < 16);
                }
            }
        }
    }

    #[test]
    fn top_carry_is_shifted_back_in() {
        // 2^256 − 1 recodes with a −1 digit whose carry leaves the top
        // limb; the digits must still reconstruct the value mod 2^256
        // and end on a positive leading digit.
        let k = U256::from_limbs([u64::MAX; 4]);
        let digits = wnaf_digits(&k, 5);
        let mut acc = U256::ZERO;
        for &d in digits.iter().rev() {
            acc = acc.wrapping_add(&acc);
            acc = if d >= 0 {
                acc.wrapping_add(&U256::from_u64(d as u64))
            } else {
                acc.wrapping_sub(&U256::from_u64(d.unsigned_abs() as u64))
            };
        }
        assert_eq!(acc, k);
        assert_eq!(digits.len(), 257);
        assert!(*digits.last().unwrap() > 0);
    }

    #[test]
    fn zero_gives_no_digits() {
        assert!(wnaf_digits(&U256::ZERO, 4).is_empty());
    }
}
