//! The reduced Tate pairing `ê : G1 × G1 → G_T ⊂ F_{p²}^*`.
//!
//! With the distortion map `φ(x, y) = (−x, i·y)` folded in, the symmetric
//! ("Type-1") pairing of the paper is
//!
//! ```text
//! ê(P, Q) = f_{q,P}(φ(Q))^((p² − 1)/q)
//! ```
//!
//! computed with Miller's algorithm in Jacobian coordinates. Two facts make
//! the loop inversion-free (BKLS denominator elimination):
//!
//! 1. `φ(Q)` has its x-coordinate in the base field, so vertical lines
//!    evaluate into `F_p` — and every `F_p` factor of the Miller value is
//!    annihilated by the `(p − 1)` part of the final exponentiation;
//! 2. for the same reason each line may be scaled by an arbitrary `F_p`
//!    constant, so slopes never need to be normalized: the tangent line is
//!    scaled by `2y_T·Z⁶` and the chord by `2(x_P − x_T)·Z³`, clearing all
//!    denominators.

use tre_bigint::{Uint, U256};

use crate::curve::{wnaf_digits, Curve, G1Affine, G1Jac};
use crate::fp::{Fp, Fp2, FpCtx};

/// An element of the order-`q` target group `G_T` (unitary subgroup of
/// `F_{p²}^*`). Produced only by [`Curve::pairing`] and `Gt` operations.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct Gt<const L: usize>(pub(crate) Fp2<L>);

/// Precomputed Miller-loop line coefficients for a **fixed first argument**
/// `P` of the pairing.
///
/// The doubling/addition chain `T ← 2T (+P)` and the line coefficients it
/// produces depend only on `P`, not on `Q` — so [`Curve::prepare`] runs the
/// whole Jacobian point chain once, normalizes every line by its `c1`
/// coefficient `λ2` (legal: lines are only defined up to `F_p` scaling,
/// which the `(p−1)` part of the final exponentiation annihilates), and
/// stores one `(λ0/λ2, λ1/λ2)` pair per step. A normalization by the
/// *shared* [`crate::fp::FpCtx::batch_invert`] costs one field inversion
/// total.
///
/// [`Curve::pairing_prepared`] then evaluates `ê(P, Q)` with **zero point
/// arithmetic**: per doubling step only `f²`, one `F_p` mul for the line
/// value `(n0 + n1·x_φQ) + y_Q·i`, and one sparse `F_{p²}` mul — less than
/// a third of the generic Miller-loop work.
///
/// Entries are in replay order (one per doubling, plus one per set order
/// bit); `None` marks a degenerate step that contributes no line factor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MillerPrecomp<const L: usize> {
    steps: Vec<Option<(Fp<L>, Fp<L>)>>,
    /// The prepared point was infinity: the pairing is identically 1.
    inf: bool,
}

impl<const L: usize> MillerPrecomp<L> {
    /// Whether the prepared point was the point at infinity.
    #[inline]
    pub fn is_infinity(&self) -> bool {
        self.inf
    }
}

impl<const L: usize> Curve<L> {
    /// The reduced Tate pairing with the distortion map applied to `Q`.
    ///
    /// Bilinear: `ê(aP, bQ) = ê(P, Q)^{ab}`; non-degenerate for points of
    /// order `q`; symmetric on the cyclic subgroup. Returns the identity if
    /// either input is infinity.
    pub fn pairing(&self, p: &G1Affine<L>, q_pt: &G1Affine<L>) -> Gt<L> {
        tre_obs::record_pairings(1);
        let ctx = self.fp();
        if p.is_infinity() || q_pt.is_infinity() {
            return Gt(Fp2::one(ctx));
        }
        // φ(Q) = (−x_Q, i·y_Q); both coordinates live in F_p.
        let xq_neg = q_pt.x().neg(ctx);
        let yq = *q_pt.y();

        let mut f = Fp2::one(ctx);
        let mut t = G1Jac {
            x: *p.x(),
            y: *p.y(),
            z: ctx.one(),
        };
        let order = *self.order();
        let bits = order.bits();
        for i in (0..bits - 1).rev() {
            f = f.square(ctx);
            let (t2, line) = self.double_step(&t, &xq_neg, &yq);
            if let Some(l) = line {
                f = f.mul(&l, ctx);
            }
            t = t2;
            if order.bit(i) {
                let (t3, line) = self.add_step(&t, p, &xq_neg, &yq);
                if let Some(l) = line {
                    f = f.mul(&l, ctx);
                }
                t = t3;
            }
        }
        self.final_exponentiation(&f)
    }

    /// Product of pairings `∏ ê(Pᵢ, Qᵢ)` with a **shared Miller loop**:
    /// all pairs advance through one squaring chain and one final
    /// exponentiation, so the marginal cost of each extra pair is only its
    /// line evaluations (what multi-server decryption needs).
    ///
    /// **Infinity semantics:** a pair with either point at infinity
    /// contributes `ê(∞, Q) = ê(P, ∞) = 1` — the bilinear identity — so it
    /// is dropped from the lane set before the loop rather than evaluated.
    /// Such pairs are *not* counted in the recorded pairing total, and a
    /// batch consisting entirely of infinity pairs returns the identity.
    /// Callers that treat "product == 1" as a verification success must
    /// therefore ensure an infinity input cannot vacuously satisfy their
    /// equation (the BLS batch check does: an infinity signature leaves the
    /// non-trivial `ê(pk, H)` lane unmatched, so the product is ≠ 1 and
    /// bisection still isolates the offending entry).
    pub fn multi_pairing(&self, pairs: &[(G1Affine<L>, G1Affine<L>)]) -> Gt<L> {
        let ctx = self.fp();
        struct Lane<const L: usize> {
            t: G1Jac<L>,
            p: G1Affine<L>,
            xq_neg: Fp<L>,
            yq: Fp<L>,
        }
        let mut lanes: Vec<Lane<L>> = pairs
            .iter()
            .filter(|(p, q)| !p.is_infinity() && !q.is_infinity())
            .map(|(p, q)| Lane {
                t: G1Jac {
                    x: *p.x(),
                    y: *p.y(),
                    z: ctx.one(),
                },
                p: *p,
                xq_neg: q.x().neg(ctx),
                yq: *q.y(),
            })
            .collect();
        if lanes.is_empty() {
            return Gt(Fp2::one(ctx));
        }
        // Each live lane counts as one pairing: the shared loop changes the
        // cost, not the number of bilinear evaluations performed.
        tre_obs::record_pairings(lanes.len() as u64);
        let mut f = Fp2::one(ctx);
        let order = *self.order();
        let bits = order.bits();
        for i in (0..bits - 1).rev() {
            f = f.square(ctx);
            for lane in &mut lanes {
                let (t2, line) = self.double_step(&lane.t, &lane.xq_neg, &lane.yq);
                if let Some(l) = line {
                    f = f.mul(&l, ctx);
                }
                lane.t = t2;
            }
            if order.bit(i) {
                for lane in &mut lanes {
                    let (t3, line) = self.add_step(&lane.t, &lane.p, &lane.xq_neg, &lane.yq);
                    if let Some(l) = line {
                        f = f.mul(&l, ctx);
                    }
                    lane.t = t3;
                }
            }
        }
        self.final_exponentiation(&f)
    }

    /// Naive product of pairings (independent Miller loops and final
    /// exponentiations) — kept for the ablation benchmark comparing it to
    /// [`Curve::multi_pairing`].
    pub fn multi_pairing_naive(&self, pairs: &[(G1Affine<L>, G1Affine<L>)]) -> Gt<L> {
        let mut acc = Gt::one(self);
        for (p, q) in pairs {
            acc = acc.mul(&self.pairing(p, q), self);
        }
        acc
    }

    /// Precomputes the Miller-loop line coefficients for a fixed first
    /// pairing argument `P`. See [`MillerPrecomp`].
    ///
    /// Cost: one full Jacobian chain (as one generic Miller loop, minus the
    /// `F_{p²}` work) plus a single batched inversion — repaid after one
    /// [`Curve::pairing_prepared`] call against the same `P`.
    pub fn prepare(&self, p: &G1Affine<L>) -> MillerPrecomp<L> {
        let ctx = self.fp();
        if p.is_infinity() {
            return MillerPrecomp {
                steps: Vec::new(),
                inf: true,
            };
        }
        let mut raw: Vec<Option<(Fp<L>, Fp<L>, Fp<L>)>> = Vec::new();
        let mut t = G1Jac {
            x: *p.x(),
            y: *p.y(),
            z: ctx.one(),
        };
        let order = *self.order();
        let bits = order.bits();
        for i in (0..bits - 1).rev() {
            let (t2, coeffs) = self.double_step_coeffs(&t);
            raw.push(coeffs);
            t = t2;
            if order.bit(i) {
                let (t3, coeffs) = self.add_step_coeffs(&t, p);
                raw.push(coeffs);
                t = t3;
            }
        }
        // Normalize every line by its λ2 with one shared batched inversion,
        // so evaluation needs no per-step F_p scaling and c1 becomes y_Q
        // exactly. λ2 = 2Y·Z·Z² (tangent) or 2ZH (chord) is nonzero in
        // every non-degenerate recorded branch.
        let mut denoms: Vec<Fp<L>> = raw
            .iter()
            .filter_map(|c| c.as_ref().map(|&(_, _, l2)| l2))
            .collect();
        let ok = ctx.batch_invert(&mut denoms);
        assert!(ok, "non-degenerate Miller steps have λ2 ≠ 0");
        let mut inv_it = denoms.iter();
        let steps = raw
            .into_iter()
            .map(|c| {
                c.map(|(l0, l1, _)| {
                    let inv = inv_it.next().expect("denominator per recorded line");
                    (l0.mul(inv, ctx), l1.mul(inv, ctx))
                })
            })
            .collect();
        MillerPrecomp { steps, inf: false }
    }

    /// The reduced Tate pairing `ê(P, Q)` for a prepared `P`: replays the
    /// stored line coefficients through the `f²`·line-eval·mul chain with
    /// zero point arithmetic. Agrees exactly with [`Curve::pairing`] on all
    /// inputs (including infinity on either side and low-order `Q`).
    pub fn pairing_prepared(&self, prep: &MillerPrecomp<L>, q_pt: &G1Affine<L>) -> Gt<L> {
        tre_obs::record_pairings(1);
        let ctx = self.fp();
        if prep.inf || q_pt.is_infinity() {
            return Gt(Fp2::one(ctx));
        }
        let xq_neg = q_pt.x().neg(ctx);
        let yq = *q_pt.y();
        let mut f = Fp2::one(ctx);
        let order = *self.order();
        let bits = order.bits();
        let mut si = 0usize;
        for i in (0..bits - 1).rev() {
            f = f.square(ctx);
            f = self.eval_prepared_line(&f, &prep.steps[si], &xq_neg, &yq);
            si += 1;
            if order.bit(i) {
                f = self.eval_prepared_line(&f, &prep.steps[si], &xq_neg, &yq);
                si += 1;
            }
        }
        debug_assert_eq!(si, prep.steps.len(), "prepared step count mismatch");
        self.final_exponentiation(&f)
    }

    /// Product of pairings with **prepared and generic lanes sharing one
    /// squaring chain and one final exponentiation**:
    ///
    /// ```text
    /// ∏ᵢ ê(prepared Pᵢ, Qᵢ) · ∏ⱼ ê(Pⱼ, Qⱼ)
    /// ```
    ///
    /// This is the production shape of every verification equation in
    /// tre-core: the fixed sides (`sG`, `−G`, roster commitments) ride in
    /// prepared lanes at line-evaluation cost only, while per-epoch sides
    /// stay generic. Infinity pairs are dropped exactly as in
    /// [`Curve::multi_pairing`] (they contribute the identity and are not
    /// counted as pairings).
    pub fn multi_pairing_mixed(
        &self,
        prepared: &[(&MillerPrecomp<L>, G1Affine<L>)],
        generic: &[(G1Affine<L>, G1Affine<L>)],
    ) -> Gt<L> {
        let ctx = self.fp();
        struct PrepLane<'a, const L: usize> {
            prep: &'a MillerPrecomp<L>,
            xq_neg: Fp<L>,
            yq: Fp<L>,
        }
        struct GenLane<const L: usize> {
            t: G1Jac<L>,
            p: G1Affine<L>,
            xq_neg: Fp<L>,
            yq: Fp<L>,
        }
        let plines: Vec<PrepLane<'_, L>> = prepared
            .iter()
            .filter(|(prep, q)| !prep.inf && !q.is_infinity())
            .map(|(prep, q)| PrepLane {
                prep,
                xq_neg: q.x().neg(ctx),
                yq: *q.y(),
            })
            .collect();
        let mut glines: Vec<GenLane<L>> = generic
            .iter()
            .filter(|(p, q)| !p.is_infinity() && !q.is_infinity())
            .map(|(p, q)| GenLane {
                t: G1Jac {
                    x: *p.x(),
                    y: *p.y(),
                    z: ctx.one(),
                },
                p: *p,
                xq_neg: q.x().neg(ctx),
                yq: *q.y(),
            })
            .collect();
        if plines.is_empty() && glines.is_empty() {
            return Gt(Fp2::one(ctx));
        }
        tre_obs::record_pairings((plines.len() + glines.len()) as u64);
        let mut f = Fp2::one(ctx);
        let order = *self.order();
        let bits = order.bits();
        // All preparations for one curve have identical step structure
        // (one entry per doubling plus one per set order bit), so a single
        // shared index walks every prepared lane in lockstep.
        let mut si = 0usize;
        for i in (0..bits - 1).rev() {
            f = f.square(ctx);
            for lane in &plines {
                f = self.eval_prepared_line(&f, &lane.prep.steps[si], &lane.xq_neg, &lane.yq);
            }
            si += 1;
            for lane in &mut glines {
                let (t2, line) = self.double_step(&lane.t, &lane.xq_neg, &lane.yq);
                if let Some(l) = line {
                    f = f.mul(&l, ctx);
                }
                lane.t = t2;
            }
            if order.bit(i) {
                for lane in &plines {
                    f = self.eval_prepared_line(&f, &lane.prep.steps[si], &lane.xq_neg, &lane.yq);
                }
                si += 1;
                for lane in &mut glines {
                    let (t3, line) = self.add_step(&lane.t, &lane.p, &lane.xq_neg, &lane.yq);
                    if let Some(l) = line {
                        f = f.mul(&l, ctx);
                    }
                    lane.t = t3;
                }
            }
        }
        self.final_exponentiation(&f)
    }

    /// Multiplies `f` by one stored normalized line evaluated at `φ(Q)`:
    /// `(n0 + n1·x_φQ) + y_Q·i`. One `F_p` mul, one add, one sparse
    /// `F_{p²}` mul. Preserves the generic path's skip of identically-zero
    /// lines (possible only for the order-2 point `(0, 0)`).
    #[inline]
    fn eval_prepared_line(
        &self,
        f: &Fp2<L>,
        step: &Option<(Fp<L>, Fp<L>)>,
        xq_neg: &Fp<L>,
        yq: &Fp<L>,
    ) -> Fp2<L> {
        let ctx = self.fp();
        match step {
            Some((n0, n1)) => {
                let line = Fp2::new(n0.add(&n1.mul(xq_neg, ctx), ctx), *yq);
                if line.is_zero() {
                    *f
                } else {
                    f.mul(&line, ctx)
                }
            }
            None => *f,
        }
    }

    /// Tangent-line coefficients for a doubling step, as the `Q`-affine
    /// triple `(λ0, λ1, λ2)` with line `= (λ0 + λ1·x_φQ) + λ2·y_Q·i`
    /// (same line as [`Curve::double_step`], regrouped by powers of the
    /// evaluation point): `λ0 = M·X − 2Y²`, `λ1 = −M·Z²`, `λ2 = 2Y·Z·Z²`.
    fn double_step_coeffs(&self, t: &G1Jac<L>) -> (G1Jac<L>, Option<(Fp<L>, Fp<L>, Fp<L>)>) {
        let ctx = self.fp();
        if t.z.is_zero() || t.y.is_zero() {
            return (G1Jac::infinity(ctx), None);
        }
        let xx = t.x.square(ctx);
        let yy = t.y.square(ctx);
        let yyyy = yy.square(ctx);
        let zz = t.z.square(ctx);
        let s =
            t.x.add(&yy, ctx)
                .square(ctx)
                .sub(&xx, ctx)
                .sub(&yyyy, ctx)
                .double(ctx);
        let m = xx.double(ctx).add(&xx, ctx).add(&zz.square(ctx), ctx);
        let x3 = m.square(ctx).sub(&s.double(ctx), ctx);
        let eight_yyyy = yyyy.double(ctx).double(ctx).double(ctx);
        let y3 = m.mul(&s.sub(&x3, ctx), ctx).sub(&eight_yyyy, ctx);
        let z3 = t.y.add(&t.z, ctx).square(ctx).sub(&yy, ctx).sub(&zz, ctx);

        let l0 = m.mul(&t.x, ctx).sub(&yy.double(ctx), ctx);
        let l1 = m.mul(&zz, ctx).neg(ctx);
        let l2 = t.y.mul(&t.z, ctx).mul(&zz, ctx).double(ctx);
        (
            G1Jac {
                x: x3,
                y: y3,
                z: z3,
            },
            Some((l0, l1, l2)),
        )
    }

    /// Chord-line coefficients for a mixed addition step, as the triple
    /// `(λ0, λ1, λ2)` (same line as [`Curve::add_step`], regrouped):
    /// `λ0 = rr·x_P − 2ZH·y_P`, `λ1 = −rr`, `λ2 = 2ZH`.
    fn add_step_coeffs(
        &self,
        t: &G1Jac<L>,
        p: &G1Affine<L>,
    ) -> (G1Jac<L>, Option<(Fp<L>, Fp<L>, Fp<L>)>) {
        let ctx = self.fp();
        if t.z.is_zero() {
            return (
                G1Jac {
                    x: *p.x(),
                    y: *p.y(),
                    z: ctx.one(),
                },
                None,
            );
        }
        let z1z1 = t.z.square(ctx);
        let u2 = p.x().mul(&z1z1, ctx);
        let s2 = p.y().mul(&t.z, ctx).mul(&z1z1, ctx);
        let h = u2.sub(&t.x, ctx);
        let rr = s2.sub(&t.y, ctx).double(ctx);
        if h.is_zero() {
            if rr.is_zero() {
                // T == P: degenerate chord — fall back to the tangent.
                return self.double_step_coeffs(t);
            }
            // T == −P: vertical chord (pure F_p); result is infinity.
            return (G1Jac::infinity(ctx), None);
        }
        let hh = h.square(ctx);
        let i = hh.double(ctx).double(ctx);
        let j = h.mul(&i, ctx);
        let v = t.x.mul(&i, ctx);
        let x3 = rr.square(ctx).sub(&j, ctx).sub(&v.double(ctx), ctx);
        let y3 = rr
            .mul(&v.sub(&x3, ctx), ctx)
            .sub(&t.y.mul(&j, ctx).double(ctx), ctx);
        let z3 = t.z.add(&h, ctx).square(ctx).sub(&z1z1, ctx).sub(&hh, ctx);

        let zh2 = t.z.mul(&h, ctx).double(ctx);
        let l0 = rr.mul(p.x(), ctx).sub(&zh2.mul(p.y(), ctx), ctx);
        let l1 = rr.neg(ctx);
        let l2 = zh2;
        (
            G1Jac {
                x: x3,
                y: y3,
                z: z3,
            },
            Some((l0, l1, l2)),
        )
    }

    /// Jacobian doubling step with the tangent-line evaluation at `φ(Q)`.
    ///
    /// Line (scaled by `2y_T·Z⁶ ∈ F_p`):
    /// `c0 = −2Y² − M·(Z²·x_φQ − X)`, `c1 = 2·Y·Z³·y_Q`,
    /// with `M = 3X² + Z⁴` (curve coefficient a = 1).
    /// `None` means "vertical/degenerate — skip" (pure `F_p` factor).
    fn double_step(&self, t: &G1Jac<L>, xq_neg: &Fp<L>, yq: &Fp<L>) -> (G1Jac<L>, Option<Fp2<L>>) {
        let ctx = self.fp();
        if t.z.is_zero() || t.y.is_zero() {
            return (G1Jac::infinity(ctx), None);
        }
        let xx = t.x.square(ctx);
        let yy = t.y.square(ctx);
        let yyyy = yy.square(ctx);
        let zz = t.z.square(ctx);
        let s =
            t.x.add(&yy, ctx)
                .square(ctx)
                .sub(&xx, ctx)
                .sub(&yyyy, ctx)
                .double(ctx);
        let m = xx.double(ctx).add(&xx, ctx).add(&zz.square(ctx), ctx);
        let x3 = m.square(ctx).sub(&s.double(ctx), ctx);
        let eight_yyyy = yyyy.double(ctx).double(ctx).double(ctx);
        let y3 = m.mul(&s.sub(&x3, ctx), ctx).sub(&eight_yyyy, ctx);
        let z3 = t.y.add(&t.z, ctx).square(ctx).sub(&yy, ctx).sub(&zz, ctx);

        let c0 = yy
            .double(ctx)
            .neg(ctx)
            .sub(&m.mul(&zz.mul(xq_neg, ctx).sub(&t.x, ctx), ctx), ctx);
        let c1 = t.y.mul(&t.z, ctx).mul(&zz, ctx).mul(yq, ctx).double(ctx);
        let line = Fp2::new(c0, c1);
        let line = if line.is_zero() { None } else { Some(line) };
        (
            G1Jac {
                x: x3,
                y: y3,
                z: z3,
            },
            line,
        )
    }

    /// Mixed addition step `T + P` with the chord-line evaluation at `φ(Q)`.
    ///
    /// Line (scaled by `2(x_P − x_T)·Z³ ∈ F_p`):
    /// `c0 = −2ZH·y_P − rr·(x_φQ − x_P)`, `c1 = 2ZH·y_Q`,
    /// with `H = x_P·Z² − X`, `rr = 2(y_P·Z³ − Y)`.
    fn add_step(
        &self,
        t: &G1Jac<L>,
        p: &G1Affine<L>,
        xq_neg: &Fp<L>,
        yq: &Fp<L>,
    ) -> (G1Jac<L>, Option<Fp2<L>>) {
        let ctx = self.fp();
        if t.z.is_zero() {
            return (
                G1Jac {
                    x: *p.x(),
                    y: *p.y(),
                    z: ctx.one(),
                },
                None,
            );
        }
        let z1z1 = t.z.square(ctx);
        let u2 = p.x().mul(&z1z1, ctx);
        let s2 = p.y().mul(&t.z, ctx).mul(&z1z1, ctx);
        let h = u2.sub(&t.x, ctx);
        let rr = s2.sub(&t.y, ctx).double(ctx);
        if h.is_zero() {
            if rr.is_zero() {
                // T == P: degenerate chord — fall back to the tangent.
                return self.double_step(t, xq_neg, yq);
            }
            // T == −P: vertical chord (pure F_p); result is infinity.
            return (G1Jac::infinity(ctx), None);
        }
        let hh = h.square(ctx);
        let i = hh.double(ctx).double(ctx);
        let j = h.mul(&i, ctx);
        let v = t.x.mul(&i, ctx);
        let x3 = rr.square(ctx).sub(&j, ctx).sub(&v.double(ctx), ctx);
        let y3 = rr
            .mul(&v.sub(&x3, ctx), ctx)
            .sub(&t.y.mul(&j, ctx).double(ctx), ctx);
        let z3 = t.z.add(&h, ctx).square(ctx).sub(&z1z1, ctx).sub(&hh, ctx);

        let zh2 = t.z.mul(&h, ctx).double(ctx);
        let c0 = zh2
            .mul(p.y(), ctx)
            .neg(ctx)
            .sub(&rr.mul(&xq_neg.sub(p.x(), ctx), ctx), ctx);
        let c1 = zh2.mul(yq, ctx);
        let line = Fp2::new(c0, c1);
        let line = if line.is_zero() { None } else { Some(line) };
        (
            G1Jac {
                x: x3,
                y: y3,
                z: z3,
            },
            line,
        )
    }

    /// The final exponentiation `f ↦ f^((p²−1)/q)` that maps a Miller
    /// value onto `G_T` (every pairing entry point already applies it).
    ///
    /// Computed as `f^(p−1) = conj(f)·f^{−1}`, then a power by the
    /// cofactor `(p+1)/q`. `f^(p−1)` is unitary, so that power runs the
    /// width-5 signed window of [`GtPrecomp`] over the cofactor digits
    /// recoded once in [`Curve::new`].
    ///
    /// # Panics
    /// Panics if `f` is zero.
    pub fn final_exponentiation(&self, f: &Fp2<L>) -> Gt<L> {
        let ctx = self.fp();
        let inv = f.invert(ctx).expect("Miller value is nonzero");
        let f_pm1 = f.conjugate(ctx).mul(&inv, ctx);
        Gt(unitary_pow(
            &odd_powers(&f_pm1, ctx),
            self.cofactor_naf(),
            ctx,
        ))
    }
}

/// Window width of the signed-digit `G_T` powers: width-5 wNAF digits
/// lie in `{±1, ±3, …, ±15}`, so the 8 odd powers `x^1 … x^15` cover
/// every digit and conjugation supplies the negative ones.
pub(crate) const GT_WNAF_WIDTH: u32 = 5;

/// The odd powers `x^1, x^3, …, x^15` of a unitary `x` (1 unitary
/// squaring + 7 multiplications).
fn odd_powers<const L: usize>(x: &Fp2<L>, ctx: &FpCtx<L>) -> [Fp2<L>; 8] {
    let sq = x.unitary_square(ctx);
    let mut odd = [*x; 8];
    for k in 1..8 {
        odd[k] = odd[k - 1].mul(&sq, ctx);
    }
    odd
}

/// `x^e` for a unitary `x` given its odd-power table and the width-5
/// wNAF digits of `e` (least significant first): one unitary squaring
/// per digit and one multiplication per non-zero digit, a negative digit
/// `−d` multiplying by `conj(x^d) = x^(−d)` — the inverse is free on the
/// norm-1 subgroup.
fn unitary_pow<const L: usize>(odd: &[Fp2<L>; 8], digits: &[i8], ctx: &FpCtx<L>) -> Fp2<L> {
    let entry = |d: i8| {
        let x = &odd[(d.unsigned_abs() as usize - 1) / 2];
        if d > 0 {
            *x
        } else {
            x.conjugate(ctx)
        }
    };
    // The leading digit is non-zero: start from its entry instead of
    // squaring and multiplying the identity.
    let Some((&lead, rest)) = digits.split_last() else {
        return Fp2::one(ctx);
    };
    let mut acc = entry(lead);
    for &d in rest.iter().rev() {
        acc = acc.unitary_square(ctx);
        if d != 0 {
            acc = acc.mul(&entry(d), ctx);
        }
    }
    acc
}

impl<const L: usize> Gt<L> {
    /// The identity element of `G_T`.
    pub fn one(curve: &Curve<L>) -> Self {
        Gt(Fp2::one(curve.fp()))
    }

    /// Whether this is the identity.
    pub fn is_one(&self, curve: &Curve<L>) -> bool {
        self.0.is_one(curve.fp())
    }

    /// Group operation (multiplication in `F_{p²}`).
    pub fn mul(&self, rhs: &Self, curve: &Curve<L>) -> Self {
        Gt(self.0.mul(&rhs.0, curve.fp()))
    }

    /// Squaring: two `F_p` squarings, since `G_T` elements have norm 1.
    pub fn square(&self, curve: &Curve<L>) -> Self {
        Gt(self.0.unitary_square(curve.fp()))
    }

    /// Exponentiation by a scalar: builds the odd-power table for this
    /// base and runs [`GtPrecomp::pow`] once. Use [`GtPrecomp`] directly
    /// when the same base is raised repeatedly.
    pub fn pow(&self, exp: &U256, curve: &Curve<L>) -> Self {
        GtPrecomp::new(curve, self).pow(exp, curve)
    }

    /// Inverse — conjugation, since `G_T` elements are unitary.
    pub fn invert(&self, curve: &Curve<L>) -> Self {
        Gt(self.0.conjugate(curve.fp()))
    }

    /// Canonical byte encoding (input to the `H2` random oracle).
    pub fn to_bytes(&self, curve: &Curve<L>) -> Vec<u8> {
        self.0.to_bytes(curve.fp())
    }

    /// Exponentiation by a full-width integer (used in tests to check the
    /// group order).
    pub fn pow_uint(&self, exp: &Uint<L>, curve: &Curve<L>) -> Self {
        GtPrecomp::new(curve, self).pow(exp, curve)
    }
}

/// Precomputed odd-power table for exponentiation of one `G_T` base.
///
/// A binary ladder pays one general `F_{p²}` squaring per exponent bit
/// and one multiplication per set bit (~half of them). Every `G_T`
/// element is unitary, so this table's powers use the two-squaring
/// unitary square and a width-5 signed window whose negative digits
/// multiply by a conjugated entry: one multiplication per ~6 exponent
/// bits after an 8-entry setup — a clear win for a single protocol
/// exponentiation, and amortized to nothing when the same base is raised
/// repeatedly (the E15 benchmarks and the failover `^a` step on
/// re-decryption attempts).
#[derive(Clone, Debug)]
pub struct GtPrecomp<const L: usize> {
    /// `odd[k] = base^(2k+1)` for `k in 0..8`.
    odd: [Fp2<L>; 8],
}

impl<const L: usize> GtPrecomp<L> {
    /// Builds the odd-power table (1 squaring + 7 multiplications).
    pub fn new(curve: &Curve<L>, base: &Gt<L>) -> Self {
        Self {
            odd: odd_powers(&base.0, curve.fp()),
        }
    }

    /// `base^exp` by the width-5 signed window over the exponent's wNAF
    /// digits.
    pub fn pow<const E: usize>(&self, exp: &Uint<E>, curve: &Curve<L>) -> Gt<L> {
        let digits = wnaf_digits(exp, GT_WNAF_WIDTH);
        Gt(unitary_pow(&self.odd, &digits, curve.fp()))
    }
}

#[cfg(test)]
mod prepared_tests {
    use super::*;
    use crate::params::toy64;

    #[test]
    fn prepared_matches_generic_on_random_points() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        for _ in 0..5 {
            let p = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
            let q = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
            let prep = curve.prepare(&p);
            assert_eq!(curve.pairing_prepared(&prep, &q), curve.pairing(&p, &q));
        }
    }

    #[test]
    fn prepared_infinity_and_low_order_edges() {
        let curve = toy64();
        let ctx = curve.fp();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        let p = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
        let inf = G1Affine::infinity(ctx);

        let prep_inf = curve.prepare(&inf);
        assert!(prep_inf.is_infinity());
        assert_eq!(
            curve.pairing_prepared(&prep_inf, &p),
            curve.pairing(&inf, &p)
        );
        let prep = curve.prepare(&p);
        assert_eq!(curve.pairing_prepared(&prep, &inf), curve.pairing(&p, &inf));
        assert!(curve.pairing_prepared(&prep, &inf).is_one(curve));

        // The order-2 point (0, 0) zeroes y_Q, exercising the stored-line
        // zero-skip path exactly as in the generic loop.
        let two_torsion = G1Affine {
            x: ctx.zero(),
            y: ctx.zero(),
            inf: false,
        };
        assert!(curve.is_on_curve(&two_torsion));
        assert_eq!(
            curve.pairing_prepared(&prep, &two_torsion),
            curve.pairing(&p, &two_torsion)
        );
        let prep2 = curve.prepare(&two_torsion);
        assert_eq!(
            curve.pairing_prepared(&prep2, &p),
            curve.pairing(&two_torsion, &p)
        );
    }

    #[test]
    fn pairing_symmetric_on_subgroup() {
        // Type-1 symmetry ê(P, Q) = ê(Q, P) on the cyclic subgroup — the
        // identity that lets decrypt/encrypt paths prepare the *second*
        // argument by swapping sides.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        for _ in 0..3 {
            let p = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
            let q = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
            assert_eq!(curve.pairing(&p, &q), curve.pairing(&q, &p));
            let prep_q = curve.prepare(&q);
            assert_eq!(curve.pairing_prepared(&prep_q, &p), curve.pairing(&p, &q));
        }
    }

    #[test]
    fn mixed_multi_pairing_matches_generic() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        let pairs: Vec<_> = (0..4)
            .map(|_| {
                (
                    curve.g1_mul(&g, &curve.random_scalar(&mut rng)),
                    curve.g1_mul(&g, &curve.random_scalar(&mut rng)),
                )
            })
            .collect();
        let expect = curve.multi_pairing(&pairs);

        // 2 prepared lanes + 2 generic lanes.
        let prep0 = curve.prepare(&pairs[0].0);
        let prep1 = curve.prepare(&pairs[1].0);
        let got =
            curve.multi_pairing_mixed(&[(&prep0, pairs[0].1), (&prep1, pairs[1].1)], &pairs[2..]);
        assert_eq!(got, expect);

        // All-prepared and all-generic degenerate splits agree too.
        let preps: Vec<_> = pairs.iter().map(|(p, _)| curve.prepare(p)).collect();
        let all_prep: Vec<_> = preps
            .iter()
            .zip(&pairs)
            .map(|(pr, (_, q))| (pr, *q))
            .collect();
        assert_eq!(curve.multi_pairing_mixed(&all_prep, &[]), expect);
        assert_eq!(curve.multi_pairing_mixed(&[], &pairs), expect);

        // Infinity pairs are dropped, matching multi_pairing.
        let inf = G1Affine::infinity(curve.fp());
        let mut with_inf = pairs.clone();
        with_inf.push((inf, pairs[0].1));
        let prep_inf = curve.prepare(&inf);
        tre_obs::enable();
        let got = curve.multi_pairing_mixed(
            &[
                (&prep0, pairs[0].1),
                (&prep1, pairs[1].1),
                (&prep_inf, pairs[2].1),
            ],
            &[pairs[2], pairs[3], (pairs[3].0, inf)],
        );
        let ops = tre_obs::finish().total_ops();
        assert_eq!(got, expect);
        assert_eq!(ops.pairings, 4, "infinity lanes are dropped, not counted");
    }

    #[test]
    fn prepared_pairing_uses_strictly_fewer_fp_muls() {
        // The in-tree counterpart of the E19 CI guard: same pairing count,
        // strictly fewer base-field multiplications.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        let p = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
        let q = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
        let prep = curve.prepare(&p);

        tre_obs::enable();
        let generic = curve.pairing(&p, &q);
        let ops_generic = tre_obs::finish().total_ops();

        tre_obs::enable();
        let prepared = curve.pairing_prepared(&prep, &q);
        let ops_prepared = tre_obs::finish().total_ops();

        assert_eq!(generic, prepared);
        assert_eq!(ops_generic.pairings, ops_prepared.pairings);
        assert!(
            ops_prepared.fp_muls < ops_generic.fp_muls,
            "prepared ({}) must use strictly fewer fp muls than generic ({})",
            ops_prepared.fp_muls,
            ops_generic.fp_muls
        );
    }
}

#[cfg(test)]
mod gt_window_tests {
    use super::*;
    use crate::params::toy64;

    #[test]
    fn window_pow_skips_zero_high_windows() {
        // Satellite op-counter guard: a 64-bit exponent must not pay for a
        // walk over the full exponent width.
        let curve = toy64();
        let g = curve.generator();
        let base = curve.pairing(&g, &g);
        let table = GtPrecomp::new(curve, &base);

        tre_obs::enable();
        let _ = table.pow(&U256::from_u64(u64::MAX), curve);
        let small = tre_obs::finish().total_ops().fp_muls;

        let qm1 = curve.order().wrapping_sub(&U256::ONE);
        tre_obs::enable();
        let _ = table.pow(&qm1, curve);
        let wide = tre_obs::finish().total_ops().fp_muls;

        assert!(small > 0, "fp_mul accounting must be live");
        assert!(
            small * 2 < wide,
            "64-bit Gt exponent ({small} fp muls) must cost well under half of \
             a full-width one ({wide} fp muls)"
        );
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::params::toy64;
    use proptest::prelude::*;

    /// The binary final exponentiation the signed window replaced:
    /// `conj(f)·f⁻¹`, then a square-and-multiply power by the cofactor.
    fn final_exponentiation_binary<const L: usize>(curve: &Curve<L>, f: &Fp2<L>) -> Fp2<L> {
        let ctx = curve.fp();
        let f_pm1 = f.conjugate(ctx).mul(&f.invert(ctx).unwrap(), ctx);
        f_pm1.pow(curve.cofactor(), ctx)
    }

    /// A random `F_{p²}` element from raw limbs (reduced mod `p`).
    fn fp2(curve: &Curve<8>, c0: [u64; 8], c1: [u64; 8]) -> Fp2<8> {
        let ctx = curve.fp();
        Fp2::new(
            ctx.from_uint(&Uint::from_limbs(c0)),
            ctx.from_uint(&Uint::from_limbs(c1)),
        )
    }

    fn scalar(curve: &Curve<8>, raw: [u64; 4]) -> U256 {
        U256::from_limbs(raw).rem(curve.order())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn unitary_square_matches_square(
            c0 in any::<[u64; 8]>(),
            c1 in any::<[u64; 8]>(),
            ra in any::<[u64; 4]>(),
            rb in any::<[u64; 4]>(),
        ) {
            let curve = toy64();
            let ctx = curve.fp();
            let f = fp2(curve, c0, c1);
            prop_assume!(!f.is_zero());
            let f_pm1 = f.conjugate(ctx).mul(&f.invert(ctx).unwrap(), ctx);
            prop_assert_eq!(f_pm1.unitary_square(ctx), f_pm1.square(ctx));
            let g = curve.generator();
            let e = curve.pairing(&curve.g1_mul(&g, &scalar(curve, ra)), &curve.g1_mul(&g, &scalar(curve, rb)));
            prop_assert_eq!(e.square(curve).0, e.0.square(ctx));
        }

        #[test]
        fn final_exponentiation_matches_binary(c0 in any::<[u64; 8]>(), c1 in any::<[u64; 8]>()) {
            let curve = toy64();
            let f = fp2(curve, c0, c1);
            prop_assume!(!f.is_zero());
            prop_assert_eq!(curve.final_exponentiation(&f).0, final_exponentiation_binary(curve, &f));
        }

        #[test]
        fn gt_powers_match_binary_pow(e in any::<[u64; 4]>(), ra in any::<[u64; 4]>()) {
            let curve = toy64();
            let ctx = curve.fp();
            let g = curve.generator();
            let base = curve.pairing(&g, &curve.g1_mul(&g, &scalar(curve, ra)));
            let table = GtPrecomp::new(curve, &base);
            let q = *curve.order();
            let edges = [0u64, 1, 2, 15, 16, 17, 31, 32, 33, u64::MAX].map(U256::from_u64);
            for e in [U256::from_limbs(e), scalar(curve, e), q.wrapping_sub(&U256::ONE), q, U256::MAX].into_iter().chain(edges) {
                let expect = Gt(base.0.pow(&e, ctx));
                prop_assert_eq!(base.pow(&e, curve), expect);
                prop_assert_eq!(table.pow(&e, curve), expect);
            }
        }
    }

    #[test]
    fn kernels_spend_fewer_fp_muls() {
        // Deterministic op-count guard: a lost signed window or a reverted
        // binary final exponentiation raises these counts, whatever the
        // wall clock says. 2500 is the prepared toy64 pairing's count under
        // the binary final exponentiation.
        let curve = toy64();
        let ctx = curve.fp();
        let g = curve.generator();
        let p = curve.g1_mul(&g, &U256::from_u64(12_345));
        let q = curve.g1_mul(&g, &U256::from_u64(999));
        let prep = curve.prepare(&p);
        tre_obs::enable();
        let e = curve.pairing_prepared(&prep, &q);
        let prepared = tre_obs::finish().total_ops().fp_muls;
        assert!(
            prepared < 2500,
            "prepared toy64 pairing spent {prepared} Fp muls (binary final exponentiation: 2500)"
        );

        let exp = curve.order().wrapping_sub(&U256::ONE);
        assert_eq!(exp.bits(), 160);
        tre_obs::enable();
        let windowed = e.pow(&exp, curve);
        let window_muls = tre_obs::finish().total_ops().fp_muls;
        tre_obs::enable();
        let binary = Gt(e.0.pow(&exp, ctx));
        let binary_muls = tre_obs::finish().total_ops().fp_muls;
        assert_eq!(windowed, binary);
        assert!(
            window_muls < binary_muls,
            "160-bit G_T power spent {window_muls} Fp muls, binary ladder {binary_muls}"
        );
    }
}
