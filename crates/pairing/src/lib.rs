#![warn(missing_docs)]
//! # tre-pairing
//!
//! A from-scratch Gap Diffie-Hellman group with a symmetric ("Type-1")
//! bilinear pairing, instantiating exactly the setting of Chan & Blake
//! (ICDCS 2005): the supersingular curve `E : y² = x³ + x` over `F_p`
//! (`p ≡ 3 (mod 4)`, embedding degree 2), the distortion map
//! `φ(x, y) = (−x, i·y)`, and the reduced Tate pairing
//! `ê : G1 × G1 → G_T ⊂ F_{p²}^*` computed with Miller's algorithm and
//! BKLS denominator elimination.
//!
//! Three embedded parameter sets ([`toy64`], [`mid96`], [`high128`]) are
//! generated deterministically by the `gen-params` binary.
//!
//! # Example
//!
//! ```
//! let curve = tre_pairing::toy64();
//! let mut rng = rand::thread_rng();
//! let g = curve.generator();
//! let (a, b) = (curve.random_scalar(&mut rng), curve.random_scalar(&mut rng));
//! // Bilinearity: ê(aG, bG) = ê(G, G)^{ab}
//! let lhs = curve.pairing(&curve.g1_mul(&g, &a), &curve.g1_mul(&g, &b));
//! let rhs = curve.pairing(&g, &g).pow(&curve.scalar_mul(&a, &b), curve);
//! assert_eq!(lhs, rhs);
//! ```
//!
//! ⚠️ Variable-time research code — see the workspace README.

mod batch;
mod curve;
mod fp;
mod hash;
mod pairing;
mod params;
mod precomp;

pub use batch::{bisect, EXPONENT_BITS as BATCH_EXPONENT_BITS};
pub use curve::{Curve, DecodePointError, G1Affine};
pub use fp::{Fp, Fp2, FpCtx};
pub use pairing::{Gt, GtPrecomp, MillerPrecomp};
pub use params::{high128, mid96, toy64, CurveHigh128, CurveMid96, CurveToy64};
pub use precomp::G1Precomp;
