#![warn(missing_docs)]
//! # tre-bigint
//!
//! Fixed-width big-integer and modular arithmetic substrate for the
//! timed-release cryptography reproduction (Chan & Blake, ICDCS 2005).
//!
//! Everything downstream — the pairing-friendly finite fields, the
//! supersingular curve, the RSW time-lock puzzle baseline — is built on the
//! four pieces exported here:
//!
//! * [`Uint`] — `L`-limb unsigned integers with widening multiplication and
//!   long division;
//! * [`MontyParams`] — Montgomery-domain arithmetic for odd moduli
//!   (multiplication, exponentiation, inversion);
//! * [`mod_inverse`] — binary extended GCD inversion;
//! * [`prime`] — Miller-Rabin testing, prime generation, Jacobi symbols and
//!   square roots mod `p ≡ 3 (mod 4)`;
//! * [`numtheory`] — GCD, LCM, and CRT recombination.
//!
//! # Example
//!
//! ```
//! use tre_bigint::{MontyParams, Uint};
//!
//! type U256 = Uint<4>;
//! let p = U256::from_u64(1_000_003); // a prime
//! let ctx = MontyParams::new(p).expect("odd modulus");
//! let x = ctx.to_monty(&U256::from_u64(2));
//! // 2^20 mod 1000003
//! let y = ctx.from_monty(&ctx.pow(&x, &U256::from_u64(20)));
//! assert_eq!(y, U256::from_u64(1048576 % 1_000_003));
//! ```
//!
//! ⚠️ Arithmetic is **variable time**: this workspace is a research
//! reproduction, not hardened production cryptography.

mod modinv;
mod monty;
pub mod numtheory;
pub mod prime;
mod slicearith;
mod uint;

pub use modinv::mod_inverse;
pub use monty::MontyParams;
pub use uint::{ParseUintError, Uint, MAX_LIMBS};

/// 256-bit unsigned integer (4 limbs) — scalars and small-field work.
pub type U256 = Uint<4>;
/// 512-bit unsigned integer (8 limbs) — `toy64` base field.
pub type U512 = Uint<8>;
/// 1024-bit unsigned integer (16 limbs) — `mid96` base field.
pub type U1024 = Uint<16>;
/// 1536-bit unsigned integer (24 limbs) — `high128` base field.
pub type U1536 = Uint<24>;
/// 2048-bit unsigned integer (32 limbs) — RSW time-lock RSA moduli.
pub type U2048 = Uint<32>;
