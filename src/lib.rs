#![warn(missing_docs)]
//! # tre — timed release cryptography
//!
//! A full reproduction of Chan & Blake, *Scalable, Server-Passive,
//! User-Anonymous Timed Release Cryptography* (ICDCS 2005), built from
//! scratch in Rust: big integers → finite fields → a supersingular
//! pairing → the TRE schemes → a passive-time-server runtime → every
//! baseline the paper compares against.
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency. See the member crates for details:
//!
//! | crate | contents |
//! |---|---|
//! | [`bigint`] | fixed-width integers, Montgomery arithmetic, primes |
//! | [`hashes`] | SHA-2, HMAC, HKDF, XOF, HMAC-DRBG |
//! | [`pairing`] | Gap-DH group, Tate pairing, hash-to-curve |
//! | [`sym`] | ChaCha20-Poly1305 DEM |
//! | [`core`] | the paper's schemes (TRE, ID-TRE, FO, REACT, hybrid, policy locks, key insulation, multi-server) |
//! | [`server`] | passive time server, simulated world, archive, clients, the `tred` TCP daemon |
//! | [`wire`] | the versioned wire framing every network object ships in |
//! | [`baselines`] | RSW puzzle, May escrow, Rivest servers, per-user IBE, PKE+IBE |
//! | [`obs`] | metrics registry, span tracing, crypto cost accounting |
//!
//! # Quickstart
//!
//! ```
//! use tre::prelude::*;
//!
//! let curve = tre::pairing::toy64();
//! let mut rng = rand::thread_rng();
//! let server = ServerKeyPair::generate(curve, &mut rng);
//! let mut alice = Receiver::generate(curve, *server.public(), &mut rng);
//!
//! let tag = ReleaseTag::time("2027-01-01T00:00:00Z");
//! let ct = Sender::new(curve, server.public(), alice.public_key())?
//!     .encrypt(&tag, b"happy new year", &mut rng);
//! let update = server.issue_update(curve, &tag); // broadcast once, for everyone
//! assert_eq!(alice.open_with(&update, &ct)?, b"happy new year");
//! # Ok::<(), TreError>(())
//! ```

pub use tre_baselines as baselines;
pub use tre_bigint as bigint;
pub use tre_core as core;
pub use tre_hashes as hashes;
pub use tre_obs as obs;
pub use tre_pairing as pairing;
pub use tre_server as server;
pub use tre_sym as sym;
pub use tre_wire as wire;

/// The most common imports in one place.
pub mod prelude {
    pub use tre_core::{
        KeyUpdate, Receiver, ReleaseTag, Sender, ServerKeyPair, ServerPublicKey, TreError,
        UserKeyPair, UserPublicKey,
    };
    pub use tre_server::{Feed, Granularity, ReceiverClient, SimClock, TimeServer};
    pub use tre_wire::Wire;
}
