#![warn(missing_docs)]
//! # tre-core
//!
//! The primary contribution of Chan & Blake, *Scalable, Server-Passive,
//! User-Anonymous Timed Release Cryptography* (ICDCS 2005), implemented
//! over the from-scratch Gap Diffie-Hellman pairing in `tre-pairing`.
//!
//! ## What's here
//!
//! * [`keys`] — server keys `(G, sG)`, user keys `(aG, a·sG)`, and the
//!   self-authenticating time-bound key update `I_T = s·H1(T)` (a BLS short
//!   signature, identical for all users — the scalability core of the paper).
//! * [`tre`] — the basic §5.1 scheme (one-way/CPA).
//! * [`fo`] / [`react`] — the two CCA hardenings the paper points to
//!   (Fujisaki-Okamoto and REACT).
//! * [`hybrid`] — KEM-DEM mode with the ChaCha20-Poly1305 DEM.
//! * [`idtre`] — the §5.2 identity-based variant (inherent key escrow).
//! * [`insulated`] — §5.3.3 key insulation via per-epoch keys `a·I_T`.
//! * [`server_change`] — §5.3.4 re-binding to a new time server without
//!   re-certification.
//! * [`multi_server`] — §5.3.5 splitting trust across N time servers.
//! * [`policy`] — §5.3.2 policy locks and conjunctions of conditions.
//! * [`resilient`] — the §6 *future work*: missing-update resilience via a
//!   binary cover tree (one latest broadcast unlocks all past epochs).
//! * [`threshold`] — k-of-N threshold multi-server mode (Shamir over the
//!   scalar field), trading §5.3.5's all-N requirement for availability.
//! * [`failover`] — graceful degradation on top of [`threshold`]: faulty
//!   updates are demoted to missing with per-server verdicts, so up to
//!   `N − k` crashed *or Byzantine* servers are survivable.
//! * [`committee`] — the live t-of-n committee form of §5.3.5: dealer
//!   setup Shamir-splits the master secret, members publish per-epoch
//!   key-update shares `s_i·H1(T)`, and receivers verify shares against
//!   public commitments and Lagrange-interpolate in the exponent to
//!   recover `I_T` from any k of n — senders are oblivious.
//!
//! * [`session`] — the [`Sender`]/[`Receiver`] session API: key
//!   validation and update verification happen once and become state;
//!   it is the only way to seal and open the basic scheme of [`tre`].
//! * [`admission`] — the one admission rule for key updates, which the
//!   receiver and `tre-server`'s client and relay all call.
//!
//! ## Quickstart
//!
//! ```
//! use tre_core::{keys::ServerKeyPair, tag::ReleaseTag, Receiver, Sender};
//!
//! let curve = tre_pairing::toy64();
//! let mut rng = rand::thread_rng();
//!
//! // A passive time server and a receiver bound to it.
//! let server = ServerKeyPair::generate(curve, &mut rng);
//! let mut alice = Receiver::generate(curve, *server.public(), &mut rng);
//!
//! // Sender encrypts for a future instant — no server interaction.
//! let sender = Sender::new(curve, server.public(), alice.public_key())?;
//! let tag = ReleaseTag::time("2026-07-04T12:00:00Z");
//! let ct = sender.encrypt(&tag, b"sealed bid: $1M", &mut rng);
//!
//! // At noon the server broadcasts one update for *all* users...
//! let update = server.issue_update(curve, &tag);
//! // ...and once Alice has verified it, she can decrypt.
//! alice.observe_update(update)?;
//! assert_eq!(alice.open(&ct)?, b"sealed bid: $1M");
//! # Ok::<(), tre_core::TreError>(())
//! ```

pub mod admission;
pub mod committee;
pub mod error;
pub mod failover;
pub mod fo;
pub mod hybrid;
pub mod idtre;
pub mod insulated;
pub mod keys;
pub mod multi_server;
pub mod policy;
pub mod react;
pub mod resilient;
pub mod server_change;
pub mod session;
pub mod tag;
pub mod threshold;
pub mod tre;

pub use admission::Admission;
pub use committee::{
    aggregate_shares, dealer_setup, dealer_setup_with_generator, verify_and_aggregate,
    verify_share_batch, CommitteeMember, CommitteeRoster, MemberVerdict, ShareFault,
};
pub use error::TreError;
pub use keys::{
    KeyUpdate, PreparedServerKey, SenderPrecomp, ServerKeyPair, ServerPublicKey, TagForecast,
    UserKeyPair, UserPublicKey, VerifyForecast,
};
pub use session::{Receiver, Sender};
pub use tag::{ReleaseTag, TagKind};
