//! The Mont et al. / Boneh-Franklin per-user IBE timed release (§2.2):
//! a sender encrypts to the identity string `ID ‖ T`; at time `T` the
//! server extracts and **individually delivers** `s·H1(ID‖T)` to every
//! registered user.
//!
//! This is the O(N)-per-epoch baseline for the scalability experiment E2
//! (versus the paper's single broadcast update), and it has inherent key
//! escrow (the server can extract anyone's key).

use rand::RngCore;
use tre_core::{ServerKeyPair, ServerPublicKey};
use tre_pairing::{Curve, G1Affine};

const MASK_DOMAIN: &[u8] = b"baseline/mont/mask";

/// A Boneh-Franklin-style ciphertext to identity `ID` at time `T`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MontCiphertext<const L: usize> {
    u: G1Affine<L>,
    v: Vec<u8>,
}

/// The Mont et al. time-vault server: same key material as a TRE time
/// server, plus a registry of users it must serve **individually**.
pub struct MontServer<'c, const L: usize> {
    curve: &'c Curve<L>,
    keys: ServerKeyPair<L>,
    registered: Vec<String>,
    unicasts: u64,
}

fn timed_identity(id: &str, epoch: u64) -> Vec<u8> {
    let mut v = id.as_bytes().to_vec();
    v.push(0);
    v.extend_from_slice(&epoch.to_be_bytes());
    v
}

impl<'c, const L: usize> MontServer<'c, L> {
    /// Boots the server.
    pub fn new(curve: &'c Curve<L>, rng: &mut (impl RngCore + ?Sized)) -> Self {
        Self {
            curve,
            keys: ServerKeyPair::generate(curve, rng),
            registered: Vec::new(),
            unicasts: 0,
        }
    }

    /// The server public key.
    pub fn public_key(&self) -> &ServerPublicKey<L> {
        self.keys.public()
    }

    /// Registers a user — the server must know every receiver to serve
    /// them their epoch keys (contrast: the TRE server is unaware users
    /// exist).
    pub fn register(&mut self, id: &str) {
        self.registered.push(id.to_string());
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.registered.len()
    }

    /// Runs one epoch rollover: extracts and unicasts the epoch private
    /// key for **every** registered user. Returns the `(id, key)` pairs —
    /// O(N) scalar multiplications and O(N) transmissions.
    pub fn epoch_rollover(&mut self, epoch: u64) -> Vec<(String, G1Affine<L>)> {
        let mut out = Vec::with_capacity(self.registered.len());
        for id in &self.registered {
            let h = self
                .curve
                .hash_to_g1(b"mont/id", &timed_identity(id, epoch));
            let key = self.curve.g1_mul(&h, self.keys.secret_scalar());
            self.unicasts += 1;
            out.push((id.clone(), key));
        }
        out
    }

    /// Bytes the server transmits for one epoch (per-user unicast total).
    pub fn epoch_bytes(&self) -> usize {
        self.registered.len() * self.curve.point_len()
    }

    /// Total unicast transmissions so far.
    pub fn unicasts(&self) -> u64 {
        self.unicasts
    }

    /// Key escrow in action: the server decrypts any user's traffic.
    pub fn escrow_decrypt(&self, id: &str, epoch: u64, ct: &MontCiphertext<L>) -> Vec<u8> {
        let h = self
            .curve
            .hash_to_g1(b"mont/id", &timed_identity(id, epoch));
        let key = self.curve.g1_mul(&h, self.keys.secret_scalar());
        decrypt(self.curve, &key, ct)
    }
}

/// Sender-side BF-IBE encryption to `(id, epoch)` under the server public
/// key — non-interactive, like TRE.
pub fn encrypt<const L: usize>(
    curve: &Curve<L>,
    server: &ServerPublicKey<L>,
    id: &str,
    epoch: u64,
    msg: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> MontCiphertext<L> {
    let h = curve.hash_to_g1(b"mont/id", &timed_identity(id, epoch));
    let r = curve.random_scalar(rng);
    let k = curve.pairing(server.s_g(), &h).pow(&r, curve);
    let mask = curve.gt_kdf(&k, MASK_DOMAIN, msg.len());
    MontCiphertext {
        u: curve.g1_mul(server.g(), &r),
        v: msg.iter().zip(&mask).map(|(m, k)| m ^ k).collect(),
    }
}

/// Receiver-side decryption with the unicast epoch key `s·H1(ID‖T)`.
pub fn decrypt<const L: usize>(
    curve: &Curve<L>,
    epoch_key: &G1Affine<L>,
    ct: &MontCiphertext<L>,
) -> Vec<u8> {
    let k = curve.pairing(&ct.u, epoch_key);
    let mask = curve.gt_kdf(&k, MASK_DOMAIN, ct.v.len());
    ct.v.iter().zip(&mask).map(|(c, k)| c ^ k).collect()
}

impl<const L: usize> MontCiphertext<L> {
    /// Wire size in bytes.
    pub fn size(&self, curve: &Curve<L>) -> usize {
        curve.point_len() + self.v.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_pairing::toy64;

    #[test]
    fn roundtrip_via_unicast_key() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let mut server = MontServer::new(curve, &mut rng);
        server.register("alice");
        server.register("bob");
        let ct = encrypt(
            curve,
            server.public_key(),
            "alice",
            7,
            b"vault doc",
            &mut rng,
        );
        let keys = server.epoch_rollover(7);
        assert_eq!(keys.len(), 2, "one key per registered user");
        let alice_key = &keys.iter().find(|(id, _)| id == "alice").unwrap().1;
        assert_eq!(decrypt(curve, alice_key, &ct), b"vault doc");
        // Bob's key does not open Alice's message.
        let bob_key = &keys.iter().find(|(id, _)| id == "bob").unwrap().1;
        assert_ne!(decrypt(curve, bob_key, &ct), b"vault doc");
    }

    #[test]
    fn server_cost_scales_with_users() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let mut server = MontServer::new(curve, &mut rng);
        for i in 0..10 {
            server.register(&format!("user{i}"));
        }
        server.epoch_rollover(0);
        server.epoch_rollover(1);
        assert_eq!(server.unicasts(), 20, "O(N) per epoch");
        assert_eq!(server.epoch_bytes(), 10 * curve.point_len());
    }

    #[test]
    fn epoch_keys_are_epoch_specific() {
        use rand::SeedableRng;
        let curve = toy64();
        let mut rng = rand::rngs::StdRng::seed_from_u64(185);
        let mut server = MontServer::new(curve, &mut rng);
        server.register("alice");
        // 32 bytes: a wrong key leaves a plaintext unchanged with
        // probability 2^-256, not the 1/256 of a one-byte message.
        let msg = b"epoch 8 vault document, 32 bytes";
        let ct = encrypt(curve, server.public_key(), "alice", 8, msg, &mut rng);
        let wrong_epoch_key = &server.epoch_rollover(7)[0].1;
        assert_ne!(decrypt(curve, wrong_epoch_key, &ct), msg);
        let right_epoch_key = &server.epoch_rollover(8)[0].1;
        assert_eq!(decrypt(curve, right_epoch_key, &ct), msg);
    }

    #[test]
    fn escrow_is_inherent() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let mut server = MontServer::new(curve, &mut rng);
        server.register("alice");
        let ct = encrypt(curve, server.public_key(), "alice", 3, b"private", &mut rng);
        assert_eq!(server.escrow_decrypt("alice", 3, &ct), b"private");
    }
}
