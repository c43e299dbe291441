//! The one admission rule for key updates. The server issues exactly one
//! valid `I_T = s·H1(T)` per epoch, the same for every user (§5.1,
//! §5.3.1), so bytes identify an update: a copy of the update known for
//! its tag is a duplicate, and other bytes are evidence of forgery or
//! equivocation. [`PreparedServerKey::admit`] applies that rule to a
//! burst and verifies the rest in one burst check. The
//! [`crate::Receiver`] (and through it `tre-server`'s client) and the
//! relay call it and keep only their own bookkeeping.

use std::borrow::Borrow;
use std::collections::HashMap;

use tre_pairing::Curve;

use crate::keys::{KeyUpdate, PreparedServerKey, VerifyForecast};

/// What the admission rule decided for one update of a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The first copy of an unknown tag, and it verified: admit it.
    Fresh,
    /// The bytes of the update known for its tag, or of an earlier copy
    /// in the burst that verified: skipped without crypto.
    Duplicate,
    /// Other bytes than the update known for its tag, or one of two
    /// different copies of a tag within the burst. In the second case
    /// every copy of that tag is an equivocation and none is verified.
    Equivocation,
    /// Failed self-authentication, as does every identical copy of it in
    /// the burst.
    Invalid,
}

impl<const L: usize> PreparedServerKey<L> {
    /// Admits a burst of key updates and returns one verdict per update,
    /// in input order.
    ///
    /// `known(i)` is the update already admitted for `burst[i]`'s tag, if
    /// any. Updates are screened by bytes first, with no crypto (see
    /// [`Admission`]). The first copy of each fresh tag then goes into
    /// one [`PreparedServerKey::verify_burst`] call, under a
    /// `client.batch_verify` span: 2 pairing lanes for a clean burst of
    /// any size. `forecast` is asked once, with the burst indices of the
    /// updates about to be verified, for the [`VerifyForecast`] to verify
    /// them with; only a lone update whose tag it matches uses it (one
    /// lane). When nothing is fresh, nothing is verified or asked.
    pub fn admit<K: Borrow<KeyUpdate<L>>>(
        &self,
        curve: &Curve<L>,
        burst: &[KeyUpdate<L>],
        known: impl Fn(usize) -> Option<K>,
        forecast: impl FnOnce(&[usize]) -> Option<VerifyForecast<L>>,
        threads: usize,
    ) -> Vec<Admission> {
        let (mut verdicts, first) = screen(burst, known);
        let fresh: Vec<usize> = (0..burst.len())
            .filter(|&i| verdicts[i] == Admission::Fresh)
            .collect();
        if fresh.is_empty() {
            return verdicts;
        }
        let copies: Vec<KeyUpdate<L>>;
        let updates = if fresh.len() == burst.len() {
            burst
        } else {
            copies = fresh.iter().map(|&i| burst[i].clone()).collect();
            &copies
        };
        let _span = tre_obs::span("client.batch_verify");
        let rejected = self.verify_burst(curve, updates, forecast(&fresh).as_ref(), threads);
        if tre_obs::is_enabled() {
            let detail = format!("n={} invalid={}", fresh.len(), rejected.len());
            tre_obs::event("client.batch_verified", &detail);
        }
        for k in rejected {
            verdicts[fresh[k]] = Admission::Invalid;
        }
        // An in-burst copy of a rejected update has the same bytes.
        for (i, &j) in first.iter().enumerate() {
            if verdicts[j] == Admission::Invalid {
                verdicts[i] = Admission::Invalid;
            }
        }
        verdicts
    }
}

/// The byte half of [`PreparedServerKey::admit`], leaving first copies
/// `Fresh` unverified, and per update the index of its tag's first copy
/// in the burst (its own if the tag is known).
pub(crate) fn screen<const L: usize, K: Borrow<KeyUpdate<L>>>(
    burst: &[KeyUpdate<L>],
    known: impl Fn(usize) -> Option<K>,
) -> (Vec<Admission>, Vec<usize>) {
    let mut verdicts = Vec::with_capacity(burst.len());
    let mut first = Vec::with_capacity(burst.len());
    let mut firsts = HashMap::new();
    for (i, update) in burst.iter().enumerate() {
        let (j, verdict) = match known(i) {
            Some(k) if k.borrow() == update => (i, Admission::Duplicate),
            Some(_) => (i, Admission::Equivocation),
            // A lone update has no other copy to meet.
            None if burst.len() == 1 => (i, Admission::Fresh),
            None => match *firsts.entry(update.tag()).or_insert(i) {
                j if j == i => (i, Admission::Fresh),
                j if burst[j] == *update => (j, Admission::Duplicate),
                j => {
                    verdicts[j] = Admission::Equivocation;
                    (j, Admission::Equivocation)
                }
            },
        };
        verdicts.push(verdict);
        first.push(j);
    }
    // No copy of a tag seen with two different byte strings is trusted,
    // including copies identical to the first.
    for (i, &j) in first.iter().enumerate() {
        if verdicts[j] == Admission::Equivocation {
            verdicts[i] = Admission::Equivocation;
        }
    }
    (verdicts, first)
}
