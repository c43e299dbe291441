//! The receiver side of a live threshold committee: collect per-member
//! key-update shares from n supervised member connections, verify them
//! against the roster's share commitments, quarantine Byzantine members
//! with per-member verdicts, and Lagrange-aggregate any k valid shares
//! into the full epoch update `I_T = s·H1(T)`.
//!
//! Two pieces:
//!
//! * [`ShareCollector`] — the transport-free quorum state machine:
//!   ingest `(epoch, member, share)` triples from anywhere, get back the
//!   aggregated [`KeyUpdate`] the moment an epoch's quorum closes, plus
//!   per-member [`MemberVerdict`]s and health counters. Shares are
//!   screened structurally first (off-roster index, wrong tag,
//!   equivocation — no pairings spent), then pairing-verified in
//!   batches of at most `k`, so a clean epoch costs one `(k+1)`-lane
//!   multi-pairing and aggregation itself costs **zero** pairings.
//! * [`CommitteeFeed`] — the live transport: one [`SupervisedFeed`] per
//!   committee member (reconnect supervision, backoff, catch-up gap
//!   repair — identical machinery to the single-server feed), a single
//!   shared collector, and a [`Feed`] implementation that fans the
//!   aggregated updates out to any number of logical subscribers. A
//!   [`crate::ReceiverClient`] pumps a `CommitteeFeed` exactly as it
//!   pumps a single-server [`crate::TcpFeed`] — the committee is
//!   invisible above the feed line, just as it is to senders.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tre_core::committee::{CommitteeRoster, MemberVerdict, ShareFault};
use tre_core::{aggregate_shares, verify_share_batch, KeyUpdate, TreError};
use tre_pairing::Curve;

use crate::clock::{Granularity, SimClock};
use crate::feed::{Feed, SubscriberId};
use crate::metrics::LatencyHistogram;
use crate::supervised::{SupervisedFeed, SupervisorConfig};
use crate::tcp::TcpFeed;

/// Tuning knobs for the collector's quorum tracking.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// How long an epoch may sit below quorum (measured from its first
    /// share) before it is counted as timed out. A timed-out epoch is
    /// *not* abandoned — a late share still closes it (liveness resumes
    /// on heal) — but the timeout is surfaced in
    /// [`CommitteeStats::quorum_timeouts`] and the missing members are
    /// visible in the epoch's verdicts.
    pub quorum_timeout: Duration,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            quorum_timeout: Duration::from_secs(5),
        }
    }
}

tre_obs::metrics! {
    /// Health counters for committee share collection and aggregation.
    ///
    /// Share-frame conservation: every ingested frame resolves into exactly
    /// one of the two terminal counters, so
    /// `shares_received == shares_admitted + shares_dropped`
    /// holds at every instant. (An equivocator's *first* share stays
    /// `admitted` even after conviction evicts it from the candidate pool —
    /// the identity accounts ingest events, not pool membership.)
    #[derive(Debug, Clone, Default)]
    pub struct CommitteeStats {
        /// Share frames ingested (any provenance, including duplicates).
        pub shares_received: u64,
        /// Frames that entered an epoch's candidate pool as a member's
        /// first structurally-clean share.
        pub shares_admitted: u64,
        /// Frames that did not: unparseable tag, off-roster index,
        /// non-canonical tag bytes, already-convicted member, exact
        /// duplicate, or an equivocating second share.
        pub shares_dropped: u64,
        /// Shares rejected, per member index: structural screening
        /// (wrong tag, equivocation) plus pairing failures. Each member is
        /// counted at most once per epoch per fault kind.
        pub shares_rejected: BTreeMap<u32, u64>,
        /// Epochs whose quorum closed with an aggregated update.
        pub epochs_aggregated: u64,
        /// Pairing lanes spent in verification batches, assuming the clean
        /// path (a batch of m candidates is one (m+1)-lane multi-pairing;
        /// a single candidate is one 2-pairing check). Exact whenever no
        /// Byzantine share forces bisection re-checks — the basis of the
        /// "≤ k+1 pairings per aggregated epoch" guard in clean runs.
        pub aggregation_pairings: u64,
        /// Verification batches run.
        pub verify_batches: u64,
        /// Epochs that sat below quorum past the timeout (counted once per
        /// epoch; the epoch can still close later).
        pub quorum_timeouts: u64,
        /// Member connections whose committee greeting announced a
        /// different index than the roster slot dialed.
        pub hello_mismatches: u64,
        /// Shares dropped because they arrived on a connection belonging to
        /// a *different* member — an impersonation attempt is charged to
        /// the link, never to the member whose index was claimed.
        pub misattributed_shares: u64,
        /// Milliseconds from an epoch's first share to its aggregation.
        pub quorum_latency: LatencyHistogram,
        /// Per-member share-arrival offsets: milliseconds from an epoch's
        /// first share to this member's admitted share. The epoch's opener
        /// records 0; a straggler's growing tail here (against a flat
        /// [`CommitteeStats::quorum_latency`]) attributes quorum slowness
        /// to the member rather than the collector.
        #[metric(name = "share_arrival_ms")]
        pub share_arrival: BTreeMap<u32, LatencyHistogram>,
    }
}

/// Per-epoch quorum state.
struct EpochState<const L: usize> {
    /// First structurally-clean share accepted per member.
    first: BTreeMap<u32, KeyUpdate<L>>,
    /// Convicted members and why. A convicted member's share never
    /// enters (or is evicted from) the candidate pool.
    faults: BTreeMap<u32, ShareFault>,
    /// Off-roster indices that submitted to this epoch.
    unknown: BTreeSet<u32>,
    /// Pairing-verified shares, in verification order.
    valid: Vec<(u32, KeyUpdate<L>)>,
    /// Clean candidates awaiting pairing verification.
    pending: Vec<u32>,
    /// When the first share for this epoch arrived.
    first_share_at: Instant,
    /// Whether this epoch already aggregated.
    done: bool,
    /// Whether this epoch's quorum timeout already fired.
    timed_out: bool,
}

impl<const L: usize> EpochState<L> {
    fn new(now: Instant) -> Self {
        Self {
            first: BTreeMap::new(),
            faults: BTreeMap::new(),
            unknown: BTreeSet::new(),
            valid: Vec::new(),
            pending: Vec::new(),
            first_share_at: now,
            done: false,
            timed_out: false,
        }
    }
}

/// The transport-free committee quorum state machine: feed it
/// `(epoch, member, share)` triples, get aggregated updates and
/// per-member verdicts out. See the module docs for the verification
/// economics.
pub struct ShareCollector<const L: usize> {
    curve: &'static Curve<L>,
    roster: CommitteeRoster<L>,
    granularity: Granularity,
    config: CollectorConfig,
    epochs: BTreeMap<u64, EpochState<L>>,
    stats: CommitteeStats,
}

impl<const L: usize> ShareCollector<L> {
    /// A collector for `roster`, mapping share tags to epochs with
    /// `granularity`.
    pub fn new(
        curve: &'static Curve<L>,
        roster: CommitteeRoster<L>,
        granularity: Granularity,
        config: CollectorConfig,
    ) -> Self {
        Self {
            curve,
            roster,
            granularity,
            config,
            epochs: BTreeMap::new(),
            stats: CommitteeStats::default(),
        }
    }

    /// The roster this collector verifies against.
    pub fn roster(&self) -> &CommitteeRoster<L> {
        &self.roster
    }

    /// Health counters.
    pub fn stats(&self) -> &CommitteeStats {
        &self.stats
    }

    /// Epochs with at least one share but no aggregated update yet.
    pub fn pending_epochs(&self) -> Vec<u64> {
        self.epochs
            .iter()
            .filter(|(_, s)| !s.done)
            .map(|(e, _)| *e)
            .collect()
    }

    /// Per-member verdicts for `epoch`, in roster order (off-roster
    /// submitters appended): `None` fault for members whose share
    /// verified (or, pre-quorum, is still unverified), [`ShareFault`]
    /// otherwise. Returns an all-[`ShareFault::Missing`] roster if the
    /// epoch has no state yet.
    pub fn verdicts(&self, epoch: u64) -> Vec<MemberVerdict> {
        let state = self.epochs.get(&epoch);
        let mut out: Vec<MemberVerdict> = (1..=self.roster.n())
            .map(|member| MemberVerdict {
                member,
                fault: match state {
                    None => Some(ShareFault::Missing),
                    Some(s) => match s.faults.get(&member) {
                        Some(&fault) => Some(fault),
                        None if !s.first.contains_key(&member) => Some(ShareFault::Missing),
                        None => None,
                    },
                },
            })
            .collect();
        if let Some(s) = state {
            out.extend(s.unknown.iter().map(|&member| MemberVerdict {
                member,
                fault: Some(ShareFault::UnknownMember),
            }));
        }
        out
    }

    /// Charges one rejection to `member` and records the fault, once
    /// per (epoch, member): re-convicting an already-faulted member
    /// (e.g. an equivocator who keeps sending) does not inflate counts.
    fn convict(
        stats: &mut CommitteeStats,
        state: &mut EpochState<L>,
        member: u32,
        fault: ShareFault,
    ) {
        if state.faults.insert(member, fault).is_none() {
            *stats.shares_rejected.entry(member).or_insert(0) += 1;
            if tre_obs::is_enabled() {
                tre_obs::event(
                    "committee.share_rejected",
                    &format!("member={member} fault={fault:?}"),
                );
            }
        }
    }

    /// Ingests one share frame. Returns the aggregated epoch update if
    /// this share closed its epoch's quorum, `None` otherwise
    /// (duplicate, faulty, below quorum, or epoch already closed).
    pub fn ingest(&mut self, member: u32, share: KeyUpdate<L>) -> Option<(u64, KeyUpdate<L>)> {
        self.stats.shares_received += 1;
        let Some(epoch) = self.granularity.epoch_of_tag(share.tag()) else {
            self.stats.shares_dropped += 1;
            return None;
        };
        let now = Instant::now();
        let state = self
            .epochs
            .entry(epoch)
            .or_insert_with(|| EpochState::new(now));

        if self.roster.commitment(member).is_none() {
            state.unknown.insert(member);
            self.stats.shares_dropped += 1;
            return None;
        }
        // Tag canonical-form check: epoch_of_tag proved the epoch, but a
        // Byzantine member could submit a tag that *parses* to this
        // epoch yet differs in bytes from what honest members sign.
        if share.tag() != &self.granularity.tag_for_epoch(epoch) {
            Self::convict(&mut self.stats, state, member, ShareFault::TagMismatch);
            self.stats.shares_dropped += 1;
            return None;
        }
        if state.faults.contains_key(&member) {
            self.stats.shares_dropped += 1;
            return None; // already convicted for this epoch
        }
        match state.first.get(&member) {
            None => {
                state.first.insert(member, share);
                if !state.done {
                    state.pending.push(member);
                }
                self.stats.shares_admitted += 1;
                // Attribute this member's arrival relative to the
                // epoch's first share (the opener records 0).
                let offset_ms = now
                    .saturating_duration_since(state.first_share_at)
                    .as_millis();
                self.stats
                    .share_arrival
                    .entry(member)
                    .or_default()
                    .record(offset_ms as u64);
            }
            Some(known) if known == &share => {
                self.stats.shares_dropped += 1;
                return None; // exact duplicate
            }
            Some(_) => {
                // Conflicting second share: cryptographic evidence of a
                // Byzantine member. Evict every copy, unverified.
                Self::convict(&mut self.stats, state, member, ShareFault::Equivocation);
                state.pending.retain(|m| *m != member);
                state.valid.retain(|(m, _)| *m != member);
                self.stats.shares_dropped += 1;
                return None;
            }
        }
        if state.done {
            return None;
        }

        // Verification phase: only once enough candidates are buffered
        // to possibly close the quorum, verify (up to) the first
        // k−|valid| of them as one batch — the clean path is one
        // (k+1)-lane multi-pairing per epoch, total.
        let k = self.roster.k() as usize;
        while state.valid.len() < k && state.valid.len() + state.pending.len() >= k {
            let take = k - state.valid.len();
            let batch: Vec<(u32, KeyUpdate<L>)> = state
                .pending
                .drain(..take)
                .map(|m| (m, state.first[&m].clone()))
                .collect();
            self.stats.verify_batches += 1;
            self.stats.aggregation_pairings += if batch.len() == 1 {
                2
            } else {
                batch.len() as u64 + 1
            };
            let tag = self.granularity.tag_for_epoch(epoch);
            for (verdict, cand) in verify_share_batch(self.curve, &self.roster, &tag, &batch)
                .into_iter()
                .zip(batch)
            {
                match verdict.fault {
                    None => state.valid.push(cand),
                    Some(fault) => Self::convict(&mut self.stats, state, verdict.member, fault),
                }
            }
        }
        if state.valid.len() < k {
            return None;
        }

        let tag = self.granularity.tag_for_epoch(epoch);
        match aggregate_shares(self.curve, &self.roster, &tag, &state.valid) {
            Ok(update) => {
                state.done = true;
                self.stats.epochs_aggregated += 1;
                let waited = state.first_share_at.elapsed().as_millis() as u64;
                self.stats.quorum_latency.record(waited);
                if tre_obs::is_enabled() {
                    tre_obs::event(
                        "committee.quorum_closed",
                        &format!("epoch={epoch} waited_ms={waited}"),
                    );
                }
                Some((epoch, update))
            }
            Err(_) => None, // unreachable: k distinct verified shares
        }
    }

    /// Fires the quorum timeout for any epoch that has sat below quorum
    /// longer than [`CollectorConfig::quorum_timeout`], returning the
    /// epochs newly marked. Timed-out epochs remain open — late shares
    /// still close them — but the stall is now observable.
    pub fn expire_stale(&mut self) -> Vec<u64> {
        let timeout = self.config.quorum_timeout;
        let mut fired = Vec::new();
        for (&epoch, state) in &mut self.epochs {
            if !state.done && !state.timed_out && state.first_share_at.elapsed() >= timeout {
                state.timed_out = true;
                self.stats.quorum_timeouts += 1;
                fired.push(epoch);
                if tre_obs::is_enabled() {
                    tre_obs::event("committee.quorum_timeout", &format!("epoch={epoch}"));
                }
            }
        }
        fired
    }
}

/// One supervised connection to one committee member daemon.
struct MemberLink<const L: usize> {
    member: u32,
    feed: SupervisedFeed<L>,
    sub: SubscriberId,
    /// Whether the greeting mismatch for this link was already counted.
    mismatch_counted: bool,
}

/// The live committee transport: supervises one connection per member,
/// funnels their [`tre_wire::KeyUpdateShare`] streams through a single
/// [`ShareCollector`], and hands the aggregated full updates to any
/// number of logical subscribers via [`Feed`]. No single member —
/// and no `n−k` members together, crashed or Byzantine — can stop the
/// stream or forge an update that survives verification.
pub struct CommitteeFeed<const L: usize> {
    collector: ShareCollector<L>,
    links: Vec<MemberLink<L>>,
    /// Per-logical-subscriber queues of aggregated updates.
    queues: Vec<VecDeque<(u64, KeyUpdate<L>)>>,
    clock: Option<SimClock>,
    polls: u64,
}

impl<const L: usize> CommitteeFeed<L> {
    /// Connects to the committee: one supervised, lazily-dialed link
    /// per `(member index, address)` pair — members that are down at
    /// construction time are picked up by reconnect supervision when
    /// they appear. `seed` derives each link's backoff jitter stream.
    pub fn new(
        curve: &'static Curve<L>,
        roster: CommitteeRoster<L>,
        granularity: Granularity,
        members: &[(u32, SocketAddr)],
        supervisor: SupervisorConfig,
        collector: CollectorConfig,
        seed: u64,
    ) -> Self {
        let links = members
            .iter()
            .map(|&(member, addr)| {
                let feed = TcpFeed::new(curve, addr);
                let mut feed =
                    SupervisedFeed::new(feed, granularity, supervisor, seed ^ u64::from(member));
                let sub = feed.subscribe_lazy();
                MemberLink {
                    member,
                    feed,
                    sub,
                    mismatch_counted: false,
                }
            })
            .collect();
        Self {
            collector: ShareCollector::new(curve, roster, granularity, collector),
            links,
            queues: Vec::new(),
            clock: None,
            polls: 0,
        }
    }

    /// Stamps aggregated updates with this clock instead of an internal
    /// poll counter (builder style), mirroring [`TcpFeed::with_clock`].
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Committee health counters.
    pub fn stats(&self) -> &CommitteeStats {
        self.collector.stats()
    }

    /// Per-member verdicts for `epoch` (see [`ShareCollector::verdicts`]).
    pub fn verdicts(&self, epoch: u64) -> Vec<MemberVerdict> {
        self.collector.verdicts(epoch)
    }

    /// Epochs with shares buffered but no quorum yet.
    pub fn pending_epochs(&self) -> Vec<u64> {
        self.collector.pending_epochs()
    }

    /// Per-member-link reconnect supervision counters, as
    /// `(member, stats)` pairs.
    pub fn member_stats(&self) -> Vec<(u32, crate::supervised::SupervisorStats)> {
        self.links
            .iter()
            .map(|l| (l.member, l.feed.stats()))
            .collect()
    }

    /// Publishes committee health plus the full per-member-link stack
    /// into a shared registry: collector counters under `<prefix>_*`,
    /// then for every member link its supervision counters
    /// (`<prefix>_member_<i>_supervisor_*`) and wrapped-feed counters
    /// (`<prefix>_member_<i>_feed_*`) — one scrape covers the quorum
    /// machine and all n transport legs.
    pub fn export_into(&self, registry: &mut tre_obs::Registry, prefix: &str) {
        self.collector.stats().export_into(registry, prefix);
        for link in &self.links {
            link.feed
                .export_into(registry, &format!("{prefix}_member_{}", link.member));
        }
    }

    /// Attaches an epoch-delivery [`crate::TraceSink`] to every member
    /// link, so `Telemetry` trailers emitted by member daemons stamp
    /// first-byte arrival and carry origin/publish context into the
    /// shared sink.
    pub fn set_trace_sink(&mut self, sink: crate::telemetry::TraceSink) {
        for link in &mut self.links {
            link.feed.set_trace_sink(sink.clone());
        }
    }

    /// The most recent wire trace context decoded for `epoch` on any
    /// member link (links are scanned in roster order).
    pub fn trace_for(&self, epoch: u64) -> Option<tre_wire::Telemetry> {
        self.links.iter().find_map(|l| l.feed.trace_for(epoch))
    }

    /// Pumps every member link once: supervised poll (reconnect/backoff/
    /// catch-up), greeting identity check, share ingestion, quorum
    /// timeout sweep. Newly aggregated updates are fanned out to every
    /// logical subscriber queue.
    fn pump_members(&mut self) {
        let stamp = match &self.clock {
            Some(clock) => clock.now(),
            None => self.polls,
        };
        for link in &mut self.links {
            let shares = link.feed.poll_shares(link.sub);
            // Identity check: the daemon greets with its claimed index
            // before any share; a mismatch means we dialed the wrong
            // process (misconfiguration or hijack) — count once.
            if !link.mismatch_counted
                && link
                    .feed
                    .announced_member(link.sub)
                    .is_some_and(|m| m != link.member)
            {
                link.mismatch_counted = true;
                self.collector.stats.hello_mismatches += 1;
            }
            for (_, claimed, share) in shares {
                // A share claiming another member's index, arriving on
                // this member's connection, is an impersonation attempt
                // by the *link's* owner: drop it without letting it
                // generate a verdict against the claimed member.
                if claimed != link.member {
                    self.collector.stats.misattributed_shares += 1;
                    continue;
                }
                if let Some((epoch, update)) = self.collector.ingest(claimed, share) {
                    for queue in &mut self.queues {
                        queue.push_back((stamp.max(epoch), update.clone()));
                    }
                }
            }
        }
        self.collector.expire_stale();
    }

    /// Requests a share replay of archived epochs `from..=to` from
    /// every currently-connected member (the committee-mode analogue of
    /// [`TcpFeed::request_catch_up`]; per-link supervision also issues
    /// targeted repairs on its own).
    ///
    /// # Errors
    /// [`TreError::Io`] (`NotConnected`) if *no* member link accepted
    /// the request.
    pub fn request_catch_up(&mut self, from: u64, to: u64) -> Result<(), TreError> {
        let mut any = false;
        for link in &mut self.links {
            any |= link.feed.request_catch_up(link.sub, from, to).is_ok();
        }
        if any {
            Ok(())
        } else {
            Err(TreError::Io(std::io::ErrorKind::NotConnected))
        }
    }
}

impl<const L: usize> Feed<L> for CommitteeFeed<L> {
    /// Registers a logical subscriber. Purely local: all n member
    /// connections are shared, so the committee's verification cost is
    /// paid once regardless of how many receivers subscribe — the same
    /// scalability shape as the single-server broadcast.
    fn subscribe(&mut self) -> SubscriberId {
        self.queues.push(VecDeque::new());
        SubscriberId::new(self.queues.len() - 1)
    }

    fn poll(&mut self, id: SubscriberId) -> Vec<(u64, KeyUpdate<L>)> {
        self.polls += 1;
        self.pump_members();
        self.queues[id.index()].drain(..).collect()
    }

    /// Fans the request to every connected member link; the `id` is a
    /// logical subscriber and carries no per-link meaning, so the range
    /// goes to all n legs (shares are deduplicated by the collector).
    fn request_catch_up(&mut self, _id: SubscriberId, from: u64, to: u64) -> Result<(), TreError> {
        CommitteeFeed::request_catch_up(self, from, to)
    }

    /// Up if *any* member link is up — the committee stream survives
    /// `n−k` legs being down, so a single live leg still makes progress
    /// (quorum willing).
    fn is_connected(&self, _id: SubscriberId) -> bool {
        self.links.iter().any(|l| l.feed.is_connected(l.sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ReceiverClient;
    use crate::server::TimeServer;
    use crate::tcp::{Tred, TredConfig};
    use tre_core::committee::{dealer_setup, CommitteeMember};
    use tre_core::{Sender, ServerKeyPair, UserKeyPair};
    use tre_pairing::toy64;

    fn committee(k: u32, n: u32) -> (CommitteeRoster<8>, Vec<CommitteeMember<8>>) {
        dealer_setup(toy64(), k, n, &mut rand::thread_rng())
    }

    fn collector(roster: CommitteeRoster<8>) -> ShareCollector<8> {
        ShareCollector::new(
            toy64(),
            roster,
            Granularity::Seconds,
            CollectorConfig::default(),
        )
    }

    fn share_for(member: &CommitteeMember<8>, epoch: u64) -> KeyUpdate<8> {
        member.issue_share(toy64(), &Granularity::Seconds.tag_for_epoch(epoch))
    }

    #[test]
    fn collector_closes_quorum_at_k_shares_with_k_plus_one_pairings() {
        let curve = toy64();
        let (roster, members) = committee(3, 5);
        let mut collector = collector(roster.clone());

        assert!(collector.ingest(1, share_for(&members[0], 1)).is_none());
        assert!(collector.ingest(2, share_for(&members[1], 1)).is_none());
        assert_eq!(collector.pending_epochs(), vec![1]);
        let (epoch, update) = collector
            .ingest(3, share_for(&members[2], 1))
            .expect("third share closes the 3-of-5 quorum");
        assert_eq!(epoch, 1);
        assert!(update.verify(curve, roster.public()));

        let stats = collector.stats();
        assert_eq!(stats.epochs_aggregated, 1);
        assert_eq!(
            stats.aggregation_pairings, 4,
            "one (k+1)-lane multi-pairing for the clean epoch"
        );
        assert_eq!(stats.quorum_latency.count(), 1);
        assert!(collector.pending_epochs().is_empty());

        // Late and duplicate shares after quorum: absorbed, no re-aggregation.
        assert!(collector.ingest(4, share_for(&members[3], 1)).is_none());
        assert!(collector.ingest(3, share_for(&members[2], 1)).is_none());
        assert!(
            collector
                .verdicts(1)
                .iter()
                .filter(|v| v.member <= 4)
                .all(|v| v.fault.is_none()),
            "submitting members carry no fault"
        );
    }

    #[test]
    fn collector_names_byzantine_and_equivocating_members_and_degrades() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (roster, members) = committee(3, 5);
        let mut collector = collector(roster.clone());

        // Member 2 is Byzantine: signs with a secret unrelated to its
        // dealt share (commitment check must catch it).
        let rogue =
            ServerKeyPair::from_secret(curve, *roster.public().g(), curve.random_scalar(&mut rng));
        let bad = rogue.issue_update(curve, &Granularity::Seconds.tag_for_epoch(1));
        // Member 4 equivocates: two different shares for epoch 1.
        let equiv_a = share_for(&members[3], 1);
        let equiv_b = rogue.issue_update(curve, &Granularity::Seconds.tag_for_epoch(1));

        assert!(collector.ingest(2, bad).is_none());
        assert!(collector.ingest(4, equiv_a).is_none());
        assert!(collector.ingest(4, equiv_b).is_none());
        assert!(collector.ingest(1, share_for(&members[0], 1)).is_none());
        // Third clean candidate triggers the batch: {2,1,3}; 2 fails,
        // leaving 2 valid — below quorum.
        assert!(collector.ingest(3, share_for(&members[2], 1)).is_none());
        // Member 5's share tops the quorum back up: degradation to
        // k-of-N with both faulty members excluded.
        let (epoch, update) = collector
            .ingest(5, share_for(&members[4], 1))
            .expect("3 honest members still close the quorum");
        assert_eq!(epoch, 1);
        assert!(update.verify(curve, roster.public()));

        let fault_of = |m: u32| {
            collector
                .verdicts(1)
                .iter()
                .find(|v| v.member == m)
                .and_then(|v| v.fault)
        };
        assert_eq!(fault_of(2), Some(ShareFault::BadShare));
        assert_eq!(fault_of(4), Some(ShareFault::Equivocation));
        assert_eq!(fault_of(1), None);
        assert_eq!(collector.stats().shares_rejected.get(&2), Some(&1));
        assert_eq!(collector.stats().shares_rejected.get(&4), Some(&1));
    }

    #[test]
    fn collector_screens_unknown_members_and_noncanonical_tags() {
        let (roster, members) = committee(3, 5);
        let mut collector = collector(roster);
        // Off-roster index.
        assert!(collector.ingest(9, share_for(&members[0], 1)).is_none());
        // On-roster member, tag that is no canonical epoch tag at all.
        let weird = members[1].issue_share(toy64(), &tre_core::ReleaseTag::time("not-an-epoch"));
        assert!(collector.ingest(2, weird).is_none());
        let verdicts = collector.verdicts(1);
        assert!(verdicts
            .iter()
            .any(|v| v.member == 9 && v.fault == Some(ShareFault::UnknownMember)));
    }

    #[test]
    fn share_conservation_identity_holds_across_all_ingest_paths() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (roster, members) = committee(3, 5);
        let mut collector = collector(roster.clone());
        let check = |c: &ShareCollector<8>| {
            let s = c.stats();
            assert_eq!(
                s.shares_received,
                s.shares_admitted + s.shares_dropped,
                "received == admitted + dropped must hold at every step"
            );
        };

        // Admitted.
        assert!(collector.ingest(1, share_for(&members[0], 1)).is_none());
        check(&collector);
        // Exact duplicate → dropped.
        assert!(collector.ingest(1, share_for(&members[0], 1)).is_none());
        check(&collector);
        // Off-roster index → dropped.
        assert!(collector.ingest(9, share_for(&members[0], 1)).is_none());
        check(&collector);
        // Tag that maps to no epoch at all → dropped.
        let weird = members[1].issue_share(curve, &tre_core::ReleaseTag::time("not-an-epoch"));
        assert!(collector.ingest(2, weird).is_none());
        check(&collector);
        // Equivocation: first admitted, conflicting second dropped,
        // third attempt dropped as already-convicted.
        let rogue =
            ServerKeyPair::from_secret(curve, *roster.public().g(), curve.random_scalar(&mut rng));
        assert!(collector.ingest(2, share_for(&members[1], 1)).is_none());
        let conflicting = rogue.issue_update(curve, &Granularity::Seconds.tag_for_epoch(1));
        assert!(collector.ingest(2, conflicting).is_none());
        assert!(collector.ingest(2, share_for(&members[1], 1)).is_none());
        check(&collector);
        // Quorum still closes from honest members (1, 3, 4 — the
        // equivocator was evicted from the candidate pool).
        assert!(collector.ingest(3, share_for(&members[2], 1)).is_none());
        let closed = collector.ingest(4, share_for(&members[3], 1));
        assert!(closed.is_some(), "3 honest of 5 close the 3-quorum");
        check(&collector);
        // A post-quorum straggler is still admitted (its arrival is
        // attributed) even though the epoch is already closed.
        assert!(collector.ingest(5, share_for(&members[4], 1)).is_none());
        check(&collector);

        let stats = collector.stats();
        assert_eq!(stats.shares_admitted, 5, "members 1..=5 first shares");
        assert_eq!(
            stats.shares_dropped, 5,
            "duplicate + off-roster + bad tag + conflict + post-conviction"
        );
        // Arrival attribution: the epoch opener records offset 0; every
        // admitted member has exactly one arrival sample.
        for m in 1..=5u32 {
            assert_eq!(
                stats.share_arrival.get(&m).map(|h| h.count()),
                Some(1),
                "member {m} arrival sample"
            );
        }
        assert_eq!(stats.share_arrival[&1].max(), 0, "opener offset is 0");

        // The identity survives export + scrape round-trip.
        let mut reg = tre_obs::Registry::new();
        stats.export_into(&mut reg, "committee");
        assert_eq!(
            reg.counter("committee_shares_received"),
            reg.counter("committee_shares_admitted") + reg.counter("committee_shares_dropped")
        );
    }

    #[test]
    fn quorum_timeout_fires_once_but_epoch_still_closes_late() {
        let curve = toy64();
        let (roster, members) = committee(2, 3);
        let mut collector = ShareCollector::new(
            curve,
            roster.clone(),
            Granularity::Seconds,
            CollectorConfig {
                quorum_timeout: Duration::from_millis(5),
            },
        );
        assert!(collector.ingest(1, share_for(&members[0], 1)).is_none());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(collector.expire_stale(), vec![1]);
        assert_eq!(collector.expire_stale(), Vec::<u64>::new(), "fires once");
        assert_eq!(collector.stats().quorum_timeouts, 1);
        // Liveness resumes: the healed member's share still closes it.
        let (_, update) = collector
            .ingest(2, share_for(&members[1], 1))
            .expect("late share closes a timed-out epoch");
        assert!(update.verify(curve, roster.public()));
    }

    /// End-to-end over real sockets: three member daemons broadcast
    /// shares, a CommitteeFeed aggregates 2-of-3, and a ReceiverClient
    /// pumps it exactly like a single-server feed.
    #[test]
    fn committee_feed_aggregates_live_members_end_to_end() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let (roster, members) = committee(2, 3);
        let spk = *roster.public();

        let treds: Vec<Tred<8>> = members
            .iter()
            .map(|m| {
                let server = TimeServer::new(
                    curve,
                    m.key_pair().clone(),
                    clock.clone(),
                    Granularity::Seconds,
                );
                Tred::bind_member(
                    "127.0.0.1:0",
                    curve,
                    m.index(),
                    server,
                    TredConfig::default(),
                )
                .unwrap()
            })
            .collect();
        let addrs: Vec<(u32, SocketAddr)> = members
            .iter()
            .zip(&treds)
            .map(|(m, t)| (m.index(), t.local_addr()))
            .collect();

        let mut feed = CommitteeFeed::new(
            curve,
            roster.clone(),
            Granularity::Seconds,
            &addrs,
            SupervisorConfig::default(),
            CollectorConfig::default(),
            7,
        )
        .with_clock(clock.clone());
        let sub = feed.subscribe();

        let user = UserKeyPair::generate(curve, &spk, &mut rng);
        let mut client = ReceiverClient::new(curve, spk, user);
        let sender = Sender::new(curve, &spk, client.public_key()).unwrap();
        for epoch in 1..=2u64 {
            let ct = sender.encrypt(
                &Granularity::Seconds.tag_for_epoch(epoch),
                format!("epoch-{epoch}").as_bytes(),
                &mut rng,
            );
            client.receive_ciphertext(ct, 0);
        }

        clock.advance(2);
        let deadline = Instant::now() + Duration::from_secs(30);
        while client.opened().len() < 2 && Instant::now() < deadline {
            client.pump(&mut feed, sub);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.opened().len(), 2, "both epochs decrypted");
        for m in client.opened() {
            let epoch = Granularity::Seconds.epoch_of_tag(&m.tag).unwrap();
            assert_eq!(m.plaintext, format!("epoch-{epoch}").as_bytes());
        }
        assert!(feed.stats().epochs_aggregated >= 2);
        assert_eq!(feed.stats().hello_mismatches, 0);
        assert!(
            feed.verdicts(2)
                .iter()
                .all(|v| v.fault.is_none() || v.fault == Some(ShareFault::Missing)),
            "no member convicted in a clean run"
        );
        for tred in treds {
            tred.shutdown();
        }
    }
}
