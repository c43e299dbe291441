//! Per-client health metrics for the resilient receiver runtime.
//!
//! The fault-injection experiments (E13) need to *observe* how a client
//! weathered a run — how many updates it deduplicated, rejected, or
//! recovered from the archive, and how long messages sat locked past their
//! release time. These counters are plain data: recording is branch-free
//! and allocation-free so they can sit on the hot receive path.
//!
//! The histogram type now lives in [`tre_obs`] (shared by the whole
//! workspace, with quantile estimation and merging); it is re-exported
//! here under its original path. [`ClientHealth::export_into`] publishes
//! every counter into a [`tre_obs::Registry`] for exposition alongside the rest of
//! the stack's metrics.

pub use tre_obs::LatencyHistogram;

tre_obs::metrics! {
    /// Health counters for one [`ReceiverClient`](crate::ReceiverClient).
    ///
    /// Every anomaly the old client silently swallowed is surfaced here:
    /// duplicate broadcasts, invalid or equivocating updates, decryption
    /// failures, archive misses, and the epochs the client never saw on the
    /// broadcast path.
    #[derive(Debug, Clone, Default)]
    pub struct ClientHealth {
        /// Updates handed to the client (any provenance, including duplicates).
        pub updates_received: u64,
        /// Exact duplicates skipped by the dedup cache *without* re-running
        /// pairing verification.
        pub duplicates_skipped: u64,
        /// Updates rejected because self-authentication failed.
        pub rejected_updates: u64,
        /// Conflicting updates observed for an already-verified tag (Byzantine
        /// equivocation evidence).
        pub equivocations: u64,
        /// Updates that verified and were accepted (cached as usable key
        /// material). Together with the rejection counters this closes the
        /// conservation identity `updates_received == duplicates_skipped +
        /// rejected_updates + equivocations + accepted_updates`.
        pub accepted_updates: u64,
        /// Ciphertexts whose decryption failed once the update was in hand
        /// (mauled ciphertext or wrong receiver) — see
        /// [`ReceiverClient::dead_letters`](crate::ReceiverClient::dead_letters).
        pub decrypt_failures: u64,
        /// Epoch gaps on the broadcast path: updates that never arrived live
        /// (inferred whenever a later epoch arrives first).
        pub missed_epochs: u64,
        /// Updates successfully fetched from the public archive.
        pub recovered_from_archive: u64,
        /// Archive fetch attempts (successful or not).
        pub archive_attempts: u64,
        /// Archive fetches that found no update (outage or not yet published);
        /// each miss grows the per-tag retry backoff.
        pub archive_misses: u64,
        /// Consecutive invalid updates on the broadcast path; reset by any
        /// valid update. Drives quarantine.
        #[metric(gauge)]
        pub invalid_streak: u32,
        /// Ticks a message waited between ciphertext arrival and opening.
        pub open_latency: LatencyHistogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_obs::Registry;

    #[test]
    fn export_publishes_all_counters() {
        let mut health = ClientHealth {
            updates_received: 10,
            duplicates_skipped: 2,
            rejected_updates: 1,
            equivocations: 1,
            accepted_updates: 6,
            decrypt_failures: 3,
            missed_epochs: 4,
            recovered_from_archive: 2,
            archive_attempts: 5,
            archive_misses: 3,
            invalid_streak: 2,
            ..Default::default()
        };
        health.open_latency.record(7);
        let mut reg = Registry::new();
        health.export_into(&mut reg, "tre_client");
        assert_eq!(reg.counter("tre_client_updates_received"), 10);
        assert_eq!(reg.counter("tre_client_accepted_updates"), 6);
        assert_eq!(reg.gauge("tre_client_invalid_streak"), 2);
        assert_eq!(reg.histogram("tre_client_open_latency").unwrap().count(), 1);
        // Conservation identity holds for the exported snapshot.
        assert_eq!(
            reg.counter("tre_client_updates_received"),
            reg.counter("tre_client_duplicates_skipped")
                + reg.counter("tre_client_rejected_updates")
                + reg.counter("tre_client_equivocations")
                + reg.counter("tre_client_accepted_updates"),
        );
        // Re-export is idempotent (absolute set, not add).
        health.export_into(&mut reg, "tre_client");
        assert_eq!(reg.counter("tre_client_updates_received"), 10);
        assert_eq!(reg.histogram("tre_client_open_latency").unwrap().count(), 1);
    }
}
