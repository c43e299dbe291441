//! E14 integration: structured tracing over a seeded chaos schedule.
//!
//! Asserts the observability guarantees end to end:
//!
//! 1. the trace carries the expected fault-activation and crash/recovery
//!    event sequence;
//! 2. the client health counters close the conservation identity
//!    `updates_received == duplicates_skipped + rejected_updates +
//!    equivocations + accepted_updates`, and the trace's per-event counts
//!    agree with those counters;
//! 3. crypto cost attribution: every `tre.verify` span accounts for
//!    exactly the two pairings of self-authentication;
//! 4. the JSONL dump is byte-identical across two same-seed runs.

use tre_pairing::toy64;
use tre_server::{ChaosSim, ClientHealth, Fault, FaultPlan, Granularity};

/// Runs the reference chaos schedule under tracing: a duplicate storm from
/// t=1, a server crash at t=2 (down 3 ticks), and in-transit corruption at
/// t=7..9, with one message locked to epoch 3.
fn traced_chaos(seed: u64) -> (tre_obs::Trace, ClientHealth) {
    let curve = toy64();
    tre_obs::enable();
    let plan = FaultPlan::new()
        .at(
            1,
            Fault::DuplicateStorm {
                client: 0,
                copies: 2,
                for_ticks: 5,
            },
        )
        .at(2, Fault::ServerCrash { down_for: 3 })
        .at(
            7,
            Fault::Corrupt {
                client: 0,
                for_ticks: 2,
            },
        );
    let mut sim: ChaosSim<'_, 8> = ChaosSim::new(curve, Granularity::Seconds, plan, seed);
    let c = sim.add_client();
    sim.send_for_epoch(c, 3, b"trace me");
    sim.run(10);
    assert!(sim.settle(80), "liveness restored after the faults");
    sim.check_invariants().assert_ok();
    let health = sim.client(c).health().clone();
    (tre_obs::finish(), health)
}

fn event_count(trace: &tre_obs::Trace, name: &str) -> u64 {
    trace.events().iter().filter(|(n, _)| *n == name).count() as u64
}

#[test]
fn fault_and_recovery_events_appear_in_schedule_order() {
    let (trace, _) = traced_chaos(77);
    let events = trace.events();

    let activations: Vec<&str> = events
        .iter()
        .filter(|(n, _)| *n == "fault.activated")
        .map(|(_, d)| *d)
        .collect();
    assert_eq!(
        activations.len(),
        3,
        "all three scheduled faults activate: {activations:?}"
    );
    assert!(activations[0].contains("duplicate_storm") && activations[0].contains("at=1"));
    assert!(activations[1].contains("server_crash") && activations[1].contains("at=2"));
    assert!(activations[2].contains("corrupt") && activations[2].contains("at=7"));

    // Crash, then archive-seeded recovery, then the restart notification.
    let position = |name: &str| {
        events
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing event {name}"))
    };
    let crashed = position("sim.server_crashed");
    let recovered = position("server.recover");
    let restarted = position("sim.server_restarted");
    assert!(
        crashed < recovered && recovered < restarted,
        "crash ({crashed}) precedes recovery ({recovered}) precedes restart ({restarted})"
    );

    // The recovery resumes just past the newest archived epoch.
    let (_, detail) = events[recovered];
    assert!(
        detail.starts_with("resume_epoch="),
        "recovery event carries the resume epoch: {detail}"
    );
}

#[test]
fn counter_conservation_holds_and_matches_trace_events() {
    let (trace, h) = traced_chaos(78);

    // Every received update is classified exactly once.
    assert_eq!(
        h.updates_received,
        h.duplicates_skipped + h.rejected_updates + h.equivocations + h.accepted_updates,
        "conservation identity: received == skipped + rejected + equivocations + accepted"
    );

    // The trace's per-event counts agree with the health counters.
    assert_eq!(
        event_count(&trace, "client.duplicate_skipped"),
        h.duplicates_skipped
    );
    assert_eq!(
        event_count(&trace, "client.update_rejected"),
        h.rejected_updates
    );
    assert_eq!(
        event_count(&trace, "client.update_accepted"),
        h.accepted_updates
    );
    assert_eq!(event_count(&trace, "client.equivocation"), h.equivocations);

    // The schedule exercised both anomaly paths.
    assert!(h.duplicates_skipped > 0, "the storm produced duplicates");
    assert!(h.rejected_updates > 0, "corruption produced rejections");
    assert_eq!(
        event_count(&trace, "client.opened"),
        1,
        "the one message opened exactly once"
    );
}

#[test]
fn verify_spans_attribute_two_pairings_each() {
    let (trace, h) = traced_chaos(79);
    // Broadcast-path updates are verified singly: exactly two pairings
    // per `tre.verify` span. Archive recovery batches instead, so single
    // verifies cannot exceed the fresh-update count.
    let verifies = trace.spans_named("tre.verify");
    assert!(!verifies.is_empty(), "broadcast verifications were traced");
    assert!(
        verifies.len() as u64 <= h.accepted_updates + h.rejected_updates,
        "singly-verified updates are a subset of the fresh ones"
    );
    for span in &verifies {
        assert_eq!(
            span.ops.pairings, 2,
            "self-authentication is exactly two pairings"
        );
        assert!(
            span.ops.h2c_iters >= 1,
            "hashing the tag to the curve takes at least one iteration"
        );
    }
    // The prepared verify folds the cofactor into the `sG` lane: an
    // accepted update multiplies no point, a rejected one clears its
    // hash candidate once to decide the fail. The verdict event follows
    // its verify span in sequence order.
    let mut pending = None;
    let (mut accepted, mut rejected) = (0, 0);
    for line in trace.to_jsonl().lines() {
        if line.contains("\"ev\":\"exit\"") && line.contains("\"name\":\"tre.verify\"") {
            let mults = line
                .split("\"scalar_mults\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
                .expect("exit line carries scalar_mults");
            pending = Some(mults);
        } else if line.contains("\"name\":\"client.update_accepted\"") {
            if let Some(mults) = pending.take() {
                assert_eq!(mults, 0, "an accepted verify clears no cofactor");
                accepted += 1;
            }
        } else if line.contains("\"name\":\"client.update_rejected\"") {
            if let Some(mults) = pending.take() {
                assert_eq!(mults, 1, "a rejected verify clears its candidate once");
                rejected += 1;
            }
        }
    }
    assert!(accepted > 0, "accepted single verifies were traced");
    assert!(
        rejected > 0,
        "the corruption produced rejected single verifies"
    );
    assert_eq!(
        accepted + rejected,
        verifies.len(),
        "each verify span is followed by its verdict"
    );
    // Archive recovery (under settle()) verifies in batches: the archive
    // is honest here, so every batch is clean — 2 pairing lanes each,
    // regardless of batch size.
    assert!(
        !trace.spans_named("client.catch_up").is_empty(),
        "catch-up rounds were traced"
    );
    // (When the archive has nothing to hand over — the restarted server
    // re-broadcasts missed epochs itself — no batch forms at all.)
    for span in &trace.spans_named("client.batch_verify") {
        assert_eq!(span.ops.pairings, 2, "clean batch = 2 pairing lanes");
    }
    // Opened messages decrypt through the trusted path — one pairing
    // each, no re-verification of the already-verified update.
    let trusted = trace.spans_named("tre.decrypt_trusted");
    assert_eq!(trusted.len() as u64, event_count(&trace, "client.opened"));
    for span in &trusted {
        assert_eq!(span.ops.pairings, 1, "trusted decrypt is one pairing");
    }
}

#[test]
fn same_seed_produces_byte_identical_jsonl() {
    let (a, _) = traced_chaos(1414);
    let (b, _) = traced_chaos(1414);
    let dump = a.to_jsonl();
    assert!(!dump.is_empty());
    assert_eq!(dump, b.to_jsonl(), "same seed, same trace dump");
    // Wall-clock durations are measured on spans but excluded from JSONL.
    assert!(!dump.contains("wall"), "no wall times in the dump");
}
