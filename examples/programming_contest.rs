//! The paper's second motivating scenario: a worldwide Internet programming
//! contest. Problem sets are distributed *well in advance* over slow,
//! jittery links, but nobody can open them before the gun — fairness no
//! longer depends on network delivery times, only on the (tiny, bounded-
//! jitter) key update broadcast.
//!
//! Runs the full simulation world: clock, passive server, broadcast
//! channel with latency/jitter, and receiver clients on three continents.
//!
//! ```text
//! cargo run --example programming_contest
//! ```

use tre::prelude::*;
use tre::server::{ChaosSim, FaultPlan, NetConfig};

fn main() -> Result<(), TreError> {
    let curve = tre::pairing::toy64();
    let granularity = Granularity::Seconds;

    // The simulated world: clock, passive server and the key-update
    // channel — 1-tick base latency, up to 2 ticks of jitter.
    let mut world: ChaosSim<'_, 8> = ChaosSim::new(curve, granularity, FaultPlan::new(), 2026)
        .with_net(NetConfig {
            base_latency: 1,
            jitter: 2,
            loss_prob: 0.0,
        });

    // Teams in three places; the big problem-set download takes wildly
    // different times to reach them (5..=40 ticks) — that's fine.
    let team_names = ["team-tokyo", "team-berlin", "team-toronto"];
    let download_delay = [5u64, 17, 40];
    let teams: Vec<usize> = team_names.iter().map(|_| world.add_client()).collect();

    // Contest starts at t = 60. Problems are encrypted to that instant and
    // shipped immediately.
    let start_epoch = 60;
    let start_tag = granularity.tag_for_epoch(start_epoch);
    println!("contest starts at epoch {start_epoch}; shipping problems now (t=0)");
    let problems = b"Problem A: prove P != NP. Problem B: parse HTML with regex.";

    // Simulate tick by tick.
    let mut delivered = [false; 3];
    while world.clock().now() <= 65 {
        let now = world.clock().now();
        // Problem set arrives at each team when its download finishes.
        for (i, &team) in teams.iter().enumerate() {
            if !delivered[i] && now >= download_delay[i] {
                world.send_for_epoch(team, start_epoch, problems);
                delivered[i] = true;
                println!(
                    "t={now:>2}: {} finished downloading (cannot open yet)",
                    team_names[i]
                );
            }
        }
        // The server broadcasts new epochs; the channel delays them per
        // team, and each team drains its deliveries.
        world.tick();
    }

    println!("\n-- results --");
    for (i, &team) in teams.iter().enumerate() {
        let opened = world
            .client(team)
            .opened()
            .iter()
            .find(|m| m.tag == start_tag)
            .expect("every team must open the problems");
        let skew = opened.opened_at as i64 - start_epoch as i64;
        println!(
            "{}: downloaded at t={}, opened at t={} ({} tick(s) after the gun)",
            team_names[i], opened.received_at, opened.opened_at, skew
        );
        assert!(opened.opened_at >= start_epoch, "nobody opens early");
        assert!(skew <= 3, "and nobody is later than latency+jitter");
        assert_eq!(opened.plaintext, problems);
    }
    world.check_invariants().assert_ok();
    println!("\nfairness: release skew bounded by the 3-tick update jitter,");
    println!("even though downloads differed by 35 ticks.");
    Ok(())
}
