//! Per-operation crypto budgets on toy64: the pairing kernels and the
//! session set-up paths, counted with `tre_obs`.
//!
//! `F_p` multiplications are pinned as ceilings a few percent above the
//! measured count, so a lost signed-digit Miller loop, a lost signed
//! fixed-base table or an eager preparation fails here whatever the wall
//! clock says. Inversions and square roots are pinned exactly: neither
//! is counted in `fp_muls`, and each costs well over a hundred of them.
//!
//! Keys, tags and nonces are fixed, so every count is deterministic.
//!
//! Run with `cargo test --release -p tre-core --test budgets`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tre_bigint::U256;
use tre_core::{Receiver, ReleaseTag, Sender, SenderPrecomp, ServerKeyPair, UserKeyPair};
use tre_obs::CryptoOps;
use tre_pairing::{toy64, G1Precomp};

/// `f`'s result and the crypto ops it ran on this thread.
fn ops<R>(f: impl FnOnce() -> R) -> (R, CryptoOps) {
    tre_obs::enable();
    let r = f();
    (r, tre_obs::finish().total_ops())
}

/// One operation's budget: a ceiling on `F_p` multiplications and the
/// exact inversion and square-root counts.
struct Budget {
    name: &'static str,
    fp_muls_max: u64,
    fp_invs: u64,
    fp_sqrts: u64,
}

fn check(budget: Budget, got: CryptoOps) {
    let Budget {
        name,
        fp_muls_max,
        fp_invs,
        fp_sqrts,
    } = budget;
    println!(
        "{name}: {} fp muls (ceiling {fp_muls_max}), {} invs, {} sqrts",
        got.fp_muls, got.fp_invs, got.fp_sqrts
    );
    assert!(
        got.fp_muls <= fp_muls_max,
        "{name}: {} fp muls over the ceiling {fp_muls_max}",
        got.fp_muls
    );
    assert_eq!(
        (got.fp_invs, got.fp_sqrts),
        (fp_invs, fp_sqrts),
        "{name}: inversions, square roots"
    );
}

#[test]
fn pairing_kernels_stay_within_budget() {
    let curve = toy64();
    let g = curve.generator();
    let p = curve.g1_mul(&g, &U256::from_u64(0x5eed_0001));
    let q = curve.g1_mul(&g, &U256::from_u64(0x5eed_0002));

    let (prep, cost) = ops(|| curve.prepare(&p));
    // 160 doublings and 52 signed additions: 3,853 (the bit loop's 236
    // steps cost 4,310).
    check(
        Budget {
            name: "prepare",
            fp_muls_max: 3_950,
            fp_invs: 1,
            fp_sqrts: 0,
        },
        cost,
    );
    let (_, cost) = ops(|| curve.pairing(&p, &q));
    // 4,871 (the bit loop: 5,302).
    check(
        Budget {
            name: "pairing",
            fp_muls_max: 5_000,
            fp_invs: 1,
            fp_sqrts: 0,
        },
        cost,
    );
    let (_, cost) = ops(|| curve.pairing_prepared(&prep, &q));
    // 2,073 (the bit loop: 2,167).
    check(
        Budget {
            name: "pairing_prepared",
            fp_muls_max: 2_110,
            fp_invs: 1,
            fp_sqrts: 0,
        },
        cost,
    );
    let (_, cost) = ops(|| G1Precomp::new(curve, &g));
    // 41 signed windows of 8: 6,109 (the unsigned 40 × 15 table: 14,640).
    check(
        Budget {
            name: "G1Precomp::new",
            fp_muls_max: 6_300,
            fp_invs: 1,
            fp_sqrts: 0,
        },
        cost,
    );
}

#[test]
fn session_paths_stay_within_budget() {
    let curve = toy64();
    let mut rng = StdRng::seed_from_u64(29);
    let server = ServerKeyPair::generate(curve, &mut rng);
    let keys = UserKeyPair::generate(curve, server.public(), &mut rng);
    let tag = ReleaseTag::time("budget/epoch-1");

    let (mut receiver, cost) = ops(|| Receiver::new(curve, *server.public(), keys.clone()));
    // Two preparations ((h mod q)·sG and −G) and one g1_mul: 9,540 (three
    // bit-loop preparations: 14,764).
    check(
        Budget {
            name: "Receiver::new",
            fp_muls_max: 9_800,
            fp_invs: 4,
            fp_sqrts: 0,
        },
        cost,
    );
    let (pre, cost) = ops(|| SenderPrecomp::new(curve, server.public(), keys.public()).unwrap());
    // The asG preparation, one 2-lane mixed check and the G table: 15,677
    // (two generic pairings, the table and the preparation: 29,554).
    check(
        Budget {
            name: "SenderPrecomp::new",
            fp_muls_max: 16_100,
            fp_invs: 3,
            fp_sqrts: 0,
        },
        cost,
    );
    let sender = Sender::from_precomp(curve, pre);
    let cts: Vec<_> = (0..2u8)
        .map(|i| sender.encrypt(&tag, &[i], &mut rng))
        .collect();

    let update = server.issue_update(curve, &tag);
    let (fresh, cost) = ops(|| receiver.observe_update(update).unwrap());
    assert!(fresh);
    // The candidate hash (one square root after the Jacobi screen) and
    // the folded 2-lane check: 2,920.
    check(
        Budget {
            name: "observe_update",
            fp_muls_max: 3_050,
            fp_invs: 1,
            fp_sqrts: 1,
        },
        cost,
    );
    let (pt, cost) = ops(|| receiver.open(&cts[0]).unwrap());
    assert_eq!(pt, [0]);
    // Preparing I_T plus one prepared pairing and a G_T power by `a`:
    // 6,348.
    check(
        Budget {
            name: "first open",
            fp_muls_max: 6_550,
            fp_invs: 2,
            fp_sqrts: 0,
        },
        cost,
    );
    let (pt, cost) = ops(|| receiver.open(&cts[1]).unwrap());
    assert_eq!(pt, [1]);
    // One prepared pairing and the power: 2,495 (the bit loop: 2,589).
    check(
        Budget {
            name: "cached open",
            fp_muls_max: 2_530,
            fp_invs: 1,
            fp_sqrts: 0,
        },
        cost,
    );
}
