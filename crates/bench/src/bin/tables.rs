//! The experiment harness: regenerates every quantitative/comparative
//! claim of the paper (experiments E1–E15 plus the E17 committee
//! verify+aggregate table, see DESIGN.md §4 and §8).
//!
//! ```text
//! cargo run --release -p tre-bench --bin tables            # all experiments
//! cargo run --release -p tre-bench --bin tables -- --exp e1
//! ```
//!
//! An unknown `--exp` name exits with status 2. E15 and E17–E21 each
//! write one record, `target/eNN/eNN.json`, through [`BenchRecord`].

use std::hint::black_box;
use tre_baselines::{
    hybrid_pke_ibe, may_escrow::EscrowAgent, mont_ibe, rivest, rsw::TimeLockPuzzle,
};
use tre_bench::{
    header, quick, record, rng, row, textbook_batch_verify, time_ms, BenchRecord, Fixture,
};
use tre_core::{fo, hybrid, insulated::EpochKey, multi_server, react, server_change::ReboundKey};
use tre_core::{KeyUpdate, Receiver, ReleaseTag, Sender, ServerKeyPair, UserKeyPair};
use tre_pairing::{mid96, toy64, Curve, Fp2, G1Affine};
use tre_server::{
    CatchUpConfig, ChaosProxy, ChaosSim, Fault, FaultPlan, Feed, FsyncPolicy, Granularity,
    JournalConfig, NetConfig, ReceiverClient, SimClock, Stage, SupervisedFeed, SupervisorConfig,
    TcpFeed, TimeServer, TraceSink, Tred, TredConfig, UpdateArchive,
};

/// Canonical body-encoding size of one key update (what the size tables
/// report: the raw broadcast payload, without the wire frame header).
fn update_body_len<const L: usize>(curve: &Curve<L>, update: &KeyUpdate<L>) -> usize {
    let mut out = Vec::new();
    update.write_body(curve, &mut out);
    out.len()
}

/// Every experiment `--exp` can name, in the order a bare run prints them.
const EXPERIMENTS: [(&str, fn()); 20] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("e15", e15),
    ("e17", e17),
    ("e18", e18),
    ("e19", e19),
    ("e20", e20),
    ("e21", e21),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let filter = args.iter().position(|a| a == "--exp").map(|i| {
        args.get(i + 1)
            .map(|s| s.to_lowercase())
            .unwrap_or_default()
    });
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| filter.as_deref().is_none_or(|f| f == *name))
        .collect();
    if chosen.is_empty() {
        let known: Vec<_> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        let asked = filter.unwrap_or_default();
        eprintln!("unknown experiment `{asked}`; known: {}", known.join(", "));
        std::process::exit(2);
    }

    println!("# TRE reproduction — experiment tables\n");
    for (_, run) in chosen {
        run();
    }
}

/// E1: "50% reduction in most cases" vs the footnote-3 PKE+IBE hybrid.
fn e1() {
    println!("## E1 — integrated TRE vs generic PKE+IBE composition\n");
    header(&[
        "params",
        "msg bytes",
        "ours: ovh B / enc ms / dec ms",
        "baseline: ovh B / enc ms / dec ms",
        "overhead reduction",
    ]);
    e1_on(toy64(), "toy64");
    e1_on(mid96(), "mid96");
    println!();
    println!(
        "(Our encrypt includes the sender-side ê(aG,sG)=ê(G,asG) key check — 2 pairings,\n\
         cacheable per receiver; the baseline's PKE half performs no such validation.\n\
         The paper's \"50%\" claim concerns ciphertext overhead and total encapsulation\n\
         work: one pairing encapsulation here vs PKE + IBE encapsulations there.)\n"
    );
}

fn e1_on<const L: usize>(curve: &Curve<L>, name: &str) {
    let mut r = rng();
    let fx = Fixture::new(curve);
    let pke = hybrid_pke_ibe::PkeKeyPair::generate(curve, &mut r);
    let tag = ReleaseTag::time("e1");
    let update = fx.server.issue_update(curve, &tag);
    let iters = if L <= 8 { 5 } else { 2 };
    for msg_len in [32usize, 1024] {
        let msg = vec![0xabu8; msg_len];
        let ours_ct = hybrid::encrypt(
            curve,
            fx.server.public(),
            fx.user.public(),
            &tag,
            &msg,
            &mut r,
        )
        .unwrap();
        let ours_ovh = ours_ct.size(curve) - msg_len;
        let ours_enc = time_ms(iters, || {
            hybrid::encrypt(
                curve,
                fx.server.public(),
                fx.user.public(),
                &tag,
                &msg,
                &mut r,
            )
            .unwrap()
        });
        let ours_dec = time_ms(iters, || {
            hybrid::decrypt(curve, fx.server.public(), &fx.user, &update, &ours_ct).unwrap()
        });
        let base_ct =
            hybrid_pke_ibe::encrypt(curve, fx.server.public(), pke.public(), &tag, &msg, &mut r);
        let base_ovh = base_ct.size(curve) - msg_len;
        let base_enc = time_ms(iters, || {
            hybrid_pke_ibe::encrypt(curve, fx.server.public(), pke.public(), &tag, &msg, &mut r)
        });
        let base_dec = time_ms(iters, || {
            hybrid_pke_ibe::decrypt(curve, fx.server.public(), &pke, &update, &base_ct).unwrap()
        });
        let reduction = 100.0 * (1.0 - ours_ovh as f64 / base_ovh as f64);
        row(&[
            name.into(),
            format!("{msg_len}"),
            format!("{ours_ovh} / {ours_enc:.1} / {ours_dec:.1}"),
            format!("{base_ovh} / {base_enc:.1} / {base_dec:.1}"),
            format!("{reduction:.0}%"),
        ]);
    }
}

/// E2: server cost per epoch vs number of receivers — O(1) broadcast vs
/// Mont et al.'s O(N) per-user unicast.
fn e2() {
    println!("## E2 — per-epoch server cost vs receiver count\n");
    let curve = toy64();
    let mut r = rng();
    // Measure Mont per-user cost once, extrapolate for large N (each user
    // costs one hash-to-curve + one scalar multiplication + one unicast).
    let mut mont = mont_ibe::MontServer::new(curve, &mut r);
    for i in 0..20 {
        mont.register(&format!("u{i}"));
    }
    let per_user_ms = time_ms(3, || mont.epoch_rollover(0)) / 20.0;

    // TRE server cost is one signature regardless of N.
    let fx = Fixture::new(curve);
    let tre_ms = time_ms(5, || fx.server.issue_update(curve, &ReleaseTag::time("e2")));
    let update_bytes = update_body_len(
        curve,
        &fx.server.issue_update(curve, &ReleaseTag::time("e2")),
    );

    header(&[
        "receivers N",
        "TRE: bytes / ms per epoch",
        "Mont IBE: bytes / ms per epoch",
        "ratio",
    ]);
    for n in [1u64, 10, 100, 1_000, 10_000] {
        let mont_bytes = n as usize * curve.point_len();
        let mont_ms = per_user_ms * n as f64;
        row(&[
            format!("{n}"),
            format!("{update_bytes} / {tre_ms:.1}"),
            format!("{mont_bytes} / {mont_ms:.1}"),
            format!("{:.0}×", mont_ms / tre_ms),
        ]);
    }
    println!("\n(TRE row is constant: a single update serves every receiver — §5.3.1.)\n");
}

/// E3: the update is a self-authenticating short signature.
fn e3() {
    println!("## E3 — key-update size & self-authentication\n");
    let curve = toy64();
    let fx = Fixture::new(curve);
    let tag = ReleaseTag::time("2026-07-04T12:00:00Z");
    let update = fx.server.issue_update(curve, &tag);
    let update_bytes = update_body_len(curve, &update);
    let tag_bytes = tag.to_bytes().len();
    let point = curve.point_len();
    // Baseline: an unauthenticated timestamp token + a separate BLS
    // signature over it would carry the same tag + TWO points.
    let separate_sig = tag_bytes + 2 * point;
    let verify_ms = time_ms(5, || update.verify(curve, fx.server.public()));
    header(&["quantity", "value"]);
    row(&["tag".into(), format!("{tag_bytes} B")]);
    row(&["signature point (compressed)".into(), format!("{point} B")]);
    row(&[
        "TRE update total (self-authenticated)".into(),
        format!("{update_bytes} B"),
    ]);
    row(&[
        "update + separate-signature baseline".into(),
        format!("{separate_sig} B"),
    ]);
    row(&[
        "verification (2 pairings)".into(),
        format!("{verify_ms:.1} ms"),
    ]);
    println!();
}

/// E4: release-time precision — RSW puzzles vs absolute-time TRE.
fn e4() {
    println!("## E4 — release-time precision: time-lock puzzle vs TRE\n");
    let mut r = rng();
    // Calibrate this machine's squaring rate with a 512-bit modulus.
    let probe: TimeLockPuzzle<8> = TimeLockPuzzle::create(b"probe", 10, 512, &mut r);
    let rate = probe.calibrate(20_000);
    let target_s = 2.0;
    let t = (rate * target_s) as u64;
    println!(
        "reference machine: {rate:.0} squarings/s (512-bit modulus); \
         puzzle difficulty t = {t} targets a {target_s}s delay\n"
    );
    header(&[
        "solver machine",
        "starts solving",
        "message readable at",
        "error vs 2.0s target",
    ]);
    for (speed, label) in [
        (0.25, "4× slower"),
        (0.5, "2× slower"),
        (1.0, "reference"),
        (2.0, "2× faster"),
        (4.0, "4× faster"),
    ] {
        for start in [0.0f64, 1.0] {
            let done = start + target_s / speed;
            row(&[
                label.into(),
                format!("t+{start:.1}s"),
                format!("t+{done:.1}s"),
                format!("{:+.1}s", done - target_s),
            ]);
        }
    }
    // TRE: error bounded by update delivery latency+jitter, independent of
    // machine speed and start time. 200 receivers, each holding one
    // message sealed to the 2.0s epoch, on a millisecond-resolution clock.
    let net = NetConfig {
        base_latency: 20,
        jitter: 60,
        loss_prob: 0.0,
    };
    let mut sim: ChaosSim<'_, 8> =
        ChaosSim::new(toy64(), Granularity::Custom(2_000), FaultPlan::new(), 4).with_net(net);
    for c in 0..200 {
        sim.add_client();
        sim.send_for_epoch(c, 1, format!("e4-{c}").as_bytes());
    }
    sim.run(2_100);
    // Every receiver opens exactly once, none before the release instant.
    sim.check_invariants().assert_ok();
    let worst = (0..200)
        .map(|c| sim.client(c).opened()[0].opened_at - 2_000)
        .max()
        .unwrap();
    assert!(
        worst <= net.base_latency + net.jitter,
        "E4: worst open +{worst} ms exceeds latency + jitter"
    );
    println!("\nTRE (200 receivers, 20 ms latency + ≤60 ms jitter broadcast):");
    println!("  every receiver can open within +{worst} ms of the absolute release instant,");
    println!("  independent of machine speed and of when it starts decrypting; the");
    println!("  puzzle's error above is unbounded in both directions.\n");
}

/// E5: key insulation — epoch-key derivation cost and isolation.
fn e5() {
    println!("## E5 — key insulation (epoch keys)\n");
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let t5 = ReleaseTag::time("epoch-5");
    let t6 = ReleaseTag::time("epoch-6");
    let u5 = fx.server.issue_update(curve, &t5);
    let sender = Sender::new(curve, fx.server.public(), fx.user.public()).unwrap();
    let ct5 = sender.encrypt(&t5, b"epoch 5 msg", &mut r);
    let derive_ms = time_ms(5, || {
        EpochKey::derive(curve, fx.server.public(), &fx.user, &u5).unwrap()
    });
    let epoch5 = EpochKey::derive(curve, fx.server.public(), &fx.user, &u5).unwrap();
    let dec_epoch_ms = time_ms(5, || epoch5.decrypt(curve, &ct5).unwrap());
    // Fresh session per iteration so every open pays the full
    // verify-then-decrypt path, like the epoch-key derive row does.
    let dec_full_ms = time_ms(5, || {
        let mut receiver = Receiver::new(curve, *fx.server.public(), fx.user.clone());
        receiver.open_with(&u5, &ct5).unwrap()
    });
    let ct6 = sender.encrypt(&t6, b"epoch 6 msg", &mut r);
    let cross_rejected = epoch5.decrypt(curve, &ct6).is_err();
    header(&["quantity", "value"]);
    row(&[
        "epoch-key derivation (safe device: verify + 1 scalar mult)".into(),
        format!("{derive_ms:.1} ms"),
    ]);
    row(&[
        "decrypt with epoch key (no long-term secret)".into(),
        format!("{dec_epoch_ms:.1} ms"),
    ]);
    row(&[
        "decrypt with long-term secret (reference)".into(),
        format!("{dec_full_ms:.1} ms"),
    ]);
    row(&[
        "epoch-5 key rejected for epoch-6 ciphertext".into(),
        format!("{cross_rejected}"),
    ]);
    println!();
}

/// E6: changing time servers without re-certification.
fn e6() {
    println!("## E6 — server change without re-certification\n");
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let new_server = ServerKeyPair::generate(curve, &mut r);
    let rebound = ReboundKey::derive(curve, fx.user.public(), new_server.public(), &fx.user);
    let verify_ms = time_ms(5, || {
        rebound
            .verify(curve, fx.server.public(), new_server.public())
            .unwrap()
    });
    // "Full re-certification" baseline: fresh keygen + validation (and an
    // out-of-band CA round trip, avoided structurally).
    let recert_ms = time_ms(5, || {
        let u = UserKeyPair::generate(curve, new_server.public(), &mut r);
        u.public().validate(curve, new_server.public()).unwrap();
        u
    });
    header(&["path", "crypto cost", "CA involvement"]);
    row(&[
        "re-bound key verification (§5.3.4)".into(),
        format!("{verify_ms:.1} ms"),
        "none".into(),
    ]);
    row(&[
        "fresh key + re-certification".into(),
        format!("{recert_ms:.1} ms"),
        "full round trip".into(),
    ]);
    println!();
}

/// E7: multi-server overhead scaling.
fn e7() {
    println!("## E7 — multi-server TRE scaling\n");
    let curve = toy64();
    let mut r = rng();
    header(&[
        "servers N",
        "ciphertext bytes",
        "encrypt ms",
        "decrypt ms",
        "missing-1-update decrypts?",
    ]);
    for n in [1usize, 2, 3, 5, 8] {
        let servers: Vec<ServerKeyPair<8>> = (0..n)
            .map(|_| ServerKeyPair::generate(curve, &mut r))
            .collect();
        let pks: Vec<_> = servers.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut r);
        let user = UserKeyPair::from_secret(curve, &pks[0], a);
        let mpk = multi_server::MultiServerUserKey::derive(curve, &pks, &a);
        let tag = ReleaseTag::time("e7");
        let msg = vec![0u8; 64];
        let ct = multi_server::encrypt(curve, &pks, &mpk, &tag, &msg, &mut r).unwrap();
        let enc_ms = time_ms(2, || {
            multi_server::encrypt(curve, &pks, &mpk, &tag, &msg, &mut r).unwrap()
        });
        let updates: Vec<_> = servers
            .iter()
            .map(|s| s.issue_update(curve, &tag))
            .collect();
        let dec_ms = time_ms(2, || {
            multi_server::decrypt(curve, &pks, &user, &updates, &ct).unwrap()
        });
        let partial = multi_server::decrypt(curve, &pks, &user, &updates[..n - 1], &ct).is_ok();
        row(&[
            format!("{n}"),
            format!("{}", ct.size(curve)),
            format!("{enc_ms:.1}"),
            format!("{dec_ms:.1}"),
            format!("{partial}"),
        ]);
    }
    println!();
}

/// E8: the qualitative comparison matrix of §2, backed by running code.
fn e8() {
    println!(
        "## E8 — scheme comparison matrix (every row produced by running the implementation)\n"
    );
    let curve = toy64();
    let mut r = rng();

    // May escrow: deposit one message, inspect the ledger.
    let mut may = EscrowAgent::new();
    may.deposit("alice", "bob", 10, b"m");
    let may_sees_all = !may.surveillance_ledger().is_empty();

    // Rivest online: escrow-encrypt one message.
    let mut ron = rivest::RivestOnlineServer::new(&mut r);
    ron.escrow_encrypt(1, b"m");
    let ron_interactions = ron.interactions();
    let ron_sees = !ron.observed().is_empty();

    // Rivest offline: horizon-bounded publication.
    let roff = rivest::RivestOfflineServer::new(curve, 100, &mut r);
    let roff_advance_bytes = roff.published_bytes();

    // Mont IBE: escrow + O(N) unicast.
    let mut mont = mont_ibe::MontServer::new(curve, &mut r);
    mont.register("alice");
    let ct = mont_ibe::encrypt(curve, mont.public_key(), "alice", 1, b"m", &mut r);
    let mont_escrow = mont.escrow_decrypt("alice", 1, &ct) == b"m";
    mont.epoch_rollover(1);
    let mont_unicasts = mont.unicasts();

    // TRE: passive server, escrow-freeness demonstrated in the adversarial
    // test suite; round-trip re-run here.
    let fx = Fixture::new(curve);
    let tag = ReleaseTag::time("e8");
    let ct = Sender::new(curve, fx.server.public(), fx.user.public())
        .unwrap()
        .encrypt(&tag, b"m", &mut r);
    let update = fx.server.issue_update(curve, &tag);
    let tre_ok = Receiver::new(curve, *fx.server.public(), fx.user.clone())
        .open_with(&update, &ct)
        .is_ok();

    header(&[
        "scheme",
        "server interaction per msg",
        "server sees msg/identities",
        "escrow-free",
        "precise absolute time",
        "any future instant",
    ]);
    row(&[
        "May escrow".into(),
        "2 (deposit + withdraw)".into(),
        format!("{may_sees_all}"),
        "false".into(),
        "true".into(),
        "true".into(),
    ]);
    row(&[
        "RSW puzzle".into(),
        "0 (no server)".into(),
        "false".into(),
        "true".into(),
        "false (relative, machine-dependent)".into(),
        "true".into(),
    ]);
    row(&[
        "Rivest online".into(),
        format!("{ron_interactions} (sender side)"),
        format!("{ron_sees}"),
        "false".into(),
        "true".into(),
        "true".into(),
    ]);
    row(&[
        "Rivest offline".into(),
        "0".into(),
        "false".into(),
        "true".into(),
        "true".into(),
        format!("false ({roff_advance_bytes} B advance publication per 100 epochs)"),
    ]);
    // Di Crescenzo COT: receiver-interactive, log-round, DoS-prone.
    let mut cot_server = tre_baselines::cot::CotServer::new();
    let cot_ct = tre_baselines::cot::encrypt(5, b"m", &mut r);
    let key = cot_server.transfer(&cot_ct, 5, &mut r);
    let cot_ok = tre_baselines::cot::open(&cot_ct, &key).is_ok();
    let dos_rounds = tre_baselines::cot::dos_attack(&mut cot_server, 1_000, &mut r);
    row(&[
        "Di Crescenzo COT".into(),
        format!(
            "{} rounds (receiver side)",
            cot_server.rounds_per_transfer()
        ),
        "false (oblivious)".into(),
        format!("{cot_ok}"),
        "true".into(),
        format!("true, but DoS: 1k spam queries burn {dos_rounds} rounds"),
    ]);
    row(&[
        "Mont et al. IBE".into(),
        format!("{mont_unicasts} unicast per user per epoch"),
        "identities only".into(),
        format!("{}", !mont_escrow),
        "true".into(),
        "true".into(),
    ]);
    row(&[
        "**TRE (this paper)**".into(),
        "0".into(),
        "false".into(),
        format!("{tre_ok}"),
        "true".into(),
        "true".into(),
    ]);
    println!();
}

/// E9: primitive micro-costs across parameter sets.
fn e9() {
    println!("## E9 — primitive micro-costs\n");
    header(&[
        "params",
        "pairing ms",
        "G1 scalar mult ms",
        "hash-to-G1 ms",
        "Gt pow ms",
        "update verify ms",
    ]);
    e9_on(toy64(), "toy64 (|p|=512)", 5);
    e9_on(mid96(), "mid96 (|p|=1024)", 2);
    e9_on(tre_pairing::high128(), "high128 (|p|=1536)", 1);
    println!();
}

fn e9_on<const L: usize>(curve: &Curve<L>, name: &str, iters: u32) {
    let mut r = rng();
    let g = curve.generator();
    let k = curve.random_scalar(&mut r);
    let p = curve.g1_mul(&g, &k);
    let fx = Fixture::new(curve);
    let update = fx.server.issue_update(curve, &ReleaseTag::time("e9"));
    let e = curve.pairing(&g, &p);
    let pairing_ms = time_ms(iters, || curve.pairing(&g, &p));
    let mul_ms = time_ms(iters, || curve.g1_mul(&g, &k));
    let h2c_ms = time_ms(iters, || curve.hash_to_g1(b"e9", b"msg"));
    let pow_ms = time_ms(iters, || e.pow(&k, curve));
    let verify_ms = time_ms(iters, || update.verify(curve, fx.server.public()));
    row(&[
        name.into(),
        format!("{pairing_ms:.1}"),
        format!("{mul_ms:.1}"),
        format!("{h2c_ms:.1}"),
        format!("{pow_ms:.1}"),
        format!("{verify_ms:.1}"),
    ]);
}

/// E10: cost of the CCA hardenings relative to the basic scheme.
fn e10() {
    println!("## E10 — CPA→CCA transform costs (toy64, 64-byte message)\n");
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let tag = ReleaseTag::time("e10");
    let update = fx.server.issue_update(curve, &tag);
    let msg = vec![0x55u8; 64];

    header(&[
        "scheme",
        "ciphertext overhead B",
        "encrypt ms",
        "decrypt ms",
        "integrity",
    ]);
    {
        // Session opened per call so the basic row carries the same
        // per-call key-validation cost as the transform rows below.
        let ct = Sender::new(curve, fx.server.public(), fx.user.public())
            .unwrap()
            .encrypt(&tag, &msg, &mut r);
        let e = time_ms(3, || {
            Sender::new(curve, fx.server.public(), fx.user.public())
                .unwrap()
                .encrypt(&tag, &msg, &mut r)
        });
        let d = time_ms(3, || {
            Receiver::new(curve, *fx.server.public(), fx.user.clone())
                .open_with(&update, &ct)
                .unwrap()
        });
        row(&[
            "basic §5.1".into(),
            format!("{}", ct.size(curve) - msg.len()),
            format!("{e:.1}"),
            format!("{d:.1}"),
            "none (CPA)".into(),
        ]);
    }
    {
        let ct = fo::encrypt(
            curve,
            fx.server.public(),
            fx.user.public(),
            &tag,
            &msg,
            &mut r,
        )
        .unwrap();
        let e = time_ms(3, || {
            fo::encrypt(
                curve,
                fx.server.public(),
                fx.user.public(),
                &tag,
                &msg,
                &mut r,
            )
            .unwrap()
        });
        let d = time_ms(3, || {
            fo::decrypt(curve, fx.server.public(), &fx.user, &update, &ct).unwrap()
        });
        row(&[
            "Fujisaki-Okamoto".into(),
            format!("{}", ct.size(curve) - msg.len()),
            format!("{e:.1}"),
            format!("{d:.1}"),
            "re-encryption check".into(),
        ]);
    }
    {
        let ct = react::encrypt(
            curve,
            fx.server.public(),
            fx.user.public(),
            &tag,
            &msg,
            &mut r,
        )
        .unwrap();
        let e = time_ms(3, || {
            react::encrypt(
                curve,
                fx.server.public(),
                fx.user.public(),
                &tag,
                &msg,
                &mut r,
            )
            .unwrap()
        });
        let d = time_ms(3, || {
            react::decrypt(curve, fx.server.public(), &fx.user, &update, &ct).unwrap()
        });
        row(&[
            "REACT".into(),
            format!("{}", ct.size(curve) - msg.len()),
            format!("{e:.1}"),
            format!("{d:.1}"),
            "validity tag".into(),
        ]);
    }
    {
        let ct = hybrid::encrypt(
            curve,
            fx.server.public(),
            fx.user.public(),
            &tag,
            &msg,
            &mut r,
        )
        .unwrap();
        let e = time_ms(3, || {
            hybrid::encrypt(
                curve,
                fx.server.public(),
                fx.user.public(),
                &tag,
                &msg,
                &mut r,
            )
            .unwrap()
        });
        let d = time_ms(3, || {
            hybrid::decrypt(curve, fx.server.public(), &fx.user, &update, &ct).unwrap()
        });
        row(&[
            "hybrid KEM-DEM".into(),
            format!("{}", ct.size(curve) - msg.len()),
            format!("{e:.1}"),
            format!("{d:.1}"),
            "AEAD".into(),
        ]);
    }
    println!();
}

/// E12 (extension): k-of-N threshold multi-server mode vs the paper's
/// all-N §5.3.5 construction.
fn e12() {
    use tre_core::threshold;
    println!("## E12 — k-of-N threshold multi-server (extension of §5.3.5)\n");
    let curve = toy64();
    let mut r = rng();
    header(&[
        "mode",
        "ciphertext bytes",
        "decrypts with k updates?",
        "decrypts with k−1?",
        "tolerates N−k server outages",
    ]);
    for (k, n) in [(3usize, 3usize), (2, 3), (3, 5)] {
        let servers: Vec<ServerKeyPair<8>> = (0..n)
            .map(|_| ServerKeyPair::generate(curve, &mut r))
            .collect();
        let pks: Vec<_> = servers.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut r);
        let user = UserKeyPair::from_secret(curve, &pks[0], a);
        let mpk = multi_server::MultiServerUserKey::derive(curve, &pks, &a);
        let tag = ReleaseTag::time("e12");
        let ct = threshold::encrypt(curve, &pks, &mpk, k as u32, &tag, &[0u8; 64], &mut r).unwrap();
        let mut k_updates: Vec<Option<_>> = vec![None; n];
        for (i, upd) in k_updates.iter_mut().enumerate().take(k) {
            *upd = Some(servers[i].issue_update(curve, &tag));
        }
        let with_k = threshold::decrypt(curve, &pks, &user, &k_updates, &ct).is_ok();
        let mut fewer = k_updates.clone();
        fewer[k - 1] = None;
        let with_k1 = threshold::decrypt(curve, &pks, &user, &fewer, &ct).is_ok();
        row(&[
            format!("{k}-of-{n}"),
            format!("{}", ct.size(curve)),
            format!("{with_k}"),
            format!("{with_k1}"),
            format!("{}", n - k),
        ]);
    }
    println!("\n(k−1 shares are information-theoretically independent of the DEM key.)\n");
}

/// E13 (robustness extension): fault-tolerance matrix — safety (no message
/// opens before its release epoch, none opens twice) and liveness (every
/// message eventually opens) under scripted faults. Each schedule is
/// replayed deterministically by the chaos harness; the asserting test
/// suite lives in `crates/server/tests/chaos.rs`.
fn e13() {
    println!("## E13 — fault-tolerance matrix (deterministic chaos harness)\n");
    let curve = toy64();
    header(&[
        "fault schedule",
        "dropped / injected deliveries",
        "server restarts",
        "dup-skips / rejects / equivocations / archive-recoveries",
        "safety",
        "liveness",
    ]);
    let schedules: Vec<(&str, FaultPlan)> = vec![
        ("control (no faults)", FaultPlan::new()),
        (
            "server crash at t=2, down 5 ticks",
            FaultPlan::new().at(2, Fault::ServerCrash { down_for: 5 }),
        ),
        (
            "client partitioned t=1..8",
            FaultPlan::new().at(
                1,
                Fault::Partition {
                    client: 0,
                    heal_after: 7,
                },
            ),
        ),
        (
            "duplicate storm ×3 t=1..9",
            FaultPlan::new().at(
                1,
                Fault::DuplicateStorm {
                    client: 0,
                    copies: 3,
                    for_ticks: 8,
                },
            ),
        ),
        (
            "reordering, extra delay ≤5, t=1..9",
            FaultPlan::new().at(
                1,
                Fault::Reorder {
                    client: 0,
                    max_extra: 5,
                    for_ticks: 8,
                },
            ),
        ),
        (
            "in-transit corruption t=1..9",
            FaultPlan::new().at(
                1,
                Fault::Corrupt {
                    client: 0,
                    for_ticks: 8,
                },
            ),
        ),
        (
            "equivocating server t=1..9",
            FaultPlan::new().at(
                1,
                Fault::Equivocate {
                    client: 0,
                    for_ticks: 8,
                },
            ),
        ),
        (
            "forged updates +7 epochs t=1..9",
            FaultPlan::new().at(
                1,
                Fault::Forge {
                    client: 0,
                    epochs_ahead: 7,
                    for_ticks: 8,
                },
            ),
        ),
        (
            "partition t=1..13 + archive outage t=2..10",
            FaultPlan::new()
                .at(
                    1,
                    Fault::Partition {
                        client: 0,
                        heal_after: 12,
                    },
                )
                .at(2, Fault::ArchiveOutage { down_for: 8 }),
        ),
    ];
    for (i, (name, plan)) in schedules.into_iter().enumerate() {
        let mut sim: ChaosSim<'_, 8> =
            ChaosSim::new(curve, Granularity::Seconds, plan, 1300 + i as u64);
        let c = sim.add_client();
        for epoch in [2u64, 4, 6] {
            sim.send_for_epoch(c, epoch, format!("e13-{i}-{epoch}").as_bytes());
        }
        sim.run(10);
        let settled = sim.settle(120);
        let report = sim.check_invariants();
        let h = sim.client(c).health();
        row(&[
            name.into(),
            format!(
                "{} / {}",
                sim.deliveries_dropped(),
                sim.deliveries_injected()
            ),
            format!("{}", sim.server_restarts()),
            format!(
                "{} / {} / {} / {}",
                h.duplicates_skipped, h.rejected_updates, h.equivocations, h.recovered_from_archive
            ),
            if report.safety_ok() {
                "ok".into()
            } else {
                format!("VIOLATED {:?}", report.safety_violations)
            },
            if settled && report.liveness_ok() {
                "ok".into()
            } else {
                format!("VIOLATED {:?}", report.liveness_violations)
            },
        ]);
        // The row above shows the violation; the run fails on it.
        report.assert_ok();
    }
    println!("\n(Every schedule is replayed deterministically under its seed; safety holds");
    println!("throughout, and liveness is restored once connectivity returns — the");
    println!("asserting suite is `cargo test -p tre-server --test chaos`.)\n");
}

/// E14 (observability extension): per-phase crypto cost accounting and
/// structured tracing across the full stack. A scripted workload runs
/// encrypt → broadcast → verify → decrypt → archive-recovery with each
/// stage under its own span, then the trace's cumulative [`tre_obs::CryptoOps`]
/// and wall-clock attribution are tabulated, the client/channel/server
/// counters are exposed through the shared registry, and a seeded chaos
/// run demonstrates that the JSONL trace dump is byte-identical under the
/// same seed. Artifacts land in `target/e14/`.
fn e14() {
    println!("## E14 — observability: crypto cost accounting & structured tracing\n");
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let g = Granularity::Seconds;

    // The first run feeds the counter table and the metrics snapshot; the
    // wall-ms column is the per-phase median over all runs, since one
    // run's phase timings vary by over 50% on a shared host.
    let (trace, server, client) = e14_workload(curve, &fx, &mut r);
    let mut runs = vec![trace];
    runs.extend((1..E14_REPEATS).map(|_| e14_workload(curve, &fx, &mut rng()).0));
    let trace = &runs[0];

    // Every run's per-phase op counts are pinned: the tags are fixed and
    // every path is deterministic, so a change to the send, receive or
    // admission path that alters its crypto work fails here.
    for trace in &runs {
        for (name, want) in E14_OPS {
            let ops = trace.spans_named(name)[0].ops;
            let got = [
                ops.pairings,
                ops.scalar_mults,
                ops.h2c_iters,
                ops.sym_bytes,
                ops.hash_bytes,
            ];
            assert_eq!(
                got, want,
                "{name}: pairings, scalar mults, h2c iters, sym bytes, hash bytes"
            );
        }
    }
    let phases = E14_OPS.map(|(name, _)| name);
    header(&[
        "phase",
        "pairings",
        "scalar mults",
        "h2c iters",
        "sym bytes",
        "hash bytes",
    ]);
    for name in phases {
        let ops = trace.spans_named(name)[0].ops;
        row(&[
            name.into(),
            format!("{}", ops.pairings),
            format!("{}", ops.scalar_mults),
            format!("{}", ops.h2c_iters),
            format!("{}", ops.sym_bytes),
            format!("{}", ops.hash_bytes),
        ]);
    }
    println!();

    let median_ns = |name: &str| {
        median(
            runs.iter()
                .map(|t| t.spans_named(name)[0].wall_ns as f64)
                .collect(),
        )
    };
    let total_ns = phases.iter().map(|n| median_ns(n)).sum::<f64>().max(1.0);
    println!("(wall ms: median of {E14_REPEATS} runs of the workload)\n");
    header(&["phase", "wall ms", "share of workload"]);
    for name in phases {
        let ns = median_ns(name);
        row(&[
            name.into(),
            format!("{:.2}", ns / 1e6),
            format!("{:.0}%", 100.0 * ns / total_ns),
        ]);
    }
    println!();

    // Seeded chaos run under tracing: the JSONL dump (logical sequence
    // numbers only, no wall times) is byte-identical for the same seed.
    let chaos_trace = |seed: u64| {
        tre_obs::enable();
        let plan = FaultPlan::new()
            .at(
                1,
                Fault::DuplicateStorm {
                    client: 0,
                    copies: 2,
                    for_ticks: 6,
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
        let mut sim: ChaosSim<'_, 8> = ChaosSim::new(curve, g, plan, seed);
        let c = sim.add_client();
        sim.send_for_epoch(c, 3, b"e14 chaos");
        sim.run(10);
        sim.settle(80);
        (tre_obs::finish(), sim.net_stats())
    };
    let (t1, chaos_net) = chaos_trace(1414);
    let (t2, _) = chaos_trace(1414);

    // Unified metrics exposition: client health, the chaos run's channel
    // stats and the server broadcast count through the one shared registry.
    let mut registry = tre_obs::Registry::new();
    client.health().export_into(&mut registry, "tre_client");
    chaos_net.export_into(&mut registry, "tre_net");
    registry.counter_set("tre_server_broadcasts", server.broadcast_count());

    // The live daemon joins the same exposition: an in-process `tred` on
    // loopback with a journal-backed archive and one TCP subscriber, so
    // the snapshot covers the real transport (broadcasts, connections,
    // catch-ups, evictions) and the journal (appends, fsyncs) alongside
    // the simulated stack.
    {
        let journal_dir = std::path::Path::new("target/e14/journal");
        let _ = std::fs::remove_dir_all(journal_dir);
        let (archive, _) =
            UpdateArchive::open_durable(journal_dir, curve, JournalConfig::default())
                .expect("open e14 journal");
        let live_clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut r);
        let live = TimeServer::recover(
            curve,
            keys,
            live_clock.clone(),
            g,
            std::sync::Arc::new(archive),
        );
        let tred =
            Tred::bind("127.0.0.1:0", curve, live, TredConfig::default()).expect("bind e14 daemon");
        let mut feed: TcpFeed<8> =
            TcpFeed::new(curve, tred.local_addr()).with_clock(live_clock.clone());
        let live_sub = feed.subscribe();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while tred.subscriber_count() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        live_clock.advance(3);
        // Epoch 3 is the ticker's last broadcast, and it counts an epoch's
        // forecast hit or miss before broadcasting it: once epoch 3
        // arrives, every ticker counter is final.
        let last = g.tag_for_epoch(3);
        let mut got_last = false;
        while !got_last && std::time::Instant::now() < deadline {
            got_last = feed.poll(live_sub).iter().any(|(_, u)| *u.tag() == last);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(got_last, "the live daemon delivered epoch 3");
        tred.export_into(&mut registry, "tre_tred");
        tred.shutdown();
        // Whether the idle forecast worker hashed epoch 1's tag before the
        // clock jumped is a race, so the hit/miss split varies between
        // runs; every broadcast epoch is one or the other.
        let hits = registry.counter("tre_tred_forecast_hits");
        let misses = registry.counter("tre_tred_forecast_misses");
        let broadcasts = registry.counter("tre_tred_broadcasts");
        assert_eq!(
            hits + misses,
            broadcasts,
            "every signed epoch is a forecast hit or miss"
        );
    }

    println!("Prometheus exposition snapshot:\n");
    println!("```");
    print!("{}", registry.render_prometheus());
    println!("```\n");

    let reproducible = t1.to_jsonl() == t2.to_jsonl();
    assert!(reproducible, "same seed must dump a byte-identical trace");
    println!(
        "chaos run (seed 1414): {} trace lines, {} fault activations, \
         same-seed JSONL byte-identical: {reproducible}\n",
        t1.lines.len(),
        t1.events()
            .iter()
            .filter(|(n, _)| *n == "fault.activated")
            .count(),
    );

    let dir = std::path::Path::new("target/e14");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join("trace.jsonl"), t1.to_jsonl());
        let _ = std::fs::write(dir.join("metrics.prom"), registry.render_prometheus());
        let _ = std::fs::write(dir.join("metrics.json"), registry.render_json());
        println!("artifacts: target/e14/{{trace.jsonl, metrics.prom, metrics.json}}\n");
    }
}

/// Runs of the E14 sim workload behind the median wall-ms column.
const E14_REPEATS: usize = 5;

/// E14's phases with their op counts on toy64: pairings, scalar mults,
/// h2c iterations, sym bytes and hash bytes.
const E14_OPS: [(&str, [u64; 5]); 5] = [
    ("phase.encrypt", [4, 2, 5, 0, 1344]),
    ("phase.broadcast", [0, 6, 7, 0, 1344]),
    ("phase.verify", [6, 0, 7, 0, 1344]),
    ("phase.decrypt", [2, 0, 0, 0, 384]),
    ("phase.archive_recovery", [6, 11, 16, 0, 3456]),
];

/// One traced run of the E14 sim workload — encrypt, broadcast, verify,
/// decrypt and archive recovery, one span per phase — returning the
/// trace and the server and client it ran on. The server's updates go
/// straight to the client: the phases cost crypto, not a channel.
fn e14_workload<'c>(
    curve: &'c Curve<8>,
    fx: &Fixture<8>,
    r: &mut rand::rngs::StdRng,
) -> (tre_obs::Trace, TimeServer<'c, 8>, ReceiverClient<'c, 8>) {
    let spk = *fx.server.public();
    let g = Granularity::Seconds;
    tre_obs::enable();
    let clock = SimClock::new();
    let mut server = TimeServer::new(curve, fx.server.clone(), clock.clone(), g);
    let mut client = ReceiverClient::new(curve, spk, fx.user.clone());

    // Encrypt: two messages locked to epochs 1 and 2. The session open
    // (key validation + table build) is part of the encrypt phase.
    let cts: Vec<_> = {
        let _p = tre_obs::span("phase.encrypt");
        let sender = Sender::new(curve, &spk, fx.user.public()).unwrap();
        [1u64, 2]
            .iter()
            .map(|&e| sender.encrypt(&g.tag_for_epoch(e), b"e14 payload", r))
            .collect()
    };
    // Broadcast: the server signs epochs 0..=2.
    let updates = {
        let _p = tre_obs::span("phase.broadcast");
        clock.advance(2);
        server.poll()
    };
    // Verify: the client consumes the updates one by one a tick later
    // while nothing is pending, so this phase isolates the two-pairing
    // self-authentication cost.
    {
        let _p = tre_obs::span("phase.verify");
        clock.advance(1);
        for u in updates {
            let _ = client.receive_update(u, clock.now());
        }
    }
    // Decrypt: the ciphertexts arrive after their updates are cached, so
    // each opens immediately — pure decryption cost.
    {
        let _p = tre_obs::span("phase.decrypt");
        for ct in cts {
            client.receive_ciphertext(ct, clock.now());
        }
    }
    // Archive recovery: a message for an epoch whose broadcast the client
    // never saw is recovered from the public archive (verify + decrypt).
    {
        let _p = tre_obs::span("phase.archive_recovery");
        let ct = Sender::new(curve, &spk, fx.user.public()).unwrap().encrypt(
            &g.tag_for_epoch(5),
            b"missed broadcast",
            r,
        );
        client.receive_ciphertext(ct, clock.now());
        clock.advance(4);
        server.poll(); // epochs 3..=7 archived, deliberately not broadcast
        client.catch_up(server.archive(), clock.now(), |t| g.epoch_of_tag(t));
    }
    let trace = tre_obs::finish();
    assert_eq!(
        client.opened().len(),
        3,
        "workload opens all three messages"
    );
    (trace, server, client)
}

/// E11 (extension): the §6 future-work cover-tree scheme — missing-update
/// resilience costs vs plain TRE + archive catch-up.
fn e11() {
    use tre_core::resilient::{self, EpochTree, ResilientBroadcast};
    println!("## E11 — missing-update resilience (§6 future work, cover-tree extension)\n");
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let update_bytes = update_body_len(
        curve,
        &fx.server.issue_update(curve, &ReleaseTag::time("x")),
    );

    header(&[
        "epochs covered",
        "plain TRE: archive catch-up after missing all",
        "cover tree: latest broadcast only",
        "cover-tree ciphertext bytes (64 B msg)",
    ]);
    for depth in [6u32, 10, 16] {
        let tree = EpochTree::new(depth);
        let n = tree.epochs();
        let now = n - 2;
        let bc = ResilientBroadcast::issue(curve, &fx.server, &tree, now);
        let ct = resilient::encrypt(
            curve,
            fx.server.public(),
            fx.user.public(),
            &tree,
            n / 2,
            &[0u8; 64],
            &mut r,
        )
        .unwrap();
        // Sanity: the latest broadcast opens the mid-range message.
        assert!(resilient::decrypt(curve, fx.server.public(), &fx.user, &tree, &bc, &ct).is_ok());
        row(&[
            format!("2^{depth} = {n}"),
            format!(
                "{} updates ≈ {} B",
                now + 1,
                (now + 1) * update_bytes as u64
            ),
            format!("{} sigs = {} B", bc.len(), bc.size(curve)),
            format!("{}", ct.size(curve)),
        ]);
    }
    println!("\n(One O(log T) broadcast replaces O(T) archive fetches; release-time");
    println!("soundness is preserved — every cover node is signed only after its whole");
    println!("leaf range has passed.)\n");
}

/// `F_p` multiplications E15's 64-update burst verify may spend: the
/// ceiling `tre-server`'s `tests/batch.rs` asserts on a 64-update
/// catch-up (~34,000 measured plus 15% headroom).
const E15_BURST_64_FP_MUL_CEILING: u64 = 39_000;

/// E15: batch verification and the parallel crypto pipeline — the
/// broadcast hot path under burst delivery (PR 3 tentpole).
fn e15() {
    println!("## E15 — batch verification & parallel crypto pipeline\n");
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let prep_key = spk.prepare(curve);
    let make = |n: usize| -> Vec<KeyUpdate<8>> {
        (0..n)
            .map(|i| {
                fx.server
                    .issue_update(curve, &ReleaseTag::time(format!("e15/{i}")))
            })
            .collect()
    };
    // The one verifier: the indices of a burst it rejects.
    let rejected =
        |burst: &[KeyUpdate<8>], threads: usize| prep_key.verify_burst(curve, burst, None, threads);
    let ops_of = |f: &dyn Fn()| -> tre_obs::CryptoOps {
        tre_obs::enable();
        f();
        tre_obs::finish().total_ops()
    };
    let pairings_of = |f: &dyn Fn()| ops_of(f).pairings;

    // Burst-size sweep: the one verifier's small-exponent batch check
    // replaces the 2n pairings of per-update textbook verification with
    // 2, regardless of n; its combine is one multi-scalar multiplication
    // per side, counted as one scalar multiplication per term. Every
    // timed column is a median of PAIRED_REPEATS interleaved pairs.
    header(&[
        "burst n",
        "sequential pairings",
        "batched pairings",
        "batched Fp muls",
        "batched scalar mults",
        "sequential ms",
        "batched ms",
        "speedup",
    ]);
    let mut burst_rows = Vec::new();
    for n in [1usize, 4, 16, 64] {
        let batch = make(n);
        let seq_p = pairings_of(&|| {
            assert!(batch.iter().all(|u| u.verify(curve, &spk)));
        });
        let bat = ops_of(&|| {
            assert!(rejected(&batch, 1).is_empty());
        });
        let bat_p = bat.pairings;
        if n == 64 {
            assert!(
                bat.fp_muls <= E15_BURST_64_FP_MUL_CEILING,
                "a 64-update burst verify spent {} Fp muls (ceiling {E15_BURST_64_FP_MUL_CEILING})",
                bat.fp_muls
            );
        }
        let iters = if n >= 16 { 2 } else { 5 };
        let (seq_ms, bat_ms, speedup) = paired_ms(
            iters,
            || batch.iter().all(|u| u.verify(curve, &spk)),
            || rejected(&batch, 1),
        );
        row(&[
            format!("{n}"),
            format!("{seq_p}"),
            format!("{bat_p}"),
            format!("{}", bat.fp_muls),
            format!("{}", bat.scalar_mults),
            format!("{seq_ms:.2}"),
            format!("{bat_ms:.2}"),
            format!("{speedup:.2}x"),
        ]);
        burst_rows.push(record! {
            "n": n, "iters": iters, "sequential_ms": seq_ms, "batched_ms": bat_ms,
            "speedup": speedup, "sequential_pairings": seq_p, "batched_pairings": bat_p,
            "batched_fp_muls": bat.fp_muls, "batched_scalar_mults": bat.scalar_mults,
        });
    }
    println!();

    // Adversarial worst case: one forgery hidden in a burst of 64 is
    // isolated by bisection in O(log n) batch checks, not 2n pairings.
    let mut poisoned = make(64);
    poisoned[21] = KeyUpdate::from_parts(
        poisoned[21].tag().clone(),
        curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut r)),
    );
    let iso_p = pairings_of(&|| {
        assert_eq!(rejected(&poisoned, 1), vec![21]);
    });
    println!(
        "isolating 1 forgery in a burst of 64: {iso_p} pairings \
         (vs 128 one-by-one)\n"
    );

    // Thread sweep over the parallelisable stages (tag hashing inside
    // the burst verifier, per-message decryption inside decrypt_bulk); results
    // are order-deterministic for any thread count. On a single-core
    // host the sweep shows overhead, not speedup — that is the point of
    // making `threads` a knob instead of a default.
    let batch64 = make(64);
    let tag = ReleaseTag::time("e15/bulk");
    let update = fx.server.issue_update(curve, &tag);
    let sender = Sender::new(curve, &spk, fx.user.public()).unwrap();
    let cts: Vec<_> = (0..16)
        .map(|i| sender.encrypt(&tag, &[i as u8; 32], &mut r))
        .collect();
    header(&["threads", "batch_verify(64) ms", "open_bulk(16) ms"]);
    let mut thread_rows = Vec::new();
    for t in [1usize, 2, 4] {
        // Both columns from one interleaved series, so a noisy stretch
        // of the host slows both alike.
        let (v_ms, d_ms, _) = paired_ms(
            2,
            || rejected(&batch64, t),
            || {
                // Fresh session per call: open_bulk then verifies the
                // update and prepares its I_T exactly once.
                Receiver::new(curve, spk, fx.user.clone())
                    .open_bulk(&update, &cts, t)
                    .unwrap()
            },
        );
        row(&[format!("{t}"), format!("{v_ms:.2}"), format!("{d_ms:.2}")]);
        thread_rows.push(record! { "threads": t, "batch_verify_ms": v_ms, "open_bulk_ms": d_ms });
    }
    // Thread-scaling guard: spawning more workers than the host has
    // cores must never make the batch path slower (the par layer clamps
    // its fan-out to the available parallelism). Decided on the median
    // of interleaved 1-thread/4-thread pairs, not one sample per side;
    // allow 15% noise.
    let (_, _, speedup_4t) = paired_ms(2, || rejected(&batch64, 1), || rejected(&batch64, 4));
    assert!(
        speedup_4t >= 0.85,
        "4-thread batch_verify regressed vs 1 thread: {speedup_4t:.2}x"
    );
    println!(
        "\n(4-thread vs 1-thread batch_verify speedup, median of {PAIRED_REPEATS} pairs: \
         {speedup_4t:.2}x — guarded ≥ 1 up to noise.)\n"
    );

    // Sender-side precomputation: the key check, the G table and the
    // prepared asG are paid once at session open; a reused session's
    // repeat-tag encrypt is one table-driven r·G and one G_T power.
    let plain_ms = time_ms(5, || {
        Sender::new(curve, &spk, fx.user.public())
            .unwrap()
            .encrypt(&tag, b"msg", &mut r)
    });
    let pre_ms = time_ms(5, || sender.encrypt(&tag, b"msg", &mut r));
    println!(
        "sender path: per-call session open {plain_ms:.2} ms vs reused session {pre_ms:.2} ms \
         ({:.2}x)\n",
        plain_ms / pre_ms.max(1e-9)
    );

    record! {
        "batch_verify": burst_rows, "isolate_64_pairings": iso_p, "encrypt_plain_ms": plain_ms,
        "encrypt_precomp_ms": pre_ms, "threads": thread_rows, "speedup_4t": speedup_4t,
    }
    .write("e15");
}

/// E17: the live committee hot path — per-epoch cost of verifying and
/// exponent-Lagrange aggregating a 3-of-5 share set, with the pairing
/// budget counter-asserted: a clean (or merely degraded) epoch spends at
/// most `k+1` pairing lanes, because only the `k` shares needed to close
/// quorum are ever examined.
fn e17() {
    use tre_core::committee::{dealer_setup, verify_and_aggregate, ShareFault};
    println!("## E17 — committee verify+aggregate per epoch (n=5, k=3)\n");
    let curve = toy64();
    let mut r = rng();
    let (k, n) = (3u32, 5u32);
    let (roster, members) = dealer_setup(curve, k, n, &mut r);
    let forged = |r: &mut rand::rngs::StdRng, tag: &ReleaseTag| {
        KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(r)),
        )
    };

    // Each scenario yields one epoch's submission set for a fresh tag.
    let tag_for = |epoch: usize| ReleaseTag::time(format!("e17/{epoch}"));
    let honest = |tag: &ReleaseTag, who: &[u32]| -> Vec<(u32, KeyUpdate<8>)> {
        members
            .iter()
            .filter(|m| who.contains(&m.index()))
            .map(|m| (m.index(), m.issue_share(curve, tag)))
            .collect()
    };

    header(&[
        "scenario",
        "verify+aggregate ms",
        "pairings/epoch",
        "aggregated",
    ]);
    let mut scenario_rows = Vec::new();
    let scenarios: [(&str, &[u32], bool, bool); 4] = [
        ("all 5 honest", &[1, 2, 3, 4, 5], false, false),
        ("exactly k=3 (2 missing)", &[1, 3, 5], false, false),
        ("1 Byzantine of 5", &[1, 3, 4, 5], true, false),
        ("1 equivocating of 5", &[1, 2, 3, 5], false, true),
    ];
    for (name, who, byzantine, equivocating) in scenarios {
        let mut epoch = 0usize;
        let mut build = |r: &mut rand::rngs::StdRng| {
            epoch += 1;
            let tag = tag_for(epoch);
            let mut subs = honest(&tag, who);
            if byzantine {
                // Member 2's share is a random G1 point: structurally
                // valid, fails the pairing check, costs bisection.
                subs.insert(1, (2, forged(r, &tag)));
            }
            if equivocating {
                // Member 4 submits two conflicting shares: convicted by
                // byte comparison alone, both copies discarded unpaired.
                subs.push((4, forged(r, &tag)));
                subs.push((4, forged(r, &tag)));
            }
            (tag, subs)
        };

        let (tag, subs) = build(&mut r);
        let ms = time_ms(5, || verify_and_aggregate(curve, &roster, &tag, &subs));

        tre_obs::enable();
        let (agg, verdicts) = verify_and_aggregate(curve, &roster, &tag, &subs);
        let pairings = tre_obs::finish().total_ops().pairings;
        let update = agg.expect("k shares always survive in every scenario");
        assert!(
            update.verify(curve, roster.public()),
            "aggregated update verifies against the committee key"
        );
        if byzantine {
            assert!(
                verdicts
                    .iter()
                    .any(|v| v.member == 2 && v.fault == Some(ShareFault::BadShare)),
                "forger is named"
            );
        } else if equivocating {
            assert!(
                verdicts
                    .iter()
                    .any(|v| v.member == 4 && v.fault == Some(ShareFault::Equivocation)),
                "equivocator is named"
            );
            assert!(
                pairings <= (k + 1) as u64,
                "equivocation is convicted without extra pairings: {pairings} > k+1"
            );
        } else {
            assert!(
                pairings <= (k + 1) as u64,
                "clean epoch exceeded the pairing budget: {pairings} > k+1"
            );
        }

        row(&[
            name.into(),
            format!("{ms:.2}"),
            format!("{pairings}"),
            "yes".into(),
        ]);
        scenario_rows
            .push(record! { "scenario": name, "ms": ms, "pairings": pairings, "budget": k + 1 });
    }
    println!(
        "\n(clean epochs counter-assert ≤ k+1 = {} pairing lanes; aggregation itself is \
         pairing-free.)\n",
        k + 1
    );

    record! { "k": k, "n": n, "rows": scenario_rows }.write("e17");
}

/// Stage-transition names in pipeline order, plus the end-to-end total —
/// the row order of every E18 table (BTreeMap iteration would scramble
/// the pipeline).
fn e18_stage_order() -> Vec<String> {
    let mut names: Vec<String> = Stage::ALL
        .windows(2)
        .map(|w| format!("{}_to_{}", w[0].name(), w[1].name()))
        .collect();
    names.push("end_to_end".to_string());
    names
}

/// Prints one E18 attribution table and returns its record rows.
fn e18_table(
    hists: &std::collections::BTreeMap<String, tre_obs::LatencyHistogram>,
) -> Vec<BenchRecord> {
    header(&["stage", "samples", "p50 µs", "p99 µs", "max µs"]);
    let mut stage_rows = Vec::new();
    for name in e18_stage_order() {
        let Some(h) = hists.get(&name) else { continue };
        let p50 = h.quantile(0.5).unwrap_or(0);
        let p99 = h.quantile(0.99).unwrap_or(0);
        row(&[
            name.replace("_to_", " → ")
                .replace("end → end", "end-to-end"),
            format!("{}", h.count()),
            format!("{p50}"),
            format!("{p99}"),
            format!("{}", h.max()),
        ]);
        stage_rows.push(record! {
            "stage": name.as_str(), "samples": h.count(), "p50_us": p50, "p99_us": p99,
            "max_us": h.max(),
        });
    }
    println!();
    stage_rows
}

/// Asserts the attribution-conservation identity for `epoch`: every
/// stage stamped, and the stage deltas telescope to the end-to-end
/// latency. Each delta is floored to whole microseconds, so the sum may
/// undershoot the (also floored) total by at most one µs per transition.
fn e18_assert_conserved(sink: &TraceSink, epoch: u64, section: &str) {
    let trace = sink
        .epoch_trace(epoch)
        .unwrap_or_else(|| panic!("{section}: epoch {epoch} traced"));
    let deltas = trace.stage_deltas_us();
    assert!(
        deltas.iter().all(Option::is_some),
        "{section}: epoch {epoch} missing a stage stamp: {deltas:?}"
    );
    let sum: u64 = deltas.iter().map(|d| d.unwrap()).sum();
    let e2e = trace.end_to_end_us().unwrap();
    assert!(
        sum <= e2e && e2e - sum <= 5,
        "{section}: epoch {epoch} stage deltas do not telescope: sum {sum}µs vs end-to-end {e2e}µs"
    );
}

/// The E18 sim rig: `subs` subscribers handed each published update
/// directly (no modeled channel — the table measures the *software*
/// pipeline), each holding one sealed message; the last subscriber
/// holds one per epoch so every epoch's final delivery comes from the
/// client that also verifies last, keeping the latest-delivery stamps
/// monotone across stages.
fn e18_sim(
    subs: usize,
    epochs: u64,
) -> std::collections::BTreeMap<String, tre_obs::LatencyHistogram> {
    let curve = toy64();
    let mut r = rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut r);
    let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let spk = *server.public_key();
    let sink = TraceSink::new();
    server.set_trace_sink(sink.clone());

    let g = Granularity::Seconds;
    let mut clients = Vec::with_capacity(subs);
    for i in 0..subs {
        let user = UserKeyPair::generate(curve, &spk, &mut r);
        let mut client = ReceiverClient::new(curve, spk, user).with_trace_sink(sink.clone());
        let sender = Sender::new(curve, &spk, client.public_key()).unwrap();
        let own: Vec<u64> = if i + 1 == subs {
            (0..epochs).collect()
        } else {
            vec![i as u64 % epochs]
        };
        for &epoch in &own {
            let ct = sender.encrypt(
                &g.tag_for_epoch(epoch),
                format!("e18-{i}-{epoch}").as_bytes(),
                &mut r,
            );
            client.receive_ciphertext(ct, 0);
        }
        clients.push(client);
    }

    // One epoch per tick: publish → deliver to every subscriber (epoch 0
    // is due at boot, so the first tick skips the clock advance).
    for tick in 0..epochs {
        if tick > 0 {
            clock.advance(1);
        }
        let updates = server.poll();
        let published: Vec<u64> = updates
            .iter()
            .map(|u| g.epoch_of_tag(u.tag()).expect("canonical epoch tag"))
            .collect();
        for &epoch in &published {
            sink.record_now(epoch, Stage::Broadcast);
        }
        for client in clients.iter_mut() {
            for &epoch in &published {
                sink.record_now(epoch, Stage::FirstByte);
            }
            client.receive_updates(&updates, clock.now());
        }
    }

    for epoch in 0..epochs {
        e18_assert_conserved(&sink, epoch, "sim");
    }
    assert!(
        clients.iter().all(|c| c.pending_count() == 0),
        "every sim subscriber decrypted its sealed message"
    );
    sink.stage_histograms()
}

/// The E18 live rig: a `tred` daemon behind a chaos proxy injecting a
/// mid-run latency spike, three supervised TCP clients each holding one
/// sealed message per epoch. The fault plan is reset-free on purpose:
/// catch-up replays re-stamp `first_byte` (latest delivery, by design),
/// so strict telescoping holds only on replay-free epochs — replay
/// tracing is exercised by the chaos integration tests instead.
fn e18_live(epochs: u64) -> std::collections::BTreeMap<String, tre_obs::LatencyHistogram> {
    use std::time::{Duration, Instant};
    const CLIENTS: usize = 3;
    const DEADLINE: Duration = Duration::from_secs(30);

    let curve = toy64();
    let mut r = rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut r);
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let sink = TraceSink::new();
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        sink.clone(),
    )
    .unwrap();
    let spk = *tred.public_key();
    let plan = FaultPlan::new().at(
        40,
        Fault::LatencySpike {
            delay_ms: 30,
            for_ms: 120,
        },
    );
    let proxy = ChaosProxy::bind("127.0.0.1:0", tred.local_addr(), &plan, 18).unwrap();

    let feed: TcpFeed<8> = TcpFeed::new(curve, proxy.local_addr()).with_clock(clock.clone());
    let mut feed = SupervisedFeed::new(feed, Granularity::Seconds, SupervisorConfig::default(), 18);
    feed.set_trace_sink(sink.clone());
    let mut clients: Vec<ReceiverClient<8>> = (0..CLIENTS)
        .map(|_| {
            ReceiverClient::new(curve, spk, UserKeyPair::generate(curve, &spk, &mut r))
                .with_trace_sink(sink.clone())
        })
        .collect();
    let subs: Vec<_> = clients.iter().map(|_| feed.subscribe()).collect();
    let start = Instant::now();
    while tred.subscriber_count() < CLIENTS && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tred.subscriber_count(), CLIENTS, "subscribers bridged");

    let g = Granularity::Seconds;
    for (i, c) in clients.iter_mut().enumerate() {
        let sender = Sender::new(curve, &spk, c.public_key()).unwrap();
        for epoch in 0..=epochs {
            let ct = sender.encrypt(
                &g.tag_for_epoch(epoch),
                format!("m-{i}-{epoch}").as_bytes(),
                &mut r,
            );
            c.receive_ciphertext(ct, 0);
        }
    }

    // ~40ms per epoch so the spike window overlaps live traffic.
    for _ in 1..=epochs {
        clock.advance(1);
        let slice = Instant::now();
        while slice.elapsed() < Duration::from_millis(40) {
            for (c, sub) in clients.iter_mut().zip(&subs) {
                c.pump(&mut feed, *sub);
            }
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    let want = (epochs + 1) as usize;
    let start = Instant::now();
    while clients.iter().any(|c| c.opened().len() < want) && start.elapsed() < DEADLINE {
        for (c, sub) in clients.iter_mut().zip(&subs) {
            c.pump(&mut feed, *sub);
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(
        clients.iter().all(|c| c.opened().len() == want),
        "all live clients settled to every epoch"
    );

    for epoch in 0..=epochs {
        e18_assert_conserved(&sink, epoch, "live");
        let ctx = feed
            .trace_for(epoch)
            .unwrap_or_else(|| panic!("live: epoch {epoch} telemetry trailer decoded"));
        assert_eq!(ctx.epoch, epoch, "trailer names its epoch");
    }

    // Daemon-side frame conservation after quiescence: everything the
    // broadcaster offered was resolved — nothing stuck in flight.
    let stats = tred.stats();
    assert_eq!(
        stats.in_flight(),
        0,
        "live: no broadcast frames left in flight after settling"
    );

    proxy.shutdown();
    tred.shutdown();
    sink.stage_histograms()
}

/// E18: end-to-end epoch-delivery latency attribution. One shared
/// [`TraceSink`] is threaded through every hop of each rig; per-epoch
/// stage stamps (publish → journal-fsync → broadcast → first-byte →
/// verified → decrypted, origin stages keeping the first stamp and
/// delivery stages the *last* across subscribers) telescope into the
/// p50/p99/max table below, with the conservation identity asserted per
/// epoch. Quick mode (`TRE_BENCH_QUICK=1`) trims epochs but keeps the
/// full subscriber count.
fn e18() {
    println!("## E18 — epoch-delivery latency attribution (sim + live)\n");
    let quick = quick();
    let sim_subs = 1000usize;
    let sim_epochs: u64 = if quick { 4 } else { 8 };
    let live_epochs: u64 = if quick { 6 } else { 10 };

    println!("### sim: {sim_subs} subscribers, {sim_epochs} epochs, zero-latency channel\n");
    let sim = e18_sim(sim_subs, sim_epochs);
    let sim_rows = e18_table(&sim);
    println!("(per-epoch stage deltas telescope to end-to-end — asserted for every epoch.)\n");

    println!(
        "### live: 3 TCP clients via chaos proxy (30ms latency spike), {live_epochs} epochs\n"
    );
    let live = e18_live(live_epochs);
    let live_rows = e18_table(&live);
    println!(
        "(conservation asserted per epoch; daemon frame balance settled to zero in flight.)\n"
    );

    record! {
        "sim": record! { "subscribers": sim_subs, "epochs": sim_epochs, "stages": sim_rows },
        "live": record! { "clients": 3u32, "epochs": live_epochs, "stages": live_rows },
    }
    .write("e18");
}

/// E19: prepared pairings — fixed-argument Miller precomputation on the
/// verify/decrypt hot path — and the field-kernel layer beneath them
/// (eager Karatsuba F_{p²} products on fused CIOS, the dedicated
/// Montgomery squaring, unitary G_T squaring and signed-window powers),
/// whose per-call timings close the report without a wall-clock
/// guard. Counter-guarded: every prepared row must spend
/// strictly fewer F_p multiplications at an identical pairing count
/// (the memo-hit seal row at zero pairings instead of one; the
/// forecast-hit verify row at one pairing and zero hash-to-curve
/// iterations; the prepared verify row with zero G1 scalar mults, the
/// cofactor riding on the prepared `sG` lane), the 5-lane verdict-shaped
/// multi-pairing must clear 3x wall-clock over naive fixed-argument
/// evaluation, and the prepared batch path must not regress the E15
/// numbers. The hash-to-curve row (candidate vs cleared) is reported
/// without a wall-clock guard. Each wall-clock guard is decided from
/// [`paired_ms`] medians, not from a single run.
fn e19() {
    println!("## E19 — prepared pairing kernels (fixed-argument Miller precomputation)\n");
    let quick = quick();
    let iters = if quick { 10 } else { 50 };
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let prep_key = spk.prepare(curve);

    // The production fixed argument: P = sG, with a fresh second point
    // per evaluation (an epoch hash, here a random subgroup point).
    let sg = *spk.s_g();
    let neg_g = curve.g1_neg(spk.g());
    let q = curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut r));
    let sig = curve.g1_mul(&q, &curve.random_scalar(&mut r));

    let ops_of = |f: &dyn Fn()| -> tre_obs::CryptoOps {
        tre_obs::enable();
        f();
        tre_obs::finish().total_ops()
    };

    header(&[
        "kernel",
        "generic ms",
        "prepared ms",
        "speedup",
        "Fp muls (gen → prep)",
        "pairings",
    ]);
    // Prints one generic-vs-prepared table row and returns the record
    // fields every kernel shares.
    let kernel_row = |label: &str,
                      kernel: &str,
                      (generic_ms, prepared_ms, speedup): (f64, f64, f64),
                      generic: &tre_obs::CryptoOps,
                      prepared: &tre_obs::CryptoOps| {
        row(&[
            label.into(),
            format!("{generic_ms:.3}"),
            format!("{prepared_ms:.3}"),
            format!("{speedup:.2}x"),
            format!("{} → {}", generic.fp_muls, prepared.fp_muls),
            format!("{} → {}", generic.pairings, prepared.pairings),
        ]);
        record! {
            "kernel": kernel, "generic_ms": generic_ms, "prepared_ms": prepared_ms,
            "speedup": speedup, "generic_fp_muls": generic.fp_muls,
            "prepared_fp_muls": prepared.fp_muls,
        }
    };
    // Rows 1–3: a fixed-argument pairing product, naive per-lane generic
    // pairings against the prepared kernel (what a verifier without
    // shared-chain multi-pairing pays). One lane times
    // `pairing_prepared`, the kernel decrypt, the seal memo miss and the
    // forecast call run; more lanes time one prepared multi-pairing. The
    // multi-pairing is held to the same checks on every row, one lane
    // included. Same pairing count, strictly fewer F_p muls. Returns the
    // row, the median speedup and the timed kernel's F_p muls.
    let lane_row = |label: &str, kernel: &str, fixed: &[G1Affine<8>], fresh: &[G1Affine<8>]| {
        let preps: Vec<_> = fixed.iter().map(|p| curve.prepare(p)).collect();
        let lanes: Vec<_> = preps.iter().zip(fresh).map(|(p, q)| (p, *q)).collect();
        let naive = || {
            fixed
                .iter()
                .zip(fresh)
                .map(|(p, q)| curve.pairing(p, q))
                .reduce(|a, b| a.mul(&b, curve))
                .expect("at least one lane")
        };
        let multi = || curve.multi_pairing_mixed(&lanes, &[]);
        let prepared = || match lanes.as_slice() {
            [(p, q)] => curve.pairing_prepared(p, q),
            _ => multi(),
        };
        let ms = paired_ms(iters, &naive, &prepared);
        let generic = ops_of(&|| {
            naive();
        });
        let prep = ops_of(&|| {
            prepared();
        });
        let multi_ops = ops_of(&|| {
            multi();
        });
        for (what, value, ops) in [
            ("prepared kernel", prepared(), &prep),
            ("multi-pairing", multi(), &multi_ops),
        ] {
            assert_eq!(
                value,
                naive(),
                "{kernel}: {what} must agree with the lane product"
            );
            assert_eq!(
                generic.pairings, ops.pairings,
                "{kernel} {what} pairing count"
            );
            assert!(
                ops.fp_muls < generic.fp_muls,
                "{kernel} {what} must spend fewer Fp muls ({} vs {})",
                ops.fp_muls,
                generic.fp_muls
            );
        }
        let record = kernel_row(label, kernel, ms, &generic, &prep)
            .with("lanes", fixed.len())
            .with("multi_fp_muls", multi_ops.fp_muls);
        (record, ms.2, prep.fp_muls)
    };

    // Row 1: one fixed-argument pairing ê(sG, Q).
    let (single, speed1, fp_muls_per_prepared_pairing) =
        lane_row("ê(sG, ·) single", "single", &[sg], &[q]);
    // Row 2: the verify shape ê(−G, sig)·ê(sG, H), both fixed sides
    // prepared.
    let (verify_shape, speed2, _) = lane_row(
        "verify shape (2 lanes)",
        "prepared_multi_2_lane",
        &[neg_g, sg],
        &[sig, q],
    );
    // Row 3: the failover verdict shape — 5 lanes (N=4 servers + the
    // aggregate lane). More lanes amortise the one shared squaring chain
    // and single final exponentiation further.
    let mut random_points = || -> Vec<_> {
        (0..5)
            .map(|_| curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut r)))
            .collect()
    };
    let (fixed, fresh) = (random_points(), random_points());
    let (verdict_shape, speed3, _) = lane_row(
        "verdict shape (5 lanes)",
        "prepared_multi_5_lane",
        &fixed,
        &fresh,
    );
    let lane_rows = vec![single, verify_shape, verdict_shape];
    let mut kernel_rows = Vec::new();

    // Row 4: one seal on a memo hit. The textbook §5.1 step U = r·G,
    // K = ê(r·asG, H1(T)) (generic scalar muls, one pairing) against
    // `Sender::encrypt` to the previous seal's tag: one table-driven
    // r·G and one power of the memoized ê(H1(T), asG), no pairing.
    let seal_tag = ReleaseTag::time("e19/seal");
    let h_t = curve.hash_to_g1(seal_tag.h1_domain(), seal_tag.value());
    let asg = *fx.user.public().a_s_g();
    let textbook = |r: &tre_bigint::U256| {
        (
            curve.g1_mul(spk.g(), r),
            curve.pairing(&curve.g1_mul(&asg, r), &h_t),
        )
    };
    let seal_sender = Sender::new(curve, &spk, fx.user.public()).unwrap();
    let seal = || seal_sender.encrypt(&seal_tag, b"e19 seal", &mut rng());
    // Warm the memo, and check the memoized seal against the textbook
    // one: same U for the same r, and the receiver opens it.
    let sealed = seal();
    assert_eq!(
        sealed.u(),
        &textbook(&curve.random_scalar(&mut rng())).0,
        "memoized seal must use the same r·G"
    );
    let mut seal_receiver = Receiver::new(curve, spk, fx.user.clone());
    seal_receiver
        .observe_update(fx.server.issue_update(curve, &seal_tag))
        .unwrap();
    assert_eq!(seal_receiver.open(&sealed).unwrap(), b"e19 seal");
    let seal_r = curve.random_scalar(&mut r);
    let ms4 = paired_ms(iters, || textbook(&seal_r), seal);
    let gen4 = ops_of(&|| {
        textbook(&seal_r);
    });
    let prep4 = ops_of(&|| {
        seal();
    });
    kernel_rows.push(
        kernel_row("seal (memo hit)", "seal_memo_hit", ms4, &gen4, &prep4)
            .with("generic_pairings", gen4.pairings)
            .with("prepared_pairings", prep4.pairings),
    );
    // Row 5: one verify on a forecast hit. The one verifier on one
    // update with no forecast (hash, then the folded 2-lane check)
    // against the same call given the tag's forecast, with `H1(T)` and
    // `ê(sG, H1(T))` computed ahead of time: one prepared lane and one
    // G_T multiplication, no hash.
    let fc_tag = ReleaseTag::time("e19/forecast");
    let fc_update = fx.server.issue_update(curve, &fc_tag);
    let forecast = prep_key.forecast(curve, &fc_tag);
    let verify_one = |forecast| {
        prep_key
            .verify_burst(curve, std::slice::from_ref(&fc_update), forecast, 1)
            .is_empty()
    };
    assert!(
        verify_one(Some(&forecast)),
        "a forecast hit must accept an honest update"
    );
    let ms5 = paired_ms(iters, || verify_one(None), || verify_one(Some(&forecast)));
    let gen5 = ops_of(&|| {
        verify_one(None);
    });
    let prep5 = ops_of(&|| {
        verify_one(Some(&forecast));
    });
    kernel_rows.push(
        kernel_row(
            "verify (forecast hit)",
            "forecast_hit_verify",
            ms5,
            &gen5,
            &prep5,
        )
        .with("generic_pairings", gen5.pairings)
        .with("prepared_pairings", prep5.pairings)
        .with("generic_h2c_iters", gen5.h2c_iters)
        .with("prepared_h2c_iters", prep5.h2c_iters),
    );
    // Row 6: one honest verify. The textbook check (cleared H1(T), two
    // generic pairings) against the one verifier on one update, whose
    // `(h mod q)·sG` lane takes H1(T)'s uncleared candidate: no G1
    // scalar mult at all.
    let ms6 = paired_ms(iters, || fc_update.verify(curve, &spk), || verify_one(None));
    let gen6 = ops_of(&|| {
        assert!(fc_update.verify(curve, &spk));
    });
    let prep6 = ops_of(&|| {
        assert!(verify_one(None));
    });
    kernel_rows.push(
        kernel_row("verify (prepared)", "verify_prepared", ms6, &gen6, &prep6)
            .with("generic_scalar_mults", gen6.scalar_mults)
            .with("prepared_scalar_mults", prep6.scalar_mults),
    );
    // Row 7: the hash alone. `hash_to_g1` (candidate, then the ~350-bit
    // cofactor clearing) on the generic side against `h1_candidate`, the
    // uncleared point the prepared verify, forecast and seal pair with.
    let ms7 = paired_ms(
        iters,
        || curve.hash_to_g1(fc_tag.h1_domain(), fc_tag.value()),
        || curve.h1_candidate(fc_tag.h1_domain(), fc_tag.value()),
    );
    let gen7 = ops_of(&|| {
        curve.hash_to_g1(fc_tag.h1_domain(), fc_tag.value());
    });
    let prep7 = ops_of(&|| {
        curve.h1_candidate(fc_tag.h1_domain(), fc_tag.value());
    });
    kernel_rows.push(kernel_row(
        "hash-to-curve: candidate vs cleared",
        "h2c_candidate_vs_cleared",
        ms7,
        &gen7,
        &prep7,
    ));
    println!();

    // The memoized seal replaces the pairing with a G_T power: zero
    // pairings and strictly less F_p work than the textbook step.
    assert_eq!(gen4.pairings, 1, "textbook seal pairs once");
    assert_eq!(prep4.pairings, 0, "a memo-hit seal must not pair");
    assert!(
        prep4.fp_muls < gen4.fp_muls,
        "memo-hit seal must spend fewer Fp muls ({} vs {})",
        prep4.fp_muls,
        gen4.fp_muls
    );
    // A forecast hit: no hash, one pairing lane, less F_p work than
    // the prepared verify it replaces.
    assert_eq!(prep5.h2c_iters, 0, "a forecast-hit verify must not hash");
    assert_eq!(prep5.pairings, 1, "a forecast-hit verify runs one lane");
    assert!(
        prep5.fp_muls < gen5.fp_muls,
        "forecast-hit verify must spend fewer Fp muls ({} vs {})",
        prep5.fp_muls,
        gen5.fp_muls
    );
    // An honest prepared verify folds the cofactor into the `sG` lane:
    // the same two pairing lanes as the textbook check and no G1 scalar
    // multiplication; the candidate hash skips exactly the clearing.
    assert_eq!(gen6.pairings, prep6.pairings, "verify row pairing count");
    assert_eq!(
        prep6.scalar_mults, 0,
        "an honest prepared verify must not clear the cofactor"
    );
    assert!(
        prep6.fp_muls < gen6.fp_muls,
        "prepared verify must spend fewer Fp muls ({} vs {})",
        prep6.fp_muls,
        gen6.fp_muls
    );
    assert_eq!(gen7.h2c_iters, prep7.h2c_iters, "one candidate loop");
    assert_eq!(
        (gen7.scalar_mults, prep7.scalar_mults),
        (1, 0),
        "the cleared hash multiplies once, the candidate never"
    );
    // Wall-clock guards, calibrated for toy64: the final exponentiation
    // bounds the single-pairing win near 2x and the 2-lane verify shape
    // near 2.8x; the 5-lane verdict shape amortises the shared squaring
    // chain and single final exponentiation across lanes and must clear
    // the tentpole's 3x.
    assert!(
        speed3 >= 3.0,
        "prepared-multi verdict shape must be ≥3x over naive lanes, got {speed3:.2}x"
    );
    assert!(
        speed2 >= 2.2,
        "prepared-multi verify shape must hold ≈2.8x (≥2.2x with noise), got {speed2:.2}x"
    );
    assert!(
        speed1 >= 1.5,
        "single prepared pairing must hold ≈2x (≥1.5x with noise), got {speed1:.2}x"
    );

    // Hot paths, E15 shapes: batch_verify(64) and decrypt_bulk(16). The
    // batch baseline is the textbook small-exponent test on the
    // unprepared key; the prepared side is the one burst verifier.
    let batch64: Vec<KeyUpdate<8>> = (0..64)
        .map(|i| {
            fx.server
                .issue_update(curve, &ReleaseTag::time(format!("e19/{i}")))
        })
        .collect();
    // Short halves (4 batches each), so a pair spans under a second.
    let burst_ok = || prep_key.verify_burst(curve, &batch64, None, 1).is_empty();
    let (bv_gen_ms, bv_prep_ms, bv_speed) = paired_ms(
        iters.min(4),
        || textbook_batch_verify(curve, &spk, &batch64),
        burst_ok,
    );
    let bv_gen = ops_of(&|| {
        assert!(textbook_batch_verify(curve, &spk, &batch64));
    });
    let bv_prep = ops_of(&|| {
        assert!(burst_ok());
    });

    // The decrypt baseline is the textbook §5.1 step with the generic
    // pairing: K' = ê(U, I_T)^a, M = V ⊕ H2(K').
    let tag = ReleaseTag::time("e19/bulk");
    let update = fx.server.issue_update(curve, &tag);
    let sender = Sender::new(curve, &spk, fx.user.public()).unwrap();
    let cts: Vec<_> = (0..16)
        .map(|i| sender.encrypt(&tag, &[i as u8; 32], &mut r))
        .collect();
    let a = fx.user.secret_scalar();
    let textbook_open = |ct: &tre_core::tre::Ciphertext<8>| {
        let k = curve.pairing(ct.u(), update.sig()).pow(a, curve);
        let mask = curve.gt_kdf(&k, b"tre/basic/mask", ct.v().len());
        ct.v()
            .iter()
            .zip(&mask)
            .map(|(c, k)| c ^ k)
            .collect::<Vec<u8>>()
    };
    let dec_gen_ms = time_ms(iters.min(10), || {
        cts.iter().map(textbook_open).collect::<Vec<_>>()
    });
    let mut receiver = Receiver::new(curve, spk, fx.user.clone());
    receiver.observe_update(update.clone()).unwrap();
    assert_eq!(
        receiver.open(&cts[0]).unwrap(),
        textbook_open(&cts[0]),
        "the prepared open must agree with the textbook decryption"
    );
    let dec_prep_ms = time_ms(iters.min(10), || {
        cts.iter()
            .map(|ct| receiver.open(ct).unwrap())
            .collect::<Vec<_>>()
    });
    let dec_gen = ops_of(&|| {
        textbook_open(&cts[0]);
    });
    let dec_prep = ops_of(&|| {
        let _ = receiver.open(&cts[0]);
    });

    header(&[
        "hot path",
        "generic ms",
        "prepared ms",
        "speedup",
        "Fp muls/op (gen → prep)",
    ]);
    row(&[
        "batch_verify(64)".into(),
        format!("{bv_gen_ms:.2}"),
        format!("{bv_prep_ms:.2}"),
        format!("{bv_speed:.2}x"),
        format!("{} → {}", bv_gen.fp_muls, bv_prep.fp_muls),
    ]);
    row(&[
        "decrypt_bulk(16)".into(),
        format!("{dec_gen_ms:.2}"),
        format!("{dec_prep_ms:.2}"),
        format!("{:.2}x", dec_gen_ms / dec_prep_ms.max(1e-9)),
        format!("{} → {}", dec_gen.fp_muls, dec_prep.fp_muls),
    ]);
    println!();

    // E15 regression guard: the prepared paths must verify the same
    // 2-pairing budget and may not lose wall-clock to the generic path
    // beyond measurement noise.
    assert_eq!(bv_gen.pairings, bv_prep.pairings, "batch pairing budget");
    assert!(
        bv_prep.fp_muls < bv_gen.fp_muls,
        "prepared batch_verify must spend fewer Fp muls ({} vs {})",
        bv_prep.fp_muls,
        bv_gen.fp_muls
    );
    assert!(
        bv_speed >= 1.0 / 1.15,
        "prepared batch_verify regressed: {bv_prep_ms:.2} ms vs {bv_gen_ms:.2} ms \
         (median speedup {bv_speed:.2}x)"
    );
    assert_eq!(
        dec_gen.pairings, dec_prep.pairings,
        "decrypt pairing budget"
    );
    assert!(
        dec_prep.fp_muls < dec_gen.fp_muls,
        "prepared decrypt must spend fewer Fp muls ({} vs {})",
        dec_prep.fp_muls,
        dec_gen.fp_muls
    );
    println!(
        "(guards: pairing budgets unchanged except the memo-hit seal (1 → 0), prepared Fp muls\n\
         strictly lower on every row, 0 G1 scalar mults in an honest prepared verify,\n\
         verdict-shaped 5-lane speedup {speed3:.2}x ≥ 3x, batch_verify non-regression vs E15.)\n"
    );

    // The field-kernel layer under every row above. Each kernel's ns per
    // call is the median of PAIRED_REPEATS rounds that each run every
    // kernel once in turn, so a noisy stretch skews one round, not one
    // kernel.
    let ctx = curve.fp();
    let fa = ctx.from_be_bytes_mod(&[0xa5; 64]);
    let fb = ctx.from_be_bytes_mod(&[0x3c; 64]);
    let (xa, xb) = (Fp2::new(fa, fb), Fp2::new(fb, fa));
    let gt = curve.pairing(&sg, &q);
    let n = if quick { 1000 } else { 5000 };
    // (table name, JSON key, calls per timing, kernel)
    type Kernel<'a> = (&'a str, &'a str, u32, Box<dyn FnMut() + 'a>);
    let mut kernels: [Kernel<'_>; 5] = [
        (
            "Fp mul",
            "fp_mul",
            20 * n,
            Box::new(|| {
                black_box(black_box(fa).mul(&fb, ctx));
            }),
        ),
        (
            "Fp square",
            "fp_square",
            20 * n,
            Box::new(|| {
                black_box(black_box(fa).square(ctx));
            }),
        ),
        (
            "Fp2 mul",
            "fp2_mul",
            5 * n,
            Box::new(|| {
                black_box(black_box(xa).mul(&xb, ctx));
            }),
        ),
        (
            "G_T (unitary) square",
            "unitary_square",
            5 * n,
            Box::new(|| {
                black_box(black_box(gt).square(curve));
            }),
        ),
        (
            "final exponentiation",
            "final_exp",
            n / 50,
            Box::new(|| {
                black_box(curve.final_exponentiation(&black_box(xa)));
            }),
        ),
    ];
    let mut samples = vec![Vec::new(); kernels.len()];
    for _ in 0..PAIRED_REPEATS {
        for (k, (_, _, iters, f)) in kernels.iter_mut().enumerate() {
            samples[k].push(time_ms(*iters, f) * 1e6);
        }
    }
    let kernel_ns: Vec<f64> = samples.into_iter().map(median).collect();
    header(&["field kernel (toy64)", "ns/call (median)"]);
    for ((name, ..), ns) in kernels.iter().zip(&kernel_ns) {
        row(&[(*name).into(), format!("{ns:.0}")]);
    }
    row(&[
        "Fp muls per prepared pairing".into(),
        format!("{fp_muls_per_prepared_pairing}"),
    ]);
    println!();
    let field_kernels_ns = kernels
        .iter()
        .zip(&kernel_ns)
        .fold(BenchRecord::new(), |rec, ((_, key, ..), ns)| {
            rec.with(key, *ns)
        });

    record! {
        "iters": iters, "prepared_multi": lane_rows, "kernels": kernel_rows,
        "batch_verify_64": record! {
            "generic_ms": bv_gen_ms, "prepared_ms": bv_prep_ms, "generic_fp_muls": bv_gen.fp_muls,
            "prepared_fp_muls": bv_prep.fp_muls, "pairings": bv_prep.pairings,
        },
        "decrypt_bulk_16": record! {
            "generic_ms": dec_gen_ms, "prepared_ms": dec_prep_ms,
            "speedup": dec_gen_ms / dec_prep_ms.max(1e-9),
            "generic_fp_muls_per_op": dec_gen.fp_muls, "prepared_fp_muls_per_op": dec_prep.fp_muls,
        },
        "field_kernels_ns": field_kernels_ns,
        "fp_muls_per_prepared_pairing": fp_muls_per_prepared_pairing,
    }
    .write("e19");
}

/// Times `generic` and `prepared` in [`PAIRED_REPEATS`] interleaved
/// pairs of [`time_ms`] runs, alternating which side runs first, and
/// returns the median generic ms, the median prepared ms and the median
/// per-pair speedup (generic / prepared). A loaded host slows both
/// halves of a pair alike, so one noisy stretch cannot decide a
/// wall-clock guard or a reported column. Any two workloads pair this
/// way; E15 also pairs its verify and open columns.
fn paired_ms<A, B>(
    iters: u32,
    mut generic: impl FnMut() -> A,
    mut prepared: impl FnMut() -> B,
) -> (f64, f64, f64) {
    let runs: Vec<(f64, f64)> = (0..PAIRED_REPEATS)
        .map(|i| {
            if i % 2 == 0 {
                let g = time_ms(iters, &mut generic);
                (g, time_ms(iters, &mut prepared))
            } else {
                let p = time_ms(iters, &mut prepared);
                (time_ms(iters, &mut generic), p)
            }
        })
        .collect();
    (
        median(runs.iter().map(|r| r.0).collect()),
        median(runs.iter().map(|r| r.1).collect()),
        median(runs.iter().map(|(g, p)| g / p.max(1e-9)).collect()),
    )
}

/// The median of a non-empty sample (the upper one for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Interleaved generic/prepared pairs behind each E19 wall-clock guard.
const PAIRED_REPEATS: usize = 9;

/// Raises `RLIMIT_NOFILE` toward `want` file descriptors, returning the
/// effective soft limit. Root may raise the hard limit too; an
/// unprivileged run falls back to soft = hard. The E20 live rig holds
/// both ends of every socket in one process, so 10k subscribers cost
/// ~20k descriptors.
#[cfg(target_os = "linux")]
fn raise_nofile(want: u64) -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rl: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rl: *const RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut rl = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut rl) != 0 {
            return 1024;
        }
        if rl.cur >= want {
            return rl.cur;
        }
        let raised = RLimit {
            cur: want,
            max: rl.max.max(want),
        };
        if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
            return want;
        }
        let soft_to_hard = RLimit {
            cur: rl.max,
            max: rl.max,
        };
        if setrlimit(RLIMIT_NOFILE, &soft_to_hard) == 0 {
            return rl.max;
        }
        rl.cur
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile(_want: u64) -> u64 {
    1024
}

/// Live OS threads of this process (`/proc/self/task` entries), `None`
/// where procfs is unavailable. The E20 rig asserts the daemon's thread
/// budget is O(shards), never O(subscribers).
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// The E20 live rig: one `tred` on the sharded event loop holding
/// `sockets` real TCP subscribers in a single process. Every epoch is
/// timed from `clock.advance` to the last socket completing its read of
/// the update frame; per-socket latencies give the exact percentile
/// spread. Returns `(sockets actually run, per-epoch reports, thread
/// delta)`.
fn e20_live(sockets: usize, epochs: u64) -> (usize, Vec<tre_server::DeliveryReport>, usize) {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    use tre_wire::{peek_frame, Hello, Wire, TAG_KEY_UPDATE};

    const SHARDS: usize = 4;
    const DEADLINE: Duration = Duration::from_secs(30);

    // Both socket ends live here: 2 fds per subscriber + headroom.
    let limit = raise_nofile(sockets as u64 * 2 + 512);
    let n = sockets.min(((limit.saturating_sub(512)) / 2) as usize);
    if n < sockets {
        println!("(fd limit {limit}: scaled live rig down to {n} sockets)\n");
    }

    let curve = toy64();
    let mut r = rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut r);
    let spk = *keys.public();
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let threads_before = thread_count();
    let tred = Tred::bind(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig {
            shards: SHARDS,
            queue_capacity: 64,
            ..TredConfig::default()
        },
    )
    .unwrap();
    let addr = tred.local_addr();

    let hello = <Hello as Wire<8>>::wire_bytes(&Hello::current(), curve);
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        let mut s = std::net::TcpStream::connect(addr).expect("connect rig socket");
        s.write_all(&hello).expect("send hello");
        s.set_nonblocking(true).expect("nonblocking rig socket");
        streams.push((s, Vec::<u8>::new(), 0u64));
    }
    let start = Instant::now();
    while tred.subscriber_count() < n && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tred.subscriber_count(), n, "all rig sockets registered");

    // The thread-budget invariant, asserted while every socket is live:
    // N shards + accept + ticker + the ticker's forecast worker,
    // independent of subscriber count.
    let thread_delta = match (threads_before, thread_count()) {
        (Some(before), Some(after)) => {
            let delta = after.saturating_sub(before);
            assert!(
                delta <= SHARDS + 3,
                "daemon threads are shards + 3, O(shards): {delta} new threads for {n} sockets"
            );
            delta
        }
        _ => 0,
    };

    let mut reports = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    for epoch in 1..=epochs {
        let t0 = Instant::now();
        clock.advance(1);
        let mut latencies_us: Vec<u64> = vec![0; n];
        let mut done = 0usize;
        while done < n && t0.elapsed() < DEADLINE {
            for (i, (stream, buf, seen)) in streams.iter_mut().enumerate() {
                if *seen >= epoch {
                    continue;
                }
                match stream.read(&mut chunk) {
                    Ok(0) => panic!("rig socket {i} closed by daemon"),
                    Ok(len) => buf.extend_from_slice(&chunk[..len]),
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("rig socket {i}: {e}"),
                }
                let mut consumed = 0usize;
                while let Ok(Some((header, _body, rest))) = peek_frame(&buf[consumed..]) {
                    if header.type_tag == TAG_KEY_UPDATE {
                        *seen += 1;
                    }
                    consumed = buf.len() - rest.len();
                }
                if consumed > 0 {
                    buf.drain(..consumed);
                }
                if *seen >= epoch {
                    latencies_us[i] = t0.elapsed().as_micros() as u64;
                    done += 1;
                }
            }
        }
        assert_eq!(done, n, "epoch {epoch}: every live socket delivered");
        latencies_us.sort_unstable();
        let at = |q: f64| latencies_us[((n - 1) as f64 * q) as usize];
        reports.push(tre_server::DeliveryReport {
            p50_us: at(0.50),
            p99_us: at(0.99),
            max_us: latencies_us[n - 1],
            verify_us: 0,
        });
    }

    // Wall-clock guard: a stalled shard would blow straight through
    // this (the deadline loop above would hand back partial delivery
    // and the assert_eq would have fired first — this bounds tail
    // latency on a healthy run).
    for (i, rep) in reports.iter().enumerate() {
        assert!(
            rep.max_us < DEADLINE.as_micros() as u64,
            "epoch {}: last delivery within the deadline",
            i + 1
        );
    }

    // Frame-conservation guard: everything offered was resolved.
    let stats = tred.stats();
    let start = Instant::now();
    while stats.in_flight() > 0 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(stats.in_flight(), 0, "no frames left in flight");
    assert_eq!(
        stats.broadcasts.load(std::sync::atomic::Ordering::Relaxed),
        epochs + 1,
        "one encode per epoch regardless of subscriber count"
    );
    assert_eq!(
        stats.wire_errors.load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    drop(streams);
    tred.shutdown();
    let _ = spk;
    (n, reports, thread_delta)
}

/// E20: epoch-to-last-delivery latency by fan-out shape. The simulated
/// relay tree carries ≥1M leaf subscribers with *real* per-relay batch
/// verification (pairing-counter-asserted: each relay verifies each
/// epoch exactly once), and the live rig holds 10k real sockets on one
/// daemon with an O(shards) thread budget (asserted).
fn e20() {
    println!("## E20 — relay-tree fan-out: epoch-to-last-delivery latency\n");
    let quick = quick();
    // Odd, so the per-epoch relay verify time has a true median.
    let epochs: u64 = if quick { 3 } else { 5 };
    let subscribers: u64 = 1 << 20; // 1,048,576 leaves in every shape
    let curve = toy64();
    let mut r = rng();

    let shapes = [
        tre_server::FanoutShape {
            name: "direct",
            branching: 0,
            levels: 0,
        },
        tre_server::FanoutShape {
            name: "1024^1",
            branching: 1024,
            levels: 1,
        },
        tre_server::FanoutShape {
            name: "32^2",
            branching: 32,
            levels: 2,
        },
        tre_server::FanoutShape {
            name: "8^3",
            branching: 8,
            levels: 3,
        },
    ];

    println!("### sim: {subscribers} subscribers, {epochs} epochs per shape\n");
    header(&[
        "shape",
        "relays",
        "p50 ms",
        "p99 ms",
        "last delivery ms",
        "relay verify ms/epoch (median)",
        "pairings",
    ]);
    let mut sim_rows = Vec::new();
    for shape in shapes {
        let mut sim = tre_server::RelayTreeSim::new(
            curve,
            shape,
            subscribers,
            Granularity::Seconds,
            20,
            &mut r,
        );
        tre_obs::enable();
        let mut last = tre_server::DeliveryReport::default();
        let mut verify_us = Vec::new();
        for epoch in 0..epochs {
            last = sim.run_epoch(epoch);
            verify_us.push(last.verify_us);
        }
        // Each epoch repeats the same relay admissions: the median epoch
        // is comparable across commits where one run is not.
        verify_us.sort_unstable();
        let verify_ms = verify_us[verify_us.len() / 2] as f64 / 1000.0;
        let pairings = tre_obs::finish().total_ops().pairings;
        let relays = shape.relay_count() as u64;
        assert_eq!(
            pairings,
            2 * relays * epochs,
            "{}: each relay verifies each epoch exactly once",
            shape.name
        );
        row(&[
            shape.name.into(),
            format!("{relays}"),
            format!("{:.2}", last.p50_us as f64 / 1000.0),
            format!("{:.2}", last.p99_us as f64 / 1000.0),
            format!("{:.2}", last.max_us as f64 / 1000.0),
            format!("{verify_ms:.2}"),
            format!("{pairings}"),
        ]);
        sim_rows.push(record! {
            "shape": shape.name, "relays": relays, "p50_us": last.p50_us, "p99_us": last.p99_us,
            "max_us": last.max_us, "verify_ms_median": verify_ms, "pairings": pairings,
        });
    }
    println!(
        "\n(each relay re-verifies the root signature once per epoch — asserted at exactly\n\
         2 pairings × relays × epochs; the flat shape pays ~10⁶ serialization slots at the\n\
         root, the trees amortize them across levels.)\n"
    );

    let live_sockets = 10_000;
    let live_epochs: u64 = if quick { 2 } else { 3 };
    println!("### live: {live_sockets} sockets on one daemon (4 shards), {live_epochs} epochs\n");
    let (n, live, thread_delta) = e20_live(live_sockets, live_epochs);
    header(&["epoch", "p50 ms", "p99 ms", "last delivery ms"]);
    let mut live_rows = Vec::new();
    for (i, rep) in live.iter().enumerate() {
        row(&[
            format!("{}", i + 1),
            format!("{:.2}", rep.p50_us as f64 / 1000.0),
            format!("{:.2}", rep.p99_us as f64 / 1000.0),
            format!("{:.2}", rep.max_us as f64 / 1000.0),
        ]);
        live_rows.push(record! {
            "epoch": i + 1, "p50_us": rep.p50_us, "p99_us": rep.p99_us, "max_us": rep.max_us,
        });
    }
    println!(
        "\n({n} live sockets, {thread_delta} daemon threads (≤ shards + accept + ticker +\n\
         forecast worker — asserted), frame conservation settled to zero in flight.)\n"
    );

    record! {
        "sim": record! { "subscribers": subscribers, "epochs": epochs, "shapes": sim_rows },
        "live": record! { "sockets": n, "thread_delta": thread_delta, "epochs": live_rows },
    }
    .write("e20");
}

/// E21: the reconnect storm. Every client cold-starts an open-ended
/// deep catch-up at once against a durable archive whose history lives
/// in many small sealed segment files. The daemon must clip the absurd
/// spans, admit a bounded number of replays, shed the rest with `Busy`
/// retry hints, and still deliver every epoch to every client — the
/// supervised clients honor the hints and resume partial ranges instead
/// of replaying them. A final point-lookup pass over the reopened
/// archive asserts the journal's epoch index answers in O(log n) probes
/// against the linear-scan baseline of records/2.
/// One raw-socket client of the E21 storm tier: real connection-scale
/// catch-up pressure with no client-side curve arithmetic — epochs are
/// read straight off the frame's tag bytes, so a single core can drive
/// a five-digit herd while the supervised cohort (full
/// [`SupervisedFeed`]s) measures decode-and-verify latency. The state
/// machine mirrors the paper's recovering receiver at the wire level:
/// request a deep range, absorb `Busy`, retry after the hinted delay,
/// and resume from the first missing epoch after a stall or redial.
struct StormClient {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
    seen: Vec<u64>,
    count: u64,
    done_at: Option<std::time::Duration>,
    retry_at: Option<std::time::Instant>,
    last_progress: std::time::Instant,
    requests: u64,
    busy_seen: u64,
    resumes: u64,
    reconnects: u64,
    dead: bool,
}

impl StormClient {
    /// First epoch below `epochs` not yet covered by the bitmap.
    fn next_missing(&self, epochs: u64) -> u64 {
        for (w, &word) in self.seen.iter().enumerate() {
            if word != u64::MAX {
                let e = (w as u64) * 64 + word.trailing_ones() as u64;
                if e < epochs {
                    return e;
                }
            }
        }
        epochs
    }
}

fn e21() {
    use std::io::{Read, Write};
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};
    use tre_wire::{peek_frame, CatchUpRequest, Hello, Wire, TAG_BUSY, TAG_KEY_UPDATE};

    println!("## E21 — reconnect storm: overload-safe deep catch-up from the journal archive\n");
    let quick = quick();
    let epochs: u64 = 384;
    let want_clients: usize = std::env::var("TRE_BENCH_E21_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 200 } else { 10_000 });
    let deadline = Duration::from_secs(if quick { 120 } else { 900 });
    let p99_bound_ms: u64 = if quick { 30_000 } else { 300_000 };
    let stall_timeout = Duration::from_secs(10);

    let curve = toy64();
    let mut r = rng();
    let dir = std::env::temp_dir().join(format!("tre-e21-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Tiny segments: the whole history lands in many sealed segment
    // files, so the storm is served from disk through the epoch index.
    let keys = ServerKeyPair::generate(curve, &mut r);
    let spk = *keys.public();
    let clock = SimClock::new();
    let jconfig = JournalConfig {
        fsync: FsyncPolicy::OnClose,
        max_segment_bytes: 2048,
    };
    let (archive, _) = UpdateArchive::open_durable(&dir, curve, jconfig).expect("durable archive");
    let archive = std::sync::Arc::new(archive);
    let server = {
        let mut server = TimeServer::recover(
            curve,
            keys,
            clock.clone(),
            Granularity::Seconds,
            archive.clone(),
        );
        clock.advance(epochs - 1);
        assert_eq!(
            server.poll().len() as u64,
            epochs,
            "epochs 0..={} archived before the storm",
            epochs - 1
        );
        server
    };
    let sealed_segments = archive.journal_stats().expect("durable").rotations;
    assert!(
        sealed_segments >= 8,
        "tiny segments force many rotations, saw {sealed_segments}"
    );

    // Both socket ends live here, as in the E20 rig.
    let limit = raise_nofile(want_clients as u64 * 2 + 512);
    let clients = want_clients.min(((limit.saturating_sub(512)) / 2) as usize);
    if clients < want_clients {
        println!("(fd limit {limit}: scaled storm down to {clients} clients)\n");
    }
    // Two tiers: a supervised cohort paying full decode+verify per
    // update (the latency the paper's recovering receiver experiences),
    // and a raw-socket storm supplying the rest of the herd's admission
    // pressure at wire-parse cost only.
    let cohort = clients.min(if quick { 50 } else { 200 });
    let storm_n = clients - cohort;

    let tred = Tred::bind(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig {
            shards: 4,
            queue_capacity: 512,
            catch_up: CatchUpConfig {
                max_span: 512,
                max_concurrent: 32,
                chunk: 64,
                retry_after_ms: 50,
            },
            ..TredConfig::default()
        },
    )
    .expect("bind tred");

    let addr = tred.local_addr();
    let feed: TcpFeed<8> = TcpFeed::new(curve, addr);
    let mut sup = SupervisedFeed::new(
        feed,
        Granularity::Seconds,
        SupervisorConfig {
            catch_up_timeout: stall_timeout,
            catch_up_retries: 1_000_000,
            ..SupervisorConfig::default()
        },
        21,
    );
    sup.set_cold_start_from(0);
    let ids: Vec<_> = (0..cohort).map(|_| Feed::subscribe(&mut sup)).collect();

    let hello = <Hello as Wire<8>>::wire_bytes(&Hello::current(), curve);
    let request = |from: u64| {
        <CatchUpRequest as Wire<8>>::wire_bytes(&CatchUpRequest { from, to: u64::MAX }, curve)
    };
    let words = (epochs as usize).div_ceil(64);
    let t0 = Instant::now();

    // The storm arrives: every raw client dials, greets, and demands the
    // whole archive in one breath.
    let mut storm: Vec<StormClient> = Vec::with_capacity(storm_n);
    for _ in 0..storm_n {
        let mut s = std::net::TcpStream::connect(addr).expect("connect storm socket");
        let _ = s.set_nodelay(true);
        s.write_all(&hello).expect("storm hello");
        s.write_all(&request(0)).expect("storm catch-up request");
        s.set_nonblocking(true).expect("nonblocking storm socket");
        storm.push(StormClient {
            stream: s,
            buf: Vec::new(),
            seen: vec![0u64; words],
            count: 0,
            done_at: None,
            retry_at: None,
            last_progress: Instant::now(),
            requests: 1,
            busy_seen: 0,
            resumes: 0,
            reconnects: 0,
            dead: false,
        });
    }

    // Per-client epoch coverage as a bitmap; completion latency is
    // storm-start to full coverage (the metric the paper's recovering
    // receiver cares about).
    let mut seen: Vec<Vec<u64>> = vec![vec![0u64; words]; cohort];
    let mut counts: Vec<u64> = vec![0; cohort];
    let mut done_at: Vec<Option<Duration>> = vec![None; cohort];
    let mut completed = 0usize;
    let mut dropped_cohort = 0usize;
    let mut dropped_storm = 0usize;
    let mut verified = 0u64;
    let mut chunk = vec![0u8; 64 * 1024];
    while completed < clients && t0.elapsed() < deadline {
        for (i, &id) in ids.iter().enumerate() {
            if done_at[i].is_some() {
                continue;
            }
            for (_, update) in Feed::poll(&mut sup, id) {
                if verified < 64 {
                    assert!(update.verify(curve, &spk), "sampled update verifies");
                    verified += 1;
                }
                if let Some(e) = Granularity::Seconds.epoch_of_tag(update.tag()) {
                    if e < epochs {
                        let (w, b) = ((e / 64) as usize, e % 64);
                        if seen[i][w] & (1 << b) == 0 {
                            seen[i][w] |= 1 << b;
                            counts[i] += 1;
                        }
                    }
                }
            }
            if counts[i] == epochs {
                done_at[i] = Some(t0.elapsed());
                completed += 1;
            }
        }

        let now = Instant::now();
        for (i, c) in storm.iter_mut().enumerate() {
            if c.done_at.is_some() {
                continue;
            }
            // Drain the socket; a dead one re-dials and resumes from the
            // first missing epoch — never from scratch.
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            let mut consumed = 0usize;
            while let Ok(Some((header, body, rest))) = peek_frame(&c.buf[consumed..]) {
                match header.type_tag {
                    TAG_KEY_UPDATE => {
                        if let Some((tag, _)) = ReleaseTag::from_bytes(body) {
                            if let Some(e) = Granularity::Seconds.epoch_of_tag(&tag) {
                                if e < epochs {
                                    let (w, b) = ((e / 64) as usize, e % 64);
                                    if c.seen[w] & (1 << b) == 0 {
                                        c.seen[w] |= 1 << b;
                                        c.count += 1;
                                        c.last_progress = now;
                                    }
                                }
                            }
                        }
                    }
                    TAG_BUSY if body.len() == 4 => {
                        let ms = u64::from(u32::from_be_bytes(body.try_into().unwrap()));
                        c.busy_seen += 1;
                        c.last_progress = now;
                        // Small per-client jitter keeps the shed herd
                        // from re-arriving in lockstep.
                        c.retry_at = Some(now + Duration::from_millis(ms + (i as u64 % 50)));
                    }
                    _ => {}
                }
                consumed = c.buf.len() - rest.len();
            }
            if consumed > 0 {
                c.buf.drain(..consumed);
            }
            if c.count == epochs {
                c.done_at = Some(t0.elapsed());
                completed += 1;
                continue;
            }
            if c.dead {
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    let _ = s.set_nodelay(true);
                    let from = c.next_missing(epochs);
                    if s.write_all(&hello).is_ok()
                        && s.write_all(&request(from)).is_ok()
                        && s.set_nonblocking(true).is_ok()
                    {
                        c.stream = s;
                        c.buf.clear();
                        c.dead = false;
                        c.reconnects += 1;
                        c.requests += 1;
                        c.retry_at = None;
                        c.last_progress = now;
                    }
                }
                continue;
            }
            if let Some(at) = c.retry_at {
                if now >= at {
                    c.retry_at = None;
                    let from = c.next_missing(epochs);
                    if c.stream.write_all(&request(from)).is_ok() {
                        c.requests += 1;
                        c.last_progress = now;
                    } else {
                        c.dead = true;
                    }
                }
            } else if now.duration_since(c.last_progress) > stall_timeout {
                // Reply lost mid-stream (e.g. the churn killed the
                // serving connection): ask again from the gap.
                let from = c.next_missing(epochs);
                if c.stream.write_all(&request(from)).is_ok() {
                    c.requests += 1;
                    c.resumes += 1;
                    c.last_progress = now;
                } else {
                    c.dead = true;
                }
            }
        }

        // Mid-storm churn: once the storm is under way, kill every 10th
        // straggler's socket once, in both tiers. The supervisor (and
        // the raw tier's redial path) must come back and resume the
        // partial range, not replay it from scratch.
        if dropped_cohort + dropped_storm == 0 && completed >= (clients / 4).max(1) {
            for (i, &id) in ids.iter().enumerate() {
                if done_at[i].is_none() && i % 10 == 0 {
                    Feed::disconnect(&mut sup, id);
                    dropped_cohort += 1;
                }
            }
            for (i, c) in storm.iter_mut().enumerate() {
                if c.done_at.is_none() && i % 10 == 0 {
                    let _ = c.stream.shutdown(std::net::Shutdown::Both);
                    dropped_storm += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Zero missed epochs: every client in both tiers covered the range.
    let incomplete = done_at.iter().filter(|d| d.is_none()).count()
        + storm.iter().filter(|c| c.done_at.is_none()).count();
    assert_eq!(
        incomplete, 0,
        "{incomplete} of {clients} clients missed epochs after {deadline:?}"
    );
    for &id in &ids {
        assert!(sup.missing_epochs(id).is_empty(), "no interior gaps");
    }

    let mut lat_ms: Vec<u64> = done_at
        .iter()
        .map(|d| d.expect("complete").as_millis() as u64)
        .chain(
            storm
                .iter()
                .map(|c| c.done_at.expect("complete").as_millis() as u64),
        )
        .collect();
    lat_ms.sort_unstable();
    let at = |q: f64| lat_ms[((clients - 1) as f64 * q) as usize];
    let (p50, p99, max) = (at(0.50), at(0.99), lat_ms[clients - 1]);
    let storm_requests: u64 = storm.iter().map(|c| c.requests).sum();
    let storm_busy: u64 = storm.iter().map(|c| c.busy_seen).sum();
    let storm_resumes: u64 = storm.iter().map(|c| c.resumes).sum();
    let storm_reconnects: u64 = storm.iter().map(|c| c.reconnects).sum();
    drop(storm);

    let tstats = tred.stats();
    let requests = tstats.catch_up_requests.load(Ordering::Relaxed);
    let clipped = tstats.catch_up_clipped.load(Ordering::Relaxed);
    let shed = tstats.catch_up_shed.load(Ordering::Relaxed);
    let sstats = sup.stats();
    tred.shutdown();
    let stats_snapshot = sstats;
    drop(sup);

    header(&[
        "clients",
        "cohort",
        "epochs",
        "p50 ms",
        "p99 ms",
        "max ms",
        "requests",
        "clipped",
        "shed",
        "retries",
        "resumes",
        "busy seen",
        "reconnects",
    ]);
    row(&[
        format!("{clients}"),
        format!("{cohort}"),
        format!("{epochs}"),
        format!("{p50}"),
        format!("{p99}"),
        format!("{max}"),
        format!("{requests}"),
        format!("{clipped}"),
        format!("{shed}"),
        format!("{}", stats_snapshot.catch_up_retries),
        format!("{}", stats_snapshot.catch_up_resumes + storm_resumes),
        format!("{}", stats_snapshot.busy_sheds_seen + storm_busy),
        format!("{}", stats_snapshot.reconnects + storm_reconnects),
    ]);
    assert!(
        p99 <= p99_bound_ms,
        "p99 catch-up latency {p99} ms blew the {p99_bound_ms} ms budget"
    );
    assert!(
        clipped >= clients as u64,
        "every open-ended cold start is clipped server-side"
    );
    assert!(
        shed > 0 && stats_snapshot.busy_sheds_seen + storm_busy > 0,
        "a storm of {clients} clients against 32 replay slots must shed"
    );
    if dropped_cohort > 0 {
        assert!(
            stats_snapshot.reconnects > 0,
            "killed cohort sockets came back through the supervisor"
        );
    }
    if dropped_storm > 0 {
        assert!(
            storm_reconnects > 0,
            "killed storm sockets re-dialed and resumed"
        );
    }

    // O(log n) probe evidence: reopen the archive and point-look-up a
    // spread of epochs; compare probes/lookup against the linear-scan
    // baseline of records/2.
    drop(archive);
    let (archive, _) =
        UpdateArchive::open_durable(&dir, curve, jconfig).expect("reopen durable archive");
    let records = archive.len() as u64;
    let max_epoch = archive.latest_epoch().expect("archived epochs");
    let lookups: u64 = 128;
    for k in 0..lookups {
        let e = k * max_epoch / lookups.max(1);
        assert!(archive.get(e).is_some(), "archived epoch {e} resolves");
    }
    let pstats = archive.read_stats().expect("durable");
    let avg_probes = pstats.lookup_probes as f64 / pstats.lookups as f64;
    let linear = records as f64 / 2.0;
    assert!(
        avg_probes * 4.0 <= linear,
        "indexed lookups are sub-linear: {avg_probes:.1} probes vs {linear:.1} baseline"
    );
    println!(
        "\n({records} archived records in {} segments; {lookups} point lookups averaged \
         {avg_probes:.1} probes\n vs a {linear:.1}-record linear-scan baseline — \
         {:.1}x fewer, O(log n) asserted at 4x margin.)\n",
        sealed_segments + 1,
        linear / avg_probes
    );

    record! {
        "clients": clients, "cohort": cohort, "storm": storm_n, "epochs": epochs,
        "dropped_mid_storm": dropped_cohort + dropped_storm,
        "latency_ms": record! { "p50": p50, "p99": p99, "max": max },
        "server": record! { "requests": requests, "clipped": clipped, "shed": shed },
        "cohort_stats": record! {
            "retries": stats_snapshot.catch_up_retries, "resumes": stats_snapshot.catch_up_resumes,
            "busy_sheds_seen": stats_snapshot.busy_sheds_seen,
            "reconnects": stats_snapshot.reconnects,
        },
        "storm_stats": record! {
            "requests": storm_requests, "resumes": storm_resumes, "busy_sheds_seen": storm_busy,
            "reconnects": storm_reconnects,
        },
        "probes": record! {
            "lookups": lookups, "avg_probes": avg_probes, "linear_baseline": linear,
            "speedup": linear / avg_probes,
        },
    }
    .write("e21");
    let _ = std::fs::remove_dir_all(&dir);
}
