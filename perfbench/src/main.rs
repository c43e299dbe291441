//! `perfbench` — the repository benchmark: release latency, catch-up,
//! restart and seal/open cost across real `tred` → relay → receiver
//! process boundaries.
//!
//! ```text
//! perfbench run --workload live-tree|catchup-under-publish|seal-open
//!               --seed N --seconds S --trace 0|1 [--workdir DIR]
//! ```
//!
//! One run makes several rounds; each round sets the workload up from
//! scratch (so set-up time is a median of several), measures for its
//! share of `--seconds`, checks every output and invariant, and tears
//! down.
//! The last line of standard output is the JSON result. The `relay` and
//! `recv` roles are this binary's own child processes (see [`child`]).

mod child;
mod live;
mod net;
mod report;
mod sealopen;
mod stats;

use std::path::PathBuf;

/// The curve `tred` and `trerelay` run on.
pub type Curve8 = &'static tre_pairing::Curve<8>;

/// A catch-up that takes longer than this counts as failed.
pub const CATCH_UP_DEADLINE_NS: u64 = 5_000_000_000;

/// What one `run` invocation measures.
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measurement time across all rounds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for journals.
    pub workdir: PathBuf,
}

/// `--name value` pairs and bare `--flag`s.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => String::new(),
            };
            pairs.push((name.to_string(), value));
        }
        Ok(Self { pairs })
    }

    /// The value of `--name`.
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// Every value given for a repeated `--name`.
    pub fn all(&self, name: &str) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// `--name` parsed as a number.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("--{name} is not a number"))
    }

    /// `--name` parsed as a number, or `default` when absent.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Ok(_) => self.num(name),
            Err(_) => Ok(default),
        }
    }

    /// Whether the bare flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }
}

fn run(args: &Args) -> Result<(), String> {
    let trace = match args.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let cfg = RunCfg {
        seed: args.num("seed")?,
        seconds: args.num("seconds")?,
        trace,
        workdir: PathBuf::from(args.get("workdir").unwrap_or(".bench_build/perfbench-work"))
            .join(format!("run-{}", std::process::id())),
    };
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&cfg.workdir).map_err(|e| format!("workdir: {e}"))?;
    let result = match args.get("workload")? {
        "live-tree" => live::run(live::Shape::Tree, &cfg),
        "catchup-under-publish" => live::run(live::Shape::CatchUp, &cfg),
        "seal-open" => sealopen::run(&cfg),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    result
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((role, rest)) = raw.split_first() else {
        eprintln!("usage: perfbench run --workload W --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    };
    let curve = tre_pairing::toy64();
    let result = Args::parse(rest).and_then(|args| match role.as_str() {
        "run" => run(&args),
        "relay" => child::relay_main(curve, &args),
        "recv" => child::recv_main(curve, &args),
        other => Err(format!("unknown role {other:?}")),
    });
    if let Err(e) = result {
        eprintln!("perfbench {role}: {e}");
        std::process::exit(1);
    }
}
