#![warn(missing_docs)]
//! Shared helpers for the experiment harness (`tables` binary) and the
//! Criterion benches: fixture construction, wall-clock measurement, the
//! quick-mode switch and the one JSON record each experiment writes.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tre_core::{ServerKeyPair, UserKeyPair};
use tre_pairing::Curve;

/// A deterministic RNG for reproducible experiment runs.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(20260704)
}

/// A server + user fixture on the given curve.
pub struct Fixture<const L: usize> {
    /// The time server key pair.
    pub server: ServerKeyPair<L>,
    /// A receiver bound to that server.
    pub user: UserKeyPair<L>,
}

impl<const L: usize> Fixture<L> {
    /// Builds the fixture deterministically.
    pub fn new(curve: &Curve<L>) -> Self {
        let mut rng = rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        Self { server, user }
    }
}

/// Runs `f` `iters` times and returns the mean wall-clock milliseconds.
pub fn time_ms<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Whether `TRE_BENCH_QUICK` asks for the trimmed CI mode (set, and not
/// `0`).
pub fn quick() -> bool {
    std::env::var("TRE_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// `<workspace>/target/<experiment>`, anchored on this crate's manifest
/// directory rather than the working directory: `cargo bench` runs with
/// `crates/bench` as its working directory.
fn record_dir(experiment: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("target")
        .join(experiment)
}

/// One value of a [`BenchRecord`] field or array.
#[derive(Clone, Debug)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Uint(u64),
    /// A measurement, written to six significant digits, or as `null`
    /// when not finite.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// A nested object.
    Obj(BenchRecord),
    /// An array, e.g. of row objects.
    Arr(Vec<Value>),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Self::$variant(v as _)
            }
        }
    )*};
}
value_from!(bool => Bool, u32 => Uint, u64 => Uint, usize => Uint, f64 => Num);

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<BenchRecord> for Value {
    fn from(v: BenchRecord) -> Self {
        Self::Obj(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Self::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`BenchRecord`] from `"key": value` pairs, kept in order:
/// `record! { "n": 64, "rows": vec![record! { "ms": 1.5 }] }`.
#[macro_export]
macro_rules! record {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::BenchRecord::new()$(.with($key, $value))*
    };
}

/// A JSON object whose fields keep insertion order: an experiment's
/// record, or an object or table row nested in one. Every experiment
/// writes its numbers through [`BenchRecord::write`].
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    fields: Vec<(String, Value)>,
}

impl BenchRecord {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the field `key: value`.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The object as JSON text. A container holding only scalars takes
    /// one line, so each table row is one line; any other container puts
    /// one member per line, indented two spaces a level.
    fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, &Value::Obj(self.clone()), 0)
            .expect("writing to a String cannot fail");
        out + "\n"
    }

    /// Writes `<workspace>/target/<experiment>/<experiment>.json`: the
    /// `experiment` name and the `quick` flag, then this record's fields.
    ///
    /// # Panics
    /// If the file cannot be written: a missing record must fail the run.
    pub fn write(self, experiment: &str) {
        let mut record = record! { "experiment": experiment, "quick": quick() };
        record.fields.extend(self.fields);
        let dir = record_dir(experiment);
        let path = dir.join(format!("{experiment}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, record.to_json()))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("record: {}\n", path.display());
    }
}

fn write_value(out: &mut String, value: &Value, indent: usize) -> fmt::Result {
    let (brackets, members): (&str, Vec<(Option<&str>, &Value)>) = match value {
        Value::Bool(b) => return write!(out, "{b}"),
        Value::Uint(n) => return write!(out, "{n}"),
        Value::Num(x) if x.is_finite() => {
            // Six significant digits, printed without an exponent.
            let rounded: f64 = format!("{x:.5e}").parse().expect("a formatted f64 parses");
            return write!(out, "{rounded}");
        }
        Value::Num(_) => return write!(out, "null"),
        Value::Str(s) => {
            out.push_str(&tre_obs::json_str(s));
            return Ok(());
        }
        Value::Obj(obj) => (
            "{}",
            obj.fields
                .iter()
                .map(|(k, v)| (Some(k.as_str()), v))
                .collect(),
        ),
        Value::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
    };
    let nested = members
        .iter()
        .any(|(_, v)| matches!(v, Value::Obj(_) | Value::Arr(_)));
    let sep = if nested { "," } else { ", " };
    let pad = |level: usize| match nested {
        true => format!("\n{}", "  ".repeat(level)),
        false => String::new(),
    };
    out.push_str(&brackets[..1]);
    for (i, (key, member)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&pad(indent + 1));
        if let Some(key) = key {
            out.push_str(&tre_obs::json_str(key));
            out.push_str(": ");
        }
        write_value(out, member, indent + 1)?;
    }
    out.push_str(&pad(indent));
    out.push_str(&brackets[1..]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        let curve = tre_pairing::toy64();
        let a = Fixture::new(curve);
        let b = Fixture::new(curve);
        assert_eq!(a.server.public(), b.server.public());
        assert_eq!(a.user.public(), b.user.public());
    }

    #[test]
    fn time_ms_measures_positive() {
        let ms = time_ms(3, || std::hint::black_box(41 + 1));
        assert!(ms >= 0.0);
    }

    #[test]
    #[should_panic]
    fn time_ms_rejects_zero_iters() {
        let _ = time_ms(0, || ());
    }

    #[test]
    fn nested_record_bytes() {
        let row = |n: u64, ms: f64| BenchRecord::new().with("n", n).with("ms", ms);
        let record = BenchRecord::new()
            .with("name", "e0")
            .with("ok", true)
            .with("ratio", 2.0 / 3.0)
            .with("rows", vec![row(1, 0.5), row(64, 2.25)])
            .with(
                "sim",
                BenchRecord::new()
                    .with("epochs", 3u32)
                    .with("ids", vec![1u64, 2]),
            )
            .with("empty", Vec::<Value>::new());
        assert_eq!(
            record.to_json(),
            "{\n  \"name\": \"e0\",\n  \"ok\": true,\n  \"ratio\": 0.666667,\n  \"rows\": [\n    \
             {\"n\": 1, \"ms\": 0.5},\n    {\"n\": 64, \"ms\": 2.25}\n  ],\n  \
             \"sim\": {\n    \"epochs\": 3,\n    \"ids\": [1, 2]\n  },\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let record = record! { "k\"ey": "a\"b\\c\nd\te\r\u{1}\u{1f}é" };
        assert_eq!(
            record.to_json(),
            "{\"k\\\"ey\": \"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001fé\"}\n"
        );
    }

    #[test]
    fn non_finite_floats_are_null() {
        let record = BenchRecord::new()
            .with("nan", f64::NAN)
            .with("inf", f64::INFINITY)
            .with("neg_inf", f64::NEG_INFINITY)
            .with("x", 1.5);
        assert_eq!(
            record.to_json(),
            "{\"nan\": null, \"inf\": null, \"neg_inf\": null, \"x\": 1.5}\n"
        );
    }

    #[test]
    fn record_dir_ignores_the_working_directory() {
        let before = record_dir("e0");
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(std::env::temp_dir()).unwrap();
        let elsewhere = record_dir("e0");
        std::env::set_current_dir(cwd).unwrap();
        assert_eq!(before, elsewhere);
        assert!(before.is_absolute());
        assert!(before.ends_with("target/e0"));
        let root = before.parent().and_then(Path::parent).unwrap();
        assert!(
            root.join("Cargo.lock").is_file(),
            "{} is the workspace root",
            root.display()
        );
    }
}
