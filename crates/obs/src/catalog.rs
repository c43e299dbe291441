//! Declare-once metrics: a stats struct's field list is its metric
//! catalog (see [`metrics!`](crate::metrics)).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::LatencyHistogram;
use crate::registry::Registry;

/// A stats struct's metrics: `(name, help)` per exported field.
pub type Catalog = &'static [(&'static str, &'static str)];

/// How one value exports into a [`Registry`]: the metric kind comes
/// from the value's type — `u64` and `AtomicU64` are counters, `i64` a
/// gauge, [`LatencyHistogram`] a histogram, and `BTreeMap<u32, T>` one
/// `<prefix>_member_<i>_<name>` series per committee member.
pub trait Metric {
    /// Publishes `self` as `<prefix>_<name>` with `help` (absolute
    /// values, so re-export overwrites).
    fn export(&self, registry: &mut Registry, prefix: &str, name: &str, help: &str);
}

impl Metric for u64 {
    fn export(&self, registry: &mut Registry, prefix: &str, name: &str, help: &str) {
        let name = format!("{prefix}_{name}");
        registry.counter_set(&name, *self);
        registry.describe(&name, help);
    }
}

impl Metric for AtomicU64 {
    fn export(&self, registry: &mut Registry, prefix: &str, name: &str, help: &str) {
        // A statistic publishes no other data: `Relaxed` suffices.
        self.load(Ordering::Relaxed)
            .export(registry, prefix, name, help);
    }
}

impl Metric for i64 {
    fn export(&self, registry: &mut Registry, prefix: &str, name: &str, help: &str) {
        let name = format!("{prefix}_{name}");
        registry.gauge_set(&name, *self);
        registry.describe(&name, help);
    }
}

impl Metric for LatencyHistogram {
    fn export(&self, registry: &mut Registry, prefix: &str, name: &str, help: &str) {
        let name = format!("{prefix}_{name}");
        registry.histogram_set(&name, self.clone());
        registry.describe(&name, help);
    }
}

impl<T: Metric> Metric for BTreeMap<u32, T> {
    fn export(&self, registry: &mut Registry, prefix: &str, name: &str, help: &str) {
        for (member, value) in self {
            value.export(registry, &format!("{prefix}_member_{member}"), name, help);
        }
    }
}

/// Declares a stats struct whose fields are its metrics.
///
/// Wraps a struct definition, kept as written, and adds:
///
/// * `CATALOG: &[(&str, &str)]` — each field's exported name and help
///   text (its `///` doc joined to one line), in field order;
/// * `export_into(&self, &mut Registry, prefix)` — publishes each field
///   as `<prefix>_<name>` through its type's [`Metric`] impl, reading
///   the fields in declaration order.
///
/// After a field's doc, `#[metric(gauge)]` exports it as a gauge (via
/// `i64::from`) and `#[metric(name = "…")]` under another name.
#[macro_export]
macro_rules! metrics {
    (@name $field:ident name = $name:literal) => { $name };
    (@name $field:ident $(gauge)?) => { stringify!($field) };
    (@value $value:expr, gauge) => { &i64::from($value) };
    (@value $value:expr $(, name = $name:literal)?) => { &$value };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $(#[metric($($opt:tt)*)])?
                $field_vis:vis $field:ident : $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[doc = $doc])* $field_vis $field: $ty,)*
        }

        impl $name {
            /// Every metric this struct exports, in field order: the
            /// name under the export prefix and its help text.
            pub const CATALOG: $crate::Catalog = &[$((
                $crate::metrics!(@name $field $($($opt)*)?),
                concat!($($doc),*).trim_ascii_start(),
            ),)*];

            /// Publishes every field into `registry` as `<prefix>_<name>`,
            /// in declaration order. Absolute values, so re-export
            /// overwrites.
            pub fn export_into(&self, registry: &mut $crate::Registry, prefix: &str) {
                let mut catalog = Self::CATALOG.iter();
                $(
                    let &(name, help) = catalog.next().expect("one catalog entry per field");
                    $crate::Metric::export(
                        $crate::metrics!(@value self.$field $(, $($opt)*)?),
                        registry,
                        prefix,
                        name,
                        help,
                    );
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicU64;

    use crate::{LatencyHistogram, Registry};

    crate::metrics! {
        /// Counters of a toy daemon.
        #[derive(Debug, Default)]
        pub struct ToyStats {
            /// Requests served.
            pub requests: AtomicU64,
            /// Requests waiting for a
            /// worker.
            #[metric(gauge)]
            pub queued: u32,
            /// Service time.
            #[metric(name = "latency_us")]
            pub latency: LatencyHistogram,
            /// Errors per member.
            pub errors: BTreeMap<u32, u64>,
        }
    }

    #[test]
    fn fields_export_by_type_with_doc_help() {
        let mut stats = ToyStats {
            requests: AtomicU64::new(7),
            queued: 3,
            ..ToyStats::default()
        };
        stats.latency.record(5);
        stats.errors.insert(2, 4);
        let mut registry = Registry::new();
        stats.export_into(&mut registry, "toy");
        assert_eq!(registry.counter("toy_requests"), 7);
        assert_eq!(registry.gauge("toy_queued"), 3);
        assert_eq!(registry.histogram("toy_latency_us").unwrap().count(), 1);
        assert_eq!(registry.counter("toy_member_2_errors"), 4);
        assert_eq!(
            registry.help("toy_queued"),
            Some("Requests waiting for a worker.")
        );
        assert_eq!(
            registry.help("toy_member_2_errors"),
            Some("Errors per member.")
        );
        let names: Vec<&str> = ToyStats::CATALOG.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["requests", "queued", "latency_us", "errors"]);
    }
}
