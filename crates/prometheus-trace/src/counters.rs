//! One declaration per counter.
//!
//! A scalar metric used to be spelled seven times: an atomic field, a line
//! of `snapshot()`, of `reset()`, a plain field, a line of `since()`, a
//! call in the exposition and a slot of the positional wire codec — so
//! appending one bumped the protocol version. [`counter_table!`] takes one
//! row per scalar (`field: Kind, "exposition_name", "help";`) and generates
//! all of it: the atomics struct, the plain snapshot struct with the same
//! field names, `snapshot()`, `reset()`, `since()`, `accumulate()`, the
//! field docs, and [`Series`] rows the exposition loops over.
//!
//! The snapshot serialises its scalars as the `(name, value)` list of
//! `series()` and reads them back by name — an unknown name is skipped, a
//! missing one stays zero — so two builds that differ by a counter still
//! decode each other's stats. Non-scalar fields (histograms, labelled
//! lists) are declared in the struct braces, copied through verbatim, and
//! follow the scalar list positionally.

/// How a series is typed in the text exposition, and how `since` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever goes up; `since` subtracts.
    Counter,
    /// A level read at snapshot time; `since` keeps the later reading.
    Gauge,
    /// A counter the wire carries and the scrape leaves out.
    Unscraped,
}

impl Kind {
    /// The `# TYPE` a series of this kind is scraped as, if it is scraped.
    pub fn scraped_as(self) -> Option<&'static str> {
        match self {
            Kind::Counter => Some("counter"),
            Kind::Gauge => Some("gauge"),
            Kind::Unscraped => None,
        }
    }

    /// What a phase bracketed by two readings observed of this series.
    pub fn since(self, now: u64, earlier: u64) -> u64 {
        match self {
            Kind::Gauge => now,
            Kind::Counter | Kind::Unscraped => now - earlier,
        }
    }
}

/// One scalar of a snapshot, as its table row declared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// Exposition name, also the scalar's name on the wire.
    pub name: &'static str,
    /// `# HELP` text, also the field's doc comment.
    pub help: &'static str,
    pub kind: Kind,
    pub value: u64,
}

/// Generate a counter struct pair from one table; see the module docs.
///
/// `fill path;` names a `fn(&Atomics, Snapshot) -> Snapshot` that
/// `snapshot()` passes its result through, for an owner whose non-scalar
/// snapshot fields are projections of its own non-scalar state.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$ameta:meta])*
        $avis:vis struct $Atomics:ident { $($(#[$axm:meta])* $axvis:vis $ax:ident: $axty:ty,)* }
        $(#[$smeta:meta])*
        $svis:vis struct $Snapshot:ident { $($(#[$sxm:meta])* $sxvis:vis $sx:ident: $sxty:ty,)* }
        series { $($(#[$fm:meta])* $f:ident: $kind:ident, $name:literal, $help:literal;)* }
        $(fill $fill:path;)?
    ) => {
        $(#[$ameta])*
        $avis struct $Atomics {
            $(#[doc = $help] $(#[$fm])* pub $f: ::std::sync::atomic::AtomicU64,)*
            $($(#[$axm])* $axvis $ax: $axty,)*
        }

        $(#[$smeta])*
        $svis struct $Snapshot {
            $(#[doc = $help] $(#[$fm])* pub $f: u64,)*
            $($(#[$sxm])* $sxvis $sx: $sxty,)*
        }

        impl $Atomics {
            /// Capture a point-in-time copy of all counters.
            pub fn snapshot(&self) -> $Snapshot {
                let snap = $Snapshot {
                    $($f: self.$f.load(::std::sync::atomic::Ordering::Relaxed),)*
                    $($sx: Default::default(),)*
                };
                $(let snap = $fill(self, snap);)?
                snap
            }

            /// Reset every scalar to zero (used between benchmark phases).
            pub fn reset(&self) {
                $(self.$f.store(0, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }

        impl $Snapshot {
            /// What happened between `earlier` and `self`: counters
            /// subtract; gauges and non-scalar fields keep `self`'s reading.
            pub fn since(&self, earlier: &$Snapshot) -> $Snapshot {
                $Snapshot {
                    $($f: $crate::Kind::$kind.since(self.$f, earlier.$f),)*
                    $($sx: self.$sx.clone(),)*
                }
            }

            /// Add `other`'s scalars onto `self` (totals across shards).
            pub fn accumulate(&mut self, other: &$Snapshot) {
                $(self.$f += other.$f;)*
            }

            /// Every scalar with its exposition name, help and kind, in
            /// table order.
            pub fn series(&self) -> impl Iterator<Item = $crate::Series> {
                [$($crate::Series {
                    name: $name,
                    help: $help,
                    kind: $crate::Kind::$kind,
                    value: self.$f,
                },)*]
                .into_iter()
            }
        }

        impl ::serde::Serialize for $Snapshot {
            fn serialize<S: ::serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let scalars: Vec<(&str, u64)> = self.series().map(|s| (s.name, s.value)).collect();
                (scalars, $(&self.$sx,)*).serialize(serializer)
            }
        }

        impl<'de> ::serde::Deserialize<'de> for $Snapshot {
            fn deserialize<D: ::serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let (scalars, $($sx,)*): (Vec<(String, u64)>, $($sxty,)*) =
                    ::serde::Deserialize::deserialize(deserializer)?;
                $(let mut $f = 0;)*
                for (name, value) in scalars {
                    match name.as_str() {
                        $($name => $f = value,)*
                        _ => {}
                    }
                }
                Ok($Snapshot { $($f,)* $($sx,)* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Kind;

    crate::counter_table! {
        #[derive(Debug, Default)]
        struct Cells {
            by_label: [std::sync::atomic::AtomicU64; 2],
        }
        #[derive(Debug, Clone, PartialEq, Default)]
        struct Reading {
            by_label: Vec<u64>,
        }
        series {
            puts: Counter, "t_puts_total", "Records written.";
            depth: Gauge, "t_depth", "Queue depth.";
            quiet: Unscraped, "t_quiet_total", "Carried, not scraped.";
        }
        fill project;
    }

    fn project(cells: &Cells, mut snap: Reading) -> Reading {
        snap.by_label = cells
            .by_label
            .iter()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
            .collect();
        snap
    }

    fn bump(c: &std::sync::atomic::AtomicU64, n: u64) {
        c.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    #[test]
    fn one_row_yields_snapshot_reset_since_accumulate_and_series() {
        let cells = Cells::default();
        bump(&cells.puts, 3);
        bump(&cells.depth, 5);
        bump(&cells.by_label[1], 7);
        let early = cells.snapshot();
        assert_eq!((early.puts, early.depth), (3, 5));
        assert_eq!(early.by_label, vec![0, 7], "snapshot() runs the filler");
        bump(&cells.puts, 2);
        let late = cells.snapshot();
        let delta = late.since(&early);
        assert_eq!(delta.puts, 2, "counters subtract");
        assert_eq!(delta.depth, 5, "a gauge keeps the later reading");
        assert_eq!(delta.by_label, late.by_label);

        let mut total = early.clone();
        total.accumulate(&late);
        assert_eq!((total.puts, total.depth), (8, 10));

        let series: Vec<_> = late.series().collect();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].name, "t_puts_total");
        assert_eq!(series[0].help, "Records written.");
        assert_eq!((series[0].kind, series[0].value), (Kind::Counter, 5));
        assert_eq!(series[1].kind, Kind::Gauge);
        assert_eq!(series[2].kind, Kind::Unscraped);

        cells.reset();
        let zeroed = cells.snapshot();
        assert_eq!((zeroed.puts, zeroed.depth, zeroed.quiet), (0, 0, 0));
        assert_eq!(zeroed.by_label, vec![0, 7], "reset() is the scalars'");
    }
}
