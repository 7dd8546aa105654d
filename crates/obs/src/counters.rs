//! [`counters!`]: one field list per stats struct, every view derived.

/// Declares a counters struct from one field list. Each field is `u64` or
/// `usize` and carries a kind tag before its name: `sum` (adds across
/// nodes) or `max` (a high-water mark: the largest value across nodes).
///
/// From the list it generates, in field order:
/// - `NAMES`, the field names;
/// - `words` / `from_words`, the fields as `u64` words and back (the
///   `stats` wire payload; `usize` fields are widened);
/// - `export(prefix, &mut Registry)`: `sum` fields [`inc`] the counter
///   `<prefix><field>`, `max` fields [`gauge_max`] the gauge of that name;
/// - `read(&Registry, prefix)`, the inverse of `export`;
/// - `merge`, the element-wise sum or max.
///
/// So a new field reaches the wire payload, every manifest and every
/// cluster-wide sum without a second list to keep in step.
///
/// [`inc`]: crate::Registry::inc
/// [`gauge_max`]: crate::Registry::gauge_max
#[macro_export]
macro_rules! counters {
    (@export sum, $reg:expr, $name:expr, $v:expr) => { $reg.inc($name, $v as u64) };
    (@export max, $reg:expr, $name:expr, $v:expr) => { $reg.gauge_max($name, $v as i64) };
    (@read sum, $reg:expr, $name:expr) => { $reg.counter($name) };
    (@read max, $reg:expr, $name:expr) => { $reg.gauge($name) as u64 };
    (@merge sum, $a:expr, $b:expr) => { $a + $b };
    (@merge max, $a:expr, $b:expr) => { $a.max($b) };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $kind:ident $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// Field names, in declaration order.
            pub const NAMES: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// The fields as `u64` words, in [`Self::NAMES`] order.
            pub fn words(&self) -> [u64; $name::NAMES.len()] {
                [$(self.$field as u64),*]
            }

            /// The inverse of [`Self::words`]; panics if `words` runs short.
            pub fn from_words(words: impl IntoIterator<Item = u64>) -> Self {
                let mut words = words.into_iter();
                $name {
                    $($field: words.next().expect("one word per field") as $ty,)*
                }
            }

            /// Adds each field to `reg` under `<prefix><field>`: `sum`
            /// fields as counters, `max` fields as high-water gauges.
            pub fn export(&self, prefix: &str, reg: &mut $crate::Registry) {
                $($crate::counters!(
                    @export $kind, reg, &format!("{prefix}{}", stringify!($field)), self.$field
                );)*
            }

            /// Reads back what [`Self::export`] wrote (absent names read 0).
            pub fn read(reg: &$crate::Registry, prefix: &str) -> Self {
                $name {
                    $($field: $crate::counters!(
                        @read $kind, reg, &format!("{prefix}{}", stringify!($field))
                    ) as $ty,)*
                }
            }

            /// Element-wise: `sum` fields add, `max` fields keep the larger.
            pub fn merge(&self, other: &Self) -> Self {
                $name {
                    $($field: $crate::counters!(@merge $kind, self.$field, other.$field),)*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    crate::counters! {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Demo {
            sum alpha: u64,
            max peak: u64,
            sum slots: usize,
        }
    }

    #[test]
    fn one_field_list_drives_every_view() {
        assert_eq!(Demo::NAMES, ["alpha", "peak", "slots"]);
        let (a, b) = (Demo::from_words([1, 7, 3]), Demo::from_words([10, 4, 30]));
        assert_eq!((a.alpha, a.peak, a.slots), (1, 7, 3));
        assert_eq!(a.words(), [1, 7, 3]);
        assert_eq!(a.merge(&b).words(), [11, 7, 33]);

        let mut reg = Registry::new();
        a.export("d.", &mut reg);
        b.export("d.", &mut reg);
        assert_eq!(reg.counter("d.alpha"), 11);
        assert_eq!(reg.gauge("d.peak"), 7);
        assert_eq!(reg.counter("d.slots"), 33);
        assert_eq!(Demo::read(&reg, "d."), a.merge(&b));
        assert_eq!(Demo::read(&reg, "other."), Demo::default());
    }
}
