//! Workload traces: record an operation sequence once, replay it
//! bit-identically against any design.
//!
//! Re-seeding the generator gives *statistically* identical workloads;
//! traces give *literally* identical ones, which is the stronger
//! methodology when comparing designs (and lets externally-captured
//! workloads — e.g. converted memcached logs — drive the simulator).
//!
//! # File format
//!
//! UTF-8 text, one `\n`-terminated line per record: a header
//! `nbkv-trace <version> <note>`, then one line per op in issue order,
//! `set <value_len> <key>`, `get <key>` or `delete <key>`. The note and
//! the key run to the end of their line, so they may hold spaces but not
//! a newline.

use std::fmt::Write as _;

use crate::keygen::{AccessPattern, KeyChooser, KeySpace};
use crate::mix::{OpKind, OpMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One traced operation. Keys are strings (traces are human-auditable
/// text); value contents are synthesized at replay time from the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Store `value_len` bytes under `key`.
    Set {
        /// Key string.
        key: String,
        /// Value length in bytes.
        value_len: usize,
    },
    /// Fetch `key`.
    Get {
        /// Key string.
        key: String,
    },
    /// Remove `key`.
    Delete {
        /// Key string.
        key: String,
    },
}

impl TraceOp {
    /// The operation's key.
    pub fn key(&self) -> &str {
        match self {
            TraceOp::Set { key, .. } | TraceOp::Get { key } | TraceOp::Delete { key } => key,
        }
    }
}

/// First word of a trace file.
const HEADER: &str = "nbkv-trace";

/// A recorded operation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Schema version for forward compatibility.
    pub version: u32,
    /// Human note (what generated this trace).
    pub note: String,
    /// The operations, in issue order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Generate a trace with the same streams a generated workload run
    /// would use: `keys` keys, `pattern` access skew, `mix` op mix,
    /// `value_len`-byte sets.
    pub fn generate(
        keys: usize,
        value_len: usize,
        pattern: AccessPattern,
        mix: OpMix,
        ops: usize,
        seed: u64,
    ) -> Trace {
        let mut chooser = KeyChooser::new(KeySpace::new(keys), pattern, seed);
        let mut mix_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
        let ops = (0..ops)
            .map(|_| {
                let key = String::from_utf8_lossy(&chooser.next_key()).into_owned();
                match mix.choose(&mut mix_rng) {
                    OpKind::Read => TraceOp::Get { key },
                    OpKind::Write => TraceOp::Set { key, value_len },
                }
            })
            .collect();
        Trace {
            version: 1,
            note: format!(
                "generated: {keys} keys, {value_len}B values, {} mix, seed {seed}",
                mix.label()
            ),
            ops,
        }
    }

    /// Render in the [file format](self); panics if the note or a key
    /// holds a newline, which the format cannot carry.
    pub fn to_text(&self) -> String {
        assert!(!self.note.contains('\n'), "trace note holds a newline");
        let mut out = format!("{HEADER} {} {}\n", self.version, self.note);
        for op in &self.ops {
            let key = op.key();
            assert!(!key.contains('\n'), "trace key {key:?} holds a newline");
            let _ = match op {
                TraceOp::Set { value_len, .. } => writeln!(out, "set {value_len} {key}"),
                TraceOp::Get { .. } => writeln!(out, "get {key}"),
                TraceOp::Delete { .. } => writeln!(out, "delete {key}"),
            };
        }
        out
    }

    /// Parse the [file format](self). A malformed line is an
    /// `InvalidData` error naming its 1-based line number.
    pub fn from_text(text: &str) -> std::io::Result<Trace> {
        let err = |line: usize, reason: &str| {
            let msg = format!("trace line {line}: {reason}");
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        };
        let mut lines = text.split_terminator('\n').zip(1..);
        let (version, note) = lines
            .next()
            .and_then(|(header, _)| header.strip_prefix(HEADER)?.strip_prefix(' '))
            .and_then(|rest| rest.split_once(' '))
            .ok_or_else(|| err(1, "missing `nbkv-trace <version> <note>` header"))?;
        let version = version.parse().map_err(|_| err(1, "non-numeric version"))?;
        let ops = lines
            .map(|(line, n)| match line.split_once(' ') {
                Some(("get", key)) => Ok(TraceOp::Get { key: key.into() }),
                Some(("delete", key)) => Ok(TraceOp::Delete { key: key.into() }),
                Some(("set", rest)) => {
                    let (len, key) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(n, "set needs `<value_len> <key>`"))?;
                    let value_len = len.parse().map_err(|_| err(n, "non-numeric value_len"))?;
                    Ok(TraceOp::Set {
                        key: key.into(),
                        value_len,
                    })
                }
                _ => Err(err(n, "unknown op")),
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Trace {
            version,
            note: note.into(),
            ops,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        Trace::from_text(&std::fs::read_to_string(path)?)
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Trace::generate(
            100,
            1024,
            AccessPattern::Zipf(0.99),
            OpMix::WRITE_HEAVY,
            200,
            7,
        );
        let b = Trace::generate(
            100,
            1024,
            AccessPattern::Zipf(0.99),
            OpMix::WRITE_HEAVY,
            200,
            7,
        );
        assert_eq!(a, b);
        let c = Trace::generate(
            100,
            1024,
            AccessPattern::Zipf(0.99),
            OpMix::WRITE_HEAVY,
            200,
            8,
        );
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn text_round_trip() {
        let t = Trace {
            version: 1,
            note: "test".into(),
            ops: vec![
                TraceOp::Set {
                    key: "a".into(),
                    value_len: 10,
                },
                TraceOp::Get { key: "a".into() },
                TraceOp::Delete { key: "a".into() },
            ],
        };
        let parsed = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn file_round_trip() {
        let t = Trace::generate(10, 64, AccessPattern::Uniform, OpMix::READ_ONLY, 30, 1);
        let dir = std::env::temp_dir().join("nbkv-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn generated_mix_matches_spec() {
        let t = Trace::generate(50, 128, AccessPattern::Uniform, OpMix::WRITE_HEAVY, 4000, 3);
        let writes = t
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Set { .. }))
            .count();
        assert!((1600..=2400).contains(&writes), "{writes} writes of 4000");
        assert_eq!(t.len(), 4000);
        assert!(!t.is_empty());
    }

    #[test]
    fn malformed_trace_is_an_error() {
        for (text, line) in [
            ("", 1),                               // empty file
            ("get a\n", 1),                        // missing header
            ("nbkv-trace x note\n", 1),            // non-numeric version
            ("nbkv-trace 1 n\nget a\nput a\n", 3), // unknown op
            ("nbkv-trace 1 n\nset a\n", 2),        // missing value_len
            ("nbkv-trace 1 n\nset ten a\n", 2),    // non-numeric value_len
        ] {
            let err = Trace::from_text(text).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().starts_with(&format!("trace line {line}: ")),
                "{err}"
            );
        }
    }

    #[test]
    fn newline_in_key_or_note_trips_an_assert() {
        let bad_note = Trace {
            version: 1,
            note: "two\nlines".into(),
            ops: vec![],
        };
        let bad_key = Trace {
            version: 1,
            note: String::new(),
            ops: vec![TraceOp::Get { key: "a\nb".into() }],
        };
        for t in [bad_note, bad_key] {
            assert!(std::panic::catch_unwind(|| t.to_text()).is_err());
        }
    }
}
