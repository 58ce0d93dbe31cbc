//! Determinism fingerprints: a rolling 64-bit hash of the event stream,
//! checkpointed every K events, plus a diff that bisects two fingerprint
//! files to the first divergent checkpoint.
//!
//! The hash folds `(t_ns, kind, a, b)` of every processed event through a
//! splitmix64-style mixer, so any reordering, retiming, or substitution of
//! a single event changes every later checkpoint. Because each checkpoint
//! hashes a strict prefix of the stream, two runs agree exactly up to their
//! first divergent checkpoint — [`diff`] binary-searches that boundary
//! instead of scanning, which is what makes fingerprints usable as the
//! debugging backbone for parallel-coordination work.

use holdcsim_des::time::SimTime;

use crate::EventInfo;

/// Fingerprint knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintConfig {
    /// Checkpoint cadence in events (`--fingerprint-every`).
    pub every: u64,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        FingerprintConfig { every: 4096 }
    }
}

/// One fingerprint checkpoint: the rolling hash after `events` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of events folded into `hash` so far.
    pub events: u64,
    /// Sim time of the last folded event (nanoseconds).
    pub t_ns: u64,
    /// The rolling hash over the first `events` events.
    pub hash: u64,
}

/// splitmix64 finalizer: the mixing primitive under the rolling hash.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rolling-hash accumulator.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    every: u64,
    count: u64,
    hash: u64,
    checkpoints: Vec<Checkpoint>,
    last_t_ns: u64,
}

impl Fingerprinter {
    /// Creates an empty accumulator checkpointing every `cfg.every` events.
    pub fn new(cfg: FingerprintConfig) -> Self {
        Fingerprinter {
            every: cfg.every.max(1),
            count: 0,
            hash: 0x9e37_79b9_7f4a_7c15, // non-zero seed so an empty run is distinguishable
            checkpoints: Vec::new(),
            last_t_ns: 0,
        }
    }

    /// Folds one event into the rolling hash.
    #[inline]
    pub fn record(&mut self, t: SimTime, info: EventInfo) {
        let t_ns = t.as_nanos();
        let mut h = self.hash;
        h = mix(h ^ t_ns);
        h = mix(h ^ (info.kind as u64));
        h = mix(h ^ info.a);
        h = mix(h ^ info.b);
        self.hash = h;
        self.last_t_ns = t_ns;
        self.count += 1;
        if self.count.is_multiple_of(self.every) {
            self.checkpoints.push(Checkpoint {
                events: self.count,
                t_ns,
                hash: h,
            });
        }
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        self.count
    }

    /// The checkpoint cadence.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Closes the stream: appends a final checkpoint (unless the last
    /// periodic one already covers every event) and returns the checkpoint
    /// list.
    pub fn finish(mut self) -> Vec<Checkpoint> {
        let covered = self
            .checkpoints
            .last()
            .map(|c| c.events)
            .unwrap_or(u64::MAX);
        if covered != self.count {
            self.checkpoints.push(Checkpoint {
                events: self.count,
                t_ns: self.last_t_ns,
                hash: self.hash,
            });
        }
        self.checkpoints
    }
}

/// Renders a fingerprint file: a JSONL header line
/// `{"fingerprint":{"every":…,"site":…}}` followed by one
/// `{"events":…,"t_ns":…,"hash":"…"}` line per checkpoint (hash in hex).
pub fn render_file(every: u64, site: Option<u32>, checkpoints: &[Checkpoint]) -> String {
    let mut out = String::with_capacity(checkpoints.len() * 64 + 64);
    match site {
        Some(s) => out.push_str(&format!(
            "{{\"fingerprint\":{{\"every\":{every},\"site\":{s}}}}}\n"
        )),
        None => out.push_str(&format!(
            "{{\"fingerprint\":{{\"every\":{every},\"site\":null}}}}\n"
        )),
    }
    for c in checkpoints {
        out.push_str(&format!(
            "{{\"events\":{},\"t_ns\":{},\"hash\":\"{:016x}\"}}\n",
            c.events, c.t_ns, c.hash
        ));
    }
    out
}

/// Parses a fingerprint file produced by [`render_file`].
///
/// Returns `(every, checkpoints)`; tolerant of trailing whitespace but not
/// of structural damage — a malformed line is an error naming its number.
pub fn parse_file(text: &str) -> Result<(u64, Vec<Checkpoint>), String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| "empty fingerprint file".to_string())?;
    if !header.starts_with("{\"fingerprint\":") {
        return Err("line 1: missing fingerprint header".to_string());
    }
    let every = field_u64(header, "\"every\":").ok_or("line 1: missing \"every\"")?;
    let mut checkpoints = Vec::new();
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let events =
            field_u64(line, "\"events\":").ok_or(format!("line {}: missing \"events\"", i + 1))?;
        let t_ns =
            field_u64(line, "\"t_ns\":").ok_or(format!("line {}: missing \"t_ns\"", i + 1))?;
        let hash_hex =
            field_str(line, "\"hash\":\"").ok_or(format!("line {}: missing \"hash\"", i + 1))?;
        let hash = u64::from_str_radix(hash_hex, 16)
            .map_err(|e| format!("line {}: bad hash: {e}", i + 1))?;
        checkpoints.push(Checkpoint { events, t_ns, hash });
    }
    Ok((every, checkpoints))
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// The outcome of comparing two fingerprint files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Every common checkpoint matches (and the streams are the same length).
    Identical {
        /// Number of checkpoints compared.
        checkpoints: usize,
        /// The final rolling hash.
        final_hash: u64,
    },
    /// The streams agree up to `last_common` and first disagree at
    /// checkpoint index `index`.
    Diverged {
        /// Index (into the checkpoint list) of the first mismatch.
        index: usize,
        /// The last checkpoint both runs agree on, if any.
        last_common: Option<Checkpoint>,
        /// Run A's checkpoint at the divergence point.
        a: Checkpoint,
        /// Run B's checkpoint at the divergence point.
        b: Checkpoint,
    },
    /// All common checkpoints match but one run processed more events.
    LengthMismatch {
        /// Run A's total checkpointed events.
        a_events: u64,
        /// Run B's total checkpointed events.
        b_events: u64,
    },
}

/// Bisects two checkpoint streams to the first divergent checkpoint.
///
/// Relies on the prefix property: if checkpoint `i` matches, every earlier
/// one does too, so a binary search over the common prefix finds the first
/// mismatch in `O(log n)` comparisons.
pub fn diff(a: &[Checkpoint], b: &[Checkpoint]) -> DiffOutcome {
    let common = a.len().min(b.len());
    // Invariant: checkpoints before `lo` match, `hi` is a known mismatch
    // (or one past the end).
    let (mut lo, mut hi) = (0usize, common);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a[mid] == b[mid] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < common {
        return DiffOutcome::Diverged {
            index: lo,
            last_common: lo.checked_sub(1).map(|i| a[i]),
            a: a[lo],
            b: b[lo],
        };
    }
    let a_events = a.last().map(|c| c.events).unwrap_or(0);
    let b_events = b.last().map(|c| c.events).unwrap_or(0);
    if a.len() != b.len() || a_events != b_events {
        return DiffOutcome::LengthMismatch { a_events, b_events };
    }
    DiffOutcome::Identical {
        checkpoints: common,
        final_hash: a.last().map(|c| c.hash).unwrap_or(0),
    }
}

/// Renders a [`DiffOutcome`] as the `trace-diff` subcommand's report.
pub fn render_diff(outcome: &DiffOutcome) -> String {
    match outcome {
        DiffOutcome::Identical {
            checkpoints,
            final_hash,
        } => format!("identical: {checkpoints} checkpoints match, final hash {final_hash:016x}\n"),
        DiffOutcome::Diverged {
            index,
            last_common,
            a,
            b,
        } => {
            let mut out = format!("diverged at checkpoint {index}:\n");
            match last_common {
                Some(c) => out.push_str(&format!(
                    "  last common : events={} t={:.6}s hash={:016x}\n",
                    c.events,
                    c.t_ns as f64 / 1e9,
                    c.hash
                )),
                None => out.push_str("  last common : none (runs differ from the start)\n"),
            }
            out.push_str(&format!(
                "  run A       : events={} t={:.6}s hash={:016x}\n",
                a.events,
                a.t_ns as f64 / 1e9,
                a.hash
            ));
            out.push_str(&format!(
                "  run B       : events={} t={:.6}s hash={:016x}\n",
                b.events,
                b.t_ns as f64 / 1e9,
                b.hash
            ));
            out
        }
        DiffOutcome::LengthMismatch { a_events, b_events } => format!(
            "length mismatch: all common checkpoints match, but run A covers {a_events} \
             events and run B covers {b_events}\n"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: u8, a: u64) -> EventInfo {
        EventInfo { kind, a, b: 0 }
    }

    fn stream(n: u64, flip_at: Option<u64>) -> Vec<Checkpoint> {
        let mut fp = Fingerprinter::new(FingerprintConfig { every: 10 });
        for i in 0..n {
            let a = if Some(i) == flip_at { 999 } else { i };
            fp.record(SimTime::from_nanos(i * 100), ev((i % 3) as u8, a));
        }
        fp.finish()
    }

    #[test]
    fn same_stream_same_checkpoints() {
        assert_eq!(stream(105, None), stream(105, None));
    }

    #[test]
    fn checkpoint_cadence_and_final_tail() {
        let cps = stream(105, None);
        // 10 periodic checkpoints + the final partial one at 105.
        assert_eq!(cps.len(), 11);
        assert_eq!(cps[0].events, 10);
        assert_eq!(cps.last().unwrap().events, 105);
        // Exact multiple: no duplicate final checkpoint.
        assert_eq!(stream(100, None).len(), 10);
    }

    #[test]
    fn diff_identical() {
        let a = stream(105, None);
        let out = diff(&a, &a.clone());
        assert!(matches!(
            out,
            DiffOutcome::Identical {
                checkpoints: 11,
                ..
            }
        ));
        assert!(render_diff(&out).starts_with("identical:"));
    }

    #[test]
    fn diff_bisects_to_first_divergent_checkpoint() {
        let a = stream(105, None);
        let b = stream(105, Some(57)); // event 57 differs -> checkpoint 5 (events=60) first to change
        let out = diff(&a, &b);
        match out {
            DiffOutcome::Diverged {
                index,
                last_common,
                a: ca,
                b: cb,
            } => {
                assert_eq!(index, 5);
                assert_eq!(last_common.unwrap().events, 50);
                assert_eq!(ca.events, 60);
                assert_eq!(cb.events, 60);
                assert_ne!(ca.hash, cb.hash);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        assert!(render_diff(&out).contains("diverged at checkpoint 5"));
    }

    #[test]
    fn diff_detects_length_mismatch() {
        let a = stream(100, None);
        let b = stream(130, None);
        assert!(matches!(
            diff(&a, &b),
            DiffOutcome::LengthMismatch {
                a_events: 100,
                b_events: 130
            }
        ));
    }

    #[test]
    fn file_round_trips_through_parse() {
        let cps = stream(105, None);
        let text = render_file(10, Some(2), &cps);
        let (every, parsed) = parse_file(&text).unwrap();
        assert_eq!(every, 10);
        assert_eq!(parsed, cps);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_file("").is_err());
        assert!(parse_file("{\"not\":1}\n").is_err());
        let bad = "{\"fingerprint\":{\"every\":10,\"site\":null}}\n{\"events\":oops}\n";
        assert!(parse_file(bad).is_err());
    }

    #[test]
    fn time_only_change_flips_hash() {
        let mut a = Fingerprinter::new(FingerprintConfig::default());
        let mut b = Fingerprinter::new(FingerprintConfig::default());
        a.record(SimTime::from_nanos(1), ev(0, 0));
        b.record(SimTime::from_nanos(2), ev(0, 0));
        assert_ne!(a.finish()[0].hash, b.finish()[0].hash);
    }
}
