//! N001 trigger: public items that no non-test code names outside
//! their own definitions. Each is named only where a name is no caller:
//! a doc comment, a string literal, its own body, its own impl blocks,
//! or a test.

/// Adds two counts; only this doc and the test module name `merge_counts`.
pub fn merge_counts(a: u64, b: u64) -> u64 {
    a + b
}

/// Counts down; outside the tests only its own recursion names it.
pub fn depth(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        1 + depth(n - 1)
    }
}

/// A marker that only a string literal names.
pub struct Probe;

/// A bound that only a `#[test]` function names.
pub const LIMIT: u32 = 8;

/// A gauge that only its own impl blocks name, header and body.
pub struct Gauge {
    level: u64,
}

impl Gauge {
    fn empty() -> Gauge {
        Gauge { level: 0 }
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::empty()
    }
}

/// A trait that only its definition and an impl header name.
pub trait Sink {
    fn put(&mut self, v: u64);
}

impl Sink for Gauge {
    fn put(&mut self, v: u64) {
        self.level += v;
    }
}

fn main() {
    println!("Probe");
}

#[test]
fn limit_is_eight() {
    assert_eq!(LIMIT, 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_and_counts() {
        assert_eq!(merge_counts(1, 2), 3);
        assert_eq!(depth(3), 3);
        let _ = Probe;
    }
}
