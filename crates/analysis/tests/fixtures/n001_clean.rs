//! N001 clean: every public item has a non-test caller, and the items
//! N001 leaves to others stay out of its scope.

use std::fmt;

/// A counter that `main` drives.
pub struct Meter {
    total: u64,
}

impl Meter {
    pub fn new() -> Self {
        Meter { total: 0 }
    }

    pub fn record(&mut self, v: u64) {
        self.total += v;
    }
}

/// Trait-impl methods carry no `pub`: out of scope.
impl fmt::Display for Meter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.total)
    }
}

/// Restricted visibility is rustc `dead_code`'s business.
pub(crate) fn unused_helper() {}

fn main() {
    let mut m = Meter::new();
    m.record(3);
    println!("{m}");
}
