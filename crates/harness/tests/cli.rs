//! End-to-end checks of the `holdcsim` binary: what a command prints,
//! where the in-process tests of `src/bin/holdcsim.rs` cannot look.

use std::process::Command;

/// Runs `holdcsim` with space-separated `args`; returns its stdout.
fn holdcsim(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_holdcsim"))
        .args(args.split(' '))
        .output()
        .expect("holdcsim starts");
    assert!(
        out.status.success(),
        "holdcsim {args}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

/// `federate --net` gives every site the fabric and the communicating
/// workload of `run --net`, so every site's fabric carries flows, and
/// the report bytes do not depend on the window-pool worker count.
#[test]
fn federate_net_carries_flows_on_every_site() {
    let run = |workers: u32| {
        holdcsim(&format!(
            "federate --sites 2 --servers 8 --duration 0.5 --net --json --fed-workers {workers}"
        ))
    };
    let serial = run(1);
    let flows: Vec<u64> = serial
        .match_indices("\"flows\":")
        .map(|(at, key)| {
            let digits = serial[at + key.len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap_or("");
            digits.parse().expect("a flow count")
        })
        .collect();
    assert_eq!(flows.len(), 2, "one network section per site: {serial}");
    assert!(flows.iter().all(|&n| n > 0), "site flow counts {flows:?}");
    assert_eq!(serial, run(2), "--fed-workers 1 vs 2");
}
