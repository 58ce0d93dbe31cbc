//! DES kernel microbenchmarks: calendar throughput (bulk push-then-drain
//! and the steady-state hold model) and a dense M/M/1-style event chain —
//! the raw event rate behind Table I's scalability.
//!
//! Run with `cargo bench --bench engine` (add `-- --quick` for a reduced
//! sample count); compiled in CI via `cargo bench --no-run`.

use holdcsim_bench::{bench, quick_mode};
use holdcsim_des::engine::{Context, Engine, Model};
use holdcsim_des::queue::EventQueue;
use holdcsim_des::rng::SimRng;
use holdcsim_des::time::{SimDuration, SimTime};

fn queue_push_pop(samples: u32) {
    for n in [1_000u64, 100_000] {
        let mut rng = SimRng::seed_from(1);
        let times: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_nanos(rng.next_u64() >> 20))
            .collect();
        bench(
            &format!("event_queue/push_pop_{n}"),
            samples,
            Some(n),
            || {
                let mut q = EventQueue::new();
                for &t in &times {
                    q.push(t, ());
                }
                while q.pop().is_some() {}
            },
        );
    }
}

/// A hold-model delay: three in four are short (1 ns–10 µs, packet hops
/// and service slices), the rest long (1–100 ms, timers and WAN transit).
fn hold_delay(rng: &mut SimRng) -> SimDuration {
    if rng.below(4) < 3 {
        SimDuration::from_nanos(1 + rng.below(10_000))
    } else {
        SimDuration::from_nanos(1_000_000 + rng.below(99_000_000))
    }
}

/// The hold model: a calendar holding `n` events, where each operation
/// pops the earliest and pushes one at `now + Δ`, as a running
/// simulation does. `n` is the peak pending count of perfbench's `farm`
/// (2,427) and `geo-packet` (21,890) runs; the queue persists across
/// samples, so every sample times steady-state holds only.
fn queue_hold(samples: u32) {
    let ops = 500_000u64;
    for (label, n) in [("2k", 2_427u64), ("22k", 21_890)] {
        let mut rng = SimRng::seed_from(5);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::ZERO + hold_delay(&mut rng), i);
        }
        let delays: Vec<SimDuration> = (0..ops).map(|_| hold_delay(&mut rng)).collect();
        bench(
            &format!("event_queue/hold_{label}"),
            samples,
            Some(ops),
            || {
                for &d in &delays {
                    if let Some((now, ev)) = q.pop() {
                        q.push(now + d, ev);
                    }
                }
                q.len()
            },
        );
    }
}

struct Pingpong {
    remaining: u64,
    rng: SimRng,
}

impl Model for Pingpong {
    type Event = ();
    fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let gap = SimDuration::from_nanos(1 + (self.rng.next_u64() & 0xFFFF));
            ctx.schedule_in(gap, ());
        }
    }
}

fn engine_event_chain(samples: u32) {
    let n = 100_000u64;
    bench("engine/event_chain_100k", samples, Some(n), || {
        let mut e = Engine::new(Pingpong {
            remaining: n,
            rng: SimRng::seed_from(3),
        });
        e.schedule_at(SimTime::ZERO, ());
        e.run();
        assert_eq!(e.events_processed(), n + 1);
    });
}

fn main() {
    let samples = if quick_mode() { 3 } else { 20 };
    queue_push_pop(samples);
    queue_hold(samples);
    engine_event_chain(samples);
}
