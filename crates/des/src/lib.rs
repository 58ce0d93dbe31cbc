//! # holdcsim-des
//!
//! The discrete-event simulation kernel underpinning HolDCSim-RS: a
//! deterministic event calendar (a monotone radix heap), an engine driving a
//! user-supplied [`engine::Model`], a reproducible random-number generator,
//! the generic [`slot_window::SlotWindow`] behind every hot-path table
//! (sequentially-keyed, hash-free, straggler-compacting), and the
//! statistics toolkit the simulator reports with.
//!
//! Everything here is domain-agnostic: no servers, switches, or jobs — those
//! live in the crates layered on top.
//!
//! ## Example: an M/M/1 queue in ~40 lines
//!
//! ```
//! use holdcsim_des::engine::{Context, Engine, Model};
//! use holdcsim_des::rng::SimRng;
//! use holdcsim_des::stats::Tally;
//! use holdcsim_des::time::{SimDuration, SimTime};
//!
//! enum Ev { Arrival, Departure }
//!
//! struct Mm1 {
//!     rng: SimRng,
//!     lambda: f64,
//!     mu: f64,
//!     in_system: u32,
//!     arrivals_left: u32,
//!     latencies: Tally,
//!     queue: Vec<SimTime>,
//! }
//!
//! impl Model for Mm1 {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Arrival => {
//!                 self.queue.push(ctx.now());
//!                 self.in_system += 1;
//!                 if self.in_system == 1 {
//!                     let s = SimDuration::from_secs_f64(self.rng.exp(self.mu));
//!                     ctx.schedule_in(s, Ev::Departure);
//!                 }
//!                 self.arrivals_left -= 1;
//!                 if self.arrivals_left > 0 {
//!                     let gap = SimDuration::from_secs_f64(self.rng.exp(self.lambda));
//!                     ctx.schedule_in(gap, Ev::Arrival);
//!                 }
//!             }
//!             Ev::Departure => {
//!                 let arrived = self.queue.remove(0);
//!                 self.latencies.record((ctx.now() - arrived).as_secs_f64());
//!                 self.in_system -= 1;
//!                 if self.in_system > 0 {
//!                     let s = SimDuration::from_secs_f64(self.rng.exp(self.mu));
//!                     ctx.schedule_in(s, Ev::Departure);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let model = Mm1 {
//!     rng: SimRng::seed_from(1),
//!     lambda: 0.5,
//!     mu: 1.0,
//!     in_system: 0,
//!     arrivals_left: 5_000,
//!     latencies: Tally::new(),
//!     queue: Vec::new(),
//! };
//! let mut engine = Engine::new(model);
//! engine.schedule_at(SimTime::ZERO, Ev::Arrival);
//! engine.run();
//! // M/M/1 with rho=0.5: E[T] = 1/(mu-lambda) = 2.
//! let mean = engine.model().latencies.mean();
//! assert!((mean - 2.0).abs() < 0.2, "mean latency {mean}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod engine;
pub mod lazy_heap;
pub mod queue;
pub mod rng;
pub mod slot_window;
pub mod stats;
pub mod time;

pub use engine::{Context, Engine, EventObserver, Model, NoObserver};
pub use lazy_heap::LazyHeap;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use slot_window::SlotWindow;
pub use time::{SimDuration, SimTime};
