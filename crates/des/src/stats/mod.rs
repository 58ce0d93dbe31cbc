//! Runtime statistics collection for simulations.
//!
//! * [`Tally`] — streaming mean/variance/min/max of discrete observations
//!   (e.g. per-job latency).
//! * [`TimeWeighted`] — integrals and time averages of piecewise-constant
//!   signals (e.g. queue length, watts → joules).
//! * [`Residency`] — time spent per state of a state machine (Fig. 8).
//! * [`SampleSet`] — exact/reservoir quantiles and CDFs (tail latency,
//!   Fig. 11b).
//! * [`TimeSeries`] — fixed-interval sampled traces (power traces,
//!   Fig. 4/12/13).

mod quantile;
mod residency;
mod series;
mod tally;
mod timeweighted;

pub use quantile::SampleSet;
pub use residency::Residency;
pub use series::TimeSeries;
pub use tally::Tally;
pub use timeweighted::TimeWeighted;
