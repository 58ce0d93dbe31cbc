//! The one scoped-thread pool of the workspace: it runs the federation
//! coordinator's site windows and the harness's batches of independent
//! simulations (sweeps and paper figures).
//!
//! The conservative-window scheme runs the *same* set of site engines
//! through many short windows — thousands per simulated second — so the
//! pool spawns its workers once, parks them on a condvar between windows,
//! and dispatches every window to the same threads. Work items are pulled
//! from a shared atomic counter and every cell sits behind its own mutex,
//! so which worker runs which cell never affects the outcome — results
//! live in the cells, by index. A batch of simulations is one window over
//! one cell per trial.
//!
//! No dependencies beyond `std` (`Mutex` + `Condvar` epoch barrier), same
//! as the rest of the workspace.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use holdcsim_des::time::SimTime;

/// The machine's available parallelism (≥ 1): the default worker count of
/// federation runs, sweeps and figures.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Barrier state shared between the coordinator and the workers.
struct State {
    /// Bumped once per dispatched window; workers run when it passes the
    /// epoch they last served.
    epoch: u64,
    /// The inclusive window cap workers pass to the work closure.
    cap: SimTime,
    /// Workers still busy in the current epoch.
    remaining: usize,
    /// Set once the coordinator is done (or unwinding): workers exit.
    shutdown: bool,
    /// Set when a worker's work closure panicked.
    panicked: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for the next epoch (or shutdown).
    work_cv: Condvar,
    /// The coordinator waits here for `remaining == 0`.
    done_cv: Condvar,
}

/// Signals shutdown to the workers even when the coordinator unwinds —
/// without this, a panicking `drive` would leave workers parked forever
/// and `thread::scope` would never join them.
struct ShutdownGuard<'a>(&'a Shared);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        st.shutdown = true;
        self.0.work_cv.notify_all();
    }
}

/// Runs `drive` with a window-dispatch handle backed by `workers` pooled
/// threads. Each call of the handle runs `work(&mut cell, cap)` exactly
/// once per cell (pulled by shared counter, any worker order) and returns
/// only when every cell finished — a full barrier per window.
///
/// With `workers <= 1` (or a single cell) no threads are spawned at all:
/// the handle runs the cells inline, in index order, making worker count
/// a pure throughput knob.
///
/// # Panics
///
/// Propagates panics from `work` (after releasing the barrier) and from
/// `drive`.
pub fn run_windows<T, W, D, R>(workers: usize, cells: &[Mutex<T>], work: W, drive: D) -> R
where
    T: Send,
    W: Fn(&mut T, SimTime) + Sync,
    D: FnOnce(&mut dyn FnMut(SimTime)) -> R,
{
    let workers = workers.clamp(1, cells.len().max(1));
    if workers <= 1 {
        let mut dispatch = |cap: SimTime| {
            for cell in cells {
                work(&mut cell.lock().expect("window cell"), cap);
            }
        };
        return drive(&mut dispatch);
    }
    let shared = Shared {
        state: Mutex::new(State {
            epoch: 0,
            cap: SimTime::ZERO,
            remaining: 0,
            shutdown: false,
            panicked: false,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    };
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker_loop(&shared, &next, cells, &work));
        }
        let _guard = ShutdownGuard(&shared);
        let mut dispatch = |cap: SimTime| {
            let mut st = shared.state.lock().expect("pool state");
            st.epoch += 1;
            st.cap = cap;
            st.remaining = workers;
            // The previous epoch fully drained before this one starts, so
            // resetting the pull counter races with nothing.
            next.store(0, Ordering::Relaxed);
            shared.work_cv.notify_all();
            while st.remaining > 0 {
                st = shared.done_cv.wait(st).expect("pool state");
            }
            assert!(!st.panicked, "window pool worker panicked");
        };
        drive(&mut dispatch)
    })
}

fn worker_loop<T, W>(shared: &Shared, next: &AtomicUsize, cells: &[Mutex<T>], work: &W)
where
    T: Send,
    W: Fn(&mut T, SimTime) + Sync,
{
    let mut served = 0u64;
    loop {
        let cap;
        {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > served {
                    served = st.epoch;
                    cap = st.cap;
                    break;
                }
                st = shared.work_cv.wait(st).expect("pool state");
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= cells.len() {
                break;
            }
            work(&mut cells[i].lock().expect("window cell"), cap);
        }));
        {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.remaining -= 1;
            if outcome.is_err() {
                st.panicked = true;
            }
            if st.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_sees_every_window_in_order() {
        for workers in [1usize, 2, 3, 8] {
            let cells: Vec<Mutex<Vec<SimTime>>> = (0..5).map(|_| Mutex::new(Vec::new())).collect();
            let total = run_windows(
                workers,
                &cells,
                |cell: &mut Vec<SimTime>, cap| cell.push(cap),
                |dispatch| {
                    let mut n = 0;
                    for t in 1..=4u64 {
                        dispatch(SimTime::from_secs(t));
                        n += 1;
                    }
                    n
                },
            );
            assert_eq!(total, 4);
            let want: Vec<SimTime> = (1..=4).map(SimTime::from_secs).collect();
            for cell in &cells {
                assert_eq!(*cell.lock().unwrap(), want, "workers={workers}");
            }
        }
    }

    #[test]
    fn worker_panic_reaches_the_coordinator() {
        let cells: Vec<Mutex<u64>> = (0..4).map(Mutex::new).collect();
        let hit = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_windows(
                2,
                &cells,
                |cell: &mut u64, _cap| {
                    if *cell == 2 {
                        panic!("boom");
                    }
                },
                |dispatch| dispatch(SimTime::ZERO),
            )
        }));
        assert!(hit.is_err(), "the window panic must propagate");
    }

    #[test]
    fn coordinator_panic_still_shuts_the_pool_down() {
        let cells: Vec<Mutex<u64>> = (0..4).map(Mutex::new).collect();
        let hit = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_windows(
                2,
                &cells,
                |_cell: &mut u64, _cap| {},
                |dispatch| {
                    dispatch(SimTime::ZERO);
                    panic!("drive failed");
                },
            )
        }));
        // Reaching this line at all proves the workers were released.
        assert!(hit.is_err());
    }
}
