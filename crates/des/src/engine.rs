//! The simulation engine: drives a [`Model`] by popping events off the
//! calendar and handing them to the model's handler together with a
//! [`Context`] through which the handler schedules follow-up events.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A simulation model: owns all domain state and interprets events.
///
/// The engine owns the clock and the calendar; the model owns everything
/// else. Handlers receive a [`Context`] for reading the clock and scheduling
/// future events.
///
/// # Examples
///
/// ```
/// use holdcsim_des::engine::{Context, Engine, Model};
/// use holdcsim_des::time::SimDuration;
///
/// struct Counter {
///     fired: u32,
/// }
///
/// impl Model for Counter {
///     type Event = ();
///     fn handle(&mut self, ctx: &mut Context<'_, ()>, _ev: ()) {
///         self.fired += 1;
///         if self.fired < 3 {
///             ctx.schedule_in(SimDuration::from_secs(1), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Counter { fired: 0 });
/// engine.schedule_in(SimDuration::ZERO, ());
/// engine.run();
/// assert_eq!(engine.model().fired, 3);
/// ```
pub trait Model: Sized {
    /// The event alphabet of this model.
    type Event;

    /// Processes one event occurring at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// A passive tap on the engine's event stream.
///
/// The engine calls [`on_event`](EventObserver::on_event) once per processed
/// event, after the clock has advanced to the event's instant and before the
/// model's handler runs. The observer is a type parameter of [`Engine`], so
/// the default [`NoObserver`] monomorphizes every call to a no-op — the
/// uninstrumented engine pays nothing for this hook.
///
/// When [`PANIC_HOOK`](EventObserver::PANIC_HOOK) is `true`, the engine also
/// wraps handler dispatch in a drop guard so that a panicking handler calls
/// [`on_panic`](EventObserver::on_panic) while unwinding — the observer can
/// then report the sim time and the event it just saw instead of leaving only
/// a bare backtrace.
pub trait EventObserver<M: Model> {
    /// When `true`, the engine arms a panic-context guard around every
    /// handler dispatch (one `mem::forget` on the happy path).
    const PANIC_HOOK: bool;

    /// Called for every processed event, before the model handles it.
    fn on_event(&mut self, now: SimTime, event: &M::Event, model: &M);

    /// Called while unwinding from a panicking handler (only if
    /// [`PANIC_HOOK`](EventObserver::PANIC_HOOK) is `true`).
    fn on_panic(&self, now: SimTime);
}

/// The default observer: observes nothing, compiles away entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl<M: Model> EventObserver<M> for NoObserver {
    const PANIC_HOOK: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _now: SimTime, _event: &M::Event, _model: &M) {}

    #[inline(always)]
    fn on_panic(&self, _now: SimTime) {}
}

/// Calls [`EventObserver::on_panic`] if dropped during unwind; forgotten on
/// the happy path so the hook only fires when a handler actually panicked.
struct PanicGuard<'a, M: Model, O: EventObserver<M>> {
    observer: &'a O,
    now: SimTime,
    _model: std::marker::PhantomData<fn(M)>,
}

impl<M: Model, O: EventObserver<M>> Drop for PanicGuard<'_, M, O> {
    fn drop(&mut self) {
        self.observer.on_panic(self.now);
    }
}

/// The handler-side view of the engine: the current clock plus scheduling.
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Context<'a, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before `self.now()`): scheduling into
    /// the past would corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.queue.push(at, event);
    }
}

/// The discrete-event engine: event calendar + clock + a [`Model`], plus an
/// optional [`EventObserver`] tap (defaulting to the free [`NoObserver`]).
#[derive(Debug)]
pub struct Engine<M: Model, O: EventObserver<M> = NoObserver> {
    model: M,
    observer: O,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Engine<M> {
    /// Creates an unobserved engine at time zero with an empty calendar.
    pub fn new(model: M) -> Self {
        Engine::with_observer(model, NoObserver)
    }
}

impl<M: Model, O: EventObserver<M>> Engine<M, O> {
    /// Creates an engine at time zero whose event stream is tapped by
    /// `observer`.
    pub fn with_observer(model: M, observer: O) -> Self {
        Engine {
            model,
            observer,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Shared access to the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Exclusive access to the observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the engine, returning the model and the observer.
    pub fn into_parts(self) -> (M, O) {
        (self.model, self.observer)
    }

    /// Schedules an event before or between runs.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Processes a single event. Returns `false` when the calendar is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, event);
        true
    }

    /// Advances the clock to `at` and hands `event` to the observer and
    /// then the model.
    #[inline]
    fn dispatch(&mut self, at: SimTime, event: M::Event) {
        debug_assert!(at >= self.now, "event calendar went backwards");
        self.now = at;
        self.processed += 1;
        self.observer.on_event(self.now, &event, &self.model);
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
        };
        if O::PANIC_HOOK {
            let guard = PanicGuard::<M, O> {
                observer: &self.observer,
                now: self.now,
                _model: std::marker::PhantomData,
            };
            self.model.handle(&mut ctx, event);
            std::mem::forget(guard);
        } else {
            self.model.handle(&mut ctx, event);
        }
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock would pass `deadline` (events at exactly
    /// `deadline` are processed) or the calendar drains. The clock then
    /// advances to `deadline`; it never rewinds, so a deadline already
    /// passed processes nothing and leaves the clock where it is.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_window(deadline);
        self.now = self.now.max(deadline);
    }

    /// Processes every event at or before `cap` — including events that
    /// handlers schedule *inside* the window — and returns how many fired.
    ///
    /// Unlike [`run_until`](Engine::run_until), the clock is **not**
    /// advanced to `cap`: it stays at the last processed event, so a later
    /// window (or a final `run_until(horizon)`) resumes seamlessly. This
    /// is the conservative-window primitive for running several engines
    /// concurrently: each engine burns down its calendar to a horizon that
    /// no cross-engine message can precede, independently of the others.
    pub fn run_window(&mut self, cap: SimTime) -> u64 {
        let before = self.processed;
        while let Some((at, event)) = self.queue.pop_until(cap) {
            self.dispatch(at, event);
        }
        self.processed - before
    }

    /// The instant of the next scheduled event, if any.
    ///
    /// This is the coordination primitive for running several engines
    /// together — e.g. a multi-datacenter federation computing the next
    /// safe window from the globally earliest event.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of live events still scheduled.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, ev: u32) {
            self.seen.push((ctx.now(), ev));
        }
    }

    fn recorder() -> Engine<Recorder> {
        Engine::new(Recorder { seen: Vec::new() })
    }

    #[test]
    fn processes_in_order_and_advances_clock() {
        let mut e = recorder();
        e.schedule_at(SimTime::from_secs(2), 2);
        e.schedule_at(SimTime::from_secs(1), 1);
        e.run();
        assert_eq!(
            e.model().seen,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]
        );
        assert_eq!(e.now(), SimTime::from_secs(2));
        assert_eq!(e.events_processed(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut e = recorder();
        e.schedule_at(SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_secs(5), 5);
        e.run_until(SimTime::from_secs(3));
        assert_eq!(e.model().seen, vec![(SimTime::from_secs(1), 1)]);
        assert_eq!(e.now(), SimTime::from_secs(3));
        // The remaining event still fires on the next run.
        e.run();
        assert_eq!(e.model().seen.len(), 2);
    }

    #[test]
    fn run_until_processes_events_at_deadline() {
        let mut e = recorder();
        e.schedule_at(SimTime::from_secs(3), 3);
        e.run_until(SimTime::from_secs(3));
        assert_eq!(e.model().seen.len(), 1);
    }

    #[test]
    fn handler_scheduled_events_fire() {
        struct Chain {
            hops: u32,
        }
        impl Model for Chain {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
                self.hops += 1;
                if self.hops < 10 {
                    ctx.schedule_in(SimDuration::from_millis(10), ());
                }
            }
        }
        let mut e = Engine::new(Chain { hops: 0 });
        e.schedule_in(SimDuration::ZERO, ());
        e.run();
        assert_eq!(e.model().hops, 10);
        assert_eq!(e.now(), SimTime::from_nanos(90 * 1_000_000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut e = Engine::new(Bad);
        e.schedule_at(SimTime::from_secs(1), ());
        e.run();
    }

    #[test]
    fn run_window_processes_inclusive_cap_without_advancing_clock() {
        let mut e = recorder();
        e.schedule_at(SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_secs(3), 3);
        e.schedule_at(SimTime::from_secs(5), 5);
        assert_eq!(e.run_window(SimTime::from_secs(3)), 2);
        assert_eq!(
            e.model().seen,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(3), 3)]
        );
        // The clock parks at the last event, not the cap.
        assert_eq!(e.now(), SimTime::from_secs(3));
        assert_eq!(e.peek_next_time(), Some(SimTime::from_secs(5)));
        // An empty window fires nothing and moves nothing.
        assert_eq!(e.run_window(SimTime::from_secs(4)), 0);
        assert_eq!(e.now(), SimTime::from_secs(3));
        assert_eq!(e.run_window(SimTime::from_secs(5)), 1);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn run_window_follows_handler_scheduled_events() {
        struct Chain {
            hops: u32,
        }
        impl Model for Chain {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
                self.hops += 1;
                ctx.schedule_in(SimDuration::from_secs(1), ());
            }
        }
        let mut e = Engine::new(Chain { hops: 0 });
        e.schedule_at(SimTime::from_secs(1), ());
        // Events bred inside the window run inside the window.
        assert_eq!(e.run_window(SimTime::from_secs(4)), 4);
        assert_eq!(e.model().hops, 4);
        assert_eq!(e.now(), SimTime::from_secs(4));
        assert_eq!(e.peek_next_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn run_until_never_rewinds_the_clock() {
        let mut e = recorder();
        e.schedule_at(SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_millis(2_500), 2);
        e.schedule_at(SimTime::from_secs(5), 5);
        e.run_until(SimTime::from_secs(3));
        assert_eq!(e.now(), SimTime::from_secs(3));
        // A deadline already passed fires nothing and keeps the clock.
        e.run_until(SimTime::from_secs(2));
        assert_eq!(e.now(), SimTime::from_secs(3));
        assert_eq!(e.model().seen.len(), 2);
        // So an immediate event lands after the 2.5 s one, not before it.
        e.schedule_in(SimDuration::ZERO, 3);
        e.run();
        assert_eq!(
            e.model().seen,
            vec![
                (SimTime::from_secs(1), 1),
                (SimTime::from_millis(2_500), 2),
                (SimTime::from_secs(3), 3),
                (SimTime::from_secs(5), 5),
            ]
        );
    }

    #[test]
    fn run_until_with_empty_calendar_advances_clock() {
        let mut e = recorder();
        e.run_until(SimTime::from_secs(9));
        assert_eq!(e.now(), SimTime::from_secs(9));
    }

    /// Observer used by the hook tests: records the stream and keeps the
    /// last event in a cell the panic hook can read during unwind.
    struct Tap {
        seen: Vec<(SimTime, u32)>,
        last: std::cell::Cell<u32>,
        panicked_at: std::rc::Rc<std::cell::Cell<Option<(SimTime, u32)>>>,
    }

    impl EventObserver<Recorder> for Tap {
        const PANIC_HOOK: bool = true;
        fn on_event(&mut self, now: SimTime, event: &u32, _model: &Recorder) {
            self.seen.push((now, *event));
            self.last.set(*event);
        }
        fn on_panic(&self, now: SimTime) {
            self.panicked_at.set(Some((now, self.last.get())));
        }
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        let tap = Tap {
            seen: Vec::new(),
            last: std::cell::Cell::new(0),
            panicked_at: Default::default(),
        };
        let mut e = Engine::with_observer(Recorder { seen: Vec::new() }, tap);
        e.schedule_at(SimTime::from_secs(2), 20);
        e.schedule_at(SimTime::from_secs(1), 10);
        e.run();
        // The observer saw exactly what the model saw, in the same order.
        assert_eq!(e.observer().seen, e.model().seen);
        let (model, tap) = e.into_parts();
        assert_eq!(model.seen.len(), 2);
        assert_eq!(tap.seen.len(), 2);
    }

    #[test]
    fn panic_guard_reports_time_and_event_of_panicking_handler() {
        struct Bomb;
        impl Model for Bomb {
            type Event = u32;
            fn handle(&mut self, _ctx: &mut Context<'_, u32>, ev: u32) {
                if ev == 7 {
                    panic!("boom");
                }
            }
        }
        struct BombTap {
            last: std::cell::Cell<u32>,
            panicked_at: std::rc::Rc<std::cell::Cell<Option<(SimTime, u32)>>>,
        }
        impl EventObserver<Bomb> for BombTap {
            const PANIC_HOOK: bool = true;
            fn on_event(&mut self, _now: SimTime, event: &u32, _model: &Bomb) {
                self.last.set(*event);
            }
            fn on_panic(&self, now: SimTime) {
                self.panicked_at.set(Some((now, self.last.get())));
            }
        }
        let report = std::rc::Rc::new(std::cell::Cell::new(None));
        let tap = BombTap {
            last: std::cell::Cell::new(0),
            panicked_at: report.clone(),
        };
        let mut e = Engine::with_observer(Bomb, tap);
        e.schedule_at(SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_secs(5), 7);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.run()));
        assert!(r.is_err());
        // The guard fired during unwind with the offending event's context.
        assert_eq!(report.get(), Some((SimTime::from_secs(5), 7)));
    }

    #[test]
    fn panic_guard_does_not_fire_on_the_happy_path() {
        let report = std::rc::Rc::new(std::cell::Cell::new(None));
        let tap = Tap {
            seen: Vec::new(),
            last: std::cell::Cell::new(0),
            panicked_at: report.clone(),
        };
        let mut e = Engine::with_observer(Recorder { seen: Vec::new() }, tap);
        e.schedule_at(SimTime::from_secs(1), 1);
        e.run();
        assert_eq!(report.get(), None);
    }
}
