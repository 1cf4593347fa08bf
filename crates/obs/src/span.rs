//! The span tracing core: thread-aware spans behind a relaxed-atomic
//! enabled flag.
//!
//! # Cost model
//!
//! The flag check is one `Relaxed` atomic load. When tracing is
//! disabled, [`span`] and [`instant`] return a guard wrapping `None` —
//! no clock read, no thread-id lookup, no allocation, and every
//! annotation method body is behind `if let Some(_)`, so the compiler
//! sees a dead branch. This is what lets the hot CAPFOREST scan carry a
//! span unconditionally while `crates/core/tests/scan_alloc.rs` keeps
//! asserting the warm scan allocates nothing.
//!
//! When tracing is enabled, a span costs a monotonic clock read at enter
//! and, at drop, a clock read plus one short critical section pushing
//! the completed event into the process-wide sink. Timestamps are
//! microseconds since the first enablement of the process (so traces
//! from one process share one epoch). Each OS thread is assigned a
//! small stable track id on first use and its `std::thread` name is
//! recorded for the exporter's `thread_name` metadata.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide collection flag. Relaxed is sufficient: the sink is
/// internally synchronized, the flag only gates *whether* to record.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span collection is currently on (one relaxed load).
#[inline(always)]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span collection on or off. Enabling anchors the process trace
/// epoch if this is the first enablement.
pub fn set_tracing(on: bool) {
    if on {
        epoch(); // anchor t = 0 before the first event
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Applies the `SMC_TRACE` environment knob (`off` default, `on`
/// enables; unrecognized values warn once via the shared
/// [`mincut_ds::env_knob`](mod@mincut_ds::env_knob) contract) and returns the resulting state.
/// Drivers call this once at startup; libraries never read the
/// environment.
pub fn init_from_env() -> bool {
    let on = mincut_ds::env_knob("SMC_TRACE", "off|on", "off", false, |v| match v {
        "off" | "0" | "false" => Some(false),
        "on" | "1" | "true" => Some(true),
        _ => None,
    });
    if on {
        set_tracing(true);
    }
    tracing_enabled()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Next unassigned track id (0 is typically the main thread).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The stable per-thread track id, assigned on first use. The thread's
/// name (or `thread-<id>` if unnamed) is registered with the sink so
/// the Chrome exporter can emit `thread_name` metadata — one named
/// track per worker.
pub fn current_tid() -> u64 {
    TID.with(|t| {
        let cached = t.get();
        if cached != u64::MAX {
            return cached;
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(tid);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        sink()
            .threads
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((tid, name));
        tid
    })
}

/// A stable track id for a *logical* worker, registered by name on
/// first use. Short-lived OS threads (scoped per-round workers) pin
/// their spans to a named track with [`SpanGuard::pin_track`] so the
/// exported trace shows one lane per logical worker instead of one per
/// spawned thread.
pub fn named_track(name: &str) -> u64 {
    let mut threads = sink().threads.lock().unwrap_or_else(|p| p.into_inner());
    if let Some((tid, _)) = threads.iter().find(|(_, n)| n == name) {
        return *tid;
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    threads.push((tid, name.to_string()));
    tid
}

/// An annotation value. Numbers stay typed so the exporter can emit
/// real JSON numbers instead of strings.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// Chrome trace-event phase of a recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventPhase {
    /// A duration span (`ph: "X"` — ts + dur).
    Complete,
    /// A point-in-time event (`ph: "i"`).
    Instant,
}

/// One recorded event in the process-wide sink.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub name: &'static str,
    pub phase: EventPhase,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Stable per-thread track id ([`current_tid`]).
    pub tid: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// The value of the annotation `key`, if present.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

struct Sink {
    events: Mutex<Vec<TraceEvent>>,
    /// `(tid, thread name)` in registration order.
    threads: Mutex<Vec<(u64, String)>>,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        events: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
    })
}

fn push_event(ev: TraceEvent) {
    sink()
        .events
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(ev);
}

/// Drains the sink: all events recorded so far (in completion order)
/// plus the `(tid, name)` registry of every thread that recorded one.
/// The thread registry is *not* cleared — track ids stay stable for the
/// life of the process, so later drains still know every track's name.
pub fn take_events() -> (Vec<TraceEvent>, Vec<(u64, String)>) {
    let events = std::mem::take(&mut *sink().events.lock().unwrap_or_else(|p| p.into_inner()));
    let threads = sink()
        .threads
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    (events, threads)
}

struct ActiveSpan {
    name: &'static str,
    start_us: u64,
    /// Explicit track override ([`named_track`]); the recording
    /// thread's own track otherwise.
    track: Option<u64>,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII span guard: records a [`EventPhase::Complete`] event covering
/// its lifetime when tracing was enabled at creation, nothing
/// otherwise.
pub struct SpanGuard(Option<ActiveSpan>);

/// Opens a span. The single relaxed-load check happens here; a guard
/// created while tracing is off is inert (and stays inert even if
/// tracing is enabled before it drops — events are never half-timed).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(ActiveSpan {
        name,
        start_us: now_us(),
        track: None,
        args: Vec::new(),
    }))
}

impl SpanGuard {
    /// Attaches a key/value annotation. On an inert guard the value is
    /// never converted — pass borrowed or `Copy` data and the disabled
    /// path stays allocation-free.
    #[inline]
    pub fn arg(&mut self, key: &'static str, v: impl Into<ArgValue>) {
        if let Some(s) = &mut self.0 {
            s.args.push((key, v.into()));
        }
    }

    /// Attaches a lazily-formatted string annotation: `v` is only
    /// `Display`-formatted when the guard is live.
    #[inline]
    pub fn arg_display(&mut self, key: &'static str, v: impl std::fmt::Display) {
        if let Some(s) = &mut self.0 {
            s.args.push((key, ArgValue::Str(v.to_string())));
        }
    }

    /// Whether this guard is actually recording.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Pins the span to an explicit track ([`named_track`]) instead of
    /// the recording thread's own. No-op when inert.
    #[inline]
    pub fn pin_track(&mut self, tid: u64) {
        if let Some(s) = &mut self.0 {
            s.track = Some(tid);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let end = now_us();
            push_event(TraceEvent {
                name: s.name,
                phase: EventPhase::Complete,
                ts_us: s.start_us,
                dur_us: end.saturating_sub(s.start_us),
                tid: s.track.unwrap_or_else(current_tid),
                args: s.args,
            });
        }
    }
}

/// Builder for a point-in-time event; the event is recorded when the
/// builder drops (so annotations chain naturally). Inert when tracing
/// is off, like [`span`].
pub struct EventBuilder(Option<ActiveSpan>);

/// Opens an instant-event builder (see [`EventBuilder`]).
#[inline]
pub fn instant(name: &'static str) -> EventBuilder {
    if !tracing_enabled() {
        return EventBuilder(None);
    }
    EventBuilder(Some(ActiveSpan {
        name,
        start_us: now_us(),
        track: None,
        args: Vec::new(),
    }))
}

impl EventBuilder {
    /// Attaches a key/value annotation (no-op when inert).
    #[inline]
    pub fn arg(mut self, key: &'static str, v: impl Into<ArgValue>) -> Self {
        if let Some(s) = &mut self.0 {
            s.args.push((key, v.into()));
        }
        self
    }

    /// Attaches a lazily-formatted string annotation.
    #[inline]
    pub fn arg_display(mut self, key: &'static str, v: impl std::fmt::Display) -> Self {
        if let Some(s) = &mut self.0 {
            s.args.push((key, ArgValue::Str(v.to_string())));
        }
        self
    }
}

impl Drop for EventBuilder {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            push_event(TraceEvent {
                name: s.name,
                phase: EventPhase::Instant,
                ts_us: s.start_us,
                dur_us: 0,
                tid: s.track.unwrap_or_else(current_tid),
                args: s.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag and sink are process-global; run every span test
    // under one lock so parallel test threads cannot interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        set_tracing(false);
        take_events();
        {
            let mut sp = span("x");
            sp.arg("k", 1u64);
            assert!(!sp.is_recording());
            instant("y").arg("k", 2u64);
        }
        assert!(take_events().0.is_empty());
    }

    #[test]
    fn enabled_spans_capture_nesting_and_args() {
        let _g = lock();
        set_tracing(true);
        take_events();
        {
            let mut outer = span("outer");
            outer.arg("n", 10u64);
            outer.arg_display("label", format_args!("v{}", 2));
            {
                let _inner = span("inner");
                instant("tick").arg("round", 3u64);
            }
        }
        set_tracing(false);
        let (events, threads) = take_events();
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        // Completion order: instants fire at creation, spans at drop.
        assert_eq!(names, vec!["tick", "inner", "outer"]);
        let outer = &events[2];
        assert_eq!(outer.arg("n"), Some(&ArgValue::U64(10)));
        assert_eq!(outer.arg("label"), Some(&ArgValue::Str("v2".into())));
        let inner = &events[1];
        // Containment on the same track.
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        assert!(threads.iter().any(|(tid, _)| *tid == outer.tid));
    }

    #[test]
    fn threads_get_distinct_tracks() {
        let _g = lock();
        set_tracing(true);
        take_events();
        let main_tid = current_tid();
        let worker_tid = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _sp = span("worker-span");
                current_tid()
            })
            .unwrap()
            .join()
            .unwrap();
        set_tracing(false);
        let (events, threads) = take_events();
        assert_ne!(main_tid, worker_tid);
        let ev = events.iter().find(|e| e.name == "worker-span").unwrap();
        assert_eq!(ev.tid, worker_tid);
        assert!(threads
            .iter()
            .any(|(tid, name)| *tid == worker_tid && name == "obs-test-worker"));
    }
}
