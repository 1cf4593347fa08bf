//! # mincut-obs — observability for the minimum-cut stack
//!
//! The per-solve [`SolverStats`](../mincut_core/struct.SolverStats.html)
//! report answers "where did *this run's* work go" after the fact; this
//! crate answers the live questions a long-running serving layer asks —
//! what is every thread doing right now, how are the caches behaving
//! across thousands of jobs, and what were the last operations before a
//! failure. Three pillars, zero external dependencies:
//!
//! * **Spans** ([`span`], [`instant`]) — lightweight thread-aware spans
//!   with enter/exit timestamps and key/value annotations, collected in a
//!   process-wide sink and exported as **Chrome trace-event JSON**
//!   ([`chrome_trace_json`]) that loads directly in Perfetto or
//!   `chrome://tracing`, one track per worker thread. Collection sits
//!   behind a relaxed-atomic enabled flag: **the disabled path is a
//!   single branch with zero allocation** (proved by the counting-
//!   allocator test `crates/core/tests/scan_alloc.rs` — the CAPFOREST
//!   scan itself carries a span and still allocates nothing when tracing
//!   is off).
//! * **Metrics** ([`metrics`]) — a process-wide registry of named
//!   counters, gauges and log2-bucketed latency histograms, with
//!   [`MetricsRegistry::snapshot`] → JSON export and a Prometheus-style
//!   text exposition formatter for the future async server.
//! * **Flight recorder** ([`flight`]) — a fixed-size ring buffer of
//!   recent structured events, dumped on error paths (solver failure,
//!   trace-parse rejection, a poisoned `DynamicMinCut`) so post-mortems
//!   carry the last operations that led to the failure.
//!
//! ## Enabling
//!
//! Libraries never read the environment; drivers opt in:
//!
//! * programmatically — [`set_tracing`]`(true)`;
//! * `mincut --trace-out <file>` (any mode) force-enables collection and
//!   writes the Chrome trace on exit;
//! * `SMC_TRACE=on|off` (default `off`) via [`init_from_env`], which the
//!   CLI and bench bins call at startup — unrecognized values warn once
//!   per process through the shared `mincut_ds::env_knob` contract.
//!
//! ## Quickstart
//!
//! ```
//! use mincut_obs as obs;
//!
//! obs::set_tracing(true);
//! {
//!     let mut sp = obs::span("demo/work");
//!     sp.arg("items", 3u64);
//!     obs::instant("demo/tick").arg("i", 1u64);
//! }
//! obs::metrics().counter("demo.iterations").inc();
//! obs::metrics().histogram("demo.latency_us").record(180);
//!
//! let (events, threads) = obs::take_events();
//! assert!(events.iter().any(|e| e.name == "demo/work"));
//! let json = obs::chrome_trace_json(&events, &threads);
//! assert!(json.contains("\"traceEvents\""));
//! let snap = obs::metrics().snapshot();
//! assert!(snap.to_prometheus().contains("demo_iterations"));
//! obs::set_tracing(false);
//! ```
//!
//! (The repo-level `examples/obs_quickstart.rs` drives the same flow
//! through a real solve.)

#![deny(unsafe_code)]

mod chrome;
mod flight;
mod metrics;
mod span;

pub use chrome::{chrome_trace_json, export_chrome_trace, validate_events};
pub use flight::{flight, FlightEvent, FlightRecorder};
pub use metrics::{
    metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use span::{
    current_tid, init_from_env, instant, named_track, set_tracing, span, take_events,
    tracing_enabled, ArgValue, EventBuilder, EventPhase, SpanGuard, TraceEvent,
};

/// Escapes `s` as a JSON string literal, quotes included. Local copy so
/// the crate stays at the bottom of the dependency graph (`mincut-core`
/// has its own `json_string`; this crate cannot depend on it).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
