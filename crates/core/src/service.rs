//! [`MinCutService`]: the batch serving layer over the
//! [`Session`](crate::Session) API.
//!
//! The paper's evaluation (§4) sweeps many instances × algorithm
//! configurations; a serving deployment sees the same shape of traffic —
//! bursts of `(graph, solver, options)` jobs, many of them repeats or
//! close relatives of each other. This module turns the one-graph
//! [`Session`](crate::Session) into a multi-query service:
//!
//! * **Batching** — a batch of [`BatchJob`]s runs concurrently on a pool
//!   of self-scheduling workers ([`ServiceConfig::concurrency`]); slow
//!   jobs don't serialise the queue because workers pull the next index
//!   from a shared atomic cursor rather than owning a static slice.
//! * **Caching** — results are memoised in a fingerprint-keyed cut
//!   cache, a locked hash table like the kernel cache: the key is
//!   [`CsrGraph::fingerprint`] plus the resolved solver instance
//!   configuration, so a repeat submission is served without re-solving.
//!   The cache persists across batches for the lifetime of the service.
//! * **Bound sharing** — jobs on the same graph (same fingerprint) reuse
//!   the best witnessed cut found so far as
//!   [`SolveOptions::initial_bound`] for later jobs, the paper's λ̂
//!   seeding (§3.1.1) applied across a whole sweep. The receiving job
//!   re-costs the donated side on its own graph (`cut_value`), so the
//!   bound is the value of an actual cut of the graph it solves, even
//!   under a fingerprint collision. A job without a witness donates
//!   nothing.
//! * **Dynamic graphs** — [`MinCutService::register_dynamic`] hosts a
//!   mutating graph behind a [`DynamicMinCut`] maintainer, the only copy
//!   of that graph's λ, witness and cactus. Updates and queries lock the
//!   handle's maintainer and answer from it; they touch no cache, so no
//!   handle can be served another handle's state.
//! * **Budgets and policies** — an optional per-batch wall-clock budget
//!   clamps every job's [`SolveOptions::time_budget`] to the remaining
//!   batch time; [`ErrorPolicy::FailFast`] skips the rest of a batch
//!   after the first failure, [`ErrorPolicy::Continue`] reports per-job
//!   outcomes independently.
//!
//! ```
//! use std::sync::Arc;
//! use mincut_core::{BatchJob, MinCutService, ServiceConfig, SolveOptions};
//! use mincut_graph::CsrGraph;
//!
//! let g = Arc::new(CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)]));
//! // One worker makes the cache-hit count deterministic for this doc
//! // test; concurrent identical jobs may race the first insertion.
//! let service = MinCutService::new(ServiceConfig::new().concurrency(1));
//! let jobs = vec![
//!     BatchJob::new(g.clone(), "noi-viecut"),
//!     BatchJob::new(g.clone(), "stoer-wagner"),
//!     BatchJob::new(g.clone(), "noi-viecut"), // repeat: served from cache
//! ];
//! let report = service.run_batch(&jobs);
//! assert!(report.all_ok());
//! assert_eq!(report.stats.cache_hits, 1);
//! for job in &report.jobs {
//!     assert_eq!(job.status.outcome().unwrap().cut.value, 2);
//! }
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mincut_ds::hash::FxHashMap;
use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, NodeId};

use crate::cactus::Cactus;
use crate::dynamic::{DynamicMinCut, DynamicStats, TraceOp, UpdateReport};
use crate::error::MinCutError;
use crate::options::SolveOptions;
use crate::reduce::{ReduceOutcome, ReductionPipeline};
use crate::solver::SolveOutcome;
use crate::stats::{SolveContext, SolverStats};
use crate::{MinCutResult, SolverRegistry};

/// One unit of work for [`MinCutService::run_batch`]: a graph, a solver
/// name (any registry spelling) and the options to run it under.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// The instance; `Arc` so sweeps over one graph share storage.
    pub graph: Arc<CsrGraph>,
    /// Registry spelling: canonical (`NOIλ̂-VieCut`), alias
    /// (`noi-viecut`) or queue-pinned (`noi-bstack-viecut`).
    pub solver: String,
    pub opts: SolveOptions,
    /// Caller-chosen display name carried into the [`JobReport`]
    /// (defaults to the job index).
    pub label: Option<String>,
}

impl BatchJob {
    pub fn new(graph: impl Into<Arc<CsrGraph>>, solver: impl Into<String>) -> Self {
        BatchJob {
            graph: graph.into(),
            solver: solver.into(),
            opts: SolveOptions::default(),
            label: None,
        }
    }

    /// Replaces the job options (builder-style).
    pub fn options(mut self, opts: SolveOptions) -> Self {
        self.opts = opts;
        self
    }

    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// What a batch does after a job fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Every job runs; failures are reported per job.
    #[default]
    Continue,
    /// Jobs not yet started when a failure lands are skipped.
    FailFast,
}

/// Tuning knobs of a [`MinCutService`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads pulling jobs from the batch queue; 0 means all
    /// available cores. Each job's solve runs its parallel layers at its
    /// own [`SolveOptions::threads`].
    pub concurrency: usize,
    pub error_policy: ErrorPolicy,
    /// Wall-clock budget for a whole batch. Running jobs have their
    /// per-job budgets clamped to the remaining batch time; jobs that
    /// start after it expires are skipped.
    pub batch_budget: Option<Duration>,
    /// Entry cap for each of the cut and kernel caches, exact:
    /// once a cache holds this many entries, new results are no longer
    /// memoised there (existing entries keep serving) so a long-lived
    /// service fed a stream of distinct graphs cannot grow without
    /// bound. Dynamic handles read neither cache: they answer from their
    /// maintainers.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            concurrency: 0,
            error_policy: ErrorPolicy::Continue,
            batch_budget: None,
            cache_capacity: 1 << 16,
        }
    }
}

impl ServiceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn concurrency(mut self, workers: usize) -> Self {
        self.concurrency = workers;
        self
    }

    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.error_policy = policy;
        self
    }

    pub fn batch_budget(mut self, budget: Duration) -> Self {
        self.batch_budget = Some(budget);
        self
    }

    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }
}

/// Terminal state of one batch job.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// Ran the solver; fresh result.
    Solved(SolveOutcome),
    /// Served from the cut cache without running a solver.
    Cached(SolveOutcome),
    Failed(MinCutError),
    /// Never ran: fail-fast after an earlier failure, or the batch
    /// budget expired before the job started.
    Skipped {
        reason: String,
    },
}

impl JobStatus {
    /// The outcome, if the job produced one (fresh or cached).
    pub fn outcome(&self) -> Option<&SolveOutcome> {
        match self {
            JobStatus::Solved(o) | JobStatus::Cached(o) => Some(o),
            _ => None,
        }
    }

    pub fn is_ok(&self) -> bool {
        self.outcome().is_some()
    }

    pub fn from_cache(&self) -> bool {
        matches!(self, JobStatus::Cached(_))
    }
}

/// Per-job row of a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Index into the submitted batch (reports keep submission order).
    pub index: usize,
    /// [`BatchJob::label`], or the index rendered as text.
    pub label: String,
    /// Resolved instance name (e.g. `NOIλ̂-BQueue-VieCut`), or the
    /// requested spelling when resolution itself failed.
    pub solver: String,
    pub status: JobStatus,
    /// Wall-clock spent on this job inside the service (≈0 for cache
    /// hits and skips).
    pub seconds: f64,
}

/// Aggregate counters for one batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchStats {
    pub jobs: usize,
    /// Jobs solved by running a solver.
    pub solved: usize,
    /// Jobs served from the cut cache.
    pub cache_hits: usize,
    pub failed: usize,
    pub skipped: usize,
    /// Jobs that started with a bound donated by an earlier job.
    pub bound_reuses: usize,
    /// Jobs served a precomputed kernel from the kernel cache (same
    /// graph fingerprint and reduction configuration: the batch
    /// kernelized that graph exactly once).
    pub kernel_reuses: usize,
    /// Worker threads the batch ran on.
    pub concurrency: usize,
    /// End-to-end wall-clock of the batch.
    pub wall_seconds: f64,
    /// Sum of per-job solve times (> `wall_seconds` when batching wins).
    pub solver_seconds: f64,
}

impl BatchStats {
    /// Serialises the report as a single JSON object (the offline build
    /// has no JSON crate, mirroring [`SolverStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"jobs\":{},\"solved\":{},\"cache_hits\":{},\"failed\":{},\"skipped\":{},\
             \"bound_reuses\":{},\"kernel_reuses\":{},\"concurrency\":{},\
             \"wall_seconds\":{:.9},\"solver_seconds\":{:.9}}}",
            self.jobs,
            self.solved,
            self.cache_hits,
            self.failed,
            self.skipped,
            self.bound_reuses,
            self.kernel_reuses,
            self.concurrency,
            self.wall_seconds,
            self.solver_seconds
        )
    }
}

/// Everything [`MinCutService::run_batch`] returns: per-job rows in
/// submission order plus the aggregate counters.
#[derive(Clone, Debug)]
pub struct BatchReport {
    pub jobs: Vec<JobReport>,
    pub stats: BatchStats,
}

impl BatchReport {
    /// Whether every job produced an outcome (none failed or skipped).
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.status.is_ok())
    }
}

/// Cumulative cut-cache counters (lifetime of the service).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub entries: usize,
}

/// The memoised result of one (graph, solver configuration) pair.
///
/// The stored fingerprint/config reject collisions of the *derived*
/// 64-bit map key; `n`/`m` additionally guard against a collision of the
/// fingerprint itself (FNV-1a is not cryptographic — two distinct graphs
/// of equal size colliding is astronomically unlikely for benign inputs
/// but cheap to narrow further).
#[derive(Clone)]
struct CacheEntry {
    fingerprint: u64,
    config: String,
    n: usize,
    m: usize,
    value: EdgeWeight,
    side: Option<Vec<bool>>,
}

/// One locked table on `u64` keys: a cache (keyed by a folded
/// fingerprint/config hash), a batch's shared bounds (keyed by graph
/// fingerprint) or the hosted dynamic handles.
type Table<V> = Mutex<FxHashMap<u64, V>>;

/// Locks a table. Nothing but one map operation on `u64` keys ever runs
/// under the lock, which leaves the table valid even if it unwinds, so a
/// poisoned lock is taken over instead of failing every later request.
fn locked<V>(table: &Table<V>) -> MutexGuard<'_, FxHashMap<u64, V>> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Inserts `value` unless `table` already holds `capacity` entries, and
/// reports whether it did. The length check and the insert share one
/// lock, so concurrent inserts cannot overshoot the cap.
fn insert_capped<V>(table: &Table<V>, key: u64, value: V, capacity: usize) -> bool {
    let mut map = locked(table);
    let room = map.len() < capacity;
    if room {
        map.insert(key, value);
    }
    room
}

struct CutCache {
    map: Table<CacheEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

impl CutCache {
    fn new() -> Self {
        CutCache {
            map: Table::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn key(fingerprint: u64, config: &str) -> u64 {
        // FNV-1a over the config string, folded into the fingerprint.
        mincut_ds::hash::fnv1a_bytes(
            fingerprint ^ mincut_ds::hash::FNV1A_OFFSET,
            config.as_bytes(),
        )
    }

    fn lookup(
        &self,
        fingerprint: u64,
        config: &str,
        n: usize,
        m: usize,
    ) -> Option<(EdgeWeight, Option<Vec<bool>>)> {
        let entry = locked(&self.map)
            .get(&Self::key(fingerprint, config))
            .cloned();
        let found = entry
            .filter(|e| e.fingerprint == fingerprint && e.config == config && e.n == n && e.m == m)
            .map(|e| (e.value, e.side));
        match found {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                mincut_obs::metrics().counter("service.cache.hits").inc();
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                mincut_obs::metrics().counter("service.cache.misses").inc();
                None
            }
        }
    }

    fn insert(
        &self,
        fingerprint: u64,
        config: &str,
        (n, m): (usize, usize),
        value: EdgeWeight,
        side: Option<Vec<bool>>,
        capacity: usize,
    ) {
        let entry = CacheEntry {
            fingerprint,
            config: config.to_string(),
            n,
            m,
            value,
            side,
        };
        if insert_capped(&self.map, Self::key(fingerprint, config), entry, capacity) {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: locked(&self.map).len(),
        }
    }
}

/// Mutable state shared by the workers of one running batch.
struct BatchState<'a> {
    jobs: &'a [BatchJob],
    next: AtomicUsize,
    results: Vec<Mutex<Option<JobReport>>>,
    failed: AtomicBool,
    bound_reuses: AtomicUsize,
    kernel_reuses: AtomicUsize,
    /// Graph fingerprint → the best witnessed cut a job of the batch
    /// found on that graph: its value and side.
    bounds: Table<(EdgeWeight, Arc<Vec<bool>>)>,
    deadline: Option<Instant>,
}

/// Opaque identifier of a dynamic graph hosted by a [`MinCutService`]
/// (see [`MinCutService::register_dynamic`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DynamicHandle(u64);

fn unknown_handle(handle: DynamicHandle) -> MinCutError {
    MinCutError::InvalidUpdate {
        message: format!("unknown dynamic handle {:?}", handle),
    }
}

/// The batch serving layer: see the [module docs](self).
pub struct MinCutService {
    config: ServiceConfig,
    cache: CutCache,
    /// Kernelized-graph cache: fingerprint (+ reduction configuration) →
    /// the shared [`ReduceOutcome`], so batch jobs on the same graph
    /// kernelize once. Persists across batches, like the cut cache.
    kernels: Table<Arc<ReduceOutcome>>,
    /// Hosted dynamic graphs ([`MinCutService::register_dynamic`]), each
    /// maintainer behind its own lock.
    dynamic: Table<Arc<Mutex<DynamicMinCut>>>,
    next_dynamic: AtomicU64,
}

impl Default for MinCutService {
    fn default() -> Self {
        MinCutService::new(ServiceConfig::default())
    }
}

impl MinCutService {
    pub fn new(config: ServiceConfig) -> Self {
        MinCutService {
            config,
            cache: CutCache::new(),
            kernels: Table::default(),
            dynamic: Table::default(),
            next_dynamic: AtomicU64::new(0),
        }
    }

    /// Cumulative cache counters since the service was created.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // -----------------------------------------------------------------
    // Dynamic graphs: each handle answers from its own DynamicMinCut.
    // -----------------------------------------------------------------

    /// Hosts a mutable graph: runs the initial solve and returns a
    /// handle for [`MinCutService::dynamic_update`] /
    /// [`MinCutService::dynamic_lambda`]. The handle's
    /// [`DynamicMinCut`] is the only copy of its graph's λ and witness,
    /// so every read reflects the handle's own updates and nothing else.
    /// Like [`DynamicMinCut::new`], it refuses an inexact solver.
    pub fn register_dynamic(
        &self,
        graph: impl Into<DeltaGraph>,
        solver: &str,
        opts: SolveOptions,
    ) -> Result<DynamicHandle, MinCutError> {
        Ok(self.host(DynamicMinCut::new(graph, solver, opts)?))
    }

    /// Like [`MinCutService::register_dynamic`], but the maintainer
    /// also keeps the cactus of *all* minimum cuts current across
    /// mutations ([`DynamicMinCut::enable_cactus`]); serve it with
    /// [`MinCutService::dynamic_cactus`].
    pub fn register_dynamic_with_cactus(
        &self,
        graph: impl Into<DeltaGraph>,
        solver: &str,
        opts: SolveOptions,
    ) -> Result<DynamicHandle, MinCutError> {
        let mut maintainer = DynamicMinCut::new(graph, solver, opts)?;
        maintainer.enable_cactus()?;
        Ok(self.host(maintainer))
    }

    fn host(&self, maintainer: DynamicMinCut) -> DynamicHandle {
        let id = self.next_dynamic.fetch_add(1, Ordering::Relaxed);
        locked(&self.dynamic).insert(id, Arc::new(Mutex::new(maintainer)));
        DynamicHandle(id)
    }

    /// Applies one trace operation to a hosted dynamic graph
    /// ([`DynamicMinCut::apply`]). A failed re-solve poisons the
    /// maintainer, and every later read surfaces that instead of a
    /// stale λ — recover with [`MinCutService::dynamic_rebuild`].
    pub fn dynamic_update(
        &self,
        handle: DynamicHandle,
        op: &TraceOp,
    ) -> Result<UpdateReport, MinCutError> {
        self.maintainer(handle)?.lock().unwrap().apply(op)
    }

    /// Recovers a hosted maintainer that a failed re-solve poisoned:
    /// re-solves from the current [`DeltaGraph`] state
    /// ([`DynamicMinCut::rebuild`]), clearing the poison. Safe to call
    /// on a healthy maintainer (it is just a from-scratch solve).
    pub fn dynamic_rebuild(&self, handle: DynamicHandle) -> Result<UpdateReport, MinCutError> {
        self.maintainer(handle)?.lock().unwrap().rebuild()
    }

    /// Serves the current λ of a hosted dynamic graph and the graph
    /// epoch it describes.
    pub fn dynamic_lambda(&self, handle: DynamicHandle) -> Result<(EdgeWeight, u64), MinCutError> {
        let maintainer = self.maintainer(handle)?;
        let maintainer = maintainer.lock().unwrap();
        maintainer.check_consistent()?;
        Ok((maintainer.lambda(), maintainer.epoch()))
    }

    /// Serves the cactus of all minimum cuts of a hosted dynamic graph
    /// and the graph epoch it describes. The cactus is shared with the
    /// maintainer, not copied: a later mutation installs a new cactus
    /// and leaves the returned one describing this epoch. The handle
    /// must have been registered with
    /// [`MinCutService::register_dynamic_with_cactus`] — without
    /// maintenance this is [`MinCutError::CactusUnavailable`].
    pub fn dynamic_cactus(&self, handle: DynamicHandle) -> Result<(Arc<Cactus>, u64), MinCutError> {
        let maintainer = self.maintainer(handle)?;
        let maintainer = maintainer.lock().unwrap();
        maintainer.check_consistent()?;
        let cactus = maintainer
            .cactus()
            .ok_or_else(|| MinCutError::CactusUnavailable {
                message: "register the graph with register_dynamic_with_cactus".to_string(),
            })?;
        Ok((Arc::clone(cactus), maintainer.epoch()))
    }

    /// Batch separating queries answered from *one* cactus fetch: for
    /// each pair `(u, v)` the side of some minimum cut separating them,
    /// or `None` when no minimum cut does (same cactus node).
    pub fn min_cuts_separating_many(
        &self,
        handle: DynamicHandle,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<Vec<bool>>>, MinCutError> {
        let (cactus, _) = self.dynamic_cactus(handle)?;
        pairs
            .iter()
            .map(|&(u, v)| {
                let n = cactus.n();
                if (u as usize) >= n || (v as usize) >= n {
                    return Err(MinCutError::InvalidUpdate {
                        message: format!("separating query ({u}, {v}) out of range for n = {n}"),
                    });
                }
                Ok(cactus.min_cut_separating(u, v))
            })
            .collect()
    }

    /// Lifetime counters of a hosted dynamic graph.
    pub fn dynamic_stats(&self, handle: DynamicHandle) -> Result<DynamicStats, MinCutError> {
        let stats = self.maintainer(handle)?.lock().unwrap().stats().clone();
        Ok(stats)
    }

    /// Drops a hosted dynamic graph, and with it the only copy of its
    /// state, returning its final counters.
    pub fn unregister_dynamic(&self, handle: DynamicHandle) -> Result<DynamicStats, MinCutError> {
        let maintainer = locked(&self.dynamic)
            .remove(&handle.0)
            .ok_or_else(|| unknown_handle(handle))?;
        let stats = maintainer.lock().unwrap().stats().clone();
        Ok(stats)
    }

    fn maintainer(&self, handle: DynamicHandle) -> Result<Arc<Mutex<DynamicMinCut>>, MinCutError> {
        locked(&self.dynamic)
            .get(&handle.0)
            .cloned()
            .ok_or_else(|| unknown_handle(handle))
    }

    /// Runs a batch of jobs and reports per-job outcomes (in submission
    /// order) plus aggregate [`BatchStats`].
    pub fn run_batch(&self, jobs: &[BatchJob]) -> BatchReport {
        let t0 = Instant::now();
        let workers = match self.config.concurrency {
            0 => mincut_ds::par::hardware_threads(),
            w => w,
        }
        .min(jobs.len().max(1));
        let mut batch_span = mincut_obs::span("service/batch");
        batch_span.arg("jobs", jobs.len());
        batch_span.arg("workers", workers);

        let state = BatchState {
            jobs,
            next: AtomicUsize::new(0),
            results: (0..jobs.len()).map(|_| Mutex::new(None)).collect(),
            failed: AtomicBool::new(false),
            bound_reuses: AtomicUsize::new(0),
            kernel_reuses: AtomicUsize::new(0),
            bounds: Table::default(),
            deadline: self.config.batch_budget.map(|b| t0 + b),
        };

        mincut_ds::par::map_each(&mut vec![(); workers], |_, _| self.work(&state));

        let mut reports = Vec::with_capacity(jobs.len());
        for slot in &state.results {
            reports.push(slot.lock().unwrap().take().expect("every job reported"));
        }
        let mut stats = BatchStats {
            jobs: jobs.len(),
            concurrency: workers,
            bound_reuses: state.bound_reuses.load(Ordering::Relaxed),
            kernel_reuses: state.kernel_reuses.load(Ordering::Relaxed),
            wall_seconds: t0.elapsed().as_secs_f64(),
            ..Default::default()
        };
        for r in &reports {
            stats.solver_seconds += r.seconds;
            match &r.status {
                JobStatus::Solved(_) => stats.solved += 1,
                JobStatus::Cached(_) => stats.cache_hits += 1,
                JobStatus::Failed(_) => stats.failed += 1,
                JobStatus::Skipped { .. } => stats.skipped += 1,
            }
        }
        let m = mincut_obs::metrics();
        m.counter("service.batch.runs").inc();
        m.counter("service.batch.jobs").add(stats.jobs as u64);
        m.counter("service.batch.solved").add(stats.solved as u64);
        m.counter("service.batch.failed").add(stats.failed as u64);
        m.counter("service.batch.skipped").add(stats.skipped as u64);
        batch_span.arg("solved", stats.solved);
        batch_span.arg("failed", stats.failed);
        BatchReport {
            jobs: reports,
            stats,
        }
    }

    /// Worker loop: pull the next unclaimed job index until the queue is
    /// drained.
    fn work(&self, state: &BatchState<'_>) {
        loop {
            let i = state.next.fetch_add(1, Ordering::Relaxed);
            if i >= state.jobs.len() {
                return;
            }
            let mut job_span = mincut_obs::span("service/job");
            job_span.arg("index", i);
            let report = self.execute(i, &state.jobs[i], state);
            job_span.arg_display("solver", &report.solver);
            drop(job_span);
            mincut_obs::metrics()
                .histogram("service.job.micros")
                .record((report.seconds * 1e6) as u64);
            if let JobStatus::Failed(e) = &report.status {
                state.failed.store(true, Ordering::Relaxed);
                mincut_obs::flight().record(
                    "service",
                    format!("batch job {} ({}) failed: {e}", report.index, report.label),
                );
            }
            *state.results[i].lock().unwrap() = Some(report);
        }
    }

    fn execute(&self, index: usize, job: &BatchJob, state: &BatchState<'_>) -> JobReport {
        let t0 = Instant::now();
        let label = job.label.clone().unwrap_or_else(|| format!("job-{index}"));
        let report = |solver: String, status: JobStatus, t0: Instant| JobReport {
            index,
            label: label.clone(),
            solver,
            status,
            seconds: t0.elapsed().as_secs_f64(),
        };

        if self.config.error_policy == ErrorPolicy::FailFast && state.failed.load(Ordering::Relaxed)
        {
            return report(
                job.solver.clone(),
                JobStatus::Skipped {
                    reason: "fail-fast: an earlier job in the batch failed".into(),
                },
                t0,
            );
        }

        // Clamp the job budget to the remaining batch budget.
        let mut opts = job.opts.clone();
        if let Some(deadline) = state.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return report(
                    job.solver.clone(),
                    JobStatus::Skipped {
                        reason: "batch time budget exhausted".into(),
                    },
                    t0,
                );
            }
            opts.time_budget = Some(opts.time_budget.map_or(remaining, |b| b.min(remaining)));
        }

        let solver = match SolverRegistry::global().resolve(&job.solver) {
            Ok(s) => s,
            Err(e) => return report(job.solver.clone(), JobStatus::Failed(e), t0),
        };
        let instance = solver.instance_name(&opts);
        let g = job.graph.as_ref();

        let fingerprint = g.fingerprint();
        // The cache key is the resolved instance name (which encodes the
        // queue and ParCut's thread count) plus the fields that can
        // change the result independently of the name.
        let config_key = format!(
            "{instance}|seed={}|witness={}|red={}",
            opts.seed, opts.witness, opts.reductions
        );

        if let Some((value, side)) = self.cache.lookup(fingerprint, &config_key, g.n(), g.m()) {
            self.offer_bound(state, fingerprint, value, side.clone());
            let mut stats = SolverStats::new(instance.clone(), g.n(), g.m());
            stats.record_lambda(value);
            stats.total_seconds = t0.elapsed().as_secs_f64();
            let cut = MinCutResult {
                value,
                side: if opts.witness { side } else { None },
            };
            return report(instance, JobStatus::Cached(SolveOutcome { cut, stats }), t0);
        }

        // Only the NOI family reads `initial_bound`; donating a bound to
        // anyone else would cost an O(m) re-cost and inflate the
        // bound-reuse telemetry without affecting the solve.
        if solver.capabilities().uses_initial_bound {
            self.adopt_bound(state, fingerprint, g, &mut opts);
        }

        // Kernelized-graph reuse: jobs with reductions on that share a
        // graph kernelize once; the shared `ReduceOutcome` fans out
        // through `solve_with_kernel`.
        let mut kernel_reused = false;
        let kernel: Option<Arc<ReduceOutcome>> = if g.n() >= 2 && opts.reductions {
            match self.kernel_for(fingerprint, g, &opts) {
                Ok((k, reused)) => {
                    if reused {
                        kernel_reused = true;
                        state.kernel_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(k)
                }
                Err(e) => return report(instance, JobStatus::Failed(e), t0),
            }
        } else {
            None
        };

        let solved = match &kernel {
            Some(k) => solver.solve_with_kernel(g, &opts, k).map(|mut outcome| {
                if kernel_reused {
                    // The donor job already accounts for the pipeline's
                    // wall time; zero it here so per-pass seconds summed
                    // over the batch count the one run exactly once.
                    for pass in &mut outcome.stats.reductions {
                        pass.seconds = 0.0;
                    }
                }
                outcome
            }),
            None => solver.solve(g, &opts),
        };
        match solved {
            Ok(outcome) => {
                self.cache.insert(
                    fingerprint,
                    &config_key,
                    (g.n(), g.m()),
                    outcome.cut.value,
                    outcome.cut.side.clone(),
                    self.config.cache_capacity,
                );
                self.offer_bound(
                    state,
                    fingerprint,
                    outcome.cut.value,
                    outcome.cut.side.clone(),
                );
                report(instance, JobStatus::Solved(outcome), t0)
            }
            Err(e) => report(instance, JobStatus::Failed(e), t0),
        }
    }

    /// Returns the shared kernel for `fingerprint`, running the pipeline
    /// on a miss. The boolean reports whether the kernel was served from
    /// the cache (a "kernelize once" reuse). Connected inputs only do
    /// useful work here, but any n ≥ 2 graph is safe.
    fn kernel_for(
        &self,
        fingerprint: u64,
        g: &CsrGraph,
        opts: &SolveOptions,
    ) -> Result<(Arc<ReduceOutcome>, bool), MinCutError> {
        let cached = locked(&self.kernels).get(&fingerprint).cloned();
        if let Some(k) = cached {
            // The n/m check guards against a fingerprint collision; the
            // pipeline is deterministic, so an entry that matches is
            // exactly what this job would compute.
            if (k.original_n, k.original_m) == (g.n(), g.m()) {
                return Ok((k, true));
            }
        }
        let mut scratch = SolverStats::default();
        let mut ctx = SolveContext::for_options(&mut scratch, opts);
        let red = Arc::new(ReductionPipeline::standard().run(g, None, &mut ctx)?);
        insert_capped(
            &self.kernels,
            fingerprint,
            red.clone(),
            self.config.cache_capacity,
        );
        Ok((red, false))
    }

    /// Publishes a finished cut as the batch's bound for the graph with
    /// `fingerprint` if it beats the best so far. A sideless cut could
    /// not be re-costed by a receiving job, so it is not shared.
    fn offer_bound(
        &self,
        state: &BatchState<'_>,
        fingerprint: u64,
        value: EdgeWeight,
        side: Option<Vec<bool>>,
    ) {
        let Some(side) = side.map(Arc::new) else {
            return;
        };
        let mut bounds = locked(&state.bounds);
        if bounds
            .get(&fingerprint)
            .is_none_or(|(best, _)| value < *best)
        {
            bounds.insert(fingerprint, (value, side));
        }
    }

    /// Seeds `opts.initial_bound` with the batch's best cut on this job's
    /// fingerprint, its side re-costed on this job's graph: the bound is
    /// then the value of an actual cut of the graph being solved, even
    /// under a fingerprint collision.
    fn adopt_bound(
        &self,
        state: &BatchState<'_>,
        fingerprint: u64,
        g: &CsrGraph,
        opts: &mut SolveOptions,
    ) {
        let Some((_, side)) = locked(&state.bounds).get(&fingerprint).cloned() else {
            return;
        };
        if !g.is_proper_cut(&side) {
            return;
        }
        let value = g.cut_value(&side);
        if opts
            .initial_bound
            .as_ref()
            .is_none_or(|(existing, _)| value < *existing)
        {
            opts.initial_bound = Some((value, Some(side.to_vec())));
            state.bound_reuses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    fn graphs() -> Vec<(Arc<CsrGraph>, EdgeWeight)> {
        vec![
            {
                let (g, l) = known::two_communities(8, 9, 2, 2, 1);
                (Arc::new(g), l)
            },
            {
                let (g, l) = known::ring_of_cliques(5, 5, 2, 1);
                (Arc::new(g), l)
            },
            {
                let (g, l) = known::cycle_graph(9, 3);
                (Arc::new(g), l)
            },
        ]
    }

    #[test]
    fn batch_matches_serial_session_loop() {
        for concurrency in [1, 4] {
            let service = MinCutService::new(ServiceConfig::new().concurrency(concurrency));
            let jobs: Vec<BatchJob> = graphs()
                .into_iter()
                .flat_map(|(g, _)| {
                    ["noi-viecut", "stoer-wagner", "parcut"]
                        .into_iter()
                        .map(move |s| {
                            BatchJob::new(g.clone(), s)
                                .options(SolveOptions::new().seed(3).threads(2))
                        })
                })
                .collect();
            let report = service.run_batch(&jobs);
            assert!(report.all_ok());
            assert_eq!(report.stats.jobs, jobs.len());
            for (job, row) in jobs.iter().zip(&report.jobs) {
                let serial = crate::Session::new(&job.graph)
                    .options(job.opts.clone())
                    .run(&job.solver)
                    .unwrap();
                assert_eq!(
                    row.status.outcome().unwrap().cut.value,
                    serial.cut.value,
                    "{}",
                    row.solver
                );
            }
        }
    }

    #[test]
    fn repeat_submissions_hit_the_cache() {
        // One worker: identical jobs running concurrently could all miss
        // the not-yet-filled cache, making hit counts nondeterministic.
        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, l) = known::two_communities(8, 8, 2, 2, 1);
        let jobs = vec![BatchJob::new(g, "noi-viecut"); 3];
        let first = service.run_batch(&jobs);
        assert_eq!(first.stats.solved, 1);
        assert_eq!(first.stats.cache_hits, 2, "in-batch repeats are served");
        let second = service.run_batch(&jobs);
        assert_eq!(second.stats.solved, 0);
        assert_eq!(second.stats.cache_hits, 3, "cross-batch repeats are served");
        for row in first.jobs.iter().chain(&second.jobs) {
            let o = row.status.outcome().unwrap();
            assert_eq!(o.cut.value, l);
            assert!(o.cut.verify(&jobs[0].graph), "{}", row.label);
        }
        let cs = service.cache_stats();
        assert_eq!(cs.hits, 5);
        assert_eq!(cs.insertions, 1);
        assert_eq!(cs.entries, 1);
    }

    #[test]
    fn cache_distinguishes_configurations_and_graphs() {
        let service = MinCutService::default();
        let (a, _) = known::cycle_graph(8, 2);
        let (b, _) = known::cycle_graph(9, 2);
        let a = Arc::new(a);
        let jobs = vec![
            BatchJob::new(a.clone(), "noi-viecut"),
            BatchJob::new(a.clone(), "stoer-wagner"),
            BatchJob::new(a.clone(), "noi-viecut").options(SolveOptions::new().seed(9)),
            BatchJob::new(b, "noi-viecut"),
        ];
        let report = service.run_batch(&jobs);
        assert!(report.all_ok());
        assert_eq!(report.stats.cache_hits, 0, "four distinct cache keys");
        assert_eq!(service.cache_stats().entries, 4);
    }

    #[test]
    fn same_graph_jobs_kernelize_once() {
        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, l) = known::two_communities(10, 10, 2, 2, 1);
        let g = Arc::new(g);
        // Distinct solvers: no cut-cache hits possible, but the kernel is
        // shared — only the first job runs the reduction pipeline.
        let jobs = vec![
            BatchJob::new(g.clone(), "noi"),
            BatchJob::new(g.clone(), "stoer-wagner"),
            BatchJob::new(g.clone(), "parcut"),
        ];
        let report = service.run_batch(&jobs);
        assert!(report.all_ok());
        assert_eq!(report.stats.cache_hits, 0);
        assert_eq!(
            report.stats.kernel_reuses, 2,
            "first job kernelizes, the other two reuse"
        );
        for row in &report.jobs {
            let o = row.status.outcome().unwrap();
            assert_eq!(o.cut.value, l, "{}", row.solver);
            assert!(
                o.stats.kernel_n < g.n(),
                "{}: kernel telemetry must flow through solve_with_kernel",
                row.solver
            );
        }
        // Resubmission is served by the cut cache before the kernel cache.
        let again = service.run_batch(&jobs);
        assert_eq!(again.stats.cache_hits, 3);
        assert_eq!(again.stats.kernel_reuses, 0);
        assert!(again.stats.to_json().contains("\"kernel_reuses\":0"));
    }

    #[test]
    fn same_graph_jobs_share_bounds() {
        let (g, l) = known::two_communities(10, 10, 2, 2, 1);
        let g = Arc::new(g);
        // Witness on, each job donates its cut's side to the later jobs on
        // the graph; witness off, no job has a side to donate.
        for witness in [true, false] {
            let service = MinCutService::new(ServiceConfig::new().concurrency(1));
            let jobs: Vec<BatchJob> = ["stoer-wagner", "noi", "noi-heap"]
                .into_iter()
                .map(|s| BatchJob::new(g.clone(), s).options(SolveOptions::new().witness(witness)))
                .collect();
            let report = service.run_batch(&jobs);
            assert!(report.all_ok());
            if witness {
                assert!(
                    report.stats.bound_reuses >= 1,
                    "later same-graph jobs must adopt the first job's cut"
                );
            } else {
                assert_eq!(
                    report.stats.bound_reuses, 0,
                    "unwitnessed cuts are not shared"
                );
            }
            for row in &report.jobs {
                assert_eq!(
                    row.status.outcome().unwrap().cut.value,
                    l,
                    "witness {witness}"
                );
            }
        }
    }

    #[test]
    fn fail_fast_skips_the_rest_and_continue_does_not() {
        let (good, _) = known::cycle_graph(6, 1);
        let good = Arc::new(good);
        let bad = Arc::new(CsrGraph::from_edges(1, &[]));
        let mk_jobs = || {
            vec![
                BatchJob::new(bad.clone(), "noi"),
                BatchJob::new(good.clone(), "noi"),
                BatchJob::new(good.clone(), "stoer-wagner"),
            ]
        };

        let ff = MinCutService::new(
            ServiceConfig::new()
                .concurrency(1)
                .error_policy(ErrorPolicy::FailFast),
        );
        let report = ff.run_batch(&mk_jobs());
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.skipped, 2);
        assert!(matches!(
            report.jobs[0].status,
            JobStatus::Failed(MinCutError::TooFewVertices { n: 1 })
        ));

        let cont = MinCutService::new(ServiceConfig::new().concurrency(1));
        let report = cont.run_batch(&mk_jobs());
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.skipped, 0);
        assert_eq!(report.stats.solved, 2);
    }

    #[test]
    fn exhausted_batch_budget_skips_unstarted_jobs() {
        let service = MinCutService::new(
            ServiceConfig::new()
                .concurrency(1)
                .batch_budget(Duration::ZERO),
        );
        let (g, _) = known::cycle_graph(6, 1);
        let report = service.run_batch(&[BatchJob::new(g, "noi")]);
        assert_eq!(report.stats.skipped, 1);
        assert!(matches!(
            &report.jobs[0].status,
            JobStatus::Skipped { reason } if reason.contains("budget")
        ));
    }

    #[test]
    fn cache_capacity_bounds_memoisation() {
        let service = MinCutService::new(ServiceConfig::new().concurrency(1).cache_capacity(2));
        let jobs: Vec<BatchJob> = (4..9)
            .map(|n| BatchJob::new(known::cycle_graph(n, 1).0, "stoer-wagner"))
            .collect();
        let report = service.run_batch(&jobs);
        assert!(report.all_ok());
        let cs = service.cache_stats();
        assert_eq!(cs.entries, 2, "cap reached: later results not memoised");
        // The two memoised graphs still serve; the rest re-solve.
        let again = service.run_batch(&jobs);
        assert_eq!(again.stats.cache_hits, 2);
        assert_eq!(again.stats.solved, 3);

        // Concurrent workers: each table checks its length and inserts
        // under one lock, so the cap holds exactly.
        let service = MinCutService::new(ServiceConfig::new().concurrency(4).cache_capacity(2));
        let jobs: Vec<BatchJob> = (4..12)
            .map(|n| BatchJob::new(known::cycle_graph(n, 1).0, "stoer-wagner"))
            .collect();
        assert!(service.run_batch(&jobs).all_ok());
        let cs = service.cache_stats();
        assert_eq!((cs.entries, cs.insertions), (2, 2));
        assert_eq!(locked(&service.kernels).len(), 2);
    }

    #[test]
    fn dynamic_graphs_are_served_from_their_maintainers() {
        use crate::dynamic::TraceOp;

        // Every read answers from the maintainer, and no dynamic op
        // touches the batch caches.
        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, l) = known::two_communities(6, 6, 1, 2, 1); // bridge (0,6), λ = 1
        let h = service
            .register_dynamic_with_cactus(g, "noi-viecut", SolveOptions::new().seed(1))
            .unwrap();
        let served = |lambda, epoch| {
            assert_eq!(service.dynamic_lambda(h).unwrap(), (lambda, epoch));
            let (c, at) = service.dynamic_cactus(h).unwrap();
            assert_eq!((c.lambda(), c.count_min_cuts(), at), (lambda, 1, epoch));
        };
        served(l, 0);

        // A second bridge: epoch 1, λ = 2.
        let r = service
            .dynamic_update(h, &TraceOp::Insert { u: 1, v: 7, w: 1 })
            .unwrap();
        assert_eq!((r.lambda, r.epoch), (2, 1));
        served(2, 1);

        // Queries do not advance the epoch.
        let r = service.dynamic_update(h, &TraceOp::Query).unwrap();
        assert_eq!((r.lambda, r.epoch, r.resolved), (2, 1, false));
        served(2, 1);

        // Crossing deletion: epoch 2, λ back to 1, no solver run.
        let r = service
            .dynamic_update(h, &TraceOp::Delete { u: 0, v: 6 })
            .unwrap();
        assert_eq!((r.lambda, r.resolved), (1, false));
        served(1, 2);
        assert_eq!(service.cache_stats(), CacheStats::default());

        let stats = service.dynamic_stats(h).unwrap();
        assert_eq!(
            (stats.insertions, stats.deletions, stats.queries),
            (1, 1, 1)
        );

        let final_stats = service.unregister_dynamic(h).unwrap();
        assert_eq!(final_stats, stats);
        assert!(matches!(
            service.dynamic_lambda(h),
            Err(MinCutError::InvalidUpdate { .. })
        ));
        assert!(matches!(
            service.unregister_dynamic(h),
            Err(MinCutError::InvalidUpdate { .. })
        ));
    }

    #[test]
    fn handles_on_one_graph_serve_their_own_state() {
        use crate::dynamic::TraceOp;

        // Two handles on one graph and configuration, mutated differently
        // to the same epoch, n and m: each serves its own λ.
        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, _) = known::two_communities(6, 6, 1, 2, 1); // bridge (0,6), λ = 1
        let opts = SolveOptions::new().seed(1);
        let a = service
            .register_dynamic(g.clone(), "noi-viecut", opts.clone())
            .unwrap();
        let b = service.register_dynamic(g, "noi-viecut", opts).unwrap();
        service
            .dynamic_update(a, &TraceOp::Insert { u: 1, v: 7, w: 1 })
            .unwrap();
        service
            .dynamic_update(b, &TraceOp::Insert { u: 1, v: 7, w: 3 })
            .unwrap();
        assert_eq!(service.dynamic_lambda(a).unwrap(), (2, 1));
        assert_eq!(service.dynamic_lambda(b).unwrap(), (4, 1));

        // The same for cacti: on a C6, a heavy chord 0–2 on A leaves no
        // minimum cut separating 0 from 2, while B's chord 0–3 does not
        // touch the cut {0, 3, 4, 5} (which costs 7 in A's graph).
        let (g, _) = known::cycle_graph(6, 1);
        let opts = SolveOptions::new().seed(1);
        let a = service
            .register_dynamic_with_cactus(g.clone(), "noi-viecut", opts.clone())
            .unwrap();
        let b = service
            .register_dynamic_with_cactus(g, "noi-viecut", opts)
            .unwrap();
        service
            .dynamic_update(a, &TraceOp::Insert { u: 0, v: 2, w: 5 })
            .unwrap();
        service
            .dynamic_update(b, &TraceOp::Insert { u: 0, v: 3, w: 5 })
            .unwrap();
        assert!(service.min_cuts_separating_many(b, &[(0, 2)]).unwrap()[0].is_some());
        assert_eq!(
            service.min_cuts_separating_many(a, &[(0, 2)]).unwrap(),
            vec![None]
        );
    }

    #[test]
    fn dynamic_cacti_are_shared_with_the_maintainer() {
        use crate::dynamic::TraceOp;

        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, _) = known::cycle_graph(5, 1); // λ = 2, 10 min cuts
        let h = service
            .register_dynamic_with_cactus(g, "noi-viecut", SolveOptions::new().seed(1))
            .unwrap();

        // Two fetches at one epoch share one cactus: no copy is made.
        let (c, epoch) = service.dynamic_cactus(h).unwrap();
        assert_eq!((c.lambda(), c.count_min_cuts(), epoch), (2, 10, 0));
        let (c2, _) = service.dynamic_cactus(h).unwrap();
        assert!(Arc::ptr_eq(&c, &c2));

        // A chord drops the count: the next fetch serves the new family,
        // while the cactus taken before the mutation still holds the old.
        service
            .dynamic_update(h, &TraceOp::Insert { u: 0, v: 2, w: 5 })
            .unwrap();
        let (c3, epoch) = service.dynamic_cactus(h).unwrap();
        assert_eq!((c3.lambda(), c3.count_min_cuts(), epoch), (2, 4, 1));
        assert_eq!(c.count_min_cuts(), 10);

        // Plain handles have no cactus to serve.
        let (g, _) = known::cycle_graph(5, 1);
        let plain = service
            .register_dynamic(g, "noi-viecut", SolveOptions::new().seed(1))
            .unwrap();
        assert!(matches!(
            service.dynamic_cactus(plain),
            Err(MinCutError::CactusUnavailable { .. })
        ));
    }

    #[test]
    fn batch_separating_queries_are_served_from_one_cactus() {
        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, _) = known::two_communities(5, 5, 1, 3, 2); // bridge (0,5), λ=1
        let h = service
            .register_dynamic_with_cactus(g, "noi-viecut", SolveOptions::new().seed(1))
            .unwrap();

        let answers = service
            .min_cuts_separating_many(h, &[(0, 5), (1, 2), (3, 9), (4, 4)])
            .unwrap();
        assert_eq!(answers.len(), 4);
        let side = answers[0].as_ref().expect("bridge endpoints separate");
        assert_eq!(side.iter().filter(|&&b| b).count(), 5);
        assert_eq!(side[0], side[1], "one community stays whole");
        assert_ne!(side[0], side[5]);
        assert!(answers[1].is_none(), "same clique, same cactus node");
        assert!(answers[3].is_none(), "u == v never separates");
        assert_eq!(answers[2], answers[0], "cross-bridge pairs see the cut");

        // Out-of-range pairs fail the batch loudly instead of panicking.
        assert!(matches!(
            service.min_cuts_separating_many(h, &[(0, 99)]),
            Err(MinCutError::InvalidUpdate { .. })
        ));
    }

    #[test]
    fn poisoned_dynamic_state_is_surfaced_and_rebuild_recovers() {
        use crate::dynamic::TraceOp;

        let service = MinCutService::new(ServiceConfig::new().concurrency(1));
        let (g, l) = known::two_communities(6, 6, 1, 2, 1);
        let h = service
            .register_dynamic_with_cactus(g, "noi", SolveOptions::new().seed(1))
            .unwrap();
        assert_eq!(service.dynamic_lambda(h).unwrap().0, l);

        // Zero the budget so the re-solve after a crossing insert fails
        // mid-update: mutation stuck, epoch advanced, solve poisoned.
        let set_budget = |budget| {
            service
                .maintainer(h)
                .unwrap()
                .lock()
                .unwrap()
                .options_mut()
                .time_budget = budget;
        };
        set_budget(Some(Duration::ZERO));
        service
            .dynamic_update(h, &TraceOp::Insert { u: 1, v: 7, w: 1 })
            .unwrap_err();

        // The poisoned state is surfaced on every read path.
        assert!(service.dynamic_lambda(h).is_err());
        assert!(service.dynamic_cactus(h).is_err());
        assert!(service.min_cuts_separating_many(h, &[(0, 6)]).is_err());

        // Fix the cause and rebuild through the service: poison clears
        // and serving resumes at the post-mutation λ.
        set_budget(None);
        let report = service.dynamic_rebuild(h).unwrap();
        assert_eq!(report.lambda, l + 1);
        assert_eq!(service.dynamic_lambda(h).unwrap(), (l + 1, 1));
        assert!(service.dynamic_cactus(h).unwrap().0.count_min_cuts() >= 1);
        assert!(service.min_cuts_separating_many(h, &[(0, 6)]).unwrap()[0].is_some());
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = MinCutService::default().run_batch(&[]);
        assert_eq!(report.stats.jobs, 0);
        assert!(report.all_ok());
        assert!(report.stats.to_json().starts_with('{'));
    }
}
