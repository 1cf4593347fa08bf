//! Incremental minimum-cut maintenance over a mutating graph.
//!
//! The solvers of this crate answer one query on one frozen [`CsrGraph`];
//! a serving deployment also sees *changing* graphs — edges appear and
//! disappear between queries. [`DynamicMinCut`] maintains the current
//! `(λ, witness)` pair **exactly** across edge insertions and deletions
//! over a [`DeltaGraph`] overlay. A registry solver runs only when an
//! insert can raise λ — and then seeded through the existing
//! [`SolveOptions::initial_bound`] machinery so the re-solve starts from
//! a proven cut instead of cold. Every delete is decided without one.
//!
//! ## The update cases
//!
//! Let `W` be the maintained witness cut with value λ, and let the
//! update touch edge `{u, v}` with weight `w`. Insertions only ever
//! raise cut values and deletions only ever lower them, which gives:
//!
//! | update | known min cut separates `u`, `v`? | new λ | work |
//! |---|---|---|---|
//! | insert | no (`W` does not)  | λ (W still optimal: no cut decreased) | O(Δ) |
//! | insert | yes (`W` does) | re-solve with bound λ + w (W now costs λ + w) | bounded solve |
//! | delete | yes: `W` | **λ − w exactly**, same witness | O(Δ) |
//! | delete | yes: a cut the cactus names | **λ − w exactly**, that cut the witness | O(Δ) + one cactus walk |
//! | delete | no  | **min(λ, maxflow(u, v))**, a smaller flow's min cut the witness | one u–v max flow |
//!
//! A delete changes only the cuts that separate `u` from `v`. When some
//! minimum cut separates them — the witness, or with the cactus on any
//! of the cuts it represents ([`Cactus::min_cut_separating`]) — that cut
//! loses exactly `w` and no cut can lose more, so λ − w is exact without
//! any further work. Deleting a crossing bridge degenerates gracefully:
//! λ − w = 0 and the cut is a component side. Otherwise every cut that
//! does not separate `u` from `v` keeps a value of at least λ, and the
//! cheapest cut that does costs exactly maxflow(u, v) in the new graph,
//! so λ′ = min(λ, maxflow(u, v)). That flow runs through the
//! maintainer's one [`FlowEngine`] on the live [`DeltaGraph`], which
//! streams its overlay into the residual network the last delete left:
//! the delete path never compacts and, once warm, allocates no flow
//! buffers. The crossing-insert re-solve runs the full
//! [`Solver`](crate::Solver) preflight — kernelization pipeline seeded
//! with the bound, then the registered solver family on the
//! [compacted](DeltaGraph::compact) graph — so every exact registry
//! family works. The maintainer takes exact solvers only: an inexact
//! one is refused at construction.
//!
//! ## Traces
//!
//! [`parse_trace`] reads the `mincut --stream` edge-trace format: one
//! operation per line, `i u v w` (insert), `d u v` (delete), `q`
//! (query), `qc` (count all minimum cuts), `qs u v` (a minimum cut
//! separating `u` from `v`), with `#`/`%` comments. Malformed lines are
//! [`MinCutError::TraceParse`] values carrying the line number.
//!
//! ## Cactus maintenance
//!
//! With [`DynamicMinCut::enable_cactus`] the maintainer also keeps the
//! [`Cactus`] of **all** minimum cuts current. Updates that provably
//! leave the family untouched are absorbed in O(1) — an insert whose
//! endpoints share a cactus node is crossed by *no* minimum cut, so no
//! cut value changes and (inserts only ever raise values) no new
//! minimum appears. Structure-crossing updates first try **edge-local
//! repair** ([`crate::cactus::repair`]): when the post-update family is
//! derivable from the old structure — cross-node inserts that kept λ
//! (the non-separating cuts survive), deletions crossed by some minimum
//! cut (λ − w exactly, the separating cuts survive), same-node
//! deletions (from the delete's own u–v flow: the family is unchanged
//! above λ, grows by the minimum u–v cuts at λ, and is exactly those
//! cuts below λ) — the cactus is reassembled from the derived family
//! with no enumeration flows, and the bijection is re-certified before
//! the repair is accepted. Only when no case applies (λ rose, λ fell to
//! 0, or certification failed) does the maintainer fall back to the
//! full rebuild ([`CactusBuilder::build_with_lambda`], no solver run).
//! `DynamicStats::{cactus_repairs, repair_fallbacks}` count the split;
//! [`DynamicMinCut::set_cactus_repair`] is the rebuild-only A/B knob.
//!
//! ```
//! use mincut_core::{DynamicMinCut, SolveOptions};
//! use mincut_graph::CsrGraph;
//!
//! // A square: λ = 2.
//! let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
//! let mut dyn_cut = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new()).unwrap();
//! assert_eq!(dyn_cut.lambda(), 2);
//!
//! // A heavy chord never lowers λ; crossing inserts re-solve bounded.
//! assert_eq!(dyn_cut.insert_edge(0, 2, 5).unwrap().lambda, 2);
//!
//! // Dropping 1–2 leaves vertex 1 hanging off one unit edge: λ = 1,
//! // decided without a solver run.
//! let report = dyn_cut.delete_edge(1, 2).unwrap();
//! assert_eq!((report.lambda, report.resolved), (1, false));
//! assert_eq!(dyn_cut.graph().cut_value(dyn_cut.witness()), 1);
//! ```

use std::io::BufRead;
use std::sync::Arc;
use std::time::Instant;

use mincut_flow::{FlowEngine, MaxFlowResult};
use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, NodeId};

use crate::cactus::repair::Repaired;
use crate::cactus::{Cactus, CactusBuilder};
use crate::error::MinCutError;
use crate::options::SolveOptions;
use crate::SolverRegistry;

/// One operation of an edge-update trace
/// (`i u v w` / `d u v` / `q` / `qc` / `qs u v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// `i u v w`: insert the undirected edge `{u, v}` with weight `w`
    /// (merging with an existing edge by summing, the builder rule).
    Insert { u: NodeId, v: NodeId, w: EdgeWeight },
    /// `d u v`: delete the edge `{u, v}` entirely.
    Delete { u: NodeId, v: NodeId },
    /// `q`: report the current λ.
    Query,
    /// `qc`: report the number of distinct minimum cuts (needs a
    /// maintained cactus).
    QueryCount,
    /// `qs u v`: report a minimum cut separating `u` from `v`, or that
    /// none does (needs a maintained cactus).
    QuerySeparating { u: NodeId, v: NodeId },
}

/// Parses one trace line (1-based `lineno` for errors) against a graph
/// on `n` vertices. Returns `None` for blank and `#`/`%` comment lines.
pub fn parse_trace_op(line: &str, lineno: usize, n: usize) -> Result<Option<TraceOp>, MinCutError> {
    let err = |message: String| MinCutError::TraceParse {
        line: lineno,
        message,
    };
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut tok = t.split_whitespace();
    let op = tok.next().expect("non-empty line has a first token");
    let mut vertex = |what: &str| -> Result<NodeId, MinCutError> {
        let token = tok
            .next()
            .ok_or_else(|| err(format!("missing {what} vertex")))?;
        if token.starts_with('-') {
            return Err(err(format!("negative vertex id {token} not allowed")));
        }
        let id: u64 = token
            .parse()
            .map_err(|e| err(format!("invalid {what} vertex {token:?}: {e}")))?;
        if id >= n as u64 {
            return Err(err(format!("vertex {id} out of range 0..{n}")));
        }
        Ok(id as NodeId)
    };
    let parsed = match op {
        "i" => {
            let u = vertex("source")?;
            let v = vertex("target")?;
            let token = tok.next().ok_or_else(|| err("missing weight".into()))?;
            if token.starts_with('-') {
                return Err(err(format!("negative weight {token} not allowed")));
            }
            let w: EdgeWeight = token
                .parse()
                .map_err(|e| err(format!("invalid weight {token:?}: {e}")))?;
            if w == 0 {
                return Err(err("zero-weight insert not allowed".into()));
            }
            if u == v {
                return Err(err(format!("self-loop on vertex {u} not allowed")));
            }
            TraceOp::Insert { u, v, w }
        }
        "d" => {
            let u = vertex("source")?;
            let v = vertex("target")?;
            if u == v {
                return Err(err(format!("self-loop on vertex {u} not allowed")));
            }
            TraceOp::Delete { u, v }
        }
        "q" => TraceOp::Query,
        "qc" => TraceOp::QueryCount,
        "qs" => {
            let u = vertex("source")?;
            let v = vertex("target")?;
            if u == v {
                return Err(err(format!(
                    "separating query needs two distinct vertices, got {u} twice"
                )));
            }
            TraceOp::QuerySeparating { u, v }
        }
        other => {
            return Err(err(format!(
                "unknown operation {other:?} (expected i, d, q, qc or qs)"
            )))
        }
    };
    if let Some(extra) = tok.next() {
        return Err(err(format!("unexpected trailing token {extra:?}")));
    }
    Ok(Some(parsed))
}

/// Parses a whole trace: one [`TraceOp`] per non-comment line.
pub fn parse_trace<R: BufRead>(reader: R, n: usize) -> Result<Vec<TraceOp>, MinCutError> {
    let mut ops = Vec::new();
    for (no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| MinCutError::TraceParse {
            line: no + 1,
            message: format!("I/O error: {e}"),
        })?;
        if let Some(op) = parse_trace_op(&line, no + 1, n)? {
            ops.push(op);
        }
    }
    Ok(ops)
}

/// What one applied update reports back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// The maintained cut value after the update.
    pub lambda: EdgeWeight,
    /// Whether a registry solver ran. `false` for every delete: it is
    /// absorbed in O(Δ) or decided by one u–v max flow.
    pub resolved: bool,
    /// The graph epoch after the update (unchanged for [`TraceOp::Query`]).
    pub epoch: u64,
}

/// Cumulative counters of one [`DynamicMinCut`]'s lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicStats {
    pub insertions: u64,
    pub deletions: u64,
    pub queries: u64,
    /// Updates absorbed in O(Δ) without running a solver or a flow:
    /// inserts no witness crosses, and deletes a known minimum cut (the
    /// witness or a cactus cut) separates.
    pub incremental: u64,
    /// Registry solver runs: bound-seeded re-solves of crossing inserts
    /// and rebuilds, including the initial solve.
    pub resolves: u64,
    /// Wall-clock spent inside solver runs.
    pub resolve_seconds: f64,
    /// Deletes decided by one u–v max flow over the current graph (no
    /// known minimum cut separated the endpoints).
    pub flow_deletes: u64,
    /// Cactus rebuilds triggered by updates (cactus maintenance on).
    pub cactus_rebuilds: u64,
    /// Updates absorbed with the cactus provably unchanged.
    pub cactus_absorbed: u64,
    /// Structure-crossing updates resolved by edge-local repair —
    /// deriving the new family from the old structure instead of
    /// re-enumerating it (see [`crate::cactus::repair`]).
    pub cactus_repairs: u64,
    /// Repair attempts that could not certify the bijection and fell
    /// back to a full rebuild (each also counts in `cactus_rebuilds`).
    pub repair_fallbacks: u64,
    /// Wall-clock spent repairing and rebuilding cacti.
    pub cactus_seconds: f64,
}

impl DynamicStats {
    /// One JSON object, matching the other hand-rolled emitters of this
    /// offline build.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"insertions\":{},\"deletions\":{},\"queries\":{},\"incremental\":{},\
             \"resolves\":{},\"resolve_seconds\":{:.9},\"flow_deletes\":{},\
             \"cactus_rebuilds\":{},\"cactus_absorbed\":{},\"cactus_repairs\":{},\
             \"repair_fallbacks\":{},\"cactus_seconds\":{:.9}}}",
            self.insertions,
            self.deletions,
            self.queries,
            self.incremental,
            self.resolves,
            self.resolve_seconds,
            self.flow_deletes,
            self.cactus_rebuilds,
            self.cactus_absorbed,
            self.cactus_repairs,
            self.repair_fallbacks,
            self.cactus_seconds
        )
    }
}

/// Maintains `(λ, witness)` exactly across edge updates: see the
/// [module docs](self) for the case analysis.
pub struct DynamicMinCut {
    graph: DeltaGraph,
    solver: String,
    opts: SolveOptions,
    lambda: EdgeWeight,
    /// Total edge weight W of the current graph (each edge once). An
    /// insert that would take it past `EdgeWeight::MAX / 2` is rejected,
    /// so λ + w and merged edge weights cannot wrap.
    total_weight: EdgeWeight,
    /// Witness side of `lambda` over the (fixed) vertex set. Always
    /// tracked — the crossing test is the heart of the maintenance — so
    /// [`SolveOptions::witness`] is forced on internally.
    side: Vec<bool>,
    stats: DynamicStats,
    /// The maintained cactus of all minimum cuts, when
    /// [`enable_cactus`](DynamicMinCut::enable_cactus) switched the mode
    /// on. Kept in lock-step with `(λ, witness)` by edge-local repair
    /// ([`crate::cactus::repair`]) with
    /// [`refresh_cactus`](DynamicMinCut::refresh_cactus) as the
    /// fallback. An update that changes the family installs a new
    /// cactus instead of editing this one, so readers share it through
    /// the `Arc` (the service hands it out without copying) and a
    /// reader's cactus keeps describing the epoch it was fetched at.
    cactus: Option<Arc<Cactus>>,
    /// Whether structure-crossing updates try edge-local repair before
    /// rebuilding (on by default; the A/B knob of
    /// [`set_cactus_repair`](DynamicMinCut::set_cactus_repair)).
    repair_cactus: bool,
    /// Set when a re-solve failed *after* its mutation was applied: the
    /// graph and `(λ, witness)` are out of sync, so every further
    /// operation is refused instead of serving a silently wrong λ.
    poisoned: Option<String>,
    /// The buffers of the deletes' u–v flows, reused from one delete to
    /// the next.
    flows: FlowEngine,
}

impl DynamicMinCut {
    /// Wraps `graph` and runs the initial solve with the named registry
    /// solver under `opts` (`witness` is forced on; an
    /// `initial_bound` in `opts` seeds only this first solve). The
    /// solver must be exact: an inexact one is
    /// [`MinCutError::InvalidOptions`].
    pub fn new(
        graph: impl Into<DeltaGraph>,
        solver: &str,
        opts: SolveOptions,
    ) -> Result<Self, MinCutError> {
        let mut opts = opts;
        opts.witness = true;
        opts.validate()?;
        // Resolve now so a typo or an inexact solver fails at
        // construction, not mid-trace.
        SolverRegistry::global().resolve_exact(solver)?;
        let graph: DeltaGraph = graph.into();
        let total_weight = graph
            .edges()
            .fold(0, |t: EdgeWeight, (_, _, w)| t.saturating_add(w));
        let mut this = DynamicMinCut {
            graph,
            solver: solver.to_string(),
            opts,
            lambda: 0,
            total_weight,
            side: Vec::new(),
            stats: DynamicStats::default(),
            cactus: None,
            repair_cactus: true,
            poisoned: None,
            flows: FlowEngine::new(),
        };
        this.resolve(None)?;
        this.opts.initial_bound = None; // the caller's bound was one-shot
        Ok(this)
    }

    /// Current maintained cut value.
    #[inline]
    pub fn lambda(&self) -> EdgeWeight {
        self.lambda
    }

    /// Witness side of [`lambda`](DynamicMinCut::lambda) over the vertex
    /// set; always a proper cut of the current graph whose
    /// [`cut_value`](DeltaGraph::cut_value) equals λ.
    #[inline]
    pub fn witness(&self) -> &[bool] {
        &self.side
    }

    /// The underlying dynamic graph.
    #[inline]
    pub fn graph(&self) -> &DeltaGraph {
        &self.graph
    }

    /// Current graph epoch (mutations applied so far).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Lifetime counters.
    #[inline]
    pub fn stats(&self) -> &DynamicStats {
        &self.stats
    }

    /// Mutable access to the options future re-solves run under (e.g. to
    /// adjust threads or the time budget mid-stream). Witness tracking
    /// stays forced on regardless of what is set here.
    pub fn options_mut(&mut self) -> &mut SolveOptions {
        &mut self.opts
    }

    /// The registry solver name re-solves run.
    #[inline]
    pub fn solver(&self) -> &str {
        &self.solver
    }

    /// Switches cactus maintenance on, building the cactus of all
    /// minimum cuts for the current graph from the maintained λ (no
    /// solver run). Subsequent updates keep it current — see the
    /// [module docs](self) for the absorb/rebuild policy. Idempotent.
    pub fn enable_cactus(&mut self) -> Result<&Cactus, MinCutError> {
        self.check_consistent()?;
        if self.cactus.is_none() {
            let t0 = Instant::now();
            let cactus =
                CactusBuilder::new().build_with_lambda(self.graph.compact(), self.lambda)?;
            self.stats.cactus_rebuilds += 1;
            self.stats.cactus_seconds += t0.elapsed().as_secs_f64();
            self.cactus = Some(Arc::new(cactus));
        }
        Ok(self.cactus.as_deref().expect("just built"))
    }

    /// The maintained cactus, when cactus maintenance is on.
    #[inline]
    pub fn cactus(&self) -> Option<&Arc<Cactus>> {
        self.cactus.as_ref()
    }

    /// Number of distinct minimum cuts of the current graph.
    /// Errors with [`MinCutError::CactusUnavailable`] unless
    /// [`enable_cactus`](DynamicMinCut::enable_cactus) was called.
    pub fn count_min_cuts(&self) -> Result<u128, MinCutError> {
        self.check_consistent()?;
        Ok(self.require_cactus()?.count_min_cuts())
    }

    /// A minimum cut separating `u` from `v` (side bitmap with
    /// `side[u] == true`), or `None` when no minimum cut separates them.
    /// Needs cactus maintenance on, like
    /// [`count_min_cuts`](DynamicMinCut::count_min_cuts).
    pub fn min_cut_separating(
        &self,
        u: NodeId,
        v: NodeId,
    ) -> Result<Option<Vec<bool>>, MinCutError> {
        self.check_consistent()?;
        self.check_endpoints(u, v)?;
        Ok(self.require_cactus()?.min_cut_separating(u, v))
    }

    fn require_cactus(&self) -> Result<&Cactus, MinCutError> {
        self.cactus
            .as_deref()
            .ok_or_else(|| MinCutError::CactusUnavailable {
                message: "enable cactus maintenance first (DynamicMinCut::enable_cactus, \
                      or --cactus on the CLI)"
                    .to_string(),
            })
    }

    /// Why this maintainer refuses further operations, if a re-solve
    /// failed after its mutation was applied (`None`: consistent). A
    /// poisoned maintainer must be rebuilt with [`DynamicMinCut::new`].
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Errors when the maintainer is [poisoned](DynamicMinCut::poisoned):
    /// the graph holds an update whose re-solve failed, so the maintained
    /// `(λ, witness)` no longer describes it. Checked by every operation
    /// (and by the service before serving λ) so a failed re-solve can
    /// never turn into a silently wrong answer.
    pub fn check_consistent(&self) -> Result<(), MinCutError> {
        match &self.poisoned {
            None => Ok(()),
            Some(why) => Err(MinCutError::InvalidUpdate {
                message: format!(
                    "maintainer poisoned by a failed re-solve ({why}); rebuild it from the \
                     current graph"
                ),
            }),
        }
    }

    /// Applies one trace operation, classifying how the maintained
    /// cactus handled it (stats-counter deltas around the op) into an
    /// observability instant event plus a flight-recorder entry.
    pub fn apply(&mut self, op: &TraceOp) -> Result<UpdateReport, MinCutError> {
        let before = (
            self.stats.cactus_absorbed,
            self.stats.cactus_repairs,
            self.stats.repair_fallbacks,
            self.stats.cactus_rebuilds,
        );
        let (op_name, ou, ov) = match *op {
            TraceOp::Insert { u, v, .. } => ("insert", Some(u), Some(v)),
            TraceOp::Delete { u, v } => ("delete", Some(u), Some(v)),
            TraceOp::Query => ("query", None, None),
            TraceOp::QueryCount => ("query-count", None, None),
            TraceOp::QuerySeparating { u, v } => ("query-separating", Some(u), Some(v)),
        };
        let result = match *op {
            TraceOp::Insert { u, v, w } => self.insert_edge(u, v, w),
            TraceOp::Delete { u, v } => self.delete_edge(u, v),
            TraceOp::Query => {
                self.check_consistent()?;
                self.stats.queries += 1;
                Ok(self.report(false))
            }
            TraceOp::QueryCount => {
                self.count_min_cuts()?;
                self.stats.queries += 1;
                Ok(self.report(false))
            }
            // The checks of `min_cut_separating`, in its order, without
            // computing the cut: callers that want it ask the cactus.
            TraceOp::QuerySeparating { u, v } => {
                self.check_consistent()?;
                self.check_endpoints(u, v)?;
                self.require_cactus()?;
                self.stats.queries += 1;
                Ok(self.report(false))
            }
        };
        // Which cactus-maintenance path the op took, from the counter
        // deltas. A repair fallback also bumps `cactus_rebuilds`, so
        // the fallback test precedes the rebuild test.
        let cactus = if self.stats.cactus_absorbed > before.0 {
            "absorb"
        } else if self.stats.cactus_repairs > before.1 {
            "repair"
        } else if self.stats.repair_fallbacks > before.2 {
            "fallback-rebuild"
        } else if self.stats.cactus_rebuilds > before.3 {
            "rebuild"
        } else {
            "none"
        };
        match &result {
            Ok(report) => {
                let mut ev = mincut_obs::instant("dynamic/update")
                    .arg("op", op_name)
                    .arg("lambda", report.lambda)
                    .arg("resolved", report.resolved)
                    .arg("cactus", cactus);
                if let (Some(u), Some(v)) = (ou, ov) {
                    ev = ev.arg("u", u).arg("v", v);
                }
                drop(ev);
                mincut_obs::flight().record(
                    "dynamic",
                    format!("{op_name} -> lambda {} (cactus: {cactus})", report.lambda),
                );
            }
            Err(e) => {
                mincut_obs::flight().record("dynamic", format!("{op_name} failed: {e}"));
            }
        }
        result
    }

    /// Inserts the edge `{u, v}` with weight `w` and updates `(λ,
    /// witness)`: no work beyond the overlay write unless the edge
    /// crosses the witness, in which case a re-solve runs with
    /// `initial_bound = λ + w`. An insert that would take the total edge
    /// weight past `EdgeWeight::MAX / 2` is an
    /// [`InvalidUpdate`](MinCutError::InvalidUpdate) and changes nothing.
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: EdgeWeight,
    ) -> Result<UpdateReport, MinCutError> {
        self.check_consistent()?;
        self.check_endpoints(u, v)?;
        if w == 0 {
            return Err(MinCutError::InvalidUpdate {
                message: format!("zero-weight insert on edge ({u},{v})"),
            });
        }
        let Some(total_weight) = self
            .total_weight
            .checked_add(w)
            .filter(|&t| t <= EdgeWeight::MAX / 2)
        else {
            return Err(MinCutError::InvalidUpdate {
                message: format!(
                    "insert of weight {w} on edge ({u},{v}) takes the total edge weight past {}",
                    EdgeWeight::MAX / 2
                ),
            });
        };
        let crossing = self.side[u as usize] != self.side[v as usize];
        let old_lambda = self.lambda;
        // Absorb test *before* the mutation: endpoints sharing a cactus
        // node are crossed by no minimum cut, so no cut value changes
        // and (inserts only raise values) no new minimum appears.
        let absorb = self
            .cactus
            .as_ref()
            .map(|c| c.same_node(u, v))
            .unwrap_or(false);
        self.graph.insert_edge(u, v, w);
        self.total_weight = total_weight;
        self.stats.insertions += 1;
        if crossing {
            // The old witness is still a real cut, now of value λ + w:
            // the exact upper bound the re-solve starts from.
            let bound = self.lambda + w;
            let side = self.side.clone();
            self.resolve(Some((bound, side)))?;
        } else {
            // No cut got cheaper and the witness kept its value: λ holds.
            self.stats.incremental += 1;
        }
        if absorb {
            self.stats.cactus_absorbed += 1;
        } else {
            self.update_cactus_after_insert(u, v, old_lambda)?;
        }
        Ok(self.report(crossing))
    }

    /// Deletes the edge `{u, v}` and updates `(λ, witness)` **without a
    /// solver run**. When a known minimum cut separates `u` and `v` —
    /// the witness, or with the cactus on any cut it represents — that
    /// cut lands on λ − w exactly and becomes the witness, in O(Δ) (no
    /// cut can lose more than w). Otherwise one u–v max flow over the
    /// current graph decides: λ′ = min(λ, flow), and a smaller flow's
    /// minimum cut becomes the witness. The flow reads the overlay in
    /// place; the delete never compacts the graph.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReport, MinCutError> {
        self.check_consistent()?;
        self.check_endpoints(u, v)?;
        let crossing = self.side[u as usize] != self.side[v as usize];
        let old_lambda = self.lambda;
        // Classify against the cactus *before* the mutation: different
        // nodes certify a separating minimum cut (the surviving family
        // is then derivable locally); one shared node certifies none.
        let separated = self.cactus.as_ref().map(|c| !c.same_node(u, v));
        let Some(w) = self.graph.delete_edge(u, v) else {
            return Err(MinCutError::InvalidUpdate {
                message: format!("no edge ({u},{v}) to delete"),
            });
        };
        self.total_weight -= w;
        self.stats.deletions += 1;
        let flow = if crossing || separated == Some(true) {
            // Exact: every cut loses at most w, and a minimum cut that
            // separates u, v loses exactly w. (λ ≥ w: that cut's value
            // λ includes this edge.) The witness is the first such cut,
            // or else the one the old cactus names.
            if !crossing {
                self.side = self
                    .cactus
                    .as_ref()
                    .and_then(|c| c.min_cut_separating(u, v))
                    .expect("different cactus nodes name a separating minimum cut");
            }
            self.lambda -= w;
            self.stats.incremental += 1;
            None
        } else {
            // Cuts that do not separate u, v kept their values (≥ λ);
            // the cheapest one that does costs exactly the u–v flow.
            let flow = self.flows.max_flow(&self.graph, u, v);
            self.stats.flow_deletes += 1;
            if flow.value < self.lambda {
                self.lambda = flow.value;
                self.side = flow.min_cut_side();
            }
            Some(flow)
        };
        let updated = self.update_cactus_after_delete(u, v, w, old_lambda, flow.as_ref());
        if let Some(flow) = flow {
            self.flows.recycle(flow);
        }
        updated?;
        Ok(self.report(false))
    }

    /// Cactus update for an insert across two cactus nodes. When λ kept
    /// its value, the new family is exactly the old cuts not separating
    /// `u, v` (λ > 0), or the component merge (λ = 0) — derived locally
    /// with no flow run. Anything else falls back to the rebuild.
    fn update_cactus_after_insert(
        &mut self,
        u: NodeId,
        v: NodeId,
        old_lambda: EdgeWeight,
    ) -> Result<(), MinCutError> {
        if self.cactus.is_none() {
            return Ok(());
        }
        if !self.repair_cactus {
            return self.refresh_cactus();
        }
        let t0 = Instant::now();
        let repaired = (self.lambda == old_lambda)
            .then(|| {
                let c = self.cactus.as_ref().expect("cactus maintenance is on");
                if old_lambda == 0 {
                    c.repaired_merge_components(u, v)
                } else {
                    c.repaired_after_insert(u, v)
                }
            })
            .flatten()
            .map(|c| Repaired::Changed(Box::new(c)));
        self.commit_repair(repaired, t0)
    }

    /// Cactus update for a deletion. Without `flow` some minimum cut
    /// separated `u` and `v`: λ dropped to λ − w exactly and the old
    /// separating cuts are the whole new family, derivable from the
    /// structure alone. With the delete's u–v `flow` the endpoints
    /// shared a cactus node, and the flow decides the new family (see
    /// [`crate::cactus::repair`]). A delete that takes λ to 0 falls back
    /// to the cheap component rebuild.
    fn update_cactus_after_delete(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: EdgeWeight,
        old_lambda: EdgeWeight,
        flow: Option<&MaxFlowResult>,
    ) -> Result<(), MinCutError> {
        let Some(cactus) = &self.cactus else {
            return Ok(());
        };
        if !self.repair_cactus {
            return self.refresh_cactus();
        }
        let t0 = Instant::now();
        let repaired = match flow {
            None => (old_lambda >= w && self.lambda == old_lambda - w)
                .then(|| cactus.repaired_after_crossing_delete(u, v, self.lambda))
                .flatten()
                .map(|c| Repaired::Changed(Box::new(c))),
            Some(flow) => cactus.repaired_after_internal_delete(flow, u, v),
        };
        self.commit_repair(repaired, t0)
    }

    /// Installs a certified repair (an unchanged family keeps the
    /// current `Arc`), or counts the fallback and rebuilds.
    fn commit_repair(
        &mut self,
        repaired: Option<Repaired>,
        t0: Instant,
    ) -> Result<(), MinCutError> {
        let Some(repaired) = repaired else {
            self.stats.repair_fallbacks += 1;
            return self.refresh_cactus();
        };
        if let Repaired::Changed(cactus) = repaired {
            self.cactus = Some(Arc::new(*cactus));
        }
        self.stats.cactus_repairs += 1;
        self.stats.cactus_seconds += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Switches edge-local cactus repair off (`false`: every
    /// structure-crossing update rebuilds from scratch, the pre-repair
    /// behaviour) or back on. The A/B knob of `cactus_bench`; repair is
    /// on by default and maintains the identical structure.
    pub fn set_cactus_repair(&mut self, enabled: bool) {
        self.repair_cactus = enabled;
    }

    /// Re-solves `(λ, witness)` — and the cactus, when maintenance is
    /// on — from the **current** `DeltaGraph` state, clearing the
    /// poison a failed re-solve left behind. This is the recovery path
    /// for a [poisoned](DynamicMinCut::poisoned) maintainer: fix what
    /// made the re-solve fail (e.g. widen the time budget via
    /// [`options_mut`](DynamicMinCut::options_mut)), then `rebuild()`
    /// instead of reconstructing the whole maintainer. A failure here
    /// re-poisons — the graph still has no valid `(λ, witness)`.
    pub fn rebuild(&mut self) -> Result<UpdateReport, MinCutError> {
        self.poisoned = None;
        self.resolve(None)?;
        if self.cactus.is_some() {
            self.refresh_cactus()?;
        }
        Ok(self.report(true))
    }

    /// Rebuilds the maintained cactus from the current graph and λ
    /// (no-op when cactus maintenance is off).
    fn refresh_cactus(&mut self) -> Result<(), MinCutError> {
        if self.cactus.is_none() {
            return Ok(());
        }
        let t0 = Instant::now();
        let cactus = CactusBuilder::new().build_with_lambda(self.graph.compact(), self.lambda)?;
        self.stats.cactus_rebuilds += 1;
        self.stats.cactus_seconds += t0.elapsed().as_secs_f64();
        self.cactus = Some(Arc::new(cactus));
        Ok(())
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), MinCutError> {
        let n = self.graph.n();
        if (u as usize) >= n || (v as usize) >= n {
            return Err(MinCutError::InvalidUpdate {
                message: format!("edge ({u},{v}) out of range for n={n}"),
            });
        }
        if u == v {
            return Err(MinCutError::InvalidUpdate {
                message: format!("self-loop on vertex {u} not allowed"),
            });
        }
        Ok(())
    }

    fn report(&self, resolved: bool) -> UpdateReport {
        UpdateReport {
            lambda: self.lambda,
            resolved,
            epoch: self.graph.epoch(),
        }
    }

    /// Compacts the overlay and runs the registered solver on the
    /// resulting [`CsrGraph`], seeded with `bound` (a proven cut of the
    /// *current* graph) through the standard preflight — kernelization
    /// pipeline included. A failure here (time budget, bad options)
    /// lands *after* the triggering mutation was applied, so it poisons
    /// the maintainer: `(λ, witness)` no longer describes the graph and
    /// every later operation is refused (see
    /// [`check_consistent`](DynamicMinCut::check_consistent)).
    fn resolve(&mut self, bound: Option<(EdgeWeight, Vec<bool>)>) -> Result<(), MinCutError> {
        self.graph.compact();
        let mut opts = self.opts.clone();
        opts.witness = true;
        if let Some((b, side)) = bound {
            debug_assert_eq!(
                self.graph.cut_value(&side),
                b,
                "seed bound must be the exact value of its witness"
            );
            opts.initial_bound = Some((b, Some(side)));
        }
        let solved = SolverRegistry::global()
            .resolve(&self.solver)
            .and_then(|solver| solver.solve(self.graph.base(), &opts))
            .and_then(|out| {
                out.cut
                    .side
                    .ok_or_else(|| MinCutError::InvalidUpdate {
                        message: format!(
                            "solver {} returned no witness; dynamic maintenance needs one",
                            self.solver
                        ),
                    })
                    .map(|side| (out.cut.value, side, out.stats.total_seconds))
            });
        match solved {
            Ok((lambda, side, seconds)) => {
                self.stats.resolves += 1;
                self.stats.resolve_seconds += seconds;
                self.lambda = lambda;
                self.side = side;
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.to_string());
                mincut_obs::flight().record(
                    "dynamic",
                    format!("maintainer poisoned by failed re-solve: {e}"),
                );
                mincut_obs::flight().dump_to_stderr("dynamic maintainer poisoning");
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for DynamicMinCut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicMinCut")
            .field("solver", &self.solver)
            .field("lambda", &self.lambda)
            .field("epoch", &self.graph.epoch())
            .finish()
    }
}

/// Materialises the current state of a [`DeltaGraph`] as a fresh
/// [`CsrGraph`] without mutating it — a convenience alias for
/// [`DeltaGraph::to_csr`] (the maintainer itself uses
/// [`DeltaGraph::compact`]).
pub fn materialize(g: &DeltaGraph) -> CsrGraph {
    g.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;
    use std::io::Cursor;

    #[test]
    fn trace_parser_accepts_the_documented_format() {
        let text = "# comment\n\ni 0 1 3\nd 2 3\nq\n% tail comment\n";
        let ops = parse_trace(Cursor::new(text), 5).unwrap();
        assert_eq!(
            ops,
            vec![
                TraceOp::Insert { u: 0, v: 1, w: 3 },
                TraceOp::Delete { u: 2, v: 3 },
                TraceOp::Query,
            ]
        );
    }

    #[test]
    fn trace_parser_rejections_carry_line_numbers() {
        for (text, needle) in [
            ("x 0 1\n", "unknown operation"),
            ("i 0 1\n", "missing weight"),
            ("i 0 9 1\n", "out of range"),
            ("d 9 0\n", "out of range"),
            ("i 0 1 -3\n", "negative"),
            ("d -1 0\n", "negative"),
            ("i 0 1 0\n", "zero-weight"),
            ("i 2 2 1\n", "self-loop"),
            ("d 2 2\n", "self-loop"),
            ("q extra\n", "trailing"),
            ("i 0 1 2 9\n", "trailing"),
            ("d 0\n", "missing target"),
            ("i a 1 2\n", "invalid source"),
        ] {
            let err = parse_trace(Cursor::new(format!("q\n{text}")), 5).expect_err(text);
            match err {
                MinCutError::TraceParse { line, message } => {
                    assert_eq!(line, 2, "{text:?}");
                    assert!(message.contains(needle), "{text:?}: {message}");
                }
                other => panic!("{text:?}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn maintained_lambda_tracks_every_update_case() {
        // Square 0-1-2-3, λ = 2.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let mut dm = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new().seed(3)).unwrap();
        assert_eq!(dm.lambda(), 2);
        assert_eq!(dm.graph().cut_value(dm.witness()), 2);

        // Heavy chord: λ stays 2 whatever the witness was.
        let r = dm.insert_edge(0, 2, 5).unwrap();
        assert_eq!(r.lambda, 2);

        // Drop 1-2: vertex 1 hangs off 0 alone → λ = 1.
        let r = dm.delete_edge(1, 2).unwrap();
        assert_eq!(r.lambda, 1);
        assert_eq!(dm.graph().cut_value(dm.witness()), 1);

        // Drop 0-1: vertex 1 isolated → disconnected, λ = 0.
        let r = dm.delete_edge(0, 1).unwrap();
        assert_eq!(r.lambda, 0);
        assert!(dm.graph().is_proper_cut(dm.witness()));
        assert_eq!(dm.graph().cut_value(dm.witness()), 0);

        // Reconnect 1 with weight 4: λ = min over cuts; {1} costs 4,
        // {3} costs 1+5? 3 has edges 2-3 (1), 3-0 (1) → 2. λ = 2.
        let r = dm.insert_edge(1, 2, 4).unwrap();
        assert_eq!(r.lambda, 2);
        assert_eq!(dm.graph().cut_value(dm.witness()), 2);
        assert_eq!(dm.epoch(), 4);
        assert_eq!(dm.stats().insertions, 2);
        assert_eq!(dm.stats().deletions, 2);
        assert!(dm.stats().resolves >= 1);
        assert!(dm.stats().to_json().starts_with('{'));
    }

    #[test]
    fn crossing_deletion_is_incremental_and_exact() {
        // Two heavy communities joined by one weight-2 bridge: every
        // solver's witness is the community split, so deleting the
        // bridge is a crossing deletion → λ 2 → 0 without a solve.
        let (g, l) = known::two_communities(6, 6, 1, 2, 3);
        assert_eq!(l, 3);
        let mut dm = DynamicMinCut::new(g, "stoer-wagner", SolveOptions::new()).unwrap();
        let resolves_before = dm.stats().resolves;
        let r = dm.delete_edge(0, 6).unwrap(); // the planted bridge
        assert_eq!(r.lambda, 0);
        assert!(!r.resolved);
        assert_eq!(dm.stats().resolves, resolves_before, "no solver ran");
        assert_eq!(dm.stats().incremental, 1);
        assert_eq!(materialize(dm.graph()).cut_value(dm.witness()), 0);
    }

    #[test]
    fn deletes_run_no_solver_and_never_compact() {
        // Two unit K8s joined by the bridges 0-8 and 1-9 of weight 3:
        // λ = 6, the community split, and every other vertex has
        // degree 7. Deleting an intra-clique edge and inserting it back
        // crosses no witness, and the overlay never holds more than a
        // few entries, far below the automatic compaction threshold.
        let mut edges = vec![(0, 8, 3), (1, 9, 3)];
        for offset in [0, 8] {
            for u in 0..8 {
                for v in u + 1..8 {
                    edges.push((offset + u, offset + v, 1));
                }
            }
        }
        let g = CsrGraph::from_edges(16, &edges);
        let mut dm = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new().seed(5)).unwrap();
        let mut shadow = DeltaGraph::new(materialize(dm.graph()));
        let check = |dm: &DynamicMinCut, shadow: &DeltaGraph, what: &str| {
            let current = materialize(shadow);
            let expected = crate::Session::new(&current)
                .run("stoer-wagner")
                .unwrap()
                .cut
                .value;
            assert_eq!(dm.lambda(), expected, "{what}");
            assert!(current.is_proper_cut(dm.witness()), "{what}");
            assert_eq!(current.cut_value(dm.witness()), expected, "{what}");
            assert_eq!(
                dm.graph().compactions(),
                0,
                "{what}: the delete path compacted"
            );
        };
        assert_eq!(dm.lambda(), 6);
        let mut deletes = 0;
        for offset in [0, 8] {
            for u in offset..offset + 8 {
                for v in u + 1..offset + 8 {
                    let r = dm.delete_edge(u, v).unwrap();
                    shadow.delete_edge(u, v).unwrap();
                    assert!(!r.resolved);
                    check(&dm, &shadow, &format!("d {u} {v}"));
                    dm.insert_edge(u, v, 1).unwrap();
                    shadow.insert_edge(u, v, 1);
                    check(&dm, &shadow, &format!("i {u} {v} 1"));
                    deletes += 1;
                }
            }
        }
        assert_eq!(deletes, 56);
        // Vertex 2 drops to degree 5 < 6: the second delete's flow is
        // below λ and its minimum cut becomes the witness. Deletes on
        // the other side then leave λ = 5 in place.
        for (u, v) in [(2, 3), (2, 4), (10, 11), (12, 13)] {
            dm.delete_edge(u, v).unwrap();
            shadow.delete_edge(u, v).unwrap();
            check(&dm, &shadow, &format!("d {u} {v}"));
        }
        assert_eq!(dm.lambda(), 5);
        assert_eq!(
            dm.stats().flow_deletes,
            60,
            "no known minimum cut separated"
        );
        assert_eq!(dm.stats().resolves, 1, "the initial solve only");
        assert!(dm.graph().overlay_len() < DeltaGraph::COMPACT_MIN_OVERLAY);
    }

    #[test]
    fn invalid_updates_are_errors_and_leave_state_untouched() {
        let (g, l) = known::cycle_graph(5, 2);
        let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
        let epoch = dm.epoch();
        let side = dm.witness().to_vec();
        assert!(matches!(
            dm.insert_edge(0, 0, 1),
            Err(MinCutError::InvalidUpdate { .. })
        ));
        assert!(matches!(
            dm.insert_edge(0, 9, 1),
            Err(MinCutError::InvalidUpdate { .. })
        ));
        assert!(matches!(
            dm.insert_edge(0, 2, 0),
            Err(MinCutError::InvalidUpdate { .. })
        ));
        assert!(matches!(
            dm.delete_edge(0, 2), // chord absent in a cycle
            Err(MinCutError::InvalidUpdate { .. })
        ));
        // Inserts that would take the total edge weight W = 10 past
        // EdgeWeight::MAX / 2, on a new chord and on an existing edge
        // (whose merged weight would wrap), up to wrapping u64 itself.
        let room = EdgeWeight::MAX / 2 - 10;
        for w in [room + 1, EdgeWeight::MAX - 1, EdgeWeight::MAX] {
            for (u, v) in [(0, 2), (0, 1)] {
                assert!(
                    matches!(
                        dm.insert_edge(u, v, w),
                        Err(MinCutError::InvalidUpdate { .. })
                    ),
                    "insert ({u},{v}) of {w}"
                );
            }
        }
        assert_eq!(dm.epoch(), epoch);
        assert_eq!(dm.lambda(), l);
        assert_eq!(dm.witness(), &side[..]);
        assert_eq!(dm.graph().edge_weight(0, 1), Some(2));
        // Exactly at the bound the insert goes through; a delete makes
        // room again.
        assert_eq!(dm.insert_edge(0, 2, room).unwrap().lambda, l);
        assert!(matches!(
            dm.insert_edge(1, 3, 1),
            Err(MinCutError::InvalidUpdate { .. })
        ));
        dm.delete_edge(0, 2).unwrap();
        assert_eq!(dm.insert_edge(1, 3, 1).unwrap().lambda, l);
    }

    #[test]
    fn failed_resolve_poisons_the_maintainer_instead_of_serving_stale_lambda() {
        let (g, l) = known::two_communities(6, 6, 1, 2, 1); // bridge (0,6)
        let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
        assert_eq!(dm.lambda(), l);
        assert!(dm.poisoned().is_none());

        // Make the next re-solve fail: a crossing insert mutates the
        // graph first, then the zero budget trips inside the solve.
        dm.options_mut().time_budget = Some(std::time::Duration::ZERO);
        let err = dm.insert_edge(1, 7, 1).unwrap_err();
        assert!(matches!(err, MinCutError::TimeBudgetExceeded { .. }));

        // The mutation stuck but (λ, witness) did not: every further
        // operation is refused rather than answered wrongly.
        assert!(dm.poisoned().is_some());
        for result in [
            dm.apply(&TraceOp::Query),
            dm.insert_edge(2, 8, 1),
            dm.delete_edge(0, 6),
        ] {
            match result {
                Err(MinCutError::InvalidUpdate { message }) => {
                    assert!(message.contains("poisoned"), "{message}")
                }
                other => panic!("expected poisoned error, got {other:?}"),
            }
        }
        assert!(dm.check_consistent().is_err());
    }

    #[test]
    fn trace_parser_accepts_cactus_queries() {
        let ops = parse_trace(Cursor::new("qc\nqs 0 3\n"), 5).unwrap();
        assert_eq!(
            ops,
            vec![TraceOp::QueryCount, TraceOp::QuerySeparating { u: 0, v: 3 }]
        );
        for (text, needle) in [
            ("qs 0\n", "missing target"),
            ("qs 0 9\n", "out of range"),
            ("qs 2 2\n", "distinct"),
            ("qc 1\n", "trailing"),
            ("qs 0 1 2\n", "trailing"),
        ] {
            let err = parse_trace(Cursor::new(text), 5).expect_err(text);
            match err {
                MinCutError::TraceParse { line, message } => {
                    assert_eq!(line, 1, "{text:?}");
                    assert!(message.contains(needle), "{text:?}: {message}");
                }
                other => panic!("{text:?}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn cactus_queries_without_maintenance_are_errors() {
        let (g, _) = known::cycle_graph(5, 1);
        let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
        assert!(matches!(
            dm.count_min_cuts(),
            Err(MinCutError::CactusUnavailable { .. })
        ));
        assert!(matches!(
            dm.apply(&TraceOp::QueryCount),
            Err(MinCutError::CactusUnavailable { .. })
        ));
        assert!(matches!(
            dm.apply(&TraceOp::QuerySeparating { u: 0, v: 2 }),
            Err(MinCutError::CactusUnavailable { .. })
        ));
        assert!(dm.cactus().is_none());
    }

    #[test]
    fn maintained_cactus_tracks_updates_and_absorbs_internal_inserts() {
        // Square 0-1-2-3: λ = 2, every vertex its own cactus node.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let mut dm = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new()).unwrap();
        assert_eq!(dm.enable_cactus().unwrap().count_min_cuts(), 6); // C4
        assert_eq!(dm.count_min_cuts().unwrap(), 6);
        let builds_after_enable = dm.stats().cactus_rebuilds;

        // Heavy chord 0-2 kills every cut separating 0 from 2: only the
        // two cuts isolating 1 or 3 survive — a structure-crossing
        // insert with λ unchanged, resolved by local repair, no rebuild.
        dm.insert_edge(0, 2, 5).unwrap();
        assert_eq!(dm.count_min_cuts().unwrap(), 2);
        assert_eq!(dm.stats().cactus_repairs, 1);
        assert_eq!(dm.stats().cactus_rebuilds, builds_after_enable);

        // Now 0 and 2 share a cactus node: a parallel edge between them
        // is absorbed without a rebuild.
        let builds = dm.stats().cactus_rebuilds;
        assert!(dm.cactus().unwrap().same_node(0, 2));
        dm.insert_edge(0, 2, 1).unwrap();
        assert_eq!(dm.stats().cactus_rebuilds, builds, "absorbed, no rebuild");
        assert_eq!(dm.stats().cactus_absorbed, 1);
        assert_eq!(dm.count_min_cuts().unwrap(), 2);

        // Deleting 1-2 leaves vertex 1 hanging: λ = 1, one unique cut.
        // The cut {1} separated the endpoints, so λ dropped by exactly w
        // and the separating cuts survive: local repair again.
        dm.delete_edge(1, 2).unwrap();
        assert_eq!(dm.lambda(), 1);
        assert_eq!(dm.count_min_cuts().unwrap(), 1);
        assert_eq!(dm.stats().cactus_repairs, 2);
        let side = dm.min_cut_separating(1, 3).unwrap().unwrap();
        assert!(side[1] && !side[3]);
        assert_eq!(materialize(dm.graph()).cut_value(&side), 1);
        assert_eq!(dm.min_cut_separating(0, 2).unwrap(), None);

        // Every step after enabling kept the cactus in lock-step: a
        // from-scratch build over the current graph agrees.
        let fresh = CactusBuilder::new()
            .build_with_lambda(&materialize(dm.graph()), dm.lambda())
            .unwrap();
        assert_eq!(
            fresh.count_min_cuts(),
            dm.count_min_cuts().unwrap(),
            "maintained == rebuilt"
        );
        assert_eq!(
            dm.stats().cactus_rebuilds,
            builds_after_enable,
            "every structure-crossing update resolved via local repair"
        );
        assert_eq!(dm.stats().repair_fallbacks, 0);
        assert!(dm.stats().to_json().contains("\"cactus_rebuilds\""));
        assert!(dm.stats().to_json().contains("\"cactus_repairs\""));
    }

    #[test]
    fn unchanged_family_keeps_the_shared_cactus() {
        // Two K5s (weight 3) joined by two unit bridges: λ = 2, the
        // community split, unique. Deleting an intra-clique edge leaves
        // its endpoints 3 · 3 = 9 > λ apart: the u–v flow certifies the
        // family unchanged, and readers keep sharing the same cactus.
        let (g, l) = known::two_communities(5, 5, 2, 3, 1);
        let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
        dm.enable_cactus().unwrap();
        let before = Arc::clone(dm.cactus().unwrap());
        assert!(before.same_node(2, 3));
        let r = dm.apply(&TraceOp::Delete { u: 2, v: 3 }).unwrap();
        assert_eq!((r.lambda, r.resolved), (l, false));
        assert!(Arc::ptr_eq(&before, dm.cactus().unwrap()), "no new cactus");
        let s = dm.stats();
        assert_eq!(
            (s.flow_deletes, s.cactus_repairs, s.cactus_rebuilds),
            (1, 1, 1)
        );
    }

    #[test]
    fn rebuild_only_mode_maintains_the_identical_structure() {
        // The A/B knob: with repair off every structure-crossing update
        // rebuilds, and the maintained family must be identical.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let mut on = DynamicMinCut::new(g.clone(), "noi-viecut", SolveOptions::new()).unwrap();
        let mut off = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new()).unwrap();
        on.enable_cactus().unwrap();
        off.enable_cactus().unwrap();
        off.set_cactus_repair(false);
        for op in [
            TraceOp::Insert { u: 0, v: 2, w: 5 },
            TraceOp::Delete { u: 1, v: 2 },
            TraceOp::Insert { u: 1, v: 3, w: 1 },
        ] {
            on.apply(&op).unwrap();
            off.apply(&op).unwrap();
            assert_eq!(on.lambda(), off.lambda(), "{op:?}");
            assert_eq!(
                on.cactus().unwrap().enumerate_min_cuts(usize::MAX),
                off.cactus().unwrap().enumerate_min_cuts(usize::MAX),
                "{op:?}"
            );
        }
        assert!(on.stats().cactus_repairs > 0, "repair mode repaired");
        assert_eq!(off.stats().cactus_repairs, 0, "rebuild-only never repairs");
        assert_eq!(off.stats().repair_fallbacks, 0, "no attempts counted");
    }

    #[test]
    fn rebuild_clears_poison_and_resumes_service() {
        let (g, l) = known::two_communities(6, 6, 1, 2, 1); // bridge (0,6)
        let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
        dm.enable_cactus().unwrap();
        assert_eq!(dm.lambda(), l);

        // Poison: the crossing insert mutates, then the re-solve trips
        // on the zero budget.
        dm.options_mut().time_budget = Some(std::time::Duration::ZERO);
        dm.insert_edge(1, 7, 1).unwrap_err();
        assert!(dm.poisoned().is_some());
        assert!(dm.check_consistent().is_err());

        // Fix the cause, rebuild from the current graph: poison clears,
        // λ reflects the stuck mutation, and service resumes — cactus
        // included.
        dm.options_mut().time_budget = None;
        let report = dm.rebuild().unwrap();
        assert!(dm.poisoned().is_none());
        assert_eq!(report.lambda, l + 1, "the poisoned insert did stick");
        assert_eq!(dm.lambda(), l + 1);
        assert_eq!(dm.graph().cut_value(dm.witness()), l + 1);
        assert!(dm.count_min_cuts().unwrap() >= 1);
        let r = dm.insert_edge(2, 8, 1).unwrap();
        assert_eq!(r.lambda, l + 2, "subsequent updates serve again");

        // A rebuild that fails re-poisons instead of serving stale state.
        dm.options_mut().time_budget = Some(std::time::Duration::ZERO);
        dm.insert_edge(3, 9, 1).unwrap_err();
        assert!(dm.rebuild().is_err(), "zero budget still fails");
        assert!(dm.poisoned().is_some());
    }

    #[test]
    fn unknown_solver_fails_at_construction() {
        let (g, _) = known::cycle_graph(4, 1);
        assert!(matches!(
            DynamicMinCut::new(g.clone(), "no-such-solver", SolveOptions::new()),
            Err(MinCutError::UnknownSolver { .. })
        ));
        // VieCut's value is only an upper bound: maintaining it would
        // serve a λ that may be wrong.
        assert!(matches!(
            DynamicMinCut::new(g, "viecut", SolveOptions::new()),
            Err(MinCutError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn too_few_vertices_fails_at_construction() {
        let g = CsrGraph::from_edges(1, &[]);
        assert!(matches!(
            DynamicMinCut::new(g, "noi", SolveOptions::new()),
            Err(MinCutError::TooFewVertices { n: 1 })
        ));
    }
}
