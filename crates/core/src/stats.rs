//! Per-run telemetry: the `SolverStats` report carried by every
//! [`SolveOutcome`](crate::SolveOutcome).
//!
//! The paper's evaluation is an argument about *where the work goes* —
//! priority-queue operations saved by the λ̂ cap (§3.1.2), contractions
//! unlocked by the VieCut bound (§3.1.1), bound improvements per pass.
//! These counters make that measurable on every run instead of only
//! inside the bench harness: the λ̂ trajectory, contraction and rescue
//! counts, PQ operation totals (harvested from the drivers'
//! [`mincut_ds::CountingPq`] instances), per-pass kernelization counters
//! and named phase timings. Where each contraction round's time goes is
//! the `contract/round` span's business, not this report's.

use std::time::Instant;

use mincut_ds::PqCounters;
use mincut_graph::EdgeWeight;

use crate::error::MinCutError;
use crate::options::SolveOptions;

/// Wall-clock share of one named stage of a run (e.g. `"viecut"` seeding
/// vs. the exact `"noi"` loop).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTiming {
    pub name: &'static str,
    pub seconds: f64,
}

/// Telemetry of one kernelization pass across all its rounds (the
/// reduction pipeline's per-pass share of the shrink).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReductionPassStats {
    /// Pass name as registered (`components`, `degree-bound`,
    /// `heavy-edge`, `padberg-rinaldi`).
    pub name: &'static str,
    /// Times the pass ran (the pipeline loops to a fixpoint).
    pub rounds: u64,
    /// Vertices removed by this pass's contractions, summed over rounds.
    pub vertices_removed: u64,
    /// Edges removed likewise (merged parallel edges count as removed).
    pub edges_removed: u64,
    /// Wall-clock spent in the pass, summed over rounds.
    pub seconds: f64,
}

impl ReductionPassStats {
    pub fn new(name: &'static str) -> Self {
        ReductionPassStats {
            name,
            ..Default::default()
        }
    }
}

/// Telemetry for a single solver run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolverStats {
    /// Fully-qualified instance name, e.g. `NOIλ̂-BQueue-VieCut`.
    pub algorithm: String,
    /// Input size (vertices, edges).
    pub n: usize,
    pub m: usize,
    /// Every distinct value λ̂ took, best-first improvements in run order.
    /// The first entry is the initial bound (trivial degree cut or the
    /// supplied/VieCut bound), the last the returned cut value.
    pub lambda_trajectory: Vec<EdgeWeight>,
    /// Outer contraction rounds (CAPFOREST passes, VieCut levels, …).
    pub rounds: u64,
    /// Vertices removed by contraction across all rounds.
    pub contracted_vertices: u64,
    /// Stoer–Wagner rescue phases taken when a scan marked nothing.
    pub sw_rescues: u64,
    /// Priority-queue operation totals (pushes / raises / pops) across
    /// the run, including parallel workers.
    pub pq_ops: PqCounters,
    /// Named sub-phase timings.
    pub phases: Vec<PhaseTiming>,
    /// Per-pass kernelization telemetry (empty when reductions are off).
    pub reductions: Vec<ReductionPassStats>,
    /// Kernel size the solver actually ran on after kernelization.
    /// `(0, 0)` when no kernelization happened (reductions off, or the
    /// run never reached the pipeline) — check `reductions.is_empty()`
    /// to tell the modes apart.
    pub kernel_n: usize,
    pub kernel_m: usize,
    /// End-to-end wall-clock of `Solver::solve`.
    pub total_seconds: f64,
}

impl SolverStats {
    pub fn new(algorithm: String, n: usize, m: usize) -> Self {
        SolverStats {
            algorithm,
            n,
            m,
            ..Default::default()
        }
    }

    /// Records a λ̂ value. After the first entry only *improvements* are
    /// kept, so the vector reads as a strictly decreasing trajectory —
    /// a kernel solver re-deriving its own (worse) starting bound on the
    /// contracted graph does not pollute the record.
    pub fn record_lambda(&mut self, value: EdgeWeight) {
        if self.lambda_trajectory.last().is_none_or(|&l| value < l) {
            self.lambda_trajectory.push(value);
        }
    }

    /// Accumulates harvested priority-queue counters.
    pub fn add_pq_ops(&mut self, c: PqCounters) {
        self.pq_ops.add(c);
    }

    /// Absorbs the work counters of a nested run (e.g. VieCut's exact
    /// solve of the collapsed remainder) without adopting its λ̂
    /// trajectory, which concerns a different graph.
    pub fn absorb_work(&mut self, nested: &SolverStats) {
        self.rounds += nested.rounds;
        self.contracted_vertices += nested.contracted_vertices;
        self.sw_rescues += nested.sw_rescues;
        self.add_pq_ops(nested.pq_ops);
    }

    /// Serializes the report as a single JSON object (no dependencies on
    /// a JSON crate in this offline build).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        push_json_str(&mut s, "algorithm", &self.algorithm);
        s.push_str(&format!(
            "\"n\":{},\"m\":{},\"rounds\":{},\"contracted_vertices\":{},\"sw_rescues\":{},",
            self.n, self.m, self.rounds, self.contracted_vertices, self.sw_rescues
        ));
        s.push_str("\"lambda_trajectory\":[");
        for (i, l) in self.lambda_trajectory.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&l.to_string());
        }
        s.push_str("],");
        s.push_str(&format!(
            "\"pq_ops\":{{\"pushes\":{},\"raises\":{},\"pops\":{},\"total\":{}}},",
            self.pq_ops.pushes,
            self.pq_ops.raises,
            self.pq_ops.pops,
            self.pq_ops.total()
        ));
        s.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_json_str(&mut s, "name", p.name);
            s.push_str(&format!("\"seconds\":{:.9}}}", p.seconds));
        }
        s.push_str("],");
        s.push_str(&format!(
            "\"kernel_n\":{},\"kernel_m\":{},",
            self.kernel_n, self.kernel_m
        ));
        s.push_str("\"reductions\":[");
        for (i, r) in self.reductions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_json_str(&mut s, "name", r.name);
            s.push_str(&format!(
                "\"rounds\":{},\"vertices_removed\":{},\"edges_removed\":{},\"seconds\":{:.9}}}",
                r.rounds, r.vertices_removed, r.edges_removed, r.seconds
            ));
        }
        s.push_str("],");
        s.push_str(&format!("\"total_seconds\":{:.9}", self.total_seconds));
        s.push('}');
        s
    }
}

/// Build-time telemetry of one cactus construction (carried by
/// [`Cactus`](crate::cactus::Cactus) and surfaced in its JSON summary).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CactusStats {
    /// Input size the cactus was built for.
    pub n: usize,
    pub m: usize,
    pub lambda: EdgeWeight,
    /// Minimum cuts enumerated (0 for the λ = 0 structural family).
    pub cuts: u64,
    /// Vertex classes — vertices never separated by any minimum cut
    /// (λ = 0: connected components).
    pub classes: usize,
    /// Vertices of the kernel the enumeration flows ran on: the graph
    /// after contracting every edge a λ + 1 CAPFOREST pass certifies
    /// (0 when λ = 0, which enumerates nothing).
    pub kernel_n: usize,
    /// Wall-clock of the λ solve (0 when λ was supplied).
    pub solve_seconds: f64,
    /// Wall-clock of the all-min-cuts enumeration.
    pub enumerate_seconds: f64,
    /// Wall-clock of structure assembly plus the bijection validation.
    pub build_seconds: f64,
}

impl CactusStats {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"n\":{},\"m\":{},\"lambda\":{},\"cuts\":{},\"classes\":{},\"kernel_n\":{},\
             \"solve_seconds\":{:.9},\"enumerate_seconds\":{:.9},\"build_seconds\":{:.9}}}",
            self.n,
            self.m,
            self.lambda,
            self.cuts,
            self.classes,
            self.kernel_n,
            self.solve_seconds,
            self.enumerate_seconds,
            self.build_seconds
        )
    }
}

fn push_json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&json_string(value));
    out.push(',');
}

/// Renders `s` as a quoted, escaped JSON string literal — the one
/// escaper shared by every hand-rolled JSON emitter in the workspace
/// (this offline build carries no JSON crate).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mutable run context threaded through the instrumented algorithm
/// drivers: the stats sink, the optional deadline, and the width every
/// parallel loop of the run uses.
pub struct SolveContext<'a> {
    pub stats: &'a mut SolverStats,
    pub deadline: Option<Instant>,
    /// The budget that produced `deadline` (for error reporting).
    pub budget: Option<std::time::Duration>,
    /// Worker count of every parallel layer ([`SolveOptions::threads`]).
    pub threads: usize,
}

impl<'a> SolveContext<'a> {
    /// A context without a deadline, at the hardware width.
    pub fn new(stats: &'a mut SolverStats) -> Self {
        SolveContext {
            stats,
            deadline: None,
            budget: None,
            threads: mincut_ds::par::hardware_threads(),
        }
    }

    /// The context of a solve under `opts`: its time budget, starting
    /// now, and its width.
    pub fn for_options(stats: &'a mut SolverStats, opts: &SolveOptions) -> Self {
        SolveContext {
            stats,
            deadline: opts.time_budget.map(|b| Instant::now() + b),
            budget: opts.time_budget,
            threads: opts.threads,
        }
    }

    /// Fails the run when the deadline has passed. Called between outer
    /// rounds, so overruns are bounded by one round's work.
    pub fn check_budget(&self) -> Result<(), MinCutError> {
        match self.deadline {
            Some(d) if Instant::now() > d => Err(MinCutError::TimeBudgetExceeded {
                budget: self.budget.unwrap_or_default(),
            }),
            _ => Ok(()),
        }
    }

    /// Runs `f` on this context and records its wall time as phase
    /// `name`.
    pub(crate) fn time_phase<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut SolveContext<'_>) -> T,
    ) -> T {
        let t0 = Instant::now();
        let result = f(self);
        self.stats.phases.push(PhaseTiming {
            name,
            seconds: t0.elapsed().as_secs_f64(),
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_trajectory_collapses_duplicates() {
        let mut s = SolverStats::new("x".into(), 4, 4);
        s.record_lambda(10);
        s.record_lambda(10);
        s.record_lambda(7);
        s.record_lambda(7);
        s.record_lambda(3);
        assert_eq!(s.lambda_trajectory, vec![10, 7, 3]);
    }

    #[test]
    fn json_is_well_formed_and_escapes() {
        let mut s = SolverStats::new("NOIλ̂-\"Heap\"".into(), 10, 20);
        s.record_lambda(5);
        SolveContext::new(&mut s).time_phase("noi", |_| ());
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"Heap\\\""));
        assert!(j.contains("\"lambda_trajectory\":[5]"));
        assert!(j.contains("\"phases\":[{\"name\":\"noi\""));
    }

    #[test]
    fn budget_check_trips_after_deadline() {
        let mut s = SolverStats::default();
        let opts = SolveOptions::new().time_budget(std::time::Duration::ZERO);
        let ctx = SolveContext::for_options(&mut s, &opts);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            ctx.check_budget(),
            Err(MinCutError::TimeBudgetExceeded { .. })
        ));
        let mut s2 = SolverStats::default();
        let ctx2 = SolveContext::new(&mut s2);
        assert!(ctx2.check_budget().is_ok());
    }
}
