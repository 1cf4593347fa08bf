//! [`SolverRegistry`]: the single source of algorithm names.
//!
//! Every driver resolves solvers here — [`Session`](crate::Session), the
//! `mincut` CLI's `-a` flag, the batch service, the bench harness and
//! the solver-matrix tests. Canonical names are
//! the paper's §4.1 spellings (`NOIλ̂-VieCut`, `ParCutλ̂`, `HO-CGKLS`,
//! …); aliases cover the CLI spellings (`noi-viecut`, `parcut`,
//! `hao-orlin`). Queue-pinned spellings (`NOIλ̂-BStack`,
//! `noi-bqueue-viecut`, `parcutλ̂-heap`) resolve to the family with that
//! queue pinned, overriding [`SolveOptions::pq`].

use std::sync::OnceLock;

use mincut_ds::PqKind;
use mincut_graph::CsrGraph;

use crate::error::MinCutError;
use crate::noi::{noi_minimum_cut_connected, NoiParams};
use crate::options::SolveOptions;
use crate::parallel::mincut::parallel_minimum_cut_connected;
use crate::solver::{Capabilities, Guarantee, Solver};
use crate::stats::SolveContext;
use crate::stoer_wagner::stoer_wagner_connected;
use crate::viecut::viecut_connected;
use crate::MinCutResult;

/// One registered solver family.
pub struct SolverEntry {
    /// Paper-style canonical name (§4.1).
    pub canonical: &'static str,
    /// CLI spellings and shorthands.
    pub aliases: &'static [&'static str],
    /// One-line description for `--help` output.
    pub summary: &'static str,
    ctor: fn(Option<PqKind>) -> Box<dyn Solver>,
}

impl SolverEntry {
    /// Instantiates the family, optionally pinning its queue.
    pub fn instantiate(&self, pin_pq: Option<PqKind>) -> Box<dyn Solver> {
        (self.ctor)(pin_pq)
    }

    /// The family's [`Solver::capabilities`], its one declaration.
    pub fn caps(&self) -> Capabilities {
        self.instantiate(None).capabilities()
    }
}

/// The name → solver mapping. Use [`SolverRegistry::global`].
pub struct SolverRegistry {
    entries: Vec<SolverEntry>,
}

impl SolverRegistry {
    /// The process-wide registry of every built-in solver.
    pub fn global() -> &'static SolverRegistry {
        static REGISTRY: OnceLock<SolverRegistry> = OnceLock::new();
        REGISTRY.get_or_init(SolverRegistry::builtin)
    }

    /// All entries, in the paper's presentation order — the single
    /// source of algorithm names for every driver.
    pub fn entries(&self) -> impl Iterator<Item = &SolverEntry> {
        self.entries.iter()
    }

    /// Canonical names of every registered family.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.canonical).collect()
    }

    /// Every runnable (family × queue) instance: one solver per family,
    /// expanded over all three queues for families that read
    /// [`SolveOptions::pq`]. This is the full matrix the paper's
    /// evaluation sweeps; test drivers iterate it instead of keeping
    /// hand-listed vectors.
    pub fn instances(&self) -> Vec<Box<dyn Solver>> {
        let mut v: Vec<Box<dyn Solver>> = Vec::new();
        for entry in &self.entries {
            if entry.caps().uses_pq {
                for pq in PqKind::ALL {
                    v.push(entry.instantiate(Some(pq)));
                }
            } else {
                v.push(entry.instantiate(None));
            }
        }
        v
    }

    /// Looks up an entry by canonical name or alias (case-insensitive;
    /// `λ̂` may be spelled `l` or `lambda`).
    pub fn entry(&self, name: &str) -> Option<&SolverEntry> {
        let wanted = normalize(name);
        self.entries.iter().find(|e| {
            normalize(e.canonical) == wanted || e.aliases.iter().any(|a| normalize(a) == wanted)
        })
    }

    /// Resolves a name to a ready-to-run solver.
    ///
    /// Accepts canonical names (`NOIλ̂-VieCut`), aliases (`noi-viecut`)
    /// and queue-pinned spellings (`NOIλ̂-BStack-VieCut`, `noi-bqueue`):
    /// a `bstack`/`bqueue`/`heap` token anywhere in the name pins that
    /// queue for the run.
    pub fn resolve(&self, name: &str) -> Result<Box<dyn Solver>, MinCutError> {
        if let Some(e) = self.entry(name) {
            return Ok(e.instantiate(None));
        }
        // Queue-pinned spelling: strip the queue token, resolve the rest.
        let normalized = normalize(name);
        let mut pq = None;
        let stripped: Vec<&str> = normalized
            .split('-')
            .filter(|tok| match *tok {
                "bstack" => {
                    pq = Some(PqKind::BStack);
                    false
                }
                "bqueue" => {
                    pq = Some(PqKind::BQueue);
                    false
                }
                "heap" => {
                    pq = Some(PqKind::Heap);
                    false
                }
                _ => true,
            })
            .collect();
        if let Some(pin) = pq {
            if let Some(e) = self.entry(&stripped.join("-")) {
                if e.caps().uses_pq {
                    return Ok(e.instantiate(Some(pin)));
                }
            }
        }
        Err(MinCutError::UnknownSolver {
            name: name.to_string(),
            known: self.names().iter().map(|s| s.to_string()).collect(),
        })
    }

    /// [`resolve`](Self::resolve) for the drivers that build on λ itself,
    /// the cactus and dynamic maintenance: a solver whose value is only an
    /// upper bound is [`MinCutError::InvalidOptions`].
    pub(crate) fn resolve_exact(&self, name: &str) -> Result<Box<dyn Solver>, MinCutError> {
        let solver = self.resolve(name)?;
        if !solver.capabilities().guarantee.is_exact() {
            return Err(MinCutError::InvalidOptions {
                message: format!(
                    "the cactus and dynamic maintenance need an exact solver; {name:?} is not"
                ),
            });
        }
        Ok(solver)
    }

    fn builtin() -> Self {
        let entries = vec![
            SolverEntry {
                canonical: "NOI-HNSS",
                aliases: &["noi-hnss", "hnss"],
                summary: "NOI with an unbounded binary heap (Henzinger-Noe-Schulz-Strash baseline)",
                ctor: |_| {
                    Box::new(NoiSolver {
                        bounded: false,
                        seed_with_viecut: false,
                        pinned_seed: None,
                        pin_pq: Some(PqKind::Heap),
                        family: "NOI-HNSS",
                    })
                },
            },
            SolverEntry {
                canonical: "NOI-CGKLS",
                aliases: &["noi-cgkls"],
                summary: "NOI comparator with deterministic start selection (Chekuri et al. style)",
                ctor: |_| {
                    Box::new(NoiSolver {
                        bounded: false,
                        seed_with_viecut: false,
                        pinned_seed: Some(0),
                        pin_pq: Some(PqKind::Heap),
                        family: "NOI-CGKLS",
                    })
                },
            },
            SolverEntry {
                canonical: "NOI-HNSS-VieCut",
                aliases: &["noi-hnss-viecut"],
                summary: "NOI-HNSS seeded with the VieCut bound",
                ctor: |_| {
                    Box::new(NoiSolver {
                        bounded: false,
                        seed_with_viecut: true,
                        pinned_seed: None,
                        pin_pq: Some(PqKind::Heap),
                        family: "NOI-HNSS-VieCut",
                    })
                },
            },
            SolverEntry {
                canonical: "NOIλ̂",
                aliases: &["noi", "noi-bounded"],
                summary: "NOI with priorities capped at λ̂ (§3.1.2); queue from options or name",
                ctor: |pin| {
                    Box::new(NoiSolver {
                        bounded: true,
                        seed_with_viecut: false,
                        pinned_seed: None,
                        pin_pq: pin,
                        family: "NOIλ̂",
                    })
                },
            },
            SolverEntry {
                canonical: "NOIλ̂-VieCut",
                aliases: &["noi-viecut"],
                summary:
                    "NOIλ̂ seeded with the VieCut bound — the paper's fastest sequential variant",
                ctor: |pin| {
                    Box::new(NoiSolver {
                        bounded: true,
                        seed_with_viecut: true,
                        pinned_seed: None,
                        pin_pq: pin,
                        family: "NOIλ̂-VieCut",
                    })
                },
            },
            SolverEntry {
                canonical: "ParCutλ̂",
                aliases: &["parcut"],
                summary: "Shared-memory parallel exact solver (Algorithm 2)",
                ctor: |pin| Box::new(ParCutSolver { pin_pq: pin }),
            },
            SolverEntry {
                canonical: "StoerWagner",
                aliases: &["stoer-wagner", "sw"],
                summary: "Stoer-Wagner comparator (n-1 maximum-adjacency phases)",
                ctor: |_| Box::new(StoerWagnerSolver),
            },
            SolverEntry {
                canonical: "HO-CGKLS",
                aliases: &["hao-orlin", "ho"],
                summary: "Hao-Orlin flow-based comparator",
                ctor: |_| Box::new(HaoOrlinSolver),
            },
            SolverEntry {
                canonical: "GomoryHu",
                aliases: &["gomory-hu"],
                summary: "Gomory-Hu cut tree (n-1 max-flows; yields all pairwise min cuts)",
                ctor: |_| Box::new(GomoryHuSolver),
            },
            SolverEntry {
                canonical: "VieCut",
                aliases: &["viecut"],
                summary: "Multilevel heuristic upper bound (usually exact in practice)",
                ctor: |_| Box::new(VieCutSolver),
            },
        ];
        SolverRegistry { entries }
    }
}

fn caps_exact(uses_pq: bool, uses_initial_bound: bool) -> Capabilities {
    Capabilities {
        guarantee: Guarantee::Exact,
        uses_pq,
        uses_initial_bound,
    }
}

/// Lowercases and canonicalizes `λ̂`/`λ` to `l` so that `NOIλ̂-VieCut`,
/// `noil-viecut` and `NOILAMBDA-VIECUT` all match.
fn normalize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'λ' => out.push('l'),
            '\u{0302}' => {} // combining circumflex of λ̂
            c => out.extend(c.to_lowercase()),
        }
    }
    // Collapse the long spelling.
    out.replace("lambda", "l")
}

// ---------------------------------------------------------------------
// Solver family implementations.
// ---------------------------------------------------------------------

struct NoiSolver {
    bounded: bool,
    seed_with_viecut: bool,
    /// `NOI-CGKLS` pins its seed for deterministic start selection.
    pinned_seed: Option<u64>,
    pin_pq: Option<PqKind>,
    family: &'static str,
}

impl NoiSolver {
    fn effective_pq(&self, opts: &SolveOptions) -> PqKind {
        self.pin_pq.unwrap_or(opts.pq)
    }
}

impl Solver for NoiSolver {
    fn name(&self) -> &'static str {
        self.family
    }

    fn capabilities(&self) -> Capabilities {
        caps_exact(self.bounded, true)
    }

    fn instance_name(&self, opts: &SolveOptions) -> String {
        if self.bounded {
            let pq = self.effective_pq(opts);
            if self.seed_with_viecut {
                format!("NOIλ̂-{pq}-VieCut")
            } else {
                format!("NOIλ̂-{pq}")
            }
        } else {
            self.family.to_string()
        }
    }

    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError> {
        let seed = self.pinned_seed.unwrap_or(opts.seed);
        let mut initial_bound = opts.initial_bound.clone();
        if self.seed_with_viecut {
            let vc = ctx.time_phase("viecut", |inner| {
                viecut_connected(g, seed, opts.witness, inner)
            })?;
            let better = match &initial_bound {
                Some((b, _)) if *b <= vc.value => true,
                Some(_) | None => false,
            };
            if !better {
                initial_bound = Some((vc.value, vc.side));
            }
        }
        let params = NoiParams {
            pq: self.effective_pq(opts),
            bounded: self.bounded,
            initial_bound,
            compute_side: opts.witness,
            seed,
        };
        ctx.time_phase("noi", |inner| noi_minimum_cut_connected(g, params, inner))
    }
}

struct ParCutSolver {
    pin_pq: Option<PqKind>,
}

impl Solver for ParCutSolver {
    fn name(&self) -> &'static str {
        "ParCutλ̂"
    }

    fn capabilities(&self) -> Capabilities {
        caps_exact(true, false)
    }

    fn instance_name(&self, opts: &SolveOptions) -> String {
        let pq = self.pin_pq.unwrap_or(opts.pq);
        format!("ParCutλ̂-{pq}(p={})", opts.threads)
    }

    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError> {
        parallel_minimum_cut_connected(g, opts, self.pin_pq.unwrap_or(opts.pq), ctx)
    }
}

struct StoerWagnerSolver;

impl Solver for StoerWagnerSolver {
    fn name(&self) -> &'static str {
        "StoerWagner"
    }

    fn capabilities(&self) -> Capabilities {
        caps_exact(false, false)
    }

    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError> {
        let mut r = stoer_wagner_connected(g, ctx)?;
        if !opts.witness {
            r.side = None;
        }
        Ok(r)
    }
}

struct HaoOrlinSolver;

impl Solver for HaoOrlinSolver {
    fn name(&self) -> &'static str {
        "HO-CGKLS"
    }

    fn capabilities(&self) -> Capabilities {
        caps_exact(false, false)
    }

    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError> {
        // The flow comparator runs monolithically in `mincut-flow`:
        // the budget is only enforceable before it starts.
        ctx.check_budget()?;
        let r = mincut_flow::hao_orlin(g);
        Ok(MinCutResult {
            value: r.value,
            side: opts.witness.then_some(r.side),
        })
    }
}

struct GomoryHuSolver;

impl Solver for GomoryHuSolver {
    fn name(&self) -> &'static str {
        "GomoryHu"
    }

    fn capabilities(&self) -> Capabilities {
        caps_exact(false, false)
    }

    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError> {
        // The tree construction (n-1 max-flows) runs monolithically in
        // `mincut-flow`: the budget is only enforceable before it starts.
        ctx.check_budget()?;
        let tree = mincut_flow::GomoryHuTree::build(g);
        let (value, side) = tree.global_min_cut();
        Ok(MinCutResult {
            value,
            side: opts.witness.then(|| side.to_vec()),
        })
    }
}

struct VieCutSolver;

impl Solver for VieCutSolver {
    fn name(&self) -> &'static str {
        "VieCut"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            guarantee: Guarantee::UpperBound,
            uses_pq: false,
            uses_initial_bound: false,
        }
    }

    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError> {
        viecut_connected(g, opts.seed, opts.witness, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_aliases_and_pinned_spellings_resolve() {
        let r = SolverRegistry::global();
        for name in [
            "NOIλ̂-VieCut",
            "noi-viecut",
            "NOIl-VieCut",
            "noilambda-viecut",
            "NOI-HNSS",
            "hnss",
            "parcut",
            "ParCutλ̂",
            "stoer-wagner",
            "hao-orlin",
            "gomory-hu",
            "viecut",
            "noi-bstack",
            "NOIλ̂-BQueue",
            "noi-heap-viecut",
            "NOIλ̂-BStack-VieCut",
            "parcut-bqueue",
        ] {
            assert!(r.resolve(name).is_ok(), "{name} must resolve");
        }
    }

    #[test]
    fn unknown_names_error_with_known_list() {
        // Only exact solvers and VieCut are registered: Matula's
        // approximation and Karger–Stein are unknown names.
        for wanted in ["nope", "matula", "karger-stein", "ks"] {
            match SolverRegistry::global().resolve(wanted).unwrap_err() {
                MinCutError::UnknownSolver { name, known } => {
                    assert_eq!(name, wanted);
                    assert_eq!(
                        known,
                        [
                            "NOI-HNSS",
                            "NOI-CGKLS",
                            "NOI-HNSS-VieCut",
                            "NOIλ̂",
                            "NOIλ̂-VieCut",
                            "ParCutλ̂",
                            "StoerWagner",
                            "HO-CGKLS",
                            "GomoryHu",
                            "VieCut",
                        ]
                    );
                }
                other => panic!("{wanted}: wrong error: {other:?}"),
            }
        }
    }

    #[test]
    fn queue_pins_are_rejected_for_queue_free_families() {
        // Stoer-Wagner has no priority-queue knob: a queue-pinned
        // spelling must not silently resolve.
        assert!(SolverRegistry::global()
            .resolve("stoer-wagner-bstack")
            .is_err());
    }

    #[test]
    fn every_entry_instantiates_with_matching_name() {
        for e in SolverRegistry::global().entries() {
            assert_eq!(e.instantiate(None).name(), e.canonical);
            if e.caps().uses_pq {
                for pq in PqKind::ALL {
                    let pinned = e.instantiate(Some(pq));
                    assert_eq!(pinned.name(), e.canonical);
                    assert_eq!(
                        pinned.capabilities(),
                        e.caps(),
                        "a queue pin keeps the caps"
                    );
                }
            }
        }
    }
}
