//! The `rhg_stream` request path: register the packed graph with the
//! cactus on, then replay the trace through the same `MinCutService`
//! calls `mincut --stream --cactus` makes, timing every op in-process.

use std::path::Path;
use std::time::Instant;

use sm_mincut::obs;
use sm_mincut::{
    load_pack, materialize, CactusBuilder, CsrGraph, DeltaGraph, DynamicHandle, EdgeWeight,
    MinCutService, ServiceConfig, TraceOp,
};

use crate::cpu::process_cpu_s;
use crate::inputs::{request_options, Workload};

/// A registered stream, ready for its first op.
pub struct Hosted {
    pub service: MinCutService,
    pub handle: DynamicHandle,
    /// `load_pack` + `register_dynamic_with_cactus`, seconds.
    pub setup_s: f64,
    pub lambda: EdgeWeight,
}

pub fn load(pack: &Path) -> Result<CsrGraph, String> {
    let _sp = obs::span("bench/load_pack");
    load_pack(pack).map_err(|e| format!("cannot load {}: {e}", pack.display()))
}

/// Loads the pack and registers it with cactus maintenance on.
pub fn setup(pack: &Path) -> Result<Hosted, String> {
    let t0 = Instant::now();
    let g = load(pack)?;
    let service = MinCutService::new(ServiceConfig::new());
    let handle = {
        let _sp = obs::span("bench/register_dynamic_with_cactus");
        service
            .register_dynamic_with_cactus(g, Workload::RhgStream.solver(), request_options())
            .map_err(|e| format!("register failed: {e}"))?
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let (lambda, _) = service
        .dynamic_lambda(handle)
        .map_err(|e| format!("initial lambda: {e}"))?;
    Ok(Hosted {
        service,
        handle,
        setup_s,
        lambda,
    })
}

/// Op classes reported separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Delete,
    Read,
}

/// Timings of one replay of the whole trace.
#[derive(Default)]
pub struct Replay {
    /// `(kind, wall seconds)` per op, in trace order.
    pub ops: Vec<(Kind, f64)>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub failed: usize,
}

/// Applies one op the way `mincut --stream --cactus` serves it: every
/// op goes through `dynamic_update`; `qc` also fetches the cactus and
/// `qs` asks for the separating cut.
fn apply(h: &Hosted, op: &TraceOp) -> Result<(), String> {
    let _sp = obs::span("bench/dynamic_update");
    let s = &h.service;
    s.dynamic_update(h.handle, op).map_err(|e| e.to_string())?;
    match *op {
        TraceOp::QueryCount => {
            let (cactus, _) = s.dynamic_cactus(h.handle).map_err(|e| e.to_string())?;
            std::hint::black_box(cactus.count_min_cuts());
        }
        TraceOp::QuerySeparating { u, v } => {
            let cut = s
                .min_cuts_separating_many(h.handle, &[(u, v)])
                .map_err(|e| e.to_string())?;
            std::hint::black_box(cut);
        }
        _ => {}
    }
    Ok(())
}

pub fn replay(h: &Hosted, ops: &[TraceOp]) -> Replay {
    let mut out = Replay {
        ops: Vec::with_capacity(ops.len()),
        ..Default::default()
    };
    let (t0, c0) = (Instant::now(), process_cpu_s());
    for op in ops {
        let kind = match op {
            TraceOp::Insert { .. } => Kind::Insert,
            TraceOp::Delete { .. } => Kind::Delete,
            _ => Kind::Read,
        };
        let t = Instant::now();
        let ok = apply(h, op).is_ok();
        out.ops.push((kind, t.elapsed().as_secs_f64()));
        out.failed += usize::from(!ok);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - c0;
    out
}

/// The final state checked against a from-scratch cactus of the same
/// graph, replayed independently on a `DeltaGraph` and materialized.
pub fn check_final(h: &Hosted, pack: &Path, ops: &[TraceOp]) -> Result<(), String> {
    let mut g = DeltaGraph::new(load_pack(pack).map_err(|e| e.to_string())?);
    for op in ops {
        match *op {
            TraceOp::Insert { u, v, w } => g.insert_edge(u, v, w),
            TraceOp::Delete { u, v } => {
                g.delete_edge(u, v);
            }
            _ => {}
        }
    }
    let fresh = CactusBuilder::new()
        .options(request_options())
        .build(&materialize(&g))
        .map_err(|e| format!("reference cactus: {e}"))?;
    let (lambda, _) = h
        .service
        .dynamic_lambda(h.handle)
        .map_err(|e| e.to_string())?;
    let (cactus, _) = h
        .service
        .dynamic_cactus(h.handle)
        .map_err(|e| e.to_string())?;
    if lambda != fresh.lambda() || cactus.count_min_cuts() != fresh.count_min_cuts() {
        return Err(format!(
            "maintained (lambda {lambda}, {} cuts) != from scratch (lambda {}, {} cuts)",
            cactus.count_min_cuts(),
            fresh.lambda(),
            fresh.count_min_cuts()
        ));
    }
    Ok(())
}
