//! Property tests: every priority queue implementation against an
//! executable reference model — a linear scan over the live entries that
//! also keeps an *entry clock*.
//!
//! A push enters a bucket, and so does a raise that changes the priority;
//! a raise to the same priority does not. Among the live entries of
//! maximum priority, BStack must pop the one that entered its bucket
//! last and BQueue the one that entered first. The bucket queues are
//! therefore pinned to the exact popped *vertex* on every pop and on the
//! final drain — the tie order that decides which edges CAPFOREST
//! contracts (§3.1.3). The heap promises only a maximum-priority pop and
//! is checked for exactly that. Sequences include epoch resets (reuse is
//! the intrusive queues' whole point).

use mincut_ds::{BQueuePq, BStackPq, BinaryHeapPq, MaxPq};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Push or raise vertex `v` by `delta` (emulating CAPFOREST's r += c(e)).
    Bump { v: u8, delta: u16 },
    /// Pop the maximum.
    Pop,
    /// Reset the queue (reuse across CAPFOREST passes): everything
    /// queued vanishes, the priority range may change.
    Reset { cap: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => (any::<u8>(), 1u16..500).prop_map(|(v, delta)| Op::Bump { v, delta }),
        4 => Just(Op::Pop),
        1 => (1u16..5000).prop_map(|cap| Op::Reset { cap: cap.max(1) }),
    ]
}

/// Which live entry of maximum priority a queue must pop.
#[derive(Clone, Copy, Debug)]
enum Tie {
    /// The one that entered its bucket last (BStack).
    Lifo,
    /// The one that entered its bucket first (BQueue).
    Fifo,
    /// Any of them (the heap): only the priority is checked.
    Any,
}

/// Reference model: linear scan over live entries plus an entry clock.
struct Model {
    prio: Vec<u64>,
    state: Vec<u8>, // 0 = never seen, 1 = queued, 2 = popped
    /// Clock value at which each vertex last entered a bucket.
    entered: Vec<u64>,
    clock: u64,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            prio: vec![0; n],
            state: vec![0; n],
            entered: vec![0; n],
            clock: 0,
        }
    }

    fn enter(&mut self, v: usize) {
        self.clock += 1;
        self.entered[v] = self.clock;
    }

    fn push(&mut self, v: usize, p: u64) {
        self.prio[v] = p;
        self.state[v] = 1;
        self.enter(v);
    }

    fn raise(&mut self, v: usize, p: u64) {
        if p != self.prio[v] {
            self.prio[v] = p;
            self.enter(v);
        }
    }

    fn live(&self) -> usize {
        self.state.iter().filter(|&&s| s == 1).count()
    }

    /// The pop the model predicts under `tie`, or `None` if empty. Entry
    /// clocks are unique, so `Lifo`/`Fifo` name exactly one vertex.
    fn expected_pop(&self, tie: Tie) -> Option<(u32, u64)> {
        let live = || (0..self.prio.len()).filter(|&v| self.state[v] == 1);
        let maxp = live().map(|v| self.prio[v]).max()?;
        let mut ties = live().filter(|&v| self.prio[v] == maxp);
        let v = match tie {
            Tie::Lifo => ties.max_by_key(|&v| self.entered[v]),
            Tie::Fifo => ties.min_by_key(|&v| self.entered[v]),
            Tie::Any => ties.next(),
        }?;
        Some((v as u32, maxp))
    }

    /// Checks one `pop_max` result against the model and applies it.
    fn pop(&mut self, got: Option<(u32, u64)>, tie: Tie) {
        let want = self.expected_pop(tie);
        match tie {
            Tie::Any => {
                assert_eq!(
                    got.map(|(_, p)| p),
                    want.map(|(_, p)| p),
                    "popped priority must be the maximum"
                );
                if let Some((v, p)) = got {
                    assert_eq!(self.state[v as usize], 1, "popped vertex was live");
                    assert_eq!(self.prio[v as usize], p, "priority table consistent");
                }
            }
            Tie::Lifo | Tie::Fifo => {
                assert_eq!(got, want, "{tie:?}: popped vertex diverged from the model")
            }
        }
        if let Some((v, _)) = got {
            self.state[v as usize] = 2;
        }
    }
}

fn run_against_model<P: MaxPq>(ops: &[Op], initial_cap: u64, tie: Tie) {
    const N: usize = 256;
    let mut cap = initial_cap;
    let mut q = P::new();
    q.reset(N, cap);
    let mut model = Model::new(N);

    for op in ops {
        match *op {
            Op::Bump { v, delta } => {
                let vi = v as usize;
                match model.state[vi] {
                    0 => {
                        let p = (delta as u64).min(cap);
                        model.push(vi, p);
                        q.push(v as u32, p);
                    }
                    1 => {
                        // Capped at the bound, so a vertex already at the
                        // cap exercises the same-priority (no-entry) raise.
                        let p = (model.prio[vi] + delta as u64).min(cap);
                        model.raise(vi, p);
                        q.raise(v as u32, p);
                    }
                    _ => {} // popped vertices are never re-pushed (CAPFOREST contract)
                }
            }
            Op::Pop => model.pop(q.pop_max(), tie),
            Op::Reset { cap: new_cap } => {
                cap = new_cap as u64;
                q.reset(N, cap);
                model = Model::new(N);
            }
        }
        assert_eq!(q.len(), model.live());
    }

    // Drain: every remaining pop is pinned too.
    loop {
        let got = q.pop_max();
        model.pop(got, tie);
        if got.is_none() {
            break;
        }
    }
    assert_eq!(model.live(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bstack_matches_model(ops in prop::collection::vec(op_strategy(), 1..400), cap in 1u64..5000) {
        run_against_model::<BStackPq>(&ops, cap, Tie::Lifo);
    }

    #[test]
    fn bqueue_matches_model(ops in prop::collection::vec(op_strategy(), 1..400), cap in 1u64..5000) {
        run_against_model::<BQueuePq>(&ops, cap, Tie::Fifo);
    }

    #[test]
    fn heap_matches_model(ops in prop::collection::vec(op_strategy(), 1..400), cap in 1u64..5000) {
        run_against_model::<BinaryHeapPq>(&ops, cap, Tie::Any);
    }

    #[test]
    fn heap_matches_model_uncapped(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_against_model::<BinaryHeapPq>(&ops, u64::MAX, Tie::Any);
    }
}

/// The model itself must tell the two tie orders apart, or the properties
/// above would pass vacuously.
#[test]
fn model_distinguishes_lifo_from_fifo() {
    let mut m = Model::new(4);
    m.push(0, 5);
    m.push(1, 5);
    m.push(2, 3);
    m.raise(2, 5); // enters bucket 5 last
    m.raise(0, 5); // same priority: no new entry
    assert_eq!(m.expected_pop(Tie::Lifo), Some((2, 5)));
    assert_eq!(m.expected_pop(Tie::Fifo), Some((0, 5)));
}
