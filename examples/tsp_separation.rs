//! Subtour-elimination separation for the TSP (the paper's third
//! motivating application, §1: minimum cut "is further used as a
//! subproblem in the branch-and-cut algorithm for solving the Traveling
//! Salesman Problem").
//!
//! In branch-and-cut, the LP relaxation assigns fractional values x_e to
//! edges; a subtour-elimination constraint Σ_{e ∈ δ(S)} x_e ≥ 2 is
//! violated iff the *global minimum cut* of the support graph weighted by
//! x_e is below 2. We simulate a fractional LP solution with a known
//! violated subtour, scale it to integers, and let the solver find the
//! violated set S.
//!
//! Run with: `cargo run --release --example tsp_separation`

use sm_mincut::graph::GraphBuilder;
use sm_mincut::{CsrGraph, Session};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fixed-point scale: LP values x_e ∈ [0, 1] become integers x_e * SCALE.
const SCALE: u64 = 1000;

/// Simulates a fractional TSP LP solution on `n` cities: mostly a tour
/// with x_e = 1, but cities [0, k) form a near-closed subtour connected
/// to the rest by edges totalling only x = 1.2 < 2.
fn fractional_lp_solution(n: usize, k: usize, rng: &mut SmallRng) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    let frac = |x: f64| (x * SCALE as f64).round() as u64;
    // Subtour over the first k cities (x = 1 on its cycle edges).
    for c in 0..k {
        b.add_edge(c as u32, ((c + 1) % k) as u32, frac(1.0));
    }
    // Tour over the remaining cities.
    for c in k..n {
        let next = if c + 1 < n { c + 1 } else { k };
        b.add_edge(c as u32, next as u32, frac(1.0));
    }
    // Weak fractional coupling between subtour and main tour: 0.7 + 0.5.
    b.add_edge(0, (k + 1) as u32, frac(0.7));
    b.add_edge((k / 2) as u32, (n - 1) as u32, frac(0.5));
    // Fractional noise inside the main tour (keeps it well above 2).
    for _ in 0..n {
        let u = rng.gen_range(k..n) as u32;
        let v = rng.gen_range(k..n) as u32;
        if u != v {
            b.add_edge(u, v, frac(0.3));
        }
    }
    b.build()
}

fn main() {
    let (n, k) = (3000, 40);
    let mut rng = SmallRng::seed_from_u64(1991);
    let support = fractional_lp_solution(n, k, &mut rng);
    println!(
        "LP support graph: {} cities, {} fractional edges",
        support.n(),
        support.m()
    );

    let t0 = std::time::Instant::now();
    let cut = Session::new(&support)
        .run("noi-viecut")
        .expect("n >= 2")
        .cut;
    let x_value = cut.value as f64 / SCALE as f64;
    println!(
        "global minimum cut: Σ x_e over δ(S) = {x_value:.2} ({:.1} ms)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    if x_value < 2.0 {
        let side = cut.side.as_ref().unwrap();
        let s_size = side
            .iter()
            .filter(|&&s| s)
            .count()
            .min(n - side.iter().filter(|&&s| s).count());
        println!("VIOLATED subtour-elimination constraint found!");
        println!("  |S| = {s_size} cities; add the cutting plane Σ_(e∈δ(S)) x_e ≥ 2");
        // The planted subtour is the violated set (x(δ(S)) = 1.2).
        assert!(
            (x_value - 1.2).abs() < 1e-9,
            "the planted violation is the minimum"
        );
        assert_eq!(s_size, k);
        assert!(cut.verify(&support));
    } else {
        println!("no violated subtour constraint (all cuts ≥ 2): LP is subtour-feasible");
        unreachable!("this instance plants a violation");
    }
}
