//! The analytic reference curve.
//!
//! The paper proves the worst-case search cost of an Oscar network is
//! `O(log²N)` (with at least one long-range link per peer) and observes
//! far better constants with ~27 links. The bound is the reference curve
//! tests and the quickstart example compare measurements against.

/// `log₂(n)` (0 for n ≤ 1).
pub fn log2(n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        (n as f64).log2()
    }
}

/// Worst-case greedy search cost bound `log₂²(N)` — the paper's guarantee
/// with a *single* long-range link per peer.
pub fn worst_case_search_bound(n: usize) -> f64 {
    let l = log2(n);
    l * l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_edge_cases() {
        assert_eq!(log2(0), 0.0);
        assert_eq!(log2(1), 0.0);
        assert_eq!(log2(2), 1.0);
        assert_eq!(log2(1024), 10.0);
    }

    #[test]
    fn worst_case_grows_polylog() {
        assert_eq!(worst_case_search_bound(1024), 100.0);
        assert!(worst_case_search_bound(10_000) < 178.0);
        // doubling N adds ~2 log N + 1, far from doubling the bound
        let r = worst_case_search_bound(20_000) / worst_case_search_bound(10_000);
        assert!(r < 1.2);
    }
}
