//! Fill-reducing symbolic ordering for sparse factorization.
//!
//! The natural MNA unknown order is hostile to Gilbert–Peierls: rails
//! and other high-degree hub nets get low indices (they are created
//! first), so elimination forms a near-dense clique over everything
//! they touch in the very first columns. A minimum-degree ordering —
//! the symmetric specialization of Markowitz pivoting, computed once on
//! the compiled CSC pattern — eliminates leaf-like internal nodes first
//! and defers the hubs to the tail, where the clique they induce is
//! already small.
//!
//! The ordering is purely symbolic and strictly separate from the
//! numeric pivoting below it: it is applied as a symmetric row/column
//! permutation `P·A·Pᵀ` at compile time, which keeps the MNA diagonal
//! on the diagonal, so [`crate::SparseLu`]'s diagonal-preference
//! pivoting and pivot-health fallback operate unchanged on the permuted
//! system.

use crate::CscMatrix;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Computes a minimum-degree elimination order on the symmetrized
/// structure of `pattern` (the diagonal is ignored; an entry at `(r,c)`
/// or `(c,r)` makes `r` and `c` neighbors).
///
/// Returns `perm` with `perm[k]` = the original index eliminated `k`-th;
/// ties in degree break toward the lowest original index, so the result
/// is deterministic and, on a diagonal matrix, the identity.
///
/// This is the classical algorithm with explicit clique formation: at
/// each step the minimum-degree vertex is removed and its neighbors are
/// pairwise connected (the fill its elimination would create). Quotient
/// graphs and supernode mass elimination are deliberately left out —
/// MNA islands are small enough that the simple form is fast, and the
/// simple form is auditable.
///
/// # Panics
///
/// Panics if `pattern` holds a row index out of bounds (impossible for
/// matrices built by this crate).
pub fn min_degree(pattern: &CscMatrix) -> Vec<usize> {
    let n = pattern.dim();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for col in 0..n {
        for &row in &pattern.row_indices()[pattern.col_ptr()[col]..pattern.col_ptr()[col + 1]] {
            if row != col {
                adj[row].insert(col);
                adj[col].insert(row);
            }
        }
    }

    // Lazy-deletion heap of (degree, vertex): stale entries are skipped
    // when their recorded degree no longer matches the live adjacency.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj[v].len(), v))).collect();
    let mut alive = vec![true; n];
    let mut perm = Vec::with_capacity(n);
    let mut neighbors: Vec<usize> = Vec::new();

    while let Some(Reverse((deg, v))) = heap.pop() {
        if !alive[v] || deg != adj[v].len() {
            continue;
        }
        alive[v] = false;
        perm.push(v);
        neighbors.clear();
        neighbors.extend(adj[v].iter().copied());
        for &u in &neighbors {
            adj[u].remove(&v);
        }
        // Clique formation: eliminating v fills in every missing edge
        // among its neighbors.
        for (i, &u) in neighbors.iter().enumerate() {
            for &w in &neighbors[i + 1..] {
                adj[u].insert(w);
                adj[w].insert(u);
            }
        }
        for &u in &neighbors {
            heap.push(Reverse((adj[u].len(), u)));
        }
        adj[v].clear();
    }
    debug_assert_eq!(perm.len(), n);
    perm
}

/// Inverts a permutation: given `perm[new] = old`, returns `inv` with
/// `inv[old] = new`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..perm.len()`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let n = perm.len();
    let mut inv = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        assert!(
            old < n && inv[old] == usize::MAX,
            "not a permutation: duplicate or out-of-range index {old}"
        );
        inv[old] = new;
    }
    inv
}

/// `true` when `perm` maps every index to itself — the case where a
/// permuted factorization is trivially bit-identical to the natural one.
pub fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparseLu, TripletMatrix};

    /// Arrow matrix with the hub at index 0: worst case for the natural
    /// order (hub eliminated first → dense fill), trivial for
    /// minimum-degree (hub eliminated last → zero fill).
    fn arrow(n: usize) -> TripletMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 4.0 + i as f64);
        }
        for i in 1..n {
            t.add(0, i, -1.0);
            t.add(i, 0, -1.0);
        }
        t
    }

    #[test]
    fn diagonal_pattern_orders_identity() {
        let mut t = TripletMatrix::new(5);
        for i in 0..5 {
            t.add(i, i, 1.0);
        }
        let (pattern, _) = t.compile();
        let perm = min_degree(&pattern);
        assert!(is_identity(&perm));
    }

    #[test]
    fn arrow_hub_is_deferred_to_the_tail() {
        // The hub's degree shrinks as leaves are eliminated; by the
        // time it is picked it creates no fill. It must never be
        // eliminated while its clique would still be large.
        let (pattern, _) = arrow(8).compile();
        let perm = min_degree(&pattern);
        let hub_pos = perm.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= 6, "hub eliminated too early: position {hub_pos}");
        assert!(!is_identity(&perm));
    }

    #[test]
    fn arrow_fill_is_eliminated_by_ordering() {
        let n = 16;
        let t = arrow(n);
        let natural = SparseLu::factorize(&t.to_csc()).unwrap();
        let (mut a, map, perm) = t.compile_ordered();
        // Replay the stamp sequence through the permuted stamp map; the
        // triplet insertion order of `arrow` is known.
        a.reset_values();
        let mut vals: Vec<f64> = (0..n).map(|i| 4.0 + i as f64).collect();
        vals.extend((1..n).flat_map(|_| [-1.0, -1.0]));
        for (&slot, v) in map.iter().zip(vals) {
            a.values_mut()[slot] += v;
        }
        let ordered = SparseLu::factorize(&a).unwrap();
        assert!(
            ordered.factor_nnz() < natural.factor_nnz(),
            "ordering must reduce arrow fill: {} vs {}",
            ordered.factor_nnz(),
            natural.factor_nnz()
        );
        // With the hub last the arrow factors with zero fill:
        // every factor entry is an original structural entry.
        assert_eq!(ordered.factor_nnz(), (3 * n - 2) + n);
        let hub_pos = perm.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= n - 2);
    }

    #[test]
    fn invert_round_trips() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        assert_eq!(invert_permutation(&inv), perm);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invert_rejects_duplicates() {
        invert_permutation(&[0, 0, 1]);
    }

    #[test]
    fn ordering_is_deterministic() {
        let (pattern, _) = arrow(12).compile();
        assert_eq!(min_degree(&pattern), min_degree(&pattern));
    }
}
