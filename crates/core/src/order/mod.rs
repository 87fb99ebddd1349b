//! Variable-order optimization for the Tributary join (paper §5).
//!
//! TJ is worst-case optimal under *any* global variable order, but in
//! practice a bad order can be an order of magnitude slower (Table 7).
//! The paper's cost model estimates the number of binary searches TJ will
//! perform: at each step the size of the intersection of the active
//! domains bounds both the searches at that level and the branching into
//! the next level (Eq. 3), combined by the recursion
//! `Cost_{≥i} = Sᵢ + Sᵢ · Cost_{≥i+1}` (Eq. 4).
//!
//! The required statistics — the number of distinct *prefix* values
//! `V(Rⱼ, p)` — depend only on the projected column **set**, not the
//! order, so [`AtomStats`] caches all `2^arity` projection counts once per
//! relation (one chain sort per chain of column prefixes, shared by every
//! atom over the same relation); evaluating one candidate order is then
//! `O(k · atoms)` arithmetic. [`best_order`] searches all `k!` orders
//! depth-first, building each prefix's Eq. 4 partial cost once and
//! pruning prefixes that already cost as much as the best order found,
//! which makes the exhaustive search cheap where the paper sampled 20
//! random orders. [`choose_order`] falls back to the paper's sampling
//! protocol above [`EXHAUSTIVE_ORDER_LIMIT`] variables.

mod cost;
mod stats;

pub use cost::OrderCostModel;
pub use stats::AtomStats;

use cost::Partial;
use parjoin_query::VarId;

/// The most variables [`best_order`] enumerates (10! ≈ 3.6 M orders).
pub const EXHAUSTIVE_ORDER_LIMIT: usize = 10;

/// Random orders [`choose_order`] evaluates beyond the exhaustive limit:
/// the paper's Figure 12 protocol.
pub const SAMPLED_ORDERS: usize = 20;

/// Exhaustively finds the order with the least estimated cost.
///
/// The search walks the orders in recursive swap-permutation order
/// depth-first, extending each prefix's Eq. 4 partial cost by one step
/// instead of re-costing whole orders. A prefix whose partial cost
/// already reaches the best complete cost is pruned: every later term is
/// non-negative and only a strictly smaller cost replaces the best, so
/// the result — the first minimum in enumeration order, with a cost
/// bit-identical to [`OrderCostModel::cost`] — equals evaluating every
/// permutation.
///
/// # Panics
/// Panics if `vars.len() > EXHAUSTIVE_ORDER_LIMIT`; [`choose_order`]
/// samples instead beyond that.
pub fn best_order(model: &OrderCostModel, vars: &[VarId]) -> (Vec<VarId>, f64) {
    assert!(
        vars.len() <= EXHAUSTIVE_ORDER_LIMIT,
        "exhaustive order search limited to 10 variables"
    );
    let atoms = model.num_atoms();
    let mut search = OrderSearch {
        model,
        order: vars.to_vec(),
        // One mask row per depth: a prefix's row is copied and advanced
        // for each child, so backtracking needs no undo.
        masks: vec![0; atoms * (vars.len() + 1)],
        atoms,
        best: None,
    };
    search.descend(0, Partial::START);
    // `descend` reaches at least one complete order (even for an empty
    // variable list), so `best` is always set. xtask: allow(expect)
    search.best.expect("at least one order")
}

/// The best order of `vars`: [`best_order`] up to
/// [`EXHAUSTIVE_ORDER_LIMIT`] variables, else the cheapest of
/// [`SAMPLED_ORDERS`] orders drawn by [`sample_orders`] with `seed` (the
/// paper's Figure 12 protocol).
pub fn choose_order(model: &OrderCostModel, vars: &[VarId], seed: u64) -> (Vec<VarId>, f64) {
    if vars.len() <= EXHAUSTIVE_ORDER_LIMIT {
        best_order(model, vars)
    } else {
        model.best_sampled(&sample_orders(vars, SAMPLED_ORDERS, seed))
    }
}

/// State of [`best_order`]'s depth-first search.
struct OrderSearch<'m> {
    model: &'m OrderCostModel,
    /// The permutation being built (positions `< depth` are fixed).
    order: Vec<VarId>,
    /// Per-depth rows of per-atom prefix masks.
    masks: Vec<u32>,
    atoms: usize,
    best: Option<(Vec<VarId>, f64)>,
}

impl OrderSearch<'_> {
    fn descend(&mut self, depth: usize, prefix: Partial) {
        if depth == self.order.len() {
            self.offer(prefix.total);
            return;
        }
        if self.best.as_ref().is_some_and(|(_, b)| prefix.total >= *b) {
            return; // no completion can cost strictly less
        }
        let (a, row) = (self.atoms, depth * self.atoms);
        for j in depth..self.order.len() {
            self.order.swap(depth, j);
            self.masks.copy_within(row..row + a, row + a);
            let step = self
                .model
                .step(self.order[depth], &mut self.masks[row + a..row + 2 * a]);
            let next = prefix.extend(step);
            if next.closed {
                // Nothing below contributes: every completion costs the
                // same, and the first one is the order as it stands.
                self.offer(next.total);
            } else {
                self.descend(depth + 1, next);
            }
            self.order.swap(depth, j);
        }
    }

    /// Records the current order if it is strictly cheaper than the best.
    fn offer(&mut self, cost: f64) {
        if self.best.as_ref().is_none_or(|(_, b)| cost < *b) {
            self.best = Some((self.order.clone(), cost));
        }
    }
}

/// Deterministically samples `n` random orders of `vars` (Fisher–Yates
/// with a seeded SplitMix64) — the paper's Figure 12 protocol uses 20.
pub fn sample_orders(vars: &[VarId], n: usize, seed: u64) -> Vec<Vec<VarId>> {
    let mut state = seed ^ 0x6a09_e667_f3bc_c908;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let mut v = vars.to_vec();
            for i in (1..v.len()).rev() {
                let j = ((next() as u128 * (i as u128 + 1)) >> 64) as usize;
                v.swap(i, j);
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_common::Relation;

    /// Heap-style permutation enumeration (recursive swap form) — the
    /// order [`best_order`]'s search walks.
    fn permute<F: FnMut(&[VarId])>(v: &mut Vec<VarId>, i: usize, f: &mut F) {
        if i == v.len() {
            f(v);
            return;
        }
        for j in i..v.len() {
            v.swap(i, j);
            permute(v, i + 1, f);
            v.swap(i, j);
        }
    }

    /// Evaluates every permutation; keeps the first strict minimum.
    fn brute_force(model: &OrderCostModel, vars: &[VarId]) -> (Vec<VarId>, f64) {
        let mut best: Option<(Vec<VarId>, f64)> = None;
        permute(&mut vars.to_vec(), 0, &mut |o| {
            let c = model.cost(o);
            if best.as_ref().is_none_or(|(_, b)| c < *b) {
                best = Some((o.to_vec(), c));
            }
        });
        best.unwrap()
    }

    fn vs(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn permute_counts_factorial() {
        let mut count = 0;
        let mut v = vs(4);
        permute(&mut v, 0, &mut |_| count += 1);
        assert_eq!(count, 24);
    }

    #[test]
    fn permute_yields_distinct_orders() {
        let mut seen = std::collections::BTreeSet::new();
        let mut v = vs(3);
        permute(&mut v, 0, &mut |o| {
            seen.insert(o.to_vec());
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn sample_orders_are_permutations() {
        let orders = sample_orders(&vs(5), 10, 42);
        assert_eq!(orders.len(), 10);
        for o in orders {
            let mut s = o.clone();
            s.sort();
            assert_eq!(s, vs(5));
        }
    }

    #[test]
    fn sample_orders_deterministic() {
        assert_eq!(sample_orders(&vs(6), 5, 7), sample_orders(&vs(6), 5, 7));
        assert_ne!(sample_orders(&vs(6), 5, 7), sample_orders(&vs(6), 5, 8));
    }

    fn rel(rows: &[[u64; 2]]) -> Relation {
        Relation::from_rows(2, rows.iter())
    }

    #[test]
    fn pruned_search_matches_brute_force() {
        // A 5-cycle with skewed, empty and uniform edges: ties, zero
        // steps and pruning all occur.
        let hub: Vec<[u64; 2]> = (0..40u64).map(|i| [i % 3, i]).collect();
        let uni: Vec<[u64; 2]> = (0..40u64).map(|i| [i, (i * 7) % 40]).collect();
        let (hub, uni, empty) = (rel(&hub), rel(&uni), Relation::new(2));
        for rels in [
            [&hub, &uni, &hub, &uni, &hub],
            [&uni, &uni, &uni, &uni, &uni],
            [&hub, &empty, &uni, &hub, &uni],
        ] {
            let atoms: Vec<(&Relation, Vec<VarId>)> = (0..5u32)
                .map(|i| (rels[i as usize], vec![VarId(i), VarId((i + 1) % 5)]))
                .collect();
            let model = OrderCostModel::from_atoms(&atoms);
            let (order, cost) = best_order(&model, &vs(5));
            let (want, want_cost) = brute_force(&model, &vs(5));
            assert_eq!(order, want);
            assert_eq!(cost.to_bits(), want_cost.to_bits());
        }
    }

    #[test]
    fn empty_variable_list_has_zero_cost() {
        let model = OrderCostModel::from_atoms(&[]);
        assert_eq!(best_order(&model, &[]), (vec![], 0.0));
    }

    #[test]
    fn choose_order_samples_beyond_the_limit() {
        let r = rel(&[[1, 2], [2, 3], [3, 1]]);
        let atoms: Vec<(&Relation, Vec<VarId>)> = (0..11u32)
            .map(|i| (&r, vec![VarId(i), VarId(i + 1)]))
            .collect();
        let model = OrderCostModel::from_atoms(&atoms);
        let vars = vs(12);
        let (order, cost) = choose_order(&model, &vars, 9);
        assert_eq!(
            (order, cost),
            model.best_sampled(&sample_orders(&vars, SAMPLED_ORDERS, 9))
        );
        let small = &vars[..EXHAUSTIVE_ORDER_LIMIT];
        let small_model = OrderCostModel::from_atoms(&atoms[..EXHAUSTIVE_ORDER_LIMIT - 1]);
        assert_eq!(
            choose_order(&small_model, small, 9),
            best_order(&small_model, small)
        );
    }
}
