//! Shrink trees: the data structure behind counterexample minimisation.
//!
//! Every strategy samples a [`ShrinkTree`] — a rose tree whose root is
//! the generated value and whose children enumerate *simpler* candidate
//! values, lazily (the Hedgehog design, rather than real proptest's
//! `simplify`/`complicate` cursor). Children are deterministic functions
//! of the sampled structure: no RNG is consulted while shrinking, so a
//! failing case minimises to the same counterexample on every run.
//!
//! [`minimize`] performs the greedy descent the runner uses: repeatedly
//! move to the first child that still fails the property, stopping at a
//! local minimum (no child fails) or at the iteration cap.

use std::rc::Rc;

/// A lazily-expanded rose tree of progressively simpler values.
pub struct ShrinkTree<V> {
    value: V,
    children: Rc<dyn Fn() -> Vec<ShrinkTree<V>>>,
}

impl<V: Clone> Clone for ShrinkTree<V> {
    fn clone(&self) -> Self {
        ShrinkTree {
            value: self.value.clone(),
            children: Rc::clone(&self.children),
        }
    }
}

impl<V: 'static> ShrinkTree<V> {
    /// A tree with no simplifications (already minimal).
    pub fn leaf(value: V) -> Self {
        ShrinkTree {
            value,
            children: Rc::new(Vec::new),
        }
    }

    /// A tree whose candidate simplifications are produced on demand.
    /// Candidates must be *strictly simpler* so greedy descent makes
    /// progress; order them most-aggressive first for fast shrinking.
    pub fn with_children(value: V, children: impl Fn() -> Vec<ShrinkTree<V>> + 'static) -> Self {
        ShrinkTree {
            value,
            children: Rc::new(children),
        }
    }

    /// The value at this node.
    pub fn value(&self) -> &V {
        &self.value
    }

    /// Take the value, dropping the shrink structure.
    pub fn into_value(self) -> V {
        self.value
    }

    /// Expand this node's candidate simplifications.
    pub fn children(&self) -> Vec<ShrinkTree<V>> {
        (self.children)()
    }
}

impl<V: Clone + 'static> ShrinkTree<V> {
    /// Map the tree functorially — this is what lets `prop_map` shrink:
    /// the *source* tree shrinks, and every node is pushed through `f`.
    pub fn map<O: Clone + 'static>(&self, f: Rc<dyn Fn(V) -> O>) -> ShrinkTree<O> {
        let value = f(self.value.clone());
        let source = self.clone();
        ShrinkTree::with_children(value, move || {
            source
                .children()
                .into_iter()
                .map(|child| child.map(Rc::clone(&f)))
                .collect()
        })
    }

    /// Constrain shrinking to values accepted by `pred` —
    /// `prop_filter` shrinking never proposes filtered-out values.
    /// Rejected candidates are skipped *through*: their own (accepted)
    /// simplifications are promoted in their place, up to a budget, so
    /// a sparse filter domain does not stall the descent.
    pub fn prune(&self, pred: Rc<dyn Fn(&V) -> bool>) -> ShrinkTree<V> {
        let source = self.clone();
        ShrinkTree::with_children(self.value.clone(), move || {
            let mut out = Vec::new();
            let mut queue: std::collections::VecDeque<ShrinkTree<V>> = source.children().into();
            let mut budget = 256usize;
            while let Some(candidate) = queue.pop_front() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                if pred(candidate.value()) {
                    out.push(candidate.prune(Rc::clone(&pred)));
                } else {
                    queue.extend(candidate.children());
                }
            }
            out
        })
    }
}

/// Join two trees into a pair tree: either component may shrink while
/// the other is held fixed. Larger tuples are built by nesting.
pub fn join2<A, B>(ta: ShrinkTree<A>, tb: ShrinkTree<B>) -> ShrinkTree<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    let value = (ta.value().clone(), tb.value().clone());
    ShrinkTree::with_children(value, move || {
        let mut out = Vec::new();
        for ca in ta.children() {
            out.push(join2(ca, tb.clone()));
        }
        for cb in tb.children() {
            out.push(join2(ta.clone(), cb));
        }
        out
    })
}

/// Build a `Vec` tree from element trees. Candidates, most aggressive
/// first: remove chunks of elements (halving the chunk size down to 1,
/// never dropping below `min_len`), then shrink individual elements in
/// place. One-element removals are always offered, so a greedy local
/// minimum is genuinely minimal in length: removing *any single
/// element* from it makes the property pass.
pub fn vec_tree<E: Clone + 'static>(
    elems: Vec<ShrinkTree<E>>,
    min_len: usize,
) -> ShrinkTree<Vec<E>> {
    let value: Vec<E> = elems.iter().map(|t| t.value().clone()).collect();
    ShrinkTree::with_children(value, move || {
        let len = elems.len();
        let mut out = Vec::new();
        // 1) Structural shrinks: drop a chunk of elements.
        let mut chunk = len.saturating_sub(min_len);
        while chunk >= 1 {
            let mut start = 0;
            while start + chunk <= len {
                let mut kept = Vec::with_capacity(len - chunk);
                kept.extend_from_slice(&elems[..start]);
                kept.extend_from_slice(&elems[start + chunk..]);
                out.push(vec_tree(kept, min_len));
                start += chunk;
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // 2) Element shrinks: simplify one element, keep the rest.
        for (i, elem) in elems.iter().enumerate() {
            for child in elem.children() {
                let mut next = elems.clone();
                next[i] = child;
                out.push(vec_tree(next, min_len));
            }
        }
        out
    })
}

/// Halving descent toward `origin` over `i128` (covers every integer
/// width in the workspace). Candidates: the origin itself, the halfway
/// point, and the single-step neighbour — so a local minimum `v` means
/// even `v ∓ 1` passes the property.
pub fn int_tree(origin: i128, value: i128) -> ShrinkTree<i128> {
    ShrinkTree::with_children(value, move || {
        let delta = value - origin;
        if delta == 0 {
            return Vec::new();
        }
        let step = if delta > 0 { value - 1 } else { value + 1 };
        let mut candidates = vec![origin, origin + delta / 2, step];
        candidates.dedup();
        candidates.retain(|c| *c != value);
        candidates
            .into_iter()
            .map(|c| int_tree(origin, c))
            .collect()
    })
}

/// Depth-bounded halving toward `origin` for floats (unbounded halving
/// never terminates; 24 levels is plenty to pin down a boundary).
pub fn float_tree(origin: f64, value: f64, depth: u32) -> ShrinkTree<f64> {
    ShrinkTree::with_children(value, move || {
        // Stops on NaN too: it is not above `origin`.
        if depth == 0 || value.partial_cmp(&origin) != Some(std::cmp::Ordering::Greater) {
            return Vec::new();
        }
        let mut out = vec![ShrinkTree::leaf(origin)];
        let mid = origin + (value - origin) / 2.0;
        if mid > origin && mid < value {
            out.push(float_tree(origin, mid, depth - 1));
        }
        out
    })
}

/// Shrink statistics reported alongside a minimised counterexample.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkStats {
    /// Property executions spent probing candidates.
    pub executions: u64,
    /// Candidates accepted (each strictly simplified the counterexample).
    pub accepted: u64,
}

/// Greedy minimisation: starting from a failing `tree`, repeatedly move
/// to the first child whose value still fails (per `still_fails`,
/// returning the new failure message), until no child fails (a local
/// minimum) or `max_iters` executions have been spent. Returns the
/// minimal value, the failure message observed at it, and stats.
pub fn minimize<V: Clone + 'static>(
    tree: ShrinkTree<V>,
    initial_message: String,
    max_iters: u64,
    mut still_fails: impl FnMut(&V) -> Option<String>,
) -> (V, String, ShrinkStats) {
    let mut current = tree;
    let mut message = initial_message;
    let mut stats = ShrinkStats::default();
    'descend: loop {
        for child in current.children() {
            if stats.executions >= max_iters {
                break 'descend;
            }
            stats.executions += 1;
            if let Some(msg) = still_fails(child.value()) {
                stats.accepted += 1;
                message = msg;
                current = child;
                continue 'descend;
            }
        }
        break;
    }
    (current.into_value(), message, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_tree_reaches_origin() {
        let (min, _, _) = minimize(int_tree(0, 1000), String::new(), 10_000, |_| {
            Some(String::new())
        });
        assert_eq!(min, 0, "everything fails => shrink all the way to origin");
    }

    #[test]
    fn int_tree_finds_boundary() {
        let (min, _, stats) = minimize(int_tree(0, 977), String::new(), 10_000, |v| {
            (*v >= 10).then(String::new)
        });
        assert_eq!(min, 10, "local minimum of `v >= 10` must be exactly 10");
        assert!(stats.accepted > 0);
    }

    #[test]
    fn vec_tree_minimises_length() {
        let elems: Vec<ShrinkTree<i128>> = (0..37).map(|v| int_tree(0, v)).collect();
        let (min, _, _) = minimize(
            vec_tree(elems, 0),
            String::new(),
            100_000,
            |v: &Vec<i128>| (v.len() >= 3).then(String::new),
        );
        assert_eq!(min.len(), 3);
        assert_eq!(min, vec![0, 0, 0], "elements shrink after the length does");
    }

    #[test]
    fn float_tree_terminates() {
        let (min, _, _) = minimize(float_tree(0.0, 1.0, 24), String::new(), 10_000, |_| {
            Some(String::new())
        });
        assert_eq!(min, 0.0);
    }

    #[test]
    fn minimize_respects_iteration_cap() {
        // Only the v-1 candidate ever fails, so the descent crawls one
        // step per level and must be stopped by the cap.
        let mut runs = 0u64;
        let (min, _, stats) = minimize(int_tree(0, 1000), String::new(), 7, |v| {
            runs += 1;
            (*v >= 900).then(String::new)
        });
        assert_eq!(stats.executions, 7);
        assert_eq!(runs, 7);
        assert!(min >= 900, "descent stopped early, still failing region");
    }
}
