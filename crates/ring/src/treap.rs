//! Order-statistic treap over [`Id`]s — the backing store of [`crate::Ring`].
//!
//! A treap is a binary search tree (ordered by `Id`) that is simultaneously
//! a max-heap on per-node *priorities*; with pseudo-random priorities the
//! expected depth is O(log n), so insert/remove/rank/select all run in
//! O(log n) instead of the O(n) memmove a sorted `Vec` pays. Each node also
//! carries its subtree size, which turns the tree into an order-statistic
//! structure: `select(rank)` and `count_lt(key)` descend once from the
//! root, and every arc query in `Ring` reduces to rank arithmetic on them.
//!
//! Priorities are not drawn from an RNG but derived by hashing the key with
//! SplitMix64. That keeps the structure deterministic — the tree shape is a
//! pure function of the *set* of ids, independent of insertion order — so
//! `Clone`d networks, replayed experiments, and the `PartialEq` impl all
//! behave like the sorted-Vec representation they replaced.

use oscar_types::Id;

type Link = Option<Box<Node>>;

#[derive(Clone, Debug)]
struct Node {
    id: Id,
    prio: u64,
    /// Size of the subtree rooted here (including this node).
    count: usize,
    left: Link,
    right: Link,
}

/// SplitMix64 finaliser: a cheap, well-mixed hash of the id used as the
/// heap priority. Distinct ids collide with probability 2^-64 per pair.
fn priority(id: Id) -> u64 {
    let mut z = id.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Node {
    fn new(id: Id) -> Box<Node> {
        Box::new(Node {
            id,
            prio: priority(id),
            count: 1,
            left: None,
            right: None,
        })
    }

    /// Recomputes this node's count from its children (call after any
    /// child-pointer change).
    #[inline]
    fn update(&mut self) {
        self.count = 1 + size(&self.left) + size(&self.right);
    }
}

#[inline]
fn size(link: &Link) -> usize {
    link.as_ref().map_or(0, |n| n.count)
}

/// Rotates the subtree right: the left child becomes the root.
fn rotate_right(slot: &mut Box<Node>) {
    #[expect(
        clippy::expect_used,
        reason = "callers rotate right only when the left child's priority was just read"
    )]
    let mut l = slot
        .left
        .take()
        .expect("rotate_right requires a left child");
    slot.left = l.right.take();
    slot.update();
    std::mem::swap(slot, &mut l);
    // `slot` is now the old left child, `l` the old root.
    slot.right = Some(l);
    slot.update();
}

/// Rotates the subtree left: the right child becomes the root.
fn rotate_left(slot: &mut Box<Node>) {
    #[expect(
        clippy::expect_used,
        reason = "callers rotate left only when the right child's priority was just read"
    )]
    let mut r = slot
        .right
        .take()
        .expect("rotate_left requires a right child");
    slot.right = r.left.take();
    slot.update();
    std::mem::swap(slot, &mut r);
    slot.left = Some(r);
    slot.update();
}

#[expect(
    clippy::expect_used,
    reason = "`inserted` means the recursion just filled that child slot; an `if` condition takes no attribute"
)]
fn insert_into(slot: &mut Link, id: Id) -> bool {
    let Some(node) = slot else {
        *slot = Some(Node::new(id));
        return true;
    };
    use std::cmp::Ordering::*;
    match id.cmp(&node.id) {
        Equal => false,
        Less => {
            let inserted = insert_into(&mut node.left, id);
            if inserted {
                node.count += 1;
                if node.left.as_ref().expect("just inserted").prio > node.prio {
                    rotate_right(node);
                }
            }
            inserted
        }
        Greater => {
            let inserted = insert_into(&mut node.right, id);
            if inserted {
                node.count += 1;
                if node.right.as_ref().expect("just inserted").prio > node.prio {
                    rotate_left(node);
                }
            }
            inserted
        }
    }
}

/// Merges two treaps where every id in `a` is less than every id in `b`.
fn merge(a: Link, b: Link) -> Link {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut x), Some(y)) if x.prio >= y.prio => {
            x.right = merge(x.right.take(), Some(y));
            x.update();
            Some(x)
        }
        (Some(x), Some(mut y)) => {
            y.left = merge(Some(x), y.left.take());
            y.update();
            Some(y)
        }
    }
}

fn remove_from(slot: &mut Link, id: Id) -> bool {
    let Some(node) = slot else {
        return false;
    };
    use std::cmp::Ordering::*;
    match id.cmp(&node.id) {
        Less => {
            let removed = remove_from(&mut node.left, id);
            if removed {
                node.count -= 1;
            }
            removed
        }
        Greater => {
            let removed = remove_from(&mut node.right, id);
            if removed {
                node.count -= 1;
            }
            removed
        }
        Equal => {
            let left = node.left.take();
            let right = node.right.take();
            *slot = merge(left, right);
            true
        }
    }
}

/// The order-statistic treap. All operations are O(log n) expected.
#[derive(Clone, Debug, Default)]
pub(crate) struct Treap {
    root: Link,
}

impl Treap {
    pub fn new() -> Self {
        Treap { root: None }
    }

    #[inline]
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Inserts `id`; returns `false` if already present.
    pub fn insert(&mut self, id: Id) -> bool {
        insert_into(&mut self.root, id)
    }

    /// Removes `id`; returns `false` if absent.
    pub fn remove(&mut self, id: Id) -> bool {
        remove_from(&mut self.root, id)
    }

    /// Number of stored ids strictly less than `key` — the tree analogue of
    /// `slice::partition_point(|&p| p < key)`.
    pub fn count_lt(&self, key: Id) -> usize {
        let mut acc = 0;
        let mut cur = &self.root;
        while let Some(node) = cur {
            if node.id < key {
                acc += 1 + size(&node.left);
                cur = &node.right;
            } else {
                cur = &node.left;
            }
        }
        acc
    }

    /// Number of stored ids less than or equal to `key`.
    pub fn count_le(&self, key: Id) -> usize {
        let mut acc = 0;
        let mut cur = &self.root;
        while let Some(node) = cur {
            if node.id <= key {
                acc += 1 + size(&node.left);
                cur = &node.right;
            } else {
                cur = &node.left;
            }
        }
        acc
    }

    /// Ascending rank of `id`, if present.
    pub fn rank_of(&self, id: Id) -> Option<usize> {
        let mut acc = 0;
        let mut cur = &self.root;
        while let Some(node) = cur {
            use std::cmp::Ordering::*;
            match id.cmp(&node.id) {
                Less => cur = &node.left,
                Equal => return Some(acc + size(&node.left)),
                Greater => {
                    acc += 1 + size(&node.left);
                    cur = &node.right;
                }
            }
        }
        None
    }

    /// The id with ascending rank `rank`.
    ///
    /// # Panics
    /// If `rank >= len()`.
    #[expect(
        clippy::expect_used,
        reason = "`rank < len()` is asserted and subtree counts steer the descent, so each child stepped into exists"
    )]
    pub fn select(&self, mut rank: usize) -> Id {
        assert!(rank < self.len(), "rank {rank} out of range");
        let mut cur = self.root.as_ref().expect("non-empty by the assert");
        loop {
            let left = size(&cur.left);
            if rank < left {
                cur = cur.left.as_ref().expect("rank in left subtree");
            } else if rank == left {
                return cur.id;
            } else {
                rank -= left + 1;
                cur = cur.right.as_ref().expect("rank in right subtree");
            }
        }
    }

    /// In-order (ascending) iterator over the stored ids.
    pub fn iter(&self) -> TreapIter<'_> {
        let mut it = TreapIter { stack: Vec::new() };
        it.push_left_spine(&self.root);
        it
    }
}

/// Ascending iterator: an explicit left-spine stack, O(depth) space.
pub(crate) struct TreapIter<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> TreapIter<'a> {
    fn push_left_spine(&mut self, mut cur: &'a Link) {
        while let Some(node) = cur {
            self.stack.push(node);
            cur = &node.left;
        }
    }
}

impl Iterator for TreapIter<'_> {
    type Item = Id;

    fn next(&mut self) -> Option<Id> {
        let node = self.stack.pop()?;
        self.push_left_spine(&node.right);
        Some(node.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_select_count_roundtrip() {
        let mut t = Treap::new();
        for x in [50u64, 10, 40, 20, 30] {
            assert!(t.insert(Id::new(x)));
        }
        assert!(!t.insert(Id::new(30)), "duplicate refused");
        assert_eq!(t.len(), 5);
        for (rank, x) in [10u64, 20, 30, 40, 50].into_iter().enumerate() {
            assert_eq!(t.select(rank), Id::new(x));
            assert_eq!(t.rank_of(Id::new(x)), Some(rank));
        }
        assert_eq!(t.count_lt(Id::new(35)), 3);
        assert_eq!(t.count_le(Id::new(30)), 3);
        assert_eq!(t.rank_of(Id::new(35)), None);
        assert!(t.remove(Id::new(30)));
        assert!(!t.remove(Id::new(30)));
        assert_eq!(t.iter().collect::<Vec<_>>().len(), 4);
    }

    #[test]
    fn shape_is_balanced_under_sorted_insertion() {
        // Hashed priorities must keep the tree shallow even for the worst
        // BST insertion order. Depth bound: generous c·log2(n).
        let n = 4096usize;
        let mut t = Treap::new();
        for i in 0..n {
            t.insert(Id::new(i as u64));
        }
        fn depth(link: &Link) -> usize {
            link.as_ref()
                .map_or(0, |b| 1 + depth(&b.left).max(depth(&b.right)))
        }
        let d = depth(&t.root);
        assert!(d < 4 * 12, "depth {d} for n={n} — treap degenerated");
    }
}
