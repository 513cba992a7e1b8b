//! The dynamic B+tree baseline (STX-style).
//!
//! An arena-backed B+tree over byte-string keys. The default node capacity
//! of 32 entries corresponds to the thesis's best-performing 512-byte nodes
//! for 8-byte keys + 8-byte values. Deletions rebalance (borrow/merge) to
//! keep the classic half-full invariant.

use memtree_common::key::common_prefix_len;
use memtree_common::mem::vec_bytes;
use memtree_common::probe::ProbeStats;
use memtree_common::traits::{OrderedIndex, Value};

type NodeId = u32;
const NIL: NodeId = u32::MAX;

/// Default node capacity (max keys per leaf / max children per inner node):
/// 512-byte nodes for 16-byte entries.
pub const DEFAULT_FANOUT: usize = 32;

#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<Box<[u8]>>,
        vals: Vec<Value>,
        next: NodeId,
    },
    Inner {
        /// `keys[i]` = smallest key in the subtree of `children[i + 1]`.
        keys: Vec<Box<[u8]>>,
        children: Vec<NodeId>,
    },
    /// Free-list slot.
    Free(NodeId),
}

enum InsertUp {
    Done,
    Duplicate,
    Split(Box<[u8]>, NodeId),
}

/// An in-memory B+tree mapping byte strings to [`Value`]s.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: NodeId,
    free_head: NodeId,
    len: usize,
    fanout: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// Creates an empty tree with the default fanout.
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// Creates an empty tree with a custom node capacity (min 4).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let mut t = Self {
            nodes: Vec::new(),
            root: NIL,
            free_head: NIL,
            len: 0,
            fanout,
        };
        t.root = t.alloc(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NIL,
        });
        t
    }

    /// Node capacity this tree was built with.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if self.free_head != NIL {
            let id = self.free_head;
            match std::mem::replace(&mut self.nodes[id as usize], node) {
                Node::Free(next) => self.free_head = next,
                _ => unreachable!("free list corrupted"),
            }
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    fn free(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node::Free(self.free_head);
        self.free_head = id;
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    fn min_leaf(&self) -> usize {
        self.fanout / 2
    }

    fn min_children(&self) -> usize {
        self.fanout / 2
    }

    /// Leaf that may contain `key`.
    fn find_leaf(&self, key: &[u8]) -> NodeId {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Leaf { .. } => return id,
                Node::Inner { keys, children } => {
                    let ci = keys.partition_point(|k| k.as_ref() <= key);
                    id = children[ci];
                }
                Node::Free(_) => unreachable!(),
            }
        }
    }

    fn insert_rec(&mut self, id: NodeId, key: &[u8], val: Value) -> InsertUp {
        let child_slot = match self.node(id) {
            Node::Leaf { .. } => None,
            Node::Inner { keys, children } => {
                let ci = keys.partition_point(|k| k.as_ref() <= key);
                Some((ci, children[ci]))
            }
            Node::Free(_) => unreachable!(),
        };
        match child_slot {
            None => {
                let fanout = self.fanout;
                let Node::Leaf { keys, vals, next } = self.node_mut(id) else {
                    unreachable!()
                };
                match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
                    Ok(_) => InsertUp::Duplicate,
                    Err(pos) => {
                        keys.insert(pos, key.into());
                        vals.insert(pos, val);
                        if keys.len() <= fanout {
                            return InsertUp::Done;
                        }
                        // Split the leaf.
                        let mid = keys.len() / 2;
                        let r_keys: Vec<Box<[u8]>> = keys.split_off(mid);
                        let r_vals: Vec<Value> = vals.split_off(mid);
                        let sep = r_keys[0].clone();
                        let old_next = *next;
                        let right = Node::Leaf {
                            keys: r_keys,
                            vals: r_vals,
                            next: old_next,
                        };
                        let rid = self.alloc(right);
                        let Node::Leaf { next, .. } = self.node_mut(id) else {
                            unreachable!()
                        };
                        *next = rid;
                        InsertUp::Split(sep, rid)
                    }
                }
            }
            Some((ci, child)) => match self.insert_rec(child, key, val) {
                InsertUp::Done => InsertUp::Done,
                InsertUp::Duplicate => InsertUp::Duplicate,
                InsertUp::Split(sep, new_child) => {
                    let fanout = self.fanout;
                    let Node::Inner { keys, children } = self.node_mut(id) else {
                        unreachable!()
                    };
                    keys.insert(ci, sep);
                    children.insert(ci + 1, new_child);
                    if children.len() <= fanout {
                        return InsertUp::Done;
                    }
                    let mid = keys.len() / 2;
                    let up = keys[mid].clone();
                    let r_keys = keys.split_off(mid + 1);
                    keys.pop(); // `up` moves to the parent
                    let r_children = children.split_off(mid + 1);
                    let rid = self.alloc(Node::Inner {
                        keys: r_keys,
                        children: r_children,
                    });
                    InsertUp::Split(up, rid)
                }
            },
        }
    }

    /// Removes the entry and returns whether `id` underflowed.
    fn remove_rec(&mut self, id: NodeId, key: &[u8]) -> Option<bool> {
        let child_slot = match self.node(id) {
            Node::Leaf { .. } => None,
            Node::Inner { keys, children } => {
                let ci = keys.partition_point(|k| k.as_ref() <= key);
                Some((ci, children[ci]))
            }
            Node::Free(_) => unreachable!(),
        };
        match child_slot {
            None => {
                let min = self.min_leaf();
                let Node::Leaf { keys, vals, .. } = self.node_mut(id) else {
                    unreachable!()
                };
                match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
                    Ok(pos) => {
                        keys.remove(pos);
                        vals.remove(pos);
                        Some(keys.len() < min)
                    }
                    Err(_) => None,
                }
            }
            Some((ci, child)) => {
                let under = self.remove_rec(child, key)?;
                if under {
                    self.fix_child(id, ci);
                }
                let min = self.min_children();
                let Node::Inner { children, .. } = self.node(id) else {
                    unreachable!()
                };
                Some(children.len() < min)
            }
        }
    }

    /// Rebalances `parent`'s `ci`-th child after an underflow: borrow from a
    /// sibling if possible, otherwise merge.
    fn fix_child(&mut self, parent: NodeId, ci: usize) {
        let (left_i, right_i) = {
            let Node::Inner { children, .. } = self.node(parent) else {
                unreachable!()
            };
            let n = children.len();
            if ci > 0 {
                (ci - 1, ci)
            } else if ci + 1 < n {
                (ci, ci + 1)
            } else {
                return; // root with a single child handled by caller
            }
        };
        let (lid, rid) = {
            let Node::Inner { children, .. } = self.node(parent) else {
                unreachable!()
            };
            (children[left_i], children[right_i])
        };
        // Take both siblings out of the arena to manipulate freely.
        let left = std::mem::replace(&mut self.nodes[lid as usize], Node::Free(NIL));
        let right = std::mem::replace(&mut self.nodes[rid as usize], Node::Free(NIL));
        match (left, right) {
            (
                Node::Leaf {
                    keys: mut lk,
                    vals: mut lv,
                    next: lnext,
                },
                Node::Leaf {
                    keys: mut rk,
                    vals: mut rv,
                    next: rnext,
                },
            ) => {
                let min = self.min_leaf();
                if lk.len() + rk.len() <= self.fanout {
                    // Merge right into left.
                    lk.append(&mut rk);
                    lv.append(&mut rv);
                    self.nodes[lid as usize] = Node::Leaf {
                        keys: lk,
                        vals: lv,
                        next: rnext,
                    };
                    self.free(rid);
                    let Node::Inner { keys, children } = self.node_mut(parent) else {
                        unreachable!()
                    };
                    keys.remove(left_i);
                    children.remove(right_i);
                } else {
                    // Borrow to equalize.
                    if lk.len() < rk.len() {
                        let moven = (rk.len() - lk.len()) / 2;
                        lk.extend(rk.drain(..moven.max(1)));
                        lv.extend(rv.drain(..moven.max(1)));
                    } else {
                        let moven = ((lk.len() - rk.len()) / 2).max(1);
                        let at = lk.len() - moven;
                        let mut tail_k: Vec<_> = lk.split_off(at);
                        let mut tail_v: Vec<_> = lv.split_off(at);
                        tail_k.append(&mut rk);
                        tail_v.append(&mut rv);
                        rk = tail_k;
                        rv = tail_v;
                    }
                    debug_assert!(lk.len() >= min && rk.len() >= min);
                    let sep = rk[0].clone();
                    self.nodes[lid as usize] = Node::Leaf {
                        keys: lk,
                        vals: lv,
                        next: lnext,
                    };
                    self.nodes[rid as usize] = Node::Leaf {
                        keys: rk,
                        vals: rv,
                        next: rnext,
                    };
                    let Node::Inner { keys, .. } = self.node_mut(parent) else {
                        unreachable!()
                    };
                    keys[left_i] = sep;
                }
            }
            (
                Node::Inner {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Inner {
                    keys: mut rk,
                    children: mut rc,
                },
            ) => {
                let sep = {
                    let Node::Inner { keys, .. } = self.node(parent) else {
                        unreachable!()
                    };
                    keys[left_i].clone()
                };
                if lc.len() + rc.len() <= self.fanout {
                    // Merge: left ++ sep ++ right.
                    lk.push(sep);
                    lk.append(&mut rk);
                    lc.append(&mut rc);
                    self.nodes[lid as usize] = Node::Inner {
                        keys: lk,
                        children: lc,
                    };
                    self.free(rid);
                    let Node::Inner { keys, children } = self.node_mut(parent) else {
                        unreachable!()
                    };
                    keys.remove(left_i);
                    children.remove(right_i);
                } else if lc.len() < rc.len() {
                    // Rotate one child left through the parent separator.
                    lk.push(sep);
                    lc.push(rc.remove(0));
                    let new_sep = rk.remove(0);
                    self.nodes[lid as usize] = Node::Inner {
                        keys: lk,
                        children: lc,
                    };
                    self.nodes[rid as usize] = Node::Inner {
                        keys: rk,
                        children: rc,
                    };
                    let Node::Inner { keys, .. } = self.node_mut(parent) else {
                        unreachable!()
                    };
                    keys[left_i] = new_sep;
                } else {
                    // Rotate one child right through the parent separator.
                    rk.insert(0, sep);
                    rc.insert(0, lc.pop().expect("left inner non-empty"));
                    let new_sep = lk.pop().expect("left inner has keys");
                    self.nodes[lid as usize] = Node::Inner {
                        keys: lk,
                        children: lc,
                    };
                    self.nodes[rid as usize] = Node::Inner {
                        keys: rk,
                        children: rc,
                    };
                    let Node::Inner { keys, .. } = self.node_mut(parent) else {
                        unreachable!()
                    };
                    keys[left_i] = new_sep;
                }
            }
            _ => unreachable!("siblings at the same level share a kind"),
        }
    }

    /// Instrumented point query used by the Table 2.2 reproduction.
    pub fn get_profiled(&self, key: &[u8]) -> (Option<Value>, ProbeStats) {
        let mut stats = ProbeStats::default();
        let mut id = self.root;
        loop {
            stats.nodes_visited += 1;
            match self.node(id) {
                Node::Inner { keys, children } => {
                    let mut lo = 0usize;
                    let mut hi = keys.len();
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        stats.key_bytes_compared +=
                            (common_prefix_len(&keys[mid], key) + 1) as u64;
                        if keys[mid].as_ref() <= key {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    stats.pointer_derefs += 1;
                    id = children[lo];
                }
                Node::Leaf { keys, vals, .. } => {
                    let mut lo = 0usize;
                    let mut hi = keys.len();
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        stats.key_bytes_compared +=
                            (common_prefix_len(&keys[mid], key) + 1) as u64;
                        match keys[mid].as_ref().cmp(key) {
                            std::cmp::Ordering::Less => lo = mid + 1,
                            std::cmp::Ordering::Greater => hi = mid,
                            std::cmp::Ordering::Equal => {
                                return (Some(vals[mid]), stats);
                            }
                        }
                    }
                    return (None, stats);
                }
                Node::Free(_) => unreachable!(),
            }
        }
    }

    /// Iterates `(key, value)` pairs in order starting from the first key
    /// `>= low`, calling `f` until it returns `false` or entries run out.
    pub fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        let mut id = self.find_leaf(low);
        let mut start = {
            let Node::Leaf { keys, .. } = self.node(id) else {
                unreachable!()
            };
            keys.partition_point(|k| k.as_ref() < low)
        };
        loop {
            let Node::Leaf { keys, vals, next } = self.node(id) else {
                unreachable!()
            };
            for i in start..keys.len() {
                if !f(&keys[i], vals[i]) {
                    return;
                }
            }
            if *next == NIL {
                return;
            }
            id = *next;
            start = 0;
        }
    }
}

impl OrderedIndex for BPlusTree {
    fn insert(&mut self, key: &[u8], value: Value) -> bool {
        match self.insert_rec(self.root, key, value) {
            InsertUp::Done => {
                self.len += 1;
                true
            }
            InsertUp::Duplicate => false,
            InsertUp::Split(sep, rid) => {
                let new_root = self.alloc(Node::Inner {
                    keys: vec![sep],
                    children: vec![self.root, rid],
                });
                self.root = new_root;
                self.len += 1;
                true
            }
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, vals, .. } = self.node(leaf) else {
            unreachable!()
        };
        keys.binary_search_by(|k| k.as_ref().cmp(key))
            .ok()
            .map(|i| vals[i])
    }

    fn update(&mut self, key: &[u8], value: Value) -> bool {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, vals, .. } = self.node_mut(leaf) else {
            unreachable!()
        };
        match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
            Ok(i) => {
                vals[i] = value;
                true
            }
            Err(_) => false,
        }
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        if self.remove_rec(self.root, key).is_none() {
            return false;
        }
        self.len -= 1;
        // Collapse the root if it became a single-child inner node.
        loop {
            match self.node(self.root) {
                Node::Inner { children, .. } if children.len() == 1 => {
                    let child = children[0];
                    let old = self.root;
                    self.root = child;
                    self.free(old);
                }
                _ => break,
            }
        }
        true
    }

    fn scan(&self, low: &[u8], n: usize, out: &mut Vec<Value>) -> usize {
        let before = out.len();
        self.range_from(low, &mut |_k, v| {
            if out.len() - before == n {
                return false;
            }
            out.push(v);
            out.len() - before < n
        });
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mem_usage(&self) -> usize {
        let mut total = vec_bytes(&self.nodes);
        for node in &self.nodes {
            match node {
                Node::Leaf { keys, vals, .. } => {
                    total += vec_bytes(keys)
                        + keys.iter().map(|k| k.len()).sum::<usize>()
                        + vec_bytes(vals);
                }
                Node::Inner { keys, children } => {
                    total += vec_bytes(keys)
                        + keys.iter().map(|k| k.len()).sum::<usize>()
                        + vec_bytes(children);
                }
                Node::Free(_) => {}
            }
        }
        total
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        BPlusTree::range_from(self, &[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        BPlusTree::range_from(self, low, f);
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free_head = NIL;
        self.len = 0;
        self.root = self.alloc(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NIL,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    fn seq_tree(n: u64) -> BPlusTree {
        let mut t = BPlusTree::with_fanout(8);
        for i in 0..n {
            assert!(t.insert(&encode_u64(i), i));
        }
        t
    }

    #[test]
    fn insert_get_sequential_and_random() {
        let t = seq_tree(1000);
        assert_eq!(t.len(), 1000);
        for i in 0..1000 {
            assert_eq!(t.get(&encode_u64(i)), Some(i));
        }
        assert_eq!(t.get(&encode_u64(1000)), None);

        let mut t = BPlusTree::new();
        let mut state = 1u64;
        let mut keys = Vec::new();
        for _ in 0..2000 {
            let k = memtree_common::hash::splitmix64(&mut state);
            if t.insert(&encode_u64(k), k) {
                keys.push(k);
            }
        }
        for &k in &keys {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = BPlusTree::new();
        assert!(t.insert(b"alpha", 1));
        assert!(!t.insert(b"alpha", 2));
        assert_eq!(t.get(b"alpha"), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_in_place() {
        let mut t = seq_tree(100);
        assert!(t.update(&encode_u64(42), 999));
        assert_eq!(t.get(&encode_u64(42)), Some(999));
        assert!(!t.update(&encode_u64(100), 1));
    }

    #[test]
    fn remove_with_rebalancing() {
        let mut t = seq_tree(1000);
        // Remove every other key, then the rest, verifying along the way.
        for i in (0..1000).step_by(2) {
            assert!(t.remove(&encode_u64(i)), "remove {i}");
        }
        assert_eq!(t.len(), 500);
        for i in 0..1000 {
            let expect = if i % 2 == 0 { None } else { Some(i) };
            assert_eq!(t.get(&encode_u64(i)), expect, "get {i}");
        }
        for i in (1..1000).step_by(2) {
            assert!(t.remove(&encode_u64(i)));
        }
        assert_eq!(t.len(), 0);
        assert!(!t.remove(&encode_u64(0)));
    }

    #[test]
    fn scan_in_order() {
        let t = seq_tree(500);
        let mut out = Vec::new();
        assert_eq!(t.scan(&encode_u64(100), 50, &mut out), 50);
        assert_eq!(out, (100..150).collect::<Vec<_>>());
        out.clear();
        // Scan from a non-existent key.
        let mut t2 = BPlusTree::new();
        for i in (0..500).step_by(5) {
            t2.insert(&encode_u64(i), i);
        }
        t2.scan(&encode_u64(7), 3, &mut out);
        assert_eq!(out, vec![10, 15, 20]);
        // Scan past the end.
        out.clear();
        assert_eq!(t.scan(&encode_u64(495), 100, &mut out), 5);
    }

    #[test]
    fn for_each_sorted_is_sorted_and_complete() {
        let mut t = BPlusTree::with_fanout(6);
        let mut state = 5u64;
        let mut expect = Vec::new();
        for _ in 0..777 {
            let k = memtree_common::hash::splitmix64(&mut state) % 100_000;
            if t.insert(&encode_u64(k), k) {
                expect.push(k);
            }
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        t.for_each_sorted(&mut |k, v| {
            assert_eq!(memtree_common::key::decode_u64(k), v);
            got.push(v);
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn variable_length_keys() {
        let mut t = BPlusTree::with_fanout(4);
        let words: &[&[u8]] = &[b"a", b"ab", b"abc", b"b", b"ba", b"", b"zzz", b"ab\xff"];
        for (i, w) in words.iter().enumerate() {
            assert!(t.insert(w, i as u64));
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(t.get(w), Some(i as u64), "{w:?}");
        }
        let mut sorted: Vec<&[u8]> = words.to_vec();
        sorted.sort();
        let mut got = Vec::new();
        t.for_each_sorted(&mut |k, _| got.push(k.to_vec()));
        assert_eq!(got, sorted.iter().map(|w| w.to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn profiled_get_counts() {
        let t = seq_tree(10_000);
        let (v, stats) = t.get_profiled(&encode_u64(1234));
        assert_eq!(v, Some(1234));
        assert!(stats.nodes_visited >= 3); // fanout 8, 10k keys => height >= 4
        assert!(stats.key_bytes_compared > 0);
        assert_eq!(stats.pointer_derefs, stats.nodes_visited - 1);
    }

    #[test]
    fn mem_usage_grows() {
        let small = seq_tree(10).mem_usage();
        let big = seq_tree(10_000).mem_usage();
        assert!(big > small * 100);
    }

    #[test]
    fn clear_resets() {
        let mut t = seq_tree(100);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&encode_u64(5)), None);
        assert!(t.insert(&encode_u64(5), 5));
        assert_eq!(t.get(&encode_u64(5)), Some(5));
    }
}
