//! Dynamic Adaptive Radix Tree.

use memtree_common::key::common_prefix_len;
use memtree_common::probe::ProbeStats;
use memtree_common::traits::{OrderedIndex, Value};

type Child = Option<Box<Node>>;

#[derive(Debug)]
enum Node {
    Leaf {
        /// Full key (lazy expansion keeps single-key paths collapsed).
        key: Box<[u8]>,
        value: Value,
    },
    Inner(Box<Inner>),
}

#[derive(Debug)]
struct Inner {
    /// Compressed path below the parent edge (may be empty).
    prefix: Vec<u8>,
    /// Value for the key that ends exactly at this node.
    terminal: Option<Value>,
    children: Children,
}

#[derive(Debug)]
enum Children {
    N4 {
        keys: [u8; 4],
        ptrs: [Child; 4],
        len: u8,
    },
    N16(Box<N16>),
    N48 {
        /// 256-entry indirection; `INVALID48` marks an absent branch.
        index: Box<[u8; 256]>,
        ptrs: Box<[Child; 48]>,
        len: u8,
    },
    N256 {
        ptrs: Box<[Child; 256]>,
        len: u16,
    },
}

const INVALID48: u8 = 0xFF;

/// Boxed Node16 payload (keeps the `Children` enum small: Node4 inline).
#[derive(Debug)]
struct N16 {
    keys: [u8; 16],
    ptrs: [Child; 16],
    len: u8,
}

impl Children {
    fn new4() -> Self {
        Children::N4 {
            keys: [0; 4],
            ptrs: Default::default(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        match self {
            Children::N4 { len, .. } | Children::N48 { len, .. } => *len as usize,
            Children::N16(n) => n.len as usize,
            Children::N256 { len, .. } => *len as usize,
        }
    }

    fn get(&self, byte: u8) -> Option<&Node> {
        match self {
            Children::N4 { keys, ptrs, len } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .and_then(|i| ptrs[i].as_deref()),
            Children::N16(n) => n.keys[..n.len as usize]
                .binary_search(&byte)
                .ok()
                .and_then(|i| n.ptrs[i].as_deref()),
            Children::N48 { index, ptrs, .. } => {
                let slot = index[byte as usize];
                if slot == INVALID48 {
                    None
                } else {
                    ptrs[slot as usize].as_deref()
                }
            }
            Children::N256 { ptrs, .. } => ptrs[byte as usize].as_deref(),
        }
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Box<Node>> {
        match self {
            Children::N4 { keys, ptrs, len } => keys[..*len as usize]
                .iter()
                .position(|&k| k == byte)
                .and_then(|i| ptrs[i].as_mut()),
            Children::N16(n) => n.keys[..n.len as usize]
                .binary_search(&byte)
                .ok()
                .and_then(|i| n.ptrs[i].as_mut()),
            Children::N48 { index, ptrs, .. } => {
                let slot = index[byte as usize];
                if slot == INVALID48 {
                    None
                } else {
                    ptrs[slot as usize].as_mut()
                }
            }
            Children::N256 { ptrs, .. } => ptrs[byte as usize].as_mut(),
        }
    }

    /// Adds a branch, growing the layout when full. `byte` must be absent.
    fn add(&mut self, byte: u8, node: Box<Node>) {
        match self {
            Children::N4 { keys, ptrs, len } => {
                let n = *len as usize;
                if n < 4 {
                    let pos = keys[..n].partition_point(|&k| k < byte);
                    keys[pos..n + 1].rotate_right(1);
                    keys[pos] = byte;
                    ptrs[pos..n + 1].rotate_right(1);
                    ptrs[pos] = Some(node);
                    *len += 1;
                    return;
                }
                self.grow();
                self.add(byte, node);
            }
            Children::N16(n16) => {
                let n = n16.len as usize;
                if n < 16 {
                    let pos = n16.keys[..n].partition_point(|&k| k < byte);
                    n16.keys[pos..n + 1].rotate_right(1);
                    n16.keys[pos] = byte;
                    n16.ptrs[pos..n + 1].rotate_right(1);
                    n16.ptrs[pos] = Some(node);
                    n16.len += 1;
                    return;
                }
                self.grow();
                self.add(byte, node);
            }
            Children::N48 { index, ptrs, len } => {
                let n = *len as usize;
                if n < 48 {
                    index[byte as usize] = n as u8;
                    ptrs[n] = Some(node);
                    *len += 1;
                    return;
                }
                self.grow();
                self.add(byte, node);
            }
            Children::N256 { ptrs, len } => {
                debug_assert!(ptrs[byte as usize].is_none());
                ptrs[byte as usize] = Some(node);
                *len += 1;
            }
        }
    }

    /// Grows to the next larger layout.
    fn grow(&mut self) {
        *self = match std::mem::replace(self, Children::new4()) {
            Children::N4 { keys, mut ptrs, len } => {
                let mut n16 = Box::new(N16 {
                    keys: [0; 16],
                    ptrs: Default::default(),
                    len,
                });
                n16.keys[..4].copy_from_slice(&keys);
                for (i, p) in ptrs.iter_mut().enumerate() {
                    n16.ptrs[i] = p.take();
                }
                Children::N16(n16)
            }
            Children::N16(mut n16) => {
                let mut index = Box::new([INVALID48; 256]);
                let mut nptrs: Box<[Child; 48]> = Box::new(std::array::from_fn(|_| None));
                for i in 0..n16.len as usize {
                    index[n16.keys[i] as usize] = i as u8;
                    nptrs[i] = n16.ptrs[i].take();
                }
                Children::N48 {
                    index,
                    ptrs: nptrs,
                    len: n16.len,
                }
            }
            Children::N48 {
                index, mut ptrs, len, ..
            } => {
                let mut nptrs: Box<[Child; 256]> = Box::new(std::array::from_fn(|_| None));
                for b in 0..256 {
                    let slot = index[b];
                    if slot != INVALID48 {
                        nptrs[b] = ptrs[slot as usize].take();
                    }
                }
                Children::N256 {
                    ptrs: nptrs,
                    len: len as u16,
                }
            }
            n256 => n256,
        };
    }

    /// Removes the branch for `byte`, returning the child. Layouts are not
    /// shrunk (the thesis's ART shrinks only on rebuild via C-ART).
    fn remove(&mut self, byte: u8) -> Option<Box<Node>> {
        match self {
            Children::N4 { keys, ptrs, len } => {
                let n = *len as usize;
                let pos = keys[..n].iter().position(|&k| k == byte)?;
                let node = ptrs[pos].take();
                keys[pos..n].rotate_left(1);
                ptrs[pos..n].rotate_left(1);
                *len -= 1;
                node
            }
            Children::N16(n16) => {
                let n = n16.len as usize;
                let pos = n16.keys[..n].binary_search(&byte).ok()?;
                let node = n16.ptrs[pos].take();
                n16.keys[pos..n].rotate_left(1);
                n16.ptrs[pos..n].rotate_left(1);
                n16.len -= 1;
                node
            }
            Children::N48 { index, ptrs, len } => {
                let slot = index[byte as usize];
                if slot == INVALID48 {
                    return None;
                }
                index[byte as usize] = INVALID48;
                let node = ptrs[slot as usize].take();
                *len -= 1;
                node
            }
            Children::N256 { ptrs, len } => {
                let node = ptrs[byte as usize].take()?;
                *len -= 1;
                Some(node)
            }
        }
    }

    /// Iterates branches in ascending byte order.
    fn for_each(&self, f: &mut dyn FnMut(u8, &Node) -> bool) -> bool {
        match self {
            Children::N4 { keys, ptrs, len } => {
                for i in 0..*len as usize {
                    if !f(keys[i], ptrs[i].as_deref().unwrap()) {
                        return false;
                    }
                }
            }
            Children::N16(n16) => {
                for i in 0..n16.len as usize {
                    if !f(n16.keys[i], n16.ptrs[i].as_deref().unwrap()) {
                        return false;
                    }
                }
            }
            Children::N48 { index, ptrs, .. } => {
                for b in 0..256usize {
                    let slot = index[b];
                    if slot != INVALID48
                        && !f(b as u8, ptrs[slot as usize].as_deref().unwrap())
                    {
                        return false;
                    }
                }
            }
            Children::N256 { ptrs, .. } => {
                for (b, p) in ptrs.iter().enumerate() {
                    if let Some(node) = p {
                        if !f(b as u8, node) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// The single remaining (byte, child), if exactly one branch remains.
    fn only_child(&mut self) -> Option<(u8, Box<Node>)> {
        if self.len() != 1 {
            return None;
        }
        let mut found = None;
        match self {
            Children::N4 { keys, ptrs, len } => {
                found = Some((keys[0], ptrs[0].take().unwrap()));
                *len = 0;
            }
            Children::N16(n16) => {
                found = Some((n16.keys[0], n16.ptrs[0].take().unwrap()));
                n16.len = 0;
            }
            Children::N48 { index, ptrs, len } => {
                for b in 0..256usize {
                    if index[b] != INVALID48 {
                        found = Some((b as u8, ptrs[index[b] as usize].take().unwrap()));
                        index[b] = INVALID48;
                        *len = 0;
                        break;
                    }
                }
            }
            Children::N256 { ptrs, len } => {
                for (b, p) in ptrs.iter_mut().enumerate() {
                    if p.is_some() {
                        found = Some((b as u8, p.take().unwrap()));
                        *len = 0;
                        break;
                    }
                }
            }
        }
        found
    }

    /// Heap bytes owned by this layout (excluding the children themselves).
    fn heap_bytes(&self) -> usize {
        match self {
            Children::N4 { .. } => 0,
            Children::N16(_) => std::mem::size_of::<N16>(),
            Children::N48 { .. } => 256 + 48 * std::mem::size_of::<Child>(),
            Children::N256 { .. } => 256 * std::mem::size_of::<Child>(),
        }
    }
}

/// The dynamic Adaptive Radix Tree.
#[derive(Debug, Default)]
pub struct Art {
    root: Child,
    len: usize,
}

impl Art {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert_rec(node: &mut Box<Node>, key: &[u8], depth: usize, val: Value) -> bool {
        match node.as_mut() {
            Node::Leaf { key: lkey, .. } => {
                if lkey.as_ref() == key {
                    return false; // duplicate
                }
                // Split the collapsed path: new inner node over the common
                // prefix of both suffixes.
                let lsuf: Box<[u8]> = lkey[depth..].into();
                let ksuf = &key[depth..];
                let cp = common_prefix_len(&lsuf, ksuf);
                let mut inner = Inner {
                    prefix: ksuf[..cp].to_vec(),
                    terminal: None,
                    children: Children::new4(),
                };
                let old_leaf = std::mem::replace(
                    node,
                    Box::new(Node::Leaf {
                        key: Box::from(&[][..]),
                        value: 0,
                    }),
                );
                let Node::Leaf {
                    key: okey,
                    value: oval,
                } = *old_leaf
                else {
                    unreachable!()
                };
                if lsuf.len() == cp {
                    inner.terminal = Some(oval);
                } else {
                    inner.children.add(
                        lsuf[cp],
                        Box::new(Node::Leaf {
                            key: okey,
                            value: oval,
                        }),
                    );
                }
                if ksuf.len() == cp {
                    inner.terminal = Some(val);
                } else {
                    inner.children.add(
                        ksuf[cp],
                        Box::new(Node::Leaf {
                            key: key.into(),
                            value: val,
                        }),
                    );
                }
                **node = Node::Inner(Box::new(inner));
                true
            }
            Node::Inner(inner) => {
                let ksuf = &key[depth..];
                let cp = common_prefix_len(&inner.prefix, ksuf);
                if cp < inner.prefix.len() {
                    // Prefix mismatch: split this node at cp.
                    let mut new_inner = Inner {
                        prefix: inner.prefix[..cp].to_vec(),
                        terminal: None,
                        children: Children::new4(),
                    };
                    let old_branch_byte = inner.prefix[cp];
                    inner.prefix.drain(..cp + 1);
                    let old_node = std::mem::replace(
                        node,
                        Box::new(Node::Leaf {
                            key: Box::from(&[][..]),
                            value: 0,
                        }),
                    );
                    new_inner.children.add(old_branch_byte, old_node);
                    if ksuf.len() == cp {
                        new_inner.terminal = Some(val);
                    } else {
                        new_inner.children.add(
                            ksuf[cp],
                            Box::new(Node::Leaf {
                                key: key.into(),
                                value: val,
                            }),
                        );
                    }
                    **node = Node::Inner(Box::new(new_inner));
                    return true;
                }
                let depth = depth + inner.prefix.len();
                if depth == key.len() {
                    if inner.terminal.is_some() {
                        return false;
                    }
                    inner.terminal = Some(val);
                    return true;
                }
                let b = key[depth];
                match inner.children.get_mut(b) {
                    Some(child) => Self::insert_rec(child, key, depth + 1, val),
                    None => {
                        inner.children.add(
                            b,
                            Box::new(Node::Leaf {
                                key: key.into(),
                                value: val,
                            }),
                        );
                        true
                    }
                }
            }
        }
    }

    fn find<'a>(&'a self, key: &[u8]) -> Option<&'a Value> {
        let mut node = self.root.as_deref()?;
        let mut depth = 0usize;
        loop {
            match node {
                Node::Leaf { key: lkey, value } => {
                    return (lkey.as_ref() == key).then_some(value);
                }
                Node::Inner(inner) => {
                    let ksuf = &key[depth..];
                    if !ksuf.starts_with(&inner.prefix) {
                        return None;
                    }
                    depth += inner.prefix.len();
                    if depth == key.len() {
                        return inner.terminal.as_ref();
                    }
                    node = inner.children.get(key[depth])?;
                    depth += 1;
                }
            }
        }
    }

    /// Removes `key`; returns true when the node subtree became empty and
    /// the parent should drop the edge. Collapses single-branch nodes.
    fn remove_rec(node: &mut Box<Node>, key: &[u8], depth: usize, removed: &mut bool) -> bool {
        match node.as_mut() {
            Node::Leaf { key: lkey, .. } => {
                if lkey.as_ref() == key {
                    *removed = true;
                    true // drop me
                } else {
                    false
                }
            }
            Node::Inner(inner) => {
                let ksuf = &key[depth..];
                if !ksuf.starts_with(&inner.prefix) {
                    return false;
                }
                let ndepth = depth + inner.prefix.len();
                if ndepth == key.len() {
                    if inner.terminal.take().is_some() {
                        *removed = true;
                    }
                } else if let Some(child) = inner.children.get_mut(key[ndepth]) {
                    if Self::remove_rec(child, key, ndepth + 1, removed) {
                        inner.children.remove(key[ndepth]);
                    }
                }
                if !*removed {
                    return false;
                }
                // Collapse or drop this node if it lost its purpose.
                match (inner.children.len(), inner.terminal.is_some()) {
                    (0, false) => true,
                    (1, false) => {
                        let (byte, child) = inner.children.only_child().unwrap();
                        match *child {
                            Node::Leaf { key, value } => {
                                **node = Node::Leaf { key, value };
                            }
                            Node::Inner(mut cin) => {
                                let mut new_prefix = std::mem::take(&mut inner.prefix);
                                new_prefix.push(byte);
                                new_prefix.extend_from_slice(&cin.prefix);
                                cin.prefix = new_prefix;
                                **node = Node::Inner(cin);
                            }
                        }
                        false
                    }
                    _ => false,
                }
            }
        }
    }

    /// In-order traversal from the first key `>= low`; stops when `f`
    /// returns `false`. `path` carries the bytes leading to `node`.
    fn walk_from(
        node: &Node,
        path: &mut Vec<u8>,
        low: &[u8],
        restricted: bool,
        f: &mut dyn FnMut(&[u8], Value) -> bool,
    ) -> bool {
        match node {
            Node::Leaf { key, value } => {
                if !restricted || key.as_ref() >= low {
                    return f(key, *value);
                }
                true
            }
            Node::Inner(inner) => {
                let depth = path.len();
                let mut restricted = restricted;
                if restricted {
                    // Compare the compressed prefix against low[depth..].
                    let seg_end = (depth + inner.prefix.len()).min(low.len());
                    let seg = &low[depth.min(low.len())..seg_end];
                    match inner.prefix[..seg.len()].cmp(seg) {
                        std::cmp::Ordering::Less => return true, // whole subtree < low
                        std::cmp::Ordering::Greater => restricted = false,
                        std::cmp::Ordering::Equal => {
                            if low.len() <= depth + inner.prefix.len() {
                                // low is exhausted inside/at this prefix.
                                restricted = false;
                            }
                        }
                    }
                }
                path.extend_from_slice(&inner.prefix);
                let ndepth = path.len();
                if !restricted {
                    if let Some(v) = inner.terminal {
                        if !f(path, v) {
                            path.truncate(depth);
                            return false;
                        }
                    }
                }
                let pivot = if restricted { low[ndepth] } else { 0 };
                let cont = inner.children.for_each(&mut |b, child| {
                    if restricted && b < pivot {
                        return true;
                    }
                    path.push(b);
                    let r = Self::walk_from(child, path, low, restricted && b == pivot, f);
                    path.pop();
                    r
                });
                path.truncate(depth);
                cont
            }
        }
    }

    /// Iterates `(key, value)` in order from the first key `>= low` until
    /// `f` returns `false`.
    pub fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        if let Some(root) = self.root.as_deref() {
            let mut path = Vec::new();
            Self::walk_from(root, &mut path, low, !low.is_empty(), f);
        }
    }

    /// Instrumented point query for the Table 2.2 reproduction.
    pub fn get_profiled(&self, key: &[u8]) -> (Option<Value>, ProbeStats) {
        let mut stats = ProbeStats::default();
        let Some(mut node) = self.root.as_deref() else {
            return (None, stats);
        };
        let mut depth = 0usize;
        loop {
            stats.nodes_visited += 1;
            match node {
                Node::Leaf { key: lkey, value } => {
                    stats.key_bytes_compared += lkey.len().min(key.len()) as u64;
                    return ((lkey.as_ref() == key).then_some(*value), stats);
                }
                Node::Inner(inner) => {
                    stats.key_bytes_compared += inner.prefix.len() as u64;
                    let ksuf = &key[depth..];
                    if !ksuf.starts_with(&inner.prefix) {
                        return (None, stats);
                    }
                    depth += inner.prefix.len();
                    if depth == key.len() {
                        return (inner.terminal, stats);
                    }
                    stats.key_bytes_compared += 1;
                    match inner.children.get(key[depth]) {
                        Some(child) => {
                            stats.pointer_derefs += 1;
                            node = child;
                            depth += 1;
                        }
                        None => return (None, stats),
                    }
                }
            }
        }
    }

    fn node_mem(node: &Node) -> usize {
        match node {
            Node::Leaf { key, .. } => std::mem::size_of::<Node>() + key.len(),
            Node::Inner(inner) => {
                let mut total = std::mem::size_of::<Node>()
                    + std::mem::size_of::<Inner>()
                    + inner.prefix.capacity()
                    + inner.children.heap_bytes();
                inner.children.for_each(&mut |_b, child| {
                    total += Self::node_mem(child);
                    true
                });
                total
            }
        }
    }
}

impl OrderedIndex for Art {
    fn insert(&mut self, key: &[u8], value: Value) -> bool {
        match &mut self.root {
            None => {
                self.root = Some(Box::new(Node::Leaf {
                    key: key.into(),
                    value,
                }));
                self.len += 1;
                true
            }
            Some(root) => {
                if Self::insert_rec(root, key, 0, value) {
                    self.len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        self.find(key).copied()
    }

    fn update(&mut self, key: &[u8], value: Value) -> bool {
        // Dedicated mutable descent (cheap, no structural changes).
        let Some(mut node) = self.root.as_deref_mut() else {
            return false;
        };
        let mut depth = 0usize;
        loop {
            match node {
                Node::Leaf { key: lkey, value: v } => {
                    if lkey.as_ref() == key {
                        *v = value;
                        return true;
                    }
                    return false;
                }
                Node::Inner(inner) => {
                    let ksuf = &key[depth..];
                    if !ksuf.starts_with(&inner.prefix) {
                        return false;
                    }
                    depth += inner.prefix.len();
                    if depth == key.len() {
                        return match &mut inner.terminal {
                            Some(t) => {
                                *t = value;
                                true
                            }
                            None => false,
                        };
                    }
                    match inner.children.get_mut(key[depth]) {
                        Some(child) => {
                            node = child.as_mut();
                            depth += 1;
                        }
                        None => return false,
                    }
                }
            }
        }
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        let Some(root) = &mut self.root else {
            return false;
        };
        let mut removed = false;
        if Self::remove_rec(root, key, 0, &mut removed) {
            self.root = None;
        }
        if removed {
            self.len -= 1;
        }
        removed
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
        self.root.as_deref().map_or(0, Self::node_mem)
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&[u8], Value)) {
        Art::range_from(self, &[], &mut |k, v| {
            f(k, v);
            true
        });
    }

    fn range_from(&self, low: &[u8], f: &mut dyn FnMut(&[u8], Value) -> bool) {
        Art::range_from(self, low, f);
    }

    fn clear(&mut self) {
        self.root = None;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_common::key::encode_u64;

    #[test]
    fn insert_get_random_u64() {
        let mut t = Art::new();
        let mut state = 1u64;
        let mut keys = Vec::new();
        for _ in 0..5000 {
            let k = memtree_common::hash::splitmix64(&mut state);
            if t.insert(&encode_u64(k), k) {
                keys.push(k);
            }
        }
        assert_eq!(t.len(), keys.len());
        for &k in &keys {
            assert_eq!(t.get(&encode_u64(k)), Some(k));
        }
        assert_eq!(t.get(&encode_u64(keys[0] ^ 1)), None);
    }

    #[test]
    fn node_growth_through_all_layouts() {
        // Root fanout 256 forces N4 -> N16 -> N48 -> N256 growth.
        let mut t = Art::new();
        for b in 0..=255u8 {
            assert!(t.insert(&[b, 1, 2], b as u64));
        }
        for b in 0..=255u8 {
            assert_eq!(t.get(&[b, 1, 2]), Some(b as u64), "byte {b}");
        }
        assert_eq!(t.get(&[0, 1]), None);
    }

    #[test]
    fn prefix_keys_coexist() {
        let mut t = Art::new();
        assert!(t.insert(b"f", 1));
        assert!(t.insert(b"fa", 2));
        assert!(t.insert(b"fas", 3));
        assert!(t.insert(b"fast", 4));
        assert!(t.insert(b"fat", 5));
        for (k, v) in [
            (&b"f"[..], 1),
            (b"fa", 2),
            (b"fas", 3),
            (b"fast", 4),
            (b"fat", 5),
        ] {
            assert_eq!(t.get(k), Some(v));
        }
        assert_eq!(t.get(b"fas_"), None);
        assert_eq!(t.get(b""), None);
        // Duplicate of a terminal value.
        assert!(!t.insert(b"fa", 9));
        assert_eq!(t.get(b"fa"), Some(2));
    }

    #[test]
    fn path_compression_split() {
        let mut t = Art::new();
        assert!(t.insert(b"abcdefgh1", 1));
        assert!(t.insert(b"abcdefgh2", 2)); // shares 8-byte prefix
        assert!(t.insert(b"abcdXYZ", 3)); // splits the compressed prefix
        assert_eq!(t.get(b"abcdefgh1"), Some(1));
        assert_eq!(t.get(b"abcdefgh2"), Some(2));
        assert_eq!(t.get(b"abcdXYZ"), Some(3));
        assert_eq!(t.get(b"abcd"), None);
    }

    #[test]
    fn update_and_remove_with_collapse() {
        let mut t = Art::new();
        for (i, k) in [&b"romane"[..], b"romanus", b"romulus", b"rubens", b"ruber"]
            .iter()
            .enumerate()
        {
            t.insert(k, i as u64);
        }
        assert!(t.update(b"romanus", 99));
        assert_eq!(t.get(b"romanus"), Some(99));
        assert!(t.remove(b"romanus"));
        assert_eq!(t.get(b"romanus"), None);
        assert_eq!(t.get(b"romane"), Some(0));
        assert!(t.remove(b"romane"));
        assert!(t.remove(b"romulus"));
        assert_eq!(t.get(b"rubens"), Some(3));
        assert_eq!(t.get(b"ruber"), Some(4));
        assert_eq!(t.len(), 2);
        assert!(t.remove(b"rubens"));
        assert!(t.remove(b"ruber"));
        assert_eq!(t.len(), 0);
        assert!(!t.remove(b"ruber"));
        // Tree usable after emptying.
        assert!(t.insert(b"x", 1));
        assert_eq!(t.get(b"x"), Some(1));
    }

    #[test]
    fn remove_terminal_keeps_subtree() {
        let mut t = Art::new();
        t.insert(b"ab", 1);
        t.insert(b"abc", 2);
        t.insert(b"abd", 3);
        assert!(t.remove(b"ab"));
        assert_eq!(t.get(b"abc"), Some(2));
        assert_eq!(t.get(b"abd"), Some(3));
        assert_eq!(t.get(b"ab"), None);
    }

    #[test]
    fn sorted_iteration_and_scan() {
        let mut t = Art::new();
        let mut state = 9u64;
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for _ in 0..2000 {
            let k = memtree_common::hash::splitmix64(&mut state) % 50_000;
            let key = encode_u64(k).to_vec();
            if t.insert(&key, k) {
                keys.push(key);
            }
        }
        keys.sort();
        let mut got = Vec::new();
        t.for_each_sorted(&mut |k, _| got.push(k.to_vec()));
        assert_eq!(got, keys);

        // Scan from an arbitrary point matches the sorted list.
        let low = encode_u64(25_000);
        let expect: Vec<Value> = keys
            .iter()
            .filter(|k| k.as_slice() >= low.as_slice())
            .take(10)
            .map(|k| memtree_common::key::decode_u64(k))
            .collect();
        let mut out = Vec::new();
        t.scan(&low, 10, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn scan_with_prefix_keys() {
        let mut t = Art::new();
        for (i, k) in [&b"a"[..], b"ab", b"abc", b"b", b"ba"].iter().enumerate() {
            t.insert(k, i as u64);
        }
        let mut out = Vec::new();
        t.scan(b"ab", 10, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        out.clear();
        t.scan(b"aa", 2, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn profiled_get_fewer_nodes_than_btree_depth() {
        let mut t = Art::new();
        for i in 0..10_000u64 {
            t.insert(&encode_u64(i), i);
        }
        let (v, stats) = t.get_profiled(&encode_u64(7777));
        assert_eq!(v, Some(7777));
        // 8-byte keys bound the trie depth.
        assert!(stats.nodes_visited <= 9);
    }

    #[test]
    fn mem_usage_reflects_node_types() {
        let mut sparse = Art::new();
        let mut dense = Art::new();
        for i in 0..256u64 {
            // sparse: unique high bytes -> big fanout at root
            sparse.insert(&encode_u64(i << 56), i);
            // dense: sequential -> shared prefix, small fanout
            dense.insert(&encode_u64(i), i);
        }
        assert!(sparse.mem_usage() > 0 && dense.mem_usage() > 0);
    }
}
