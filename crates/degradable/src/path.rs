//! Relay paths of the exponential-information-gathering (EIG) unfolding of
//! algorithm BYZ.
//!
//! The recursive algorithm BYZ(t, m) is executed in message-passing form by
//! tagging every message with the chain of nodes that relayed it: the value
//! the sender `s` sent is tagged `[s]`; the copy receiver `i` relays in the
//! next round is tagged `[s, i]`, and so on. A tag is called a [`Path`];
//! all elements are distinct (a node never relays a value it already
//! relayed) and the first element is always the original sender.
//!
//! A path of length `ℓ` identifies the sub-instance BYZ(t, m) with
//! `t = m - ℓ + 1` running on the `n - ℓ + 1` nodes not in the path's
//! interior, whose "sender" is the path's last element.

use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::fmt;

/// A relay path: a non-empty sequence of distinct node ids starting with
/// the original sender.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Path(Vec<NodeId>);

impl Path {
    /// The root path `[sender]`.
    pub fn root(sender: NodeId) -> Self {
        Path(vec![sender])
    }

    /// Extends the path with relayer `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` already occurs in the path (a node never re-relays).
    #[must_use]
    pub fn child(&self, j: NodeId) -> Self {
        assert!(!self.contains(j), "node {j} already on path {self}");
        let mut v = self.0.clone();
        v.push(j);
        Path(v)
    }

    /// The path with exactly these ids in relay order, built in one pass —
    /// the constructor for untrusted input such as wire frames. `None` if
    /// `ids` is empty or names a node twice (checked in O(len log len)).
    pub fn from_ids(ids: Vec<NodeId>) -> Option<Self> {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if ids.is_empty() || sorted.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(Path(ids))
    }

    /// Number of nodes on the path (`>= 1`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Paths are never empty; provided for clippy-compliant API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The original sender (first element).
    pub fn sender(&self) -> NodeId {
        self.0[0]
    }

    /// The most recent relayer (last element) — the "sender" of the
    /// sub-instance this path identifies.
    pub fn last(&self) -> NodeId {
        *self.0.last().expect("paths are non-empty")
    }

    /// Whether `node` occurs anywhere on the path.
    pub fn contains(&self, node: NodeId) -> bool {
        self.0.contains(&node)
    }

    /// The node ids on the path, in relay order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.0
    }

    /// All extensions of this path by one relayer, drawn from a system of
    /// `n` nodes (every node not already on the path).
    pub fn children(&self, n: usize) -> Vec<Path> {
        NodeId::all(n)
            .filter(|j| !self.contains(*j))
            .map(|j| self.child(j))
            .collect()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Enumerates all paths of exactly `len` nodes rooted at `sender` in a
/// system of `n` nodes, in lexicographic order.
pub fn paths_of_length(sender: NodeId, n: usize, len: usize) -> Vec<Path> {
    assert!(len >= 1, "paths have at least the sender on them");
    let mut level = vec![Path::root(sender)];
    for _ in 1..len {
        let mut next = Vec::new();
        for p in &level {
            next.extend(p.children(n));
        }
        level = next;
    }
    level
}

/// Number of paths of exactly `len` nodes in a system of `n` nodes:
/// `(n-1)(n-2)…(n-len+1)`, and zero once `len > n` (paths never repeat a
/// node, so the falling factorial bottoms out rather than underflowing —
/// BYZ depths of `m + 1 > n` arise legitimately at tiny `n`).
pub fn path_count(n: usize, len: usize) -> u128 {
    assert!(len >= 1);
    let mut count: u128 = 1;
    for j in 1..len {
        count *= n.saturating_sub(j) as u128;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn root_and_child() {
        let p = Path::root(n(0)).child(n(2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.sender(), n(0));
        assert_eq!(p.last(), n(2));
        assert!(p.contains(n(0)) && p.contains(n(2)) && !p.contains(n(1)));
        assert_eq!(Path::from_ids(vec![n(0), n(2)]), Some(p));
        // The one-pass constructor refuses what `child` would panic on.
        assert_eq!(Path::from_ids(Vec::new()), None);
        assert_eq!(Path::from_ids(vec![n(2), n(1), n(2)]), None);
    }

    #[test]
    #[should_panic(expected = "already on path")]
    fn no_repeat_relayers() {
        let _ = Path::root(n(0)).child(n(1)).child(n(1));
    }

    #[test]
    fn children_excludes_path_members() {
        let p = Path::root(n(0)).child(n(1));
        let kids = p.children(4);
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].last(), n(2));
        assert_eq!(kids[1].last(), n(3));
    }

    #[test]
    fn enumeration_matches_count() {
        for nn in 2..7 {
            for len in 1..=3.min(nn) {
                let paths = paths_of_length(n(0), nn, len);
                assert_eq!(paths.len() as u128, path_count(nn, len), "n={nn} len={len}");
                // all distinct
                let set: std::collections::BTreeSet<_> = paths.iter().collect();
                assert_eq!(set.len(), paths.len());
            }
        }
    }

    #[test]
    fn count_formula() {
        assert_eq!(path_count(5, 1), 1);
        assert_eq!(path_count(5, 2), 4);
        assert_eq!(path_count(5, 3), 12);
        assert_eq!(path_count(7, 3), 30);
    }

    #[test]
    fn display_format() {
        let p = Path::root(n(0)).child(n(3));
        assert_eq!(p.to_string(), "[n0,n3]");
    }
}
