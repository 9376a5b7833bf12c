//! Fragments of binary-tree data items (paper Fig. 4b/4c).
//!
//! A [`TreeFragment`] stores a sparse map from node paths to values and is
//! generic over the region scheme: the flexible [`TreeRegion`] or the
//! blocked [`BitmaskTreeRegion`], both of which implement [`PathRegion`].
//! The TPC evaluation code distributes its kd-tree with the blocked scheme.

use std::collections::BTreeMap;

use crate::bitmask::BitmaskTreeRegion;
use crate::fragment::Fragment;
use crate::region::Region;
use crate::tree::TreeRegion;
use crate::treepath::TreePath;
use crate::wire::{Wire, WireError};

/// A region scheme over binary-tree node paths that can answer point
/// membership queries — the capability tree fragments need to clip data.
pub trait PathRegion: Region {
    /// Whether the node at `path` belongs to the region.
    fn contains_path(&self, path: &TreePath) -> bool;
}

impl PathRegion for TreeRegion {
    fn contains_path(&self, path: &TreePath) -> bool {
        self.contains(path)
    }
}

impl PathRegion for BitmaskTreeRegion {
    fn contains_path(&self, path: &TreePath) -> bool {
        self.contains(path)
    }
}

/// The nodes of one region of a binary-tree data item, held in a single
/// address space.
///
/// Storage is sparse: a node exists once the application stores a value at
/// its path and the path lies inside the fragment's region. This fits both
/// incomplete trees (kd-trees over arbitrary point sets) and staged
/// construction.
#[derive(Clone)]
pub struct TreeFragment<T, R: PathRegion> {
    region: R,
    nodes: BTreeMap<TreePath, T>,
}

impl<T: Wire, R: PathRegion> Wire for TreeFragment<T, R> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.region.encode_into(out);
        self.nodes.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(TreeFragment {
            region: Wire::decode_from(input)?,
            nodes: Wire::decode_from(input)?,
        })
    }
}

impl<T, R> TreeFragment<T, R>
where
    T: Clone + Wire + 'static,
    R: PathRegion,
{
    /// An empty fragment covering `region` (no nodes stored yet).
    pub fn new(region: R) -> Self {
        TreeFragment {
            region,
            nodes: BTreeMap::new(),
        }
    }

    /// Read the node at `path`, if present.
    pub fn get(&self, path: &TreePath) -> Option<&T> {
        self.nodes.get(path)
    }

    /// Store a value at `path`. Returns `false` (and drops the value) when
    /// `path` is outside the fragment's region.
    pub fn set(&mut self, path: TreePath, value: T) -> bool {
        if !self.region.contains_path(&path) {
            return false;
        }
        self.nodes.insert(path, value);
        true
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes are stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over `(path, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&TreePath, &T)> {
        self.nodes.iter()
    }
}

impl<T, R> Fragment for TreeFragment<T, R>
where
    T: Clone + Wire + 'static,
    R: PathRegion,
{
    type Region = R;

    fn empty() -> Self {
        TreeFragment {
            region: R::empty(),
            nodes: BTreeMap::new(),
        }
    }

    fn alloc(region: &R) -> Self {
        TreeFragment::new(region.clone())
    }

    fn region(&self) -> R {
        self.region.clone()
    }

    fn extract(&self, region: &R) -> Self {
        let r = self.region.intersect(region);
        let nodes = self
            .nodes
            .iter()
            .filter(|(p, _)| r.contains_path(p))
            .map(|(p, v)| (*p, v.clone()))
            .collect();
        TreeFragment { region: r, nodes }
    }

    fn insert(&mut self, other: &Self) {
        self.region = self.region.union(&other.region);
        for (p, v) in &other.nodes {
            self.nodes.insert(*p, v.clone());
        }
    }

    fn remove(&mut self, region: &R) {
        self.region = self.region.difference(region);
        let keep = &self.region;
        self.nodes.retain(|p, _| keep.contains_path(p));
    }

    fn approx_bytes(&self) -> usize {
        self.nodes.len() * (std::mem::size_of::<T>() + std::mem::size_of::<TreePath>() + 16)
    }
}

impl<T, R: PathRegion> std::fmt::Debug for TreeFragment<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TreeFragment(region={:?}, nodes={})",
            self.region,
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(steps: &[bool]) -> TreePath {
        TreePath::from_steps(steps)
    }

    fn sample_flexible() -> TreeFragment<u32, TreeRegion> {
        let mut f = TreeFragment::new(TreeRegion::subtree(TreePath::ROOT));
        for idx in 0..15u64 {
            f.set(TreePath::from_bfs_index(idx), idx as u32 * 10);
        }
        f
    }

    #[test]
    fn set_outside_region_rejected() {
        let mut f: TreeFragment<u32, TreeRegion> =
            TreeFragment::new(TreeRegion::subtree(p(&[false])));
        assert!(f.set(p(&[false, true]), 1));
        assert!(!f.set(p(&[true]), 2));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn extract_clips_nodes_and_region() {
        let f = sample_flexible();
        let sub = f.extract(&TreeRegion::subtree(p(&[false])));
        assert_eq!(sub.region(), TreeRegion::subtree(p(&[false])));
        // Left subtree of a 15-node tree holds 7 nodes.
        assert_eq!(sub.len(), 7);
        assert!(sub.get(&p(&[false])).is_some());
        assert!(sub.get(&p(&[true])).is_none());
        assert!(sub.get(&TreePath::ROOT).is_none());
    }

    #[test]
    fn insert_merges_and_overwrites() {
        let mut f = sample_flexible();
        let mut g: TreeFragment<u32, TreeRegion> =
            TreeFragment::new(TreeRegion::single(TreePath::ROOT));
        g.set(TreePath::ROOT, 999);
        f.insert(&g);
        assert_eq!(f.get(&TreePath::ROOT), Some(&999));
        assert_eq!(f.len(), 15);
    }

    #[test]
    fn remove_shrinks() {
        let mut f = sample_flexible();
        f.remove(&TreeRegion::subtree(p(&[true])));
        assert_eq!(f.len(), 8);
        assert!(f.get(&p(&[true])).is_none());
        assert!(f.get(&p(&[false])).is_some());
        assert!(!f.region().contains(&p(&[true, false])));
    }

    #[test]
    fn blocked_scheme_fragment() {
        // Split depth 2: root block + 4 subtrees, as in Fig 4c.
        let region = BitmaskTreeRegion::of_subtree(2, 3); // subtree at RR
        let mut f: TreeFragment<u32, BitmaskTreeRegion> = TreeFragment::new(region);
        let rr = p(&[true, true]);
        assert!(f.set(rr, 7));
        assert!(f.set(rr.left(), 8));
        assert!(!f.set(TreePath::ROOT, 9)); // root block not covered
        assert_eq!(f.len(), 2);

        let sub = f.extract(&BitmaskTreeRegion::of_subtree(2, 3));
        assert_eq!(sub.len(), 2);
        let none = f.extract(&BitmaskTreeRegion::of_subtree(2, 0));
        assert!(none.is_empty());
    }

    #[test]
    fn blocked_migration_round_trip() {
        // Move a subtree block from one fragment to another.
        let mut src: TreeFragment<u32, BitmaskTreeRegion> =
            TreeFragment::new(BitmaskTreeRegion::full(2));
        for idx in 0..31u64 {
            src.set(TreePath::from_bfs_index(idx), idx as u32);
        }
        let block = BitmaskTreeRegion::of_subtree(2, 1);
        let moved = src.extract(&block);
        src.remove(&block);

        let mut dst: TreeFragment<u32, BitmaskTreeRegion> =
            TreeFragment::new(BitmaskTreeRegion::new(2));
        dst.insert(&moved);

        // Subtree 1 roots at path LR; in a 5-level tree it has 7 nodes.
        assert_eq!(moved.len(), 7);
        assert_eq!(dst.len(), 7);
        assert_eq!(src.len(), 31 - 7);
        let lr = p(&[false, true]);
        assert!(dst.get(&lr).is_some());
        assert!(src.get(&lr).is_none());
    }

    #[test]
    fn empty_fragment() {
        let f: TreeFragment<u32, TreeRegion> = TreeFragment::empty();
        assert!(f.is_empty());
        assert!(f.region().is_empty());
    }
}
