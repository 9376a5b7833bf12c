//! Fragments of N-dimensional grid data items (paper Fig. 4a).
//!
//! A [`GridFragment`] stores one dense, row-major chunk per disjoint box of
//! its region. Copies between fragments move whole innermost-axis rows at a
//! time, so halo exchange and redistribution are memcpy-bound rather than
//! per-element.

use crate::boxes::BoxRegion;
use crate::fragment::Fragment;
use crate::point::{GridBox, Point};
use crate::region::Region;
use crate::wire::{Wire, WireError};

/// A dense row-major block of grid elements covering one box.
#[derive(Clone)]
struct Chunk<T, const D: usize> {
    bx: GridBox<D>,
    data: Vec<T>,
}

impl<T: Wire, const D: usize> Wire for Chunk<T, D> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.bx.encode_into(out);
        self.data.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Chunk {
            bx: Wire::decode_from(input)?,
            data: Wire::decode_from(input)?,
        })
    }
}

impl<T: Clone, const D: usize> Chunk<T, D> {
    fn offset(&self, p: &Point<D>) -> usize {
        debug_assert!(self.bx.contains(p));
        let lo = self.bx.lo();
        let hi = self.bx.hi();
        let mut off = 0usize;
        for d in 0..D {
            off = off * (hi[d] - lo[d]) as usize + (p[d] - lo[d]) as usize;
        }
        off
    }
}

/// The elements of one region of an N-dimensional grid, held in a single
/// address space.
#[derive(Clone)]
pub struct GridFragment<T, const D: usize> {
    chunks: Vec<Chunk<T, D>>,
}

impl<T: Wire, const D: usize> Wire for GridFragment<T, D> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.chunks.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Wire::decode_from(input).map(|chunks| GridFragment { chunks })
    }
}

impl<T, const D: usize> GridFragment<T, D>
where
    T: Clone + Default + Wire + 'static,
{
    /// Allocate a fragment covering `region`, elements default-initialized.
    pub fn new(region: &BoxRegion<D>) -> Self {
        let chunks = region
            .boxes()
            .iter()
            .map(|&bx| Chunk {
                data: vec![T::default(); bx.cardinality() as usize],
                bx,
            })
            .collect();
        GridFragment { chunks }
    }

    /// Read the element at `p`, if covered.
    pub fn get(&self, p: &Point<D>) -> Option<&T> {
        self.chunks
            .iter()
            .find(|c| c.bx.contains(p))
            .map(|c| &c.data[c.offset(p)])
    }

    /// Mutable access to the element at `p`, if covered.
    pub fn get_mut(&mut self, p: &Point<D>) -> Option<&mut T> {
        self.chunks.iter_mut().find(|c| c.bx.contains(p)).map(|c| {
            let off = c.offset(p);
            &mut c.data[off]
        })
    }

    /// Write the element at `p`. Returns `false` when `p` is not covered.
    pub fn set(&mut self, p: &Point<D>, v: T) -> bool {
        match self.get_mut(p) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// Number of elements held.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.data.len()).sum()
    }

    /// Whether the fragment holds no elements.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Visit `(point, &value)` for every held element.
    pub fn for_each(&self, mut f: impl FnMut(Point<D>, &T)) {
        for c in &self.chunks {
            for (i, p) in c.bx.points().enumerate() {
                f(p, &c.data[i]);
            }
        }
    }

    /// Visit `(point, &mut value)` for every held element.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Point<D>, &mut T)) {
        for c in &mut self.chunks {
            for (i, p) in c.bx.points().enumerate() {
                f(p, &mut c.data[i]);
            }
        }
    }

    /// Copy every element of `src` covered by both fragments into `self`,
    /// row-by-row (innermost axis runs are contiguous in both layouts).
    fn copy_covered_from(&mut self, src: &GridFragment<T, D>) {
        for dst in &mut self.chunks {
            for sc in &src.chunks {
                let Some(overlap) = dst.bx.intersect(&sc.bx) else {
                    continue;
                };
                copy_box(sc, dst, &overlap);
            }
        }
    }
}

/// Copy the elements of `overlap` from chunk `src` to chunk `dst` using
/// contiguous innermost-axis row slices.
fn copy_box<T: Clone, const D: usize>(src: &Chunk<T, D>, dst: &mut Chunk<T, D>, overlap: &GridBox<D>) {
    let run = (overlap.hi()[D - 1] - overlap.lo()[D - 1]) as usize;
    // Iterate row starts: all points of the overlap with last coord fixed
    // at its low value.
    let mut row_lo = overlap.lo();
    loop {
        let s_off = src.offset(&row_lo);
        let d_off = dst.offset(&row_lo);
        dst.data[d_off..d_off + run].clone_from_slice(&src.data[s_off..s_off + run]);
        // Odometer over axes 0..D-1.
        let mut d = D - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            row_lo[d] += 1;
            if row_lo[d] < overlap.hi()[d] {
                break;
            }
            row_lo[d] = overlap.lo()[d];
        }
    }
}

impl<T, const D: usize> Fragment for GridFragment<T, D>
where
    T: Clone + Default + Wire + 'static,
{
    type Region = BoxRegion<D>;

    fn empty() -> Self {
        GridFragment { chunks: Vec::new() }
    }

    fn alloc(region: &BoxRegion<D>) -> Self {
        GridFragment::new(region)
    }

    fn region(&self) -> BoxRegion<D> {
        BoxRegion::from_boxes(self.chunks.iter().map(|c| c.bx))
    }

    fn extract(&self, region: &BoxRegion<D>) -> Self {
        let covered = self.region().intersect(region);
        let mut out = GridFragment::new(&covered);
        out.copy_covered_from(self);
        out
    }

    fn insert(&mut self, other: &Self) {
        // Last-writer-wins on overlap: clear the overlap, then adopt
        // other's chunks wholesale (they are disjoint among themselves).
        self.remove(&other.region());
        self.chunks.extend(other.chunks.iter().cloned());
    }

    fn remove(&mut self, region: &BoxRegion<D>) {
        let mut new_chunks = Vec::with_capacity(self.chunks.len());
        for c in std::mem::take(&mut self.chunks) {
            let keep = BoxRegion::from_box(c.bx).difference(region);
            if keep.boxes().len() == 1 && keep.boxes()[0] == c.bx {
                new_chunks.push(c); // untouched
                continue;
            }
            for &bx in keep.boxes() {
                let mut nc = Chunk {
                    data: vec![T::default(); bx.cardinality() as usize],
                    bx,
                };
                copy_box(&c, &mut nc, &bx);
                new_chunks.push(nc);
            }
        }
        self.chunks = new_chunks;
    }

    fn approx_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.chunks.len() * 64
    }
}

impl<T, const D: usize> std::fmt::Debug for GridFragment<T, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GridFragment(")?;
        for (i, c) in self.chunks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?}", c.bx)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lo: [i64; 2], hi: [i64; 2]) -> BoxRegion<2> {
        BoxRegion::cuboid(lo, hi)
    }

    fn filled(region: &BoxRegion<2>) -> GridFragment<i64, 2> {
        let mut f = GridFragment::new(region);
        f.for_each_mut(|p, v| *v = p[0] * 100 + p[1]);
        f
    }

    #[test]
    fn new_covers_region_with_defaults() {
        let f = GridFragment::<f64, 2>::new(&r2([0, 0], [3, 3]));
        assert_eq!(f.len(), 9);
        assert_eq!(f.get(&Point([1, 1])), Some(&0.0));
        assert_eq!(f.get(&Point([3, 3])), None);
        assert_eq!(f.region(), r2([0, 0], [3, 3]));
    }

    #[test]
    fn get_set_round_trip() {
        let mut f = GridFragment::<i64, 2>::new(&r2([5, 5], [8, 8]));
        assert!(f.set(&Point([6, 7]), 42));
        assert_eq!(f.get(&Point([6, 7])), Some(&42));
        assert!(!f.set(&Point([0, 0]), 1)); // outside coverage
    }

    #[test]
    fn extract_copies_values() {
        let f = filled(&r2([0, 0], [4, 4]));
        let sub = f.extract(&r2([1, 1], [3, 3]));
        assert_eq!(sub.region(), r2([1, 1], [3, 3]));
        assert_eq!(sub.get(&Point([2, 1])), Some(&201));
        assert_eq!(sub.get(&Point([0, 0])), None);
    }

    #[test]
    fn extract_clips_to_coverage() {
        let f = filled(&r2([0, 0], [2, 2]));
        let sub = f.extract(&r2([1, 1], [5, 5]));
        assert_eq!(sub.region(), r2([1, 1], [2, 2]));
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.get(&Point([1, 1])), Some(&101));
    }

    #[test]
    fn insert_last_writer_wins() {
        let mut f = filled(&r2([0, 0], [3, 3]));
        let mut g = GridFragment::<i64, 2>::new(&r2([2, 0], [5, 3]));
        g.for_each_mut(|_, v| *v = -7);
        f.insert(&g);
        assert_eq!(f.region(), r2([0, 0], [5, 3]));
        assert_eq!(f.get(&Point([1, 1])), Some(&101)); // original
        assert_eq!(f.get(&Point([2, 1])), Some(&-7)); // overwritten
        assert_eq!(f.get(&Point([4, 2])), Some(&-7)); // extended
    }

    #[test]
    fn remove_preserves_survivors() {
        let mut f = filled(&r2([0, 0], [4, 4]));
        f.remove(&r2([1, 1], [3, 3]));
        assert_eq!(f.region(), r2([0, 0], [4, 4]).difference(&r2([1, 1], [3, 3])));
        assert_eq!(f.len(), 12);
        assert_eq!(f.get(&Point([2, 2])), None);
        assert_eq!(f.get(&Point([0, 3])), Some(&3));
        assert_eq!(f.get(&Point([3, 0])), Some(&300));
    }

    #[test]
    fn halo_exchange_pattern() {
        // Two neighbouring fragments exchange one-cell halos — the core
        // motion of the stencil benchmark.
        let left = filled(&r2([0, 0], [4, 8]));
        let mut right = GridFragment::<i64, 2>::new(&r2([4, 0], [8, 8]));
        right.for_each_mut(|p, v| *v = -(p[0] * 100 + p[1]));

        // Right needs left's boundary column x=3.
        let halo = left.extract(&r2([3, 0], [4, 8]));
        let mut right_view = right.clone();
        right_view.insert(&halo);
        assert_eq!(right_view.get(&Point([3, 5])), Some(&305));
        assert_eq!(right_view.get(&Point([4, 5])), Some(&-405));
        // The original right fragment is untouched.
        assert_eq!(right.get(&Point([3, 5])), None);
    }

    #[test]
    fn multi_chunk_fragment_access() {
        let region = r2([0, 0], [2, 2]).union(&r2([10, 10], [12, 12]));
        let mut f = GridFragment::<i64, 2>::new(&region);
        assert!(f.set(&Point([11, 11]), 5));
        assert!(f.set(&Point([1, 0]), 6));
        assert!(!f.set(&Point([5, 5]), 7));
        assert_eq!(f.len(), 8);
    }

    #[test]
    fn three_d_extract_insert() {
        let mut f = GridFragment::<f32, 3>::new(&BoxRegion::cuboid([0; 3], [4; 3]));
        f.for_each_mut(|p, v| *v = (p[0] * 16 + p[1] * 4 + p[2]) as f32);
        let sub = f.extract(&BoxRegion::cuboid([1, 1, 1], [3, 3, 3]));
        assert_eq!(sub.len(), 8);
        assert_eq!(sub.get(&Point([2, 1, 2])), Some(&38.0));
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let f = filled(&r2([0, 0], [3, 3]));
        let g: GridFragment<i64, 2> = crate::wire::decode(&crate::wire::encode(&f)).unwrap();
        assert_eq!(g.get(&Point([2, 2])), Some(&202));
        assert_eq!(g.region(), f.region());
    }

    #[test]
    fn approx_bytes_scales_with_len() {
        let small = GridFragment::<f64, 2>::new(&r2([0, 0], [2, 2]));
        let large = GridFragment::<f64, 2>::new(&r2([0, 0], [20, 20]));
        assert!(large.approx_bytes() > small.approx_bytes() * 10);
    }

    #[test]
    fn empty_fragment_behaviour() {
        let f = GridFragment::<i64, 2>::empty();
        assert!(f.is_empty());
        assert!(f.region().is_empty());
        assert!(f.extract(&r2([0, 0], [5, 5])).is_empty());
    }
}
