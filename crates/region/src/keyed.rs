//! Keyed (map/set) data items — the paper's claim that "more complex
//! structures like lists, trees, graphs, sets, maps … can be implemented
//! using this interface" (Sections 1 and 3.1), made concrete for maps.
//!
//! Elements are addressed by the *hash bucket* of their key: the region
//! scheme [`BucketRegion`] is a bitmask over `B` buckets (closed under the
//! set operations trivially), and [`KeyedFragment`] stores the key-value
//! pairs of the covered buckets. Distribution therefore follows consistent
//! hashing: the runtime can migrate or replicate any subset of buckets.

use std::collections::BTreeMap;

use crate::fingerprint::fnv1a_64;
use crate::fragment::Fragment;
use crate::region::Region;
use crate::wire::{self, Wire, WireError};

/// A region over the hash buckets of a keyed data item.
///
/// All regions of one item must use the same bucket count; mixing counts
/// panics (it is a programming error, like mixing items).
#[derive(Clone)]
pub struct BucketRegion {
    buckets: u32,
    words: Vec<u64>,
}

impl PartialEq for BucketRegion {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: empty regions are equal regardless of bucket
        // count (the canonical `Region::empty()` uses one bucket).
        if self.buckets == other.buckets {
            self.words == other.words
        } else {
            self.is_empty() && other.is_empty()
        }
    }
}

impl Eq for BucketRegion {}

impl BucketRegion {
    /// An empty region over `buckets` buckets.
    pub fn new(buckets: u32) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        BucketRegion {
            buckets,
            words: vec![0; (buckets as usize).div_ceil(64)],
        }
    }

    /// The region covering every bucket.
    pub fn full(buckets: u32) -> Self {
        let mut r = Self::new(buckets);
        for b in 0..buckets {
            r.set(b, true);
        }
        r
    }

    /// A region of one bucket.
    pub fn of_bucket(buckets: u32, b: u32) -> Self {
        let mut r = Self::new(buckets);
        r.set(b, true);
        r
    }

    /// A contiguous bucket range `[lo, hi)` — the block-distribution
    /// building block.
    pub fn of_range(buckets: u32, lo: u32, hi: u32) -> Self {
        let mut r = Self::new(buckets);
        for b in lo..hi.min(buckets) {
            r.set(b, true);
        }
        r
    }

    /// Total bucket count of the item.
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Select or deselect a bucket.
    pub fn set(&mut self, b: u32, on: bool) {
        assert!(b < self.buckets, "bucket out of range");
        let (w, i) = ((b / 64) as usize, b % 64);
        if on {
            self.words[w] |= 1 << i;
        } else {
            self.words[w] &= !(1 << i);
        }
    }

    /// Whether bucket `b` is covered.
    pub fn contains(&self, b: u32) -> bool {
        if b >= self.buckets {
            return false;
        }
        (self.words[(b / 64) as usize] >> (b % 64)) & 1 == 1
    }

    /// Iterate covered buckets.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.buckets).filter(|&b| self.contains(b))
    }

    /// Number of covered buckets.
    pub fn cardinality(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The bucket a key's encoded bytes hash into (FNV-1a, stable across
    /// runs and processes).
    pub fn bucket_of_bytes(buckets: u32, key_bytes: &[u8]) -> u32 {
        (fnv1a_64(key_bytes) % buckets as u64) as u32
    }

    fn zip(&self, other: &Self, op: fn(u64, u64) -> u64) -> Self {
        if self.buckets != other.buckets {
            // Semantic escape hatches for the canonical empty value.
            if self.is_empty() || other.is_empty() {
                let buckets = self.buckets.max(other.buckets);
                let a = self.resized(buckets);
                let b = other.resized(buckets);
                return a.zip(&b, op);
            }
            panic!("bucket regions with different bucket counts");
        }
        BucketRegion {
            buckets: self.buckets,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| op(a, b))
                .collect(),
        }
    }

    fn resized(&self, buckets: u32) -> Self {
        debug_assert!(self.is_empty() || self.buckets == buckets);
        let mut r = Self::new(buckets);
        for b in self.iter() {
            r.set(b, true);
        }
        r
    }
}

impl std::fmt::Debug for BucketRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BucketRegion({}/{} buckets)",
            self.cardinality(),
            self.buckets
        )
    }
}

impl Region for BucketRegion {
    fn empty() -> Self {
        BucketRegion::new(1)
    }
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
    fn union(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }
    fn intersect(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }
    fn difference(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & !b)
    }
}

impl Wire for BucketRegion {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.buckets.encode_into(out);
        self.words.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BucketRegion {
            buckets: Wire::decode_from(input)?,
            words: Wire::decode_from(input)?,
        })
    }
}

/// The key-value pairs of a keyed data item's covered buckets.
#[derive(Clone)]
pub struct KeyedFragment<K: Ord, V> {
    region: BucketRegion,
    entries: BTreeMap<K, (u32, V)>, // key -> (bucket, value)
}

impl<K, V> KeyedFragment<K, V>
where
    K: Ord + Clone + Wire + 'static,
    V: Clone + Wire + 'static,
{
    /// An empty fragment covering `region`.
    pub fn new(region: BucketRegion) -> Self {
        KeyedFragment {
            region,
            entries: BTreeMap::new(),
        }
    }

    /// The bucket a key belongs to: the hash of its wire encoding.
    pub fn bucket_of(&self, key: &K) -> u32 {
        BucketRegion::bucket_of_bytes(self.region.buckets(), &wire::encode(key))
    }

    /// Insert a key-value pair. Returns `false` (dropping the value) when
    /// the key's bucket is not covered here.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let b = self.bucket_of(&key);
        if !self.region.contains(b) {
            return false;
        }
        self.entries.insert(key, (b, value));
        true
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Remove a key.
    pub fn remove_key(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, v)| v)
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, (_, v))| (k, v))
    }
}

impl<K: Ord + Wire, V: Wire> Wire for KeyedFragment<K, V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.region.encode_into(out);
        self.entries.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(KeyedFragment {
            region: Wire::decode_from(input)?,
            entries: Wire::decode_from(input)?,
        })
    }
}

impl<K, V> Fragment for KeyedFragment<K, V>
where
    K: Ord + Clone + Wire + 'static,
    V: Clone + Wire + 'static,
{
    type Region = BucketRegion;

    fn empty() -> Self {
        KeyedFragment {
            region: BucketRegion::empty(),
            entries: BTreeMap::new(),
        }
    }

    fn alloc(region: &BucketRegion) -> Self {
        KeyedFragment::new(region.clone())
    }

    fn region(&self) -> BucketRegion {
        self.region.clone()
    }

    fn extract(&self, region: &BucketRegion) -> Self {
        let r = self.region.intersect(region);
        let entries = self
            .entries
            .iter()
            .filter(|(_, (b, _))| r.contains(*b))
            .map(|(k, bv)| (k.clone(), bv.clone()))
            .collect();
        KeyedFragment { region: r, entries }
    }

    fn insert(&mut self, other: &Self) {
        self.region = self.region.union(&other.region);
        for (k, bv) in &other.entries {
            self.entries.insert(k.clone(), bv.clone());
        }
    }

    fn remove(&mut self, region: &BucketRegion) {
        self.region = self.region.difference(region);
        let keep = self.region.clone();
        self.entries.retain(|_, (b, _)| keep.contains(*b));
    }

    fn approx_bytes(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<K>() + std::mem::size_of::<V>() + 24)
    }
}

impl<K: Ord, V> std::fmt::Debug for KeyedFragment<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KeyedFragment({:?}, {} entries)",
            self.region,
            self.entries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::check_laws;
    use std::collections::BTreeSet;

    const B: u32 = 16;

    fn oracle(r: &BucketRegion) -> BTreeSet<u32> {
        r.iter().collect()
    }

    #[test]
    fn bucket_region_laws() {
        let cases = [
            BucketRegion::new(B),
            BucketRegion::full(B),
            BucketRegion::of_range(B, 0, 8),
            BucketRegion::of_range(B, 4, 12),
            BucketRegion::of_bucket(B, 15),
        ];
        for a in &cases {
            for b in &cases {
                check_laws(a, b, oracle);
            }
        }
    }

    #[test]
    fn hashing_is_stable_and_spread() {
        // Same key, same bucket, forever.
        let b1 = BucketRegion::bucket_of_bytes(B, b"hello");
        let b2 = BucketRegion::bucket_of_bytes(B, b"hello");
        assert_eq!(b1, b2);
        // Different keys spread over multiple buckets.
        let used: BTreeSet<u32> = (0..64u64)
            .map(|i| BucketRegion::bucket_of_bytes(B, &i.to_le_bytes()))
            .collect();
        assert!(used.len() >= 8, "poor spread: {used:?}");
    }

    #[test]
    fn u64_keys_bucket_by_their_little_endian_bytes() {
        // The KV app's shard map buckets keys by `k.to_le_bytes()`; the
        // fragment must agree or inserts land outside their shard.
        let f: KeyedFragment<u64, u64> = KeyedFragment::new(BucketRegion::full(B));
        for k in (0..1000u64).chain([1 << 40, u64::MAX]) {
            assert_eq!(
                f.bucket_of(&k),
                BucketRegion::bucket_of_bytes(B, &k.to_le_bytes())
            );
        }
    }

    #[test]
    fn keyed_fragment_insert_get() {
        let mut f: KeyedFragment<u64, String> = KeyedFragment::new(BucketRegion::full(B));
        assert!(f.insert(7, "seven".into()));
        assert!(f.insert(11, "eleven".into()));
        assert_eq!(f.get(&7).map(String::as_str), Some("seven"));
        assert_eq!(f.get(&99), None);
        assert_eq!(f.len(), 2);
        assert_eq!(f.remove_key(&7).as_deref(), Some("seven"));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn uncovered_buckets_reject_inserts() {
        // Find a key for bucket 0 and one for another bucket.
        let covered = BucketRegion::of_bucket(B, 3);
        let mut f: KeyedFragment<u64, u64> = KeyedFragment::new(covered);
        let mut hit = None;
        let mut miss = None;
        for k in 0..1000u64 {
            let b = BucketRegion::bucket_of_bytes(B, &wire::encode(&k));
            if b == 3 && hit.is_none() {
                hit = Some(k);
            }
            if b != 3 && miss.is_none() {
                miss = Some(k);
            }
        }
        let (hit, miss) = (hit.unwrap(), miss.unwrap());
        let mut f2 = f.extract(&BucketRegion::full(B));
        assert!(f.insert(hit, 1));
        assert!(!f.insert(miss, 2), "uncovered bucket must reject");
        let _ = &mut f2;
    }

    #[test]
    fn migration_moves_buckets() {
        let mut src: KeyedFragment<u64, u64> = KeyedFragment::new(BucketRegion::full(B));
        for k in 0..200u64 {
            src.insert(k, k * 10);
        }
        let lower = BucketRegion::of_range(B, 0, 8);
        let moved = src.extract(&lower);
        src.remove(&lower);
        let mut dst: KeyedFragment<u64, u64> = KeyedFragment::new(BucketRegion::new(B));
        Fragment::insert(&mut dst, &moved);
        assert_eq!(src.len() + dst.len(), 200);
        // Every key is in exactly one fragment, determined by its bucket.
        for k in 0..200u64 {
            let in_src = src.get(&k).is_some();
            let in_dst = dst.get(&k).is_some();
            assert!(in_src ^ in_dst, "key {k}");
        }
    }

    #[test]
    fn string_and_tuple_keys_hash() {
        let mut f: KeyedFragment<String, u32> = KeyedFragment::new(BucketRegion::full(B));
        assert!(f.insert("alpha".into(), 1));
        assert_eq!(f.get(&"alpha".to_string()), Some(&1));
        let mut g: KeyedFragment<(u32, u32), u32> = KeyedFragment::new(BucketRegion::full(B));
        assert!(g.insert((3, 4), 7));
        assert_eq!(g.get(&(3, 4)), Some(&7));
    }
}
