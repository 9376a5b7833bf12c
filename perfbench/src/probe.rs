//! Layer probes: host ns per call of one public function, on inputs shaped
//! like a workload. Each probe times `BATCHES` batches and reports the
//! median batch's ns per call.

use std::hint::black_box;
use std::time::Instant;

use allscale_core::{bisect, bisect_axis, DistIndex, ItemId, LocationCache};
use allscale_des::rng::XorShift64;
use allscale_des::{Sim, SimDuration};
use allscale_region::{
    BoxRegion, BucketRegion, Fragment, GridBox, GridFragment, KeyedFragment, Point, Region,
};

use crate::stats::median;

const BATCHES: usize = 9;

/// Median over `BATCHES` batches of host ns per call; `batch` runs one
/// batch and returns its call count.
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm caches and lazy allocations
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let calls = batch();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut per_call)
}

/// `Sim::schedule` + `Sim::step` with `depth` events pending: the queue
/// stays at `depth` because every step is matched by one schedule.
pub fn des_schedule_run_ns(depth: usize, seed: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new(0);
    let mut rng = XorShift64::new(seed | 1);
    for _ in 0..depth {
        sim.schedule(SimDuration::from_nanos(1 + rng.below(1_000_000)), |s| {
            s.world += 1
        });
    }
    ns_per_call(|| {
        const CALLS: u64 = 200_000;
        for _ in 0..CALLS {
            sim.schedule(SimDuration::from_nanos(1 + rng.below(1_000_000)), |s| {
                s.world += 1
            });
            sim.step();
        }
        black_box(sim.world);
        CALLS
    })
}

/// Stencil-64 geometry: `NODES` nodes of `ROWS`×`COLS` cells each.
const NODES: i64 = 64;
const ROWS: i64 = 512;
const COLS: i64 = 256;
/// The node whose fragment the probes model (an interior one).
const NODE: i64 = 31;

/// The leaf tiles of a `pfor` over `range` — the same split rule as
/// `allscale_core::pfor` (axis 0 first until `pieces` bands, then the
/// longest axis, until a tile holds at most `grain` points), depth first.
fn pfor_tiles(range: GridBox<2>, grain: u64, pieces: u64) -> Vec<GridBox<2>> {
    let extent0 = |b: &GridBox<2>| (b.hi()[0] - b.lo()[0]) as u64;
    let full0 = extent0(&range).max(1);
    let mut out = Vec::new();
    let mut stack = vec![range];
    while let Some(b) = stack.pop() {
        if b.cardinality() <= grain {
            out.push(b);
            continue;
        }
        let e0 = extent0(&b);
        let halves = if e0 > 1 && full0 / e0 < pieces {
            bisect_axis(&b, 0)
        } else {
            bisect(&b)
        };
        stack.extend(halves.into_iter().rev());
    }
    out
}

fn grid_box(lo: [i64; 2], hi: [i64; 2]) -> GridBox<2> {
    GridBox::new(Point(lo), Point(hi)).expect("non-empty box")
}

fn node_rows(node: i64) -> (i64, i64) {
    (node * ROWS, (node + 1) * ROWS)
}

/// The grain and axis-0 band count stencil-64's `pfor`s use.
fn stencil_split() -> (u64, u64) {
    let total = (NODES * ROWS * COLS) as u64;
    ((total / (NODES as u64 * 40)).max(64), NODES as u64 * 4)
}

/// A stencil-64 node's grid fragment as its edit history leaves it: one
/// chunk per first-touched init tile, in touch order, plus the halo rows
/// imported from both neighbours during a time step.
fn stencil_node_fragment(node: i64) -> GridFragment<f64, 2> {
    let (grain, pieces) = stencil_split();
    let (lo, hi) = node_rows(node);
    let mut frag = GridFragment::<f64, 2>::empty();
    let full = grid_box([0, 0], [NODES * ROWS, COLS]);
    for tile in pfor_tiles(full, grain, pieces) {
        if tile.lo()[0] >= lo && tile.hi()[0] <= hi {
            frag.insert(&GridFragment::alloc(&BoxRegion::from_box(tile)));
        }
    }
    for row in [lo - 1, hi] {
        if (0..NODES * ROWS).contains(&row) {
            for c in (0..COLS).step_by(64) {
                let strip = grid_box([row, c], [row + 1, (c + 64).min(COLS)]);
                frag.insert(&GridFragment::alloc(&BoxRegion::from_box(strip)));
            }
        }
    }
    frag
}

/// The same coverage as [`stencil_node_fragment`] in a single chunk.
fn single_chunk_fragment(node: i64) -> GridFragment<f64, 2> {
    let (lo, hi) = node_rows(node);
    GridFragment::new(&BoxRegion::from_box(grid_box([lo - 1, 0], [hi + 1, COLS])))
}

/// Number of chunks of the stencil-64 node fragment, read off its size
/// estimate (`approx_bytes` = 8 bytes per element + 64 per chunk).
pub fn stencil_node_chunks() -> usize {
    let frag = stencil_node_fragment(NODE);
    (frag.approx_bytes() - frag.len() * std::mem::size_of::<f64>()) / 64
}

/// The points a node's time-step tiles read, five per interior cell in
/// the kernel's order (centre, left, right, up, down).
fn stencil_reads(node: i64) -> Vec<Point<2>> {
    let (lo, hi) = node_rows(node);
    let (lo, hi) = (lo.max(1), hi.min(NODES * ROWS - 1));
    let mut reads = Vec::new();
    for x in lo..hi {
        for y in 1..COLS - 1 {
            for (dx, dy) in [(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)] {
                reads.push(Point([x + dx, y + dy]));
            }
        }
    }
    reads
}

fn grid_get_ns(frag: &GridFragment<f64, 2>, reads: &[Point<2>]) -> f64 {
    ns_per_call(|| {
        let mut acc = 0.0;
        for p in reads {
            acc += *frag.get(p).expect("covered");
        }
        black_box(acc);
        reads.len() as u64
    })
}

/// `GridFragment::get` over one node's time-step reads: on the fragment
/// its edit history builds, and on a single chunk of the same coverage.
pub fn grid_get_ns_pair() -> (f64, f64) {
    let reads = stencil_reads(NODE);
    (
        grid_get_ns(&stencil_node_fragment(NODE), &reads),
        grid_get_ns(&single_chunk_fragment(NODE), &reads),
    )
}

/// One halo row crossing: extract the neighbour's boundary row, insert it
/// as a replica, and remove it again when the replica is dropped.
pub fn grid_halo_ns() -> f64 {
    let neighbour = stencil_node_fragment(NODE - 1);
    let mut frag = stencil_node_fragment(NODE);
    let (lo, _) = node_rows(NODE);
    // The halo row the node already holds is what the exchange refreshes.
    let halo = BoxRegion::from_box(grid_box([lo - 1, 0], [lo, COLS]));
    frag.remove(&halo);
    ns_per_call(|| {
        const CALLS: u64 = 2_000;
        for _ in 0..CALLS {
            let row = neighbour.extract(&halo);
            frag.insert(&row);
            frag.remove(&halo);
        }
        black_box(frag.len());
        CALLS
    })
}

/// `KeyedFragment::get` on one serving shard: 2048 keys over 8 shards of
/// 64 buckets, so a shard holds about 256 keys.
pub fn keyed_get_ns(seed: u64) -> f64 {
    const BUCKETS: u32 = 8 * 64;
    let shard = BucketRegion::of_range(BUCKETS, 0, 64);
    let mut frag = KeyedFragment::<u64, u64>::new(shard.clone());
    let mut keys = Vec::new();
    for k in 0..2048u64 {
        if shard.contains(BucketRegion::bucket_of_bytes(BUCKETS, &k.to_le_bytes())) {
            frag.insert(k, k);
            keys.push(k);
        }
    }
    let mut rng = XorShift64::new(seed | 1);
    let lookups: Vec<u64> = (0..100_000)
        .map(|_| keys[rng.below(keys.len() as u64) as usize])
        .collect();
    ns_per_call(|| {
        let mut acc = 0u64;
        for k in &lookups {
            acc = acc.wrapping_add(*frag.get(k).expect("present"));
        }
        black_box(acc);
        lookups.len() as u64
    })
}

/// `DistIndex::resolve` and a warm `LocationCache::resolve` at 64
/// localities, for a boundary tile's dilated read: rows straddling the
/// node boundary, so two localities answer.
pub fn index_resolve_ns() -> (f64, f64) {
    let item = ItemId(0);
    let mut index = DistIndex::new(NODES as usize);
    index.register_item(item, &BoxRegion::<2>::empty());
    for p in 0..NODES {
        let (lo, hi) = node_rows(p);
        index.update_leaf(
            item,
            p as usize,
            Box::new(BoxRegion::from_box(grid_box([lo, 0], [hi, COLS]))),
        );
    }
    let (lo, _) = node_rows(NODE);
    let read = BoxRegion::from_box(grid_box([lo - 1, 0], [lo + 32, 65]));
    let start = NODE as usize;
    const CALLS: u64 = 20_000;
    let uncached = ns_per_call(|| {
        for _ in 0..CALLS {
            black_box(index.resolve(item, start, black_box(&read)));
        }
        CALLS
    });
    let mut cache = LocationCache::new();
    let cached = ns_per_call(|| {
        for _ in 0..CALLS {
            black_box(cache.resolve(&index, item, start, black_box(&read)));
        }
        CALLS
    });
    (uncached, cached)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_fragment_covers_its_rows_and_halo() {
        let frag = stencil_node_fragment(NODE);
        assert_eq!(frag.len() as i64, (ROWS + 2) * COLS);
        let one = single_chunk_fragment(NODE).region();
        assert!(frag.region().difference(&one).is_empty());
        assert!(one.difference(&frag.region()).is_empty());
        assert!(stencil_node_chunks() > 32);
    }

    #[test]
    fn tiles_partition_the_range() {
        let (grain, pieces) = stencil_split();
        let full = grid_box([0, 0], [NODES * ROWS, COLS]);
        let tiles = pfor_tiles(full, grain, pieces);
        let cells: u64 = tiles.iter().map(|t| t.cardinality()).sum();
        assert_eq!(cells, full.cardinality());
        assert!(tiles.iter().all(|t| t.cardinality() <= grain));
    }
}
