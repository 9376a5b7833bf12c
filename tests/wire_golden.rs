//! Golden pins of the wire encoding.
//!
//! Encoded lengths bill every transfer, region fingerprints key the
//! location cache, shard fingerprints drive incremental checkpoints and
//! FNV frames checksum payloads, so the byte format is part of every
//! virtual number the runtime reports. This file pins `(length, FNV-1a)`
//! of the encoding of one representative value per encoded type, taken
//! through the runtime's own entry points (`DynRegion::encode` and
//! `DynFragment::encode`).

use std::collections::BTreeMap;

use allscale_apps::ipic3d::Particle;
use allscale_apps::tpc::KdNode;
use allscale_core::{DynFragment, DynRegion};
use allscale_region::{
    fnv1a_64, BitmaskTreeRegion, BoxRegion, BucketRegion, Fragment, GridBox, GridFragment,
    KeyedFragment, Point, Region, ScalarFragment, TreeFragment, TreePath, TreeRegion, UnitRegion,
};

/// The encoding of a plain value: store it at the root of a tree fragment
/// covering the whole tree, encode the fragment, and strip the fixed
/// prefix (the region's `Full` variant index, the one-entry map length and
/// the root path) that precedes the value.
macro_rules! encoded {
    ($v:expr) => {{
        let mut f = TreeFragment::new(TreeRegion::subtree(TreePath::ROOT));
        assert!(f.set(TreePath::ROOT, $v));
        let bytes = DynFragment::encode(&f);
        let prefix = [&0u32.to_le_bytes()[..], &1u64.to_le_bytes(), &[0; 9]].concat();
        assert_eq!(bytes[..prefix.len()], prefix[..], "tree fragment prefix");
        bytes[prefix.len()..].to_vec()
    }};
}

fn path(steps: &[bool]) -> TreePath {
    TreePath::from_steps(steps)
}

fn particle(id: u64) -> Particle {
    Particle {
        id,
        pos: [0.5, 1.25, -3.0],
        vel: [1e-3, -0.0, 7.75],
    }
}

fn kd_node(seed: f64) -> KdNode {
    KdNode {
        point: [seed, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5],
        dim: 3,
    }
}

fn cases() -> Vec<(&'static str, Vec<u8>)> {
    let grid_region = BoxRegion::cuboid([0, 0], [4, 3]).union(&BoxRegion::cuboid([6, 1], [8, 9]));
    let mut grid = GridFragment::<f64, 2>::new(&grid_region);
    grid.for_each_mut(|p, v| *v = (p[0] * 100 + p[1]) as f64 * 0.5);

    let mut cells = GridFragment::<Vec<Particle>, 3>::new(&BoxRegion::cuboid([0, 0, 0], [1, 1, 2]));
    assert!(cells.set(&Point([0, 0, 1]), vec![particle(7), particle(8)]));

    let mut blocks = BitmaskTreeRegion::of_subtree(3, 5);
    blocks.set_root_block(true);
    let mut kd = TreeFragment::new(blocks.clone());
    assert!(kd.set(TreePath::ROOT, kd_node(0.25)));
    assert!(kd.set(blocks.subtree_root(5), kd_node(99.0)));

    let tree_region = TreeRegion::from_include_exclude(&[path(&[false])], &[path(&[false, true])]);
    let mut tree = TreeFragment::<u32, TreeRegion>::new(tree_region.clone());
    for (i, p) in [path(&[false]), path(&[false, false, true])]
        .into_iter()
        .enumerate()
    {
        assert!(tree.set(p, 10 + i as u32));
    }

    let mut scalar = ScalarFragment::<f64>::alloc(&UnitRegion::FULL);
    assert!(scalar.set(2.5));

    let mut keyed = KeyedFragment::<u64, String>::new(BucketRegion::full(16));
    for k in [3u64, 17, 40_000] {
        assert!(keyed.insert(k, format!("value {k}")));
    }
    let mut tuple_keyed = KeyedFragment::<(u32, u32), u64>::new(BucketRegion::full(16));
    assert!(tuple_keyed.insert((3, 4), 7));
    assert!(tuple_keyed.insert((9, 1), 8));

    let mut map = BTreeMap::new();
    map.insert(3u32, "three".to_string());
    map.insert(1, "one".to_string());

    vec![
        // Regions.
        ("BoxRegion<2>", DynRegion::encode(&grid_region)),
        ("TreeRegion", DynRegion::encode(&tree_region)),
        ("BitmaskTreeRegion", DynRegion::encode(&blocks)),
        ("UnitRegion full", DynRegion::encode(&UnitRegion::FULL)),
        ("UnitRegion empty", DynRegion::encode(&UnitRegion::empty())),
        (
            "BucketRegion",
            DynRegion::encode(&BucketRegion::of_range(100, 3, 70)),
        ),
        // Fragments.
        ("GridFragment<f64, 2>", DynFragment::encode(&grid)),
        ("GridFragment<Cell, 3>", DynFragment::encode(&cells)),
        ("TreeFragment<KdNode, Bitmask>", DynFragment::encode(&kd)),
        ("TreeFragment<u32, Tree>", DynFragment::encode(&tree)),
        ("ScalarFragment full", DynFragment::encode(&scalar)),
        (
            "ScalarFragment empty",
            DynFragment::encode(&ScalarFragment::<f64>::empty()),
        ),
        ("KeyedFragment<u64, String>", DynFragment::encode(&keyed)),
        (
            "KeyedFragment<(u32, u32), u64>",
            DynFragment::encode(&tuple_keyed),
        ),
        // Plain values.
        (
            "GridBox<2>",
            encoded!(GridBox::new(Point([-1, 2]), Point([5, 6])).unwrap()),
        ),
        ("Point<3>", encoded!(Point([-7i64, 0, 1 << 40]))),
        ("TreePath", encoded!(path(&[true, false, true, true]))),
        ("Particle", encoded!(particle(42))),
        ("KdNode", encoded!(kd_node(-1.5))),
        ("String", encoded!("façade".to_string())),
        ("Option Some", encoded!(Some(17u64))),
        ("Option None", encoded!(Option::<u64>::None)),
        ("tuple", encoded!((1u8, "x".to_string(), vec![9.5f64]))),
        ("BTreeMap", encoded!(map)),
        ("nested Vec", encoded!(vec![vec![1u8], vec![], vec![2, 3]])),
        ("array", encoded!([1.0f32, -2.0, 0.5])),
        (
            "primitives",
            encoded!((true, -42i8, 0x1234u16, -7_000_000i32, u64::MAX)),
        ),
        ("usize", encoded!(123_456usize)),
        ("char", encoded!('λ')),
        ("Box", encoded!(Box::new(-1e300f64))),
    ]
}

/// `(name, encoded length, FNV-1a of the encoding)`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("BoxRegion<2>", 72, 0xad1f03d96ad8f666),
    ("TreeRegion", 22, 0x4541f87d8be37722),
    ("BitmaskTreeRegion", 17, 0x0e231d748b2313f2),
    ("UnitRegion full", 1, 0xaf63bc4c8601b62c),
    ("UnitRegion empty", 1, 0xaf63bd4c8601b7df),
    ("BucketRegion", 28, 0x959c7df4c3258b73),
    ("GridFragment<f64, 2>", 312, 0x4829a64d169b11ca),
    ("GridFragment<Cell, 3>", 192, 0x312517e213caa1f5),
    ("TreeFragment<KdNode, Bitmask>", 157, 0xcd1b02989503766d),
    ("TreeFragment<u32, Tree>", 56, 0x474852d70b5c6c91),
    ("ScalarFragment full", 9, 0x528c54dc8fe93a48),
    ("ScalarFragment empty", 1, 0xaf63bd4c8601b7df),
    ("KeyedFragment<u64, String>", 114, 0x42001b59ebc62d22),
    ("KeyedFragment<(u32, u32), u64>", 68, 0xf31972d646149197),
    ("GridBox<2>", 32, 0xcccc7d504fcc50dc),
    ("Point<3>", 24, 0x51aa67c556721610),
    ("TreePath", 9, 0xa0438652e26112c4),
    ("Particle", 56, 0x4d0d59ee57c8692e),
    ("KdNode", 57, 0xb62edbe49db3b3c8),
    ("String", 15, 0x895a993a4362496b),
    ("Option Some", 9, 0x6141647649d91fdd),
    ("Option None", 1, 0xaf63bd4c8601b7df),
    ("tuple", 26, 0x5d1d3f332124a345),
    ("BTreeMap", 40, 0xfed94c543a718357),
    ("nested Vec", 35, 0x36ec2e8951bc7acf),
    ("array", 12, 0xc598e74ad8b1c9b5),
    ("primitives", 16, 0xe7e2ac51f80479ec),
    ("usize", 8, 0x55eeede317d8fab6),
    ("char", 4, 0xe1f74b70584c35d3),
    ("Box", 8, 0x8b8ecde62cb4aaab),
];

#[test]
fn encodings_match_golden_pins() {
    let got: Vec<(&str, usize, u64)> = cases()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a_64(&bytes)))
        .collect();
    assert_eq!(got, GOLDEN);
}
