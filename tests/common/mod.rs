//! Generators shared by the conformance suites: a randomized fork-join
//! model program family, and a randomized runtime program with
//! spontaneous migrations at every phase boundary.

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor, BatchParams, FaultPlan, Grid, IntegrityConfig, PforSpec, Requirement, ResilienceConfig,
    RtConfig, RtCtx, RunReport, Runtime, TaskValue, WorkItem,
};
use allscale_des::rng::XorShift64;
use allscale_model as model;
use allscale_region::{BoxRegion, Region};

/// Generate a random multi-phase program shaped like the applications:
/// the entry task creates `1..=max_items` items, then per phase spawns
/// writers over a random disjoint partition of one item, syncs them,
/// spawns readers over random element subsets, syncs those — and
/// sometimes destroys an item at the end. Fork-join structure guarantees
/// termination; partitions make writes conflict-free by construction, so
/// every Section 2.5 property must hold on every schedule.
pub fn random_phased_program(rng: &mut XorShift64, max_items: u32) -> model::Program {
    use model::{Action, ItemId, ProgramBuilder, TaskId, VariantSpec};
    let mut b = ProgramBuilder::new();
    let n_items = 1 + rng.below(u64::from(max_items)) as u32;
    let elems = 8 + 4 * rng.below(3) as u32; // 8, 12, or 16 elements
    for d in 0..n_items {
        b.item(ItemId(d), elems);
    }
    let mut next_task = 1u32;
    let mut actions: Vec<Action> = (0..n_items).map(|d| Action::Create(ItemId(d))).collect();
    for _phase in 0..1 + rng.below(3) {
        let item = ItemId(rng.below(n_items as u64) as u32);
        // Writers over a random disjoint partition of the item.
        let k = 2 + rng.below(4); // 2..=5 writers
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        for e in 0..elems {
            parts[rng.below(k) as usize].push(e);
        }
        let mut wave = Vec::new();
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            let t = TaskId(next_task);
            next_task += 1;
            b.variant(
                t,
                VariantSpec {
                    writes: model::program::req(&[(item, &part)]),
                    ..Default::default()
                },
            );
            wave.push(t);
        }
        actions.extend(wave.iter().map(|&t| Action::Spawn(t)));
        actions.extend(wave.iter().map(|&t| Action::Sync(t)));
        // Readers over random, freely overlapping subsets.
        let mut wave = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut subset: Vec<u32> = (0..elems).filter(|_| rng.below(2) == 0).collect();
            if subset.is_empty() {
                subset.push(rng.below(elems as u64) as u32);
            }
            let t = TaskId(next_task);
            next_task += 1;
            b.variant(
                t,
                VariantSpec {
                    reads: model::program::req(&[(item, &subset)]),
                    ..Default::default()
                },
            );
            wave.push(t);
        }
        actions.extend(wave.iter().map(|&t| Action::Spawn(t)));
        actions.extend(wave.iter().map(|&t| Action::Sync(t)));
    }
    if rng.below(2) == 0 {
        actions.push(Action::Destroy(ItemId(0)));
    }
    b.variant(
        TaskId(0),
        VariantSpec {
            actions,
            ..Default::default()
        },
    );
    b.build(TaskId(0))
}

/// Elements of the chaos program's grid.
pub const CHAOS_N: i64 = 96;
/// Bump phases of the chaos program.
pub const CHAOS_STEPS: usize = 4;

/// Runtime options of one [`run_chaos`] run (all off by default).
#[derive(Default)]
pub struct ChaosRun {
    /// Transfer batching.
    pub batching: Option<BatchParams>,
    /// Injected faults.
    pub faults: Option<FaultPlan>,
    /// The resilience manager.
    pub resilience: Option<ResilienceConfig>,
    /// The data-integrity service.
    pub integrity: Option<IntegrityConfig>,
    /// Re-check the model invariants right after each phase's migration,
    /// not only at the phase boundary.
    pub verify_migrations: bool,
}

/// One randomized run of the chaos program on 4 nodes × 2 cores: fill
/// `g[i] = i`, then `CHAOS_STEPS` phases each adding `1.0` to every
/// element, with a random region migration (keyed deterministically by
/// `(seed, phase)`, so phase replay after a recovery redoes the same
/// chaos) before every step, and a final read-back phase asserting
/// `g[i] == i + CHAOS_STEPS` exactly. The read-back fails loud if the
/// runtime ever lost, duplicated, or stale-served a byte. The model
/// invariants of Section 2.5 are checked at every phase boundary via
/// `verify_consistency` — including boundaries reached while a locality
/// is dead but not yet detected, and boundaries replayed after a
/// recovery.
pub fn run_chaos(seed: u64, opts: ChaosRun) -> RunReport {
    let nodes = 4usize;
    let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = grid.clone();
    let mut cfg = RtConfig::test(nodes, 2);
    cfg.faults = opts.faults;
    cfg.resilience = opts.resilience;
    cfg.integrity = opts.integrity;
    if let Some(bp) = opts.batching {
        cfg = cfg.with_batching(bp);
    }
    let verify_migrations = opts.verify_migrations;
    let runtime = Runtime::new(cfg);
    runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            let violations = ctx.verify_consistency();
            assert!(
                violations.is_empty(),
                "seed {seed}, phase {phase}: {violations:?}"
            );
            if phase == 0 {
                let g = Grid::<f64, 1>::create(ctx, "chaos", [CHAOS_N]);
                *gc.borrow_mut() = Some(g);
                return Some(pfor(
                    PforSpec {
                        name: "fill",
                        range: g.full_box(),
                        grain: 12,
                        ns_per_point: 3.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                ));
            }
            let g = gc.borrow().unwrap();
            if phase <= CHAOS_STEPS {
                // Random migration before the step, deterministic in
                // (seed, phase) so a replayed boundary redoes exactly the
                // same movement over whatever layout recovery left behind.
                let mut rng = XorShift64::new(seed.wrapping_mul(0x9e3779b9) ^ phase as u64);
                let src = rng.below(nodes as u64) as usize;
                let dst = rng.below(nodes as u64) as usize;
                if src != dst {
                    let lo = rng.below(CHAOS_N as u64) as i64;
                    let len = 1 + rng.below(48) as i64;
                    let slice = BoxRegion::<1>::cuboid([lo], [(lo + len).min(CHAOS_N)]);
                    let owned = ctx.owned_region_at(src, g.id);
                    let owned = owned
                        .as_any()
                        .downcast_ref::<BoxRegion<1>>()
                        .expect("1-D grid region")
                        .clone();
                    let moved = owned.intersect(&slice);
                    if !moved.is_empty() {
                        ctx.migrate_region(g.id, &moved, src, dst);
                        if verify_migrations {
                            let violations = ctx.verify_consistency();
                            assert!(
                                violations.is_empty(),
                                "seed {seed}, phase {phase}, after migration: {violations:?}"
                            );
                        }
                    }
                }
                return Some(pfor(
                    PforSpec {
                        name: "bump",
                        range: g.full_box(),
                        grain: 12,
                        ns_per_point: 3.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        let v = g.get(tctx, p.0);
                        g.set(tctx, p.0, v + 1.0);
                    },
                ));
            }
            if phase == CHAOS_STEPS + 1 {
                // Exact read-back: data preservation plus single execution
                // (a task replayed twice would have bumped a cell twice).
                return Some(pfor(
                    PforSpec {
                        name: "readback",
                        range: g.full_box(),
                        grain: 12,
                        ns_per_point: 1.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        assert_eq!(
                            g.get(tctx, p.0),
                            p[0] as f64 + CHAOS_STEPS as f64,
                            "seed {seed}: wrong value at {p:?}"
                        );
                    },
                ));
            }
            None
        },
    )
}
