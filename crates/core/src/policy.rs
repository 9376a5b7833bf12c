//! The scheduling policy (paper Algorithm 2, lines 3 and 12).
//!
//! "Whenever a task is scheduled, in a first step a customizable scheduling
//! policy is consulted to select the variant to be executed. … If neither
//! \[a process covering all requirements nor one covering all write
//! requirements\] is available, the scheduling policy will be once more
//! consulted to select a desirable locality."
//!
//! The variant rule ([`pick_variant`]) is the same for every policy: split
//! until the cluster is saturated. The fallback target is where the
//! policies differ. [`SchedulingPolicy::DataAware`] (the default) spreads
//! placement-hinted tasks proportionally over the localities — which is
//! what makes first-touch initialization lay data out in blocks ("during
//! the initialization phase of applications, it is responsible for
//! spreading out tasks such that data items get evenly distributed
//! throughout the system"). [`SchedulingPolicy::RoundRobin`] is the
//! ablation baseline (DESIGN.md, A2).

/// Which variant of a task to run (paper Def. 2.3 / Section 3.3: each task
/// has a serial *process* variant and, where possible, a parallel *split*
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Execute the task body directly.
    Process,
    /// Decompose into child tasks.
    Split,
}

/// Target number of leaf tasks per core the variant rule splits toward.
const LEAVES_PER_CORE: usize = 2;

/// Choose the variant for a task at recursion `depth` (Algorithm 2 line
/// 3): split until ~[`LEAVES_PER_CORE`] leaf tasks exist per core.
pub fn pick_variant(depth: u32, can_split: bool, nodes: usize, cores_per_node: usize) -> Variant {
    if !can_split {
        return Variant::Process;
    }
    let target_leaves = (nodes * cores_per_node * LEAVES_PER_CORE).max(1) as u64;
    // A complete binary split tree has 2^depth tasks at this depth.
    if (1u64 << depth.min(62)) < target_leaves {
        Variant::Split
    } else {
        Variant::Process
    }
}

/// Map a placement hint in `[0, 1)` to a locality. Hints at or above 1
/// land on the last locality; negative and NaN hints on the first.
pub fn hint_to_node(hint: f64, nodes: usize) -> usize {
    ((hint.clamp(0.0, 1.0) * nodes as f64) as usize).min(nodes.saturating_sub(1))
}

/// How Algorithm 2 line 12 picks a locality for a task whose
/// requirements pin it nowhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// The default: place hinted tasks by hint, unhinted ones on the
    /// least-loaded locality (ties toward the origin, to preserve
    /// locality).
    DataAware,
    /// Ablation: ignore hints, place tasks round-robin.
    RoundRobin,
}

impl SchedulingPolicy {
    /// Choose a target among `nodes` localities for a task spawned at
    /// `origin`. `load(n)` is locality `n`'s queued-or-running task count;
    /// `cursor` is the round-robin position, advanced once per
    /// round-robin pick.
    pub fn pick_target(
        self,
        hint: Option<f64>,
        origin: usize,
        nodes: usize,
        load: impl Fn(usize) -> usize,
        cursor: &mut usize,
    ) -> usize {
        match (self, hint) {
            (SchedulingPolicy::RoundRobin, _) => {
                let t = *cursor % nodes;
                *cursor = cursor.wrapping_add(1);
                t
            }
            (SchedulingPolicy::DataAware, Some(h)) => hint_to_node(h, nodes),
            (SchedulingPolicy::DataAware, None) => {
                let mut best = origin;
                let mut best_load = load(origin);
                for n in 0..nodes {
                    let l = load(n);
                    if l < best_load {
                        best = n;
                        best_load = l;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `policy`'s pick over the load vector `load`, with a fresh cursor.
    fn pick(policy: SchedulingPolicy, hint: Option<f64>, origin: usize, load: &[usize]) -> usize {
        policy.pick_target(hint, origin, load.len(), |n| load[n], &mut 0)
    }

    #[test]
    fn data_aware_splits_until_saturation() {
        // 4 nodes x 2 cores: target 16 leaves
        assert_eq!(pick_variant(0, true, 4, 2), Variant::Split);
        assert_eq!(pick_variant(3, true, 4, 2), Variant::Split);
        assert_eq!(pick_variant(4, true, 4, 2), Variant::Process);
        assert_eq!(pick_variant(0, false, 4, 2), Variant::Process);
    }

    #[test]
    fn hints_spread_blockwise() {
        let p = SchedulingPolicy::DataAware;
        let load = vec![0; 8];
        assert_eq!(pick(p, Some(0.0), 0, &load), 0);
        assert_eq!(pick(p, Some(0.49), 0, &load), 3);
        assert_eq!(pick(p, Some(0.99), 0, &load), 7);
        // Hint 1.0 clamps into the last node.
        assert_eq!(pick(p, Some(1.0), 0, &load), 7);
    }

    #[test]
    fn out_of_range_hints_clamp_to_the_end_nodes() {
        assert_eq!(hint_to_node(1.0, 8), 7);
        assert_eq!(hint_to_node(7.5, 8), 7);
        assert_eq!(hint_to_node(f64::NAN, 8), 0);
        assert_eq!(hint_to_node(-0.5, 8), 0);
        assert_eq!(hint_to_node(0.5, 1), 0);
    }

    #[test]
    fn unhinted_tasks_go_to_least_loaded() {
        let p = SchedulingPolicy::DataAware;
        assert_eq!(pick(p, None, 0, &[5, 2, 9, 2]), 1); // first least-loaded
        assert_eq!(pick(p, None, 2, &[0, 0, 0, 0]), 2); // tie → origin
    }

    #[test]
    fn round_robin_cycles() {
        let p = SchedulingPolicy::RoundRobin;
        let mut cursor = 0;
        let ts: Vec<usize> = (0..6)
            .map(|_| p.pick_target(Some(0.9), 0, 3, |_| 0, &mut cursor))
            .collect();
        assert_eq!(ts, vec![0, 1, 2, 0, 1, 2]);
    }
}
