//! Everything `--seed` decides, generated up front: the standing
//! reference graph, tenant assignment, the ping order and the garbage
//! structures. The program under test only ever sees the calls these
//! plans turn into.

use std::time::Duration;

use crate::spec::Workload;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these sizes.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }
}

/// A standing activity by position: `(node, index on that node)`. The
/// driver creates standing activities first and in index order, so the
/// position is also the `AoId` the cluster hands back.
pub type Slot = (u32, u32);

/// The standing (live) part of a workload.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `busy[node][index]`: busy root (true) or idle dependent.
    pub busy: Vec<Vec<bool>>,
    /// Tenant per activity index (shared by all nodes, so same-index
    /// twins always share a tenant); empty without tenants.
    pub tenant_of_index: Vec<u32>,
    /// Reference edges `from -> to`, grouped by `from`.
    pub edges: Vec<(Slot, Slot)>,
}

impl Graph {
    pub fn tenant(&self, slot: Slot) -> u32 {
        self.tenant_of_index
            .get(slot.1 as usize)
            .copied()
            .unwrap_or(0)
    }
}

/// Builds the standing graph. Half the activities are busy roots, half
/// idle dependents; every dependent is referenced by at least one root,
/// so nothing standing is ever garbage.
pub fn graph(w: &Workload, rng: &mut Rng) -> Graph {
    let n = w.nodes;
    let a = w.acts_per_node;
    let tenant_of_index: Vec<u32> = if w.tenants == 0 {
        Vec::new()
    } else {
        (0..a).map(|_| 1 + rng.below(w.tenants)).collect()
    };
    let mut busy = vec![vec![false; a as usize]; n as usize];
    let mut edges = Vec::with_capacity(w.standing_edges() as usize);
    if w.twin_refs {
        // Parity alternates with the node so every idle twin has busy
        // neighbours (a same-parity group would be an idle clique).
        for node in 0..n {
            for i in 0..a {
                busy[node as usize][i as usize] = (node + i) % 2 == 0;
                for other in (0..n).filter(|o| *o != node) {
                    edges.push(((node, i), (other, i)));
                }
            }
        }
    } else {
        for node in 0..n {
            for i in 0..a {
                let root = i % 2 == 0;
                busy[node as usize][i as usize] = root;
                let mut targets: Vec<Slot> = Vec::with_capacity(w.refs_per_act as usize);
                if root {
                    // The covering edge: dependent (m, j) is held by
                    // root (m - 1, j - 1).
                    targets.push(((node + 1) % n, i + 1));
                }
                while targets.len() < w.refs_per_act as usize {
                    let other = (node + 1 + rng.below(n - 1)) % n;
                    let t = (other, rng.below(a));
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                edges.extend(targets.into_iter().map(|t| ((node, i), t)));
            }
        }
    }
    Graph {
        busy,
        tenant_of_index,
        edges,
    }
}

/// One ping of the open-loop app stream.
#[derive(Debug, Clone, Copy)]
pub struct Ping {
    /// Offset of the due time from the window start.
    pub due: Duration,
    pub from: Slot,
    pub to: Slot,
}

/// The ping stream: evenly spaced due times, seeded endpoints on two
/// different nodes, same tenant when the workload has tenants.
pub fn pings(w: &Workload, g: &Graph, window: Duration, rng: &mut Rng) -> Vec<Ping> {
    let count = (window.as_secs_f64() * w.pings_per_s as f64) as u64;
    let period = Duration::from_secs(1) / w.pings_per_s;
    (0..count)
        .map(|k| {
            let from = (rng.below(w.nodes), rng.below(w.acts_per_node));
            let to_node = (from.0 + 1 + rng.below(w.nodes - 1)) % w.nodes;
            let to = loop {
                let t = (to_node, rng.below(w.acts_per_node));
                if g.tenant(t) == g.tenant(from) {
                    break t;
                }
            };
            Ping {
                due: period * k as u32,
                from,
                to,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Cyclic garbage: every member references the next, the last the
    /// first.
    Ring,
    /// Acyclic garbage: the same without the closing edge.
    Chain,
}

/// One garbage structure of the open-loop garbage stream.
#[derive(Debug, Clone)]
pub struct Structure {
    pub due: Duration,
    pub shape: Shape,
    /// Hosting node of each member, in reference order.
    pub nodes: Vec<u32>,
}

/// The garbage stream: evenly spaced due times from the window start
/// until `release_for`; rings and chains in equal numbers with a seeded
/// order inside each pair, members on distinct seeded nodes. At least
/// one pair is always released.
pub fn structures(w: &Workload, release_for: Duration, rng: &mut Rng) -> Vec<Structure> {
    let count = ((release_for.as_secs_f64() * w.structures_per_s as f64) as u64).max(2) & !1;
    let period = Duration::from_secs(1) / w.structures_per_s;
    let mut out = Vec::with_capacity(count as usize);
    for pair in 0..count / 2 {
        let ring_first = rng.next_u64() & 1 == 0;
        for half in 0..2u64 {
            let shape = if (half == 0) == ring_first {
                Shape::Ring
            } else {
                Shape::Chain
            };
            // A seeded rotation keeps members on distinct nodes.
            let start = rng.below(w.nodes);
            let nodes = (0..w.structure_len())
                .map(|k| (start + k) % w.nodes)
                .collect();
            out.push(Structure {
                due: period * (pair * 2 + half) as u32,
                shape,
                nodes,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let w = workload("collect_churn").unwrap();
        let plan = |seed| {
            let mut rng = Rng::new(seed);
            let g = graph(w, &mut rng);
            let p = pings(w, &g, Duration::from_secs(1), &mut rng);
            let s = structures(w, Duration::from_secs(1), &mut rng);
            (
                g.edges,
                p.iter().map(|p| (p.from, p.to)).collect::<Vec<_>>(),
                s.iter()
                    .map(|s| (s.shape, s.nodes.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
    }

    #[test]
    fn every_idle_dependent_is_held_by_a_busy_root() {
        for w in WORKLOADS {
            let g = graph(w, &mut Rng::new(1));
            assert_eq!(g.edges.len() as u64, w.standing_edges(), "{}", w.name);
            let unique: BTreeSet<_> = g.edges.iter().collect();
            assert_eq!(unique.len(), g.edges.len(), "{}: duplicate edge", w.name);
            let mut held = BTreeSet::new();
            for (from, to) in &g.edges {
                assert_ne!(from.0, to.0, "{}: references are remote", w.name);
                assert_eq!(g.tenant(*from), g.tenant(*to), "{}", w.name);
                if g.busy[from.0 as usize][from.1 as usize] {
                    held.insert(*to);
                }
            }
            for node in 0..w.nodes {
                for i in 0..w.acts_per_node {
                    let busy = g.busy[node as usize][i as usize];
                    assert!(busy || held.contains(&(node, i)), "{} {node}/{i}", w.name);
                }
            }
            let roots = g.busy.iter().flatten().filter(|b| **b).count();
            assert_eq!(roots as u32 * 2, w.nodes * w.acts_per_node, "{}", w.name);
        }
    }

    #[test]
    fn streams_are_open_loop_and_well_formed() {
        let w = workload("wide_mesh").unwrap();
        let mut rng = Rng::new(3);
        let g = graph(w, &mut rng);
        let p = pings(w, &g, Duration::from_secs(2), &mut rng);
        assert_eq!(p.len(), 4000);
        assert_eq!(p[1].due - p[0].due, Duration::from_micros(500));
        for ping in &p {
            assert_ne!(ping.from.0, ping.to.0);
            assert_eq!(g.tenant(ping.from), g.tenant(ping.to));
        }
        let s = structures(w, Duration::from_secs(2), &mut rng);
        assert_eq!(s.len(), 40);
        let rings = s.iter().filter(|s| s.shape == Shape::Ring).count();
        assert_eq!(rings, 20);
        for st in &s {
            let distinct: BTreeSet<_> = st.nodes.iter().collect();
            assert_eq!(distinct.len(), 4);
        }
        // Too short a release phase still releases one ring and one chain.
        assert_eq!(structures(w, Duration::ZERO, &mut rng).len(), 2);
    }
}
