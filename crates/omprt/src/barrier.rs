//! Team barriers.
//!
//! One implementation: a combining tree whose shape is
//! derived from the team size and the machine [`Topology`], with bounded
//! spinning before parking. SMT siblings combine at the leaves, cores
//! combine into per-package subtrees, and package representatives meet at
//! a root of fan-in at most [`ROOT_FANIN`]. A level with a single unit
//! allocates no node, so a team that fits one core or one SMT-less package
//! gets a one-node tree — which *is* the classic central counter barrier,
//! down to the memory it touches: the root lives inside the barrier
//! itself, and only a team that needs more than one node allocates any.
//! The runtime exposes *distinct* implicit and explicit barrier entry
//! points built on this — the paper had to split its single
//! `__ompc_barrier` call into implicit/explicit variants so the two could
//! be distinguished by tools (§IV-C2); we mirror that split at the
//! runtime-call layer (`crate::context`).
//!
//! ## Scalability notes
//!
//! Arrival counters (every tree node) live in [`CachePadded`] cells, apart
//! from the one word waiters poll: the key of the barrier's
//! [`EventCount`]. That key *is* the release. A thread arrives inside the
//! first attempt of its wait, so the key `wait_until` read just before
//! predates the arrival, and the only notify of the count is the one the
//! last arrival makes once per episode. Every waiter leaves an episode by
//! seeing that notify, so its next key read already includes it: the
//! next move of the key is the next episode's release, and "the key
//! moved" means "released". Counter *reset* is part of the release edge:
//! the releaser zeroes every counter and only then notifies, so a
//! next-episode arrival (which must first have seen the key move) can
//! never read a stale count.
//!
//! A fork builds its team's barrier, so construction is on the fork path:
//! everything it allocates is line-aligned (no small heap blocks left to
//! share cache lines with other threads' scratch buffers), and the walk
//! that shapes the tree needs no scratch storage at all.

use std::sync::atomic::{AtomicUsize, Ordering};

use ora_core::pad::CachePadded;
use ora_core::park::EventCount;

use crate::topology::Topology;

/// A reusable barrier for a fixed-size team.
pub struct Barrier {
    size: usize,
    /// Notified once per episode, by the last arrival (module docs).
    release: EventCount,
    tree: Tree,
}

/// The combining tree: explicit parent-pointer nodes, so every node can
/// have its own fan-in — SMT width at the leaves, cores per package above
/// them, [`ROOT_FANIN`]-capped near the root. Nodes are indexed `below`
/// first; index `below.len()` is the root.
struct Tree {
    root: CachePadded<Node>,
    /// Every node but the root, one per line. Empty when the team fits
    /// one group.
    below: Vec<CachePadded<Node>>,
    /// tid → index of the node this thread arrives at, [`LEAVES_PER_LINE`]
    /// to a line; empty when `below` is (everyone arrives at the root).
    /// Read-only after construction, so it stays off the lines the
    /// releaser writes every episode.
    leaf_of: Box<[LeafLine]>,
}

type LeafLine = CachePadded<[u32; LEAVES_PER_LINE]>;
const LEAVES_PER_LINE: usize = 32;

/// The read-only shape shares the counter's line: whoever reads it is
/// about to `fetch_add` the counter.
struct Node {
    count: AtomicUsize,
    /// Arrivals this node waits for (child climbers plus directly
    /// attached threads).
    fanin: u32,
    /// Parent node index; `u32::MAX` marks the root.
    parent: u32,
}

impl Node {
    fn new(fanin: usize) -> CachePadded<Node> {
        CachePadded::new(Node {
            count: AtomicUsize::new(0),
            fanin: fanin as u32,
            parent: NO_PARENT,
        })
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Fan-in cap above the package level: package representatives (and,
/// under oversubscription, wrapped-around groups) combine in groups of at
/// most this many. Machines rarely have more than a handful of packages,
/// so the root is usually a single node.
pub const ROOT_FANIN: usize = 8;

impl Barrier {
    /// A barrier for `size` threads shaped by the process-wide topology.
    pub fn new(size: usize) -> Self {
        Barrier::with_topology(size, Topology::current())
    }

    /// A barrier for `size` threads shaped by an explicit machine model
    /// (tests inject shapes here).
    pub fn with_topology(size: usize, topo: Topology) -> Self {
        assert!(size >= 1, "barrier needs at least one participant");
        Barrier {
            size,
            release: EventCount::new(size),
            tree: Tree::build(size, topo),
        }
    }

    /// Number of participating threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Wait until all `size` threads have called `wait` for this episode.
    /// Reusable across episodes.
    pub fn wait(&self, tid: usize) {
        debug_assert!(tid < self.size);
        if self.size == 1 {
            return; // solo team: nothing to synchronize
        }
        // First attempt: arrive, and release if last. Any later attempt
        // runs only after the key moved, which is the release.
        let mut arrived = false;
        self.release
            .wait_until(tid, crate::spin::long_budget(), || {
                if std::mem::replace(&mut arrived, true) {
                    return Some(());
                }
                if !self.tree.arrive(tid) {
                    return None;
                }
                // Reset *before* the notify so the reset is ordered into the
                // release edge: a thread can only start the next episode after
                // seeing the key move, which makes these plain stores visible.
                self.tree.reset();
                self.release.notify_all();
                Some(())
            });
    }
}

impl Tree {
    /// Builds the combining tree for `size` threads on `topo`.
    ///
    /// Construction walks the hierarchy bottom-up with one grouping extent
    /// per level — SMT width, then cores-per-package, then [`ROOT_FANIN`]
    /// repeatedly — until what is left fits one group, which becomes the
    /// root. Units (threads at the bottom, node representatives above)
    /// are grouped consecutively, which under the compact gtid assignment
    /// puts SMT siblings in one leaf and one package's cores in one
    /// subtree. A group of one allocates no node: the unit is carried up
    /// to the next level, so degenerate extents (SMT-less machines,
    /// 1-package shapes) cost nothing.
    ///
    /// Units are numbered in one space — thread `t` is unit `t`, node `n`
    /// is unit `size + n` — so a level is a run of consecutive units (the
    /// threads, or the nodes the level below created) plus at most one
    /// unit carried up, and the walk keeps no list of them.
    fn build(size: usize, topo: Topology) -> Tree {
        fn attach(
            unit: usize,
            to: usize,
            size: usize,
            below: &mut [CachePadded<Node>],
            leaf_of: &mut [LeafLine],
        ) {
            match unit.checked_sub(size) {
                Some(node) => below[node].parent = to as u32,
                // No table means a one-node tree: every leaf is the root.
                None => {
                    if let Some(line) = leaf_of.get_mut(unit / LEAVES_PER_LINE) {
                        line[unit % LEAVES_PER_LINE] = to as u32;
                    }
                }
            }
        }

        let mut below: Vec<CachePadded<Node>> = Vec::new();
        let mut leaf_of: Box<[LeafLine]> = Box::default();
        let mut level = 0..size;
        let mut carried: Option<usize> = None;
        let mut extents = [topo.smt_per_core(), topo.cores_per_package()]
            .into_iter()
            .chain(std::iter::repeat(ROOT_FANIN))
            .filter(|&extent| extent > 1);
        loop {
            let extent = extents.next().expect("repeat never ends");
            let mut left = level.len() + carried.iter().len();
            let mut units = level.chain(carried.take());
            if left <= extent {
                // What is left fits one group: the root.
                let root = below.len();
                for unit in units {
                    attach(unit, root, size, &mut below, &mut leaf_of);
                }
                return Tree {
                    root: Node::new(left),
                    below,
                    leaf_of,
                };
            }
            if leaf_of.is_empty() {
                let lines = size.div_ceil(LEAVES_PER_LINE);
                leaf_of = vec![CachePadded::new([NO_PARENT; LEAVES_PER_LINE]); lines].into();
                // Every node combines at least two units, so `size` leaves
                // make at most `size - 1` nodes, root included.
                below.reserve(size - 2);
            }
            let first_created = size + below.len();
            while left > 0 {
                let group = extent.min(left);
                left -= group;
                if group == 1 {
                    carried = units.next(); // only ever the last group
                    break;
                }
                let id = below.len();
                below.push(Node::new(group));
                for unit in units.by_ref().take(group) {
                    attach(unit, id, size, &mut below, &mut leaf_of);
                }
            }
            level = first_created..size + below.len();
        }
    }

    /// The node at `idx` (`below` first, then the root).
    fn node(&self, idx: usize) -> &Node {
        self.below.get(idx).unwrap_or(&self.root)
    }

    /// Climb from `tid`'s leaf; returns whether this thread is the last
    /// overall arrival (the releaser). Node counters are *not* reset
    /// here; the releaser zeroes them all before its notify.
    fn arrive(&self, tid: usize) -> bool {
        let mut idx = match self.leaf_of.get(tid / LEAVES_PER_LINE) {
            Some(line) => line[tid % LEAVES_PER_LINE] as usize,
            None => self.below.len(),
        };
        loop {
            let node = self.node(idx);
            let prev = node.count.fetch_add(1, Ordering::AcqRel);
            if prev + 1 < node.fanin as usize {
                return false; // not the last arrival into this node
            }
            if node.parent == NO_PARENT {
                return true; // climbed out of the root
            }
            idx = node.parent as usize;
        }
    }

    /// Zero every arrival counter (the releaser, before its notify).
    fn reset(&self) {
        for node in self.below.iter().chain([&self.root]) {
            node.count.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Barrier")
            .field("size", &self.size)
            .field("nodes", &(self.tree.below.len() + 1))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ora_core::testutil::XorShift64;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// The tree as flat tables: `(fanin, parent)` per node with the root
    /// last, and each thread's leaf.
    fn tree(size: usize, topo: Topology) -> (Vec<(u32, u32)>, Vec<u32>) {
        let tree = Tree::build(size, topo);
        let nodes = (0..=tree.below.len())
            .map(|idx| (tree.node(idx).fanin, tree.node(idx).parent))
            .collect();
        let leaf_of = match tree.leaf_of.len() {
            0 => vec![tree.below.len() as u32; size],
            _ => tree.leaf_of.iter().flat_map(|l| **l).take(size).collect(),
        };
        (nodes, leaf_of)
    }

    fn exercise(topo: Topology, threads: usize, episodes: usize) {
        let barrier = Arc::new(Barrier::with_topology(threads, topo));
        let phase = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = barrier.clone();
                let phase = phase.clone();
                std::thread::spawn(move || {
                    for ep in 0..episodes {
                        // Everyone must observe the same completed phase
                        // count before entering episode `ep`.
                        assert_eq!(phase.load(Ordering::SeqCst) / threads as u64, ep as u64);
                        phase.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(tid);
                        // After the barrier, all arrivals of this episode
                        // are visible.
                        assert!(phase.load(Ordering::SeqCst) >= ((ep + 1) * threads) as u64);
                        barrier.wait(tid); // separate episodes
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), (threads * episodes) as u64);
    }

    #[test]
    fn barrier_synchronizes_and_reuses() {
        exercise(Topology::current(), 4, 50);
        exercise(Topology::new(2, 4, 2), 16, 20);
    }

    #[test]
    fn barrier_handles_odd_team_sizes() {
        for threads in [1, 2, 3, 5, 6, 7, 9, 13] {
            exercise(Topology::flat(4), threads, 10);
        }
    }

    #[test]
    fn single_thread_barrier_is_a_no_op() {
        let b = Barrier::new(1);
        assert!(b.tree.below.is_empty() && b.tree.leaf_of.is_empty());
        for _ in 0..10 {
            b.wait(0);
        }
    }

    #[test]
    fn parked_waiters_are_released() {
        // Force parking by making one thread arrive long after the others.
        let b = Arc::new(Barrier::new(2));
        let b2 = b.clone();
        let h = std::thread::spawn(move || b2.wait(1));
        std::thread::sleep(std::time::Duration::from_millis(50));
        b.wait(0);
        h.join().unwrap();
    }

    #[test]
    fn barrier_handles_shape_edge_cases() {
        // 1-package, SMT-less, odd team sizes vs injected shapes, and
        // oversubscription past the slot count.
        for (topo, threads) in [
            (Topology::new(1, 4, 1), 4),  // 1 package, SMT-less, exact fit
            (Topology::new(1, 1, 1), 5),  // everything oversubscribed
            (Topology::new(2, 4, 2), 7),  // odd team inside one machine
            (Topology::new(2, 4, 2), 33), // odd + oversubscribed
            (Topology::new(4, 1, 2), 9),  // many tiny packages
            (Topology::new(2, 3, 1), 13), // SMT-less, odd cores
        ] {
            exercise(topo, threads, 10);
        }
    }

    /// The team every benchmark workload runs: whatever the machine looks
    /// like, two threads share one counter — the central barrier.
    #[test]
    fn two_threads_get_one_node_on_any_topology() {
        for topo in [
            Topology::new(2, 4, 2),
            Topology::new(1, 8, 1),
            Topology::new(8, 1, 1),
            Topology::new(1, 1, 1),
            Topology::current(),
        ] {
            let (nodes, leaf_of) = tree(2, topo);
            assert_eq!(nodes, [(2, NO_PARENT)], "{topo:?}");
            assert_eq!(leaf_of, [0, 0]);
            // Nothing allocated beyond what the central barrier had.
            let tree = Tree::build(2, topo);
            assert!(tree.below.is_empty() && tree.leaf_of.is_empty());
        }
    }

    /// 32 threads on 2x4x2 (oversubscribed 2x): 16 SMT-pair leaves, four
    /// 4-core package subtrees, one root — node for node the table the
    /// former topology-shaped variant built.
    #[test]
    fn thirty_two_threads_on_2x4x2_build_the_shaped_table() {
        let (table, leaf_of) = tree(32, Topology::new(2, 4, 2));
        let mut expected: Vec<(u32, u32)> = (0..16).map(|leaf| (2, 16 + leaf / 4)).collect();
        expected.extend([(4, 20); 4]);
        expected.push((4, NO_PARENT));
        assert_eq!(table, expected);
        let leaves: Vec<u32> = (0..32).map(|tid| tid / 2).collect();
        assert_eq!(leaf_of, leaves);
    }

    /// For every team size and shape, whatever order threads arrive in,
    /// exactly one of them climbs out of the root — and after the reset
    /// the next episode behaves the same.
    #[test]
    fn exactly_one_releaser_per_episode() {
        let mut rng = XorShift64::new(0xba44_1e42);
        for topo in [
            Topology::new(2, 4, 2),
            Topology::new(1, 8, 1),
            Topology::new(8, 1, 1),
        ] {
            for size in 2..=67 {
                let b = Barrier::with_topology(size, topo);
                for _episode in 0..3 {
                    let mut order: Vec<usize> = (0..size).collect();
                    for i in (1..size).rev() {
                        order.swap(i, rng.range_usize(0, i + 1));
                    }
                    let releasers: Vec<usize> = order
                        .iter()
                        .copied()
                        .filter(|&t| b.tree.arrive(t))
                        .collect();
                    assert_eq!(
                        releasers,
                        [*order.last().unwrap()],
                        "{topo:?} size {size}: the last arrival releases"
                    );
                    b.tree.reset();
                }
            }
        }
    }

    #[test]
    fn tree_structure_is_well_formed() {
        for (topo, size) in [
            (Topology::new(2, 4, 2), 16),
            (Topology::new(2, 4, 2), 5),
            (Topology::new(1, 8, 1), 8),
            (Topology::new(1, 1, 1), 64),
            (Topology::new(16, 1, 1), 32),
        ] {
            let (nodes, leaf_of) = tree(size, topo);
            assert_eq!(leaf_of.len(), size);
            // Exactly one root; every thread reaches it.
            let roots: Vec<usize> = (0..nodes.len())
                .filter(|&i| nodes[i].1 == NO_PARENT)
                .collect();
            assert_eq!(roots.len(), 1, "topo {topo:?} size {size}");
            for &leaf in &leaf_of {
                let mut idx = leaf as usize;
                let mut hops = 0;
                while nodes[idx].1 != NO_PARENT {
                    idx = nodes[idx].1 as usize;
                    hops += 1;
                    assert!(hops <= nodes.len(), "cycle in barrier tree");
                }
                assert_eq!(idx, roots[0]);
            }
            // Total arrivals across nodes = threads + one climb per
            // non-root node.
            let total_fanin: usize = nodes.iter().map(|n| n.0 as usize).sum();
            assert_eq!(total_fanin, size + nodes.len() - 1);
            // No degenerate single-arrival nodes survive construction.
            assert!(nodes.iter().all(|n| n.0 >= 2));
        }
    }

    #[test]
    fn leaves_group_smt_siblings() {
        let topo = Topology::new(2, 2, 2);
        let (_, leaf_of) = tree(8, topo);
        // Compact assignment: gtids (0,1), (2,3), … are SMT pairs and
        // must share a leaf; adjacent pairs must not.
        for pair in 0..4 {
            assert_eq!(leaf_of[2 * pair], leaf_of[2 * pair + 1]);
        }
        assert_ne!(leaf_of[1], leaf_of[2]);
    }
}
