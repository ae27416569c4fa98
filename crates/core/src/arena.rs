//! The fixed-size node arena.
//!
//! Paper §III-A c: *"Nodes are stored in a large array that is created at
//! the beginning of the program. This array has a fixed length set during
//! the compilation of CuLi. ... Whenever a function asks for a new node to
//! store a value, the sequentially next free node of this array will be
//! returned. When the nodes are not needed anymore, they are marked as
//! free."*
//!
//! # Simulated cost vs. real data structure
//!
//! The C original finds "the sequentially next free node" by scanning — an
//! O(capacity) worst case once the array fragments. We keep the paper's
//! observable contract (fixed capacity, exhaustion is [`CuliError::ArenaFull`],
//! identical meter charges: the paper's model prices an allocation as one
//! `node_alloc`, not per slot probed) but implement it with an **intrusive
//! free-list**: every free slot stores the index of the next free slot, so
//! allocation and free are O(1) regardless of fragmentation. The list is
//! seeded in ascending order, which preserves the "sequential" allocation
//! pattern the paper describes for a fresh arena, and [`crate::gc`] rebuilds
//! it in ascending order during sweep so post-collection allocation stays
//! cache-friendly.

use crate::cost::Meter;
use crate::error::{CuliError, Result};
use crate::node::{Node, Payload};
use crate::types::NodeId;

/// Sentinel for "no next free slot".
const FREE_NONE: u32 = u32::MAX;

/// Fixed-capacity slot allocator for [`Node`]s.
#[derive(Debug, Clone)]
pub struct NodeArena {
    slots: Vec<Slot>,
    /// Head of the intrusive free-list ([`FREE_NONE`] when full).
    free_head: u32,
    /// Number of live (occupied) slots.
    live: usize,
    /// Highest number of simultaneously live slots ever observed.
    high_water: usize,
    /// One past the highest slot index ever allocated. Slots at or beyond
    /// this mark still carry their pristine ascending seed links, so the
    /// GC sweep only has to rebuild the free-list below it — collections
    /// cost O(high slot), not O(capacity) (a 1 Mi-slot arena no longer
    /// pays ~ms sweeps for a few-thousand-node session).
    high_slot: usize,
    /// Policy cap on live nodes (distinct from the physical capacity):
    /// allocation fails with [`CuliError::HeapLimitExceeded`] at this
    /// occupancy. `usize::MAX` (the default) disables the cap.
    node_limit: usize,
    /// Slots allocation may fill before [`CuliError::ArenaFull`]: the
    /// slot count, unless [`NodeArena::set_capacity`] lowered it.
    capacity: usize,
}

#[derive(Debug, Clone)]
enum Slot {
    /// Free slot, holding the index of the next free slot (the free-list
    /// link lives *inside* the unused storage, as the C original's array
    /// could).
    Free {
        next_free: u32,
    },
    Occupied(Node),
}

impl NodeArena {
    /// Creates an arena with `capacity` node slots.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity < FREE_NONE as usize,
            "arena capacity must fit the u32 free-list index space"
        );
        let slots = (0..capacity)
            .map(|i| Slot::Free {
                next_free: if i + 1 < capacity {
                    (i + 1) as u32
                } else {
                    FREE_NONE
                },
            })
            .collect();
        Self {
            slots,
            free_head: if capacity > 0 { 0 } else { FREE_NONE },
            live: 0,
            high_water: 0,
            high_slot: 0,
            node_limit: usize::MAX,
            capacity,
        }
    }

    /// Sets the live-node policy cap (see [`NodeArena::alloc`]). The
    /// interpreter applies [`crate::interp::InterpConfig::heap_limit`]
    /// here after boot, so builtin registration is never subject to it.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Sets the capacity allocation reports [`CuliError::ArenaFull`] at,
    /// adding slots when it exceeds the current count (slots are never
    /// removed). A worker replica lent across sessions takes each
    /// session's capacity this way.
    pub fn set_capacity(&mut self, capacity: usize) {
        let len = self.slots.len();
        if capacity > len {
            assert!(
                capacity < FREE_NONE as usize,
                "arena capacity must fit the u32 free-list index space"
            );
            // Append the new slots as a seed-ordered run at the end of
            // the free-list, where the untouched tail the sweep relies on
            // (see `high_slot`) lives.
            let mut last = None;
            let mut cur = self.free_head;
            while cur != FREE_NONE {
                last = Some(cur as usize);
                cur = match self.slots[cur as usize] {
                    Slot::Free { next_free } => next_free,
                    Slot::Occupied(_) => unreachable!("occupied slot on the free list"),
                };
            }
            self.slots.extend((len..capacity).map(|i| Slot::Free {
                next_free: if i + 1 < capacity {
                    (i + 1) as u32
                } else {
                    FREE_NONE
                },
            }));
            match last {
                Some(l) => {
                    self.slots[l] = Slot::Free {
                        next_free: len as u32,
                    }
                }
                None => self.free_head = len as u32,
            }
        }
        self.capacity = capacity;
    }

    /// Slots allocation may fill (the compile-time array length in the C
    /// original).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently occupied slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak occupancy over the arena's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// One past the highest slot index allocated since the last sweep
    /// left it free — the sweep bound (every live node id is below it;
    /// slots beyond it are free and linked in seed order).
    pub fn high_slot(&self) -> usize {
        self.high_slot
    }

    /// Allocates a node, returning its id. Pops the free-list head: O(1)
    /// even on a heavily fragmented arena (the seed implementation's
    /// wrapping linear scan degraded to O(capacity) there).
    pub fn alloc(&mut self, node: Node, meter: &mut Meter) -> Result<NodeId> {
        if self.live >= self.node_limit {
            return Err(CuliError::HeapLimitExceeded {
                limit: self.node_limit,
            });
        }
        if self.live >= self.capacity {
            return Err(CuliError::ArenaFull {
                capacity: self.capacity,
            });
        }
        // Below capacity a free slot exists: every free slot is listed.
        let idx = self.free_head;
        let slot = &mut self.slots[idx as usize];
        let next = match slot {
            Slot::Free { next_free } => *next_free,
            Slot::Occupied(_) => unreachable!("occupied slot on the free list"),
        };
        *slot = Slot::Occupied(node);
        self.free_head = next;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        self.high_slot = self.high_slot.max(idx as usize + 1);
        meter.node_alloc();
        Ok(NodeId::new(idx as usize))
    }

    /// Marks a single node free (pushes it on the free-list). The caller is
    /// responsible for making sure nothing still references it (see
    /// [`crate::gc`] for the safe path).
    pub fn free(&mut self, id: NodeId, meter: &mut Meter) {
        let slot = &mut self.slots[id.index()];
        if matches!(slot, Slot::Occupied(_)) {
            *slot = Slot::Free {
                next_free: self.free_head,
            };
            self.free_head = id.index() as u32;
            self.live -= 1;
            meter.node_freed();
        }
    }

    /// Frees every live slot whose bit is clear in `marked` (a word-packed
    /// bitmap, bit `i` of word `i / 64` for slot `i`) and rebuilds the
    /// free-list below the high-water slot in ascending order. Returns the
    /// number of slots freed.
    ///
    /// This is the GC sweep: one pass **bounded by the highest slot ever
    /// allocated**, no per-victim bookkeeping. Slots at or beyond
    /// [`NodeArena::high_slot`] were never allocated, so they still carry
    /// their pristine ascending seed links — the rebuilt list simply
    /// chains into them, making the sweep proportional to peak usage
    /// instead of capacity. Sweep frees are *not* metered — matching the
    /// original collector, which discarded its scratch meter — because the
    /// paper's cost model charges only mutator-driven node traffic.
    pub(crate) fn sweep_unmarked(&mut self, marked: &[u64]) -> usize {
        debug_assert!(marked.len() * 64 >= self.high_slot, "mark bitmap too small");
        let mut freed = 0usize;
        let mut head = if self.high_slot < self.slots.len() {
            self.high_slot as u32
        } else {
            FREE_NONE
        };
        // One past the highest slot still occupied after this sweep.
        let mut top = 0;
        for idx in (0..self.high_slot).rev() {
            let is_marked = marked[idx >> 6] & (1u64 << (idx & 63)) != 0;
            match &mut self.slots[idx] {
                Slot::Occupied(_) if !is_marked => {
                    self.slots[idx] = Slot::Free { next_free: head };
                    head = idx as u32;
                    freed += 1;
                }
                Slot::Occupied(_) => top = top.max(idx + 1),
                Slot::Free { next_free } => {
                    *next_free = head;
                    head = idx as u32;
                }
            }
        }
        // Every free slot at or above `top` now links to its successor,
        // exactly like the untouched tail: lowering the bound keeps the
        // next sweep proportional to what is live, not to a transient
        // peak.
        self.high_slot = top;
        self.free_head = head;
        self.live -= freed;
        freed
    }

    /// Immutable access. Panics on a freed slot — that is always an
    /// interpreter bug, not user error.
    pub fn get(&self, id: NodeId) -> &Node {
        match &self.slots[id.index()] {
            Slot::Occupied(n) => n,
            Slot::Free { .. } => panic!("use-after-free of node {id:?}"),
        }
    }

    /// Metered read: counts one node access then returns the node.
    pub fn read(&self, id: NodeId, meter: &mut Meter) -> &Node {
        meter.node_read();
        self.get(id)
    }

    /// `true` if the slot is currently occupied.
    pub fn is_live(&self, id: NodeId) -> bool {
        matches!(self.slots[id.index()], Slot::Occupied(_))
    }

    /// Internal mutation used only while *constructing* lists (the parser
    /// appends children by rewriting `next`/`last`). Nodes stay immutable
    /// once visible to evaluation, preserving the paper's no-side-effects
    /// rule.
    pub(crate) fn get_mut(&mut self, id: NodeId) -> &mut Node {
        match &mut self.slots[id.index()] {
            Slot::Occupied(n) => n,
            Slot::Free { .. } => panic!("use-after-free of node {id:?}"),
        }
    }

    /// Appends `child` to the list node `list`, maintaining the
    /// first/last pointers and sibling chain of paper Fig. 2.
    pub(crate) fn list_append(&mut self, list: NodeId, child: NodeId) {
        debug_assert!(self.get(child).next.is_none(), "child already linked");
        let (first, last) = match self.get(list).payload {
            Payload::List { first, last } => (first, last),
            _ => panic!("list_append on non-list {list:?}"),
        };
        match (first, last) {
            (None, None) => {
                self.get_mut(list).payload = Payload::List {
                    first: Some(child),
                    last: Some(child),
                };
            }
            (Some(f), Some(l)) => {
                self.get_mut(l).next = Some(child);
                self.get_mut(list).payload = Payload::List {
                    first: Some(f),
                    last: Some(child),
                };
            }
            _ => panic!("corrupt list payload on {list:?}"),
        }
    }

    /// Iterates the children of a list node.
    pub fn iter_list(&self, list: NodeId) -> ListIter<'_> {
        let cur = match self.get(list).payload {
            Payload::List { first, .. } => first,
            _ => None,
        };
        ListIter { arena: self, cur }
    }

    /// Collects the children of a list node into a vector. Convenience for
    /// cold builtins that index arguments; hot paths iterate the sibling
    /// chain via [`NodeArena::iter_list`] or reuse a scratch buffer from
    /// [`crate::interp::Interp`] instead of allocating.
    pub fn list_children(&self, list: NodeId) -> Vec<NodeId> {
        self.iter_list(list).collect()
    }

    /// Appends the children of a list node to `out` without allocating
    /// (beyond `out`'s own growth on first use).
    pub fn list_children_into(&self, list: NodeId, out: &mut Vec<NodeId>) {
        out.extend(self.iter_list(list));
    }

    /// Length of a list node.
    pub fn list_len(&self, list: NodeId) -> usize {
        self.iter_list(list).count()
    }

    /// Iterates over every live node id (diagnostics, GC).
    pub fn iter_live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied(_) => Some(NodeId::new(i)),
            Slot::Free { .. } => None,
        })
    }

    /// Convenience for tests: allocate a chain of int nodes as a list.
    pub fn alloc_int_list(&mut self, values: &[i64], meter: &mut Meter) -> Result<NodeId> {
        let list = self.alloc(Node::empty_list(), meter)?;
        for &v in values {
            let child = self.alloc(Node::int(v), meter)?;
            self.list_append(list, child);
        }
        Ok(list)
    }
}

/// Iterator over a list node's children.
pub struct ListIter<'a> {
    arena: &'a NodeArena,
    cur: Option<NodeId>,
}

impl Iterator for ListIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.arena.get(id).next;
        Some(id)
    }
}

/// Occupancy statistics, exposed for the paper's "input size is limited by
/// node organization" discussion and for fragmentation diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total slots.
    pub capacity: usize,
    /// Live slots.
    pub live: usize,
    /// Peak live slots.
    pub high_water: usize,
}

impl NodeArena {
    /// Current occupancy statistics.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            capacity: self.capacity(),
            live: self.live,
            high_water: self.high_water,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(cap: usize) -> (NodeArena, Meter) {
        (NodeArena::with_capacity(cap), Meter::new())
    }

    #[test]
    fn alloc_is_sequential() {
        let (mut a, mut m) = arena(8);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        let n1 = a.alloc(Node::int(1), &mut m).unwrap();
        assert_eq!(n0.index(), 0);
        assert_eq!(n1.index(), 1);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let (mut a, mut m) = arena(2);
        a.alloc(Node::int(0), &mut m).unwrap();
        a.alloc(Node::int(1), &mut m).unwrap();
        assert_eq!(
            a.alloc(Node::int(2), &mut m),
            Err(CuliError::ArenaFull { capacity: 2 })
        );
    }

    #[test]
    fn freed_slots_are_reused() {
        let (mut a, mut m) = arena(2);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        let _n1 = a.alloc(Node::int(1), &mut m).unwrap();
        a.free(n0, &mut m);
        let n2 = a.alloc(Node::int(2), &mut m).unwrap();
        assert_eq!(n2.index(), 0, "freed slot is immediately reusable");
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn fragmented_arena_allocs_in_constant_steps() {
        // Interleaved fragmentation: fill, free every other slot, then
        // re-allocate. Every freed slot must be handed out again (no leaks,
        // no premature ArenaFull) and exhaustion must land exactly at
        // capacity.
        let cap = 64;
        let (mut a, mut m) = arena(cap);
        let ids: Vec<NodeId> = (0..cap)
            .map(|i| a.alloc(Node::int(i as i64), &mut m).unwrap())
            .collect();
        let freed: Vec<NodeId> = ids.iter().copied().step_by(2).collect();
        for &id in &freed {
            a.free(id, &mut m);
        }
        assert_eq!(a.live(), cap / 2);
        let mut reused = Vec::new();
        for i in 0..cap / 2 {
            reused.push(a.alloc(Node::int(i as i64), &mut m).unwrap());
        }
        let mut freed_sorted: Vec<usize> = freed.iter().map(|id| id.index()).collect();
        let mut reused_sorted: Vec<usize> = reused.iter().map(|id| id.index()).collect();
        freed_sorted.sort_unstable();
        reused_sorted.sort_unstable();
        assert_eq!(
            freed_sorted, reused_sorted,
            "exactly the freed slots are reused"
        );
        assert_eq!(
            a.alloc(Node::int(0), &mut m),
            Err(CuliError::ArenaFull { capacity: cap }),
            "exhaustion at exact capacity"
        );
    }

    #[test]
    fn sweep_rebuilds_ascending_free_list() {
        let (mut a, mut m) = arena(8);
        let ids: Vec<NodeId> = (0..8)
            .map(|i| a.alloc(Node::int(i), &mut m).unwrap())
            .collect();
        // Keep slots 1 and 6 live, sweep the rest.
        let mut marked = vec![0u64; 1];
        for keep in [1usize, 6] {
            marked[0] |= 1 << keep;
        }
        let freed = a.sweep_unmarked(&marked);
        assert_eq!(freed, 6);
        assert_eq!(a.live(), 2);
        assert!(a.is_live(ids[1]) && a.is_live(ids[6]));
        // Ascending rebuild: the next allocations walk 0, 2, 3, …
        assert_eq!(a.alloc(Node::int(0), &mut m).unwrap().index(), 0);
        assert_eq!(a.alloc(Node::int(0), &mut m).unwrap().index(), 2);
        assert_eq!(a.alloc(Node::int(0), &mut m).unwrap().index(), 3);
    }

    #[test]
    fn bounded_sweep_preserves_untouched_tail() {
        // Only 4 of 1024 slots were ever allocated: the sweep must not
        // disturb the pristine tail, and every slot must remain reachable
        // through the free-list afterwards.
        let cap = 1024;
        let (mut a, mut m) = arena(cap);
        let ids: Vec<NodeId> = (0..4)
            .map(|i| a.alloc(Node::int(i as i64), &mut m).unwrap())
            .collect();
        assert_eq!(a.high_slot(), 4);
        let mut marked = vec![0u64; 1];
        marked[0] |= 1 << 1; // keep only slot 1
        assert_eq!(a.sweep_unmarked(&marked), 3);
        assert!(a.is_live(ids[1]));
        for _ in 0..cap - 1 {
            a.alloc(Node::int(0), &mut m).unwrap();
        }
        assert_eq!(
            a.alloc(Node::int(0), &mut m),
            Err(CuliError::ArenaFull { capacity: cap }),
            "exhaustion at exact capacity after a bounded sweep"
        );
    }

    #[test]
    fn high_slot_tracks_peak_index_not_live_count() {
        let (mut a, mut m) = arena(16);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        let n1 = a.alloc(Node::int(1), &mut m).unwrap();
        a.free(n0, &mut m);
        a.free(n1, &mut m);
        assert_eq!(a.live(), 0);
        assert_eq!(a.high_slot(), 2, "high slot is a watermark, not a count");
    }

    #[test]
    #[should_panic(expected = "use-after-free")]
    fn use_after_free_panics() {
        let (mut a, mut m) = arena(2);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        a.free(n0, &mut m);
        let _ = a.get(n0);
    }

    #[test]
    fn list_append_maintains_chain() {
        let (mut a, mut m) = arena(16);
        let list = a.alloc_int_list(&[10, 20, 30], &mut m).unwrap();
        let kids = a.list_children(list);
        assert_eq!(kids.len(), 3);
        let vals: Vec<i64> = kids
            .iter()
            .map(|&k| match a.get(k).payload {
                Payload::Int(v) => v,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![10, 20, 30]);
        // last pointer is the final element
        match a.get(list).payload {
            Payload::List { last: Some(l), .. } => assert_eq!(l, kids[2]),
            _ => panic!(),
        }
    }

    #[test]
    fn empty_list_iterates_nothing() {
        let (mut a, mut m) = arena(4);
        let list = a.alloc(Node::empty_list(), &mut m).unwrap();
        assert_eq!(a.list_len(list), 0);
    }

    #[test]
    fn stats_and_high_water() {
        let (mut a, mut m) = arena(4);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        let _n1 = a.alloc(Node::int(1), &mut m).unwrap();
        a.free(n0, &mut m);
        let s = a.stats();
        assert_eq!(s.capacity, 4);
        assert_eq!(s.live, 1);
        assert_eq!(s.high_water, 2);
    }

    #[test]
    fn meter_counts_allocs_and_frees() {
        let (mut a, mut m) = arena(4);
        let n = a.alloc(Node::int(1), &mut m).unwrap();
        a.free(n, &mut m);
        let c = m.snapshot();
        assert_eq!(c.nodes_alloc, 1);
        assert_eq!(c.nodes_freed, 1);
    }

    #[test]
    fn iter_live_lists_occupied_only() {
        let (mut a, mut m) = arena(4);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        let n1 = a.alloc(Node::int(1), &mut m).unwrap();
        a.free(n0, &mut m);
        let live: Vec<NodeId> = a.iter_live().collect();
        assert_eq!(live, vec![n1]);
    }

    #[test]
    fn node_limit_caps_live_occupancy_and_lifts_after_free() {
        let (mut a, mut m) = arena(8);
        a.set_node_limit(2);
        let n0 = a.alloc(Node::int(0), &mut m).unwrap();
        a.alloc(Node::int(1), &mut m).unwrap();
        assert_eq!(
            a.alloc(Node::int(2), &mut m),
            Err(CuliError::HeapLimitExceeded { limit: 2 }),
            "cap is on live nodes, not total allocations"
        );
        a.free(n0, &mut m);
        assert!(
            a.alloc(Node::int(3), &mut m).is_ok(),
            "freeing lifts the cap"
        );
    }

    #[test]
    fn set_capacity_caps_and_grows_in_place() {
        let (mut a, mut m) = arena(4);
        let ids: Vec<_> = (0..3)
            .map(|k| a.alloc(Node::int(k), &mut m).unwrap())
            .collect();
        a.set_capacity(3);
        assert_eq!(
            a.alloc(Node::int(9), &mut m),
            Err(CuliError::ArenaFull { capacity: 3 })
        );
        // Growing links the new slots behind the free ones already held.
        a.set_capacity(6);
        let more: Vec<_> = (3..6)
            .map(|k| a.alloc(Node::int(k), &mut m).unwrap())
            .collect();
        assert_eq!(
            a.alloc(Node::int(9), &mut m),
            Err(CuliError::ArenaFull { capacity: 6 })
        );
        for (k, &id) in ids.iter().chain(&more).enumerate() {
            assert_eq!(a.get(id).payload, Node::int(k as i64).payload);
        }
        // A sweep keeps the grown tail reachable.
        a.free(more[0], &mut m);
        let marks = vec![u64::MAX; 1];
        a.sweep_unmarked(&marks);
        a.set_capacity(8);
        for k in 0..3 {
            assert!(a.alloc(Node::int(k), &mut m).is_ok());
        }
        assert_eq!(a.live(), 8);
        assert_eq!(
            a.alloc(Node::int(9), &mut m),
            Err(CuliError::ArenaFull { capacity: 8 })
        );
    }

    #[test]
    fn zero_capacity_arena_is_always_full() {
        let (mut a, mut m) = arena(0);
        assert_eq!(
            a.alloc(Node::int(0), &mut m),
            Err(CuliError::ArenaFull { capacity: 0 })
        );
    }
}
