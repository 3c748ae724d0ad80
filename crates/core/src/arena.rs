//! Predecessor tracking for solution reconstruction.
//!
//! Every candidate carries a 4-byte [`PredRef`] into an append-only arena.
//! The DP only ever *adds* decisions (a buffer inserted at a node, or two
//! branch solutions merged), so the arena entries form a DAG whose leaves
//! are sinks. After the root candidate is chosen, walking its predecessor
//! DAG yields the buffer placements in O(solution size).
//!
//! Tracking can be disabled (see
//! [`SolverOptions::track_predecessors`](crate::SolverOptions)) for
//! benchmarking runs that only need the slack, in which case every candidate
//! carries [`PredRef::NONE`] and no arena memory is spent — this mirrors how
//! the paper's experiments time the algorithms.

use fastbuf_buflib::BufferTypeId;
use fastbuf_rctree::NodeId;

use crate::solution::Placement;

/// Reference to a [`PredEntry`] in a [`PredArena`] (or
/// [`PredRef::NONE`] for sink candidates / untracked runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PredRef(u32);

impl PredRef {
    /// The null reference: no predecessor (sink candidates, or tracking
    /// disabled).
    pub const NONE: PredRef = PredRef(u32::MAX);

    /// `true` if this is [`PredRef::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self == PredRef::NONE
    }
}

/// A reconstruction decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredEntry {
    /// A buffer of `buffer` type was inserted at `node`; the downstream
    /// solution is `prev`.
    Buffer {
        /// Node where the buffer sits.
        node: NodeId,
        /// Inserted buffer type.
        buffer: BufferTypeId,
        /// Downstream decision chain.
        prev: PredRef,
    },
    /// Two branch solutions were merged.
    Merge {
        /// Decision chain of the first branch.
        left: PredRef,
        /// Decision chain of the second branch.
        right: PredRef,
    },
}

/// Append-only arena of reconstruction decisions.
#[derive(Clone, Debug, Default)]
pub struct PredArena {
    entries: Vec<PredEntry>,
}

impl PredArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PredArena::default()
    }

    /// Appends an entry and returns its reference.
    #[inline]
    pub fn push(&mut self, entry: PredEntry) -> PredRef {
        let r = PredRef(self.entries.len() as u32);
        self.entries.push(entry);
        r
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Removes all entries while keeping the allocation, so the arena can be
    /// reused across solves (see
    /// [`SolveWorkspace`](crate::SolveWorkspace)). All previously issued
    /// [`PredRef`]s are invalidated.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// `true` if no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolves a reference (`None` for [`PredRef::NONE`]).
    #[inline]
    pub fn get(&self, r: PredRef) -> Option<&PredEntry> {
        if r.is_none() {
            None
        } else {
            self.entries.get(r.0 as usize)
        }
    }

    /// Collects every buffer placement reachable from `root`, sorted by node
    /// index (deterministic output order).
    pub fn collect_placements(&self, root: PredRef) -> Vec<(NodeId, BufferTypeId)> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            match self.get(r) {
                None => {}
                Some(PredEntry::Buffer { node, buffer, prev }) => {
                    out.push((*node, *buffer));
                    stack.push(*prev);
                }
                Some(PredEntry::Merge { left, right }) => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        out.sort_by_key(|&(n, b)| (n, b));
        out
    }

    /// [`PredArena::collect_placements`] as [`Placement`]s (none for an
    /// untracked solve, whose references are all [`PredRef::NONE`]).
    pub(crate) fn placements(&self, root: PredRef) -> Vec<Placement> {
        self.collect_placements(root)
            .into_iter()
            .map(Placement::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(PredRef::NONE.is_none());
        let arena = PredArena::new();
        assert!(arena.get(PredRef::NONE).is_none());
        assert!(arena.is_empty());
    }

    #[test]
    fn push_and_get() {
        let mut arena = PredArena::new();
        let e = PredEntry::Buffer {
            node: NodeId::new(3),
            buffer: BufferTypeId::new(1),
            prev: PredRef::NONE,
        };
        let r = arena.push(e);
        assert!(!r.is_none());
        assert_eq!(arena.get(r), Some(&e));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn collect_walks_merges_and_buffers() {
        let mut arena = PredArena::new();
        // Branch A: buffer B1 at n5.
        let a = arena.push(PredEntry::Buffer {
            node: NodeId::new(5),
            buffer: BufferTypeId::new(1),
            prev: PredRef::NONE,
        });
        // Branch B: buffer B0 at n2 then B2 at n7 upstream of it.
        let b1 = arena.push(PredEntry::Buffer {
            node: NodeId::new(2),
            buffer: BufferTypeId::new(0),
            prev: PredRef::NONE,
        });
        let b2 = arena.push(PredEntry::Buffer {
            node: NodeId::new(7),
            buffer: BufferTypeId::new(2),
            prev: b1,
        });
        let m = arena.push(PredEntry::Merge { left: a, right: b2 });
        let got = arena.collect_placements(m);
        assert_eq!(
            got,
            vec![
                (NodeId::new(2), BufferTypeId::new(0)),
                (NodeId::new(5), BufferTypeId::new(1)),
                (NodeId::new(7), BufferTypeId::new(2)),
            ]
        );
    }

    #[test]
    fn collect_from_none_is_empty() {
        let arena = PredArena::new();
        assert!(arena.collect_placements(PredRef::NONE).is_empty());
    }
}
