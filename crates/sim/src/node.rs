//! Typed node identity.
//!
//! [`NodeId`] replaces the old `pub type NodeId = usize` alias: it is a
//! `#[repr(transparent)]` wrapper over the node's index, so it costs
//! nothing at runtime, but array subscripts must now go through the
//! explicit [`NodeId::index`] accessor — a bare node id no longer
//! silently indexes unrelated collections (flow tables, byte buffers,
//! CSR offsets).
//!
//! The inner width is `u32`: a world of more than four billion nodes is
//! far beyond any deployment this engine targets, and the narrower id
//! halves the footprint of reachability lists and event records at
//! city scale.

use std::fmt;

/// Index of a node in the world.
///
/// Construct with [`NodeId::new`] (or `From<usize>`); recover the raw
/// array index with [`NodeId::index`]. Ordering, equality and hashing
/// follow the index, so `NodeId` works as a `BTreeMap` key wherever a
/// raw index used to.
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Wrap a raw node index. Panics if the index exceeds `u32::MAX`
    /// (no supported topology gets anywhere near that).
    pub fn new(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index fits u32"))
    }

    /// The raw array index this id wraps.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> NodeId {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Plain digits: fault-plan specs and stats snapshots embed node
        // ids in text that must stay byte-identical to the usize era.
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_formats_like_the_raw_index() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(42usize), id);
        assert_eq!(format!("{id}"), "42");
        assert_eq!(format!("{id:?}"), "42");
    }

    #[test]
    fn orders_by_index() {
        let mut ids = [NodeId::new(3), NodeId::new(0), NodeId::new(7)];
        ids.sort();
        assert_eq!(ids, [NodeId::new(0), NodeId::new(3), NodeId::new(7)]);
    }

    #[test]
    #[should_panic(expected = "fits u32")]
    fn oversized_index_is_rejected() {
        let _ = NodeId::new(usize::MAX);
    }

    #[test]
    fn is_transparent_over_u32() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::align_of::<NodeId>(), 4);
    }
}
