//! Messages, packets, and destination sets.

use rfnoc_topology::NodeId;

/// Message classes and their sizes in bytes (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Request between a core and a cache bank (or core and core): 7 bytes.
    Request,
    /// Data message including payload: 39 bytes.
    Data,
    /// Cache-bank ↔ memory-controller transfer: 132 bytes.
    Memory,
    /// Coherence multicast (invalidate or fill) from a cache bank to a set
    /// of cores; carries a destination bit vector in its first flit (§3.3).
    Multicast,
}

impl MessageClass {
    /// Payload size in bytes for this class (multicasts use the data size).
    pub fn bytes(self) -> u32 {
        match self {
            MessageClass::Request => 7,
            MessageClass::Data => 39,
            MessageClass::Memory => 132,
            MessageClass::Multicast => 39,
        }
    }
}

/// A set of destination routers, stored as a bit vector over node ids.
///
/// The paper's DBV is 64 bits over cores; here a `u128` indexed by router
/// id holds any router below [`DestSet::CAPACITY`]. A multicast network or
/// generator on more routers is refused when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DestSet(u128);

impl DestSet {
    /// One more than the largest router id a set can hold.
    pub const CAPACITY: usize = 128;

    /// The empty destination set.
    pub fn empty() -> Self {
        Self(0)
    }

    /// A set containing the given routers.
    ///
    /// # Panics
    ///
    /// Panics if any id is ≥ [`DestSet::CAPACITY`].
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut bits = 0u128;
        for n in nodes {
            assert!(n < Self::CAPACITY, "router id {n} exceeds DBV capacity");
            bits |= 1 << n;
        }
        Self(bits)
    }

    /// Adds a router to the set.
    ///
    /// # Panics
    ///
    /// Panics if `node >= DestSet::CAPACITY`.
    pub fn insert(&mut self, node: NodeId) {
        assert!(node < Self::CAPACITY, "router id {node} exceeds DBV capacity");
        self.0 |= 1 << node;
    }

    /// Removes a router from the set.
    pub fn remove(&mut self, node: NodeId) {
        if node < Self::CAPACITY {
            self.0 &= !(1 << node);
        }
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        node < Self::CAPACITY && self.0 & (1 << node) != 0
    }

    /// Number of destinations.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterator over the router ids in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let bits = self.0;
        (0..Self::CAPACITY).filter(move |i| bits & (1 << i) != 0)
    }

    /// Raw bit representation.
    pub fn bits(&self) -> u128 {
        self.0
    }
}

impl FromIterator<NodeId> for DestSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        Self::from_nodes(iter)
    }
}

/// Destination of a message: a single router or a multicast set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Ordinary unicast to one router.
    Unicast(NodeId),
    /// Multicast to a set of core routers (paper §3.3).
    Multicast(DestSet),
}

/// A message to inject into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageSpec {
    /// Source router.
    pub src: NodeId,
    /// Destination router or multicast set.
    pub dest: Destination,
    /// Message class (determines size).
    pub class: MessageClass,
}

impl MessageSpec {
    /// A unicast message of the given class.
    pub fn unicast(src: NodeId, dst: NodeId, class: MessageClass) -> Self {
        Self { src, dest: Destination::Unicast(dst), class }
    }

    /// A coherence multicast from a cache-bank router to a set of core
    /// routers.
    pub fn multicast(src: NodeId, dests: DestSet) -> Self {
        Self { src, dest: Destination::Multicast(dests), class: MessageClass::Multicast }
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> u32 {
        self.class.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_match_paper() {
        assert_eq!(MessageClass::Request.bytes(), 7);
        assert_eq!(MessageClass::Data.bytes(), 39);
        assert_eq!(MessageClass::Memory.bytes(), 132);
    }

    #[test]
    fn dest_set_roundtrip() {
        let set = DestSet::from_nodes([3, 77, 99]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(77));
        assert!(!set.contains(4));
        let collected: Vec<NodeId> = set.iter().collect();
        assert_eq!(collected, vec![3, 77, 99]);
    }

    #[test]
    fn dest_set_insert_remove() {
        let mut set = DestSet::empty();
        assert!(set.is_empty());
        set.insert(5);
        set.insert(5);
        assert_eq!(set.len(), 1);
        set.remove(5);
        assert!(set.is_empty());
    }

    #[test]
    #[should_panic(expected = "DBV capacity")]
    fn oversized_id_rejected() {
        DestSet::from_nodes([128]);
    }
}
