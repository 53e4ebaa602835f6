//! The layer-indexed table behind every per-node adversary map.
//!
//! Send models are consulted on every edge of every rule evaluation,
//! and at the paper's densities (`p ∈ o(n^{-1/2})`, about one fault per
//! layer at the boundary) nearly every consultation is a miss. A hash
//! map pays a full hash of the key for each of them; this table answers
//! a miss on an empty layer from two offsets and binary-searches the few
//! entries of any other layer.

use core::fmt;
use trix_topology::NodeId;

/// Per-node values stored flat, sorted by [`NodeId`] (so in
/// `(layer, v)` order), with a start offset per layer.
///
/// Inserting a key that is already present replaces its value: the last
/// write wins, as with a map.
#[derive(Clone)]
pub(crate) struct LayerTable<T> {
    /// The keys in `(layer, v)` order, each once.
    keys: Vec<NodeId>,
    /// `values[i]` belongs to `keys[i]`.
    values: Vec<T>,
    /// Layer `l`'s entries are `starts[l]..starts[l + 1]`. Layers from
    /// `starts.len() - 1` on have none; an empty table has no offsets.
    starts: Vec<usize>,
}

impl<T> LayerTable<T> {
    /// The value stored for `node`.
    #[inline]
    pub(crate) fn get(&self, node: NodeId) -> Option<&T> {
        let layer = node.layer as usize;
        let Some(&[lo, hi]) = self.starts.get(layer..layer + 2) else {
            return None;
        };
        if lo == hi {
            return None;
        }
        let i = self.keys[lo..hi]
            .binary_search_by_key(&node.v, |k| k.v)
            .ok()?;
        Some(&self.values[lo + i])
    }

    /// Whether `node` has a value.
    #[inline]
    pub(crate) fn contains_key(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// Stores `value` for `node`, replacing any earlier value.
    pub(crate) fn insert(&mut self, node: NodeId, value: T) {
        match self.keys.binary_search(&node) {
            Ok(i) => self.values[i] = value,
            Err(i) => {
                let layer = node.layer as usize;
                if self.starts.len() < layer + 2 {
                    // The new layers start after every present key.
                    self.starts.resize(layer + 2, self.keys.len());
                }
                self.keys.insert(i, node);
                self.values.insert(i, value);
                for start in &mut self.starts[layer + 1..] {
                    *start += 1;
                }
            }
        }
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The keys, in `(layer, v)` order.
    pub(crate) fn keys(&self) -> &[NodeId] {
        &self.keys
    }

    /// The values, in key order.
    pub(crate) fn values(&self) -> &[T] {
        &self.values
    }

    /// The entries, in `(layer, v)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.keys.iter().copied().zip(&self.values)
    }
}

impl<T> Default for LayerTable<T> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
            starts: Vec::new(),
        }
    }
}

impl<T> FromIterator<(NodeId, T)> for LayerTable<T> {
    /// Inserts the entries in order, so of the entries with one key the
    /// last wins. Entries that arrive sorted are appended.
    fn from_iter<I: IntoIterator<Item = (NodeId, T)>>(entries: I) -> Self {
        let mut table = Self::default();
        for (node, value) in entries {
            table.insert(node, value);
        }
        table
    }
}

impl<T: fmt::Debug> fmt::Debug for LayerTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}
