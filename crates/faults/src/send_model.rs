//! A [`SendModel`] that applies [`FaultBehavior`]s at chosen grid
//! positions.

use crate::table::LayerTable;
use crate::FaultBehavior;
use trix_sim::SendModel;
use trix_time::Time;
use trix_topology::NodeId;

/// Send model for the dataflow executor: correct nodes broadcast their
/// nominal pulse; nodes listed in the fault map apply their behavior.
///
/// # Examples
///
/// ```
/// use trix_faults::{FaultBehavior, FaultySendModel};
/// use trix_sim::SendModel;
/// use trix_time::{Duration, Time};
/// use trix_topology::NodeId;
///
/// let mut model = FaultySendModel::new();
/// model.insert(NodeId::new(2, 3), FaultBehavior::Silent);
/// assert!(model.is_faulty(NodeId::new(2, 3)));
/// assert_eq!(
///     model.send_time(NodeId::new(2, 3), 0, Some(Time::ZERO), NodeId::new(2, 4)),
///     None
/// );
/// assert_eq!(
///     model.send_time(NodeId::new(0, 0), 0, Some(Time::ZERO), NodeId::new(0, 1)),
///     Some(Time::ZERO)
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultySendModel {
    faults: LayerTable<FaultBehavior>,
}

impl FaultySendModel {
    /// Creates an empty (fault-free) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a model from a list of (position, behavior) pairs.
    pub fn from_faults(faults: impl IntoIterator<Item = (NodeId, FaultBehavior)>) -> Self {
        Self {
            faults: faults.into_iter().collect(),
        }
    }

    /// Makes `node` faulty with the given behavior (replacing any previous
    /// behavior).
    pub fn insert(&mut self, node: NodeId, behavior: FaultBehavior) {
        self.faults.insert(node, behavior);
    }

    /// The faulty positions, in `(layer, v)` order.
    pub fn faulty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.faults.keys().iter().copied()
    }

    /// Number of faulty nodes.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Whether all fault behaviors have static timing profiles
    /// (the Theorem 1.4 assumption).
    pub fn all_static(&self) -> bool {
        self.faults.values().iter().all(FaultBehavior::is_static)
    }
}

impl SendModel for FaultySendModel {
    fn send_time(
        &self,
        node: NodeId,
        k: usize,
        nominal: Option<Time>,
        target: NodeId,
    ) -> Option<Time> {
        match self.faults.get(node) {
            Some(behavior) => behavior.send_time(node, k, nominal, target),
            None => nominal,
        }
    }

    fn is_faulty(&self, node: NodeId) -> bool {
        self.faults.contains_key(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_time::Duration;

    #[test]
    fn from_faults_and_queries() {
        let model = FaultySendModel::from_faults([
            (NodeId::new(0, 1), FaultBehavior::Silent),
            (NodeId::new(1, 2), FaultBehavior::Shift(Duration::from(1.0))),
        ]);
        assert_eq!(model.fault_count(), 2);
        assert!(model.is_faulty(NodeId::new(0, 1)));
        assert!(!model.is_faulty(NodeId::new(0, 2)));
        assert!(model.all_static());
        let nodes: Vec<NodeId> = model.faulty_nodes().collect();
        assert_eq!(nodes, vec![NodeId::new(0, 1), NodeId::new(1, 2)]);
    }

    #[test]
    fn non_static_detection() {
        let model = FaultySendModel::from_faults([(
            NodeId::new(0, 1),
            FaultBehavior::Jitter {
                amplitude: Duration::from(1.0),
                seed: 1,
            },
        )]);
        assert!(!model.all_static());
    }
}
