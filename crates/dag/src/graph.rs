//! The FFS DAG: components and dataflow within one serverless function.
//!
//! Note the distinction the paper draws (§5.2.1): this DAG captures the
//! computation flow *within* a serverless function, not the task DAGs
//! *among* functions that other serverless systems schedule.

use std::fmt;

/// Identifier of a component (node) within one FFS DAG.
///
/// Ids are dense indices in registration order, which is always a
/// topological order because a component can only name already-registered
/// components as inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One DNN component of a FluidFaaS function.
///
/// `work` is an abstract compute cost: the component's execution time in
/// milliseconds on a single GPC at batch size 1. The performance model in
/// `ffs-profile` scales it to concrete MIG slices and batch sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    /// Human-readable component name (e.g. `"super_resolution"`).
    pub name: String,
    /// GPU memory footprint in GB (weights + activations at batch 1).
    pub mem_gb: f64,
    /// Compute cost: milliseconds on one GPC at batch size 1.
    pub work: f64,
    /// Size of the component's output tensor in MB (what must cross a
    /// pipeline-stage boundary through host shared memory).
    pub output_mb: f64,
}

impl Component {
    /// Creates a component description.
    pub fn new(name: impl Into<String>, mem_gb: f64, work: f64, output_mb: f64) -> Self {
        Component {
            name: name.into(),
            mem_gb,
            work,
            output_mb,
        }
    }
}

/// Errors from DAG construction or validation.
#[derive(Clone, Debug, PartialEq)]
pub enum DagError {
    /// An input id does not refer to an already-registered node.
    UnknownInput(NodeId),
    /// The same input was listed twice for one node.
    DuplicateInput(NodeId),
    /// The DAG has no nodes.
    Empty,
    /// A non-source node list was expected but the DAG is disconnected:
    /// `node` is unreachable from the sources.
    Unreachable(NodeId),
    /// A component field is not finite / positive where required.
    InvalidComponent {
        /// The offending node.
        node: NodeId,
        /// Which field is invalid.
        field: &'static str,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownInput(n) => write!(f, "unknown input node {n:?}"),
            DagError::DuplicateInput(n) => write!(f, "duplicate input node {n:?}"),
            DagError::Empty => write!(f, "the DAG has no components"),
            DagError::Unreachable(n) => write!(f, "node {n:?} is unreachable from the sources"),
            DagError::InvalidComponent { node, field } => {
                write!(f, "component {node:?} has an invalid {field}")
            }
        }
    }
}

impl std::error::Error for DagError {}

/// The FFS DAG of one FluidFaaS function.
#[derive(Clone, Debug)]
pub struct FfsDag {
    name: String,
    components: Vec<Component>,
    /// `inputs[i]` = nodes feeding node `i`.
    inputs: Vec<Vec<NodeId>>,
    /// `outputs[i]` = nodes consuming node `i`'s output.
    outputs: Vec<Vec<NodeId>>,
}

impl FfsDag {
    /// Creates an empty DAG for the named function.
    pub fn new(name: impl Into<String>) -> Self {
        FfsDag {
            name: name.into(),
            components: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a component with its dataflow inputs, mirroring the
    /// paper's `model.reg(self, x1, x2)` API. Inputs must already be
    /// registered, which keeps the graph acyclic by construction.
    pub fn register(
        &mut self,
        component: Component,
        inputs: &[NodeId],
    ) -> Result<NodeId, DagError> {
        let id = NodeId(self.components.len() as u32);
        for (i, &inp) in inputs.iter().enumerate() {
            if inp.index() >= self.components.len() {
                return Err(DagError::UnknownInput(inp));
            }
            if inputs[..i].contains(&inp) {
                return Err(DagError::DuplicateInput(inp));
            }
        }
        if !component.mem_gb.is_finite() || component.mem_gb <= 0.0 {
            return Err(DagError::InvalidComponent {
                node: id,
                field: "mem_gb",
            });
        }
        if !component.work.is_finite() || component.work <= 0.0 {
            return Err(DagError::InvalidComponent {
                node: id,
                field: "work",
            });
        }
        if !component.output_mb.is_finite() || component.output_mb < 0.0 {
            return Err(DagError::InvalidComponent {
                node: id,
                field: "output_mb",
            });
        }
        self.components.push(component);
        self.inputs.push(inputs.to_vec());
        self.outputs.push(Vec::new());
        for &inp in inputs {
            self.outputs[inp.index()].push(id);
        }
        Ok(id)
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the DAG has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// All node ids in topological (registration) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.components.len() as u32).map(NodeId)
    }

    /// The component description of a node.
    pub fn component(&self, id: NodeId) -> &Component {
        &self.components[id.index()]
    }

    /// The dataflow inputs of a node.
    pub fn inputs(&self, id: NodeId) -> &[NodeId] {
        &self.inputs[id.index()]
    }

    /// The dataflow consumers of a node.
    pub fn outputs(&self, id: NodeId) -> &[NodeId] {
        &self.outputs[id.index()]
    }

    /// Nodes with no inputs.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.inputs(n).is_empty())
            .collect()
    }

    /// Nodes with no consumers.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.outputs(n).is_empty())
            .collect()
    }

    /// All edges as `(from, to)` pairs, in registration order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for to in self.nodes() {
            for &from in self.inputs(to) {
                out.push((from, to));
            }
        }
        out
    }

    /// Total memory footprint of all components (the monolithic requirement
    /// a baseline scheduler must satisfy with one MIG slice).
    pub fn total_mem_gb(&self) -> f64 {
        self.components.iter().map(|c| c.mem_gb).sum()
    }

    /// Total compute work of all components.
    pub fn total_work(&self) -> f64 {
        self.components.iter().map(|c| c.work).sum()
    }

    /// Validates the DAG: non-empty and fully reachable from the sources.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.is_empty() {
            return Err(DagError::Empty);
        }
        // Reachability from sources (forward BFS; ids are topologically
        // ordered so one pass suffices).
        let mut reachable = vec![false; self.len()];
        for n in self.nodes() {
            if self.inputs(n).is_empty() {
                reachable[n.index()] = true;
            } else if self.inputs(n).iter().any(|i| reachable[i.index()]) {
                // A node is part of the function if any of its inputs is;
                // all inputs are registered earlier so already decided.
                reachable[n.index()] = true;
            }
        }
        if let Some(i) = reachable.iter().position(|r| !r) {
            return Err(DagError::Unreachable(NodeId(i as u32)));
        }
        Ok(())
    }

    /// Sum of the output tensors (MB) crossing from `left` to nodes outside
    /// `left`. This is the data a pipeline boundary must move through host
    /// shared memory.
    pub fn crossing_mb(&self, left: &[NodeId]) -> f64 {
        let in_left = |n: NodeId| left.contains(&n);
        let mut total = 0.0;
        for &n in left {
            if self.outputs(n).iter().any(|&o| !in_left(o)) {
                // The producer writes its tensor once into shared memory,
                // regardless of the number of consumers.
                total += self.component(n).output_mb;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> (FfsDag, Vec<NodeId>) {
        let mut dag = FfsDag::new("chain");
        let a = dag
            .register(Component::new("a", 1.0, 10.0, 4.0), &[])
            .unwrap();
        let b = dag
            .register(Component::new("b", 2.0, 20.0, 2.0), &[a])
            .unwrap();
        let c = dag
            .register(Component::new("c", 3.0, 30.0, 1.0), &[b])
            .unwrap();
        (dag, vec![a, b, c])
    }

    #[test]
    fn chain_structure() {
        let (dag, ids) = chain3();
        dag.validate().unwrap();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.sources(), vec![ids[0]]);
        assert_eq!(dag.sinks(), vec![ids[2]]);
        assert_eq!(dag.edges(), vec![(ids[0], ids[1]), (ids[1], ids[2])]);
        assert!((dag.total_mem_gb() - 6.0).abs() < 1e-12);
        assert!((dag.total_work() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_structure() {
        // a -> (b, c) -> d : the App-3-style branch.
        let mut dag = FfsDag::new("diamond");
        let a = dag
            .register(Component::new("a", 1.0, 10.0, 4.0), &[])
            .unwrap();
        let b = dag
            .register(Component::new("b", 1.0, 10.0, 4.0), &[a])
            .unwrap();
        let c = dag
            .register(Component::new("c", 1.0, 10.0, 4.0), &[a])
            .unwrap();
        let d = dag
            .register(Component::new("d", 1.0, 10.0, 4.0), &[b, c])
            .unwrap();
        dag.validate().unwrap();
        assert_eq!(dag.outputs(a), &[b, c]);
        assert_eq!(dag.inputs(d), &[b, c]);
        assert_eq!(dag.sinks(), vec![d]);
    }

    #[test]
    fn unknown_input_rejected() {
        let mut dag = FfsDag::new("bad");
        let err = dag
            .register(Component::new("x", 1.0, 1.0, 1.0), &[NodeId(5)])
            .unwrap_err();
        assert_eq!(err, DagError::UnknownInput(NodeId(5)));
    }

    #[test]
    fn duplicate_input_rejected() {
        let mut dag = FfsDag::new("bad");
        let a = dag
            .register(Component::new("a", 1.0, 1.0, 1.0), &[])
            .unwrap();
        let err = dag
            .register(Component::new("b", 1.0, 1.0, 1.0), &[a, a])
            .unwrap_err();
        assert_eq!(err, DagError::DuplicateInput(a));
    }

    #[test]
    fn invalid_component_fields_rejected() {
        let mut dag = FfsDag::new("bad");
        assert!(dag
            .register(Component::new("a", 0.0, 1.0, 1.0), &[])
            .is_err());
        assert!(dag
            .register(Component::new("a", 1.0, -1.0, 1.0), &[])
            .is_err());
        assert!(dag
            .register(Component::new("a", 1.0, 1.0, f64::NAN), &[])
            .is_err());
        // Zero-sized output is fine (e.g. a final classifier label).
        assert!(dag
            .register(Component::new("a", 1.0, 1.0, 0.0), &[])
            .is_ok());
    }

    #[test]
    fn empty_dag_fails_validation() {
        assert_eq!(FfsDag::new("e").validate(), Err(DagError::Empty));
    }

    #[test]
    fn crossing_mb_counts_producers_once() {
        let mut dag = FfsDag::new("fanout");
        let a = dag
            .register(Component::new("a", 1.0, 1.0, 10.0), &[])
            .unwrap();
        let b = dag
            .register(Component::new("b", 1.0, 1.0, 3.0), &[a])
            .unwrap();
        let c = dag
            .register(Component::new("c", 1.0, 1.0, 4.0), &[a])
            .unwrap();
        let _d = dag
            .register(Component::new("d", 1.0, 1.0, 1.0), &[b, c])
            .unwrap();
        // Boundary after {a}: a's tensor crosses once even with two readers.
        assert!((dag.crossing_mb(&[a]) - 10.0).abs() < 1e-12);
        // Boundary after {a, b}: both a (consumed by c) and b (by d) cross.
        assert!((dag.crossing_mb(&[a, b]) - 13.0).abs() < 1e-12);
        // Boundary after {a, b, c}: b and c cross to d.
        assert!((dag.crossing_mb(&[a, b, c]) - 7.0).abs() < 1e-12);
    }
}
