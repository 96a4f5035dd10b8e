//! The physical sharded graph.
//!
//! Physical vertices are shards of logical vertices, each annotated with
//! the hardware backend chosen for it and a per-shard cost estimate;
//! physical edges are the expanded per-shard transfers (pipelines,
//! shuffles, gathers, scatters, broadcasts). The runtime executes this
//! graph one task per vertex.

use std::collections::HashMap;
use std::fmt;

use skadi_ir::Backend;

use crate::error::GraphError;
use crate::exec::ExecOp;
use crate::logical::VertexId;
use crate::partition::Partitioner;

/// Identifies a physical vertex (one shard of one logical vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PVertexId(pub u32);

impl fmt::Display for PVertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The role of a physical vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PVertexKind {
    /// Reads external input.
    Source,
    /// Computes.
    Compute,
    /// Delivers a job output.
    Sink,
}

/// One shard of one logical vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalVertex {
    /// Identity.
    pub id: PVertexId,
    /// Stable operator identity: every shard of one (post-optimization)
    /// logical operator carries the same `op_id`, so per-shard
    /// measurements group back into per-operator profiles. Assigned
    /// during lowering from the logical vertex id; deterministic for a
    /// given plan.
    pub op_id: u32,
    /// The logical vertex this shards.
    pub logical: VertexId,
    /// Shard index in `[0, shards)`.
    pub shard: u32,
    /// Total shards of the logical vertex.
    pub shards: u32,
    /// Op name.
    pub op: String,
    /// Constituent ops (fused bodies; singleton otherwise).
    pub body: Vec<String>,
    /// Chosen hardware backend.
    pub backend: Backend,
    /// Role.
    pub kind: PVertexKind,
    /// Estimated per-shard compute time, microseconds.
    pub compute_us: f64,
    /// Per-shard output size in bytes.
    pub output_bytes: u64,
    /// Per-shard input cardinality.
    pub rows: u64,
    /// Executable shard descriptor, inherited from the logical vertex.
    pub exec: Option<ExecOp>,
}

/// How bytes move along a physical edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PEdgeKind {
    /// Shard-aligned pipeline (same parallelism, no key).
    Pipeline,
    /// Hash shuffle on a key.
    Shuffle {
        /// The key column.
        key: String,
        /// The hashing scheme.
        partitioner: Partitioner,
    },
    /// Many shards into one.
    Gather,
    /// One (or few) shards fanned out / rebalanced.
    Scatter,
    /// Full copy to every consumer shard.
    Broadcast,
}

/// One physical transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalEdge {
    /// Producing shard.
    pub from: PVertexId,
    /// Consuming shard.
    pub to: PVertexId,
    /// Bytes carried.
    pub bytes: u64,
    /// Flow kind.
    pub kind: PEdgeKind,
    /// Consumer input port, inherited from the logical edge.
    pub port: u8,
}

/// The physical sharded graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysicalGraph {
    vertices: Vec<PhysicalVertex>,
    edges: Vec<PhysicalEdge>,
    by_logical: HashMap<VertexId, Vec<PVertexId>>,
}

impl PhysicalGraph {
    /// Creates an empty graph (used by the lowering code).
    pub fn new() -> Self {
        PhysicalGraph::default()
    }

    /// Appends a vertex.
    pub fn push_vertex(&mut self, mut v: PhysicalVertex) -> PVertexId {
        let id = PVertexId(self.vertices.len() as u32);
        v.id = id;
        self.by_logical.entry(v.logical).or_default().push(id);
        self.vertices.push(v);
        id
    }

    /// Appends an edge.
    pub fn push_edge(&mut self, e: PhysicalEdge) {
        self.edges.push(e);
    }

    /// All vertices.
    pub fn vertices(&self) -> &[PhysicalVertex] {
        &self.vertices
    }

    /// All edges.
    pub fn edges(&self) -> &[PhysicalEdge] {
        &self.edges
    }

    /// Number of physical vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertex with the given ID.
    pub fn vertex(&self, id: PVertexId) -> &PhysicalVertex {
        &self.vertices[id.0 as usize]
    }

    /// The shards of a logical vertex, in shard order.
    pub fn shards_of(&self, logical: VertexId) -> &[PVertexId] {
        self.by_logical
            .get(&logical)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Incoming edges of a shard.
    pub fn in_edges(&self, v: PVertexId) -> Vec<&PhysicalEdge> {
        self.edges.iter().filter(|e| e.to == v).collect()
    }

    /// Topological order over physical vertices.
    pub fn topo_order(&self) -> Result<Vec<PVertexId>, GraphError> {
        let n = self.vertices.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to.0 as usize] += 1;
        }
        let mut ready: Vec<PVertexId> = (0..n as u32)
            .map(PVertexId)
            .filter(|v| indegree[v.0 as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = ready.first().copied() {
            ready.remove(0);
            order.push(v);
            for e in &self.edges {
                if e.from == v {
                    let d = &mut indegree[e.to.0 as usize];
                    *d -= 1;
                    if *d == 0 {
                        let pos = ready.partition_point(|x| *x < e.to);
                        ready.insert(pos, e.to);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::Cyclic);
        }
        Ok(order)
    }

    /// Sum of all per-shard compute estimates, microseconds.
    pub fn total_compute_us(&self) -> f64 {
        self.vertices.iter().map(|v| v.compute_us).sum()
    }

    /// Sum of all edge bytes (the job's total data movement if nothing is
    /// co-located).
    pub fn total_edge_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Length of the critical path in estimated microseconds, ignoring
    /// data movement (a lower bound on job time with infinite resources).
    pub fn critical_path_us(&self) -> f64 {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return f64::NAN,
        };
        let mut finish: Vec<f64> = vec![0.0; self.vertices.len()];
        for v in order {
            let start = self
                .in_edges(v)
                .iter()
                .map(|e| finish[e.from.0 as usize])
                .fold(0.0, f64::max);
            finish[v.0 as usize] = start + self.vertex(v).compute_us;
        }
        finish.into_iter().fold(0.0, f64::max)
    }

    /// Vertices assigned to a backend.
    pub fn on_backend(&self, b: Backend) -> Vec<&PhysicalVertex> {
        self.vertices.iter().filter(|v| v.backend == b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertex(logical: u32, shard: u32, shards: u32, cost: f64) -> PhysicalVertex {
        PhysicalVertex {
            id: PVertexId(0),
            op_id: logical,
            logical: VertexId(logical),
            shard,
            shards,
            op: "rel.filter".into(),
            body: vec!["rel.filter".into()],
            backend: Backend::Cpu,
            kind: PVertexKind::Compute,
            compute_us: cost,
            output_bytes: 100,
            rows: 10,
            exec: None,
        }
    }

    #[test]
    fn push_and_lookup() {
        let mut g = PhysicalGraph::new();
        let a = g.push_vertex(vertex(0, 0, 2, 1.0));
        let b = g.push_vertex(vertex(0, 1, 2, 1.0));
        let c = g.push_vertex(vertex(1, 0, 1, 2.0));
        assert_eq!(g.shards_of(VertexId(0)), &[a, b]);
        assert_eq!(g.shards_of(VertexId(1)), &[c]);
        assert_eq!(g.shards_of(VertexId(9)), &[] as &[PVertexId]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn topo_and_critical_path() {
        let mut g = PhysicalGraph::new();
        let a = g.push_vertex(vertex(0, 0, 1, 5.0));
        let b = g.push_vertex(vertex(1, 0, 1, 3.0));
        let c = g.push_vertex(vertex(2, 0, 1, 7.0));
        g.push_edge(PhysicalEdge {
            from: a,
            to: c,
            bytes: 10,
            kind: PEdgeKind::Pipeline,
            port: 0,
        });
        g.push_edge(PhysicalEdge {
            from: b,
            to: c,
            bytes: 10,
            kind: PEdgeKind::Pipeline,
            port: 0,
        });
        let order = g.topo_order().unwrap();
        assert_eq!(order.last(), Some(&c));
        // Critical path: max(5, 3) + 7 = 12.
        assert!((g.critical_path_us() - 12.0).abs() < 1e-9);
        assert_eq!(g.total_edge_bytes(), 20);
        assert!((g.total_compute_us() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_detection() {
        let mut g = PhysicalGraph::new();
        let a = g.push_vertex(vertex(0, 0, 1, 1.0));
        let b = g.push_vertex(vertex(1, 0, 1, 1.0));
        g.push_edge(PhysicalEdge {
            from: a,
            to: b,
            bytes: 1,
            kind: PEdgeKind::Pipeline,
            port: 0,
        });
        g.push_edge(PhysicalEdge {
            from: b,
            to: a,
            bytes: 1,
            kind: PEdgeKind::Pipeline,
            port: 0,
        });
        assert_eq!(g.topo_order(), Err(GraphError::Cyclic));
    }

    #[test]
    fn backend_filter() {
        let mut g = PhysicalGraph::new();
        let mut v = vertex(0, 0, 1, 1.0);
        v.backend = Backend::Gpu;
        g.push_vertex(v);
        g.push_vertex(vertex(1, 0, 1, 1.0));
        assert_eq!(g.on_backend(Backend::Gpu).len(), 1);
        assert_eq!(g.on_backend(Backend::Cpu).len(), 1);
        assert_eq!(g.on_backend(Backend::Fpga).len(), 0);
    }
}
