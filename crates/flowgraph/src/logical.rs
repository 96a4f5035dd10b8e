//! The logical FlowGraph.
//!
//! Vertices carry *what* to compute (a handcrafted operator name or a
//! hardware-agnostic IR op, plus cardinality hints); edges carry *how
//! data flows* (plain, keyed for shuffles, or broadcast). Nothing here
//! says when or where anything runs.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::GraphError;
use crate::exec::ExecOp;

/// Identifies a logical vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What a vertex computes.
#[derive(Debug, Clone, PartialEq)]
pub enum VertexBody {
    /// An external input (base table, training data, stream source).
    Source {
        /// Dataset name.
        name: String,
    },
    /// A hardware-agnostic IR op (possibly a fused kernel) — lowered to a
    /// backend during physical lowering.
    IrOp {
        /// Op name, e.g. `rel.filter` or `kernel.fused`.
        name: String,
        /// Constituent ops for fused kernels (singleton otherwise).
        body: Vec<String>,
    },
    /// A predefined, handcrafted operator bound to a specific backend
    /// family (e.g. `cudf.join`, `arrow.concat`).
    Handcrafted {
        /// Operator name.
        name: String,
        /// The backend family it is written for.
        backend: skadi_ir::Backend,
    },
    /// A job output.
    Sink {
        /// Result name.
        name: String,
    },
}

impl VertexBody {
    /// A short display name.
    pub fn name(&self) -> &str {
        match self {
            VertexBody::Source { name }
            | VertexBody::IrOp { name, .. }
            | VertexBody::Handcrafted { name, .. }
            | VertexBody::Sink { name } => name,
        }
    }
}

/// One logical vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    /// Identity.
    pub id: VertexId,
    /// What it computes.
    pub body: VertexBody,
    /// Estimated rows/elements processed (drives cost models).
    pub rows_hint: u64,
    /// Estimated output size in bytes (drives data-movement pricing).
    pub output_bytes_hint: u64,
    /// Executable shard descriptor, when the frontend can supply one
    /// (SQL plans do; hand-built graphs usually don't).
    pub exec: Option<ExecOp>,
}

/// How data flows along an edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// Plain dataflow: each upstream shard feeds its aligned or gathered
    /// downstream shard(s).
    Data,
    /// Keyed: rows are hash-partitioned on the named key (a shuffle when
    /// sharded).
    Keyed(String),
    /// Broadcast: every downstream shard receives the full output (model
    /// weights, small dimension tables).
    Broadcast,
}

/// One logical edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Producer vertex.
    pub from: VertexId,
    /// Consumer vertex.
    pub to: VertexId,
    /// Flow kind.
    pub kind: EdgeKind,
    /// Input port at the consumer: distinguishes a multi-input vertex's
    /// operands (0 = primary/probe side, 1 = join build side).
    pub port: u8,
}

/// The logical dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowGraph {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        FlowGraph::default()
    }

    /// Adds a source vertex.
    pub fn add_source(&mut self, name: &str, rows: u64, bytes: u64) -> VertexId {
        self.add_vertex(
            VertexBody::Source {
                name: name.to_string(),
            },
            rows,
            bytes,
        )
    }

    /// Adds a hardware-agnostic IR op vertex.
    pub fn add_ir_op(&mut self, op: &str, rows: u64, out_bytes: u64) -> VertexId {
        self.add_vertex(
            VertexBody::IrOp {
                name: op.to_string(),
                body: vec![op.to_string()],
            },
            rows,
            out_bytes,
        )
    }

    /// Adds a handcrafted operator vertex.
    pub fn add_handcrafted(
        &mut self,
        name: &str,
        backend: skadi_ir::Backend,
        rows: u64,
        out_bytes: u64,
    ) -> VertexId {
        self.add_vertex(
            VertexBody::Handcrafted {
                name: name.to_string(),
                backend,
            },
            rows,
            out_bytes,
        )
    }

    /// Adds a sink vertex.
    pub fn add_sink(&mut self, name: &str) -> VertexId {
        self.add_vertex(
            VertexBody::Sink {
                name: name.to_string(),
            },
            0,
            0,
        )
    }

    /// Adds a vertex with an explicit body.
    pub fn add_vertex(&mut self, body: VertexBody, rows: u64, bytes: u64) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex {
            id,
            body,
            rows_hint: rows,
            output_bytes_hint: bytes,
            exec: None,
        });
        id
    }

    /// Attaches an executable shard descriptor to a vertex.
    pub fn set_exec(&mut self, v: VertexId, op: ExecOp) {
        self.vertices[v.0 as usize].exec = Some(op);
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if (v.0 as usize) < self.vertices.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    fn add_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        kind: EdgeKind,
        port: u8,
    ) -> Result<(), GraphError> {
        self.check_vertex(from)?;
        self.check_vertex(to)?;
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.edges.push(Edge {
            from,
            to,
            kind,
            port,
        });
        Ok(())
    }

    /// Connects two vertices with plain dataflow.
    pub fn connect(&mut self, from: VertexId, to: VertexId) -> Result<(), GraphError> {
        self.add_edge(from, to, EdgeKind::Data, 0)
    }

    /// Connects two vertices with a keyed (shuffle) edge.
    pub fn connect_keyed(
        &mut self,
        from: VertexId,
        to: VertexId,
        key: &str,
    ) -> Result<(), GraphError> {
        self.add_edge(from, to, EdgeKind::Keyed(key.to_string()), 0)
    }

    /// Connects two vertices with a keyed edge into a specific input port
    /// of the consumer (port 1 = a join's build side).
    pub fn connect_keyed_port(
        &mut self,
        from: VertexId,
        to: VertexId,
        key: &str,
        port: u8,
    ) -> Result<(), GraphError> {
        self.add_edge(from, to, EdgeKind::Keyed(key.to_string()), port)
    }

    /// Connects two vertices with a broadcast edge.
    pub fn connect_broadcast(&mut self, from: VertexId, to: VertexId) -> Result<(), GraphError> {
        self.add_edge(from, to, EdgeKind::Broadcast, 0)
    }

    /// The vertices, in insertion order.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// The edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertex with the given ID.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id.0 as usize]
    }

    /// Mutable vertex access (used by the optimizer).
    pub fn vertex_mut(&mut self, id: VertexId) -> &mut Vertex {
        &mut self.vertices[id.0 as usize]
    }

    /// Direct upstream vertices of `v`.
    pub fn inputs_of(&self, v: VertexId) -> Vec<VertexId> {
        self.edges
            .iter()
            .filter(|e| e.to == v)
            .map(|e| e.from)
            .collect()
    }

    /// Direct downstream vertices of `v`.
    pub fn outputs_of(&self, v: VertexId) -> Vec<VertexId> {
        self.edges
            .iter()
            .filter(|e| e.from == v)
            .map(|e| e.to)
            .collect()
    }

    /// The edge between two vertices, if any.
    pub fn edge_between(&self, from: VertexId, to: VertexId) -> Option<&Edge> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }

    /// Removes a set of vertices and every incident edge, compacting IDs.
    /// Returns the mapping old-ID -> new-ID for surviving vertices.
    pub fn remove_vertices(&mut self, doomed: &HashSet<VertexId>) -> HashMap<VertexId, VertexId> {
        let mut mapping = HashMap::new();
        let mut new_vertices = Vec::new();
        for v in &self.vertices {
            if doomed.contains(&v.id) {
                continue;
            }
            let new_id = VertexId(new_vertices.len() as u32);
            mapping.insert(v.id, new_id);
            let mut nv = v.clone();
            nv.id = new_id;
            new_vertices.push(nv);
        }
        let mut new_edges = Vec::new();
        for e in &self.edges {
            if let (Some(&from), Some(&to)) = (mapping.get(&e.from), mapping.get(&e.to)) {
                new_edges.push(Edge {
                    from,
                    to,
                    kind: e.kind.clone(),
                    port: e.port,
                });
            }
        }
        self.vertices = new_vertices;
        self.edges = new_edges;
        mapping
    }

    /// Topological order of the vertices.
    pub fn topo_order(&self) -> Result<Vec<VertexId>, GraphError> {
        let n = self.vertices.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to.0 as usize] += 1;
        }
        // Deterministic Kahn: ready set kept sorted by ID.
        let mut ready: Vec<VertexId> = (0..n as u32)
            .map(VertexId)
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

    /// Structural validation: edges reference real vertices, the graph is
    /// acyclic, sources have no inputs, sinks have no outputs.
    pub fn validate(&self) -> Result<(), GraphError> {
        for e in &self.edges {
            self.check_vertex(e.from)?;
            self.check_vertex(e.to)?;
        }
        self.topo_order()?;
        for v in &self.vertices {
            match v.body {
                VertexBody::Source { .. } if !self.inputs_of(v.id).is_empty() => {
                    return Err(GraphError::Invalid(format!("source {} has inputs", v.id)));
                }
                VertexBody::Sink { .. } if !self.outputs_of(v.id).is_empty() => {
                    return Err(GraphError::Invalid(format!("sink {} has outputs", v.id)));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Graphviz DOT rendering, for docs and debugging.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph flow {\n");
        for v in &self.vertices {
            let _ = writeln!(s, "  {} [label=\"{}\"];", v.id.0, v.body.name());
        }
        for e in &self.edges {
            let label = match &e.kind {
                EdgeKind::Data => String::new(),
                EdgeKind::Keyed(k) => format!(" [label=\"key={k}\", style=dashed]"),
                EdgeKind::Broadcast => " [label=\"broadcast\"]".to_string(),
            };
            let _ = writeln!(s, "  {} -> {}{};", e.from.0, e.to.0, label);
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (FlowGraph, [VertexId; 4]) {
        let mut g = FlowGraph::new();
        let a = g.add_source("in", 100, 800);
        let b = g.add_ir_op("rel.filter", 100, 400);
        let c = g.add_ir_op("rel.project", 100, 200);
        let d = g.add_sink("out");
        g.connect(a, b).unwrap();
        g.connect(a, c).unwrap();
        g.connect(b, d).unwrap();
        g.connect(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_validate() {
        let (g, _) = diamond();
        g.validate().unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edges().len(), 4);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().unwrap();
        let pos = |v: VertexId| order.iter().position(|x| *x == v).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn cycle_detected() {
        let mut g = FlowGraph::new();
        let a = g.add_ir_op("rel.filter", 1, 1);
        let b = g.add_ir_op("rel.project", 1, 1);
        g.connect(a, b).unwrap();
        g.connect(b, a).unwrap();
        assert_eq!(g.topo_order(), Err(GraphError::Cyclic));
        assert!(g.validate().is_err());
    }

    #[test]
    fn duplicate_edges_rejected() {
        let mut g = FlowGraph::new();
        let a = g.add_source("s", 1, 1);
        let b = g.add_sink("t");
        g.connect(a, b).unwrap();
        assert_eq!(g.connect(a, b), Err(GraphError::DuplicateEdge(a, b)));
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut g = FlowGraph::new();
        let a = g.add_source("s", 1, 1);
        assert!(matches!(
            g.connect(a, VertexId(9)),
            Err(GraphError::UnknownVertex(_))
        ));
    }

    #[test]
    fn source_with_inputs_invalid() {
        let mut g = FlowGraph::new();
        let a = g.add_ir_op("rel.filter", 1, 1);
        let s = g.add_source("s", 1, 1);
        g.connect(a, s).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::Invalid(_))));
    }

    #[test]
    fn neighbors() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.outputs_of(a), vec![b, c]);
        assert_eq!(g.inputs_of(d), vec![b, c]);
        assert!(g.edge_between(a, b).is_some());
        assert!(g.edge_between(b, a).is_none());
    }

    #[test]
    fn remove_vertices_compacts() {
        let (mut g, [a, b, c, d]) = diamond();
        let doomed: HashSet<VertexId> = [b].into_iter().collect();
        let mapping = g.remove_vertices(&doomed);
        assert_eq!(g.len(), 3);
        assert!(!mapping.contains_key(&b));
        g.validate().unwrap();
        // a -> c edge survives under new IDs.
        let (na, nc, nd) = (mapping[&a], mapping[&c], mapping[&d]);
        assert!(g.edge_between(na, nc).is_some());
        assert!(g.edge_between(nc, nd).is_some());
    }

    #[test]
    fn keyed_and_broadcast_edges() {
        let mut g = FlowGraph::new();
        let a = g.add_source("s", 10, 10);
        let b = g.add_ir_op("rel.aggregate", 10, 10);
        let c = g.add_ir_op("tensor.map", 10, 10);
        g.connect_keyed(a, b, "k").unwrap();
        g.connect_broadcast(a, c).unwrap();
        assert_eq!(
            g.edge_between(a, b).unwrap().kind,
            EdgeKind::Keyed("k".into())
        );
        assert_eq!(g.edge_between(a, c).unwrap().kind, EdgeKind::Broadcast);
    }

    #[test]
    fn dot_output_mentions_vertices() {
        let (g, _) = diamond();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("rel.filter"));
    }
}
