use crate::LayoutError;
use pilfill_geom::{Coord, Dir, Point, Rect};
use std::collections::HashMap;

/// Index of a net in a [`crate::Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub usize);

/// Index of a segment within its net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

/// Direction of signal flow along a segment, relative to the coordinate
/// axis the segment runs along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalDir {
    /// Signal flows in the direction of increasing coordinate.
    Increasing,
    /// Signal flows in the direction of decreasing coordinate.
    Decreasing,
}

/// One rectilinear wire piece of a routed net.
///
/// `start` is the source-side end (where the signal enters); `end` the
/// load-side end. Both lie on the wire centerline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index into [`crate::Design::layers`].
    pub layer: crate::LayerId,
    /// Source-side centerline endpoint.
    pub start: Point,
    /// Load-side centerline endpoint.
    pub end: Point,
    /// Drawn wire width.
    pub width: Coord,
}

impl Segment {
    /// Orientation of the segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is diagonal (validation rejects those first).
    pub fn dir(&self) -> Dir {
        if self.start.y == self.end.y {
            Dir::Horizontal
        } else if self.start.x == self.end.x {
            Dir::Vertical
        } else {
            // Documented `# Panics` contract; validation rejects diagonals.
            panic!("diagonal segment {:?} -> {:?}", self.start, self.end) // pilfill: allow(unwrap)
        }
    }

    /// Centerline length.
    pub fn length(&self) -> Coord {
        self.start.manhattan_distance(self.end)
    }

    /// Signal-flow direction along the segment's axis.
    pub fn signal_dir(&self) -> SignalDir {
        let d = self.dir();
        if self.end.along(d) >= self.start.along(d) {
            SignalDir::Increasing
        } else {
            SignalDir::Decreasing
        }
    }

    /// The drawn metal rectangle (centerline expanded by half the width).
    pub fn rect(&self) -> Rect {
        let hw = self.width / 2;
        match self.dir() {
            Dir::Horizontal => {
                let (x0, x1) = min_max(self.start.x, self.end.x);
                Rect::new(x0, self.start.y - hw, x1, self.start.y + (self.width - hw))
            }
            Dir::Vertical => {
                let (y0, y1) = min_max(self.start.y, self.end.y);
                Rect::new(self.start.x - hw, y0, self.start.x + (self.width - hw), y1)
            }
        }
    }

    /// [`Segment::rect`] with checked arithmetic: `None` when an edge
    /// overflows [`Coord`], as it can for parsed coordinates near the
    /// `i64` boundary.
    pub(crate) fn checked_rect(&self) -> Option<Rect> {
        let hw = self.width / 2;
        let rest = self.width - hw;
        Some(match self.dir() {
            Dir::Horizontal => {
                let (x0, x1) = min_max(self.start.x, self.end.x);
                let y = self.start.y;
                Rect::new(x0, y.checked_sub(hw)?, x1, y.checked_add(rest)?)
            }
            Dir::Vertical => {
                let (y0, y1) = min_max(self.start.y, self.end.y);
                let x = self.start.x;
                Rect::new(x.checked_sub(hw)?, y0, x.checked_add(rest)?, y1)
            }
        })
    }
}

fn min_max(a: Coord, b: Coord) -> (Coord, Coord) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A routed signal net: a tree of segments rooted at the source pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name (unique in a design).
    pub name: String,
    /// Driver pin location (must coincide with a segment endpoint).
    pub source: Point,
    /// Receiver pin locations (each must coincide with a segment endpoint).
    pub sinks: Vec<Point>,
    /// Routing tree edges.
    pub segments: Vec<Segment>,
}

impl Net {
    /// Total routed wirelength.
    pub fn wirelength(&self) -> Coord {
        self.segments.iter().map(Segment::length).sum()
    }

    /// Builds and validates the net's tree topology.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DisconnectedNet`] if the segments do not form
    /// a tree rooted at the source (cycle, disconnection, or a segment whose
    /// `start` is not reachable), and [`LayoutError::DanglingSink`] if a
    /// sink is not a segment endpoint (or the source itself).
    pub fn topology(&self) -> Result<NetTopology, LayoutError> {
        NetTopology::build(self)
    }

    /// Checks the net's tree topology into a caller-owned [`TreeWalk`],
    /// leaving the walk's parent links and parents-first order in it.
    ///
    /// Accepts and rejects exactly what [`Net::topology`] does, with the
    /// same error, but reuses `walk`'s buffers: a warm walk allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`LayoutError::DisconnectedNet`] if the segments do not form a tree
    /// rooted at the source; otherwise [`LayoutError::DanglingSink`] if a
    /// sink is not a segment endpoint (or the source itself).
    pub fn walk_tree(&self, walk: &mut TreeWalk) -> Result<(), LayoutError> {
        let n = self.segments.len();
        walk.children.clear();
        walk.children
            .extend(self.segments.iter().enumerate().map(|(i, s)| (s.start, i)));
        walk.children.sort_unstable();

        // Stack DFS from the source following start -> end, node for node
        // the traversal of `NetTopology::build`: one pop visits all
        // children of a node and pushes their ends in child order, so a
        // cycle trips the visited check at the same segment.
        walk.parent.clear();
        walk.parent.resize(n, NO_PARENT);
        walk.visited.clear();
        walk.visited.resize(n, false);
        walk.order.clear();
        walk.stack.clear();
        walk.stack.push((self.source, NO_PARENT));
        while let Some((node, from_seg)) = walk.stack.pop() {
            let run = walk.children.partition_point(|&(p, _)| p < node);
            for &(p, k) in &walk.children[run..] {
                if p != node {
                    break;
                }
                if walk.visited[k] {
                    return Err(LayoutError::DisconnectedNet {
                        net: self.name.clone(),
                    });
                }
                walk.visited[k] = true;
                walk.parent[k] = from_seg;
                walk.order.push(k);
                walk.stack.push((self.segments[k].end, k));
            }
        }
        if walk.order.len() != n {
            return Err(LayoutError::DisconnectedNet {
                net: self.name.clone(),
            });
        }

        // Sinks must be segment endpoints or the source. Every segment was
        // reached from its `start`, and the walk pops only the source and
        // segment ends, so each start is the source or some segment's end:
        // a sink is anchored exactly when it is the source or a segment
        // ends at it. One pass over the segments in index order, each
        // binary-searching the sorted sinks, finds every sink's first
        // such segment; a run of equal sinks is filled once.
        walk.sinks.clear();
        walk.sinks
            .extend(self.sinks.iter().enumerate().map(|(j, &p)| (p, j)));
        walk.sinks.sort_unstable();
        walk.sink_segment.clear();
        walk.sink_segment.resize(self.sinks.len(), None);
        for (i, s) in self.segments.iter().enumerate() {
            let run = walk.sinks.partition_point(|&(p, _)| p < s.end);
            for &(p, j) in &walk.sinks[run..] {
                if p != s.end || walk.sink_segment[j].is_some() {
                    break;
                }
                walk.sink_segment[j] = Some(i);
            }
        }
        for (sink, segment) in self.sinks.iter().zip(&walk.sink_segment) {
            if *sink != self.source && segment.is_none() {
                return Err(LayoutError::DanglingSink {
                    net: self.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Sentinel parent of a segment that hangs directly off the source.
const NO_PARENT: usize = usize::MAX;

/// Reusable arena for [`Net::walk_tree`]: a sorted children index, the
/// parent/visited/order traversal state and the traversal stack, all flat
/// buffers kept across nets.
#[derive(Debug, Default, Clone)]
pub struct TreeWalk {
    /// `(segment.start, segment index)`, sorted: each node's children form
    /// one contiguous run in ascending segment index, the insertion order
    /// of [`NetTopology`]'s per-node lists.
    children: Vec<(Point, usize)>,
    /// Parent segment of each segment ([`NO_PARENT`] at the source).
    parent: Vec<usize>,
    /// Visit flags (a second visit is a cycle).
    visited: Vec<bool>,
    /// Discovery order, parents before children.
    order: Vec<usize>,
    /// DFS stack of `(node, segment arrived through)`.
    stack: Vec<(Point, usize)>,
    /// `(sink, sink index)`, sorted: equal sinks form one run.
    sinks: Vec<(Point, usize)>,
    /// The first segment ending at each sink, in sink order.
    sink_segment: Vec<Option<usize>>,
}

impl TreeWalk {
    /// The segment feeding `segment`'s `start`, or `None` when it starts at
    /// the source. Meaningful after a successful [`Net::walk_tree`].
    pub fn parent(&self, segment: usize) -> Option<usize> {
        Some(self.parent[segment]).filter(|&p| p != NO_PARENT)
    }

    /// The walked net's segments, parents before children.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The lowest-indexed segment whose `end` is the walked net's sink
    /// number `sink` — the first match of a linear `position` over the
    /// segments — or `None` for a sink on the source. Meaningful after a
    /// successful [`Net::walk_tree`].
    pub fn sink_segment(&self, sink: usize) -> Option<usize> {
        self.sink_segment[sink]
    }
}

/// Validated tree topology of a [`Net`], with per-segment structure data.
///
/// Produced by [`Net::topology`]; consumed by the RC annotator which turns
/// path lengths into resistances.
#[derive(Debug, Clone)]
pub struct NetTopology {
    /// For each segment: segments on the source path *before* it (by index),
    /// in source-to-segment order.
    pub upstream: Vec<Vec<SegmentId>>,
    /// For each segment: number of sinks in the subtree at or below its
    /// `end` (the paper's weight `W_l`), plus sinks on the segment interior
    /// are not modeled — sinks sit on endpoints.
    pub downstream_sinks: Vec<u32>,
    /// Depth-first order of segments from the source (parents first).
    pub order: Vec<SegmentId>,
}

impl NetTopology {
    fn build(net: &Net) -> Result<Self, LayoutError> {
        let n = net.segments.len();
        let err = || LayoutError::DisconnectedNet {
            net: net.name.clone(),
        };

        // Map endpoints to segment indices: children hang off a node.
        let mut children_at: HashMap<Point, Vec<usize>> = HashMap::new();
        for (i, s) in net.segments.iter().enumerate() {
            children_at.entry(s.start).or_default().push(i);
        }

        // BFS from the source following start -> end.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut order: Vec<SegmentId> = Vec::with_capacity(n);
        let mut queue: Vec<(Point, Option<usize>)> = vec![(net.source, None)];
        let mut seen_nodes: Vec<Point> = Vec::new();
        while let Some((node, from_seg)) = queue.pop() {
            seen_nodes.push(node);
            if let Some(kids) = children_at.get(&node) {
                for &k in kids {
                    if visited[k] {
                        // A segment reachable twice means a cycle or a
                        // repeated start point fan-in; both violate the
                        // tree property only if reached via different
                        // parents — fan-out from one node is fine, but a
                        // second visit of the same segment is a cycle.
                        return Err(err());
                    }
                    visited[k] = true;
                    parent[k] = from_seg;
                    order.push(SegmentId(k));
                    queue.push((net.segments[k].end, Some(k)));
                }
            }
        }
        if visited.iter().any(|&v| !v) {
            return Err(err());
        }

        // Sinks must be segment endpoints or the source.
        let mut endpoint_nodes: Vec<Point> =
            net.segments.iter().flat_map(|s| [s.start, s.end]).collect();
        endpoint_nodes.push(net.source);
        for sink in &net.sinks {
            if !endpoint_nodes.contains(sink) {
                return Err(LayoutError::DanglingSink {
                    net: net.name.clone(),
                });
            }
        }

        // Downstream sink counts: a sink at point p counts for every
        // segment on the path from the source to p. Count by walking up
        // from the deepest segment whose `end` equals the sink.
        let mut downstream = vec![0u32; n];
        for sink in &net.sinks {
            // Find the segment whose end is this sink; if the sink sits on
            // the source itself there is no downstream segment.
            if let Some(mut cur) = net.segments.iter().position(|s| s.end == *sink) {
                loop {
                    downstream[cur] += 1;
                    match parent[cur] {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
            }
        }

        // Upstream chains.
        let mut upstream: Vec<Vec<SegmentId>> = vec![Vec::new(); n];
        for &SegmentId(i) in &order {
            if let Some(p) = parent[i] {
                let mut chain = upstream[p].clone();
                chain.push(SegmentId(p));
                upstream[i] = chain;
            }
        }

        Ok(Self {
            upstream,
            downstream_sinks: downstream,
            order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerId;

    fn seg(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Segment {
        Segment {
            layer: LayerId(0),
            start: Point::new(x0, y0),
            end: Point::new(x1, y1),
            width: 100,
        }
    }

    fn two_sink_net() -> Net {
        // source --A--> (1000,0) --B--> (2000,0) sink1
        //                   \---C--> (1000,500) sink2   (vertical)
        Net {
            name: "n".into(),
            source: Point::new(0, 0),
            sinks: vec![Point::new(2000, 0), Point::new(1000, 500)],
            segments: vec![
                seg(0, 0, 1000, 0),
                seg(1000, 0, 2000, 0),
                seg(1000, 0, 1000, 500),
            ],
        }
    }

    #[test]
    fn segment_geometry() {
        let s = seg(0, 0, 1000, 0);
        assert_eq!(s.dir(), Dir::Horizontal);
        assert_eq!(s.length(), 1000);
        assert_eq!(s.signal_dir(), SignalDir::Increasing);
        assert_eq!(s.rect(), Rect::new(0, -50, 1000, 50));

        let s = seg(500, 800, 500, 200);
        assert_eq!(s.dir(), Dir::Vertical);
        assert_eq!(s.signal_dir(), SignalDir::Decreasing);
        assert_eq!(s.rect(), Rect::new(450, 200, 550, 800));
    }

    #[test]
    fn reversed_segment_rect_same_as_forward() {
        assert_eq!(seg(1000, 0, 0, 0).rect(), seg(0, 0, 1000, 0).rect());
    }

    #[test]
    fn topology_of_branching_net() {
        let net = two_sink_net();
        let topo = net.topology().expect("valid tree");
        // Trunk A feeds both sinks.
        assert_eq!(topo.downstream_sinks[0], 2);
        assert_eq!(topo.downstream_sinks[1], 1);
        assert_eq!(topo.downstream_sinks[2], 1);
        assert!(topo.upstream[0].is_empty());
        assert_eq!(topo.upstream[1], vec![SegmentId(0)]);
        assert_eq!(topo.upstream[2], vec![SegmentId(0)]);
        assert_eq!(topo.order.len(), 3);
        assert_eq!(topo.order[0], SegmentId(0)); // parent first
    }

    #[test]
    fn wirelength_sums_segments() {
        assert_eq!(two_sink_net().wirelength(), 2500);
    }

    #[test]
    fn disconnected_net_rejected() {
        let mut net = two_sink_net();
        net.segments.push(seg(9000, 9000, 9500, 9000));
        assert!(matches!(
            net.topology(),
            Err(LayoutError::DisconnectedNet { .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        // A segment that loops back onto the source creates a second visit.
        let net = Net {
            name: "cyc".into(),
            source: Point::new(0, 0),
            sinks: vec![],
            segments: vec![seg(0, 0, 1000, 0), seg(1000, 0, 0, 0)],
        };
        // seg1 end coincides with source node; its children (seg0) would be
        // revisited.
        assert!(matches!(
            net.topology(),
            Err(LayoutError::DisconnectedNet { .. })
        ));
    }

    #[test]
    fn dangling_sink_rejected() {
        let mut net = two_sink_net();
        net.sinks.push(Point::new(123, 456));
        assert!(matches!(
            net.topology(),
            Err(LayoutError::DanglingSink { .. })
        ));
    }

    #[test]
    fn sink_at_source_contributes_no_downstream() {
        let mut net = two_sink_net();
        net.sinks = vec![Point::new(0, 0)];
        let topo = net.topology().expect("valid");
        assert!(topo.downstream_sinks.iter().all(|&w| w == 0));
    }
}
