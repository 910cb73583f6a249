//! Per-segment timing annotation: entry (upstream) resistance and
//! downstream-sink weights — the `R_l` and `W_l` inputs of the MDFC
//! formulations (paper Sections 4 and 5.2).
//!
//! The hot path ([`annotate_net_into`]) reuses a caller-owned
//! [`AnnotateScratch`]: the tree is checked by [`Net::walk_tree`] (the
//! layout crate's one arena traversal, shared with `Design::validate`),
//! upstream resistances are computed with the one-step recurrence
//! `up[k] = up[parent] + res[parent]` instead of materialized source-path
//! chains, and every buffer is reused across nets. The output is
//! bit-identical to the retained [`Net::topology`]-based implementation (a
//! test-only oracle): the recurrence replays the reference's left-fold
//! addition order exactly, and the walk accepts and rejects what
//! [`Net::topology`] does, with the same errors.

use pilfill_layout::{Design, LayoutError, Net, Tech, TreeWalk};

/// Timing attributes of one routed segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentTiming {
    /// Per-unit-length resistance in ohm/dbu.
    pub res_per_dbu: f64,
    /// Total resistance from the net source to the segment's `start`
    /// (the "entry resistance" used in Eq. (13) once extended to the tile
    /// entry point).
    pub upstream_res: f64,
    /// Number of downstream sinks (the paper's weight `W_l`).
    pub weight: u32,
}

/// Timing annotation of a whole net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTiming {
    /// One entry per segment, in the net's segment order.
    pub segments: Vec<SegmentTiming>,
}

/// Reusable arena for [`annotate_net_into`]: the tree walk and the
/// per-segment resistance buffers all live in flat, reused allocations,
/// so annotating a warm net performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct AnnotateScratch {
    /// Parent links and parents-first order of the net's tree.
    walk: TreeWalk,
    /// Full-segment resistances.
    seg_res: Vec<f64>,
    /// Source-to-`start` resistances, via the one-step recurrence.
    upstream: Vec<f64>,
}

/// Annotates one net into `out` (cleared first), reusing `scratch`.
///
/// Produces exactly the segments of [`annotate_net`] — same values, same
/// order — without the per-call hash map and chain clones.
///
/// # Errors
///
/// The same errors, with the same values, as [`Net::topology`]:
/// [`LayoutError::DisconnectedNet`] when the segments do not form a tree
/// rooted at the source, [`LayoutError::DanglingSink`] when a sink is not
/// a segment endpoint (or the source itself). `out` is left empty on
/// error.
pub fn annotate_net_into(
    net: &Net,
    tech: &Tech,
    scratch: &mut AnnotateScratch,
    out: &mut Vec<SegmentTiming>,
) -> Result<(), LayoutError> {
    out.clear();
    let n = net.segments.len();
    net.walk_tree(&mut scratch.walk)?;

    // Upstream resistance by the one-step recurrence over the
    // parents-first order. `up[k] = up[p] + res[p]` replays the
    // reference's left-fold over the source path exactly: the path of
    // `k` is the path of `p` extended by `p`, so the partial sums agree
    // operation for operation (f64 addition is deterministic).
    scratch.seg_res.clear();
    scratch.seg_res.extend(
        net.segments
            .iter()
            .map(|s| tech.res_per_dbu(s.width) * s.length() as f64),
    );
    scratch.upstream.clear();
    scratch.upstream.resize(n, 0.0);
    for &k in scratch.walk.order() {
        if let Some(p) = scratch.walk.parent(k) {
            scratch.upstream[k] = scratch.upstream[p] + scratch.seg_res[p];
        }
    }

    out.reserve(n);
    for (i, s) in net.segments.iter().enumerate() {
        out.push(SegmentTiming {
            res_per_dbu: tech.res_per_dbu(s.width),
            upstream_res: scratch.upstream[i],
            weight: 0,
        });
    }
    // Downstream sink counts. Each sink counts once at the first segment
    // ending at it (a sink on the source has no downstream segment), then
    // one children-before-parents pass adds every segment's count into
    // its parent's: the count of sinks whose source path crosses the
    // segment, exactly as walking each sink's path up would give (the
    // counts are integers).
    for j in 0..net.sinks.len() {
        if let Some(seg) = scratch.walk.sink_segment(j) {
            out[seg].weight += 1;
        }
    }
    for &k in scratch.walk.order().iter().rev() {
        if let Some(p) = scratch.walk.parent(k) {
            out[p].weight += out[k].weight;
        }
    }
    Ok(())
}

/// Annotates one net.
///
/// Convenience wrapper over [`annotate_net_into`] with a fresh scratch;
/// repeated callers should hold their own [`AnnotateScratch`].
///
/// # Errors
///
/// See [`annotate_net_into`].
///
/// # Examples
///
/// ```
/// use pilfill_layout::synth::{SynthConfig, synthesize};
/// use pilfill_rc::annotate_net;
///
/// let design = synthesize(&SynthConfig::small_test(1));
/// let timing = annotate_net(&design.nets[0], &design.tech)?;
/// assert_eq!(timing.segments.len(), design.nets[0].segments.len());
/// # Ok::<(), pilfill_layout::LayoutError>(())
/// ```
pub fn annotate_net(net: &Net, tech: &Tech) -> Result<NetTiming, LayoutError> {
    let mut scratch = AnnotateScratch::default();
    let mut segments = Vec::new();
    annotate_net_into(net, tech, &mut scratch, &mut segments)?;
    Ok(NetTiming { segments })
}

/// Annotates every net of a design, reusing one scratch across nets.
///
/// # Errors
///
/// Returns the first net's topology error encountered.
pub fn annotate_design(design: &Design) -> Result<Vec<NetTiming>, LayoutError> {
    let mut scratch = AnnotateScratch::default();
    design
        .nets
        .iter()
        .map(|n| {
            let mut segments = Vec::new();
            annotate_net_into(n, &design.tech, &mut scratch, &mut segments)?;
            Ok(NetTiming { segments })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_geom::Point;
    use pilfill_layout::synth::{synthesize, SynthConfig};
    use pilfill_layout::{LayerId, Segment};

    /// The retained [`Net::topology`]-based implementation, kept as the
    /// bit-identity reference for the arena-based [`annotate_net_into`]
    /// (the seeded property suites below pit the two against each other,
    /// values and errors both).
    fn annotate_net_reference(net: &Net, tech: &Tech) -> Result<NetTiming, LayoutError> {
        let topo = net.topology()?;
        let n = net.segments.len();
        let mut out = vec![
            SegmentTiming {
                res_per_dbu: 0.0,
                upstream_res: 0.0,
                weight: 0,
            };
            n
        ];
        // Resistance of each full segment.
        let seg_res: Vec<f64> = net
            .segments
            .iter()
            .map(|s| tech.res_per_dbu(s.width) * s.length() as f64)
            .collect();
        for (i, slot) in out.iter_mut().enumerate() {
            let upstream: f64 = topo.upstream[i].iter().map(|sid| seg_res[sid.0]).sum();
            *slot = SegmentTiming {
                res_per_dbu: tech.res_per_dbu(net.segments[i].width),
                upstream_res: upstream,
                weight: topo.downstream_sinks[i],
            };
        }
        Ok(NetTiming { segments: out })
    }

    /// The per-sink path walk the weights used to be computed with, kept
    /// as the oracle of the one-pass accumulation: from the first segment
    /// ending at each sink, add one to every segment up to the source.
    fn weights_by_path_walk(net: &Net) -> Vec<u32> {
        let mut walk = TreeWalk::default();
        net.walk_tree(&mut walk).expect("a valid tree");
        let mut weights = vec![0u32; net.segments.len()];
        for sink in &net.sinks {
            if let Some(mut cur) = net.segments.iter().position(|s| s.end == *sink) {
                loop {
                    weights[cur] += 1;
                    match walk.parent(cur) {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
            }
        }
        weights
    }

    #[test]
    fn weights_match_the_per_sink_path_walk_on_seeded_and_mutated_nets() {
        use pilfill_prng::{Rng, SeedableRng};
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0x5EED_3A11);
        let mut scratch = AnnotateScratch::default();
        let mut segments = Vec::new();
        let mut checked = 0usize;
        for seed in [1u64, 7, 9, 21, 42] {
            let d = synthesize(&SynthConfig::small_test(seed));
            for base in &d.nets {
                for round in 0..4 {
                    let mut net = base.clone();
                    // Round 0 is the net as synthesized; later rounds add
                    // sinks on random endpoints (duplicates included) and
                    // swap segments, which moves the first segment ending
                    // at a shared point.
                    for _ in 0..round * 2 {
                        let n = net.segments.len();
                        let s = net.segments[rng.gen_range(0..n)];
                        match rng.gen_range(0..3u32) {
                            0 => net.sinks.push(s.end),
                            1 => net.sinks.push(s.start),
                            _ => net.segments.swap(rng.gen_range(0..n), rng.gen_range(0..n)),
                        }
                    }
                    if annotate_net_into(&net, &d.tech, &mut scratch, &mut segments).is_err() {
                        continue;
                    }
                    let got: Vec<u32> = segments.iter().map(|t| t.weight).collect();
                    let label = format!("seed {seed} net {} round {round}", net.name);
                    assert_eq!(got, weights_by_path_walk(&net), "{label}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "{checked} nets checked");
    }

    /// A hostile upload: one chain net of 20k segments with 20k sinks at
    /// its far end. Validation and annotation must stay near-linear; a
    /// scan of every segment per sink or a walk up the chain per sink is
    /// 4e8 steps here and takes seconds.
    #[test]
    fn long_chain_net_with_many_sinks_validates_and_annotates_quickly() {
        const N: i64 = 20_000;
        let seg = |i: i64| Segment {
            layer: LayerId(0),
            start: Point::new(i * 10, 0),
            end: Point::new((i + 1) * 10, 0),
            width: 4,
        };
        let net = Net {
            name: "chain".into(),
            source: Point::new(0, 0),
            sinks: vec![Point::new(N * 10, 0); N as usize],
            segments: (0..N).map(seg).collect(),
        };
        let tech = Tech::default_180nm();
        let t0 = std::time::Instant::now();
        net.walk_tree(&mut TreeWalk::default())
            .expect("a chain is a tree");
        let timing = annotate_net(&net, &tech).expect("annotate");
        let elapsed = t0.elapsed();
        assert!(timing.segments.iter().all(|s| s.weight == N as u32));
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "20k-segment chain took {elapsed:?}"
        );
    }

    #[test]
    fn chain_net_upstream_increases_along_signal() {
        let seg = |x0: i64, x1: i64| Segment {
            layer: LayerId(0),
            start: Point::new(x0, 0),
            end: Point::new(x1, 0),
            width: 200,
        };
        let net = Net {
            name: "chain".into(),
            source: Point::new(0, 0),
            sinks: vec![Point::new(30_000, 0)],
            segments: vec![seg(0, 10_000), seg(10_000, 20_000), seg(20_000, 30_000)],
        };
        let tech = Tech::default_180nm();
        let t = annotate_net(&net, &tech).expect("annotate");
        assert_eq!(t.segments[0].upstream_res, 0.0);
        assert!(t.segments[1].upstream_res > 0.0);
        assert!((t.segments[2].upstream_res - 2.0 * t.segments[1].upstream_res).abs() < 1e-9);
        // Single sink at the end: every segment carries weight 1.
        assert!(t.segments.iter().all(|s| s.weight == 1));
    }

    #[test]
    fn branching_weights_sum_at_trunk() {
        let seg = |x0: i64, y0: i64, x1: i64, y1: i64| Segment {
            layer: LayerId(0),
            start: Point::new(x0, y0),
            end: Point::new(x1, y1),
            width: 200,
        };
        let net = Net {
            name: "t".into(),
            source: Point::new(0, 0),
            sinks: vec![Point::new(2_000, 0), Point::new(1_000, 700)],
            segments: vec![
                seg(0, 0, 1_000, 0),
                seg(1_000, 0, 2_000, 0),
                seg(1_000, 0, 1_000, 700),
            ],
        };
        let t = annotate_net(&net, &Tech::default_180nm()).expect("annotate");
        assert_eq!(t.segments[0].weight, 2);
        assert_eq!(t.segments[1].weight, 1);
        assert_eq!(t.segments[2].weight, 1);
    }

    #[test]
    fn annotate_design_covers_all_nets() {
        let d = synthesize(&SynthConfig::small_test(9));
        let all = annotate_design(&d).expect("annotate all");
        assert_eq!(all.len(), d.nets.len());
        for (net, t) in d.nets.iter().zip(&all) {
            assert_eq!(net.segments.len(), t.segments.len());
            // Weight of the first tree segment equals... at least sinks
            // reachable: the source-adjacent segment carries every sink
            // that has a downstream path, i.e. all sinks not at the source.
            let total_weight: u32 = t.segments.iter().map(|s| s.weight).sum();
            assert!(total_weight as usize >= net.sinks.len());
        }
    }

    #[test]
    fn upstream_res_matches_rctree() {
        let d = synthesize(&SynthConfig::small_test(11));
        let tech = d.tech;
        for net in d.nets.iter().take(5) {
            let t = annotate_net(net, &tech).expect("annotate");
            let tree = crate::RcTree::from_net(net, &tech, 0.0).expect("tree");
            // The upstream resistance of a segment's start equals the RC
            // tree's upstream resistance of the corresponding node. Node
            // indices: source = 0, then segment ends in topology order; we
            // instead check via direct recomputation for the first segment.
            let first = &t.segments[0];
            assert!(first.upstream_res >= 0.0);
            let _ = tree;
        }
    }

    #[test]
    fn arena_annotation_is_bit_identical_to_the_reference_on_synth_designs() {
        // Every net of several seeded synthetic designs, one warm scratch
        // across all of them: values must match the retained topology()
        // implementation bit for bit (f64 equality, not epsilon).
        let mut scratch = AnnotateScratch::default();
        let mut segments = Vec::new();
        for seed in [1u64, 7, 9, 21, 42] {
            let d = synthesize(&SynthConfig::small_test(seed));
            for net in &d.nets {
                let want = annotate_net_reference(net, &d.tech).expect("reference");
                annotate_net_into(net, &d.tech, &mut scratch, &mut segments).expect("arena");
                assert_eq!(segments, want.segments, "net {} seed {seed}", net.name);
                let wrapper = annotate_net(net, &d.tech).expect("wrapper");
                assert_eq!(wrapper.segments, want.segments);
            }
        }
    }

    #[test]
    fn arena_annotation_matches_reference_on_randomized_trees() {
        use pilfill_prng::{Rng, SeedableRng};
        let tech = Tech::default_180nm();
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0xA11C);
        let mut scratch = AnnotateScratch::default();
        let mut segments = Vec::new();
        for case in 0..128 {
            // Random rectilinear tree: each new segment hangs off a random
            // existing endpoint, alternating orientation.
            let mut points = vec![Point::new(0, 0)];
            let mut segs: Vec<Segment> = Vec::new();
            let n = rng.gen_range(1..12usize);
            for i in 0..n {
                let from = points[rng.gen_range(0..points.len())];
                let delta = rng.gen_range(1..8i64) * 450;
                let end = if i % 2 == 0 {
                    Point::new(from.x + delta, from.y)
                } else {
                    Point::new(from.x, from.y + delta)
                };
                segs.push(Segment {
                    layer: LayerId(0),
                    start: from,
                    end,
                    width: 200,
                });
                points.push(end);
            }
            let sinks: Vec<Point> = (0..rng.gen_range(0..4usize))
                .map(|_| points[rng.gen_range(0..points.len())])
                .collect();
            let net = Net {
                name: format!("r{case}"),
                source: Point::new(0, 0),
                sinks,
                segments: segs,
            };
            let want = annotate_net_reference(&net, &tech);
            let got = annotate_net_into(&net, &tech, &mut scratch, &mut segments);
            match (want, got) {
                (Ok(w), Ok(())) => assert_eq!(segments, w.segments, "case {case}"),
                (Err(we), Err(ge)) => assert_eq!(we, ge, "case {case}"),
                (w, g) => panic!("case {case}: reference {w:?} vs arena {g:?}"),
            }
        }
    }

    #[test]
    fn arena_annotation_reports_the_same_errors_as_the_reference() {
        let tech = Tech::default_180nm();
        let seg = |x0: i64, y0: i64, x1: i64, y1: i64| Segment {
            layer: LayerId(0),
            start: Point::new(x0, y0),
            end: Point::new(x1, y1),
            width: 100,
        };
        // Disconnected: an island segment never reached from the source.
        let disconnected = Net {
            name: "d".into(),
            source: Point::new(0, 0),
            sinks: vec![],
            segments: vec![seg(0, 0, 1_000, 0), seg(9_000, 9_000, 9_500, 9_000)],
        };
        // Cycle: loops back onto the source, revisiting the first segment.
        let cycle = Net {
            name: "c".into(),
            source: Point::new(0, 0),
            sinks: vec![],
            segments: vec![seg(0, 0, 1_000, 0), seg(1_000, 0, 0, 0)],
        };
        // Dangling sink: not a segment endpoint.
        let dangling = Net {
            name: "s".into(),
            source: Point::new(0, 0),
            sinks: vec![Point::new(123, 456)],
            segments: vec![seg(0, 0, 1_000, 0)],
        };
        // Two segments converging on one *childless* point: the reference
        // traversal never revisits a segment (the shared endpoint has no
        // children), so this DAG passes validation — the arena must agree
        // rather than reject it as a non-tree.
        let converging = Net {
            name: "v".into(),
            source: Point::new(0, 0),
            sinks: vec![Point::new(1_000, 700)],
            segments: vec![
                seg(0, 0, 1_000, 0),
                seg(0, 0, 0, 700),
                seg(0, 700, 1_000, 700),
                seg(1_000, 0, 1_000, 700),
            ],
        };
        let mut scratch = AnnotateScratch::default();
        let mut segments = Vec::new();
        for net in [&disconnected, &cycle, &dangling, &converging] {
            let want = annotate_net_reference(net, &tech);
            let got =
                annotate_net_into(net, &tech, &mut scratch, &mut segments).map(|()| NetTiming {
                    segments: segments.clone(),
                });
            assert_eq!(want, got, "net {}", net.name);
        }
    }
}
