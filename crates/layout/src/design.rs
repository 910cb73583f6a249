use crate::{LayoutError, Net, TreeWalk};
use pilfill_geom::{Coord, Dir, Rect};

/// Index of a layer in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LayerId(pub usize);

/// A routing layer with a preferred direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Layer name (unique in a design), e.g. `m3`.
    pub name: String,
    /// Preferred routing direction; fill synthesis treats wrong-direction
    /// segments as excluded obstructions (the paper ignores wrong-direction
    /// routing, Sec. 5.2).
    pub dir: Dir,
}

/// Electrical technology parameters shared by all layers.
///
/// Units: geometry in database units (1 dbu = 1 nm), resistance in ohms,
/// capacitance in farads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech {
    /// Sheet resistance of the routing metal in ohms/square.
    pub sheet_res_ohm_sq: f64,
    /// Relative permittivity of the inter-metal dielectric.
    pub eps_r: f64,
    /// Metal thickness in dbu; the overlap area per unit length `a` of the
    /// paper's Eq. (3) equals this thickness for coplanar coupling.
    pub thickness: Coord,
}

impl Tech {
    /// 180 nm-generation aluminum defaults (matching the paper's era).
    pub fn default_180nm() -> Self {
        Self {
            sheet_res_ohm_sq: 0.07,
            eps_r: 3.9,
            thickness: 500,
        }
    }

    /// Per-unit-length resistance in ohm/dbu of a wire `width` dbu wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive.
    pub fn res_per_dbu(&self, width: Coord) -> f64 {
        assert!(width > 0, "wire width must be positive");
        self.sheet_res_ohm_sq / width as f64
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] on non-positive values.
    pub fn validate(&self) -> Result<(), LayoutError> {
        if self.sheet_res_ohm_sq <= 0.0 || !self.sheet_res_ohm_sq.is_finite() {
            return Err(LayoutError::InvalidParameter(format!(
                "sheet resistance must be positive (got {})",
                self.sheet_res_ohm_sq
            )));
        }
        if self.eps_r < 1.0 || !self.eps_r.is_finite() {
            return Err(LayoutError::InvalidParameter(format!(
                "relative permittivity must be >= 1 (got {})",
                self.eps_r
            )));
        }
        if self.thickness <= 0 {
            return Err(LayoutError::InvalidParameter(format!(
                "metal thickness must be positive (got {})",
                self.thickness
            )));
        }
        Ok(())
    }
}

impl Default for Tech {
    fn default() -> Self {
        Self::default_180nm()
    }
}

/// Design rules for floating square fill features (the paper's `w`, `s`
/// pattern parameters and buffer distance `buf`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillRules {
    /// Side length of a square fill feature (the paper's `w`).
    pub feature_size: Coord,
    /// Minimum gap between adjacent fill features (the paper's `s`).
    pub gap: Coord,
    /// Minimum spacing from fill to any interconnect (the paper's `buf`).
    pub buffer: Coord,
}

impl FillRules {
    /// Site pitch: one fill feature plus its gap.
    pub fn site_pitch(&self) -> Coord {
        self.feature_size + self.gap
    }

    /// Area of one fill feature.
    pub fn feature_area(&self) -> i64 {
        self.feature_size * self.feature_size
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] on non-positive feature
    /// size or negative gap/buffer.
    pub fn validate(&self) -> Result<(), LayoutError> {
        if self.feature_size <= 0 {
            return Err(LayoutError::InvalidParameter(format!(
                "fill feature size must be positive (got {})",
                self.feature_size
            )));
        }
        if self.gap < 0 || self.buffer < 0 {
            return Err(LayoutError::InvalidParameter(
                "fill gap and buffer must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

impl Default for FillRules {
    fn default() -> Self {
        // Sized so one feature fits between routing tracks separated by a
        // single empty track at the default wire pitch (560 dbu).
        Self {
            feature_size: 300,
            gap: 150,
            buffer: 150,
        }
    }
}

/// A placement/routing blockage (e.g. a hard macro): fill must keep the
/// buffer distance from it, and its area counts toward layout density,
/// but it carries no switching signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obstruction {
    /// Layer the blockage occupies.
    pub layer: LayerId,
    /// Blocked rectangle.
    pub rect: Rect,
}

/// A routed design: die area, technology, rules, layers, nets and
/// blockages.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// Die (placement/routing) area.
    pub die: Rect,
    /// Technology parameters.
    pub tech: Tech,
    /// Fill design rules.
    pub rules: FillRules,
    /// Routing layers.
    pub layers: Vec<Layer>,
    /// Routed nets.
    pub nets: Vec<Net>,
    /// Placement blockages (macros etc.).
    pub obstructions: Vec<Obstruction>,
}

impl Design {
    /// Looks up a layer by name.
    pub fn layer_by_name(&self, name: &str) -> Option<LayerId> {
        self.layers.iter().position(|l| l.name == name).map(LayerId)
    }

    /// Iterates all segments on `layer` across all nets, with their net
    /// index.
    pub fn segments_on_layer(
        &self,
        layer: LayerId,
    ) -> impl Iterator<Item = (crate::NetId, crate::SegmentId, &crate::Segment)> + '_ {
        self.nets.iter().enumerate().flat_map(move |(ni, net)| {
            net.segments
                .iter()
                .enumerate()
                .filter(move |(_, s)| s.layer == layer)
                .map(move |(si, s)| (crate::NetId(ni), crate::SegmentId(si), s))
        })
    }

    /// Total drawn metal area on `layer`, including obstructions.
    pub fn metal_area_on_layer(&self, layer: LayerId) -> i64 {
        let wires: i64 = self
            .segments_on_layer(layer)
            .map(|(_, _, s)| s.rect().area())
            .sum();
        let obs: i64 = self
            .obstructions_on_layer(layer)
            .map(|o| o.rect.area())
            .sum();
        wires + obs
    }

    /// Iterates the obstructions on `layer`.
    pub fn obstructions_on_layer(&self, layer: LayerId) -> impl Iterator<Item = &Obstruction> + '_ {
        self.obstructions.iter().filter(move |o| o.layer == layer)
    }

    /// The design reflected about the diagonal: die, pins and segments
    /// have x/y swapped and every layer's preferred direction flips.
    ///
    /// Transposition lets algorithms written for horizontally routed
    /// layers run on vertical ones: transpose, process, transpose results
    /// back. It is an involution: `d.transposed().transposed() == d`.
    #[must_use]
    pub fn transposed(&self) -> Design {
        Design {
            name: self.name.clone(),
            die: self.die.transposed(),
            tech: self.tech,
            rules: self.rules,
            layers: self
                .layers
                .iter()
                .map(|l| Layer {
                    name: l.name.clone(),
                    dir: l.dir.perpendicular(),
                })
                .collect(),
            nets: self
                .nets
                .iter()
                .map(|n| crate::Net {
                    name: n.name.clone(),
                    source: n.source.transposed(),
                    sinks: n.sinks.iter().map(|s| s.transposed()).collect(),
                    segments: n
                        .segments
                        .iter()
                        .map(|s| crate::Segment {
                            layer: s.layer,
                            start: s.start.transposed(),
                            end: s.end.transposed(),
                            width: s.width,
                        })
                        .collect(),
                })
                .collect(),
            obstructions: self
                .obstructions
                .iter()
                .map(|o| Obstruction {
                    layer: o.layer,
                    rect: o.rect.transposed(),
                })
                .collect(),
        }
    }

    /// Checks the whole design: parameters, layer references, segment
    /// geometry, die containment and net topologies.
    ///
    /// A die whose width or height overflows `i64` is
    /// [`LayoutError::InvalidParameter`]. Segment rectangles are computed
    /// with checked arithmetic, so a segment whose drawn edge overflows
    /// `i64` is [`LayoutError::OutsideDie`].
    /// All nets share one [`TreeWalk`].
    ///
    /// # Errors
    ///
    /// Returns the first [`LayoutError`] found.
    pub fn validate(&self) -> Result<(), LayoutError> {
        self.tech.validate()?;
        self.rules.validate()?;
        if self.die.is_empty() {
            return Err(LayoutError::InvalidParameter("die area is empty".into()));
        }
        let die = self.die;
        if die.right.checked_sub(die.left).is_none() || die.top.checked_sub(die.bottom).is_none() {
            return Err(LayoutError::InvalidParameter(
                "die width or height overflows i64".into(),
            ));
        }
        for o in &self.obstructions {
            if o.layer.0 >= self.layers.len() {
                return Err(LayoutError::UnknownLayer(format!("#{}", o.layer.0)));
            }
            if o.rect.is_empty() || !self.die.contains_rect(&o.rect) {
                return Err(LayoutError::OutsideDie {
                    net: "<obstruction>".into(),
                });
            }
        }
        let mut walk = TreeWalk::default();
        for net in &self.nets {
            for s in &net.segments {
                if s.layer.0 >= self.layers.len() {
                    return Err(LayoutError::UnknownLayer(format!("#{}", s.layer.0)));
                }
                if s.start.x != s.end.x && s.start.y != s.end.y {
                    return Err(LayoutError::DiagonalSegment {
                        net: net.name.clone(),
                    });
                }
                if s.start == s.end || s.width <= 0 {
                    return Err(LayoutError::DegenerateSegment {
                        net: net.name.clone(),
                    });
                }
                let inside = s.checked_rect().is_some_and(|r| self.die.contains_rect(&r));
                if !inside {
                    return Err(LayoutError::OutsideDie {
                        net: net.name.clone(),
                    });
                }
            }
            net.walk_tree(&mut walk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Net, Segment};
    use pilfill_geom::Point;

    fn minimal_design() -> Design {
        Design {
            name: "t".into(),
            die: Rect::new(0, 0, 10_000, 10_000),
            tech: Tech::default(),
            rules: FillRules::default(),
            layers: vec![Layer {
                name: "m3".into(),
                dir: Dir::Horizontal,
            }],
            nets: vec![Net {
                name: "n0".into(),
                source: Point::new(1000, 5000),
                sinks: vec![Point::new(9000, 5000)],
                segments: vec![Segment {
                    layer: LayerId(0),
                    start: Point::new(1000, 5000),
                    end: Point::new(9000, 5000),
                    width: 200,
                }],
            }],
            obstructions: vec![],
        }
    }

    #[test]
    fn valid_design_passes() {
        assert_eq!(minimal_design().validate(), Ok(()));
    }

    #[test]
    fn res_per_dbu_scales_inversely_with_width() {
        let t = Tech::default_180nm();
        assert!((t.res_per_dbu(200) - 2.0 * t.res_per_dbu(400)).abs() < 1e-12);
    }

    #[test]
    fn tech_validation_rejects_bad_values() {
        let t = Tech {
            sheet_res_ohm_sq: 0.0,
            ..Tech::default()
        };
        assert!(t.validate().is_err());
        let t = Tech {
            eps_r: 0.5,
            ..Tech::default()
        };
        assert!(t.validate().is_err());
        let t = Tech {
            thickness: 0,
            ..Tech::default()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn rules_site_pitch_and_area() {
        let r = FillRules {
            feature_size: 400,
            gap: 200,
            buffer: 300,
        };
        assert_eq!(r.site_pitch(), 600);
        assert_eq!(r.feature_area(), 160_000);
        assert!(r.validate().is_ok());
        assert!(FillRules {
            feature_size: 0,
            ..r
        }
        .validate()
        .is_err());
    }

    #[test]
    fn design_rejects_segment_outside_die() {
        let mut d = minimal_design();
        d.nets[0].segments[0].end.x = 11_000;
        d.nets[0].sinks[0].x = 11_000;
        assert!(matches!(d.validate(), Err(LayoutError::OutsideDie { .. })));
    }

    #[test]
    fn design_rejects_diagonal_segment() {
        let mut d = minimal_design();
        d.nets[0].segments[0].end = Point::new(9000, 6000);
        assert!(matches!(
            d.validate(),
            Err(LayoutError::DiagonalSegment { .. })
        ));
    }

    #[test]
    fn design_rejects_unknown_layer() {
        let mut d = minimal_design();
        d.nets[0].segments[0].layer = LayerId(5);
        assert!(matches!(d.validate(), Err(LayoutError::UnknownLayer(_))));
    }

    #[test]
    fn layer_lookup_and_metal_area() {
        let d = minimal_design();
        let m3 = d.layer_by_name("m3").expect("m3 exists");
        assert_eq!(m3, LayerId(0));
        assert!(d.layer_by_name("m9").is_none());
        assert_eq!(d.metal_area_on_layer(m3), 8000 * 200);
        assert_eq!(d.segments_on_layer(m3).count(), 1);
    }
}
