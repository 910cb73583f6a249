//! GDSII reader: parses the record subset written by [`crate::write_gds`]
//! back into rectangles.

use crate::decode_real8;
use crate::records::{next_record, GdsError, RecordType};
use pilfill_geom::{Point, Rect};

/// One boundary element read from a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsBoundary {
    /// GDSII layer number.
    pub layer: i16,
    /// GDSII datatype number.
    pub datatype: i16,
    /// Polygon vertices (closing vertex removed).
    pub points: Vec<Point>,
}

impl GdsBoundary {
    /// The bounding rectangle; for the axis-aligned rectangles this crate
    /// writes, this is the exact geometry.
    pub fn bbox(&self) -> Rect {
        let mut r = Rect::empty();
        for (i, p) in self.points.iter().enumerate() {
            if i == 0 {
                r = Rect::new(p.x, p.y, p.x, p.y);
            } else {
                r.left = r.left.min(p.x);
                r.bottom = r.bottom.min(p.y);
                r.right = r.right.max(p.x);
                r.top = r.top.max(p.y);
            }
        }
        r
    }

    /// `true` if the vertices trace an axis-aligned rectangle.
    pub fn is_rect(&self) -> bool {
        if self.points.len() != 4 {
            return false;
        }
        let b = self.bbox();
        self.points
            .iter()
            .all(|p| (p.x == b.left || p.x == b.right) && (p.y == b.bottom || p.y == b.top))
    }
}

/// A parsed GDSII library (single-structure subset).
#[derive(Debug, Clone, PartialEq)]
pub struct GdsLibrary {
    /// Library name.
    pub name: String,
    /// Structure name.
    pub structure: String,
    /// Meters per database unit.
    pub meters_per_dbu: f64,
    /// All boundary elements.
    pub boundaries: Vec<GdsBoundary>,
}

impl GdsLibrary {
    /// Boundaries with the given datatype (e.g. fill vs drawn).
    pub fn boundaries_with_datatype(&self, datatype: i16) -> Vec<&GdsBoundary> {
        self.boundaries
            .iter()
            .filter(|b| b.datatype == datatype)
            .collect()
    }

    /// Extracts the fill features (datatype [`crate::FILL_DATATYPE`])
    /// back as [`pilfill_core::FillFeature`]s — the inverse of
    /// [`crate::write_gds`] for the fill half of the stream.
    ///
    /// Non-rectangular boundaries on the fill datatype are skipped.
    pub fn fill_features(&self) -> Vec<pilfill_core::FillFeature> {
        self.boundaries_with_datatype(crate::FILL_DATATYPE)
            .into_iter()
            .filter(|b| b.is_rect())
            .map(|b| {
                let r = b.bbox();
                pilfill_core::FillFeature {
                    x: r.left,
                    y: r.bottom,
                }
            })
            .collect()
    }
}

/// Parses a GDSII stream produced by [`crate::write_gds`] (or any stream
/// restricted to the same record subset with one structure).
///
/// # Errors
///
/// Any [`GdsError`] for truncated, out-of-order or unsupported records.
pub fn read_gds(bytes: &[u8]) -> Result<GdsLibrary, GdsError> {
    let mut cursor = bytes;
    let mut name = String::new();
    let mut structure = String::new();
    let mut meters_per_dbu = 1e-9;
    let mut boundaries = Vec::new();

    #[derive(PartialEq)]
    enum State {
        TopLevel,
        InStructure,
        InBoundary,
    }
    let mut state = State::TopLevel;
    let mut cur_layer: i16 = 0;
    let mut cur_datatype: i16 = 0;
    let mut cur_points: Vec<Point> = Vec::new();
    let mut ended = false;

    while let Some(rec) = next_record(&mut cursor)? {
        match rec.rtype {
            RecordType::Header | RecordType::BgnLib | RecordType::BgnStr => {}
            RecordType::LibName => {
                name = ascii_payload(&rec.payload);
            }
            RecordType::StrName => {
                structure = ascii_payload(&rec.payload);
                state = State::InStructure;
            }
            RecordType::Units => {
                if rec.payload.len() != 16 {
                    return Err(GdsError::Structure("UNITS payload must be 16 bytes"));
                }
                let mut mp = [0u8; 8];
                mp.copy_from_slice(&rec.payload[8..16]);
                meters_per_dbu = decode_real8(mp);
            }
            RecordType::Boundary => {
                if state != State::InStructure {
                    return Err(GdsError::Structure("BOUNDARY outside structure"));
                }
                state = State::InBoundary;
                cur_layer = 0;
                cur_datatype = 0;
                cur_points.clear();
            }
            RecordType::Layer => {
                if state != State::InBoundary {
                    return Err(GdsError::Structure("LAYER outside element"));
                }
                cur_layer = i16_payload(&rec.payload)?;
            }
            RecordType::Datatype => {
                if state != State::InBoundary {
                    return Err(GdsError::Structure("DATATYPE outside element"));
                }
                cur_datatype = i16_payload(&rec.payload)?;
            }
            RecordType::Xy => {
                if state != State::InBoundary {
                    return Err(GdsError::Structure("XY outside element"));
                }
                if rec.payload.len() % 8 != 0 {
                    return Err(GdsError::Structure("XY payload not 8-byte aligned"));
                }
                cur_points = rec
                    .payload
                    .chunks_exact(8)
                    .map(|c| {
                        let x = i32::from_be_bytes([c[0], c[1], c[2], c[3]]);
                        let y = i32::from_be_bytes([c[4], c[5], c[6], c[7]]);
                        Point::new(x as i64, y as i64)
                    })
                    .collect();
                // Drop the closing vertex if present.
                if cur_points.len() >= 2 && cur_points.first() == cur_points.last() {
                    cur_points.pop();
                }
            }
            RecordType::EndEl => {
                if state != State::InBoundary {
                    return Err(GdsError::Structure("ENDEL outside element"));
                }
                boundaries.push(GdsBoundary {
                    layer: cur_layer,
                    datatype: cur_datatype,
                    points: std::mem::take(&mut cur_points),
                });
                state = State::InStructure;
            }
            RecordType::EndStr => {
                if state != State::InStructure {
                    return Err(GdsError::Structure("ENDSTR outside structure"));
                }
                state = State::TopLevel;
            }
            RecordType::EndLib => {
                ended = true;
                break;
            }
        }
    }
    if !ended {
        return Err(GdsError::MissingEndLib);
    }
    Ok(GdsLibrary {
        name,
        structure,
        meters_per_dbu,
        boundaries,
    })
}

fn ascii_payload(payload: &[u8]) -> String {
    let end = payload
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(payload.len());
    String::from_utf8_lossy(&payload[..end]).into_owned()
}

fn i16_payload(payload: &[u8]) -> Result<i16, GdsError> {
    if payload.len() < 2 {
        return Err(GdsError::Structure("short INT16 payload"));
    }
    Ok(i16::from_be_bytes([payload[0], payload[1]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_gds, FILL_DATATYPE};
    use pilfill_core::FillFeature;
    use pilfill_layout::synth::{synthesize, SynthConfig};
    use pilfill_layout::LayerId;

    #[test]
    fn round_trip_counts_and_geometry() {
        let d = synthesize(&SynthConfig::small_test(8));
        let fill = vec![
            FillFeature { x: 1_000, y: 1_000 },
            FillFeature { x: 2_000, y: 2_000 },
        ];
        let bytes = write_gds(&d, &fill);
        let lib = read_gds(&bytes).expect("read back");
        assert_eq!(lib.name, d.name);
        assert_eq!(lib.structure, "TOP");
        assert!((lib.meters_per_dbu - 1e-9).abs() < 1e-21);
        let total_segs: usize = d.nets.iter().map(|n| n.segments.len()).sum();
        assert_eq!(lib.boundaries.len(), total_segs + fill.len());

        // Fill features carry the fill datatype and exact geometry.
        let fills = lib.boundaries_with_datatype(FILL_DATATYPE);
        assert_eq!(fills.len(), 2);
        let size = d.rules.feature_size;
        assert_eq!(fills[0].bbox(), fill[0].rect(size));
        assert!(fills[0].is_rect());

        // Drawn metal on layer 0 matches the design's m3 rects.
        let drawn: Vec<_> = lib
            .boundaries
            .iter()
            .filter(|b| b.datatype == 0 && b.layer == 0)
            .collect();
        assert_eq!(drawn.len(), d.segments_on_layer(LayerId(0)).count());
    }

    #[test]
    fn fill_features_round_trip() {
        let d = synthesize(&SynthConfig::small_test(8));
        let fill = vec![
            FillFeature { x: 1_000, y: 1_000 },
            FillFeature { x: 2_000, y: 2_000 },
            FillFeature { x: 3_500, y: 700 },
        ];
        let lib = read_gds(&write_gds(&d, &fill)).expect("read back");
        assert_eq!(lib.fill_features(), fill);
    }

    #[test]
    fn every_segment_obstruction_and_fill_reads_back_in_order() {
        let d = synthesize(&SynthConfig {
            num_macros: 2,
            ..SynthConfig::small_test(6)
        });
        assert!(!d.obstructions.is_empty());
        let fill: Vec<FillFeature> = (0..25)
            .map(|i| FillFeature {
                x: 1_000 + 450 * i,
                y: 2_000 + 450 * (i % 3),
            })
            .collect();
        let layer = |l: LayerId| i16::try_from(l.0).expect("small layer index");
        let mut want: Vec<(i16, i16, pilfill_geom::Rect)> = Vec::new();
        for net in &d.nets {
            want.extend(net.segments.iter().map(|s| (layer(s.layer), 0, s.rect())));
        }
        want.extend(d.obstructions.iter().map(|o| (layer(o.layer), 0, o.rect)));
        let size = d.rules.feature_size;
        want.extend(fill.iter().map(|f| (0, FILL_DATATYPE, f.rect(size))));

        let lib = read_gds(&write_gds(&d, &fill)).expect("read back");
        let got: Vec<(i16, i16, pilfill_geom::Rect)> = lib
            .boundaries
            .iter()
            .map(|b| {
                assert!(b.is_rect());
                (b.layer, b.datatype, b.bbox())
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(lib.fill_features(), fill);
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let d = synthesize(&SynthConfig::small_test(8));
        let bytes = write_gds(&d, &[]);
        let truncated = &bytes[..bytes.len() - 4];
        assert!(read_gds(truncated).is_err());
    }

    #[test]
    fn missing_endlib_detected() {
        let d = synthesize(&SynthConfig::small_test(8));
        let mut bytes = write_gds(&d, &[]);
        bytes.truncate(bytes.len() - 4); // drop the ENDLIB record
        assert_eq!(read_gds(&bytes), Err(GdsError::MissingEndLib));
    }

    #[test]
    fn xy_outside_element_rejected() {
        // Handcrafted: HEADER then XY.
        let bytes = [
            0x00, 0x06, 0x00, 0x02, 0x02, 0x58, // HEADER 600
            0x00, 0x0C, 0x10, 0x03, 0, 0, 0, 1, 0, 0, 0, 2, // XY one point
        ];
        assert!(matches!(read_gds(&bytes), Err(GdsError::Structure(_))));
    }
}
