//! GDSII writer: serializes a design's drawn metal and its fill features.
//!
//! The output is sized once: [`write_gds`] reserves its exact length up
//! front (64 bytes per boundary element plus the library frame), so
//! writing allocates one buffer and never grows it. Each boundary element
//! is framed in a stack buffer and appended with one copy.

use crate::encode_real8;
use crate::records::{put_record, record_header, DataType, RecordType};
use pilfill_core::FillFeature;
use pilfill_geom::Rect;
use pilfill_layout::Design;

/// Datatype used for fill features (drawn metal uses datatype 0).
pub const FILL_DATATYPE: i16 = 1;

/// Bytes of one boundary element: `BOUNDARY` (4), `LAYER` (6), `DATATYPE`
/// (6), a five-point `XY` (4 + 40) and `ENDEL` (4).
const BOUNDARY_BYTES: usize = 64;

/// Bytes of the library frame around the boundaries, less the library
/// name's payload: `HEADER` (6), `BGNLIB` (28), the `LIBNAME` header (4),
/// `UNITS` (20), `BGNSTR` (28), `STRNAME` (8), `ENDSTR` (4), `ENDLIB` (4).
const FRAME_BYTES: usize = 102;

/// The even-padded length of an ASCII payload.
fn ascii_len(s: &str) -> usize {
    s.len() + s.len() % 2
}

fn put_i16(out: &mut Vec<u8>, rt: RecordType, values: &[i16]) {
    out.extend_from_slice(&record_header(rt, DataType::Int16, 2 * values.len()));
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

fn put_ascii(out: &mut Vec<u8>, rt: RecordType, s: &str) {
    out.extend_from_slice(&record_header(rt, DataType::Ascii, ascii_len(s)));
    out.extend_from_slice(s.as_bytes());
    if !s.len().is_multiple_of(2) {
        out.push(0);
    }
}

/// Narrows a die coordinate to the 32-bit range GDSII XY records mandate.
///
/// Dies handled here are far below the ±2.1 m (at 1 nm dbu) the format can
/// express; debug builds assert, release builds saturate.
fn gds_coord(c: i64) -> i32 {
    debug_assert!(
        i64::from(i32::MIN) <= c && c <= i64::from(i32::MAX),
        "coordinate {c} exceeds the GDSII 32-bit range"
    );
    c.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32 // pilfill: allow(as-cast)
}

/// Appends one boundary element. Its five records are framed in a stack
/// buffer and appended with one copy.
fn put_boundary(out: &mut Vec<u8>, layer: i16, datatype: i16, rect: Rect) {
    let mut element = [0u8; BOUNDARY_BYTES];
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        element[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&record_header(RecordType::Boundary, DataType::NoData, 0));
    put(&record_header(RecordType::Layer, DataType::Int16, 2));
    put(&layer.to_be_bytes());
    put(&record_header(RecordType::Datatype, DataType::Int16, 2));
    put(&datatype.to_be_bytes());
    // Closed 5-point rectangle, counter-clockwise.
    let pts: [(i64, i64); 5] = [
        (rect.left, rect.bottom),
        (rect.right, rect.bottom),
        (rect.right, rect.top),
        (rect.left, rect.top),
        (rect.left, rect.bottom),
    ];
    put(&record_header(
        RecordType::Xy,
        DataType::Int32,
        8 * pts.len(),
    ));
    for (x, y) in pts {
        put(&gds_coord(x).to_be_bytes());
        put(&gds_coord(y).to_be_bytes());
    }
    put(&record_header(RecordType::EndEl, DataType::NoData, 0));
    debug_assert_eq!(at, BOUNDARY_BYTES, "boundary element size");
    out.extend_from_slice(&element);
}

/// Serializes `design` plus `fill` into a single-structure GDSII library.
///
/// Wire segments are written on their layer index with datatype 0; fill
/// features on the first layer (index 0) with datatype [`FILL_DATATYPE`].
/// Units are 1 dbu = 1 nm.
pub fn write_gds(design: &Design, fill: &[FillFeature]) -> Vec<u8> {
    let boundaries = design.nets.iter().map(|n| n.segments.len()).sum::<usize>()
        + design.obstructions.len()
        + fill.len();
    let mut out =
        Vec::with_capacity(FRAME_BYTES + ascii_len(&design.name) + BOUNDARY_BYTES * boundaries);
    put_i16(&mut out, RecordType::Header, &[600]);
    // Fixed timestamps keep output deterministic (tools ignore them).
    put_i16(
        &mut out,
        RecordType::BgnLib,
        &[2003, 6, 1, 0, 0, 0, 2003, 6, 1, 0, 0, 0],
    );
    put_ascii(&mut out, RecordType::LibName, &design.name);
    out.extend_from_slice(&record_header(RecordType::Units, DataType::Real8, 16));
    out.extend_from_slice(&encode_real8(1e-3)); // user units per dbu
    out.extend_from_slice(&encode_real8(1e-9)); // meters per dbu
    put_i16(
        &mut out,
        RecordType::BgnStr,
        &[2003, 6, 1, 0, 0, 0, 2003, 6, 1, 0, 0, 0],
    );
    put_ascii(&mut out, RecordType::StrName, "TOP");

    for net in &design.nets {
        for seg in &net.segments {
            let layer = i16::try_from(seg.layer.0).unwrap_or(i16::MAX);
            put_boundary(&mut out, layer, 0, seg.rect());
        }
    }
    for o in &design.obstructions {
        let layer = i16::try_from(o.layer.0).unwrap_or(i16::MAX);
        put_boundary(&mut out, layer, 0, o.rect);
    }
    let size = design.rules.feature_size;
    for f in fill {
        put_boundary(&mut out, 0, FILL_DATATYPE, f.rect(size));
    }

    put_record(&mut out, RecordType::EndStr, DataType::NoData, &[]);
    put_record(&mut out, RecordType::EndLib, DataType::NoData, &[]);
    debug_assert_eq!(out.len(), out.capacity(), "GDSII output size");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_layout::synth::{synthesize, SynthConfig};

    #[test]
    fn output_is_deterministic() {
        let d = synthesize(&SynthConfig::small_test(4));
        let fill = vec![FillFeature { x: 100, y: 100 }];
        assert_eq!(write_gds(&d, &fill), write_gds(&d, &fill));
    }

    #[test]
    fn output_grows_with_fill() {
        let d = synthesize(&SynthConfig::small_test(4));
        let none = write_gds(&d, &[]);
        let some = write_gds(
            &d,
            &[
                FillFeature { x: 100, y: 100 },
                FillFeature { x: 600, y: 100 },
            ],
        );
        assert!(some.len() > none.len());
    }

    #[test]
    fn output_is_sized_exactly_once() {
        // Odd and even library names pad differently.
        for name in ["odd", "even"] {
            let mut d = synthesize(&SynthConfig {
                num_macros: 2,
                ..SynthConfig::small_test(5)
            });
            d.name = name.into();
            assert!(!d.obstructions.is_empty());
            let fill: Vec<FillFeature> = (0..37)
                .map(|i| FillFeature {
                    x: 450 * i,
                    y: 900 + 450 * (i % 5),
                })
                .collect();
            let bytes = write_gds(&d, &fill);
            assert_eq!(bytes.capacity(), bytes.len(), "{name}");
        }
    }

    #[test]
    fn starts_with_header_record() {
        let d = synthesize(&SynthConfig::small_test(4));
        let bytes = write_gds(&d, &[]);
        // length 6, type HEADER (0x00), dtype INT16 (0x02), version 600.
        assert_eq!(&bytes[..6], &[0x00, 0x06, 0x00, 0x02, 0x02, 0x58]);
    }
}
