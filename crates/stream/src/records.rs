//! GDSII record framing: every record is `[u16 length][u8 rectype][u8
//! datatype][payload]`, big-endian, with `length` counting the 4 header
//! bytes.

/// Record type codes (the subset this crate uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordType {
    /// Stream format version.
    Header = 0x00,
    /// Library begin (modification timestamps).
    BgnLib = 0x01,
    /// Library name.
    LibName = 0x02,
    /// Database units.
    Units = 0x03,
    /// Library end.
    EndLib = 0x04,
    /// Structure begin.
    BgnStr = 0x05,
    /// Structure name.
    StrName = 0x06,
    /// Structure end.
    EndStr = 0x07,
    /// Boundary (polygon) element.
    Boundary = 0x08,
    /// Layer number.
    Layer = 0x0D,
    /// Datatype number.
    Datatype = 0x0E,
    /// Coordinate list.
    Xy = 0x10,
    /// Element end.
    EndEl = 0x11,
}

impl RecordType {
    /// Maps a raw code to a known record type.
    pub fn from_code(code: u8) -> Option<Self> {
        use RecordType::*;
        Some(match code {
            0x00 => Header,
            0x01 => BgnLib,
            0x02 => LibName,
            0x03 => Units,
            0x04 => EndLib,
            0x05 => BgnStr,
            0x06 => StrName,
            0x07 => EndStr,
            0x08 => Boundary,
            0x0D => Layer,
            0x0E => Datatype,
            0x10 => Xy,
            0x11 => EndEl,
            _ => return None,
        })
    }
}

/// GDSII data type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DataType {
    /// No payload.
    NoData = 0x00,
    /// 16-bit signed integers.
    Int16 = 0x02,
    /// 32-bit signed integers.
    Int32 = 0x03,
    /// 8-byte excess-64 reals.
    Real8 = 0x05,
    /// ASCII string (padded to even length).
    Ascii = 0x06,
}

/// Error reading a GDSII stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GdsError {
    /// Input ended inside a record.
    UnexpectedEof,
    /// A record declared an invalid length.
    BadRecordLength {
        /// The declared length.
        length: u16,
    },
    /// A record appeared where the grammar does not allow it.
    UnexpectedRecord {
        /// Raw record type code.
        code: u8,
    },
    /// The stream ended before `ENDLIB`.
    MissingEndLib,
    /// Structural records out of order (e.g. `XY` outside `BOUNDARY`).
    Structure(&'static str),
}

impl std::fmt::Display for GdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GdsError::UnexpectedEof => f.write_str("unexpected end of stream"),
            GdsError::BadRecordLength { length } => {
                write!(f, "invalid record length {length}")
            }
            GdsError::UnexpectedRecord { code } => {
                write!(f, "unexpected record type 0x{code:02x}")
            }
            GdsError::MissingEndLib => f.write_str("stream ends without ENDLIB"),
            GdsError::Structure(msg) => write!(f, "malformed stream: {msg}"),
        }
    }
}

impl std::error::Error for GdsError {}

/// The 4-byte header of a record with a `payload_len`-byte payload.
pub fn record_header(rt: RecordType, dt: DataType, payload_len: usize) -> [u8; 4] {
    debug_assert!(
        payload_len.is_multiple_of(2),
        "GDSII payloads are even-length"
    );
    let len = 4 + payload_len;
    debug_assert!(
        len <= usize::from(u16::MAX),
        "GDSII record payload too large ({len} bytes)"
    );
    let [hi, lo] = u16::try_from(len).unwrap_or(u16::MAX).to_be_bytes();
    // `RecordType`/`DataType` are `#[repr(u8)]`; the cast is the only way to
    // read the discriminant and cannot narrow. pilfill: allow(as-cast)
    [hi, lo, rt as u8, dt as u8]
}

/// Appends one record to `out`.
pub fn put_record(out: &mut Vec<u8>, rt: RecordType, dt: DataType, payload: &[u8]) {
    out.extend_from_slice(&record_header(rt, dt, payload.len()));
    out.extend_from_slice(payload);
}

/// A parsed record header plus payload slice offsets.
#[derive(Debug, Clone)]
pub struct RawRecord {
    /// Record type (known subset).
    pub rtype: RecordType,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Reads the next record, or `None` at a clean end of input.
///
/// # Errors
///
/// [`GdsError::UnexpectedEof`] for truncated records,
/// [`GdsError::BadRecordLength`] for lengths under 4,
/// [`GdsError::UnexpectedRecord`] for unknown type codes.
pub fn next_record(buf: &mut &[u8]) -> Result<Option<RawRecord>, GdsError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 4 {
        return Err(GdsError::UnexpectedEof);
    }
    let length = u16::from_be_bytes([buf[0], buf[1]]);
    if length < 4 {
        return Err(GdsError::BadRecordLength { length });
    }
    let code = buf[2];
    let _dtype = buf[3];
    *buf = &buf[4..];
    let payload_len = usize::from(length - 4);
    if buf.len() < payload_len {
        return Err(GdsError::UnexpectedEof);
    }
    let payload = buf[..payload_len].to_vec();
    *buf = &buf[payload_len..];
    let rtype = RecordType::from_code(code).ok_or(GdsError::UnexpectedRecord { code })?;
    Ok(Some(RawRecord { rtype, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip() {
        let mut out = Vec::new();
        put_record(&mut out, RecordType::Header, DataType::Int16, &[0x02, 0x58]);
        put_record(&mut out, RecordType::EndLib, DataType::NoData, &[]);
        let mut cursor: &[u8] = &out;
        let r1 = next_record(&mut cursor).expect("ok").expect("some");
        assert_eq!(r1.rtype, RecordType::Header);
        assert_eq!(r1.payload, vec![0x02, 0x58]);
        let r2 = next_record(&mut cursor).expect("ok").expect("some");
        assert_eq!(r2.rtype, RecordType::EndLib);
        assert!(r2.payload.is_empty());
        assert!(next_record(&mut cursor).expect("ok").is_none());
    }

    #[test]
    fn truncated_record_errors() {
        let bytes = [0x00u8, 0x08, 0x00]; // length says 8, only 3 bytes
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(
            next_record(&mut cursor),
            Err(GdsError::UnexpectedEof)
        ));
    }

    #[test]
    fn bad_length_errors() {
        let bytes = [0x00u8, 0x02, 0x00, 0x00];
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(
            next_record(&mut cursor),
            Err(GdsError::BadRecordLength { length: 2 })
        ));
    }

    #[test]
    fn unknown_record_type_errors() {
        let bytes = [0x00u8, 0x04, 0x7F, 0x00];
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(
            next_record(&mut cursor),
            Err(GdsError::UnexpectedRecord { code: 0x7F })
        ));
    }
}
