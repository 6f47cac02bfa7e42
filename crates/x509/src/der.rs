//! ASN.1 DER encoding and decoding — the subset X.509 needs.
//!
//! Supported universal types: BOOLEAN, INTEGER, BIT STRING, OCTET STRING,
//! NULL, OBJECT IDENTIFIER, UTF8String, SEQUENCE, SET, GeneralizedTime
//! (encoded from virtual-clock seconds), plus context-specific constructed
//! tags for X.509 extensions and versions.

use ts_crypto::bignum::Ub;

/// DER universal tag numbers used by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// BOOLEAN (0x01)
    Boolean,
    /// INTEGER (0x02)
    Integer,
    /// BIT STRING (0x03)
    BitString,
    /// OCTET STRING (0x04)
    OctetString,
    /// NULL (0x05)
    Null,
    /// OBJECT IDENTIFIER (0x06)
    Oid,
    /// UTF8String (0x0c)
    Utf8String,
    /// SEQUENCE (constructed, 0x30)
    Sequence,
    /// SET (constructed, 0x31)
    Set,
    /// GeneralizedTime (0x18)
    GeneralizedTime,
    /// Context-specific constructed tag `[n]`
    Context(u8),
}

impl Tag {
    /// The encoded tag byte.
    pub fn byte(self) -> u8 {
        match self {
            Tag::Boolean => 0x01,
            Tag::Integer => 0x02,
            Tag::BitString => 0x03,
            Tag::OctetString => 0x04,
            Tag::Null => 0x05,
            Tag::Oid => 0x06,
            Tag::Utf8String => 0x0c,
            Tag::Sequence => 0x30,
            Tag::Set => 0x31,
            Tag::GeneralizedTime => 0x18,
            Tag::Context(n) => 0xa0 | (n & 0x1f),
        }
    }
}

/// Errors from DER parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerError {
    /// Input ended before a complete TLV.
    Truncated,
    /// A tag byte didn't match what the caller expected.
    UnexpectedTag {
        /// Tag the parser wanted.
        expected: u8,
        /// Tag actually present.
        found: u8,
    },
    /// A length field was malformed or non-minimal.
    BadLength,
    /// Value contents were invalid for the type.
    BadValue(&'static str),
    /// Data remained after a complete parse.
    TrailingData,
}

impl std::fmt::Display for DerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerError::Truncated => write!(f, "DER input truncated"),
            DerError::UnexpectedTag { expected, found } => {
                write!(
                    f,
                    "unexpected DER tag {found:#04x} (wanted {expected:#04x})"
                )
            }
            DerError::BadLength => write!(f, "malformed DER length"),
            DerError::BadValue(what) => write!(f, "invalid DER value: {what}"),
            DerError::TrailingData => write!(f, "trailing data after DER value"),
        }
    }
}

impl std::error::Error for DerError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append a DER length to `out` (definite, minimal form).
fn write_len(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = len.to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let sig = &bytes[skip..];
        out.push(0x80 | sig.len() as u8);
        out.extend_from_slice(sig);
    }
}

/// Append a full TLV with the given tag and contents.
pub fn write_tlv(out: &mut Vec<u8>, tag: Tag, contents: &[u8]) {
    out.push(tag.byte());
    write_len(out, contents.len());
    out.extend_from_slice(contents);
}

/// Encode a SEQUENCE from pre-encoded children.
pub fn sequence(children: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = children.iter().map(|c| c.len()).sum();
    let mut contents = Vec::with_capacity(total);
    for c in children {
        contents.extend_from_slice(c);
    }
    let mut out = Vec::with_capacity(total + 4);
    write_tlv(&mut out, Tag::Sequence, &contents);
    out
}

/// Encode an explicit context tag `[n]` wrapping `inner`.
pub fn context(n: u8, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(inner.len() + 4);
    write_tlv(&mut out, Tag::Context(n), inner);
    out
}

/// Encode a BOOLEAN.
pub fn boolean(v: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(3);
    write_tlv(&mut out, Tag::Boolean, &[if v { 0xff } else { 0x00 }]);
    out
}

/// Encode an INTEGER from an unsigned bignum (adds a leading zero when the
/// high bit is set, as DER requires for non-negative values).
pub fn integer(v: &Ub) -> Vec<u8> {
    let mut bytes = v.to_bytes_be();
    if bytes.is_empty() {
        bytes.push(0);
    }
    if bytes[0] & 0x80 != 0 {
        bytes.insert(0, 0);
    }
    let mut out = Vec::with_capacity(bytes.len() + 4);
    write_tlv(&mut out, Tag::Integer, &bytes);
    out
}

/// Encode an INTEGER from a u64.
pub fn integer_u64(v: u64) -> Vec<u8> {
    integer(&Ub::from_u64(v))
}

/// Encode an OCTET STRING.
pub fn octet_string(v: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() + 4);
    write_tlv(&mut out, Tag::OctetString, v);
    out
}

/// Encode a BIT STRING with zero unused bits.
pub fn bit_string(v: &[u8]) -> Vec<u8> {
    let mut contents = Vec::with_capacity(v.len() + 1);
    contents.push(0);
    contents.extend_from_slice(v);
    let mut out = Vec::with_capacity(contents.len() + 4);
    write_tlv(&mut out, Tag::BitString, &contents);
    out
}

/// Encode NULL.
pub fn null() -> Vec<u8> {
    vec![0x05, 0x00]
}

/// Encode a UTF8String.
pub fn utf8_string(s: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.len() + 4);
    write_tlv(&mut out, Tag::Utf8String, s.as_bytes());
    out
}

/// Encode an OBJECT IDENTIFIER from its arc components.
pub fn oid(arcs: &[u64]) -> Vec<u8> {
    assert!(arcs.len() >= 2, "OID needs at least two arcs");
    let mut contents = Vec::new();
    contents.push((arcs[0] * 40 + arcs[1]) as u8);
    for &arc in &arcs[2..] {
        let mut stack = Vec::new();
        let mut v = arc;
        stack.push((v & 0x7f) as u8);
        v >>= 7;
        while v > 0 {
            stack.push(0x80 | (v & 0x7f) as u8);
            v >>= 7;
        }
        stack.reverse();
        contents.extend_from_slice(&stack);
    }
    let mut out = Vec::with_capacity(contents.len() + 4);
    write_tlv(&mut out, Tag::Oid, &contents);
    out
}

/// Encode a GeneralizedTime from virtual-clock seconds since the simulated
/// epoch ("2016-01-01T00:00:00Z" in spirit). We render the seconds count as
/// `YYYYMMDDHHMMSSZ` with a fictional calendar of 86,400-second days and
/// 30-day months — the *ordering* is all validation needs.
pub fn generalized_time(secs: u64) -> Vec<u8> {
    let days = secs / 86_400;
    let rem = secs % 86_400;
    let year = 2016 + days / 360;
    let month = (days % 360) / 30 + 1;
    let day = (days % 30) + 1;
    let h = rem / 3600;
    let m = (rem % 3600) / 60;
    let s = rem % 60;
    let text = format!("{year:04}{month:02}{day:02}{h:02}{m:02}{s:02}Z");
    let mut out = Vec::with_capacity(text.len() + 4);
    write_tlv(&mut out, Tag::GeneralizedTime, text.as_bytes());
    out
}

/// Decode a GeneralizedTime produced by [`generalized_time`] back to
/// virtual seconds.
pub fn parse_generalized_time(text: &[u8]) -> Result<u64, DerError> {
    let s = std::str::from_utf8(text).map_err(|_| DerError::BadValue("time not UTF-8"))?;
    if s.len() != 15 || !s.ends_with('Z') {
        return Err(DerError::BadValue("time format"));
    }
    let num = |r: std::ops::Range<usize>| -> Result<u64, DerError> {
        s[r].parse().map_err(|_| DerError::BadValue("time digits"))
    };
    let year = num(0..4)?;
    let month = num(4..6)?;
    let day = num(6..8)?;
    let h = num(8..10)?;
    let m = num(10..12)?;
    let sec = num(12..14)?;
    if year < 2016 || month == 0 || month > 12 || day == 0 || day > 30 {
        return Err(DerError::BadValue("time out of range"));
    }
    let days = (year - 2016) * 360 + (month - 1) * 30 + (day - 1);
    Ok(days * 86_400 + h * 3600 + m * 60 + sec)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over DER-encoded bytes.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// True when all input is consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Peek the next tag byte without consuming.
    pub fn peek_tag(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    /// Fail unless all input was consumed.
    pub fn finish(&self) -> Result<(), DerError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DerError::TrailingData)
        }
    }

    fn read_len(&mut self) -> Result<usize, DerError> {
        let first = *self.data.get(self.pos).ok_or(DerError::Truncated)?;
        self.pos += 1;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7f) as usize;
        if n == 0 || n > 8 {
            return Err(DerError::BadLength);
        }
        if self.pos + n > self.data.len() {
            return Err(DerError::Truncated);
        }
        let mut len = 0usize;
        for i in 0..n {
            len = len.checked_shl(8).ok_or(DerError::BadLength)? | self.data[self.pos + i] as usize;
        }
        self.pos += n;
        if len < 0x80 || (n > 1 && len < (1 << (8 * (n - 1)))) {
            return Err(DerError::BadLength); // non-minimal encoding
        }
        Ok(len)
    }

    /// Read a TLV with the expected tag; returns the contents.
    pub fn read_tlv(&mut self, tag: Tag) -> Result<&'a [u8], DerError> {
        let found = *self.data.get(self.pos).ok_or(DerError::Truncated)?;
        if found != tag.byte() {
            return Err(DerError::UnexpectedTag {
                expected: tag.byte(),
                found,
            });
        }
        self.pos += 1;
        let len = self.read_len()?;
        if self.pos + len > self.data.len() {
            return Err(DerError::Truncated);
        }
        let contents = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(contents)
    }

    /// Read a SEQUENCE and return a sub-reader over its contents.
    pub fn read_sequence(&mut self) -> Result<Reader<'a>, DerError> {
        Ok(Reader::new(self.read_tlv(Tag::Sequence)?))
    }

    /// Read an explicit context tag `[n]`, returning a sub-reader, or
    /// `None` if the next tag differs (optional fields).
    pub fn read_optional_context(&mut self, n: u8) -> Result<Option<Reader<'a>>, DerError> {
        if self.peek_tag() == Some(Tag::Context(n).byte()) {
            Ok(Some(Reader::new(self.read_tlv(Tag::Context(n))?)))
        } else {
            Ok(None)
        }
    }

    /// Read an INTEGER as an unsigned bignum (rejects negative values).
    pub fn read_integer(&mut self) -> Result<Ub, DerError> {
        let contents = self.read_tlv(Tag::Integer)?;
        if contents.is_empty() {
            return Err(DerError::BadValue("empty INTEGER"));
        }
        if contents[0] & 0x80 != 0 {
            return Err(DerError::BadValue("negative INTEGER"));
        }
        if contents.len() > 1 && contents[0] == 0 && contents[1] & 0x80 == 0 {
            return Err(DerError::BadValue("non-minimal INTEGER"));
        }
        Ok(Ub::from_bytes_be(contents))
    }

    /// Read an INTEGER expecting it to fit a u64.
    pub fn read_integer_u64(&mut self) -> Result<u64, DerError> {
        let v = self.read_integer()?;
        let bytes = v.to_bytes_be();
        if bytes.len() > 8 {
            return Err(DerError::BadValue("INTEGER exceeds u64"));
        }
        let mut buf = [0u8; 8];
        buf[8 - bytes.len()..].copy_from_slice(&bytes);
        Ok(u64::from_be_bytes(buf))
    }

    /// Read a BOOLEAN.
    pub fn read_boolean(&mut self) -> Result<bool, DerError> {
        let contents = self.read_tlv(Tag::Boolean)?;
        match contents {
            [0x00] => Ok(false),
            [0xff] => Ok(true),
            _ => Err(DerError::BadValue("BOOLEAN contents")),
        }
    }

    /// Read an OCTET STRING.
    pub fn read_octet_string(&mut self) -> Result<&'a [u8], DerError> {
        self.read_tlv(Tag::OctetString)
    }

    /// Read a BIT STRING, requiring zero unused bits.
    pub fn read_bit_string(&mut self) -> Result<&'a [u8], DerError> {
        let contents = self.read_tlv(Tag::BitString)?;
        match contents.split_first() {
            Some((0, rest)) => Ok(rest),
            _ => Err(DerError::BadValue("BIT STRING unused bits")),
        }
    }

    /// Read NULL.
    pub fn read_null(&mut self) -> Result<(), DerError> {
        let contents = self.read_tlv(Tag::Null)?;
        if contents.is_empty() {
            Ok(())
        } else {
            Err(DerError::BadValue("NULL with contents"))
        }
    }

    /// Read a UTF8String.
    pub fn read_utf8_string(&mut self) -> Result<String, DerError> {
        let contents = self.read_tlv(Tag::Utf8String)?;
        String::from_utf8(contents.to_vec()).map_err(|_| DerError::BadValue("not UTF-8"))
    }

    /// Read an OBJECT IDENTIFIER back to arcs.
    pub fn read_oid(&mut self) -> Result<Vec<u64>, DerError> {
        let contents = self.read_tlv(Tag::Oid)?;
        if contents.is_empty() {
            return Err(DerError::BadValue("empty OID"));
        }
        let mut arcs = vec![(contents[0] / 40) as u64, (contents[0] % 40) as u64];
        let mut acc: u64 = 0;
        let mut in_arc = false;
        for &b in &contents[1..] {
            acc = acc
                .checked_shl(7)
                .ok_or(DerError::BadValue("OID arc overflow"))?
                | (b & 0x7f) as u64;
            in_arc = true;
            if b & 0x80 == 0 {
                arcs.push(acc);
                acc = 0;
                in_arc = false;
            }
        }
        if in_arc {
            return Err(DerError::BadValue("OID ends mid-arc"));
        }
        Ok(arcs)
    }

    /// Read a GeneralizedTime to virtual seconds.
    pub fn read_generalized_time(&mut self) -> Result<u64, DerError> {
        let contents = self.read_tlv(Tag::GeneralizedTime)?;
        parse_generalized_time(contents)
    }

    /// Read the next TLV whatever its tag; returns (tag byte, contents).
    pub fn read_any(&mut self) -> Result<(u8, &'a [u8]), DerError> {
        let tag = *self.data.get(self.pos).ok_or(DerError::Truncated)?;
        self.pos += 1;
        let len = self.read_len()?;
        if self.pos + len > self.data.len() {
            return Err(DerError::Truncated);
        }
        let contents = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok((tag, contents))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlv_short_and_long_lengths() {
        let mut out = Vec::new();
        write_tlv(&mut out, Tag::OctetString, &[0xaa; 5]);
        assert_eq!(out[..2], [0x04, 0x05]);
        let mut out = Vec::new();
        write_tlv(&mut out, Tag::OctetString, &vec![0xbb; 200]);
        assert_eq!(out[..3], [0x04, 0x81, 200]);
        let mut out = Vec::new();
        write_tlv(&mut out, Tag::OctetString, &vec![0xcc; 1000]);
        assert_eq!(out[..4], [0x04, 0x82, 0x03, 0xe8]);
    }

    #[test]
    fn integer_roundtrip() {
        for v in [0u64, 1, 127, 128, 255, 256, 0x8000, u64::MAX] {
            let enc = integer_u64(v);
            let mut r = Reader::new(&enc);
            assert_eq!(r.read_integer_u64().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn integer_high_bit_gets_leading_zero() {
        let enc = integer_u64(0x80);
        // 02 02 00 80
        assert_eq!(enc, vec![0x02, 0x02, 0x00, 0x80]);
    }

    #[test]
    fn integer_rejects_negative_and_nonminimal() {
        let mut r = Reader::new(&[0x02, 0x01, 0x80]);
        assert!(matches!(r.read_integer(), Err(DerError::BadValue(_))));
        let mut r = Reader::new(&[0x02, 0x02, 0x00, 0x01]);
        assert!(matches!(r.read_integer(), Err(DerError::BadValue(_))));
    }

    #[test]
    fn oid_roundtrip() {
        // sha256WithRSAEncryption = 1.2.840.113549.1.1.11
        let arcs = [1u64, 2, 840, 113549, 1, 1, 11];
        let enc = oid(&arcs);
        let mut r = Reader::new(&enc);
        assert_eq!(r.read_oid().unwrap(), arcs);
        // Known encoding from RFC 8017.
        assert_eq!(
            enc,
            vec![0x06, 0x09, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x01, 0x01, 0x0b]
        );
    }

    #[test]
    fn boolean_strict_der() {
        let mut r = Reader::new(&[0x01, 0x01, 0xff]);
        assert!(r.read_boolean().unwrap());
        let mut r = Reader::new(&[0x01, 0x01, 0x01]);
        assert!(matches!(r.read_boolean(), Err(DerError::BadValue(_))));
    }

    #[test]
    fn bit_string_roundtrip() {
        let enc = bit_string(b"key bits");
        let mut r = Reader::new(&enc);
        assert_eq!(r.read_bit_string().unwrap(), b"key bits");
    }

    #[test]
    fn sequence_nesting() {
        let inner = sequence(&[integer_u64(7), utf8_string("x")]);
        let outer = sequence(&[inner.clone(), null()]);
        let mut r = Reader::new(&outer);
        let mut seq = r.read_sequence().unwrap();
        let mut inner_r = seq.read_sequence().unwrap();
        assert_eq!(inner_r.read_integer_u64().unwrap(), 7);
        assert_eq!(inner_r.read_utf8_string().unwrap(), "x");
        inner_r.finish().unwrap();
        seq.read_null().unwrap();
        seq.finish().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn context_tags_optional() {
        let payload = context(3, &integer_u64(9));
        let mut r = Reader::new(&payload);
        assert!(r.read_optional_context(0).unwrap().is_none());
        let mut inner = r.read_optional_context(3).unwrap().unwrap();
        assert_eq!(inner.read_integer_u64().unwrap(), 9);
    }

    #[test]
    fn generalized_time_roundtrip() {
        for secs in [0u64, 1, 86_399, 86_400, 123_456_789, 5_184_000] {
            let enc = generalized_time(secs);
            let mut r = Reader::new(&enc);
            assert_eq!(r.read_generalized_time().unwrap(), secs, "secs {secs}");
        }
    }

    #[test]
    fn generalized_time_ordering_preserved() {
        // Ordering must survive the encode/decode, since validity checks
        // compare times.
        let times = [0u64, 100, 86_400 * 45, 86_400 * 400, 86_400 * 800];
        for w in times.windows(2) {
            let a = generalized_time(w[0]);
            let b = generalized_time(w[1]);
            assert!(a < b || w[0] == w[1], "lexicographic order matches numeric");
        }
    }

    #[test]
    fn truncated_and_trailing_inputs_rejected() {
        let enc = octet_string(b"abcdef");
        let mut r = Reader::new(&enc[..4]);
        assert!(matches!(r.read_octet_string(), Err(DerError::Truncated)));
        let mut with_extra = enc.clone();
        with_extra.push(0);
        let mut r = Reader::new(&with_extra);
        r.read_octet_string().unwrap();
        assert_eq!(r.finish(), Err(DerError::TrailingData));
    }

    #[test]
    fn wrong_tag_reports_both() {
        let enc = integer_u64(5);
        let mut r = Reader::new(&enc);
        match r.read_octet_string() {
            Err(DerError::UnexpectedTag { expected, found }) => {
                assert_eq!(expected, 0x04);
                assert_eq!(found, 0x02);
            }
            other => panic!("expected tag error, got {other:?}"),
        }
    }

    #[test]
    fn nonminimal_length_rejected() {
        // 0x81 0x05 encodes length 5 non-minimally (5 < 0x80).
        let bad = [0x04u8, 0x81, 0x05, 1, 2, 3, 4, 5];
        let mut r = Reader::new(&bad);
        assert_eq!(r.read_octet_string(), Err(DerError::BadLength));
    }
}
