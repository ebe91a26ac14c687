//! Disk persistence: segment files for tag tables and DFW1-based span
//! segments for the cold tier.
//!
//! The Fig. 14 harness measures *actual written bytes*, so [`write_segment`]
//! really writes the columnar image to disk and reports its size.
//!
//! # Span segments (cold tier)
//!
//! A *span segment* is the unit the tiered store spills and pages: one
//! cold time bucket's spans as a DFW1 batch, plus the images needed to
//! rebuild row addressing and the association/time indexes without
//! decoding every span. The layout is normative — see
//! `docs/SEGMENT_FORMAT.md`, kept in lockstep with the consts below by
//! `df-spec-sync`:
//!
//! ```text
//! magic "DFSPANS1" (8) | version u8 | section_count u8 | body_len u64 LE
//! body = section_count × ( section_len u64 LE | section bytes )
//! ```
//!
//! Sections, in [`SPAN_SEGMENT_SECTIONS`] order: the DFW1 span batch, the
//! original store row ids, the `(req_time, offset)` time-index image, and
//! the five association-index images.

use crate::tagtable::TagTable;
use df_types::{wire, Span};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic prefixing tag-table segment files.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DFSEG\0v1";

/// Magic prefixing span segment files (the cold tier's page unit).
pub const SPAN_SEGMENT_MAGIC: &[u8; 8] = b"DFSPANS1";

/// Span-segment layout version.
pub const SPAN_SEGMENT_VERSION: u8 = 1;

/// Span-segment sections, in file order.
pub const SPAN_SEGMENT_SECTIONS: [&str; 4] = ["spans", "rows", "time_index", "assoc_index"];

/// Fixed span-segment header length: magic + version + section count +
/// body length.
pub const SPAN_SEGMENT_HEADER_LEN: usize = 8 + 1 + 1 + 8;

/// Association-index images carried by a span segment, in section order
/// within the `assoc_index` section. Keys are widened to `u128` on disk;
/// the store narrows them back per index.
pub const SPAN_SEGMENT_ASSOC_INDEXES: [&str; 5] = [
    "systrace",
    "pseudo_thread",
    "x_request",
    "tcp_seq",
    "otel_trace",
];

/// Write a tag table's columnar image to `path`. Returns the bytes written.
pub fn write_segment(table: &TagTable, path: &Path) -> io::Result<u64> {
    let mut f = fs::File::create(path)?;
    f.write_all(SEGMENT_MAGIC)?;
    let body = table.to_disk();
    f.write_all(&(body.len() as u64).to_le_bytes())?;
    f.write_all(&body)?;
    f.flush()?;
    Ok((body.len() as u64).saturating_add(16))
}

/// Validate a segment file's header and return the body length it
/// declares. Reads only the 16 header bytes; the declared length is
/// checked against the file's metadata instead of slurping the body.
pub fn read_segment_header(path: &Path) -> io::Result<u64> {
    let mut f = fs::File::open(path)?;
    let mut header = [0u8; 16];
    f.read_exact(&mut header)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad segment magic"))?;
    let (magic, len_bytes) = header.split_at(8);
    if magic != SEGMENT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad segment magic",
        ));
    }
    let len = u64::from_le_bytes(
        len_bytes
            .try_into()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad segment header"))?,
    );
    // checked_sub instead of `16 + len`: a hostile declared length near
    // u64::MAX must not wrap the comparison around.
    if fs::metadata(path)?.len().checked_sub(16) != Some(len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "segment length mismatch",
        ));
    }
    Ok(len)
}

/// A decoded span segment: the spans of one cold bucket plus the images
/// needed to re-address them.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSegment {
    /// The bucket's spans, in spill order (offset *i* in the segment is
    /// element *i* here).
    pub spans: Vec<Span>,
    /// Original store row of each span, parallel to `spans`.
    pub rows: Vec<u32>,
    /// `(req_time_ns, offset)` pairs sorted by time.
    pub time_index: Vec<(u64, u32)>,
    /// Association images in [`SPAN_SEGMENT_ASSOC_INDEXES`] order:
    /// `(key, offset)` pairs sorted by key, keys widened to `u128`.
    pub assoc_index: [Vec<(u128, u32)>; 5],
}

/// Parsed span-segment header (no body IO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSegmentHeader {
    /// Layout version ([`SPAN_SEGMENT_VERSION`]).
    pub version: u8,
    /// Number of sections the body carries.
    pub sections: u8,
    /// Body length in bytes (file length minus the fixed header).
    pub body_len: u64,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Encode one cold bucket as a span segment. `rows` gives the original
/// store row of each span (parallel slices). The time and association
/// images are derived here so a future reader can rebuild index state
/// without decoding the DFW1 batch.
pub fn encode_span_segment(spans: &[Span], rows: &[u32]) -> Vec<u8> {
    // df-audit: allow(decode-panic) — encode-side API contract on in-process data, not wire input
    assert_eq!(spans.len(), rows.len(), "spans and rows must be parallel");

    let span_bytes = wire::encode_batch(spans);

    let mut row_bytes = Vec::with_capacity(rows.len().saturating_mul(4).saturating_add(4));
    row_bytes.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for &row in rows {
        row_bytes.extend_from_slice(&row.to_le_bytes());
    }

    let mut time_pairs: Vec<(u64, u32)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.req_time.as_nanos(), i as u32))
        .collect();
    time_pairs.sort_unstable();
    let mut time_bytes = Vec::with_capacity(time_pairs.len().saturating_mul(12).saturating_add(4));
    time_bytes.extend_from_slice(&(time_pairs.len() as u32).to_le_bytes());
    for &(ts, off) in &time_pairs {
        time_bytes.extend_from_slice(&ts.to_le_bytes());
        time_bytes.extend_from_slice(&off.to_le_bytes());
    }

    let mut assoc: [Vec<(u128, u32)>; 5] = Default::default();
    {
        let [a_systrace, a_pseudo, a_xreq, a_tcp, a_otel] = &mut assoc;
        for (i, s) in spans.iter().enumerate() {
            let off = i as u32;
            for v in [s.systrace_id_req, s.systrace_id_resp]
                .into_iter()
                .flatten()
            {
                a_systrace.push((u128::from(v.raw()), off));
            }
            if let Some(p) = s.pseudo_thread_id {
                a_pseudo.push((u128::from(p.raw()), off));
            }
            for v in [s.x_request_id_req, s.x_request_id_resp]
                .into_iter()
                .flatten()
            {
                a_xreq.push((v.0, off));
            }
            for v in [s.tcp_seq_req, s.tcp_seq_resp].into_iter().flatten() {
                a_tcp.push((u128::from(v), off));
            }
            if let Some(t) = s.otel_trace_id {
                a_otel.push((t.0, off));
            }
        }
    }
    let mut assoc_bytes = Vec::new();
    for pairs in &mut assoc {
        pairs.sort_unstable();
        pairs.dedup();
        assoc_bytes.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for &(key, off) in pairs.iter() {
            assoc_bytes.extend_from_slice(&key.to_le_bytes());
            assoc_bytes.extend_from_slice(&off.to_le_bytes());
        }
    }

    let sections = [span_bytes, row_bytes, time_bytes, assoc_bytes];
    let body_len: usize = sections
        .iter()
        .map(|s| s.len().saturating_add(8))
        .fold(0usize, usize::saturating_add);
    let mut out = Vec::with_capacity(SPAN_SEGMENT_HEADER_LEN.saturating_add(body_len));
    out.extend_from_slice(SPAN_SEGMENT_MAGIC);
    out.push(SPAN_SEGMENT_VERSION);
    out.push(sections.len() as u8);
    out.extend_from_slice(&(body_len as u64).to_le_bytes());
    for section in &sections {
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
    }
    out
}

/// Decode a little-endian u32 from an exactly-4-byte slice, totally.
fn le_u32(b: &[u8], what: &'static str) -> io::Result<u32> {
    b.try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| invalid(what))
}

/// Decode a little-endian u64 from an exactly-8-byte slice, totally.
fn le_u64(b: &[u8], what: &'static str) -> io::Result<u64> {
    b.try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| invalid(what))
}

/// Decode a little-endian u128 from an exactly-16-byte slice, totally.
fn le_u128(b: &[u8], what: &'static str) -> io::Result<u128> {
    b.try_into()
        .map(u128::from_le_bytes)
        .map_err(|_| invalid(what))
}

/// Split a u32-LE count prefix off a section, totally: `(count, rest)`.
fn split_count_prefix<'a>(bytes: &'a [u8], what: &'static str) -> io::Result<(usize, &'a [u8])> {
    let n = le_u32(bytes.get(..4).unwrap_or(&[]), what)?;
    Ok((n as usize, bytes.get(4..).unwrap_or(&[])))
}

fn parse_span_segment_header(header: &[u8]) -> io::Result<SpanSegmentHeader> {
    if header.len() < SPAN_SEGMENT_HEADER_LEN
        || header.get(..8) != Some(SPAN_SEGMENT_MAGIC.as_slice())
    {
        return Err(invalid("bad span segment magic"));
    }
    let version = *header.get(8).ok_or_else(|| invalid("header truncated"))?;
    if version != SPAN_SEGMENT_VERSION {
        return Err(invalid("unsupported span segment version"));
    }
    let sections = *header.get(9).ok_or_else(|| invalid("header truncated"))?;
    if usize::from(sections) != SPAN_SEGMENT_SECTIONS.len() {
        return Err(invalid("unexpected span segment section count"));
    }
    let body_len = le_u64(header.get(10..18).unwrap_or(&[]), "header truncated")?;
    Ok(SpanSegmentHeader {
        version,
        sections,
        body_len,
    })
}

/// Decode a span segment produced by [`encode_span_segment`].
pub fn decode_span_segment(bytes: &[u8]) -> io::Result<SpanSegment> {
    let header = parse_span_segment_header(bytes)?;
    let body = bytes
        .get(SPAN_SEGMENT_HEADER_LEN..)
        .ok_or_else(|| invalid("span segment length mismatch"))?;
    if body.len() as u64 != header.body_len {
        return Err(invalid("span segment length mismatch"));
    }

    let mut cursor = body;
    let mut section = |name: &str| -> io::Result<&[u8]> {
        let len = le_u64(cursor.get(..8).unwrap_or(&[]), "section header truncated")
            .map_err(|_| invalid(&format!("span segment truncated before {name}")))?
            as usize;
        let rest = cursor.get(8..).unwrap_or(&[]);
        let sec = rest
            .get(..len)
            .ok_or_else(|| invalid(&format!("span segment {name} section truncated")))?;
        cursor = rest.get(len..).unwrap_or(&[]);
        Ok(sec)
    };

    let [sec_spans, sec_rows, sec_time, sec_assoc] = SPAN_SEGMENT_SECTIONS;
    let span_bytes = section(sec_spans)?;
    let row_bytes = section(sec_rows)?;
    let time_bytes = section(sec_time)?;
    let assoc_bytes = section(sec_assoc)?;
    if !cursor.is_empty() {
        return Err(invalid("span segment has trailing bytes"));
    }

    let spans = wire::decode_batch(span_bytes)
        .map_err(|e| invalid(&format!("span segment DFW1 batch invalid: {e:?}")))?;

    let rows = {
        let (n, data) = split_count_prefix(row_bytes, "rows section truncated")?;
        if Some(data.len()) != n.checked_mul(4) {
            return Err(invalid("rows section length mismatch"));
        }
        data.chunks_exact(4)
            .map(|c| le_u32(c, "rows section truncated"))
            .collect::<io::Result<Vec<u32>>>()?
    };
    if rows.len() != spans.len() {
        return Err(invalid("rows section does not match span count"));
    }

    let time_index = {
        let (n, data) = split_count_prefix(time_bytes, "time index section truncated")?;
        if Some(data.len()) != n.checked_mul(12) {
            return Err(invalid("time index section length mismatch"));
        }
        data.chunks_exact(12)
            .map(|c| {
                let (ts, off) = c.split_at(8);
                Ok((
                    le_u64(ts, "time index section truncated")?,
                    le_u32(off, "time index section truncated")?,
                ))
            })
            .collect::<io::Result<Vec<(u64, u32)>>>()?
    };

    let mut assoc_index: [Vec<(u128, u32)>; 5] = Default::default();
    let mut cur = assoc_bytes;
    for slot in assoc_index.iter_mut() {
        let (n, rest) = split_count_prefix(cur, "assoc index section truncated")?;
        let entry_bytes = n
            .checked_mul(20)
            .ok_or_else(|| invalid("assoc index entries truncated"))?;
        let entries = rest
            .get(..entry_bytes)
            .ok_or_else(|| invalid("assoc index entries truncated"))?;
        *slot = entries
            .chunks_exact(20)
            .map(|c| {
                let (key, off) = c.split_at(16);
                Ok((
                    le_u128(key, "assoc index entries truncated")?,
                    le_u32(off, "assoc index entries truncated")?,
                ))
            })
            .collect::<io::Result<Vec<(u128, u32)>>>()?;
        cur = rest.get(entry_bytes..).unwrap_or(&[]);
    }
    if !cur.is_empty() {
        return Err(invalid("assoc index has trailing bytes"));
    }

    Ok(SpanSegment {
        spans,
        rows,
        time_index,
        assoc_index,
    })
}

/// Validate a span segment file's header without reading the body: only
/// the fixed header bytes are read, and the declared body length is
/// checked against file metadata.
pub fn read_span_segment_header(path: &Path) -> io::Result<SpanSegmentHeader> {
    let mut f = fs::File::open(path)?;
    let mut header = [0u8; SPAN_SEGMENT_HEADER_LEN];
    f.read_exact(&mut header)
        .map_err(|_| invalid("bad span segment magic"))?;
    let parsed = parse_span_segment_header(&header)?;
    // checked_sub so a hostile declared length near u64::MAX cannot wrap.
    if fs::metadata(path)?
        .len()
        .checked_sub(SPAN_SEGMENT_HEADER_LEN as u64)
        != Some(parsed.body_len)
    {
        return Err(invalid("span segment length mismatch"));
    }
    Ok(parsed)
}

/// One span segment file found by [`scan_span_segments`]: its path plus
/// the validated header.
#[derive(Debug, Clone)]
pub struct ScannedSegment {
    /// Absolute path of the `.dfspan` file.
    pub path: std::path::PathBuf,
    /// Its validated header.
    pub header: SpanSegmentHeader,
}

/// Result of a segment-catalog scan: the valid segment files of one
/// shard, in lexicographic path order (spill filenames embed the time
/// bucket and segment id, so this is also spill order), plus how many
/// candidate files failed header validation.
#[derive(Debug, Clone, Default)]
pub struct SegmentScan {
    /// Valid segments, sorted by path.
    pub segments: Vec<ScannedSegment>,
    /// Files matching the shard's naming scheme whose header (or length)
    /// was invalid. Counted, never panicked over: a torn spill or stray
    /// garbage must not take recovery down.
    pub rejected: usize,
}

/// Scan `dir` for shard `shard`'s span segment files (the crash-recovery
/// catalog scan). Only files named `shard{shard:04}-*.dfspan` — the
/// pattern [`SpanStore::spill_before`](crate::SpanStore::spill_before)
/// writes — are considered; each is header-validated via
/// [`read_span_segment_header`]. A missing directory yields an empty
/// scan, not an error (a node that never spilled has nothing to recover).
pub fn scan_span_segments(dir: &Path, shard: u16) -> io::Result<SegmentScan> {
    let mut scan = SegmentScan::default();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    let prefix = format!("shard{shard:04}-");
    let mut candidates: Vec<std::path::PathBuf> = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with(&prefix) && name.ends_with(".dfspan") && path.is_file() {
            candidates.push(path);
        }
    }
    candidates.sort();
    for path in candidates {
        match read_span_segment_header(&path) {
            Ok(header) => scan.segments.push(ScannedSegment { path, header }),
            Err(_) => scan.rejected += 1,
        }
    }
    Ok(scan)
}

/// Unique-per-test temp directory with drop cleanup, for crate-internal
/// tests that touch the filesystem. Parallel test runs get distinct
/// paths (process id + a per-process counter), and the directory is
/// removed when the guard drops — even on assertion failure.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> TestDir {
    // Uniqueness: the tag is unique per call site, the pid separates
    // parallel test *processes*, and the nanosecond stamp guards against
    // a stale dir surviving a previous crashed run.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let path =
        std::env::temp_dir().join(format!("df-storage-{tag}-{}-{stamp}", std::process::id()));
    fs::create_dir_all(&path).expect("create test dir");
    TestDir { path }
}

/// Guard returned by [`test_dir`].
#[cfg(test)]
pub(crate) struct TestDir {
    path: std::path::PathBuf,
}

#[cfg(test)]
impl TestDir {
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagtable::TagEncoding;
    use df_types::ids::*;

    #[test]
    fn segment_round_trip_and_validation() {
        let dir = test_dir("segments");
        let path = dir.path().join("seg1.dfseg");

        let mut t = TagTable::new(TagEncoding::SmartInt, 3);
        let rows: Vec<Vec<u32>> = (0..100).map(|i| vec![i, i * 2, i * 3]).collect();
        t.ingest_int_rows(rows.iter().map(|r| r.as_slice()));

        let written = write_segment(&t, &path).unwrap();
        assert_eq!(written, fs::metadata(&path).unwrap().len());
        let body_len = read_segment_header(&path).unwrap();
        assert_eq!(body_len + 16, written);
    }

    #[test]
    fn corrupt_segment_rejected() {
        let dir = test_dir("segments-bad");
        let path = dir.path().join("bad.dfseg");
        fs::write(&path, b"NOTASEGMENT").unwrap();
        assert!(read_segment_header(&path).is_err());
        // Good magic, truncated body: metadata check catches it without
        // reading the (absent) body.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&100u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        fs::write(&path, &bytes).unwrap();
        assert!(read_segment_header(&path).is_err());
    }

    #[test]
    fn hostile_declared_length_is_rejected_without_wrapping() {
        // A declared length near u64::MAX would wrap `16 + len` back into
        // range and validate against a tiny file; the checked_sub form
        // must reject it (and not overflow under overflow-checks).
        let dir = test_dir("segments-hostile");
        let path = dir.path().join("hostile.dfseg");
        for declared in [u64::MAX, u64::MAX - 15, u64::MAX - 16] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(SEGMENT_MAGIC);
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 32]);
            fs::write(&path, &bytes).unwrap();
            assert!(
                read_segment_header(&path).is_err(),
                "declared {declared:#x} must be rejected"
            );
        }
    }

    fn demo_span(i: u64) -> df_types::Span {
        use df_types::span::*;
        let mut s = Span::synthetic(TapSide::ClientNodeNic, 1_000 - i * 10, 1_005 - i * 10);
        s.span_id = SpanId(i + 1);
        s.kind = SpanKind::Net;
        s.capture.interface = Some("eth0".into());
        s.endpoint = format!("GET /seg/{i}");
        s.systrace_id_req = Some(SysTraceId(3 + i));
        s.pseudo_thread_id = i.is_multiple_of(2).then_some(PseudoThreadId(40 + i));
        s.x_request_id_req = Some(XRequestId(u128::from(500 + i)));
        s.tcp_seq_req = Some(77 + i as u32);
        s.tcp_seq_resp = Some(77 + i as u32);
        s.otel_trace_id = i
            .is_multiple_of(3)
            .then_some(OtelTraceId(u128::from(9_000 + i)));
        s
    }

    #[test]
    fn span_segment_round_trips_spans_rows_and_indexes() {
        let spans: Vec<df_types::Span> = (0..10).map(demo_span).collect();
        let rows: Vec<u32> = (0..10u32).map(|r| r * 3 + 1).collect();
        let bytes = encode_span_segment(&spans, &rows);
        let seg = decode_span_segment(&bytes).unwrap();
        assert_eq!(seg.spans, spans);
        assert_eq!(seg.rows, rows);
        // Time image covers every offset and is sorted by timestamp
        // (input times are descending, so this exercises the sort).
        assert_eq!(seg.time_index.len(), 10);
        assert!(seg.time_index.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(seg.time_index[0].1, 9, "oldest span is the last offset");
        // Association images: systrace/x_request/tcp_seq on every span,
        // pseudo-thread on half, otel on a third. tcp_seq req == resp is
        // deduped.
        assert_eq!(seg.assoc_index[0].len(), 10);
        assert_eq!(seg.assoc_index[1].len(), 5);
        assert_eq!(seg.assoc_index[2].len(), 10);
        assert_eq!(seg.assoc_index[3].len(), 10);
        assert_eq!(seg.assoc_index[4].len(), 4);
        assert!(seg
            .assoc_index
            .iter()
            .all(|ix| ix.windows(2).all(|w| w[0] <= w[1])));
    }

    #[test]
    fn span_segment_header_reads_without_body_io() {
        let dir = test_dir("span-seg");
        let path = dir.path().join("b0.dfspan");
        let spans: Vec<df_types::Span> = (0..4).map(demo_span).collect();
        let rows: Vec<u32> = (0..4).collect();
        let bytes = encode_span_segment(&spans, &rows);
        fs::write(&path, &bytes).unwrap();

        let header = read_span_segment_header(&path).unwrap();
        assert_eq!(header.version, SPAN_SEGMENT_VERSION);
        assert_eq!(usize::from(header.sections), SPAN_SEGMENT_SECTIONS.len());
        assert_eq!(
            SPAN_SEGMENT_HEADER_LEN as u64 + header.body_len,
            fs::metadata(&path).unwrap().len()
        );

        // Truncated file: header parse succeeds but metadata disagrees.
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(read_span_segment_header(&path).is_err());
        // Garbage: magic check fails.
        fs::write(&path, b"NOTASPANSEGMENT_AT_ALL").unwrap();
        assert!(read_span_segment_header(&path).is_err());
    }

    #[test]
    fn corrupt_span_segment_bodies_rejected() {
        let spans: Vec<df_types::Span> = (0..3).map(demo_span).collect();
        let rows: Vec<u32> = (0..3).collect();
        let good = encode_span_segment(&spans, &rows);

        // Truncation anywhere inside the body fails cleanly.
        assert!(decode_span_segment(&good[..good.len() - 1]).is_err());
        assert!(decode_span_segment(&good[..SPAN_SEGMENT_HEADER_LEN + 3]).is_err());
        // Wrong version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(decode_span_segment(&bad).is_err());
        // Rows/spans count mismatch: patch the rows count field.
        let mut bad = good;
        // rows section starts after header + 8-byte len + span bytes; its
        // first 4 bytes are the count. Find it via the declared span
        // section length.
        let span_len = u64::from_le_bytes(
            bad[SPAN_SEGMENT_HEADER_LEN..SPAN_SEGMENT_HEADER_LEN + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        let rows_count_at = SPAN_SEGMENT_HEADER_LEN + 8 + span_len + 8;
        bad[rows_count_at] = 2;
        assert!(decode_span_segment(&bad).is_err());
    }

    #[test]
    fn hostile_span_section_lengths_rejected_without_wrapping() {
        let spans: Vec<df_types::Span> = (0..2).map(demo_span).collect();
        let rows: Vec<u32> = (0..2).collect();
        let good = encode_span_segment(&spans, &rows);

        // First section claims a near-u64::MAX length: slicing math must
        // not wrap around the body, it must error.
        for hostile in [u64::MAX, u64::MAX - 7, good.len() as u64 * 2] {
            let mut bad = good.clone();
            bad[SPAN_SEGMENT_HEADER_LEN..SPAN_SEGMENT_HEADER_LEN + 8]
                .copy_from_slice(&hostile.to_le_bytes());
            assert!(
                decode_span_segment(&bad).is_err(),
                "section length {hostile:#x} must be rejected"
            );
        }

        // Hostile assoc-index count: `n.checked_mul(20)` guards the pair
        // math, so a count of u32::MAX fails cleanly instead of wrapping.
        // The assoc section is last; its first image's count is the first
        // 4 bytes after the section length.
        let mut offset = SPAN_SEGMENT_HEADER_LEN;
        for _ in 0..3 {
            let len = u64::from_le_bytes(bad_slice(&good, offset, 8).try_into().unwrap()) as usize;
            offset += 8 + len;
        }
        let assoc_count_at = offset + 8;
        let mut bad = good.clone();
        bad[assoc_count_at..assoc_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_span_segment(&bad).is_err());
    }

    fn bad_slice(b: &[u8], at: usize, n: usize) -> &[u8] {
        &b[at..at + n]
    }

    #[test]
    fn segment_scan_finds_valid_files_and_counts_corrupt_ones() {
        let dir = test_dir("span-scan");
        let spans: Vec<df_types::Span> = (0..3).map(demo_span).collect();
        let rows: Vec<u32> = (0..3).collect();
        let bytes = encode_span_segment(&spans, &rows);
        // Two valid segments for shard 2, written out of order to check
        // the scan sorts by path (= spill order).
        fs::write(
            dir.path()
                .join("shard0002-b000000000005-seg00000001.dfspan"),
            &bytes,
        )
        .unwrap();
        fs::write(
            dir.path()
                .join("shard0002-b000000000001-seg00000000.dfspan"),
            &bytes,
        )
        .unwrap();
        // A different shard's segment: ignored.
        fs::write(
            dir.path()
                .join("shard0003-b000000000001-seg00000002.dfspan"),
            &bytes,
        )
        .unwrap();
        // A corrupt file matching shard 2's pattern: counted, not fatal.
        fs::write(
            dir.path()
                .join("shard0002-b000000000009-seg00000009.dfspan"),
            b"garbage",
        )
        .unwrap();
        // A truncated-but-magic-valid file: length check rejects it.
        fs::write(
            dir.path()
                .join("shard0002-b000000000010-seg00000010.dfspan"),
            &bytes[..bytes.len() - 1],
        )
        .unwrap();
        // Unrelated noise: skipped silently.
        fs::write(dir.path().join("notes.txt"), b"hi").unwrap();

        let scan = scan_span_segments(dir.path(), 2).unwrap();
        assert_eq!(scan.segments.len(), 2);
        assert_eq!(scan.rejected, 2);
        assert!(scan.segments[0]
            .path
            .to_str()
            .unwrap()
            .contains("seg00000000"));
        assert!(scan.segments[1]
            .path
            .to_str()
            .unwrap()
            .contains("seg00000001"));

        // A directory that never existed is an empty scan, not an error.
        let empty = scan_span_segments(&dir.path().join("nope"), 2).unwrap();
        assert!(empty.segments.is_empty());
        assert_eq!(empty.rejected, 0);
    }
}
