//! Span segments: the cold tier's on-disk page unit.
//!
//! A *span segment* is what the tiered store spills and pages: one cold
//! time bucket's spans as a DFW batch plus the original store row of
//! each span. Nothing else is stored — the association and time indexes
//! stay resident across a spill, and crash recovery rebuilds them from
//! the decoded spans. The layout is normative — see
//! `docs/SEGMENT_FORMAT.md`, kept in lockstep with the consts below by
//! this module's test `segment_format_doc_matches_the_codec`:
//!
//! ```text
//! magic "DFSPANS1" (8) | version u8 | section_count u8 | body_len u64 LE
//! body = section_count × ( section_len u64 LE | section bytes )
//! ```
//!
//! Sections, in [`SPAN_SEGMENT_SECTIONS`] order: the DFW span batch and
//! the original store row ids. A file is valid iff
//! [`decode_span_segment`] accepts it; there is no separate header check.
//! The cold tier's file IO, [`DiskIo`], lives here too.

#![deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::allow_attributes_without_reason
)]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "persist.rs is the one std::fs module of the sync-scoped crates"
)]

use df_types::{wire, Span};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Magic prefixing span segment files (the cold tier's page unit).
pub const SPAN_SEGMENT_MAGIC: &[u8; 8] = b"DFSPANS1";

/// Span-segment layout version.
pub const SPAN_SEGMENT_VERSION: u8 = 2;

/// Span-segment sections, in file order.
pub const SPAN_SEGMENT_SECTIONS: [&str; 2] = ["spans", "rows"];

/// Fixed span-segment header length: magic + version + section count +
/// body length.
pub const SPAN_SEGMENT_HEADER_LEN: usize = 8 + 1 + 1 + 8;

/// A decoded span segment: the spans of one cold bucket plus the row
/// each one came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSegment {
    /// The bucket's spans, in spill order (offset *i* in the segment is
    /// element *i* here).
    pub spans: Vec<Span>,
    /// Original store row of each span, parallel to `spans`.
    pub rows: Vec<u32>,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Encode one cold bucket as a span segment. `rows` gives the original
/// store row of each span, in the same order. The `spans` section is
/// byte-identical to [`wire::encode_batch`] of the same spans.
pub fn encode_span_segment<'a>(spans: impl IntoIterator<Item = &'a Span>, rows: &[u32]) -> Vec<u8> {
    let mut enc = wire::WireEncoder::new();
    for span in spans {
        enc.push(span);
    }
    assert_eq!(
        enc.span_count(),
        rows.len() as u64,
        "spans and rows must be parallel"
    );
    let span_bytes = enc.finish();

    let row_bytes_len = rows.len().saturating_mul(4).saturating_add(4);
    let body_len = span_bytes
        .len()
        .saturating_add(row_bytes_len)
        .saturating_add(16);
    let mut out = Vec::with_capacity(SPAN_SEGMENT_HEADER_LEN.saturating_add(body_len));
    out.extend_from_slice(SPAN_SEGMENT_MAGIC);
    out.push(SPAN_SEGMENT_VERSION);
    out.push(SPAN_SEGMENT_SECTIONS.len() as u8);
    out.extend_from_slice(&(body_len as u64).to_le_bytes());
    out.extend_from_slice(&(span_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&span_bytes);
    out.extend_from_slice(&(row_bytes_len as u64).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for &row in rows {
        out.extend_from_slice(&row.to_le_bytes());
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

/// Decode a span segment produced by [`encode_span_segment`]. Total:
/// bad magic, a foreign version (version 1 included), a wrong section
/// count, a declared length that disagrees with the bytes given, a
/// truncated or over-long section and any DFW error all come back as
/// `InvalidData`.
pub fn decode_span_segment(bytes: &[u8]) -> io::Result<SpanSegment> {
    if bytes.get(..8) != Some(SPAN_SEGMENT_MAGIC.as_slice()) {
        return Err(invalid("bad span segment magic"));
    }
    if bytes.get(8) != Some(&SPAN_SEGMENT_VERSION) {
        return Err(invalid("unsupported span segment version"));
    }
    if bytes.get(9).map(|&n| usize::from(n)) != Some(SPAN_SEGMENT_SECTIONS.len()) {
        return Err(invalid("unexpected span segment section count"));
    }
    let body_len = le_u64(bytes.get(10..18).unwrap_or(&[]), "header truncated")?;
    let body = bytes.get(SPAN_SEGMENT_HEADER_LEN..).unwrap_or(&[]);
    if body.len() as u64 != body_len {
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
    let [sec_spans, sec_rows] = SPAN_SEGMENT_SECTIONS;
    let span_bytes = section(sec_spans)?;
    let row_bytes = section(sec_rows)?;
    if !cursor.is_empty() {
        return Err(invalid("span segment has trailing bytes"));
    }

    let spans = wire::decode_batch(span_bytes)
        .map_err(|e| invalid(&format!("span segment DFW batch invalid: {e:?}")))?;

    let count = le_u32(row_bytes.get(..4).unwrap_or(&[]), "rows section truncated")? as usize;
    let data = row_bytes.get(4..).unwrap_or(&[]);
    if Some(data.len()) != count.checked_mul(4) {
        return Err(invalid("rows section length mismatch"));
    }
    if count != spans.len() {
        return Err(invalid("rows section does not match span count"));
    }
    let rows = data
        .chunks_exact(4)
        .map(|c| le_u32(c, "rows section truncated"))
        .collect::<io::Result<Vec<u32>>>()?;

    Ok(SpanSegment { spans, rows })
}

/// Snapshot of [`DiskIo`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Whole-file reads that succeeded.
    pub reads: usize,
    /// Whole-file writes that succeeded.
    pub writes: usize,
    /// Total bytes read.
    pub read_bytes: usize,
    /// Total bytes written.
    pub written_bytes: usize,
}

/// The cold tier's segment file IO, whole-file and counted. It runs on
/// the calling thread, under whatever lock that thread holds: a page-in
/// under a shard's read lock, a spill under its write lock.
#[derive(Debug, Default)]
pub struct DiskIo {
    reads: AtomicUsize,
    writes: AtomicUsize,
    read_bytes: AtomicUsize,
    written_bytes: AtomicUsize,
}

impl DiskIo {
    /// Read the whole file at `path`.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = fs::read(path)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes.len(), Ordering::Relaxed);
        Ok(bytes)
    }

    /// Create or overwrite the file at `path` with `bytes`, creating its
    /// parent directories first.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.written_bytes.fetch_add(bytes.len(), Ordering::Relaxed);
        Ok(())
    }

    /// The counters: monotonic, failed IO not counted.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The crash-recovery catalog scan: shard `shard`'s candidate segment
/// files under `dir`, in lexicographic path order (spill filenames embed
/// the time bucket and segment id, so this is also spill order). Only
/// files named `shard{shard:04}-*.dfspan` — the pattern
/// [`SpanStore::spill_before`](crate::SpanStore::spill_before) writes —
/// are candidates; whether one is a valid segment is decided where it is
/// decoded. A missing directory yields no candidates, not an error (a
/// node that never spilled has nothing to recover).
pub fn scan_span_segments(dir: &Path, shard: u16) -> io::Result<Vec<PathBuf>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let prefix = format!("shard{shard:04}-");
    let mut candidates = Vec::new();
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
    Ok(candidates)
}

/// Unique-per-test temp directory with drop cleanup, for tests that touch
/// the filesystem — this crate's and those of the crates above it, whose
/// library code may not call `std::fs`. Parallel test processes get
/// distinct paths (tag + process id + a nanosecond stamp), and the
/// directory is removed when the guard drops — even on assertion failure.
/// A directory that cannot be made shows as the test's first failed write.
#[doc(hidden)]
pub fn test_dir(tag: &str) -> TestDir {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let path = std::env::temp_dir().join(format!("df-{tag}-{}-{stamp}", std::process::id()));
    let _ = fs::create_dir_all(&path);
    TestDir { path }
}

/// Guard returned by [`test_dir`].
#[doc(hidden)]
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    clippy::unreachable,
    reason = "test code; clippy.toml's allow-*-in-tests covers the other four"
)]
mod tests {
    use super::*;
    use df_types::ids::*;

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

    fn demo_segment(n: u64) -> Vec<u8> {
        let spans: Vec<df_types::Span> = (0..n).map(demo_span).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        encode_span_segment(&spans, &rows)
    }

    /// The `(number, name)` rows of the Markdown table between `doc`'s
    /// `<!-- table:BEGIN -->` and `<!-- table:END -->` markers: each row's
    /// first cell and the backticked name in its second. Header and
    /// separator rows have no number and are skipped.
    fn doc_table<'d>(doc: &'d str, table: &str) -> Vec<(u32, &'d str)> {
        let marker = |side: &str| format!("<!-- {table}:{side} -->");
        let (_, rest) = doc.split_once(&marker("BEGIN")).expect("BEGIN marker");
        let (rows, _) = rest.split_once(&marker("END")).expect("END marker");
        let row = |line: &'d str| {
            let mut cells = line.split('|').skip(1).map(str::trim);
            Some((cells.next()?.parse().ok()?, cells.next()?.trim_matches('`')))
        };
        rows.lines().filter_map(row).collect()
    }

    /// The normative document agrees with the codec: magic, version and
    /// the whole section table.
    #[test]
    fn segment_format_doc_matches_the_codec() {
        let doc = include_str!("../../../docs/SEGMENT_FORMAT.md");
        let magic = std::str::from_utf8(SPAN_SEGMENT_MAGIC).unwrap();
        for line in [
            format!("**Segment magic:** `{magic}`"),
            format!("**Segment version:** `{SPAN_SEGMENT_VERSION}`"),
        ] {
            assert!(doc.contains(&line), "SEGMENT_FORMAT.md lacks {line:?}");
        }
        let sections: Vec<(u32, &str)> = (0..).zip(SPAN_SEGMENT_SECTIONS).collect();
        assert_eq!(doc_table(doc, "SEGMENT_SECTIONS"), sections);
    }

    /// The size law: a segment is the header, the DFW batch and the row
    /// numbers, each section behind its length — and nothing else.
    #[test]
    fn span_segment_round_trips_and_is_exactly_batch_plus_rows() {
        let spans: Vec<df_types::Span> = (0..10).map(demo_span).collect();
        let rows: Vec<u32> = (0..10u32).map(|r| r * 3 + 1).collect();
        let bytes = encode_span_segment(&spans, &rows);
        let seg = decode_span_segment(&bytes).unwrap();
        assert_eq!(seg.spans, spans);
        assert_eq!(seg.rows, rows);

        let batch = wire::encode_batch(&spans);
        assert_eq!(
            bytes.len(),
            SPAN_SEGMENT_HEADER_LEN + (8 + batch.len()) + (8 + 4 + 4 * rows.len())
        );
        let spans_at = SPAN_SEGMENT_HEADER_LEN + 8;
        assert_eq!(&bytes[spans_at..spans_at + batch.len()], &batch[..]);
    }

    #[test]
    fn disk_io_round_trips_creating_parents_and_counts() {
        let dir = test_dir("disk-io-rw");
        let path = dir.path().join("nested/dir/blob.bin");
        let disk = DiskIo::default();
        disk.write(&path, &[1, 2, 3, 4]).expect("write");
        assert_eq!(disk.read(&path).expect("read"), vec![1, 2, 3, 4]);
        let st = disk.stats();
        assert_eq!((st.reads, st.writes), (1, 1));
        assert_eq!((st.read_bytes, st.written_bytes), (4, 4));
    }

    #[test]
    fn disk_io_read_of_a_missing_file_is_an_error() {
        let dir = test_dir("disk-io-missing");
        let disk = DiskIo::default();
        assert!(disk.read(&dir.path().join("nope.bin")).is_err());
        assert_eq!(disk.stats(), DiskStats::default(), "not counted");
    }

    fn assert_invalid(bytes: &[u8], why: &str) {
        let err = decode_span_segment(bytes).expect_err(why);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}");
    }

    #[test]
    fn corrupt_span_segments_rejected() {
        let good = demo_segment(3);

        assert_invalid(b"NOTASPANSEGMENT_AT_ALL", "bad magic");
        assert_invalid(&good[..good.len() - 1], "one byte short");
        assert_invalid(&good[..SPAN_SEGMENT_HEADER_LEN + 3], "cut inside a section");
        let mut long = good.clone();
        long.push(0);
        assert_invalid(&long, "one byte long");
        // Foreign versions: the retired v1 layout and a future one.
        for version in [1, 3, 99] {
            let mut bad = good.clone();
            bad[8] = version;
            assert_invalid(&bad, "foreign version");
        }
        let mut bad = good.clone();
        bad[9] = 4;
        assert_invalid(&bad, "wrong section count");
        let mut bad = good.clone();
        bad[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_invalid(&bad, "hostile declared body length");
        // Rows/spans count mismatch: the rows section starts after the
        // header, the 8-byte span-section length and the span bytes; its
        // first 4 bytes (after its own length) are the count.
        let mut bad = good;
        let span_len = u64::from_le_bytes(
            bad[SPAN_SEGMENT_HEADER_LEN..SPAN_SEGMENT_HEADER_LEN + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        bad[SPAN_SEGMENT_HEADER_LEN + 8 + span_len + 8] = 2;
        assert_invalid(&bad, "rows count disagrees with span count");
    }

    #[test]
    fn hostile_span_section_lengths_rejected_without_wrapping() {
        let good = demo_segment(2);
        // First section claims a near-u64::MAX length: slicing math must
        // not wrap around the body, it must error.
        for hostile in [u64::MAX, u64::MAX - 7, good.len() as u64 * 2] {
            let mut bad = good.clone();
            bad[SPAN_SEGMENT_HEADER_LEN..SPAN_SEGMENT_HEADER_LEN + 8]
                .copy_from_slice(&hostile.to_le_bytes());
            assert_invalid(&bad, "hostile section length");
        }
    }
}
