//! The Fig. 14 comparison substrate: typed columns with byte-accurate
//! memory accounting and a compact binary serialisation (the "disk"), and
//! one table of tag columns ingested under one of the three encodings the
//! paper compares (§5.2), with CPU / memory / disk accounting.
//!
//! * **direct** — tags as plain strings ("storing a tag as a string
//!   requires more bytes (one char per digit) and thus more calculation
//!   and hardware resources");
//! * **low-cardinality** — ClickHouse's per-column dictionary encoding;
//! * **smart-encoding** — DeepFlow's scheme: tags arrive already as global
//!   dictionary integers (the string→int mapping happened *once*, at tag
//!   collection time — §3.4), so the store just writes fixed-width ints.

use std::collections::HashMap;
use std::time::Instant;

/// A typed column.
#[derive(Debug, Clone)]
pub enum Column {
    /// Fixed-width 32-bit integers (smart-encoded tags).
    U32(Vec<u32>),
    /// Plain strings (direct insertion).
    Str(Vec<String>),
    /// Dictionary-encoded strings (ClickHouse LowCardinality analogue):
    /// a per-column dictionary plus per-row codes.
    LowCard {
        /// Distinct values, in insertion order.
        dict: Vec<String>,
        /// Value → code lookup used during ingestion.
        index: HashMap<String, u32>,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
}

impl Column {
    /// New empty low-cardinality column.
    pub fn new_lowcard() -> Column {
        Column::LowCard {
            dict: Vec::new(),
            index: HashMap::new(),
            codes: Vec::new(),
        }
    }

    /// Push an integer (only for `U32`).
    pub fn push_int(&mut self, v: u64) {
        match self {
            Column::U32(c) => c.push(v as u32),
            _ => panic!("push_int on a string column"),
        }
    }

    /// Push a string (only for `Str`/`LowCard`).
    pub fn push_str(&mut self, v: &str) {
        match self {
            Column::Str(c) => c.push(v.to_string()),
            Column::LowCard { dict, index, codes } => {
                let code = match index.get(v) {
                    Some(c) => *c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(v.to_string());
                        index.insert(v.to_string(), c);
                        c
                    }
                };
                codes.push(code);
            }
            _ => panic!("push_str on an integer column"),
        }
    }

    /// Rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::LowCard { codes, .. } => codes.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident memory estimate.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::U32(c) => c.capacity() * 4,
            Column::Str(c) => {
                c.capacity() * std::mem::size_of::<String>()
                    + c.iter().map(|s| s.capacity()).sum::<usize>()
            }
            Column::LowCard { dict, index, codes } => {
                codes.capacity() * 4
                    + dict.capacity() * std::mem::size_of::<String>()
                    + dict.iter().map(|s| s.capacity()).sum::<usize>()
                    // HashMap entry ≈ key String header + heap + bucket slot
                    + index.capacity()
                        * (std::mem::size_of::<String>() + 4 + 16)
                    + index.keys().map(|s| s.capacity()).sum::<usize>()
            }
        }
    }

    /// Serialise to the on-disk byte format.
    pub fn to_disk(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Column::U32(c) => {
                out.push(0u8);
                out.extend_from_slice(&(c.len() as u64).to_le_bytes());
                for v in c {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Str(c) => {
                out.push(2u8);
                out.extend_from_slice(&(c.len() as u64).to_le_bytes());
                for s in c {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
            Column::LowCard { dict, codes, .. } => {
                out.push(3u8);
                out.extend_from_slice(&(dict.len() as u64).to_le_bytes());
                for s in dict {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                out.extend_from_slice(&(codes.len() as u64).to_le_bytes());
                // Code width adapts to dictionary size, like ClickHouse.
                if dict.len() <= u8::MAX as usize + 1 {
                    out.push(1);
                    for c in codes {
                        out.push(*c as u8);
                    }
                } else if dict.len() <= u16::MAX as usize + 1 {
                    out.push(2);
                    for c in codes {
                        out.extend_from_slice(&(*c as u16).to_le_bytes());
                    }
                } else {
                    out.push(4);
                    for c in codes {
                        out.extend_from_slice(&c.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Deserialise from the on-disk byte format; `None` for anything
    /// [`Column::to_disk`] could not have written.
    pub fn from_disk(buf: &[u8]) -> Option<(Column, usize)> {
        let tag = *buf.first()?;
        let mut off = 1usize;
        // An element count, refused unless the bytes left could hold that
        // many elements of at least `min_width` bytes each — checked before
        // anything is allocated for them.
        let read_count = |off: &mut usize, min_width: usize| -> Option<usize> {
            let n = u64::from_le_bytes(buf.get(*off..*off + 8)?.try_into().ok()?);
            *off += 8;
            let n = usize::try_from(n).ok()?;
            (n <= (buf.len() - *off) / min_width).then_some(n)
        };
        match tag {
            0 => {
                let n = read_count(&mut off, 4)?;
                let mut c = Vec::with_capacity(n);
                for _ in 0..n {
                    c.push(u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?));
                    off += 4;
                }
                Some((Column::U32(c), off))
            }
            2 => {
                let n = read_count(&mut off, 4)?;
                let mut c = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?) as usize;
                    off += 4;
                    let s = std::str::from_utf8(buf.get(off..off + len)?).ok()?;
                    off += len;
                    c.push(s.to_string());
                }
                Some((Column::Str(c), off))
            }
            3 => {
                let dn = read_count(&mut off, 4)?;
                let mut dict = Vec::with_capacity(dn);
                for _ in 0..dn {
                    let len = u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?) as usize;
                    off += 4;
                    let s = std::str::from_utf8(buf.get(off..off + len)?).ok()?;
                    off += len;
                    dict.push(s.to_string());
                }
                let cn = read_count(&mut off, 1)?;
                let width = *buf.get(off)?;
                off += 1;
                let mut codes = Vec::with_capacity(cn);
                for _ in 0..cn {
                    let code = match width {
                        1 => {
                            let v = u32::from(*buf.get(off)?);
                            off += 1;
                            v
                        }
                        2 => {
                            let v = u32::from(u16::from_le_bytes(
                                buf.get(off..off + 2)?.try_into().ok()?,
                            ));
                            off += 2;
                            v
                        }
                        _ => {
                            let v = u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?);
                            off += 4;
                            v
                        }
                    };
                    codes.push(code);
                }
                let index = dict
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.clone(), i as u32))
                    .collect();
                Some((Column::LowCard { dict, index, codes }, off))
            }
            _ => None,
        }
    }

    /// Read row `i` as a display string (for query results).
    pub fn get_display(&self, i: usize) -> Option<String> {
        match self {
            Column::U32(c) => c.get(i).map(u32::to_string),
            Column::Str(c) => c.get(i).cloned(),
            Column::LowCard { dict, codes, .. } => codes
                .get(i)
                .and_then(|code| dict.get(*code as usize))
                .cloned(),
        }
    }
}

/// How tag columns are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagEncoding {
    /// Direct insertion: plain strings.
    Plain,
    /// Per-column dictionary (ClickHouse LowCardinality).
    LowCardinality,
    /// Smart-encoding: values arrive as global dictionary ints (the
    /// string→int conversion happened once, off the ingest path — §3.4).
    SmartInt,
}

impl TagEncoding {
    /// Display name matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            TagEncoding::Plain => "direct",
            TagEncoding::LowCardinality => "low-cardinality",
            TagEncoding::SmartInt => "smart-encoding",
        }
    }
}

/// Aggregate resource accounting for an ingest run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Rows ingested.
    pub rows: usize,
    /// Wall-clock CPU seconds spent in `ingest`.
    pub cpu_seconds: f64,
    /// Resident memory estimate after ingest (bytes).
    pub memory_bytes: usize,
    /// Serialised size (bytes).
    pub disk_bytes: usize,
}

/// A table of `width` tag columns under one encoding.
#[derive(Debug)]
pub struct TagTable {
    encoding: TagEncoding,
    columns: Vec<Column>,
    rows: usize,
    cpu_seconds: f64,
}

impl TagTable {
    /// Create a table with `width` tag columns.
    pub fn new(encoding: TagEncoding, width: usize) -> Self {
        let columns = (0..width)
            .map(|_| match encoding {
                TagEncoding::Plain => Column::Str(Vec::new()),
                TagEncoding::LowCardinality => Column::new_lowcard(),
                TagEncoding::SmartInt => Column::U32(Vec::new()),
            })
            .collect();
        TagTable {
            encoding,
            columns,
            rows: 0,
            cpu_seconds: 0.0,
        }
    }

    /// Ingest rows of *string* tag values (Plain / LowCardinality): each row
    /// is one value per column. For SmartInt tables use
    /// [`TagTable::ingest_int_rows`] — handing strings to a smart-encoded
    /// table would charge it a conversion it does not perform on the ingest
    /// path.
    pub fn ingest_string_rows<'a, I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = &'a [String]>,
    {
        assert_ne!(
            self.encoding,
            TagEncoding::SmartInt,
            "smart-encoded tables ingest ints"
        );
        let t0 = Instant::now();
        for row in rows {
            assert_eq!(row.len(), self.columns.len(), "row width mismatch");
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push_str(v);
            }
            self.rows += 1;
        }
        self.cpu_seconds += t0.elapsed().as_secs_f64();
    }

    /// Ingest rows of pre-encoded integer tags (SmartInt).
    pub fn ingest_int_rows<'a, I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        assert_eq!(self.encoding, TagEncoding::SmartInt);
        let t0 = Instant::now();
        for row in rows {
            assert_eq!(row.len(), self.columns.len(), "row width mismatch");
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push_int(u64::from(*v));
            }
            self.rows += 1;
        }
        self.cpu_seconds += t0.elapsed().as_secs_f64();
    }

    /// Rows ingested.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Serialise all columns (the "disk" bytes).
    pub fn to_disk(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for c in &self.columns {
            let bytes = c.to_disk();
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Resident memory estimate.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(Column::memory_bytes).sum()
    }

    /// Read one cell back as display text (sanity checks / scans).
    pub fn cell(&self, row: usize, col: usize) -> Option<String> {
        self.columns.get(col)?.get_display(row)
    }

    /// Full accounting.
    pub fn report(&self) -> IngestReport {
        let t0 = Instant::now();
        let disk = self.to_disk().len();
        let ser = t0.elapsed().as_secs_f64();
        IngestReport {
            rows: self.rows,
            cpu_seconds: self.cpu_seconds + ser,
            memory_bytes: self.memory_bytes(),
            disk_bytes: disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_columns_round_trip() {
        let mut c = Column::U32(Vec::new());
        for v in [1u64, 2, 3, u32::MAX as u64] {
            c.push_int(v);
        }
        let disk = c.to_disk();
        let (back, used) = Column::from_disk(&disk).unwrap();
        assert_eq!(used, disk.len());
        assert_eq!(back.get_display(3), Some(u32::MAX.to_string()));
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn str_column_round_trip() {
        let mut c = Column::Str(Vec::new());
        c.push_str("pod-a");
        c.push_str("pod-b");
        let disk = c.to_disk();
        let (back, _) = Column::from_disk(&disk).unwrap();
        assert_eq!(back.get_display(1), Some("pod-b".to_string()));
    }

    #[test]
    fn lowcard_deduplicates_and_round_trips() {
        let mut c = Column::new_lowcard();
        for _ in 0..1000 {
            c.push_str("prod-cluster");
            c.push_str("stage-cluster");
        }
        let Column::LowCard { dict, codes, .. } = &c else {
            unreachable!()
        };
        assert_eq!(dict.len(), 2);
        assert_eq!(codes.len(), 2000);
        let disk = c.to_disk();
        let (back, _) = Column::from_disk(&disk).unwrap();
        assert_eq!(back.get_display(0), Some("prod-cluster".to_string()));
        assert_eq!(back.get_display(1), Some("stage-cluster".to_string()));
    }

    #[test]
    fn lowcard_disk_is_smaller_than_plain_for_repetitive_data() {
        let mut plain = Column::Str(Vec::new());
        let mut lc = Column::new_lowcard();
        for i in 0..10_000 {
            let v = format!("value-{}", i % 10);
            plain.push_str(&v);
            lc.push_str(&v);
        }
        assert!(
            lc.to_disk().len() < plain.to_disk().len() / 4,
            "lowcard {} vs plain {}",
            lc.to_disk().len(),
            plain.to_disk().len()
        );
    }

    #[test]
    fn smart_int_disk_is_smaller_than_lowcard_for_high_cardinality() {
        // High-cardinality tags (e.g. pod ids in a big cluster) defeat
        // dictionary encoding — the paper's reason smart-encoding wins.
        let mut smart = Column::U32(Vec::new());
        let mut lc = Column::new_lowcard();
        for i in 0..10_000u32 {
            smart.push_int(u64::from(i));
            lc.push_str(&format!("pod-name-with-long-suffix-{i}"));
        }
        assert!(smart.to_disk().len() < lc.to_disk().len() / 3);
        assert!(smart.memory_bytes() < lc.memory_bytes() / 3);
    }

    #[test]
    fn lowcard_code_width_grows_with_dictionary() {
        let mut small = Column::new_lowcard();
        for i in 0..100 {
            small.push_str(&format!("v{}", i % 10));
        }
        let mut big = Column::new_lowcard();
        for i in 0..1000 {
            big.push_str(&format!("v{i}"));
        }
        // 10-entry dict → 1-byte codes; 1000-entry dict → 2-byte codes.
        let (sb, bb) = (small.to_disk(), big.to_disk());
        let (s, _) = Column::from_disk(&sb).unwrap();
        let (b, _) = Column::from_disk(&bb).unwrap();
        assert_eq!(s.len(), 100);
        assert_eq!(b.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "push_int on a string column")]
    fn type_confusion_panics() {
        let mut c = Column::Str(Vec::new());
        c.push_int(1);
    }

    #[test]
    fn from_disk_rejects_garbage() {
        assert!(Column::from_disk(&[]).is_none());
        assert!(Column::from_disk(&[9, 0, 0]).is_none());
        // One element declared, one byte present.
        assert!(Column::from_disk(&[0, 1, 0, 0, 0, 0, 0, 0, 0, 1]).is_none());
        // Hostile counts: refused before any allocation is sized by them.
        let hostile = |tag: u8, count: u64| [&[tag][..], &count.to_le_bytes()].concat();
        assert!(Column::from_disk(&hostile(0, u64::MAX)).is_none());
        assert!(Column::from_disk(&hostile(3, 1 << 40)).is_none());
    }

    fn string_rows(n: usize, width: usize, cardinality: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..width)
                    .map(|c| format!("tag{}-value-{}", c, (i * 31 + c) % cardinality))
                    .collect()
            })
            .collect()
    }

    fn int_rows(n: usize, width: usize, cardinality: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                (0..width)
                    .map(|c| ((i * 31 + c) % cardinality) as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_three_encodings_store_the_same_logical_rows() {
        let n = 500;
        let w = 4;
        let srows = string_rows(n, w, 10);
        let irows = int_rows(n, w, 10);

        let mut plain = TagTable::new(TagEncoding::Plain, w);
        plain.ingest_string_rows(srows.iter().map(|r| r.as_slice()));
        let mut lc = TagTable::new(TagEncoding::LowCardinality, w);
        lc.ingest_string_rows(srows.iter().map(|r| r.as_slice()));
        let mut smart = TagTable::new(TagEncoding::SmartInt, w);
        smart.ingest_int_rows(irows.iter().map(|r| r.as_slice()));

        assert_eq!(plain.rows(), n);
        assert_eq!(lc.rows(), n);
        assert_eq!(smart.rows(), n);
        // Cells readable under every encoding.
        assert_eq!(plain.cell(3, 1), lc.cell(3, 1));
        assert_eq!(smart.cell(3, 1), Some(format!("{}", (3 * 31 + 1) % 10)));
    }

    /// Production tag profile: a mix of low-cardinality locality tags
    /// (region/az/vpc/cluster) and high-cardinality identity tags (pod
    /// names, IPs — unique-ish per row). The mix is what makes
    /// smart-encoding win overall in Fig. 14: dictionary encoding degrades
    /// to storing every distinct string once anyway on the identity tags,
    /// while smart-encoding stays at 4 bytes per cell.
    fn production_profile() -> Vec<usize> {
        vec![4, 8, 16, 32, 1_000, 5_000, 20_000, 20_000]
    }

    fn production_string_rows(n: usize, cards: &[usize]) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                cards
                    .iter()
                    .enumerate()
                    .map(|(c, card)| format!("k8s-tag{}-value-{:010}", c, (i * 31 + c) % card))
                    .collect()
            })
            .collect()
    }

    fn production_int_rows(n: usize, cards: &[usize]) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                cards
                    .iter()
                    .enumerate()
                    .map(|(c, card)| ((i * 31 + c) % card) as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn resource_ordering_matches_fig14() {
        // smart < low-cardinality < direct, for disk, on production-shaped
        // tag data (mixed cardinality).
        let n = 20_000;
        let cards = production_profile();
        let w = cards.len();
        let srows = production_string_rows(n, &cards);
        let irows = production_int_rows(n, &cards);

        let mut plain = TagTable::new(TagEncoding::Plain, w);
        plain.ingest_string_rows(srows.iter().map(|r| r.as_slice()));
        let mut lc = TagTable::new(TagEncoding::LowCardinality, w);
        lc.ingest_string_rows(srows.iter().map(|r| r.as_slice()));
        let mut smart = TagTable::new(TagEncoding::SmartInt, w);
        smart.ingest_int_rows(irows.iter().map(|r| r.as_slice()));

        let (p, l, s) = (plain.report(), lc.report(), smart.report());
        assert!(
            s.disk_bytes < l.disk_bytes && l.disk_bytes < p.disk_bytes,
            "disk: smart {} < lowcard {} < direct {}",
            s.disk_bytes,
            l.disk_bytes,
            p.disk_bytes
        );
        assert!(
            s.memory_bytes < p.memory_bytes,
            "memory: smart {} < direct {}",
            s.memory_bytes,
            p.memory_bytes
        );
    }

    #[test]
    #[should_panic(expected = "smart-encoded tables ingest ints")]
    fn smart_table_rejects_string_ingest() {
        let rows = string_rows(1, 2, 2);
        let mut t = TagTable::new(TagEncoding::SmartInt, 2);
        t.ingest_string_rows(rows.iter().map(|r| r.as_slice()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = TagTable::new(TagEncoding::Plain, 3);
        let row = vec!["a".to_string()];
        t.ingest_string_rows([row.as_slice()]);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(TagEncoding::Plain.label(), "direct");
        assert_eq!(TagEncoding::LowCardinality.label(), "low-cardinality");
        assert_eq!(TagEncoding::SmartInt.label(), "smart-encoding");
    }
}
