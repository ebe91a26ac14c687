//! A batch's tables, each in first-use order: the tag dictionary (every
//! string the batch carries, once), the flow table (each flow context once)
//! and the metrics table (each distinct flow-metrics snapshot once).
//! [`Table`] builds each at encode time; [`Tables`] reads them back.

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

use super::decode::Cursor;
use super::{put_varint_u64, WireDecodeError};
use crate::hash::IntMap;
use crate::ids::{AgentId, FlowId, NodeId};
use crate::metrics::FlowMetrics;
use crate::net::{FiveTuple, TransportProtocol};
use crate::time::DurationNs;
use std::borrow::Borrow;
use std::cell::OnceCell;
use std::hash::Hash;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Encode side of a per-batch table: each distinct key gets the next id
/// the first time it is seen, and its entry's bytes are written then, so
/// the table is in first-use order whatever the map's seed. The map's
/// key is the one owned copy of an entry.
#[derive(Debug)]
pub(super) struct Table<K> {
    index: IntMap<K, u32>,
    /// The entries, encoded, in id order.
    pub(super) bytes: Vec<u8>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            index: IntMap::default(),
            bytes: Vec::new(),
        }
    }
}

impl<K: Hash + Eq> Table<K> {
    /// A table with room for `entries` entries of `bytes` bytes in all.
    pub(super) fn with_capacity(entries: usize, bytes: usize) -> Self {
        Table {
            index: IntMap::with_capacity_and_hasher(entries, Default::default()),
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// The id of `key`, writing its entry with `write` on first use.
    pub(super) fn id<Q>(&mut self, key: &Q, write: impl FnOnce(&mut Vec<u8>)) -> u32
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        let id = self.index.len() as u32;
        write(&mut self.bytes);
        self.index.insert(key.to_owned(), id);
        id
    }

    /// The number of entries.
    pub(super) fn len(&self) -> u64 {
        self.index.len() as u64
    }
}

impl Table<String> {
    /// The id of `s` in the string dictionary; an entry is its length and
    /// its UTF-8 bytes.
    pub(super) fn intern(&mut self, s: &str) -> u32 {
        self.id(s, |out| {
            put_varint_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        })
    }
}

/// One flow-table entry: the context every span of one flow seen at one
/// capture point carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct Flow {
    pub(super) agent: AgentId,
    pub(super) node: NodeId,
    pub(super) flow_id: FlowId,
    pub(super) five_tuple: FiveTuple,
}

impl Flow {
    /// The entry: agent, node and flow id as varints, then the five-tuple's
    /// 13 fixed bytes.
    pub(super) fn write(&self, out: &mut Vec<u8>) {
        put_varint_u64(out, u64::from(self.agent.0));
        put_varint_u64(out, u64::from(self.node.0));
        put_varint_u64(out, self.flow_id.0);
        let ft = &self.five_tuple;
        out.extend_from_slice(&ft.src_ip.octets());
        out.extend_from_slice(&ft.dst_ip.octets());
        out.extend_from_slice(&ft.src_port.to_le_bytes());
        out.extend_from_slice(&ft.dst_port.to_le_bytes());
        out.push(match ft.protocol {
            TransportProtocol::Tcp => 0,
            TransportProtocol::Udp => 1,
        });
    }

    fn parse(cur: &mut Cursor<'_>) -> Result<Flow, WireDecodeError> {
        let agent = AgentId(cur.varint_u32("agent")?);
        let node = NodeId(cur.varint_u32("node")?);
        let flow_id = FlowId(cur.varint_u64("flow_id")?);
        let &[s0, s1, s2, s3, d0, d1, d2, d3, sp0, sp1, dp0, dp1, proto] =
            cur.take(13, "five_tuple")?
        else {
            return Err(WireDecodeError::Truncated {
                context: "five_tuple",
            });
        };
        let five_tuple = FiveTuple {
            src_ip: Ipv4Addr::new(s0, s1, s2, s3),
            dst_ip: Ipv4Addr::new(d0, d1, d2, d3),
            src_port: u16::from_le_bytes([sp0, sp1]),
            dst_port: u16::from_le_bytes([dp0, dp1]),
            protocol: match proto {
                0 => TransportProtocol::Tcp,
                1 => TransportProtocol::Udp,
                v => {
                    return Err(WireDecodeError::BadEnum {
                        field: "transport_protocol",
                        value: v,
                    })
                }
            },
        };
        Ok(Flow {
            agent,
            node,
            flow_id,
            five_tuple,
        })
    }
}

/// A metrics-table entry: ten varints, then `established` as one byte.
pub(super) fn write_metrics(out: &mut Vec<u8>, fm: &FlowMetrics) {
    for v in [
        fm.packets_tx,
        fm.packets_rx,
        fm.bytes_tx,
        fm.bytes_rx,
        fm.retransmissions,
        fm.resets,
        fm.zero_windows,
        fm.syn_retries,
        fm.rtt.0,
        fm.srt.0,
    ] {
        put_varint_u64(out, v);
    }
    out.push(fm.established as u8);
}

fn parse_metrics(cur: &mut Cursor<'_>) -> Result<FlowMetrics, WireDecodeError> {
    Ok(FlowMetrics {
        packets_tx: cur.varint_u64("fm_packets_tx")?,
        packets_rx: cur.varint_u64("fm_packets_rx")?,
        bytes_tx: cur.varint_u64("fm_bytes_tx")?,
        bytes_rx: cur.varint_u64("fm_bytes_rx")?,
        retransmissions: cur.varint_u64("fm_retransmissions")?,
        resets: cur.varint_u64("fm_resets")?,
        zero_windows: cur.varint_u64("fm_zero_windows")?,
        syn_retries: cur.varint_u64("fm_syn_retries")?,
        rtt: DurationNs(cur.varint_u64("fm_rtt")?),
        srt: DurationNs(cur.varint_u64("fm_srt")?),
        established: match cur.u8("fm_established")? {
            0 => false,
            1 => true,
            v => {
                return Err(WireDecodeError::BadEnum {
                    field: "fm_established",
                    value: v,
                })
            }
        },
    })
}

/// The fewest bytes a flow entry (three one-byte varints and the
/// five-tuple) and a metrics entry (eleven one-byte fields) can take.
const FLOW_MIN_BYTES: u64 = 16;
const METRICS_MIN_BYTES: u64 = 11;

/// A flow- or metrics-table slot; the variant says which table it
/// belongs to.
enum Slot {
    Flow(Flow),
    Metrics(FlowMetrics),
}

/// Decode side, in two allocations sized once however many rows the
/// tables hold: each dictionary entry as a slice of the input beside its
/// shared name (made the first time a record names it as one), and the
/// flow table followed by the metrics table. A dictionary entry, which
/// can take one input byte, costs its 32-byte cell and no table slot.
pub(super) struct Tables<'a> {
    dict: Vec<(&'a str, OnceCell<Arc<str>>)>,
    slots: Vec<Slot>,
    pub(super) flows: u32,
    pub(super) metrics: u32,
}

impl<'a> Tables<'a> {
    /// Read the dictionary and the two tables at the cursor.
    pub(super) fn parse(cur: &mut Cursor<'a>) -> Result<Tables<'a>, WireDecodeError> {
        let dict_len = cur.varint_u32("dict_count")?;
        // Hostile counts cannot force huge allocations: capacity is capped
        // by what the remaining bytes could possibly hold (≥1 byte/entry).
        let mut dict = Vec::with_capacity((dict_len as usize).min(cur.remaining()));
        for index in 0..dict_len {
            let len = cur.varint_u32("dict_entry_len")? as usize;
            let raw = cur.take(len, "dict_entry")?;
            let s = std::str::from_utf8(raw).map_err(|_| WireDecodeError::BadUtf8 { index })?;
            dict.push((s, OnceCell::new()));
        }
        let flows = cur.varint_u32("flow_count")?;
        let metrics = cur.varint_u32("metrics_count")?;
        // A count the rest of the frame cannot hold is refused before
        // anything is sized by it.
        let least = (u64::from(flows).saturating_mul(FLOW_MIN_BYTES))
            .saturating_add(u64::from(metrics).saturating_mul(METRICS_MIN_BYTES));
        if least > cur.remaining() as u64 {
            return Err(WireDecodeError::Truncated { context: "tables" });
        }
        let mut slots = Vec::with_capacity((flows as usize).saturating_add(metrics as usize));
        for _ in 0..flows {
            slots.push(Slot::Flow(Flow::parse(cur)?));
        }
        for _ in 0..metrics {
            slots.push(Slot::Metrics(parse_metrics(cur)?));
        }
        Ok(Tables {
            dict,
            slots,
            flows,
            metrics,
        })
    }

    /// The dictionary's entries, in order.
    pub(super) fn strs(&self) -> impl ExactSizeIterator<Item = &'a str> + '_ {
        self.dict.iter().map(|&(s, _)| s)
    }

    fn entry(&self, index: u32) -> Result<&(&'a str, OnceCell<Arc<str>>), WireDecodeError> {
        self.dict
            .get(index as usize)
            .ok_or(WireDecodeError::BadDictIndex {
                index,
                len: self.dict.len() as u32,
            })
    }

    pub(super) fn get(&self, index: u32) -> Result<&'a str, WireDecodeError> {
        Ok(self.entry(index)?.0)
    }

    /// Entry `index` as a shared name: the spans of the batch that name it
    /// share one allocation.
    pub(super) fn shared_name(&self, index: u32) -> Result<Arc<str>, WireDecodeError> {
        let (name, cell) = self.entry(index)?;
        Ok(Arc::clone(cell.get_or_init(|| Arc::from(*name))))
    }

    /// Flow-table entry `index`. An index past the table reaches a
    /// metrics slot, or none, so the slot's variant is the bounds check.
    pub(super) fn flow(&self, index: u32) -> Result<&Flow, WireDecodeError> {
        match self.slots.get(index as usize) {
            Some(Slot::Flow(flow)) => Ok(flow),
            _ => Err(WireDecodeError::BadTableIndex {
                table: "flows",
                index,
                len: self.flows,
            }),
        }
    }

    /// Metrics-table entry `index`.
    pub(super) fn metrics(&self, index: u32) -> Result<&FlowMetrics, WireDecodeError> {
        let at = (self.flows as usize).saturating_add(index as usize);
        match self.slots.get(at) {
            Some(Slot::Metrics(metrics)) => Ok(metrics),
            _ => Err(WireDecodeError::BadTableIndex {
                table: "metrics",
                index,
                len: self.metrics,
            }),
        }
    }
}
