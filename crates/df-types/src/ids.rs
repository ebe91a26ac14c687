//! Strongly typed identifiers.
//!
//! Every entity in the substrate gets its own id newtype so that a process id
//! can never be accidentally used where a socket id is expected. Ids are
//! allocated by the subsystem that owns the entity (kernel for pids/tids/
//! sockets, agent for systrace ids, server for span ids).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw integer value.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// OS process id inside one simulated kernel.
    Pid, u32, "pid-"
);
id_type!(
    /// OS thread id inside one simulated kernel. Globally unique within a
    /// node (like Linux, tids share the pid namespace).
    Tid, u32, "tid-"
);
id_type!(
    /// Coroutine (goroutine-style) id inside one process. DeepFlow tracks
    /// coroutine creation to build "pseudo threads" (paper §3.3.1).
    CoroutineId, u64, "go-"
);
id_type!(
    /// DeepFlow-assigned globally unique socket id (paper §3.2.1, network
    /// information category).
    SocketId, u64, "sock-"
);
id_type!(
    /// A network flow (one TCP connection / UDP pseudo-connection) as seen by
    /// the flow table.
    FlowId, u64, "flow-"
);
id_type!(
    /// Node (VM / container host / physical machine) hosting one simulated
    /// kernel and one DeepFlow agent.
    NodeId, u32, "node-"
);
id_type!(
    /// The systrace id: DeepFlow's implicit intra-component correlation id,
    /// assigned to consecutive ingress/egress messages of different types on
    /// different sockets within one thread (paper §3.3.2, Figure 7).
    SysTraceId, u64, "systrace-"
);
id_type!(
    /// Pseudo-thread id: identifies a chain of coroutines that belong to the
    /// same logical execution (paper §3.3.1, "pseudo-thread structure").
    PseudoThreadId, u64, "pth-"
);
id_type!(
    /// Storage-assigned unique span id.
    SpanId, u64, "span-"
);
id_type!(
    /// Interface (NIC / veth / bridge port) index inside a node.
    IfIndex, u32, "if-"
);
id_type!(
    /// Agent instance id (one per node).
    AgentId, u32, "agent-"
);

/// A third-party (explicit-propagation) trace id, as carried in W3C
/// `traceparent` or Zipkin B3 headers. 128-bit like OpenTelemetry's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OtelTraceId(pub u128);

impl OtelTraceId {
    /// Render as the 32-hex-digit form used on the wire.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the 32-hex-digit wire form.
    pub fn from_hex(s: &str) -> Option<Self> {
        decode_hex(s, 32, None).map(OtelTraceId)
    }
}

impl fmt::Display for OtelTraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "otel-{:032x}", self.0)
    }
}

/// A third-party span id (64-bit, as in W3C trace context / B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OtelSpanId(pub u64);

impl OtelSpanId {
    /// Render as the 16-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the 16-hex-digit wire form.
    pub fn from_hex(s: &str) -> Option<Self> {
        decode_hex(s, 16, None).map(|v| OtelSpanId(v as u64))
    }
}

impl fmt::Display for OtelSpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "otelspan-{:016x}", self.0)
    }
}

/// An `X-Request-ID` value generated by a proxy (Nginx / Envoy / HAProxy).
/// DeepFlow uses these for cross-thread intra-component association
/// (paper §3.3.2). Represented as a 128-bit value (UUID-shaped on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct XRequestId(pub u128);

impl XRequestId {
    /// Render in the UUID-ish form proxies emit.
    pub fn to_wire(self) -> String {
        let b = self.0;
        format!(
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (b >> 96) as u32,
            (b >> 80) as u16,
            (b >> 64) as u16,
            (b >> 48) as u16,
            b & 0xffff_ffff_ffff
        )
    }

    /// Parse the UUID-ish wire form: 32 hex digits, `-` anywhere.
    pub fn from_wire(s: &str) -> Option<Self> {
        decode_hex(s, 32, Some(b'-')).map(XRequestId)
    }
}

impl fmt::Display for XRequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xreq-{}", self.to_wire())
    }
}

/// Decode exactly `digits` (≤ 32) hex digits of `s`, either case, in
/// place, ignoring every `skip` byte. Anything else, a sign included,
/// rejects the input. The digits shift through two `u64` halves, and the
/// count is checked once, at the end.
fn decode_hex(s: &str, digits: usize, skip: Option<u8>) -> Option<u128> {
    let (mut hi, mut lo, mut seen) = (0u64, 0u64, 0);
    for &b in s.as_bytes() {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ if Some(b) == skip => continue,
            _ => return None,
        };
        (hi, lo) = (hi << 4 | lo >> 60, lo << 4 | u64::from(nibble));
        seen += 1;
    }
    (seen == digits).then_some(u128::from(hi) << 64 | u128::from(lo))
}

/// A simple monotonically increasing id allocator, used by subsystems that
/// own an id space. Starts at 1 so that 0 can mean "unset" in wire formats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// New allocator whose first issued id is 1.
    pub fn new() -> Self {
        IdAllocator { next: 1 }
    }

    /// Issue the next id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// How many ids have been issued.
    pub fn issued(&self) -> u64 {
        self.next - 1
    }
}

impl Default for IdAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_uses_prefix() {
        assert_eq!(Pid(7).to_string(), "pid-7");
        assert_eq!(SocketId(42).to_string(), "sock-42");
        assert_eq!(SysTraceId(3).to_string(), "systrace-3");
    }

    #[test]
    fn otel_trace_id_hex_round_trip() {
        let id = OtelTraceId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let hex = id.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(OtelTraceId::from_hex(&hex), Some(id));
        assert_eq!(OtelTraceId::from_hex("zz"), None);
        assert_eq!(OtelTraceId::from_hex(&hex[..30]), None);
    }

    #[test]
    fn otel_span_id_hex_round_trip() {
        let id = OtelSpanId(0xdead_beef_0000_0001);
        assert_eq!(OtelSpanId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(OtelSpanId::from_hex("123"), None);
    }

    #[test]
    fn x_request_id_wire_round_trip() {
        let id = XRequestId(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        let wire = id.to_wire();
        assert_eq!(wire.len(), 36); // uuid shape
        assert_eq!(XRequestId::from_wire(&wire), Some(id));
        assert_eq!(XRequestId::from_wire("not-a-uuid"), None);
    }

    /// The decoders' previous definition, the differential's oracle:
    /// drop the `-`s (X-Request-ID only), check the digit count, then
    /// `from_str_radix`.
    fn by_radix(s: &str, digits: usize, dashes: bool) -> Option<u128> {
        let hex: String = s.chars().filter(|c| !dashes || *c != '-').collect();
        if hex.len() != digits {
            return None;
        }
        u128::from_str_radix(&hex, 16).ok()
    }

    /// Mostly hex digits of both cases, then `-`, `+` and non-hex bytes.
    fn pick(i: usize) -> char {
        const HEX: &[u8] = b"0123456789abcdefABCDEF";
        match i {
            0..=189 => char::from(HEX[i % HEX.len()]),
            190..=194 => '-',
            195..=196 => '+',
            197 => 'g',
            198 => ' ',
            _ => 'é',
        }
    }

    proptest::proptest! {
        /// Every prefix of a drawn string, and the prefix with a `+` in
        /// front, decodes as `from_str_radix` does, except that a `+` sign
        /// is refused (see the test below).
        #[test]
        fn in_place_decoders_match_from_str_radix(
            picks in proptest::collection::vec(0..200usize, 40),
        ) {
            let text: String = picks.into_iter().map(pick).collect();
            for (end, _) in text.char_indices().chain([(text.len(), ' ')]) {
                for s in [&text[..end], &format!("+{}", &text[..end])] {
                    let want = |v: Option<u128>| v.filter(|_| !s.contains('+'));
                    proptest::prop_assert_eq!(
                        OtelTraceId::from_hex(s),
                        want(by_radix(s, 32, false)).map(OtelTraceId),
                        "{s:?}"
                    );
                    proptest::prop_assert_eq!(
                        OtelSpanId::from_hex(s),
                        want(by_radix(s, 16, false)).map(|v| OtelSpanId(v as u64)),
                        "{s:?}"
                    );
                    proptest::prop_assert_eq!(
                        XRequestId::from_wire(s),
                        want(by_radix(s, 32, true)).map(XRequestId),
                        "{s:?}"
                    );
                }
            }
        }
    }

    /// `from_str_radix` takes a leading `+`, so the old decoders accepted
    /// `+` and 31 digits as an id. The wire forms are bare hex: refused.
    #[test]
    fn a_plus_sign_is_not_a_hex_digit() {
        let trace = format!("+{}", "f".repeat(31));
        assert!(by_radix(&trace, 32, false).is_some());
        assert_eq!(OtelTraceId::from_hex(&trace), None);
        assert_eq!(OtelSpanId::from_hex(&format!("+{}", "1".repeat(15))), None);
        assert_eq!(
            XRequestId::from_wire("+0000000-0000-0000-0000-000000000000"),
            None
        );
    }

    #[test]
    fn allocator_is_monotonic_and_starts_at_one() {
        let mut alloc = IdAllocator::new();
        assert_eq!(alloc.next_id(), 1);
        assert_eq!(alloc.next_id(), 2);
        assert_eq!(alloc.issued(), 2);
    }
}
