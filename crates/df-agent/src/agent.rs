//! The Agent facade: install hooks, poll observations, ship spans.
//!
//! One [`Agent`] per node (paper Fig. 4: "An Agent is deployed in each
//! container node, virtual machine, or physical machine"). `install`
//! attaches the verified eBPF programs to every Table 3 ABI — in zero code,
//! while the monitored processes run. `poll` runs the one pipeline over
//! its three sources — the perf ring (syscall and TLS-uprobe messages) and
//! the capture taps (packets): one inference engine classifies each
//! message, a session aggregator pairs it, `span_builder` builds
//! the span, and every span leaves through one exit that attaches flow
//! metrics and the phase-1 smart-encoded tags and counts it.

use crate::ebpf::{DeepFlowSyscallProgram, DeepFlowTlsProgram, SharedProgram};
use crate::flow_table::FlowTable;
use crate::net_spans::{NetSpanBuilder, TapContext, PACKET_FLOW_BIT};
use crate::pseudo_thread::PseudoThreadTracker;
use crate::session::{SessionAggregator, SessionOutcome};
use crate::span_builder::{build_span, Observed};
use crate::systrace::SystraceTracker;
use df_kernel::hooks::{AttachPoint, KernelEvent, ProbeKind};
use df_kernel::{Kernel, VerifierError};
use df_net::fabric::Fabric;
use df_protocols::inference::{CustomProtocol, InferenceEngine};
use df_types::span::{CapturePoint, Span, SpanKind, SpanStatus, TapSide};
use df_types::{
    AgentId, Direction, DurationNs, L7Metrics, L7Protocol, MessageData, NodeId, SyscallAbi, TimeNs,
};
use std::collections::HashMap;

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Node this agent runs on.
    pub node: NodeId,
    /// VPC dictionary id for phase-1 smart-encoding (Fig. 8 ④).
    pub vpc_id: Option<u32>,
    /// Payload snap length for eBPF captures.
    pub snap_len: usize,
    /// Session time-window slot width (§3.3.1: 60 s in production).
    pub session_slot: DurationNs,
    /// Fraction of the node's CPU capacity the agent's user-space
    /// processing consumes (protocol inference, session aggregation,
    /// shipping). Calibrated against Appendix B: the full agent costs a few
    /// percent; the eBPF module alone costs less.
    pub cpu_share: f64,
}

impl AgentConfig {
    /// Defaults for a node.
    pub fn for_node(node: NodeId) -> Self {
        AgentConfig {
            node,
            vpc_id: Some(1),
            snap_len: 1024,
            session_slot: DurationNs::from_secs(60),
            cpu_share: 0.05,
        }
    }
}

impl AgentConfig {
    /// The "eBPF module only" configuration of Appendix B: hooks attached,
    /// but no user-space protocol processing cost.
    pub fn ebpf_only(node: NodeId) -> Self {
        AgentConfig {
            cpu_share: 0.02,
            ..AgentConfig::for_node(node)
        }
    }
}

/// Agent throughput/diagnostic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// MessageData records consumed from the perf ring.
    pub messages: u64,
    /// Sys spans produced.
    pub sys_spans: u64,
    /// Net spans produced.
    pub net_spans: u64,
    /// Incomplete spans produced by expiry.
    pub incomplete_spans: u64,
    /// ResponseOnly fragments shipped for server-side re-aggregation.
    pub response_only_spans: u64,
    /// Messages whose flow defied protocol inference.
    pub unclassified: u64,
    /// Sessions matched out-of-window (server re-aggregation candidates).
    pub out_of_window: u64,
}

/// The per-node DeepFlow agent.
pub struct Agent {
    cfg: AgentConfig,
    id: AgentId,
    /// The one engine: syscall and packet flows share its protocol
    /// specifications and keep apart in its cache by `PACKET_FLOW_BIT`.
    inference: InferenceEngine,
    systrace: SystraceTracker,
    pseudo: PseudoThreadTracker,
    sessions: SessionAggregator<Observed>,
    net: NetSpanBuilder,
    /// The agent's flow table (public: examples query it directly, like the
    /// §4.1.2 operators inspecting ARP counts per interface).
    pub flows: FlowTable,
    /// L7 metrics per (process, endpoint), aggregated from sys spans — the
    /// request-rate/error-rate/latency series DeepFlow exports alongside
    /// traces (§3.4 tag-based correlation feeds these to dashboards).
    l7_metrics: HashMap<(String, String), L7Metrics>,
    stats: AgentStats,
    out: Vec<Span>,
}

impl Agent {
    /// Create an agent for a node.
    pub fn new(cfg: AgentConfig) -> Self {
        let id = AgentId(cfg.node.raw());
        let net = NetSpanBuilder::new(cfg.node, id, cfg.session_slot);
        Agent {
            inference: InferenceEngine::default(),
            systrace: SystraceTracker::with_namespace(cfg.node.raw()),
            pseudo: PseudoThreadTracker::with_namespace(cfg.node.raw()),
            sessions: SessionAggregator::new(cfg.session_slot),
            net,
            flows: FlowTable::new(),
            l7_metrics: HashMap::new(),
            stats: AgentStats::default(),
            out: Vec::new(),
            id,
            cfg,
        }
    }

    /// Agent id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// L7 metrics for one (process, endpoint) pair.
    pub fn l7_metrics(&self, process: &str, endpoint: &str) -> Option<&L7Metrics> {
        self.l7_metrics
            .get(&(process.to_string(), endpoint.to_string()))
    }

    /// Attach the syscall program to all ten ABIs (enter + exit) as
    /// kprobes, and the TLS program to `ssl_read`/`ssl_write` as uprobes.
    /// Every program passes the verifier or nothing attaches (§2.3.1).
    pub fn install(&self, kernel: &mut Kernel) -> Result<(), VerifierError> {
        let syscalls = SharedProgram::new(DeepFlowSyscallProgram::new(self.cfg.snap_len));
        for abi in SyscallAbi::ALL {
            for point in [
                AttachPoint::SyscallEnter(abi),
                AttachPoint::SyscallExit(abi),
            ] {
                let program = Box::new(syscalls.clone());
                kernel.hooks.attach(point, ProbeKind::Kprobe, program)?;
            }
        }
        let tls = SharedProgram::new(DeepFlowTlsProgram::new(self.cfg.snap_len));
        for sym in ["ssl_read", "ssl_write"] {
            kernel.hooks.attach(
                AttachPoint::UserFnEnter(sym),
                ProbeKind::Uprobe,
                Box::new(tls.clone()),
            )?;
            kernel.hooks.attach(
                AttachPoint::UserFnExit(sym),
                ProbeKind::Uretprobe,
                Box::new(tls.clone()),
            )?;
        }
        Ok(())
    }

    /// Register a tap context so net spans can resolve their tap side.
    pub fn register_tap(&mut self, interface: &str, ctx: TapContext) {
        self.net.register_tap(interface, ctx);
    }

    /// Register a user-supplied protocol specification (paper §3.3.1); the
    /// syscall path and the packet path both classify with it.
    pub fn register_custom_protocol(&mut self, proto: CustomProtocol) -> L7Protocol {
        self.inference.register_custom(proto)
    }

    /// Drain kernel + tap observations, producing spans.
    pub fn poll(&mut self, kernel: &mut Kernel, fabric: &mut Fabric, now: TimeNs) -> Vec<Span> {
        // 1. Coroutine lifecycle events → pseudo-thread structure.
        let coroutine_events = kernel.procs.drain_coroutine_events();
        self.pseudo.observe(&coroutine_events);

        // 2. Perf ring → sys spans.
        for event in kernel.hooks.ring.drain_all() {
            if let KernelEvent::Message(msg) = event {
                self.process_message(msg);
            }
        }

        // 3. Capture taps → flow metrics + net spans.
        for (_kind, cap) in fabric.taps.drain_for_node(self.cfg.node) {
            self.flows.observe(&cap.interface, &cap.frame, cap.ts);
            let offered = self
                .net
                .offer(&mut self.inference, cap.interface, &cap.frame, cap.ts);
            if let Some(span) = offered {
                self.emit(span);
            }
        }

        // 4. Expiry: overdue requests become Incomplete spans.
        for req in self.sessions.expire(now) {
            self.emit_sys(Some(req), None);
        }
        for span in self.net.expire(now) {
            self.emit(span);
        }

        std::mem::take(&mut self.out)
    }

    /// [`Self::poll`], but the drained spans leave as one DFW1-encoded
    /// batch (see [`df_types::wire`]) — the bytes an agent actually ships
    /// to its trace server. String tags are interned into the batch's tag
    /// dictionary once here, at encode time. Returns `None` when the poll
    /// produced no spans (nothing to ship, no empty frame on the wire).
    pub fn poll_wire(
        &mut self,
        kernel: &mut Kernel,
        fabric: &mut Fabric,
        now: TimeNs,
    ) -> Option<Vec<u8>> {
        let spans = self.poll(kernel, fabric, now);
        if spans.is_empty() {
            None
        } else {
            Some(df_types::wire::encode_batch(&spans))
        }
    }

    fn process_message(&mut self, msg: MessageData) {
        self.stats.messages += 1;
        // Implicit intra-component association (Figure 7).
        let systrace = self.systrace.assign(
            msg.program.pid,
            msg.program.tid,
            msg.tracing.direction,
            msg.network.socket_id,
            msg.capture_ns(),
        );
        let pseudo = msg
            .program
            .coroutine
            .map(|coroutine| self.pseudo.pseudo_thread(msg.program.pid, coroutine));
        // Protocol inference + parse (Figure 6 phase 2).
        let flow_key = msg.network.socket_id.raw() & !PACKET_FLOW_BIT;
        let Some(parse) = self.inference.parse_for(flow_key, &msg.syscall.payload) else {
            self.stats.unclassified += 1;
            return;
        };
        // Session aggregation (Figure 6 phase 3).
        let (key, mtype, ts) = (parse.session_key, parse.msg_type, msg.capture_ns());
        let observed = Observed::from_syscall(msg, parse, systrace, pseudo);
        match self.sessions.offer(flow_key, key, mtype, ts, observed) {
            SessionOutcome::Matched { request, response } => {
                self.emit_sys(Some(request), Some(response));
            }
            SessionOutcome::OutOfWindow { request, response } => {
                self.stats.out_of_window += 1;
                self.emit_sys(Some(request), Some(response));
            }
            // The request already expired out of the time window. Ship the
            // response as a ResponseOnly fragment so the server can
            // re-aggregate it against the Incomplete span (§3.3.1
            // server-side re-aggregation).
            SessionOutcome::OrphanResponse(response) => self.emit_sys(None, Some(response)),
            SessionOutcome::Stored | SessionOutcome::Ignored(_) => {}
        }
    }

    /// Build and emit the sys span of a session. The observed process is
    /// the client when it *sends* the request or *receives* the response.
    fn emit_sys(&mut self, req: Option<Observed>, resp: Option<Observed>) {
        let direction = |m: &Option<Observed>| Some(m.as_ref()?.process.as_ref()?.direction);
        let client_side = match direction(&req) {
            Some(sent_request) => sent_request == Direction::Egress,
            None => direction(&resp) == Some(Direction::Ingress),
        };
        let capture = CapturePoint {
            node: self.cfg.node,
            tap_side: if client_side {
                TapSide::ClientProcess
            } else {
                TapSide::ServerProcess
            },
            interface: None,
        };
        self.emit(build_span(self.id, capture, req, resp));
    }

    /// The one exit of [`Self::poll`]: every span gets its flow metrics and
    /// phase-1 tags and is counted once, so `AgentStats`' four span
    /// counters always sum to the spans returned.
    #[inline] // takes the `Span` by value: see `build_span`
    fn emit(&mut self, mut span: Span) {
        span.flow_metrics = match span.capture.interface.as_deref() {
            Some(interface) => self.flows.metrics(interface, &span.five_tuple),
            None => self.flows.metrics_any_interface(&span.five_tuple),
        };
        // Smart-encoding phase 1 (Fig. 8 ④–⑥): the agent writes only the
        // VPC id and the observed component's IP, as integers.
        span.tags.resource.vpc_id = self.cfg.vpc_id;
        let local_ip = if span.capture.tap_side.is_client_side() {
            span.five_tuple.src_ip
        } else {
            span.five_tuple.dst_ip
        };
        span.tags.resource.ip = Some(u32::from(local_ip));
        let counter = match (span.status, span.kind) {
            (SpanStatus::Incomplete, _) => &mut self.stats.incomplete_spans,
            (SpanStatus::ResponseOnly, _) => &mut self.stats.response_only_spans,
            (_, SpanKind::Net) => &mut self.stats.net_spans,
            (_, _) => &mut self.stats.sys_spans,
        };
        *counter += 1;
        if span.kind == SpanKind::Sys && span.status != SpanStatus::ResponseOnly {
            let series = self
                .l7_metrics
                .entry((
                    span.process_name.clone().unwrap_or_default(),
                    span.endpoint.clone(),
                ))
                .or_default();
            if span.status == SpanStatus::Incomplete {
                series.record_timeout();
            } else {
                series.record_session(
                    span.duration(),
                    span.status == SpanStatus::ClientError,
                    span.status == SpanStatus::ServerError,
                );
            }
        }
        self.out.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use df_kernel::{KernelConfig, Wakeup};
    use df_net::topology::Topology;
    use df_net::FabricConfig;
    use df_protocols::http1;
    use df_types::net::TransportProtocol;
    use std::net::Ipv4Addr;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);

    struct World {
        ka: Kernel,
        kb: Kernel,
        fabric: Fabric,
    }

    fn pump(w: &mut World, now: TimeNs) -> Vec<Wakeup> {
        let mut wakeups = Vec::new();
        loop {
            let mut moved = false;
            for (kern, _other) in [(0, 1), (1, 0)] {
                let segs = if kern == 0 {
                    w.ka.drain_outbox()
                } else {
                    w.kb.drain_outbox()
                };
                for seg in segs {
                    moved = true;
                    for d in w.fabric.transmit(seg, now) {
                        let k = if d.node == w.ka.node() {
                            &mut w.ka
                        } else {
                            &mut w.kb
                        };
                        wakeups.extend(k.deliver(&d.segment, d.at));
                    }
                }
            }
            if !moved {
                break;
            }
        }
        wakeups
    }

    /// `poll`, checking the conservation law on the way out: the spans it
    /// returned are exactly what the four span counters gained.
    fn poll_checked(a: &mut Agent, k: &mut Kernel, f: &mut Fabric, now: TimeNs) -> Vec<Span> {
        let counted =
            |s: AgentStats| s.sys_spans + s.net_spans + s.incomplete_spans + s.response_only_spans;
        let before = counted(a.stats());
        let spans = a.poll(k, f, now);
        assert_eq!(spans.len() as u64, counted(a.stats()) - before);
        spans
    }

    fn world() -> World {
        let mut topo = Topology::new();
        let n1 = topo.add_simple_node("node-1", Ipv4Addr::new(192, 168, 0, 1));
        let n2 = topo.add_simple_node("node-2", Ipv4Addr::new(192, 168, 0, 2));
        topo.add_pod(n1, "client", IP_A, "default", "client", "client-svc");
        topo.add_pod(n2, "server", IP_B, "default", "server", "server-svc");
        let fabric = Fabric::new(topo, FabricConfig::default());
        let ka = Kernel::new(KernelConfig {
            node: n1,
            ..Default::default()
        });
        let kb = Kernel::new(KernelConfig {
            node: n2,
            ..Default::default()
        });
        World { ka, kb, fabric }
    }

    /// Full end-to-end: two kernels, two agents, one HTTP exchange —
    /// verifying client and server sys spans with shared TCP sequences.
    #[test]
    fn http_exchange_produces_client_and_server_spans() {
        let mut w = world();
        let mut agent_a = Agent::new(AgentConfig::for_node(w.ka.node()));
        let mut agent_b = Agent::new(AgentConfig::for_node(w.kb.node()));
        agent_a.install(&mut w.ka).unwrap();
        agent_b.install(&mut w.kb).unwrap();

        // server setup
        let (spid, stid) = w.kb.procs.spawn_process("reviews");
        let lfd = w.kb.socket(spid, TransportProtocol::Tcp).unwrap();
        w.kb.bind(spid, lfd, IP_B, 9080).unwrap();
        w.kb.listen(spid, lfd, 16).unwrap();
        w.kb.accept(stid, spid, lfd);

        // client connect
        let (cpid, ctid) = w.ka.procs.spawn_process("productpage");
        let cfd = w.ka.socket(cpid, TransportProtocol::Tcp).unwrap();
        w.ka.connect(ctid, cpid, cfd, IP_A, (IP_B, 9080));
        pump(&mut w, TimeNs(0));
        let (sfd, _) = w.kb.accept(stid, spid, lfd).unwrap_complete();

        // request
        let t1 = TimeNs::from_millis(1);
        w.ka.sys_write(
            ctid,
            cpid,
            cfd,
            http1::request("GET", "/reviews/7", &[], b""),
            t1,
        )
        .unwrap_complete();
        w.kb.sys_read(stid, spid, sfd, 4096, t1); // parks
        pump(&mut w, t1);
        let t2 = TimeNs::from_millis(2);
        let (_req, _) = w.kb.sys_read(stid, spid, sfd, 4096, t2).unwrap_complete();
        // response
        let t3 = TimeNs::from_millis(3);
        w.kb.sys_write(
            stid,
            spid,
            sfd,
            http1::response(200, &[], b"five stars"),
            t3,
        )
        .unwrap_complete();
        w.ka.sys_read(ctid, cpid, cfd, 4096, t3);
        pump(&mut w, t3);
        let t4 = TimeNs::from_millis(4);
        w.ka.sys_read(ctid, cpid, cfd, 4096, t4).unwrap_complete();

        let spans_a = poll_checked(
            &mut agent_a,
            &mut w.ka,
            &mut w.fabric,
            TimeNs::from_millis(5),
        );
        let spans_b = poll_checked(
            &mut agent_b,
            &mut w.kb,
            &mut w.fabric,
            TimeNs::from_millis(5),
        );

        assert_eq!(spans_a.len(), 1, "client agent: one sys span");
        assert_eq!(spans_b.len(), 1, "server agent: one sys span");
        let ca = &spans_a[0];
        let sb = &spans_b[0];
        assert_eq!(ca.capture.tap_side, TapSide::ClientProcess);
        assert_eq!(sb.capture.tap_side, TapSide::ServerProcess);
        assert_eq!(ca.endpoint, "GET /reviews/7");
        assert_eq!(sb.endpoint, "GET /reviews/7");
        assert_eq!(ca.status_code, Some(200));
        // THE key invariant: both spans carry the same request TCP sequence,
        // captured on different machines (§3.3.2).
        assert_eq!(ca.tcp_seq_req, sb.tcp_seq_req);
        assert_eq!(ca.tcp_seq_resp, sb.tcp_seq_resp);
        // Both oriented client→server.
        assert_eq!(ca.five_tuple.src_ip, IP_A);
        assert_eq!(sb.five_tuple.src_ip, IP_A);
        // Phase-1 tags written.
        assert_eq!(ca.tags.resource.vpc_id, Some(1));
        assert_eq!(ca.tags.resource.ip, Some(u32::from(IP_A)));
        assert_eq!(sb.tags.resource.ip, Some(u32::from(IP_B)));
        // Process context captured in zero code.
        assert_eq!(ca.process_name.as_deref(), Some("productpage"));
        assert_eq!(sb.process_name.as_deref(), Some("reviews"));
    }

    #[test]
    fn net_spans_from_taps_share_seq_with_sys_spans() {
        use df_net::taps::{TapFilter, TapKind};
        use df_net::topology::ElementId;
        let mut w = world();
        let n1 = w.ka.node();
        let mut agent_a = Agent::new(AgentConfig::for_node(n1));
        agent_a.install(&mut w.ka).unwrap();
        // Tap the client node NIC.
        w.fabric.taps.install(
            ElementId::NodeNic(n1),
            n1,
            TapKind::NodeNic,
            TapFilter::all(),
        );
        agent_a.register_tap(
            "eth0",
            TapContext {
                kind: TapKind::NodeNic,
                local_ips: [IP_A].into_iter().collect(),
            },
        );

        // server without an agent
        let (spid, stid) = w.kb.procs.spawn_process("backend");
        let lfd = w.kb.socket(spid, TransportProtocol::Tcp).unwrap();
        w.kb.bind(spid, lfd, IP_B, 80).unwrap();
        w.kb.listen(spid, lfd, 16).unwrap();
        w.kb.accept(stid, spid, lfd);
        let (cpid, ctid) = w.ka.procs.spawn_process("curl");
        let cfd = w.ka.socket(cpid, TransportProtocol::Tcp).unwrap();
        w.ka.connect(ctid, cpid, cfd, IP_A, (IP_B, 80));
        pump(&mut w, TimeNs(0));
        let (sfd, _) = w.kb.accept(stid, spid, lfd).unwrap_complete();

        w.ka.sys_write(
            ctid,
            cpid,
            cfd,
            http1::request("GET", "/", &[], b""),
            TimeNs(1000),
        )
        .unwrap_complete();
        w.kb.sys_read(stid, spid, sfd, 4096, TimeNs(1000));
        pump(&mut w, TimeNs(1000));
        w.kb.sys_read(stid, spid, sfd, 4096, TimeNs(2000))
            .unwrap_complete();
        w.kb.sys_write(
            stid,
            spid,
            sfd,
            http1::response(200, &[], b"hi"),
            TimeNs(3000),
        )
        .unwrap_complete();
        w.ka.sys_read(ctid, cpid, cfd, 4096, TimeNs(3000));
        pump(&mut w, TimeNs(3000));
        w.ka.sys_read(ctid, cpid, cfd, 4096, TimeNs(4000))
            .unwrap_complete();

        let spans = poll_checked(
            &mut agent_a,
            &mut w.ka,
            &mut w.fabric,
            TimeNs::from_millis(10),
        );
        let sys: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Sys).collect();
        let net: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Net).collect();
        assert_eq!(sys.len(), 1);
        assert_eq!(net.len(), 1, "node NIC tap yields a net span");
        assert_eq!(net[0].capture.tap_side, TapSide::ClientNodeNic);
        assert_eq!(
            sys[0].tcp_seq_req, net[0].tcp_seq_req,
            "sys and net spans of one exchange share the request seq"
        );
        assert!(
            net[0].flow_metrics.is_some(),
            "net span carries flow metrics"
        );
        assert_eq!(agent_a.stats().net_spans, 1);
    }

    #[test]
    fn unresponsive_server_yields_incomplete_span() {
        let mut w = world();
        let mut agent_a = Agent::new(AgentConfig::for_node(w.ka.node()));
        agent_a.install(&mut w.ka).unwrap();

        let (spid, stid) = w.kb.procs.spawn_process("hangs");
        let lfd = w.kb.socket(spid, TransportProtocol::Tcp).unwrap();
        w.kb.bind(spid, lfd, IP_B, 80).unwrap();
        w.kb.listen(spid, lfd, 16).unwrap();
        w.kb.accept(stid, spid, lfd);
        let (cpid, ctid) = w.ka.procs.spawn_process("client");
        let cfd = w.ka.socket(cpid, TransportProtocol::Tcp).unwrap();
        w.ka.connect(ctid, cpid, cfd, IP_A, (IP_B, 80));
        pump(&mut w, TimeNs(0));

        w.ka.sys_write(
            ctid,
            cpid,
            cfd,
            http1::request("GET", "/hang", &[], b""),
            TimeNs(0),
        )
        .unwrap_complete();
        // server never responds; poll 5 minutes later
        let spans = poll_checked(
            &mut agent_a,
            &mut w.ka,
            &mut w.fabric,
            TimeNs::from_secs(300),
        );
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].status, SpanStatus::Incomplete);
        assert_eq!(spans[0].endpoint, "GET /hang");
        assert_eq!(agent_a.stats().incomplete_spans, 1);
    }

    #[test]
    fn install_is_idempotent_per_agent_and_verified() {
        let mut w = world();
        let agent = Agent::new(AgentConfig::for_node(w.ka.node()));
        agent.install(&mut w.ka).unwrap();
        // 10 ABIs × 2 + 2 uprobe symbols × 2
        assert_eq!(w.ka.hooks.attachment_count(), 24);
    }
}
