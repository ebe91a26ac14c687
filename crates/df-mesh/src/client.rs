//! The load generator — a wrk2-style constant-throughput open-loop client.
//!
//! Requests *fire* at fixed, pre-scheduled instants regardless of how slow
//! responses are; latency is measured from the **scheduled** fire time, so
//! queueing delay under saturation is charged to the server (no coordinated
//! omission) — the measurement discipline of wrk2, used by the
//! paper's §5.4 and Appendix B experiments.

use crate::histogram::LatencyHistogram;
use crate::service::{build_request, tls_unwrap, tls_wrap};
use crate::sim::{Ctx, Event, Owner};
use df_kernel::{Fd, Kernel, SyscallOutcome};
use df_protocols::inference;
use df_types::{DurationNs, L7Protocol, NodeId, Pid, Tid, TimeNs, TransportProtocol};
use rand::Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Client definition.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Name (process name on its node).
    pub name: String,
    /// Node the client runs on.
    pub node: NodeId,
    /// Client IP.
    pub ip: Ipv4Addr,
    /// Target service (registry name).
    pub target: String,
    /// Protocol to speak.
    pub protocol: L7Protocol,
    /// Weighted endpoints to request.
    pub endpoints: Vec<(String, u32)>,
    /// Extra headers on every request (HTTP protocols only).
    pub headers: Vec<(String, String)>,
    /// Whether requests must be TLS-wrapped.
    pub tls: bool,
    /// Concurrent connections.
    pub connections: usize,
    /// Maximum in-flight requests per connection. 1 = strict
    /// request/response (HTTP-style); larger values pipeline without
    /// waiting (AMQP publishers, the Fig. 12 producer).
    pub pipeline_depth: usize,
    /// Offered load in requests/second.
    pub rps: f64,
    /// First fire time.
    pub start: TimeNs,
    /// Load duration.
    pub duration: DurationNs,
    /// Per-request timeout.
    pub timeout: DurationNs,
}

impl ClientSpec {
    /// A basic HTTP client.
    pub fn http(name: &str, node: NodeId, ip: Ipv4Addr, target: &str) -> Self {
        ClientSpec {
            name: name.to_string(),
            node,
            ip,
            target: target.to_string(),
            protocol: L7Protocol::Http1,
            endpoints: vec![("GET /".to_string(), 1)],
            headers: Vec::new(),
            tls: false,
            connections: 8,
            pipeline_depth: 1,
            rps: 100.0,
            start: TimeNs::ZERO,
            duration: DurationNs::from_secs(10),
            timeout: DurationNs::from_secs(5),
        }
    }
}

#[derive(Debug, Clone)]
struct PendingReq {
    scheduled: TimeNs,
    endpoint: String,
}

#[derive(Debug)]
enum CState {
    Disconnected,
    Connecting { pending: PendingReq },
    Ready,
}

#[derive(Debug)]
struct Conn {
    tid: Tid,
    fd: Option<Fd>,
    state: CState,
    /// In-flight requests, FIFO: `(scheduled fire time, request seq)`.
    outstanding: VecDeque<(TimeNs, u64)>,
}

/// A running client.
pub struct Client {
    /// The spec.
    pub spec: ClientSpec,
    /// Process id.
    pub pid: Pid,
    conns: Vec<Conn>,
    backlog: VecDeque<PendingReq>,
    /// Latency distribution (scheduled-fire → response).
    pub hist: LatencyHistogram,
    /// Requests fired.
    pub fired: u64,
    /// Responses received.
    pub completed: u64,
    /// Error responses (4xx/5xx/protocol errors).
    pub errors: u64,
    /// Requests timed out or killed by resets.
    pub failed: u64,
    req_seq: u64,
    mux: u64,
    my_index: usize,
}

impl Client {
    /// Spawn the client process, its connection threads, and the fire
    /// schedule.
    pub fn start(
        spec: ClientSpec,
        my_index: usize,
        kernels: &mut BTreeMap<NodeId, Kernel>,
        owners: &mut HashMap<(NodeId, Tid), Owner>,
        queue: &mut crate::sim::EventQueue,
        now: TimeNs,
    ) -> Client {
        let kernel = kernels.get_mut(&spec.node).expect("client node exists");
        let (pid, main_tid) = kernel.procs.spawn_process(&spec.name);
        let mut conns = Vec::with_capacity(spec.connections.max(1));
        for c in 0..spec.connections.max(1) {
            let tid = if c == 0 {
                main_tid
            } else {
                kernel.procs.spawn_thread(pid).expect("client thread")
            };
            owners.insert(
                (spec.node, tid),
                Owner::Client {
                    idx: my_index,
                    conn: c,
                },
            );
            conns.push(Conn {
                tid,
                fd: None,
                state: CState::Disconnected,
                outstanding: VecDeque::new(),
            });
        }
        // Open-loop schedule: fixed fire instants at 1/rps spacing.
        let total = (spec.rps * spec.duration.as_secs_f64()).round() as u64;
        let interval_ns = if spec.rps > 0.0 {
            (1e9 / spec.rps) as u64
        } else {
            u64::MAX
        };
        let base = now.max(spec.start);
        for i in 0..total {
            let at = TimeNs(base.as_nanos() + i * interval_ns);
            queue.schedule(
                at,
                Event::ClientFire {
                    client: my_index,
                    scheduled: at,
                },
            );
        }
        Client {
            spec,
            pid,
            conns,
            backlog: VecDeque::new(),
            hist: LatencyHistogram::new(),
            fired: 0,
            completed: 0,
            errors: 0,
            failed: 0,
            req_seq: 0,
            mux: 1,
            my_index,
        }
    }

    /// Achieved throughput over a window (completed / window).
    pub fn achieved_rps(&self, window: DurationNs) -> f64 {
        if window.as_nanos() == 0 {
            0.0
        } else {
            self.completed as f64 / window.as_secs_f64()
        }
    }

    fn pick_endpoint(&self, rng: &mut rand::rngs::SmallRng) -> String {
        let total: u32 = self.spec.endpoints.iter().map(|(_, w)| *w).sum();
        let mut roll = rng.gen_range(0..total.max(1));
        for (ep, w) in &self.spec.endpoints {
            if roll < *w {
                return ep.clone();
            }
            roll -= w;
        }
        self.spec.endpoints[0].0.clone()
    }
}

/// A scheduled request fires.
pub fn fire(cl: &mut Client, ctx: &mut Ctx<'_>, scheduled: TimeNs, now: TimeNs) {
    cl.fired += 1;
    let endpoint = cl.pick_endpoint(ctx.rng);
    let pending = PendingReq {
        scheduled,
        endpoint,
    };
    // Open the whole pool first (wrk pre-opens all connections — and
    // per-connection L4 load balancers need the spread), then rotate
    // across connections with pipeline capacity; else backlog.
    let free = cl
        .conns
        .iter()
        .position(|c| matches!(c.state, CState::Disconnected));
    if let Some(c) = free {
        connect(cl, ctx, c, pending, now);
        return;
    }
    let n = cl.conns.len();
    let depth = cl.spec.pipeline_depth.max(1);
    let start = (cl.fired as usize) % n.max(1);
    let available = (0..n).map(|i| (start + i) % n).find(|&i| {
        matches!(cl.conns[i].state, CState::Ready)
            && cl.conns[i].fd.is_some()
            && cl.conns[i].outstanding.len() < depth
    });
    if let Some(c) = available {
        send(cl, ctx, c, pending, now);
        return;
    }
    cl.backlog.push_back(pending);
}

fn connect(cl: &mut Client, ctx: &mut Ctx<'_>, c: usize, pending: PendingReq, now: TimeNs) {
    let node = cl.spec.node;
    let tid = cl.conns[c].tid;
    let Some(endpoint) = ctx.registry.get(&cl.spec.target).copied() else {
        cl.failed += 1;
        return;
    };
    let transport = if cl.spec.protocol == L7Protocol::Dns {
        TransportProtocol::Udp
    } else {
        TransportProtocol::Tcp
    };
    let Ok(fd) = ctx.kernel(node).socket(cl.pid, transport) else {
        cl.failed += 1;
        return;
    };
    cl.conns[c].fd = Some(fd);
    let ip = cl.spec.ip;
    match ctx
        .kernel(node)
        .connect(tid, cl.pid, fd, ip, (endpoint.ip, endpoint.port))
    {
        SyscallOutcome::Complete { .. } => {
            send(cl, ctx, c, pending, now);
        }
        SyscallOutcome::WouldBlock => {
            ctx.flush(node, now);
            cl.conns[c].state = CState::Connecting { pending };
        }
        SyscallOutcome::Error { .. } => {
            cl.failed += 1;
            cl.conns[c].fd = None;
            cl.conns[c].state = CState::Disconnected;
        }
    }
}

fn send(cl: &mut Client, ctx: &mut Ctx<'_>, c: usize, pending: PendingReq, now: TimeNs) {
    let node = cl.spec.node;
    let tid = cl.conns[c].tid;
    let Some(fd) = cl.conns[c].fd else {
        cl.failed += 1;
        cl.conns[c].state = CState::Disconnected;
        return;
    };
    cl.mux += 1;
    let mux = cl.mux;
    let payload = build_request(cl.spec.protocol, &pending.endpoint, &cl.spec.headers, mux);
    let payload = if cl.spec.tls {
        tls_wrap(&payload)
    } else {
        payload
    };
    cl.req_seq += 1;
    let seq = cl.req_seq;
    let mut t = now;
    match ctx.kernel(node).sys_write(tid, cl.pid, fd, payload, t) {
        SyscallOutcome::Complete { duration, .. } => {
            t += duration;
        }
        _ => {
            fail_conn(cl, ctx, c, t);
            return;
        }
    }
    ctx.flush(node, t);
    cl.conns[c].state = CState::Ready;
    cl.conns[c].outstanding.push_back((pending.scheduled, seq));
    // Arm the timeout.
    ctx.queue.schedule(
        t + cl.spec.timeout,
        Event::ClientTimeout {
            client: cl.my_index,
            conn: c,
            req_seq: seq,
        },
    );
    // Post the read (parks unless the response is somehow already in).
    try_read(cl, ctx, c, t);
}

/// Abort a connection, counting every in-flight request as failed.
fn fail_conn(cl: &mut Client, ctx: &mut Ctx<'_>, c: usize, now: TimeNs) {
    let node = cl.spec.node;
    cl.failed += 1 + cl.conns[c].outstanding.len() as u64;
    cl.conns[c].outstanding.clear();
    if let Some(fd) = cl.conns[c].fd.take() {
        let _ = ctx.kernel(node).close(cl.pid, fd);
        ctx.flush(node, now);
    }
    cl.conns[c].state = CState::Disconnected;
}

fn try_read(cl: &mut Client, ctx: &mut Ctx<'_>, c: usize, now: TimeNs) {
    let node = cl.spec.node;
    let tid = cl.conns[c].tid;
    let mut t = now;
    loop {
        if cl.conns[c].outstanding.is_empty() {
            break; // idle: nothing to read for
        }
        let Some(fd) = cl.conns[c].fd else { return };
        match ctx.kernel(node).sys_read(tid, cl.pid, fd, 65536, t) {
            SyscallOutcome::Complete { value, duration } => {
                t += duration;
                if value.data.is_empty() {
                    // Peer closed with requests in flight.
                    fail_conn(cl, ctx, c, t);
                    return;
                }
                let plain = if cl.spec.tls {
                    tls_unwrap(&value.data).unwrap_or(value.data.clone())
                } else {
                    value.data.clone()
                };
                let (scheduled, _seq) = cl.conns[c]
                    .outstanding
                    .pop_front()
                    .expect("checked non-empty");
                cl.completed += 1;
                cl.hist.record(t.saturating_since(scheduled));
                if let Some(parse) = inference::infer_protocol(&plain)
                    .and_then(|p| inference::parse_message(p, &plain))
                {
                    if parse.status().is_error() {
                        cl.errors += 1;
                    }
                }
                // A slot freed up: drain the backlog.
                if let Some(next) = cl.backlog.pop_front() {
                    send(cl, ctx, c, next, t);
                    return; // send() re-enters try_read
                }
            }
            SyscallOutcome::WouldBlock => break, // parked; resume() retries
            SyscallOutcome::Error { .. } => {
                fail_conn(cl, ctx, c, t);
                return;
            }
        }
    }
}

/// A connection thread resumed (socket wakeup).
pub fn resume(cl: &mut Client, ctx: &mut Ctx<'_>, c: usize, now: TimeNs) {
    match &cl.conns[c].state {
        CState::Connecting { .. } => {
            let CState::Connecting { pending } =
                std::mem::replace(&mut cl.conns[c].state, CState::Ready)
            else {
                unreachable!()
            };
            // Either the connect completed or it failed; sending finds out.
            send(cl, ctx, c, pending, now);
        }
        CState::Ready => try_read(cl, ctx, c, now),
        CState::Disconnected => {}
    }
}

/// A request timeout fired.
pub fn timeout(cl: &mut Client, ctx: &mut Ctx<'_>, c: usize, req_seq: u64, now: TimeNs) {
    if !matches!(cl.conns[c].state, CState::Ready) {
        return;
    }
    // Still in flight? (FIFO responses: if the guarded seq is gone, the
    // request completed.)
    if !cl.conns[c].outstanding.iter().any(|(_, s)| *s == req_seq) {
        return;
    }
    // Abort the wedged connection; everything outstanding is lost.
    cl.failed += cl.conns[c].outstanding.len() as u64;
    cl.conns[c].outstanding.clear();
    if let Some(fd) = cl.conns[c].fd.take() {
        let _ = ctx.kernel(cl.spec.node).abort(cl.pid, fd);
        ctx.flush(cl.spec.node, now);
    }
    cl.conns[c].state = CState::Disconnected;
    // Give the backlog a chance on this freed slot.
    if let Some(next) = cl.backlog.pop_front() {
        connect(cl, ctx, c, next, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Behavior, ServiceSpec};
    use crate::sim::World;
    use df_net::fabric::{Fabric, FabricConfig};
    use df_net::topology::Topology;

    fn world_with_leaf(compute_us: u64, workers: usize) -> (World, Ipv4Addr, Ipv4Addr) {
        let mut topo = Topology::new();
        let n1 = topo.add_simple_node("n1", Ipv4Addr::new(192, 168, 0, 1));
        let n2 = topo.add_simple_node("n2", Ipv4Addr::new(192, 168, 0, 2));
        let client_ip = Ipv4Addr::new(10, 1, 0, 100);
        let svc_ip = Ipv4Addr::new(10, 1, 1, 10);
        topo.add_pod(n1, "client", client_ip, "d", "c", "c");
        topo.add_pod(n2, "svc", svc_ip, "d", "s", "s");
        let mut world = World::new(Fabric::new(topo, FabricConfig::default()), 0xc11e);
        world.add_service(
            ServiceSpec::http("svc", n2, svc_ip, 80)
                .with_workers(workers)
                .with_compute(DurationNs::from_micros(compute_us))
                .with_behavior(Behavior::Leaf),
        );
        (world, client_ip, svc_ip)
    }

    #[test]
    fn open_loop_client_completes_offered_load_below_capacity() {
        let (mut world, client_ip, _svc) = world_with_leaf(100, 4);
        let n1 = world.fabric.topology.node_ids()[0];
        let idx = world.add_client(ClientSpec {
            rps: 100.0,
            duration: DurationNs::from_secs(2),
            connections: 4,
            ..ClientSpec::http("wrk", n1, client_ip, "svc")
        });
        world.run_until(TimeNs::from_secs(3));
        let cl = &world.clients[idx];
        assert_eq!(cl.fired, 200);
        assert_eq!(cl.completed, 200);
        assert_eq!(cl.failed, 0);
        assert!(cl.hist.p50() > DurationNs::from_micros(100));
        assert!((cl.achieved_rps(DurationNs::from_secs(2)) - 100.0).abs() < 1.0);
    }

    #[test]
    fn saturation_throughput_is_bounded_by_server_capacity() {
        // 1 worker x 1ms compute → ~1000 RPS capacity; offer 5000.
        let (mut world, client_ip, _svc) = world_with_leaf(1000, 1);
        let n1 = world.fabric.topology.node_ids()[0];
        let idx = world.add_client(ClientSpec {
            rps: 5000.0,
            duration: DurationNs::from_secs(1),
            connections: 1,
            timeout: DurationNs::from_secs(60),
            ..ClientSpec::http("wrk", n1, client_ip, "svc")
        });
        world.run_until(TimeNs::from_secs(10));
        let cl = &world.clients[idx];
        // Everything eventually completes (we run past the load window)...
        assert!(cl.completed > 3000, "completed {}", cl.completed);
        // ...but queueing shows up as latency: p99 >> p of an unloaded run
        // (coordinated-omission-free accounting).
        assert!(
            cl.hist.p99() > DurationNs::from_millis(100),
            "p99 {} reflects saturation queueing",
            cl.hist.p99()
        );
    }

    #[test]
    fn pipelined_client_keeps_multiple_requests_in_flight() {
        // Server is slow (10ms); a depth-8 pipelined client on ONE
        // connection fires 8 requests before the first response.
        let (mut world, client_ip, _svc) = world_with_leaf(10_000, 1);
        let n1 = world.fabric.topology.node_ids()[0];
        let idx = world.add_client(ClientSpec {
            rps: 400.0,
            duration: DurationNs::from_millis(100),
            connections: 1,
            pipeline_depth: 8,
            timeout: DurationNs::from_secs(30),
            ..ClientSpec::http("wrk", n1, client_ip, "svc")
        });
        // Run only 30ms: no response has arrived yet (compute is 10ms and
        // the server answers one request at a time), but multiple sends
        // must already be in flight.
        world.run_until(TimeNs::from_millis(15));
        let cl = &world.clients[idx];
        let in_flight: usize = cl.conns.iter().map(|c| c.outstanding.len()).sum();
        assert!(in_flight >= 2, "pipelined in-flight: {in_flight}");
        world.run_until(TimeNs::from_secs(5));
        let cl = &world.clients[idx];
        assert_eq!(cl.completed, 40, "all pipelined requests answered");
    }

    #[test]
    fn timeout_fails_outstanding_requests_and_reconnects() {
        // No such service: connects are refused; requests fail fast.
        let mut topo = Topology::new();
        let n1 = topo.add_simple_node("n1", Ipv4Addr::new(192, 168, 0, 1));
        let client_ip = Ipv4Addr::new(10, 1, 0, 100);
        topo.add_pod(n1, "client", client_ip, "d", "c", "c");
        let mut world = World::new(Fabric::new(topo, FabricConfig::default()), 1);
        let idx = world.add_client(ClientSpec {
            rps: 20.0,
            duration: DurationNs::from_secs(1),
            connections: 2,
            timeout: DurationNs::from_millis(100),
            ..ClientSpec::http("wrk", n1, client_ip, "ghost-svc")
        });
        world.run_until(TimeNs::from_secs(3));
        let cl = &world.clients[idx];
        assert_eq!(cl.completed, 0);
        assert!(cl.failed >= 20, "failures recorded: {}", cl.failed);
    }

    #[test]
    fn weighted_endpoints_are_sampled_proportionally() {
        let (mut world, client_ip, _svc) = world_with_leaf(10, 8);
        let n1 = world.fabric.topology.node_ids()[0];
        let idx = world.add_client(ClientSpec {
            rps: 500.0,
            duration: DurationNs::from_secs(2),
            connections: 8,
            endpoints: vec![("GET /hot".to_string(), 9), ("GET /cold".to_string(), 1)],
            ..ClientSpec::http("wrk", n1, client_ip, "svc")
        });
        // Sample through the client's own picker for determinism.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        use rand::SeedableRng;
        let cl = &world.clients[idx];
        let hot = (0..1000)
            .filter(|_| cl.pick_endpoint(&mut rng) == "GET /hot")
            .count();
        assert!((850..=950).contains(&hot), "hot sampled {hot}/1000");
        world.run_until(TimeNs::from_secs(3));
        assert!(world.clients[idx].completed > 900);
    }
}
