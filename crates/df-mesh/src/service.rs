//! Simulated microservice components.
//!
//! A [`Service`] is a process with a listener and a pool of worker threads,
//! each a blocking-style state machine: accept → read request → compute →
//! (downstream calls | proxy forward) → respond. All I/O goes through the
//! simulated kernel's Table 3 syscalls, so DeepFlow's hooks observe it
//! exactly as they would a real component — including closed-source ones,
//! since nothing here cooperates with the tracer.
//!
//! Behaviours cover the paper's scenarios: leaf servers (Redis, MySQL, DNS,
//! static HTTP), call chains (Bookinfo-style fan-out), reverse proxies with
//! `X-Request-ID` injection (Nginx/Envoy — §3.3.2 cross-thread
//! association), optional cross-thread handoff, Go-style coroutine
//! runtimes, and TLS services whose wire bytes are opaque but whose
//! plaintext is visible to `ssl_read`/`ssl_write` uprobes.

use crate::sim::{Ctx, Event, Owner};
use crate::tracer::{AppTracer, NoopTracer, ServerToken};
use bytes::Bytes;
use df_kernel::{Fd, Kernel, SyscallOutcome};
use df_protocols::{amqp, dns, dubbo, http1, http2, kafka, mqtt, mysql, redis};
use df_protocols::{inference, TraceHeaders};
use df_types::{
    CoroutineId, DurationNs, L7Protocol, MessageType, NodeId, Pid, SessionKey, SpanStatus, Tid,
    TimeNs, TransportProtocol, XRequestId,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

/// A downstream call made while handling a request.
#[derive(Debug, Clone)]
pub struct Call {
    /// Target service name (resolved through the world registry).
    pub target: String,
    /// Protocol to speak.
    pub protocol: L7Protocol,
    /// Operation (e.g. `"GET /ratings/7"`, `"GET product:7"`, `"SELECT ..."`).
    pub endpoint: String,
}

/// What the service does with a request.
pub enum Behavior {
    /// Respond directly.
    Leaf,
    /// Make these calls sequentially, then respond.
    Chain(Vec<Call>),
    /// Forward to an upstream service, injecting an `X-Request-ID`.
    Proxy {
        /// Upstream service name.
        upstream: String,
        /// Hand the request to a different thread before forwarding
        /// (exercises cross-thread intra-component association, §3.3.2).
        handoff: bool,
    },
}

/// Threading model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Plain thread-per-request workers.
    Threads,
    /// Go-style: each request runs in a fresh coroutine (pseudo-thread
    /// tracking, §3.3.1).
    Coroutines,
}

/// Service definition.
pub struct ServiceSpec {
    /// Name (registry key).
    pub name: String,
    /// Hosting node.
    pub node: NodeId,
    /// Pod/host IP.
    pub ip: Ipv4Addr,
    /// Listen port.
    pub port: u16,
    /// Protocol served.
    pub protocol: L7Protocol,
    /// Worker threads.
    pub workers: usize,
    /// Compute time per request.
    pub compute: DurationNs,
    /// Response body size.
    pub resp_bytes: usize,
    /// Behaviour.
    pub behavior: Behavior,
    /// Threading model.
    pub runtime: RuntimeKind,
    /// Whether the wire bytes are TLS-wrapped (uprobes still see plaintext).
    pub tls: bool,
    /// Endpoint-substring → forced status code (fault injection, e.g. the
    /// Fig. 11 Nginx pod returning 404).
    pub error_endpoints: Vec<(String, u16)>,
    /// Intrusive tracing SDK, if this service is "instrumented".
    pub tracer: Box<dyn AppTracer>,
}

impl ServiceSpec {
    /// A plain HTTP service.
    pub fn http(name: &str, node: NodeId, ip: Ipv4Addr, port: u16) -> Self {
        ServiceSpec {
            name: name.to_string(),
            node,
            ip,
            port,
            protocol: L7Protocol::Http1,
            workers: 4,
            compute: DurationNs::from_micros(500),
            resp_bytes: 256,
            behavior: Behavior::Leaf,
            runtime: RuntimeKind::Threads,
            tls: false,
            error_endpoints: Vec::new(),
            tracer: Box::new(NoopTracer),
        }
    }

    /// Builder: set behaviour.
    pub fn with_behavior(mut self, b: Behavior) -> Self {
        self.behavior = b;
        self
    }

    /// Builder: set protocol.
    pub fn with_protocol(mut self, p: L7Protocol) -> Self {
        self.protocol = p;
        self
    }

    /// Builder: set compute time.
    pub fn with_compute(mut self, c: DurationNs) -> Self {
        self.compute = c;
        self
    }

    /// Builder: set workers.
    pub fn with_workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Builder: coroutine runtime.
    pub fn with_coroutines(mut self) -> Self {
        self.runtime = RuntimeKind::Coroutines;
        self
    }

    /// Builder: TLS.
    pub fn with_tls(mut self) -> Self {
        self.tls = true;
        self
    }

    /// Builder: intrusive tracer.
    pub fn with_tracer(mut self, t: Box<dyn AppTracer>) -> Self {
        self.tracer = t;
        self
    }

    /// Builder: force a status for endpoints containing `substr`.
    pub fn with_error_endpoint(mut self, substr: &str, status: u16) -> Self {
        self.error_endpoints.push((substr.to_string(), status));
        self
    }
}

/// A request in flight inside a worker.
#[derive(Debug, Clone)]
struct ReqCtx {
    endpoint: String,
    key: SessionKey,
    headers_in: TraceHeaders,
    status: u16,
    server_token: ServerToken,
    coroutine: Option<CoroutineId>,
    #[allow(dead_code)] // kept for raw-forwarding proxies / debugging
    raw_request: Bytes,
    /// Headers the tracer wants injected into downstream calls.
    inject: Vec<(String, String)>,
    /// Datagram peer (UDP requests) for the reply.
    peer: Option<(Ipv4Addr, u16)>,
}

/// Work handed between proxy threads.
#[derive(Debug, Clone)]
struct ProxyJob {
    down_fd: Fd,
    req: ReqCtx,
    xid: XRequestId,
}

#[derive(Debug)]
enum WState {
    AwaitAccept,
    AwaitRequest {
        conn: Fd,
    },
    Computing {
        conn: Fd,
        req: ReqCtx,
    },
    Connecting {
        conn: Fd,
        req: ReqCtx,
        call: usize,
    },
    AwaitCallResponse {
        conn: Fd,
        req: ReqCtx,
        call: usize,
        up_fd: Fd,
        tok: crate::tracer::CallToken,
    },
    AwaitInternal,
    ForwardConnecting {
        job: ProxyJob,
    },
    ForwardAwaitResponse {
        job: ProxyJob,
        up_fd: Fd,
    },
}

struct Worker {
    tid: Tid,
    state: WState,
    conn_cache: HashMap<String, Fd>,
}

/// A running service.
pub struct Service {
    /// The spec (behaviour, protocol...).
    pub spec: ServiceSpec,
    /// Process id.
    pub pid: Pid,
    listen_fd: Fd,
    workers: Vec<Worker>,
    handoff: VecDeque<ProxyJob>,
    mux: u64,
    xid_counter: u128,
    my_index: usize,
    /// Requests served.
    pub served: u64,
    /// Error responses returned.
    pub errors: u64,
    /// Upstream failures turned into 502s.
    pub upstream_failures: u64,
}

impl Service {
    /// Spawn the service on its node: process, listener, parked workers.
    pub fn start(
        spec: ServiceSpec,
        my_index: usize,
        kernels: &mut BTreeMap<NodeId, Kernel>,
        owners: &mut HashMap<(NodeId, Tid), Owner>,
        _now: TimeNs,
    ) -> Service {
        let kernel = kernels.get_mut(&spec.node).expect("service node exists");
        let (pid, main_tid) = kernel.procs.spawn_process(&spec.name);
        let transport = if spec.protocol == L7Protocol::Dns {
            TransportProtocol::Udp
        } else {
            TransportProtocol::Tcp
        };
        let listen_fd = kernel.socket(pid, transport).expect("socket");
        kernel
            .bind(pid, listen_fd, spec.ip, spec.port)
            .expect("bind");
        if transport == TransportProtocol::Tcp {
            kernel.listen(pid, listen_fd, 1024).expect("listen");
        }
        let mut workers = Vec::with_capacity(spec.workers.max(1));
        for w in 0..spec.workers.max(1) {
            let tid = if w == 0 {
                main_tid
            } else {
                kernel.procs.spawn_thread(pid).expect("spawn worker")
            };
            owners.insert(
                (spec.node, tid),
                Owner::Service {
                    idx: my_index,
                    worker: w,
                },
            );
            let forwarder = matches!(spec.behavior, Behavior::Proxy { handoff: true, .. })
                && w >= spec.workers.max(1) / 2;
            let state = if transport == TransportProtocol::Udp {
                // UDP "workers" all read from the bound socket.
                WState::AwaitRequest { conn: listen_fd }
            } else if forwarder {
                // Handoff proxies dedicate the second half of the pool to
                // forwarding; these threads wait on the internal queue.
                WState::AwaitInternal
            } else {
                WState::AwaitAccept
            };
            workers.push(Worker {
                tid,
                state,
                conn_cache: HashMap::new(),
            });
        }
        let mut svc = Service {
            spec,
            pid,
            listen_fd,
            workers,
            handoff: VecDeque::new(),
            mux: 1,
            xid_counter: 1,
            my_index,
            served: 0,
            errors: 0,
            upstream_failures: 0,
        };
        // Park every worker (accept / read).
        for w in 0..svc.workers.len() {
            park_initial(&mut svc, kernel, w);
        }
        svc
    }

    /// The service's listener fd (socket-option tweaks from scenarios).
    pub fn listen_fd(&self) -> Fd {
        self.listen_fd
    }

    fn next_xid(&mut self) -> XRequestId {
        let v = self.xid_counter;
        self.xid_counter += 1;
        XRequestId((u128::from(self.pid.raw()) << 64) | v)
    }

    fn next_mux(&mut self) -> u64 {
        let v = self.mux;
        self.mux += 1;
        v
    }
}

fn park_initial(svc: &mut Service, kernel: &mut Kernel, w: usize) {
    let tid = svc.workers[w].tid;
    match &svc.workers[w].state {
        WState::AwaitAccept => {
            let _ = kernel.accept(tid, svc.pid, svc.listen_fd);
        }
        WState::AwaitRequest { conn } => {
            let _ = kernel.sys_recvfrom(tid, svc.pid, *conn, 65536, TimeNs::ZERO);
        }
        _ => {}
    }
}

/// Resume a worker: drive its state machine until it blocks.
pub fn step(svc: &mut Service, ctx: &mut Ctx<'_>, w: usize, now: TimeNs) {
    let node = svc.spec.node;
    let mut t = now;
    // Bounded loop: a worker can serve several back-to-back requests per
    // resume, but never spins forever.
    for _ in 0..64 {
        let state = std::mem::replace(&mut svc.workers[w].state, WState::AwaitAccept);
        let outcome = advance(svc, ctx, w, state, &mut t);
        ctx.flush(node, t);
        match outcome {
            Flow::Continue => continue,
            Flow::Blocked => break,
        }
    }
}

enum Flow {
    Continue,
    Blocked,
}

fn advance(svc: &mut Service, ctx: &mut Ctx<'_>, w: usize, state: WState, t: &mut TimeNs) -> Flow {
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    match state {
        WState::AwaitAccept => match ctx.kernel(node).accept(tid, pid, svc.listen_fd) {
            SyscallOutcome::Complete {
                value: conn,
                duration,
            } => {
                *t += duration;
                svc.workers[w].state = WState::AwaitRequest { conn };
                Flow::Continue
            }
            SyscallOutcome::WouldBlock => {
                svc.workers[w].state = WState::AwaitAccept;
                Flow::Blocked
            }
            SyscallOutcome::Error { .. } => {
                svc.workers[w].state = WState::AwaitAccept;
                Flow::Blocked
            }
        },
        WState::AwaitRequest { conn } => read_request(svc, ctx, w, conn, t),
        WState::Computing { conn, req } => start_behavior(svc, ctx, w, conn, req, t),
        WState::Connecting { conn, req, call } => {
            // The connect wakeup arrived; the cached fd was stored before
            // parking. Re-send through the call path.
            do_call(svc, ctx, w, conn, req, call, t)
        }
        WState::AwaitCallResponse {
            conn,
            req,
            call,
            up_fd,
            tok,
        } => read_call_response(svc, ctx, w, conn, req, call, up_fd, tok, t),
        WState::AwaitInternal => {
            if let Some(job) = svc.handoff.pop_front() {
                forward(svc, ctx, w, job, t)
            } else {
                svc.workers[w].state = WState::AwaitInternal;
                Flow::Blocked
            }
        }
        WState::ForwardConnecting { job } => forward(svc, ctx, w, job, t),
        WState::ForwardAwaitResponse { job, up_fd } => {
            read_forward_response(svc, ctx, w, job, up_fd, t)
        }
    }
}

fn read_request(svc: &mut Service, ctx: &mut Ctx<'_>, w: usize, conn: Fd, t: &mut TimeNs) -> Flow {
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    let udp = svc.spec.protocol == L7Protocol::Dns;
    let result = if udp {
        ctx.kernel(node).sys_recvfrom(tid, pid, conn, 65536, *t)
    } else {
        ctx.kernel(node).sys_read(tid, pid, conn, 65536, *t)
    };
    match result {
        SyscallOutcome::Complete { value, duration } => {
            *t += duration;
            if value.data.is_empty() {
                // EOF: connection closed by peer.
                let _ = ctx.kernel(node).close(pid, conn);
                svc.workers[w].state = WState::AwaitAccept;
                return Flow::Continue;
            }
            // TLS services unwrap the record to get plaintext, visible to
            // the ssl_read uprobe.
            let plaintext = if svc.spec.tls {
                let Some(inner) = tls_unwrap(&value.data) else {
                    svc.workers[w].state = WState::AwaitRequest { conn };
                    return Flow::Continue;
                };
                let overhead =
                    ctx.kernel(node)
                        .invoke_user_fn(tid, pid, "ssl_read", &inner, Some(conn), *t);
                *t += overhead;
                inner
            } else {
                value.data.clone()
            };
            let Some(parse) =
                inference::parse_message(infer_or(svc.spec.protocol, &plaintext), &plaintext)
            else {
                svc.workers[w].state = WState::AwaitRequest { conn };
                return Flow::Continue;
            };
            if parse.msg_type != MessageType::Request {
                svc.workers[w].state = WState::AwaitRequest { conn };
                return Flow::Continue;
            }
            // Status: error-endpoint fault injection.
            let mut status = 200u16;
            for (substr, code) in &svc.spec.error_endpoints {
                if parse.endpoint.contains(substr.as_str()) {
                    status = *code;
                }
            }
            // Intrusive tracer server span.
            let server_token =
                svc.spec
                    .tracer
                    .on_request(&svc.spec.name, &parse.endpoint, &parse.headers, *t);
            let tracer_cost = svc.spec.tracer.overhead_per_op();
            // Coroutine runtime: each request runs in a fresh coroutine.
            let coroutine = if svc.spec.runtime == RuntimeKind::Coroutines {
                let kernel = ctx.kernel(node);
                let c = kernel.procs.spawn_coroutine(pid, None);
                let _ = kernel.procs.set_current_coroutine(tid, Some(c));
                Some(c)
            } else {
                None
            };
            let req = ReqCtx {
                endpoint: parse.endpoint.clone(),
                key: parse.session_key,
                headers_in: parse.headers,
                status,
                server_token,
                coroutine,
                raw_request: plaintext,
                inject: Vec::new(),
                peer: value.peer,
            };
            // Compute, then continue via timer. A co-resident agent's
            // user-space processing taxes the node's CPUs (see Ctx::cpu_tax).
            let stretched = svc.spec.compute.mul_f64(ctx.compute_stretch(node));
            let ready = *t + stretched + tracer_cost;
            ctx.queue.schedule(ready, Event::Resume { node, tid });
            svc.workers[w].state = WState::Computing { conn, req };
            Flow::Blocked
        }
        SyscallOutcome::WouldBlock => {
            svc.workers[w].state = WState::AwaitRequest { conn };
            Flow::Blocked
        }
        SyscallOutcome::Error { .. } => {
            let _ = ctx.kernel(node).close(pid, conn);
            svc.workers[w].state = WState::AwaitAccept;
            Flow::Continue
        }
    }
}

fn start_behavior(
    svc: &mut Service,
    ctx: &mut Ctx<'_>,
    w: usize,
    conn: Fd,
    req: ReqCtx,
    t: &mut TimeNs,
) -> Flow {
    match &svc.spec.behavior {
        Behavior::Leaf => respond(svc, ctx, w, conn, req, t),
        Behavior::Chain(_) => do_call(svc, ctx, w, conn, req, 0, t),
        Behavior::Proxy { upstream, handoff } => {
            let upstream = upstream.clone();
            let handoff = *handoff;
            let xid = svc.next_xid();
            let job = ProxyJob {
                down_fd: conn,
                req,
                xid,
            };
            if handoff {
                // Cross-thread handoff: queue the job and go back to
                // reading; a forwarder thread picks it up.
                svc.handoff.push_back(job);
                ctx.queue.schedule(
                    *t + DurationNs::from_micros(20),
                    Event::Internal {
                        service: svc.my_index,
                    },
                );
                svc.workers[w].state = WState::AwaitRequest { conn };
                Flow::Continue
            } else {
                let _ = upstream;
                forward(svc, ctx, w, job, t)
            }
        }
    }
}

/// Make (or continue) downstream call `idx` of a Chain.
fn do_call(
    svc: &mut Service,
    ctx: &mut Ctx<'_>,
    w: usize,
    conn: Fd,
    mut req: ReqCtx,
    idx: usize,
    t: &mut TimeNs,
) -> Flow {
    let Behavior::Chain(calls) = &svc.spec.behavior else {
        return respond(svc, ctx, w, conn, req, t);
    };
    if idx >= calls.len() {
        return respond(svc, ctx, w, conn, req, t);
    }
    let call = calls[idx].clone();
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    let Some(endpoint) = ctx.registry.get(&call.target).copied() else {
        req.status = 502;
        svc.upstream_failures += 1;
        return respond(svc, ctx, w, conn, req, t);
    };
    // Connection (re)use.
    let up_fd = match svc.workers[w].conn_cache.get(&call.target).copied() {
        Some(fd) => fd,
        None => {
            let transport = if call.protocol == L7Protocol::Dns {
                TransportProtocol::Udp
            } else {
                TransportProtocol::Tcp
            };
            let fd = match ctx.kernel(node).socket(pid, transport) {
                Ok(fd) => fd,
                Err(_) => {
                    req.status = 502;
                    svc.upstream_failures += 1;
                    return respond(svc, ctx, w, conn, req, t);
                }
            };
            let ip = svc.spec.ip;
            match ctx
                .kernel(node)
                .connect(tid, pid, fd, ip, (endpoint.ip, endpoint.port))
            {
                SyscallOutcome::Complete { duration, .. } => {
                    *t += duration;
                    svc.workers[w].conn_cache.insert(call.target.clone(), fd);
                    fd
                }
                SyscallOutcome::WouldBlock => {
                    ctx.flush(node, *t);
                    svc.workers[w].conn_cache.insert(call.target.clone(), fd);
                    svc.workers[w].state = WState::Connecting {
                        conn,
                        req,
                        call: idx,
                    };
                    return Flow::Blocked;
                }
                SyscallOutcome::Error { .. } => {
                    req.status = 502;
                    svc.upstream_failures += 1;
                    return respond(svc, ctx, w, conn, req, t);
                }
            }
        }
    };
    // Intrusive tracer: client span + headers for explicit propagation.
    let (call_token, headers) = svc.spec.tracer.on_call(req.server_token, &call.target, *t);
    *t += svc.spec.tracer.overhead_per_op();
    req.inject = headers.clone();
    let mux = svc.next_mux();
    let payload = build_request(call.protocol, &call.endpoint, &headers, mux);
    let send = ctx.kernel(node).sys_write(tid, pid, up_fd, payload, *t);
    match send {
        SyscallOutcome::Complete { duration, .. } => {
            *t += duration;
            svc.workers[w].state = WState::AwaitCallResponse {
                conn,
                req,
                call: idx,
                up_fd,
                tok: call_token,
            };
            Flow::Continue
        }
        SyscallOutcome::WouldBlock => unreachable!("sends never block in the sim"),
        SyscallOutcome::Error { .. } => {
            svc.workers[w].conn_cache.remove(&call.target);
            req.status = 502;
            svc.upstream_failures += 1;
            respond(svc, ctx, w, conn, req, t)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn read_call_response(
    svc: &mut Service,
    ctx: &mut Ctx<'_>,
    w: usize,
    conn: Fd,
    mut req: ReqCtx,
    idx: usize,
    up_fd: Fd,
    tok: crate::tracer::CallToken,
    t: &mut TimeNs,
) -> Flow {
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    match ctx.kernel(node).sys_read(tid, pid, up_fd, 65536, *t) {
        SyscallOutcome::Complete { value, duration } => {
            *t += duration;
            let ok = !value.data.is_empty();
            let failed = value.data.is_empty();
            svc.spec.tracer.on_call_done(tok, *t, ok);
            *t += svc.spec.tracer.overhead_per_op();
            if failed {
                // upstream closed on us
                req.status = 502;
                svc.upstream_failures += 1;
                if let Behavior::Chain(calls) = &svc.spec.behavior {
                    let target = &calls[idx].target;
                    let cached = svc.workers[w].conn_cache.remove(target);
                    if let Some(fd) = cached {
                        let _ = ctx.kernel(node).close(pid, fd);
                    }
                }
                return respond(svc, ctx, w, conn, req, t);
            }
            // Error responses from dependencies may propagate.
            if let Some(parse) = inference::infer_protocol(&value.data)
                .and_then(|p| inference::parse_message(p, &value.data))
            {
                if parse.status() == SpanStatus::ServerError && req.status == 200 {
                    req.status = 503;
                }
            }
            do_call(svc, ctx, w, conn, req, idx + 1, t)
        }
        SyscallOutcome::WouldBlock => {
            svc.workers[w].state = WState::AwaitCallResponse {
                conn,
                req,
                call: idx,
                up_fd,
                tok,
            };
            Flow::Blocked
        }
        SyscallOutcome::Error { .. } => {
            if let Behavior::Chain(calls) = &svc.spec.behavior {
                svc.workers[w].conn_cache.remove(&calls[idx].target);
            }
            req.status = 502;
            svc.upstream_failures += 1;
            respond(svc, ctx, w, conn, req, t)
        }
    }
}

/// Proxy forward path (inline or from the handoff queue).
fn forward(svc: &mut Service, ctx: &mut Ctx<'_>, w: usize, job: ProxyJob, t: &mut TimeNs) -> Flow {
    let Behavior::Proxy { upstream, .. } = &svc.spec.behavior else {
        return Flow::Blocked;
    };
    let upstream = upstream.clone();
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    let Some(endpoint) = ctx.registry.get(&upstream).copied() else {
        return respond_proxy_error(svc, ctx, w, job, t);
    };
    let up_fd = match svc.workers[w].conn_cache.get(&upstream).copied() {
        Some(fd) => fd,
        None => {
            let Ok(fd) = ctx.kernel(node).socket(pid, TransportProtocol::Tcp) else {
                return respond_proxy_error(svc, ctx, w, job, t);
            };
            let ip = svc.spec.ip;
            match ctx
                .kernel(node)
                .connect(tid, pid, fd, ip, (endpoint.ip, endpoint.port))
            {
                SyscallOutcome::Complete { duration, .. } => {
                    *t += duration;
                    svc.workers[w].conn_cache.insert(upstream.clone(), fd);
                    fd
                }
                SyscallOutcome::WouldBlock => {
                    ctx.flush(node, *t);
                    svc.workers[w].conn_cache.insert(upstream.clone(), fd);
                    svc.workers[w].state = WState::ForwardConnecting { job };
                    return Flow::Blocked;
                }
                SyscallOutcome::Error { .. } => {
                    return respond_proxy_error(svc, ctx, w, job, t);
                }
            }
        }
    };
    // Re-emit the request with the proxy's X-Request-ID added (the
    // "original capabilities" DeepFlow leans on for cross-thread
    // association).
    let mut headers = vec![("X-Request-ID".to_string(), job.xid.to_wire())];
    if let Some(tp) = traceparent_of(&job.req.headers_in) {
        headers.push(("traceparent".to_string(), tp));
    }
    let payload = build_request(L7Protocol::Http1, &job.req.endpoint, &headers, 0);
    match ctx.kernel(node).sys_write(tid, pid, up_fd, payload, *t) {
        SyscallOutcome::Complete { duration, .. } => {
            *t += duration;
            svc.workers[w].state = WState::ForwardAwaitResponse { job, up_fd };
            Flow::Continue
        }
        _ => respond_proxy_error(svc, ctx, w, job, t),
    }
}

fn read_forward_response(
    svc: &mut Service,
    ctx: &mut Ctx<'_>,
    w: usize,
    job: ProxyJob,
    up_fd: Fd,
    t: &mut TimeNs,
) -> Flow {
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    match ctx.kernel(node).sys_read(tid, pid, up_fd, 65536, *t) {
        SyscallOutcome::Complete { value, duration } => {
            *t += duration;
            if value.data.is_empty() {
                if let Behavior::Proxy { upstream, .. } = &svc.spec.behavior {
                    svc.workers[w].conn_cache.remove(upstream.as_str());
                }
                return respond_proxy_error(svc, ctx, w, job, t);
            }
            // Relay the response downstream, tagging it with the same
            // X-Request-ID so both legs share the id.
            let status = inference::infer_protocol(&value.data)
                .and_then(|p| inference::parse_message(p, &value.data))
                .and_then(|p| p.status_code)
                .unwrap_or(200);
            let headers = vec![("X-Request-ID".to_string(), job.xid.to_wire())];
            let resp = http1::response(status, &headers, &vec![b'p'; svc.spec.resp_bytes]);
            let _ = ctx.kernel(node).sys_write(tid, pid, job.down_fd, resp, *t);
            svc.served += 1;
            if status >= 400 {
                svc.errors += 1;
            }
            finish_forwarder(svc, w, job.down_fd);
            Flow::Continue
        }
        SyscallOutcome::WouldBlock => {
            svc.workers[w].state = WState::ForwardAwaitResponse { job, up_fd };
            Flow::Blocked
        }
        SyscallOutcome::Error { .. } => {
            if let Behavior::Proxy { upstream, .. } = &svc.spec.behavior {
                svc.workers[w].conn_cache.remove(upstream.as_str());
            }
            respond_proxy_error(svc, ctx, w, job, t)
        }
    }
}

fn respond_proxy_error(
    svc: &mut Service,
    ctx: &mut Ctx<'_>,
    w: usize,
    job: ProxyJob,
    t: &mut TimeNs,
) -> Flow {
    let node = svc.spec.node;
    let tid = svc.workers[w].tid;
    svc.upstream_failures += 1;
    svc.errors += 1;
    svc.served += 1;
    let headers = vec![("X-Request-ID".to_string(), job.xid.to_wire())];
    let resp = http1::response(502, &headers, b"bad gateway");
    let _ = ctx
        .kernel(node)
        .sys_write(tid, svc.pid, job.down_fd, resp, *t);
    finish_forwarder(svc, w, job.down_fd);
    Flow::Continue
}

/// After a forward completes, the worker either takes the next handoff job
/// or (inline proxies) returns to reading its own connection.
fn finish_forwarder(svc: &mut Service, w: usize, down_fd: Fd) {
    let handoff = matches!(svc.spec.behavior, Behavior::Proxy { handoff: true, .. });
    if handoff && is_forwarder(svc, w) {
        svc.workers[w].state = WState::AwaitInternal;
    } else {
        // Inline proxy: the downstream fd is this worker's own connection;
        // go back to reading the next request on it.
        svc.workers[w].state = WState::AwaitRequest { conn: down_fd };
    }
}

/// In handoff mode the second half of the pool are dedicated forwarders.
fn is_forwarder(svc: &Service, w: usize) -> bool {
    w >= svc.workers.len() / 2
}

fn respond(
    svc: &mut Service,
    ctx: &mut Ctx<'_>,
    w: usize,
    conn: Fd,
    req: ReqCtx,
    t: &mut TimeNs,
) -> Flow {
    let node = svc.spec.node;
    let pid = svc.pid;
    let tid = svc.workers[w].tid;
    let ok = req.status < 400;
    // Echo the request's X-Request-ID in the response when present.
    let mut headers = Vec::new();
    if let Some(xid) = req.headers_in.x_request_id {
        headers.push(("X-Request-ID".to_string(), xid.to_wire()));
    }
    let body = vec![b'd'; svc.spec.resp_bytes];
    let payload = build_response(
        svc.spec.protocol,
        req.key,
        &req.endpoint,
        req.status,
        &headers,
        &body,
    );
    let payload = if svc.spec.tls {
        let overhead =
            ctx.kernel(node)
                .invoke_user_fn(tid, pid, "ssl_write", &payload, Some(conn), *t);
        *t += overhead;
        tls_wrap(&payload)
    } else {
        payload
    };
    svc.spec.tracer.on_response(req.server_token, *t, ok);
    *t += svc.spec.tracer.overhead_per_op();
    if let Some(c) = req.coroutine {
        let kernel = ctx.kernel(node);
        kernel.procs.finish_coroutine(pid, c);
        let _ = kernel.procs.set_current_coroutine(tid, None);
    }
    let udp = svc.spec.protocol == L7Protocol::Dns;
    let result = if udp {
        // UDP: reply to the datagram's recorded peer.
        ctx.kernel(node)
            .sys_sendto(tid, pid, conn, payload, req.peer, *t)
    } else {
        ctx.kernel(node).sys_write(tid, pid, conn, payload, *t)
    };
    match result {
        SyscallOutcome::Complete { duration, .. } => {
            *t += duration;
        }
        _ => {
            // Peer went away; nothing to do.
        }
    }
    svc.served += 1;
    if !ok {
        svc.errors += 1;
    }
    svc.workers[w].state = WState::AwaitRequest { conn };
    Flow::Continue
}

/// Internal handoff event: wake an idle forwarder.
pub fn internal(svc: &mut Service, ctx: &mut Ctx<'_>, now: TimeNs) {
    if svc.handoff.is_empty() {
        return;
    }
    let idle = svc
        .workers
        .iter()
        .position(|w| matches!(w.state, WState::AwaitInternal));
    if let Some(w) = idle {
        step(svc, ctx, w, now);
    }
    // No idle forwarder: the job waits; the next finish_forwarder checks
    // the queue via AwaitInternal.
}

fn infer_or(declared: L7Protocol, payload: &[u8]) -> L7Protocol {
    inference::infer_protocol(payload).unwrap_or(declared)
}

fn traceparent_of(h: &TraceHeaders) -> Option<String> {
    match (h.trace_id, h.span_id) {
        (Some(t), Some(s)) => Some(format!("00-{}-{}-01", t.to_hex(), s.to_hex())),
        _ => None,
    }
}

/// Build a downstream request payload.
pub fn build_request(
    protocol: L7Protocol,
    endpoint: &str,
    headers: &[(String, String)],
    mux: u64,
) -> Bytes {
    match protocol {
        L7Protocol::Http1 => {
            let (method, path) = endpoint.split_once(' ').unwrap_or(("GET", endpoint));
            http1::request(method, path, headers, b"")
        }
        L7Protocol::Http2 => {
            let (method, path) = endpoint.split_once(' ').unwrap_or(("GET", endpoint));
            http2::request(mux as u32, method, path, headers)
        }
        L7Protocol::Dns => {
            let name = endpoint.strip_prefix("A ").unwrap_or(endpoint);
            dns::query(mux as u16, name)
        }
        L7Protocol::Redis => {
            let args: Vec<&str> = endpoint.split_whitespace().collect();
            redis::command(&args)
        }
        L7Protocol::Mysql => mysql::query(endpoint),
        L7Protocol::Kafka => kafka::request(kafka::API_PRODUCE, mux as i32, "df-mesh"),
        L7Protocol::Mqtt => mqtt::publish(mux as u16, endpoint, b"payload"),
        L7Protocol::Dubbo => {
            let (svc, method) = endpoint.split_once('/').unwrap_or((endpoint, "call"));
            dubbo::request(mux, svc, method)
        }
        L7Protocol::Amqp => {
            let queue = endpoint.strip_prefix("basic.publish ").unwrap_or(endpoint);
            amqp::publish(mux as u16, queue, b"{}")
        }
        L7Protocol::Custom(_) | L7Protocol::Tls | L7Protocol::Unknown => {
            let (method, path) = endpoint.split_once(' ').unwrap_or(("GET", endpoint));
            http1::request(method, path, headers, b"")
        }
    }
}

/// Build a response payload matching the request's protocol and session key.
pub fn build_response(
    protocol: L7Protocol,
    key: SessionKey,
    endpoint: &str,
    status: u16,
    headers: &[(String, String)],
    body: &[u8],
) -> Bytes {
    let mux = match key {
        SessionKey::Multiplexed(id) => id,
        SessionKey::Ordered => 0,
    };
    match protocol {
        L7Protocol::Http1 => http1::response(status, headers, body),
        L7Protocol::Http2 => http2::response(mux as u32, status, headers),
        L7Protocol::Dns => {
            let name = endpoint.strip_prefix("A ").unwrap_or(endpoint);
            let rcode = if status >= 500 {
                dns::RCODE_SERVFAIL
            } else if status >= 400 {
                dns::RCODE_NXDOMAIN
            } else {
                dns::RCODE_OK
            };
            dns::answer(mux as u16, name, rcode)
        }
        L7Protocol::Redis => {
            if status >= 400 {
                redis::error("simulated failure")
            } else {
                redis::bulk(body)
            }
        }
        L7Protocol::Mysql => {
            if status >= 400 {
                mysql::err(status, "simulated failure")
            } else {
                mysql::result_set(3)
            }
        }
        L7Protocol::Kafka => kafka::response(mux as i32, if status >= 400 { 6 } else { 0 }),
        L7Protocol::Mqtt => mqtt::puback(mux as u16),
        L7Protocol::Dubbo => dubbo::response(
            mux,
            if status >= 400 {
                dubbo::STATUS_SERVER_ERROR
            } else {
                dubbo::STATUS_OK
            },
            body,
        ),
        L7Protocol::Amqp => amqp::ack(mux as u16),
        L7Protocol::Custom(_) | L7Protocol::Tls | L7Protocol::Unknown => {
            http1::response(status, headers, body)
        }
    }
}

/// Wrap plaintext in a TLS-record-looking envelope (opaque to sniffers).
pub fn tls_wrap(plain: &Bytes) -> Bytes {
    let mut out = Vec::with_capacity(plain.len() + 5);
    out.extend_from_slice(&[0x16, 0x03, 0x03]);
    out.extend_from_slice(&(plain.len() as u16).to_be_bytes());
    // XOR so the body doesn't accidentally sniff as an inner protocol.
    out.extend(plain.iter().map(|b| b ^ 0xAA));
    Bytes::from(out)
}

/// Unwrap the TLS envelope.
pub fn tls_unwrap(wire: &Bytes) -> Option<Bytes> {
    if wire.len() < 5 || wire[0] != 0x16 {
        return None;
    }
    let len = u16::from_be_bytes([wire[3], wire[4]]) as usize;
    let body = wire.get(5..5 + len)?;
    Some(Bytes::from(
        body.iter().map(|b| b ^ 0xAA).collect::<Vec<u8>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls_wrap_round_trips_and_defeats_sniffers() {
        let plain = http1::request("GET", "/secret", &[], b"");
        let wire = tls_wrap(&plain);
        assert!(inference::infer_protocol(&wire).is_none(), "wire is opaque");
        assert_eq!(tls_unwrap(&wire).unwrap(), plain);
        assert!(tls_unwrap(&Bytes::from_static(b"junk")).is_none());
    }

    #[test]
    fn request_builders_emit_parseable_bytes() {
        for proto in [
            L7Protocol::Http1,
            L7Protocol::Http2,
            L7Protocol::Dns,
            L7Protocol::Redis,
            L7Protocol::Mysql,
            L7Protocol::Kafka,
            L7Protocol::Mqtt,
            L7Protocol::Dubbo,
            L7Protocol::Amqp,
        ] {
            let endpoint = match proto {
                L7Protocol::Dns => "A svc.cluster.local",
                L7Protocol::Redis => "GET key:1",
                L7Protocol::Mysql => "SELECT 1",
                L7Protocol::Dubbo => "OrderSvc/place",
                L7Protocol::Amqp => "basic.publish orders",
                L7Protocol::Mqtt => "telemetry/x",
                _ => "GET /api",
            };
            let req = build_request(proto, endpoint, &[], 7);
            let inferred = inference::infer_protocol(&req).expect("sniffable");
            assert_eq!(inferred, proto, "builder for {proto}");
            let parsed = inference::parse_message(inferred, &req).expect("parseable");
            assert_eq!(parsed.msg_type, MessageType::Request, "{proto}");
        }
    }

    #[test]
    fn response_builders_match_request_keys() {
        for (proto, key) in [
            (L7Protocol::Http1, SessionKey::Ordered),
            (L7Protocol::Http2, SessionKey::Multiplexed(9)),
            (L7Protocol::Dns, SessionKey::Multiplexed(5)),
            (L7Protocol::Redis, SessionKey::Ordered),
            (L7Protocol::Mysql, SessionKey::Ordered),
            (L7Protocol::Kafka, SessionKey::Multiplexed(3)),
            (L7Protocol::Dubbo, SessionKey::Multiplexed(11)),
        ] {
            let resp = build_response(proto, key, "A x.local", 200, &[], b"ok");
            let parsed = inference::parse_message(proto, &resp).expect("parseable");
            assert_eq!(parsed.msg_type, MessageType::Response, "{proto}");
            assert_eq!(parsed.session_key, key, "{proto}");
        }
    }

    #[test]
    fn error_statuses_translate_per_protocol() {
        let r = build_response(
            L7Protocol::Redis,
            SessionKey::Ordered,
            "GET k",
            500,
            &[],
            b"",
        );
        assert_eq!(
            inference::parse_message(L7Protocol::Redis, &r)
                .unwrap()
                .status(),
            SpanStatus::ServerError
        );
        let d = build_response(
            L7Protocol::Dns,
            SessionKey::Multiplexed(1),
            "A missing.local",
            404,
            &[],
            b"",
        );
        assert_eq!(
            inference::parse_message(L7Protocol::Dns, &d)
                .unwrap()
                .status(),
            SpanStatus::ClientError
        );
        let m = build_response(
            L7Protocol::Mysql,
            SessionKey::Ordered,
            "SELECT 1",
            500,
            &[],
            b"",
        );
        assert_eq!(
            inference::parse_message(L7Protocol::Mysql, &m)
                .unwrap()
                .status(),
            SpanStatus::ServerError
        );
    }
}
