//! Criterion microbench for Fig. 13: real per-event cost of the hook
//! machinery (dispatch + enter-map join + payload copy + ring publish) per
//! Table 3 ABI, kprobe vs tracepoint, DeepFlow program vs empty program.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use df_agent::ebpf::{DeepFlowSyscallProgram, EmptyProgram, SharedProgram};
use df_kernel::hooks::{
    AttachPoint, HookContext, HookEngine, HookOverheadModel, HookPhase, ProbeKind,
};
use df_types::{FiveTuple, NodeId, Pid, SocketId, SyscallAbi, Tid, TimeNs};
use std::net::Ipv4Addr;

fn ctx<'a>(abi: SyscallAbi, phase: HookPhase, payload: &'a [u8]) -> HookContext<'a> {
    HookContext {
        phase,
        abi: Some(abi),
        symbol: None,
        ts: TimeNs(1),
        pid: Pid(1),
        tid: Tid(1),
        coroutine: None,
        process_name: "bench",
        node: NodeId(1),
        socket_id: Some(SocketId(1)),
        five_tuple: Some(FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )),
        tcp_seq: Some(1000),
        direction: Some(abi.direction()),
        byte_len: payload.len(),
        payload: Some(payload),
        first_syscall: true,
    }
}

fn engine(abi: SyscallAbi, kind: ProbeKind, deepflow: bool) -> HookEngine {
    let mut engine = HookEngine::new(1 << 20, HookOverheadModel::default());
    if deepflow {
        let prog = SharedProgram::new(DeepFlowSyscallProgram::new(256));
        engine
            .attach(AttachPoint::SyscallEnter(abi), kind, Box::new(prog.clone()))
            .unwrap();
        engine
            .attach(AttachPoint::SyscallExit(abi), kind, Box::new(prog))
            .unwrap();
    } else {
        engine
            .attach(
                AttachPoint::SyscallEnter(abi),
                kind,
                Box::new(EmptyProgram::new()),
            )
            .unwrap();
        engine
            .attach(
                AttachPoint::SyscallExit(abi),
                kind,
                Box::new(EmptyProgram::new()),
            )
            .unwrap();
    }
    engine
}

fn bench_hooks(c: &mut Criterion) {
    let payload = Bytes::from(vec![0x41u8; 256]);
    let mut group = c.benchmark_group("fig13_hook_pair");
    // The full 10-ABI matrix runs in the fig13_report binary; criterion
    // tracks a representative subset for regression purposes.
    for abi in [
        SyscallAbi::Read,
        SyscallAbi::Write,
        SyscallAbi::Recvmsg,
        SyscallAbi::Sendmmsg,
    ] {
        for (label, deepflow) in [("empty", false), ("deepflow", true)] {
            group.bench_with_input(
                BenchmarkId::new(format!("kprobe_{label}"), abi.name()),
                &abi,
                |b, &abi| {
                    let mut eng = engine(abi, ProbeKind::Kprobe, deepflow);
                    let enter = ctx(abi, HookPhase::Enter, &payload);
                    let exit = ctx(abi, HookPhase::Exit, &payload);
                    b.iter(|| {
                        eng.fire(&AttachPoint::SyscallEnter(abi), &enter);
                        eng.fire(&AttachPoint::SyscallExit(abi), &exit);
                        if eng.ring.len() > (1 << 19) {
                            eng.ring.drain_all();
                        }
                    });
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("tracepoint_deepflow", abi.name()),
            &abi,
            |b, &abi| {
                let mut eng = engine(abi, ProbeKind::Tracepoint, true);
                let enter = ctx(abi, HookPhase::Enter, &payload);
                let exit = ctx(abi, HookPhase::Exit, &payload);
                b.iter(|| {
                    eng.fire(&AttachPoint::SyscallEnter(abi), &enter);
                    eng.fire(&AttachPoint::SyscallExit(abi), &exit);
                    if eng.ring.len() > (1 << 19) {
                        eng.ring.drain_all();
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hooks);
criterion_main!(benches);
