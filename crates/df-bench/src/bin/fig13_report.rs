//! Fig. 13 — per-event instrumentation overhead, measured in real wall
//! time over this repository's actual hook machinery (dispatch, the
//! (pid,tid) enter-map join, payload copy, perf-ring publish).
//!
//! Protocol mirrors §5.1: deploy an empty program for the floor, then the
//! DeepFlow program, invoke each ABI 100,000 times, report the mean
//! per-event cost and DeepFlow's addition over the empty baseline.

use bytes::Bytes;
use df_agent::ebpf::{DeepFlowSyscallProgram, EmptyProgram, SharedProgram};
use df_bench::report;
use df_kernel::hooks::{
    AttachPoint, HookContext, HookEngine, HookOverheadModel, HookPhase, ProbeKind,
};
use df_types::{FiveTuple, NodeId, Pid, SocketId, SyscallAbi, Tid, TimeNs};
use std::net::Ipv4Addr;
use std::time::Instant;

const ITERS: u32 = 100_000;

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

/// Wall-clock ns per enter+exit pair with the given program installed.
fn measure(abi: SyscallAbi, kind: ProbeKind, deepflow: bool) -> f64 {
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
    let payload = Bytes::from(vec![0x41u8; 256]);
    let enter = ctx(abi, HookPhase::Enter, &payload);
    let exit = ctx(abi, HookPhase::Exit, &payload);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        engine.fire(&AttachPoint::SyscallEnter(abi), &enter);
        engine.fire(&AttachPoint::SyscallExit(abi), &exit);
        // Keep the ring from filling (the agent would drain it).
        if engine.ring.len() > (1 << 19) {
            engine.ring.drain_all();
        }
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

fn main() {
    report::header("Fig. 13(a): per-event hook cost, kprobe vs tracepoint (wall clock)");
    println!("  {ITERS} enter+exit pairs per ABI; 'added' = DeepFlow program − empty program\n");
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for abi in SyscallAbi::ALL {
        for kind in [ProbeKind::Kprobe, ProbeKind::Tracepoint] {
            let empty = measure(abi, kind, false);
            let full = measure(abi, kind, true);
            let added = (full - empty).max(0.0);
            rows.push(vec![
                abi.name().to_string(),
                format!("{kind:?}"),
                format!("{empty:.0}"),
                format!("{full:.0}"),
                format!("{added:.0}"),
            ]);
            results.push(serde_json::json!({
                "abi": abi.name(), "kind": format!("{kind:?}"),
                "empty_ns": empty, "deepflow_ns": full, "added_ns": added,
            }));
        }
    }
    report::table(
        &[
            "ABI",
            "probe",
            "empty ns/pair",
            "deepflow ns/pair",
            "added ns/pair",
        ],
        &rows,
    );

    report::header("Fig. 13(b): uprobe-class extension points");
    let mut engine = HookEngine::new(1 << 20, HookOverheadModel::default());
    let tls = SharedProgram::new(df_agent::ebpf::DeepFlowTlsProgram::new(256));
    engine
        .attach(
            AttachPoint::UserFnEnter("ssl_read"),
            ProbeKind::Uprobe,
            Box::new(tls.clone()),
        )
        .unwrap();
    engine
        .attach(
            AttachPoint::UserFnExit("ssl_read"),
            ProbeKind::Uretprobe,
            Box::new(tls),
        )
        .unwrap();
    let payload = Bytes::from(vec![0x42u8; 256]);
    let mut enter = ctx(SyscallAbi::Read, HookPhase::Enter, &payload);
    enter.abi = None;
    enter.symbol = Some("ssl_read");
    let mut exit = enter.clone();
    exit.phase = HookPhase::Exit;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        engine.fire(&AttachPoint::UserFnEnter("ssl_read"), &enter);
        engine.fire(&AttachPoint::UserFnExit("ssl_read"), &exit);
        if engine.ring.len() > (1 << 19) {
            engine.ring.drain_all();
        }
    }
    let uprobe_ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);
    println!("  ssl_read uprobe+uretprobe pair: {uprobe_ns:.0} ns/event (machinery only —");
    println!("  the paper's 6153 ns includes the real kernel's user->kernel trap, which the");
    println!(
        "  virtual-time model charges separately: {} per uprobe firing)\n",
        df_kernel::HookOverheadModel::default().uprobe_ns
    );

    // Shape checks vs the paper.
    let added_vals: Vec<f64> = results
        .iter()
        .map(|r| r["added_ns"].as_f64().unwrap())
        .collect();
    let mean_added = added_vals.iter().sum::<f64>() / added_vals.len() as f64;
    report::compare(
        "mean added ns per hook pair (paper <=588)",
        588.0,
        mean_added,
        8.0,
    );
    println!("\n  Shape: every ABI's added cost is sub-microsecond — negligible against");
    println!("  syscall I/O costs, the paper's §5.1 conclusion.");

    report::save_json(
        "fig13_hook_overhead",
        &serde_json::json!({ "per_abi": results, "uprobe_pair_ns": uprobe_ns }),
    );
}
