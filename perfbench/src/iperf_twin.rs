//! A step-for-step replica of `flexos_apps::iperf::run_iperf` built from
//! the same public calls, which additionally returns the telemetry
//! `run_iperf` keeps to itself: the receive-burst latency row and the
//! measured-phase `StatsSnapshot`.
//!
//! The replica is only trusted while it matches the real entry point:
//! every benchmark run compares its bytes, simulated cycles, crossings
//! and context switches with `run_iperf` on the same parameters and fails
//! the run on any difference.

use flexos::build::plan;
use flexos_apps::client::{exchange, Client, SERVER_IP};
use flexos_apps::iperf::{iperf_image, IperfParams, IPERF_PORT};
use flexos_apps::profiles::backend_tag;
use flexos_apps::smp::make_executor;
use flexos_apps::Os;
use flexos_kernel::exec::Step;
use flexos_net::nic::Link;
use flexos_net::stack::{NetError, SocketId};
use flexos_trace::{LatencyRow, StatsSnapshot};
use std::cell::Cell;
use std::rc::Rc;

/// What the replica measured.
pub struct TwinRun {
    /// Bytes the server received.
    pub bytes: u64,
    /// Server cycles over the measured transfer.
    pub cycles: u64,
    /// Gate crossings over the measured transfer.
    pub crossings: u64,
    /// Context switches over the whole run.
    pub switches: u64,
    /// Receive-burst latency row (whole run; bursts only move bytes in
    /// the measured transfer).
    pub latency: LatencyRow,
    /// Telemetry at the start of the measured transfer.
    pub before: StatsSnapshot,
    /// Telemetry at its end.
    pub after: StatsSnapshot,
}

/// Runs the replica.
///
/// # Errors
///
/// Returns a message on any failure `run_iperf` would panic on.
pub fn run(params: &IperfParams) -> Result<TwinRun, String> {
    let image = plan(iperf_image(params)).map_err(|e| format!("plan: {e}"))?;
    let mut os = Os::boot(image, SERVER_IP, 1).map_err(|e| format!("boot: {e}"))?;
    let mut exec = make_executor(params.sched, params.vcpus);
    let mut client = Client::new(2).map_err(|e| format!("client: {e}"))?;
    let mut link = match params.link_chaos {
        Some((chaos, seed)) => Link::with_chaos(chaos, seed),
        None => Link::new(),
    };

    let received = Rc::new(Cell::new(0u64));
    let received_task = Rc::clone(&received);
    let listener = os.listen(IPERF_PORT).map_err(|e| format!("listen: {e}"))?;
    let recv_buf_len = params.recv_buf;
    let app_buf = os
        .alloc_shared_buf(recv_buf_len.max(64))
        .map_err(|e| format!("app buffer: {e}"))?;
    let c_app = os.roles.app;
    let burst_backend = backend_tag(params.model, params.backend);
    let burst_vcpu = os.img.gates.ctx(c_app).vcpu.0 as u16;
    let mut sid: Option<SocketId> = None;
    let task = move |os: &mut Os, tid| {
        if sid.is_none() {
            match os.accept(listener) {
                Ok(Some(s)) => sid = Some(s),
                Ok(None) => return Ok(Step::Yield),
                Err(e) => {
                    return Err(flexos_machine::Fault::HardeningAbort {
                        mechanism: "iperf",
                        reason: format!("accept failed: {e}"),
                    })
                }
            }
        }
        let s = sid.expect("accepted above");
        let mut budget = 8usize;
        while budget > 0 {
            let app_tax = os.tax.app;
            let app_work = os.img.machine.costs().app_request;
            let counter = &received_task;
            let burst_t0 = os.img.machine.clock().cycles();
            let burst_before = counter.get();
            let results = os.recv_batch(s, app_buf, recv_buf_len, budget, |m, _rt, r| {
                Ok(match r {
                    Ok(n) if *n > 0 => {
                        counter.set(counter.get() + n);
                        m.charge(app_work + app_work * app_tax / 100);
                        Some(recv_buf_len)
                    }
                    _ => None,
                })
            })?;
            if counter.get() > burst_before {
                let t1 = os.img.machine.clock().cycles();
                let span = os.img.machine.span_trace_mut().begin_request(
                    "iperf",
                    burst_backend,
                    burst_vcpu,
                    burst_t0,
                );
                os.img
                    .machine
                    .span_trace_mut()
                    .end_request(span, burst_vcpu, t1);
            }
            budget -= results.len();
            match results.last() {
                Some(Ok(0)) => return Ok(Step::Done),
                Some(Err(NetError::WouldBlock)) => match os.wait_readable(tid, s)? {
                    Some(ch) => return Ok(Step::Block(ch)),
                    None => continue,
                },
                Some(Err(e)) => {
                    return Err(flexos_machine::Fault::HardeningAbort {
                        mechanism: "iperf",
                        reason: format!("recv failed: {e}"),
                    })
                }
                _ => break,
            }
        }
        Ok(Step::Yield)
    };
    exec.spawn(c_app, Box::new(task))
        .map_err(|e| format!("spawn: {e}"))?;

    let csid = client
        .connect(IPERF_PORT)
        .map_err(|e| format!("connect: {e}"))?;
    for _ in 0..8 {
        client.poll().map_err(|e| format!("client poll: {e}"))?;
        exchange(&mut link, &mut client, &mut os);
        os.poll_net().map_err(|e| format!("server poll: {e}"))?;
        exec.run(&mut os, 16).map_err(|e| format!("exec: {e}"))?;
        exchange(&mut link, &mut client, &mut os);
    }
    if !client.established(csid) {
        return Err("handshake did not complete".into());
    }

    let before = os.stats_snapshot(Some(&exec));
    let start_cycles = os.img.machine.clock().cycles();
    let start_crossings = os.img.gates.stats().crossings;
    let mut sent = 0u64;
    let mut idle_rounds = 0u32;
    while received.get() < params.total_bytes {
        if sent < params.total_bytes {
            sent += client
                .pump_zeroes(csid, 32 * 1024)
                .map_err(|e| format!("client send: {e}"))?;
        }
        client.poll().map_err(|e| format!("client poll: {e}"))?;
        exchange(&mut link, &mut client, &mut os);
        os.poll_net().map_err(|e| format!("server poll: {e}"))?;
        let was = received.get();
        exec.run(&mut os, 64).map_err(|e| format!("exec: {e}"))?;
        os.poll_net().map_err(|e| format!("server poll 2: {e}"))?;
        exchange(&mut link, &mut client, &mut os);
        if received.get() == was {
            idle_rounds += 1;
            if idle_rounds > 200 {
                client.advance(30_000_000);
                os.img.machine.charge(30_000_000);
            }
            if idle_rounds >= 5_000 {
                return Err("iperf made no progress".into());
            }
        } else {
            idle_rounds = 0;
        }
    }
    let after = os.stats_snapshot(Some(&exec));
    let latency = after
        .latency
        .iter()
        .find(|r| r.app == "iperf")
        .copied()
        .ok_or("no iperf latency row")?;
    Ok(TwinRun {
        bytes: received.get(),
        cycles: os.img.machine.clock().cycles() - start_cycles,
        crossings: os.img.gates.stats().crossings - start_crossings,
        switches: exec.summary().switches,
        latency,
        before,
        after,
    })
}
