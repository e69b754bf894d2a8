//! Per-layer host-time probes: tight loops over one public layer function
//! on the workload's own booted image, with every check of the code they
//! time left on (full gate, tracing, SH).
//!
//! Each probe first grows its iteration count until one batch takes
//! [`BATCH_NS`], then times [`BATCHES`] batches; the caller takes the
//! median per-unit cost.

use flexos::gate::{CompartmentId, Cqe, Sqe};
use flexos_apps::resp::RespParser;
use flexos_apps::{gcc_sh, Os};
use flexos_machine::Access;
use flexos_sh::ShRuntime;
use flexos_trace::{GateTrace, SpanKind, SpanTrace};
use std::hint::black_box;
use std::time::Instant;

/// Target host time of one probe batch.
pub const BATCH_NS: u64 = 20_000_000;
/// Timed batches per probe.
pub const BATCHES: usize = 5;

/// Host cost per unit of each timed batch, in ns.
pub type Batches = Vec<f64>;

/// Runs `body(iters)` (returning the units of work it did) until a batch
/// reaches [`BATCH_NS`], then times [`BATCHES`] batches of that size.
///
/// # Errors
///
/// Returns the first error `body` reports.
pub fn calibrate(mut body: impl FnMut(u64) -> Result<u64, String>) -> Result<Batches, String> {
    let mut iters = 16u64;
    loop {
        let t = Instant::now();
        body(iters)?;
        let ns = t.elapsed().as_nanos() as u64;
        if ns >= BATCH_NS || iters >= 1 << 26 {
            break;
        }
        let scale = (BATCH_NS / ns.max(1)).clamp(2, 16);
        iters *= scale;
    }
    let mut out = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        let units = body(iters)?;
        out.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    Ok(out)
}

fn net_target(os: &Os) -> Result<CompartmentId, String> {
    let target = os.roles.net;
    if target == os.img.gates.current() {
        return Err("the network stack shares the caller's compartment".into());
    }
    Ok(target)
}

/// `gate.sync_cross_ns`: one synchronous `BootImage::call_lib` round trip
/// into the network stack's compartment.
///
/// # Errors
///
/// Returns the first gate fault.
pub fn sync_cross(os: &mut Os) -> Result<Batches, String> {
    net_target(os)?;
    let lib = "lwip";
    calibrate(|n| {
        for _ in 0..n {
            os.img
                .call_lib(lib, 32, 8, |_m, _rt| Ok(black_box(0u64)))
                .map_err(|e| format!("call_lib: {e}"))?;
        }
        Ok(n)
    })
}

/// `gate.async_call_ns`: serve's fan-out shape — a burst of `burst`
/// descriptors spread over the image's shard compartments (the network
/// stack's when it has none); per target one `submit_many`, one
/// `flush_async` and one `poll_completions`. Cost per descriptor.
///
/// # Errors
///
/// Returns the first gate fault or a short submission.
pub fn async_call(os: &mut Os, burst: usize) -> Result<Batches, String> {
    let mut targets: Vec<CompartmentId> = (0..8)
        .filter_map(|k| os.img.compartment_of_lib(&format!("shard{k}")))
        .collect();
    if targets.is_empty() {
        targets.push(net_target(os)?);
    }
    let per_target: Vec<Vec<Sqe>> = (0..targets.len())
        .map(|t| {
            (0..burst)
                .filter(|i| i % targets.len() == t)
                .map(|i| Sqe::new(32, 8, i as u64))
                .collect()
        })
        .collect();
    for &t in &targets {
        os.img.gates.ensure_ring_depth(t, burst);
    }
    let mut done: Vec<Cqe> = Vec::with_capacity(burst);
    calibrate(|n| {
        let img = &mut os.img;
        for _ in 0..n {
            for (&t, sqes) in targets.iter().zip(&per_target) {
                if sqes.is_empty() {
                    continue;
                }
                let took = img
                    .gates
                    .submit_many(t, sqes)
                    .map_err(|e| format!("submit_many: {e}"))?;
                if took != sqes.len() {
                    return Err(format!("submit_many accepted {took} of {}", sqes.len()));
                }
                img.gates
                    .flush_async(&mut img.machine, t, |_m, _rt, sqe| {
                        Ok(black_box(sqe.user_data as i64))
                    })
                    .map_err(|e| format!("flush_async: {e}"))?;
                done.clear();
                img.gates.poll_completions(t, &mut done);
                if done.len() != sqes.len() {
                    return Err(format!(
                        "{} completions for {} descriptors",
                        done.len(),
                        sqes.len()
                    ));
                }
            }
        }
        Ok(n * burst as u64)
    })
}

/// `trace.record_ns`: one crossing's telemetry — `GateTrace::record_crossing`
/// plus `SpanTrace::record` — into fresh, warmed trace structures.
///
/// # Errors
///
/// Never fails; `Result` for a uniform probe signature.
pub fn trace_record(mechanism: &'static str) -> Result<Batches, String> {
    let mut gates = GateTrace::new();
    let mut spans = SpanTrace::new();
    let mut now = 0u64;
    calibrate(|n| {
        for _ in 0..n {
            now += 200;
            gates.record_crossing(mechanism, 0, 1, 105, 40, now);
            spans.record(0, SpanKind::Gate, mechanism, 0, 1, now - 105, now);
        }
        black_box((&gates, &spans));
        Ok(n)
    })
}

/// `apps.resp_parse_ns_per_cmd`: `RespParser::feed` of one client burst
/// and `parse_command` of every command in it.
///
/// # Errors
///
/// Returns a message when a burst does not parse into `cmds` commands.
pub fn resp_parse(burst: &[u8], cmds: usize) -> Result<Batches, String> {
    let mut parser = RespParser::new();
    calibrate(|n| {
        for _ in 0..n {
            parser.feed(black_box(burst));
            let mut got = 0;
            while let Some(args) = parser.parse_command() {
                black_box(&args);
                got += 1;
            }
            if got != cmds {
                return Err(format!("parsed {got} of {cmds} commands"));
            }
        }
        Ok(n * cmds as u64)
    })
}

/// `sh.check_ns`: one instrumented allocation under the GCC SH set —
/// `ShRuntime::on_alloc`, a `check_access` write of the block, and the
/// quarantining `on_free` — on the network compartment's heap.
///
/// # Errors
///
/// Returns the first SH fault.
pub fn sh_check(os: &mut Os) -> Result<Batches, String> {
    let ctx = os.img.gates.ctx(os.roles.net);
    let (base, len) = (ctx.heap_base, ctx.heap_size);
    let c = CompartmentId(0);
    let mut sh = ShRuntime::new(1);
    sh.set_policy(c, gcc_sh());
    sh.register_heap(c, base, len);
    const SLOT: u64 = 128;
    let slots = (len / SLOT).clamp(1, 256);
    let m = &mut os.img.machine;
    let mut i = 0u64;
    calibrate(|n| {
        for _ in 0..n {
            let outer = flexos_machine::Addr(base.0 + (i % slots) * SLOT);
            i += 1;
            let p = sh.on_alloc(m, c, outer, 64);
            sh.check_access(m, c, p, 64, Access::Write)
                .map_err(|e| format!("check_access: {e}"))?;
            sh.on_free(m, c, p).map_err(|e| format!("on_free: {e}"))?;
        }
        Ok(n)
    })
}

/// `machine.copy_ns_per_kib`: `BootImage::copy` of a 16 KiB receive
/// buffer between two shared-window buffers. Cost per KiB.
///
/// # Errors
///
/// Returns the first machine fault.
pub fn copy(os: &mut Os) -> Result<Batches, String> {
    const LEN: u64 = 16 * 1024;
    let src = os
        .alloc_shared_buf(LEN)
        .map_err(|e| format!("alloc: {e}"))?;
    let dst = os
        .alloc_shared_buf(LEN)
        .map_err(|e| format!("alloc: {e}"))?;
    calibrate(|n| {
        for _ in 0..n {
            os.img
                .copy(dst, src, LEN)
                .map_err(|e| format!("copy: {e}"))?;
        }
        Ok(n * LEN / 1024)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_reports_per_unit_cost_per_batch() {
        let b = calibrate(|n| {
            let mut x = 0u64;
            for i in 0..n * 100 {
                x = black_box(x.wrapping_add(i));
            }
            Ok(n * 100)
        })
        .expect("calibrates");
        assert_eq!(b.len(), BATCHES);
        assert!(b.iter().all(|&ns| ns > 0.0 && ns < 1_000.0), "{b:?}");
    }

    #[test]
    fn calibrate_stops_at_the_first_error() {
        let mut calls = 0;
        let e = calibrate(|_| {
            calls += 1;
            Err("nope".into())
        });
        assert_eq!(e, Err("nope".to_string()));
        assert_eq!(calls, 1);
    }

    #[test]
    fn resp_probe_checks_the_command_count() {
        let cmd = flexos_apps::resp::encode_command(&[b"GET", b"k"]);
        assert!(resp_parse(&cmd, 1).is_ok());
        assert!(resp_parse(&cmd, 2).is_err());
    }
}
