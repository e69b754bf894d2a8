//! The Redis-style workload (paper §4, Figures 4 and 5).
//!
//! A RESP key-value server running as a FlexOS application: values live
//! in the application compartment's simulated heap (so `SET`/`GET` hit
//! the — possibly instrumented — allocator, which is the whole point of
//! Figure 4's global-vs-local allocator comparison), requests arrive
//! pipelined over TCP from an external client, and every socket
//! operation crosses the image's gates.

use crate::client::{exchange, Client, ClientError, SERVER_IP};
use crate::os::Os;
use crate::profiles::{backend_tag, evaluation_image, harden, CompartmentModel, SchedKind};
use crate::resp::{
    encode_bulk, encode_command_into, encode_error, encode_integer, encode_simple, Command, Reply,
    RespParser, PROTOCOL_ERROR_REPLY,
};
use crate::smp::make_executor;
use flexos::build::{plan, BackendChoice, Hypervisor};
use flexos::gate::CompartmentId;
use flexos_kernel::exec::{Executor, Step};
use flexos_kernel::sched::ThreadId;
use flexos_machine::{Addr, ChaosConfig, ChaosPlan};
use flexos_net::nic::Link;
use flexos_net::stack::{NetError, SocketId};
use flexos_net::FixedHashMap;
use flexos_trace::{SpanId, StatsSnapshot};
use std::collections::VecDeque;
use std::fmt;

/// The Redis port.
pub const REDIS_PORT: u16 = 6379;

/// Request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Only `SET key value`.
    Set,
    /// Only `GET key` (keys preloaded).
    Get,
}

impl Mix {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Mix::Set => "SET",
            Mix::Get => "GET",
        }
    }
}

/// Parameters of one Redis run.
#[derive(Debug, Clone)]
pub struct RedisParams {
    /// Compartment model.
    pub model: CompartmentModel,
    /// Isolation backend.
    pub backend: BackendChoice,
    /// Scheduler implementation.
    pub sched: SchedKind,
    /// Hypervisor.
    pub hypervisor: Hypervisor,
    /// Libraries hardened with the GCC SH set.
    pub sh_on: Vec<String>,
    /// Per-compartment allocators (Figure 4's "local allocator").
    pub dedicated_allocators: bool,
    /// Value payload size in bytes (5 / 50 / 500 in the paper).
    pub payload: usize,
    /// Request mix.
    pub mix: Mix,
    /// Requests to complete during measurement.
    pub ops: u64,
    /// Pipeline depth.
    pub pipeline: usize,
    /// A seeded fault schedule installed on the *server* machine after
    /// boot (doorbell loss, injected OOM, ...). Chaos sweeps use this
    /// to measure how the run degrades; failures come back as
    /// [`RedisRunError`], never as panics.
    pub machine_chaos: Option<ChaosConfig>,
    /// Logical vCPUs for the run queue (1 = legacy single queue; >1 uses
    /// the deterministic SMP queue, which schedules in the identical
    /// canonical order — see `crate::smp`).
    pub vcpus: usize,
    /// Live-migrate every gate pair to the given backend once the
    /// measured phase has completed this many requests. The swap runs
    /// the full quiescence protocol between scheduler steps, so it is
    /// deterministic and identical at every vCPU width.
    pub migrate_to: Option<(u64, BackendChoice)>,
}

impl Default for RedisParams {
    fn default() -> Self {
        Self {
            model: CompartmentModel::Baseline,
            backend: BackendChoice::None,
            sched: SchedKind::Coop,
            hypervisor: Hypervisor::Kvm,
            sh_on: Vec::new(),
            dedicated_allocators: false,
            payload: 50,
            mix: Mix::Get,
            ops: 2_000,
            pipeline: 16,
            machine_chaos: None,
            vcpus: 1,
            migrate_to: None,
        }
    }
}

/// The outcome of one Redis run.
#[derive(Debug, Clone, Copy)]
pub struct RedisResult {
    /// Requests completed (measured phase).
    pub ops: u64,
    /// Server cycles spent.
    pub cycles: u64,
    /// Throughput in mega-requests per second (the paper's MTps axis).
    pub mreq_per_s: f64,
    /// Gate crossings on the server during measurement.
    pub crossings: u64,
}

/// A failure during a Redis run, propagated (not panicked) so a
/// misbehaving compartment or a chaos schedule degrades a benchmark run
/// into a recorded data point instead of aborting the process.
#[derive(Debug, Clone, PartialEq)]
pub enum RedisRunError {
    /// The server answered a request with a RESP error.
    Reply(String),
    /// The external load generator failed (client machine fault or
    /// client stack error).
    Client(ClientError),
    /// The server image failed outside a reply: a gate timeout under
    /// injected doorbell loss, an allocation fault, a stack error.
    Server(String),
}

impl RedisRunError {
    fn server(e: impl fmt::Display) -> Self {
        RedisRunError::Server(e.to_string())
    }
}

impl fmt::Display for RedisRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedisRunError::Reply(reply) => {
                write!(f, "redis server replied with error: {reply}")
            }
            RedisRunError::Client(e) => write!(f, "redis client failed: {e}"),
            RedisRunError::Server(e) => write!(f, "redis server failed: {e}"),
        }
    }
}

impl std::error::Error for RedisRunError {}

impl From<ClientError> for RedisRunError {
    fn from(e: ClientError) -> Self {
        RedisRunError::Client(e)
    }
}

/// The in-image Redis server state.
struct RedisServer {
    /// Key → (value address, length) in the app heap (lookup-only).
    store: FixedHashMap<Vec<u8>, (Addr, u64)>,
    parser: RespParser,
    /// The client sent bytes that are not RESP: once the protocol-error
    /// reply is flushed, the connection closes.
    closing: bool,
    out_host: Vec<u8>,
    /// Host copy scratch for recv and GET values.
    host_buf: Vec<u8>,
    /// Flush scratch: the spans tagging one batched send's descriptors.
    sqe_spans: Vec<SpanId>,
    c_app: CompartmentId,
    rx_buf: Addr,
    tx_buf: Addr,
    io_buf_len: u64,
    /// Commands executed.
    ops: u64,
    /// Backend tag for the request-latency key (`"mpk-shared"`, …).
    backend: &'static str,
    /// Plan-determined vCPU of the app compartment — the span shard key
    /// (fixed at build time, hoisted out of the per-command hot path).
    app_vcpu: u16,
    /// Open request spans, each paired with the cumulative staged-output
    /// offset at which its reply will have fully left the server.
    pending_spans: VecDeque<(SpanId, u64)>,
    /// Reply bytes ever staged into `out_host`.
    staged_total: u64,
    /// Reply bytes ever drained out of `out_host` by completed sends.
    sent_total: u64,
}

impl RedisServer {
    /// Executes one command, appending its reply to `out_host`.
    fn execute(&mut self, os: &mut Os, cmd: Command<'_>) {
        // Per-request application work (command dispatch, hashing).
        let work = os.img.machine.costs().app_request;
        os.app_compute(work);
        self.ops += 1;
        let out = &mut self.out_host;
        let key = cmd.arg(1).unwrap_or_default();
        if cmd.is(b"PING", 1) {
            encode_simple("PONG", out);
        } else if cmd.is(b"SET", 3) {
            let value = cmd.arg(2).unwrap_or_default();
            let addr = match os.malloc_in(self.c_app, value.len().max(1) as u64) {
                Ok(addr) => addr,
                Err(f) => return encode_error(&format!("ERR oom: {f}"), out),
            };
            if let Err(f) = os.img.write(addr, value) {
                return encode_error(&format!("ERR fault: {f}"), out);
            }
            let entry = (addr, value.len() as u64);
            let old = match self.store.get_mut(key) {
                Some(slot) => Some(std::mem::replace(slot, entry)),
                None => self.store.insert(key.to_vec(), entry),
            };
            if let Some((old, _)) = old {
                let _ = os.free_in(self.c_app, old);
            }
            encode_simple("OK", out);
        } else if cmd.is(b"GET", 2) {
            let Some(&(addr, len)) = self.store.get(key) else {
                return encode_bulk(None, out);
            };
            // Redis builds the reply in a freshly allocated object (sds
            // string) — so GETs hit the allocator too, instrumented or not.
            let reply = match os.malloc_in(self.c_app, len.max(1)) {
                Ok(r) => r,
                Err(f) => return encode_error(&format!("ERR oom: {f}"), out),
            };
            let value = &mut self.host_buf;
            value.resize(len as usize, 0);
            let read = os
                .img
                .read(addr, value)
                .and_then(|()| os.img.copy(reply, addr, len));
            let _ = os.free_in(self.c_app, reply);
            match read {
                Ok(()) => encode_bulk(Some(value), out),
                Err(f) => encode_error(&format!("ERR fault: {f}"), out),
            }
        } else if cmd.is(b"DEL", 2) {
            let removed = self.store.remove(key);
            if let Some((addr, _)) = removed {
                let _ = os.free_in(self.c_app, addr);
            }
            encode_integer(i64::from(removed.is_some()), out);
        } else if cmd.is(b"EXISTS", 2) {
            encode_integer(i64::from(self.store.contains_key(key)), out);
        } else {
            let name = String::from_utf8_lossy(cmd.arg(0).unwrap_or_default());
            encode_error(
                &format!("ERR unknown command '{}'", name.to_ascii_uppercase()),
                out,
            );
        }
    }

    /// One service quantum on socket `sid`: drain input, execute, flush
    /// replies. Returns `Ok(None)` to yield, `Ok(Some(step))` to return.
    fn service(
        &mut self,
        os: &mut Os,
        tid: ThreadId,
        sid: SocketId,
    ) -> flexos_machine::Result<Step> {
        // Flush pending replies first, issuing the whole backlog as one
        // batched gate crossing per round: the `after` hook drains what
        // each send moved and stages the next chunk, exactly as the old
        // sequential send loop did between two crossings.
        while !self.out_host.is_empty() {
            let n = (self.out_host.len() as u64).min(self.io_buf_len);
            os.img.write(self.tx_buf, &self.out_host[..n as usize])?;
            let max = (self.out_host.len() as u64)
                .div_ceil(self.io_buf_len)
                .max(1) as usize;
            let (tx_buf, io_buf_len) = (self.tx_buf, self.io_buf_len);
            let app_vcpu = self.app_vcpu;
            // Tag ring descriptor `i` with the span of the i-th pending
            // request: the reply bytes a send ships belong to the oldest
            // requests still awaiting their last byte, so the causal
            // trace links each SQE to the command it answers.
            let sqe_spans = &mut self.sqe_spans;
            sqe_spans.clear();
            sqe_spans.extend(self.pending_spans.iter().take(max).map(|&(span, _)| span));
            let out_host = &mut self.out_host;
            let pending_spans = &mut self.pending_spans;
            let sent_total = &mut self.sent_total;
            let results = os.send_batch_spanned(sid, tx_buf, n, max, sqe_spans, |m, rt, r| {
                let Ok(sent) = r else { return Ok(None) };
                out_host.drain(..*sent as usize);
                // A request span ends when the last byte of its reply
                // has left the server — end every span whose staged
                // offset the cumulative sent count just covered.
                *sent_total += sent;
                // The clock cannot advance inside this drain (no work is
                // charged), so every span completing here ends at the
                // same instant — read it once.
                let now = m.clock().cycles();
                while pending_spans
                    .front()
                    .is_some_and(|&(_, end)| end <= *sent_total)
                {
                    let (span, _) = pending_spans.pop_front().expect("front checked");
                    m.span_trace_mut().end_request(span, app_vcpu, now);
                }
                if out_host.is_empty() {
                    return Ok(None);
                }
                let next = (out_host.len() as u64).min(io_buf_len);
                m.write(rt.current_ctx().vcpu, tx_buf, &out_host[..next as usize])?;
                Ok(Some(next))
            })?;
            match results.last() {
                Some(Err(NetError::WouldBlock)) => return Ok(Step::Yield),
                Some(Err(NetError::Closed)) => return Ok(Step::Done),
                Some(Err(e)) => {
                    return Err(flexos_machine::Fault::HardeningAbort {
                        mechanism: "redis",
                        reason: format!("send failed: {e}"),
                    })
                }
                _ => {}
            }
        }
        if self.closing {
            let _ = os.sock_close(sid);
            return Ok(Step::Done);
        }
        // Pull in new request bytes.
        match os.recv(sid, self.rx_buf, self.io_buf_len) {
            Ok(0) => return Ok(Step::Done),
            Ok(n) => {
                self.host_buf.resize(n as usize, 0);
                os.img.read(self.rx_buf, &mut self.host_buf)?;
                self.parser.feed(&self.host_buf);
            }
            Err(NetError::WouldBlock) => {
                if self.parser.pending() == 0 {
                    return match os.wait_readable(tid, sid)? {
                        Some(ch) => Ok(Step::Block(ch)),
                        None => Ok(Step::Yield),
                    };
                }
            }
            Err(e) => {
                return Err(flexos_machine::Fault::HardeningAbort {
                    mechanism: "redis",
                    reason: format!("recv failed: {e}"),
                })
            }
        }
        // Execute everything parseable. Each command opens a request
        // span (ended later, when its reply's last byte is sent). Bytes
        // that are not RESP get a protocol-error reply, then the close.
        let mut parser = std::mem::take(&mut self.parser);
        while let Some(parsed) = parser.parse_command() {
            let Ok(cmd) = parsed else {
                self.out_host.extend_from_slice(PROTOCOL_ERROR_REPLY);
                self.closing = true;
                break;
            };
            let t0 = os.img.machine.clock().cycles();
            let span = os.img.machine.span_trace_mut().begin_request(
                "redis",
                self.backend,
                self.app_vcpu,
                t0,
            );
            if cmd.is_empty() {
                encode_error("ERR protocol error", &mut self.out_host);
            } else {
                self.execute(os, cmd);
            }
            self.staged_total = self.sent_total + self.out_host.len() as u64;
            self.pending_spans.push_back((span, self.staged_total));
        }
        self.parser = parser;
        Ok(Step::Yield)
    }
}

/// Builds the image config for `params`.
pub fn redis_image(params: &RedisParams) -> flexos::build::ImageConfig {
    let mut cfg =
        evaluation_image("redis", params.model, params.backend, params.sched).on(params.hypervisor);
    for name in &params.sh_on {
        cfg = harden(cfg, name);
    }
    if params.dedicated_allocators {
        cfg.dedicated_allocators = true;
    }
    cfg
}

/// The external Redis load generator (pipelined).
struct LoadGen {
    replies: RespParser,
    /// Request bytes of the batch being sent (reused).
    req: Vec<u8>,
    completed: u64,
    inflight: u64,
    payload: Vec<u8>,
    keys: Vec<Vec<u8>>,
    next: usize,
    mix: Mix,
    pipeline: usize,
}

impl LoadGen {
    fn new(payload: usize, mix: Mix, pipeline: usize) -> Self {
        Self {
            replies: RespParser::new(),
            req: Vec::new(),
            completed: 0,
            inflight: 0,
            payload: vec![b'v'; payload.max(1)],
            keys: (0..16)
                .map(|i| format!("key:{i:04}").into_bytes())
                .collect(),
            next: 0,
            mix,
            pipeline,
        }
    }

    /// Encodes requests until the pipeline is full; returns their bytes.
    fn batch(&mut self) -> &[u8] {
        self.req.clear();
        while self.inflight < self.pipeline as u64 {
            let key = &self.keys[self.next % self.keys.len()];
            self.next += 1;
            match self.mix {
                Mix::Set => encode_command_into(&[b"SET", key, &self.payload], &mut self.req),
                Mix::Get => encode_command_into(&[b"GET", key], &mut self.req),
            }
            self.inflight += 1;
        }
        &self.req
    }

    fn consume(&mut self, bytes: &[u8]) -> Result<(), RedisRunError> {
        self.replies.feed(bytes);
        while let Some(reply) = self.replies.next_reply() {
            match reply {
                Ok(Reply::Value) => {}
                Ok(Reply::Error(e)) => {
                    return Err(RedisRunError::Reply(
                        String::from_utf8_lossy(e).into_owned(),
                    ))
                }
                Err(e) => return Err(RedisRunError::Reply(format!("malformed reply: {e}"))),
            }
            self.completed += 1;
            self.inflight = self.inflight.saturating_sub(1);
        }
        Ok(())
    }
}

/// Runs the Redis workload and reports server-side request throughput.
///
/// # Errors
///
/// Returns [`RedisRunError`] when the server answers a request with a
/// RESP error (e.g. a faulting compartment), so callers can degrade a
/// benchmark run instead of aborting.
///
/// # Panics
///
/// Panics if the run makes no progress (a harness bug, not a recoverable
/// condition).
pub fn run_redis(params: &RedisParams) -> Result<RedisResult, RedisRunError> {
    run_redis_with_stats(params).map(|(r, _)| r)
}

/// [`run_redis`] plus the full telemetry snapshot of the server image
/// (gate crossings, scheduler, allocators, faults, net) for the
/// `reproduce --stats` report.
pub fn run_redis_with_stats(
    params: &RedisParams,
) -> Result<(RedisResult, StatsSnapshot), RedisRunError> {
    run_redis_inner(params, false).map(|(r, s, _)| (r, s))
}

/// [`run_redis_with_stats`] plus the Chrome trace-event JSON of the
/// run's span stream, for `reproduce --trace-out`. The trace string is
/// byte-identical at any `--vcpus` width in deterministic mode.
pub fn run_redis_traced(
    params: &RedisParams,
) -> Result<(RedisResult, StatsSnapshot, String), RedisRunError> {
    run_redis_inner(params, true).map(|(r, s, t)| (r, s, t.expect("trace requested")))
}

/// A booted server image with the Redis server task spawned and the
/// external client's connection established.
struct Session {
    os: Os,
    exec: Executor<Os>,
    client: Client,
    link: Link,
    /// The client's socket.
    csid: SocketId,
}

/// Boots the image for `params`, spawns the server task and completes
/// the client's handshake.
fn start_session(params: &RedisParams) -> Result<Session, RedisRunError> {
    let image = plan(redis_image(params)).expect("redis image plans");
    let mut os = Os::boot(image, SERVER_IP, 1).expect("redis image boots");
    if let Some(chaos) = params.machine_chaos {
        os.img.machine.set_chaos(ChaosPlan::new(chaos));
    }
    let mut exec = make_executor(params.sched, params.vcpus);
    let mut client = Client::new(2)?;
    let mut link = Link::new();

    let io_buf_len = 16 * 1024u64;
    let rx_buf = os
        .alloc_shared_buf(io_buf_len)
        .map_err(RedisRunError::server)?;
    let tx_buf = os
        .alloc_shared_buf(io_buf_len)
        .map_err(RedisRunError::server)?;
    let c_app = os.roles.app;
    let listener = os
        .listen(REDIS_PORT)
        .map_err(|e| RedisRunError::server(format!("listen failed: {e}")))?;

    let mut server = RedisServer {
        store: FixedHashMap::default(),
        parser: RespParser::new(),
        closing: false,
        out_host: Vec::new(),
        host_buf: Vec::new(),
        sqe_spans: Vec::new(),
        c_app,
        rx_buf,
        tx_buf,
        io_buf_len,
        ops: 0,
        backend: backend_tag(params.model, params.backend),
        app_vcpu: os.img.gates.ctx(c_app).vcpu.0 as u16,
        pending_spans: VecDeque::new(),
        staged_total: 0,
        sent_total: 0,
    };
    let mut sid: Option<SocketId> = None;
    let task = move |os: &mut Os, tid| {
        if sid.is_none() {
            match os.accept(listener) {
                Ok(Some(s)) => sid = Some(s),
                Ok(None) => return Ok(Step::Yield),
                Err(e) => {
                    return Err(flexos_machine::Fault::HardeningAbort {
                        mechanism: "redis",
                        reason: format!("accept failed: {e}"),
                    })
                }
            }
        }
        server.service(os, tid, sid.expect("accepted"))
    };
    exec.spawn(c_app, Box::new(task))
        .expect("spawn redis server");

    let csid = client
        .connect(REDIS_PORT)
        .map_err(|e| RedisRunError::Client(ClientError::Net(e)))?;
    for _ in 0..8 {
        client.poll()?;
        exchange(&mut link, &mut client, &mut os);
        os.poll_net().map_err(RedisRunError::server)?;
        exec.run(&mut os, 16).map_err(RedisRunError::server)?;
        exchange(&mut link, &mut client, &mut os);
    }
    assert!(client.established(csid), "handshake did not complete");
    Ok(Session {
        os,
        exec,
        client,
        link,
        csid,
    })
}

#[allow(clippy::type_complexity)]
fn run_redis_inner(
    params: &RedisParams,
    want_trace: bool,
) -> Result<(RedisResult, StatsSnapshot, Option<String>), RedisRunError> {
    let Session {
        mut os,
        mut exec,
        mut client,
        mut link,
        csid,
    } = start_session(params)?;

    let mut load = LoadGen::new(params.payload, params.mix, params.pipeline);
    let drive = |os: &mut Os,
                 exec: &mut Executor<Os>,
                 client: &mut Client,
                 link: &mut Link,
                 load: &mut LoadGen,
                 target: u64|
     -> Result<(), RedisRunError> {
        let mut idle = 0u32;
        while load.completed < target {
            let batch = load.batch();
            if !batch.is_empty() {
                client.send_bytes(csid, batch)?;
            }
            client.poll()?;
            exchange(link, client, os);
            os.poll_net().map_err(RedisRunError::server)?;
            exec.run(os, 64).map_err(RedisRunError::server)?;
            os.poll_net().map_err(RedisRunError::server)?;
            exchange(link, client, os);
            client.poll()?;
            let replies = client.recv_bytes(csid, 64 * 1024)?;
            let before = load.completed;
            load.consume(&replies)?;
            if load.completed == before {
                idle += 1;
                if idle > 200 {
                    client.advance(30_000_000);
                    os.img.machine.charge(30_000_000);
                }
                assert!(idle < 5_000, "redis made no progress");
            } else {
                idle = 0;
            }
        }
        Ok(())
    };

    // Preload phase (GET mixes need populated keys); not measured.
    if params.mix == Mix::Get {
        let mut preload = LoadGen::new(params.payload, Mix::Set, 16);
        drive(&mut os, &mut exec, &mut client, &mut link, &mut preload, 16)?;
    }

    // Measured phase. A live migration, if requested, splits it in
    // two: drive to the trigger point, run the quiescence protocol and
    // swap every pair, then finish on the new backend.
    let start_cycles = os.img.machine.clock().cycles();
    let start_crossings = os.img.gates.stats().crossings;
    if let Some((after, to)) = params.migrate_to {
        let mid = after.min(params.ops);
        drive(&mut os, &mut exec, &mut client, &mut link, &mut load, mid)?;
        let (_, deferred) =
            flexos_backends::migrate_all(&mut os.img, to, flexos::gate::MigrationReason::Manual)
                .map_err(RedisRunError::server)?;
        if deferred > 0 {
            os.img
                .gates
                .poll_migrations(&mut os.img.machine)
                .map_err(RedisRunError::server)?;
        }
    }
    drive(
        &mut os,
        &mut exec,
        &mut client,
        &mut link,
        &mut load,
        params.ops,
    )?;
    let cycles = os.img.machine.clock().cycles() - start_cycles;
    let ops = load.completed;
    let result = RedisResult {
        ops,
        cycles,
        mreq_per_s: ops as f64 / (cycles as f64 / flexos_machine::CPU_FREQ_HZ as f64) / 1e6,
        crossings: os.img.gates.stats().crossings - start_crossings,
    };
    let trace = want_trace.then(|| os.trace_json());
    Ok((result, os.stats_snapshot(Some(&exec)), trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::encode_command;
    use flexos_machine::Schedule;

    fn quick(params: RedisParams) -> RedisResult {
        run_redis(&RedisParams { ops: 300, ..params }).expect("redis run succeeds")
    }

    /// The chaos-sweep contract: with *every* doorbell dropped, the VM
    /// RPC gates exhaust their retry budget and the run comes back as a
    /// typed error (a degraded data point), never a panic.
    #[test]
    fn total_doorbell_loss_degrades_to_an_error_not_a_panic() {
        let err = run_redis(&RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::VmRpc,
            ops: 50,
            machine_chaos: Some(ChaosConfig {
                seed: 5,
                notify_drop: Schedule::EveryNth(1),
                ..Default::default()
            }),
            ..RedisParams::default()
        })
        .unwrap_err();
        assert!(
            matches!(err, RedisRunError::Server(_)),
            "expected a server-side gate failure, got: {err}"
        );
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    /// Sends `bytes` on a fresh session and pumps until the server has
    /// answered and closed; returns the reply bytes.
    fn answer_to(bytes: &[u8]) -> Vec<u8> {
        let Session {
            mut os,
            mut exec,
            mut client,
            mut link,
            csid,
        } = start_session(&RedisParams::default()).expect("session starts");
        client.send_bytes(csid, bytes).expect("client sends");
        let mut reply = Vec::new();
        for _ in 0..64 {
            client.poll().unwrap();
            exchange(&mut link, &mut client, &mut os);
            os.poll_net().unwrap();
            exec.run(&mut os, 16).unwrap();
            os.poll_net().unwrap();
            exchange(&mut link, &mut client, &mut os);
            client.poll().unwrap();
            reply.extend(client.recv_bytes(csid, 4096).unwrap());
            let (m, vcpu, buf) = (&mut client.m, client.vcpu, client.buf);
            if client.net.tcp_recv(m, vcpu, csid, buf, 64) == Ok(0) {
                return reply;
            }
        }
        panic!("server never closed; replies so far {reply:?}");
    }

    #[test]
    fn malformed_requests_get_a_protocol_error_and_a_close() {
        for garbage in [
            b"*9223372036854775807\r\n".as_slice(),
            b"*1\r\n$9223372036854775806\r\nxx",
            b"?what\r\n",
            &b"*1\r\n".repeat(64),
        ] {
            assert_eq!(answer_to(garbage), PROTOCOL_ERROR_REPLY, "{garbage:?}");
        }
        // Well-formed commands before the garbage are still answered.
        let mut bytes = encode_command(&[b"PING"]);
        bytes.extend_from_slice(b"~junk\r\n");
        let mut want = b"+PONG\r\n".to_vec();
        want.extend_from_slice(PROTOCOL_ERROR_REPLY);
        assert_eq!(answer_to(&bytes), want);
    }

    #[test]
    fn get_and_set_complete_against_the_server() {
        for mix in [Mix::Set, Mix::Get] {
            let r = quick(RedisParams {
                mix,
                ..RedisParams::default()
            });
            assert!(r.ops >= 300);
            assert!(r.mreq_per_s > 0.0);
        }
    }

    #[test]
    fn isolation_reduces_redis_throughput() {
        let base = quick(RedisParams::default());
        let nw = quick(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        assert!(nw.mreq_per_s < base.mreq_per_s);
        assert!(nw.crossings > base.crossings);
    }

    #[test]
    fn switched_stacks_cost_more_than_shared() {
        let shared = quick(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        let switched = quick(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkSwitched,
            ..RedisParams::default()
        });
        assert!(switched.mreq_per_s < shared.mreq_per_s);
    }

    #[test]
    fn merging_nw_and_sched_does_not_recover_throughput() {
        // The paper's Figure 5 finding: semaphores live in LibC, so
        // putting the stack and scheduler together does not help.
        let separate = quick(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        let merged = quick(RedisParams {
            model: CompartmentModel::NwAndSchedRest,
            backend: BackendChoice::MpkShared,
            ..RedisParams::default()
        });
        // Merged is not meaningfully faster (within 10%).
        assert!(merged.mreq_per_s < separate.mreq_per_s * 1.10);
    }

    #[test]
    fn local_allocator_beats_global_under_sh() {
        // Figure 4's configuration: SH on the network stack, no hardware
        // isolation; the NW-only model provides the allocator domain.
        let global = quick(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::None,
            sh_on: vec!["lwip".into()],
            dedicated_allocators: false,
            mix: Mix::Set,
            ..RedisParams::default()
        });
        let local = quick(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::None,
            sh_on: vec!["lwip".into()],
            dedicated_allocators: true,
            mix: Mix::Set,
            ..RedisParams::default()
        });
        assert!(
            local.mreq_per_s > global.mreq_per_s,
            "local {:.3} vs global {:.3} MTps",
            local.mreq_per_s,
            global.mreq_per_s
        );
    }

    #[test]
    fn verified_scheduler_overhead_is_small_for_redis() {
        let coop = quick(RedisParams::default());
        let verified = quick(RedisParams {
            sched: SchedKind::Verified,
            ..RedisParams::default()
        });
        assert!(verified.mreq_per_s <= coop.mreq_per_s);
        assert!(verified.mreq_per_s > coop.mreq_per_s * 0.9);
    }
}
