//! The three workloads: their request pools (encrypted before timing), the
//! closed and open loops that send them over TCP, and the checker that
//! compares every reply with the result computed in the clear.

use crate::deploy::{Deployment, Tenant, TenantSpec};
use hefv_core::prelude::*;
use hefv_core::wire::encode_ciphertext;
use hefv_engine::prelude::*;
use hefv_engine::wire::{self, ResponseFrame};
use hefv_net::Client;
use perfbench::{poisson_schedule, Arrival};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Distinct requests prepared per request kind; the loops draw from them.
const POOL: usize = 12;
/// Client connections. The closed loops keep one request in flight on
/// each, one per engine worker.
const CONNECTIONS: usize = 2;
/// Least untimed load before the window.
const WARMUP: Duration = Duration::from_secs(2);
/// How long a reader waits for one reply before counting the rest lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Offered rate of `mixed`, requests per second. When the benchmark was
/// defined, on a 2-vCPU x86-64 host, the highest rate whose p99 met the
/// 50 ms limit was about 140/s (the mix saturates near 250/s); this is
/// about 60 % of it. Fixed, so that later commits get the same load. At
/// this rate the p99 is set by host stalls more than by load: 45/s and
/// 60/s gave the same 27-41 ms as 90/s.
pub const MIXED_RATE_PER_S: f64 = 90.0;
/// Relative deadline (µs of the engine's priced service) on the `Mul`
/// tenant's requests in `mixed`.
pub const MIXED_MUL_DEADLINE_US: f64 = 100_000.0;

/// Request kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Add,
    MulPlain,
    Mul,
    /// Four hoisted rotations of one ciphertext (`EvalRequest::rotations`).
    Rot4,
    /// `MulPlain` then `SumSlots`: an encrypted 4096-slot dot product.
    SlotSum,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Add => "add",
            Kind::MulPlain => "mul_plain",
            Kind::Mul => "mul",
            Kind::Rot4 => "rotate4",
            Kind::SlotSum => "slot_sum",
        }
    }
}

/// How a workload offers its load.
#[derive(Clone, Copy)]
pub enum Loop {
    /// One request in flight per connection, the next sent on each reply.
    Closed,
    /// Seeded Poisson arrivals at a fixed rate, sent regardless of replies.
    Open { rate_per_s: f64 },
}

/// A workload: its tenants, request kinds with their mix weights and
/// tenants, load shape and latency limit.
pub struct Workload {
    pub name: &'static str,
    pub tenants: Vec<TenantSpec>,
    /// `(kind, weight, index into tenants)`.
    pub kinds: Vec<(Kind, f64, usize)>,
    pub shape: Loop,
    /// Latency limit of `within_limit_frac`, milliseconds.
    pub limit_ms: f64,
    /// Relative deadline carried by the workload's `Mul` requests.
    pub mul_deadline_us: Option<f64>,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let tenant = |id, galois| TenantSpec { id, galois };
        Some(match name {
            // The paper's headline op: Lift/Scale and relinearization are
            // most of the work.
            "mul" => Workload {
                name: "mul",
                tenants: vec![tenant(1, false)],
                kinds: vec![(Kind::Mul, 1.0, 0)],
                shape: Loop::Closed,
                limit_ms: 100.0,
                mul_deadline_us: None,
            },
            // Key switching, NTT, pointwise and SoP without any Lift/Scale:
            // the bypass workload for basis-conversion changes.
            "slotsum" => Workload {
                name: "slotsum",
                tenants: vec![tenant(2, true)],
                kinds: vec![(Kind::SlotSum, 1.0, 0)],
                shape: Loop::Closed,
                limit_ms: 100.0,
                mul_deadline_us: None,
            },
            // Mostly light jobs whose time is transport, queued behind heavy
            // ones: loads the poll loop, the codec, dispatch, scheduling and
            // admission.
            "mixed" => Workload {
                name: "mixed",
                tenants: vec![
                    tenant(11, false),
                    tenant(12, false),
                    tenant(13, false),
                    tenant(14, true),
                ],
                kinds: vec![
                    (Kind::Add, 0.4, 0),
                    (Kind::MulPlain, 0.3, 1),
                    (Kind::Mul, 0.15, 2),
                    (Kind::Rot4, 0.15, 3),
                ],
                shape: Loop::Open {
                    rate_per_s: MIXED_RATE_PER_S,
                },
                limit_ms: 50.0,
                mul_deadline_us: Some(MIXED_MUL_DEADLINE_US),
            },
            _ => return None,
        })
    }
}

/// One prepared request: what is sent, to whom, and the plaintext
/// polynomial its reply must decrypt to.
pub struct Prepared {
    pub kind: Kind,
    pub tenant: usize,
    pub req: EvalRequest,
    pub frame: Vec<u8>,
    pub expected: Vec<u64>,
}

/// Every workload request, grouped by kind.
pub struct Pool {
    pub items: Vec<Prepared>,
    /// Indices into `items`, one list per entry of `Workload::kinds`.
    pub by_kind: Vec<Vec<usize>>,
}

/// `σ_g` on a plaintext polynomial in the clear: `X^i ↦ X^{i·g}` in
/// `Z_t[X]/(X^n + 1)`.
fn automorphism(coeffs: &[u64], g: usize, t: u64) -> Vec<u64> {
    let n = coeffs.len();
    let mut out = vec![0u64; n];
    for (i, &c) in coeffs.iter().enumerate() {
        let j = (i * g) % (2 * n);
        if j < n {
            out[j] = c;
        } else {
            out[j - n] = (t - c) % t;
        }
    }
    out
}

/// Encrypts the pool from `seed`: `POOL` requests for every kind of the
/// workload, each with fresh ciphertexts and its expected result.
pub fn build_pool(dep: &Deployment, w: &Workload, seed: u64) -> Pool {
    let ctx = &*dep.ctx;
    let t = ctx.params().t;
    let n = ctx.params().n;
    let enc = BatchEncoder::new(t, n).expect("t = 65537 supports batching");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_9001);
    let mut items = Vec::new();
    let mut by_kind = Vec::new();
    for &(kind, _, tenant_ix) in &w.kinds {
        let tenant = &dep.tenants[tenant_ix];
        let mut idx = Vec::new();
        for _ in 0..POOL {
            let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let y: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let ct = |v: &[u64], rng: &mut StdRng| encrypt(ctx, &tenant.pk, &enc.encode(v), rng);
            let slots = |f: &dyn Fn(u64, u64) -> u64| -> Vec<u64> {
                x.iter().zip(&y).map(|(&a, &b)| f(a, b)).collect()
            };
            let (req, expected) = match kind {
                Kind::Add => (
                    EvalRequest::binary(tenant.id, EvalOp::Add, ct(&x, &mut rng), ct(&y, &mut rng)),
                    enc.encode(&slots(&|a, b| (a + b) % t)),
                ),
                Kind::Mul => {
                    let mut req = EvalRequest::binary(
                        tenant.id,
                        EvalOp::Mul,
                        ct(&x, &mut rng),
                        ct(&y, &mut rng),
                    );
                    if let Some(d) = w.mul_deadline_us {
                        req = req.with_deadline(d);
                    }
                    (req, enc.encode(&slots(&|a, b| a * b % t)))
                }
                Kind::MulPlain | Kind::SlotSum => {
                    let mut ops = vec![EvalOp::MulPlain(ValRef::Input(0), 0)];
                    let expected = if kind == Kind::SlotSum {
                        ops.push(EvalOp::SumSlots(ValRef::Op(0)));
                        let dot = x.iter().zip(&y).fold(0, |s, (&a, &b)| (s + a * b) % t);
                        enc.encode(&vec![dot; n])
                    } else {
                        enc.encode(&slots(&|a, b| a * b % t))
                    };
                    let req = EvalRequest {
                        tenant: tenant.id,
                        inputs: vec![ct(&x, &mut rng)],
                        plaintexts: vec![enc.encode(&y)],
                        ops,
                        deadline_us: None,
                        trace_id: None,
                    };
                    (req, expected)
                }
                Kind::Rot4 => {
                    let exps = rotation_exponents(tenant, 4, &mut rng);
                    let gs: Vec<u32> = exps.iter().map(|&g| g as u32).collect();
                    let req = EvalRequest::rotations(tenant.id, ct(&x, &mut rng), &gs);
                    // The request's value is its last rotation.
                    let last = *exps.last().expect("four exponents");
                    let coeffs = automorphism(enc.encode(&x).coeffs(), last, t);
                    (req, Plaintext::new(coeffs, t, n))
                }
            };
            idx.push(items.len());
            items.push(Prepared {
                kind,
                tenant: tenant_ix,
                frame: wire::encode_request(&req),
                req,
                expected: expected.coeffs().to_vec(),
            });
        }
        by_kind.push(idx);
    }
    Pool { items, by_kind }
}

/// `count` distinct Galois exponents of the tenant's key set, seeded.
pub fn rotation_exponents(tenant: &Tenant, count: usize, rng: &mut StdRng) -> Vec<usize> {
    let keys = tenant
        .galois
        .as_ref()
        .expect("rotating tenants hold a Galois key set")
        .keys();
    let mut exps: Vec<usize> = keys.iter().map(|k| k.g).collect();
    for i in 0..count {
        let j = rng.gen_range(i..exps.len());
        exps.swap(i, j);
    }
    exps.truncate(count);
    exps
}

/// One answered (or failed) request as the client saw it.
struct Reply {
    item: usize,
    latency_ms: f64,
    frame: io::Result<Vec<u8>>,
}

/// What one timed window produced, after every reply was checked.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub correct: u64,
    pub wrong: u64,
    /// Transport failures, undecodable replies and lost replies.
    pub failed: u64,
    /// Refusals by wire error code.
    pub refused: BTreeMap<u8, u64>,
    /// Kind and client-observed latency (milliseconds) of each correct
    /// reply.
    pub latencies: Vec<(Kind, f64)>,
    pub within_limit: u64,
    /// Seconds from the first send until the last reply.
    pub elapsed_s: f64,
    /// HEVQ plus HEVP bytes of every answered request.
    pub frame_bytes: u64,
    /// How late the open-loop generator sent each request, milliseconds.
    pub late_ms: Vec<f64>,
    /// The engine's report of each correct reply (traced runs only).
    pub reports: Vec<JobReport>,
    /// Replies whose result bytes differed from the first result for the
    /// same request (each was decrypted on arrival).
    pub mismatched: u64,
}

impl Window {
    pub fn refused_total(&self) -> u64 {
        self.refused.values().sum()
    }

    /// (failed + refused + wrong) / attempted.
    pub fn failed_frac(&self) -> f64 {
        let bad = self.failed + self.refused_total() + self.wrong;
        bad as f64 / self.attempted.max(1) as f64
    }
}

/// Warm-up calls, then the timed window, then the check of every reply.
/// With `trace`, the engine's report of each reply is kept too.
pub fn run_window(
    dep: &Deployment,
    w: &Workload,
    pool: &Pool,
    seconds: f64,
    seed: u64,
    trace: bool,
) -> Window {
    let addr = dep.server.local_addr();
    warm_up(addr, pool);
    let (tx, rx) = channel();
    let checker = Checker {
        dep,
        pool,
        limit_ms: w.limit_ms,
        keep_reports: trace,
    };
    std::thread::scope(|s| {
        let check = s.spawn(move || checker.run(rx));
        let (elapsed_s, late_ms, attempted) = match w.shape {
            Loop::Closed => closed_loop(addr, pool, seconds, seed, tx),
            Loop::Open { rate_per_s } => open_loop(addr, w, pool, rate_per_s, seconds, seed, tx),
        };
        let mut win = check.join().expect("checker thread panicked");
        win.elapsed_s = elapsed_s;
        win.late_ms = late_ms;
        // Requests sent but never answered count as failed.
        win.failed += attempted.saturating_sub(win.attempted);
        win.attempted = attempted;
        win
    })
}

fn connect(addr: SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connect to the loopback server");
    client
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a read timeout");
    client
}

/// Sends every pool request at least once, spread over the connections,
/// and keeps going for at least `WARMUP`: worker arenas, socket buffers
/// and the context's lazily built automorphism tables fill before timing.
fn warm_up(addr: SocketAddr, pool: &Pool) {
    let end = Instant::now() + WARMUP;
    std::thread::scope(|s| {
        for c in 0..CONNECTIONS {
            s.spawn(move || {
                let mut client = connect(addr);
                let mut first_pass = true;
                while first_pass || Instant::now() < end {
                    for item in pool.items.iter().skip(c).step_by(CONNECTIONS) {
                        client.call(&item.frame).expect("warm-up call");
                    }
                    first_pass = false;
                }
            });
        }
    });
}

/// Closed loop: each connection sends its next seeded pick as soon as the
/// previous reply arrives, until the window ends. Returns the elapsed
/// seconds, no generator lateness, and the number of requests sent.
fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    seconds: f64,
    seed: u64,
    tx: Sender<Reply>,
) -> (f64, Vec<f64>, u64) {
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (tx, barrier) = (tx.clone(), &barrier);
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xC105ED << 8) ^ c as u64);
                    let idx = &pool.by_kind[0];
                    barrier.wait();
                    let end = Instant::now() + Duration::from_secs_f64(seconds);
                    let mut sent = 0u64;
                    while Instant::now() < end {
                        let item = idx[rng.gen_range(0..idx.len())];
                        let t0 = Instant::now();
                        let frame = client.call(&pool.items[item].frame);
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        sent += 1;
                        let failed = frame.is_err();
                        let _ = tx.send(Reply {
                            item,
                            latency_ms,
                            frame,
                        });
                        if failed {
                            break;
                        }
                    }
                    sent
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let sent: u64 = threads
            .into_iter()
            .map(|t| t.join().expect("closed-loop thread panicked"))
            .sum();
        (start.elapsed().as_secs_f64(), Vec::new(), sent)
    })
}

/// Open loop: one generator sends the seeded Poisson schedule, spreading
/// arrivals over the connections in turn; one reader per connection takes
/// the replies. Latency runs from each request's scheduled send time.
fn open_loop(
    addr: SocketAddr,
    w: &Workload,
    pool: &Pool,
    rate_per_s: f64,
    seconds: f64,
    seed: u64,
    tx: Sender<Reply>,
) -> (f64, Vec<f64>, u64) {
    let weights: Vec<f64> = w.kinds.iter().map(|k| k.1).collect();
    let schedule: Vec<Arrival> = poisson_schedule(seed, rate_per_s, seconds, &weights);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE7_100B);
    let items: Vec<usize> = schedule
        .iter()
        .map(|a| {
            let idx = &pool.by_kind[a.kind];
            idx[rng.gen_range(0..idx.len())]
        })
        .collect();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(addr).expect("connect to the loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("set a read timeout");
        writers.push(Client::from_stream(
            stream.try_clone().expect("clone the socket"),
        ));
        readers.push(Client::from_stream(stream));
    }
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].at_s);
    let (late_ms, last_reply) = std::thread::scope(|s| {
        let reader_threads: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, mut reader)| {
                let (tx, items, due) = (tx.clone(), &items, &due);
                s.spawn(move || {
                    // Connection c carries arrivals c, c + C, c + 2C, ...
                    // and the client numbers them 0, 1, 2, ... in send order.
                    let expect = (items.len() + CONNECTIONS - 1 - c) / CONNECTIONS;
                    let mut last = start;
                    for _ in 0..expect {
                        match reader.recv_reply() {
                            Ok((corr, frame)) => {
                                last = Instant::now();
                                let i = corr as usize * CONNECTIONS + c;
                                let _ = tx.send(Reply {
                                    item: items[i],
                                    latency_ms: (last - due(i)).as_secs_f64() * 1e3,
                                    frame: Ok(frame),
                                });
                            }
                            Err(_) => break,
                        }
                    }
                    last
                })
            })
            .collect();
        let mut late_ms = Vec::with_capacity(items.len());
        for (i, &item) in items.iter().enumerate() {
            let at = due(i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
            let writer = &mut writers[i % CONNECTIONS];
            if let Err(e) = writer.send_frame(&pool.items[item].frame) {
                let _ = tx.send(Reply {
                    item,
                    latency_ms: 0.0,
                    frame: Err(e),
                });
            }
        }
        let last = reader_threads
            .into_iter()
            .map(|t| t.join().expect("reader thread panicked"))
            .max()
            .unwrap_or(start);
        (late_ms, last)
    });
    // The window runs from the start of the schedule until the last reply
    // (or the last send, if no reply came after it).
    let last_due = schedule.last().map_or(seconds, |a| a.at_s);
    let elapsed = (last_reply - start).as_secs_f64().max(last_due);
    (elapsed, late_ms, items.len() as u64)
}

/// A success reply whose result is checked after the window.
struct Answered {
    item: usize,
    latency_ms: f64,
    /// The engine's report, decoded in traced runs only.
    report: Option<JobReport>,
    /// Whether its result was already checked on arrival.
    checked: bool,
}

/// Checks every reply against the result computed in the clear, keeping
/// the cost on the window's side small. Evaluating a pool item is
/// deterministic, so during the window a reply's result bytes are only
/// compared with the first result for the same item; those first results
/// (at most `POOL` per kind) are decrypted with the library's `decrypt`
/// after the window. A reply whose bytes differ is decrypted on arrival.
struct Checker<'a> {
    dep: &'a Deployment,
    pool: &'a Pool,
    limit_ms: f64,
    keep_reports: bool,
}

impl Checker<'_> {
    fn run(self, rx: Receiver<Reply>) -> Window {
        let ctx = &*self.dep.ctx;
        let good = |item: usize, ct: &Ciphertext| {
            let item = &self.pool.items[item];
            decrypt(ctx, &self.dep.tenants[item.tenant].sk, ct).coeffs() == item.expected
        };
        let mut win = Window::default();
        // Per item: the encoded bytes of its first result, and that result.
        let mut firsts: Vec<Option<(Vec<u8>, Ciphertext)>> =
            self.pool.items.iter().map(|_| None).collect();
        let mut answered = Vec::new();
        for reply in rx {
            win.attempted += 1;
            let Ok(frame) = reply.frame else {
                win.failed += 1;
                continue;
            };
            match wire::peek_response_error(&frame) {
                Ok(None) => {}
                Ok(Some(refusal)) => {
                    *win.refused.entry(refusal.code.as_u8()).or_default() += 1;
                    continue;
                }
                Err(_) => {
                    win.failed += 1;
                    continue;
                }
            }
            // The ciphertext closes the HEVP success frame.
            let first = &mut firsts[reply.item];
            let known = first
                .as_ref()
                .is_some_and(|(bytes, _)| frame.ends_with(bytes));
            let resp = if known && !self.keep_reports {
                None
            } else {
                match wire::decode_response(ctx, &frame) {
                    Ok(ResponseFrame::Ok(resp)) => Some(resp),
                    _ => {
                        win.failed += 1;
                        continue;
                    }
                }
            };
            let mut checked = false;
            if !known {
                let result = &resp.as_ref().expect("decoded above").result;
                if first.is_none() {
                    *first = Some((encode_ciphertext(result), result.clone()));
                } else {
                    win.mismatched += 1;
                    if !good(reply.item, result) {
                        win.wrong += 1;
                        continue;
                    }
                    checked = true;
                }
            }
            win.frame_bytes += (self.pool.items[reply.item].frame.len() + frame.len()) as u64;
            answered.push(Answered {
                item: reply.item,
                latency_ms: reply.latency_ms,
                report: resp.map(|r| r.report),
                checked,
            });
        }
        // After the window: decrypt each item's first result once.
        let first_good: Vec<bool> = firsts
            .iter()
            .enumerate()
            .map(|(i, f)| f.as_ref().is_some_and(|(_, ct)| good(i, ct)))
            .collect();
        for a in answered {
            if !a.checked && !first_good[a.item] {
                win.wrong += 1;
                continue;
            }
            win.correct += 1;
            let kind = self.pool.items[a.item].kind;
            win.latencies.push((kind, a.latency_ms));
            if a.latency_ms <= self.limit_ms {
                win.within_limit += 1;
            }
            win.reports.extend(a.report);
        }
        win
    }
}
