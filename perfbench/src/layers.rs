//! The traced run's per-layer numbers. Every number here is a timing of
//! the benchmark's own call into a layer's public functions, or a count
//! the layer already reports (`JobReport`, router and server stats); the
//! program itself is not instrumented.

use crate::deploy::{Deployment, Tenant};
use crate::work::{rotation_exponents, Kind, Pool, Window};
use crate::Report;
use hefv_core::eval::{
    self, lift_q_to_full_in, mul_in, mul_plain_operand_in, relinearize_in, scale_full_to_q_in,
    tensor, tensor_in, PlainOperand,
};
use hefv_core::galois::{apply_galois_in, rotate_many_in, sum_slots_in};
use hefv_core::prelude::*;
use hefv_engine::prelude::*;
use hefv_engine::wire::{self, ResponseFrame};
use hefv_math::dispatch::{kernels, scalar_kernels, Kernels};
use hefv_net::Client;
use perfbench::{abs_ln, closure, closure_holds, ladder_self_times, median, Percentiles, RUNGS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Tenant id of the traced run's own key set (every key class), used for
/// the single-op cost probes.
const PROBE_TENANT: TenantId = 99;
/// Rounds of the interleaved kernel and codec timings.
const KERNEL_ROUNDS: usize = 201;
/// Rounds of the interleaved FV-op timings.
const OP_ROUNDS: usize = 15;
/// Single-op jobs per op kind sent to score the engine's price table.
const PROBE_REPS: usize = 5;
/// Workload requests sent through every ladder rung, and the rounds.
const LADDER_SAMPLES: usize = 8;
const LADDER_ROUNDS: usize = 3;

/// Wall time of `f` in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = black_box(f());
    (r, t0.elapsed().as_secs_f64())
}

/// Runs every step once per round, in turn, and returns each step's
/// times. Interleaving the steps makes them all see the same host
/// conditions, so ratios between them hold even when the host's speed
/// drifts during the run.
fn interleaved(rounds: usize, steps: &mut [&mut dyn FnMut() -> f64]) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::with_capacity(rounds); steps.len()];
    for _ in 0..rounds {
        for (step, t) in steps.iter_mut().zip(&mut times) {
            t.push(step());
        }
    }
    times
}

/// Records every per-layer metric of a traced run. Returns whether every
/// result computed on the way (the ladder's replies) was correct.
pub fn measure(dep: &Deployment, pool: &Pool, win: &Window, seed: u64, out: &mut Report) -> bool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE);
    let probe = probe_tenant(dep, &mut rng);
    kernel_lane(dep, &mut rng, out);
    core_ops(dep, &probe, &mut rng, out);
    codec(dep, &probe, &mut rng, out);
    engine_reports(dep, win, out);
    cost_probes(dep, &probe, &mut rng, out);
    let ladder_ok = ladder(dep, pool, &mut rng, out);
    let net = dep.server.stats();
    println!(
        "net: frames_in={} replies_out={} (NetServer::stats, whole run)",
        net.frames_in, net.replies_out
    );
    out.put(
        "net.bytes_per_job",
        win.frame_bytes as f64 / win.correct.max(1) as f64,
        "B",
    );
    let latencies: Vec<f64> = win.latencies.iter().map(|l| l.1).collect();
    out.put("net.client_p99_ms", Percentiles::of(&latencies).p99, "ms");
    out.put("gen.late_p99_ms", Percentiles::of(&win.late_ms).p99, "ms");
    ladder_ok
}

/// A tenant holding every key class, registered on the router.
fn probe_tenant(dep: &Deployment, rng: &mut StdRng) -> Tenant {
    let ctx = &dep.ctx;
    let (sk, pk, rlk) = keygen(ctx, rng);
    let galois = GaloisKeySet::for_slot_sum(ctx, &sk, rng);
    let t = Tenant {
        id: PROBE_TENANT,
        sk,
        pk: pk.into(),
        rlk: rlk.into(),
        galois: Some(galois.into()),
    };
    dep.router
        .register_tenant(t.id, t.keys())
        .expect("register the probe tenant");
    t
}

fn fresh(dep: &Deployment, tenant: &Tenant, rng: &mut StdRng) -> Ciphertext {
    let (t, n) = (dep.ctx.params().t, dep.ctx.params().n);
    let coeffs = (0..n).map(|_| rng.gen_range(0..t)).collect();
    encrypt(&dep.ctx, &tenant.pk, &Plaintext::new(coeffs, t, n), rng)
}

/// NTT, pointwise and SoP row through the dispatched kernels, one 4096-point
/// residue row of the first `q` prime.
fn kernel_lane(dep: &Deployment, rng: &mut StdRng, out: &mut Report) {
    let ctx = &dep.ctx;
    let n = ctx.params().n;
    let table = &ctx.ntt_q()[0];
    let m = ctx.base_q().modulus(0);
    let q = ctx.params().q_primes[0];
    let row = |rng: &mut StdRng| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
    let (a, b) = (row(rng), row(rng));
    let mut buf = a.clone();
    let mut ntt = |k: &Kernels, forward: bool| {
        buf.copy_from_slice(&a);
        timed(|| {
            if forward {
                k.ntt_forward(table, &mut buf)
            } else {
                k.ntt_inverse(table, &mut buf)
            }
        })
        .1
    };
    let (mut fwd, mut inv, mut sfwd, mut sinv) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..KERNEL_ROUNDS {
        fwd.push(ntt(kernels(), true));
        inv.push(ntt(kernels(), false));
        sfwd.push(ntt(scalar_kernels(), true));
        sinv.push(ntt(scalar_kernels(), false));
    }
    let (fwd, inv) = (median(&fwd), median(&inv));
    out.put("math.ntt_fwd_us", fwd * 1e6, "us");
    out.put("math.ntt_inv_us", inv * 1e6, "us");
    out.put(
        "math.ntt_simd_speedup",
        (median(&sfwd) + median(&sinv)) / (fwd + inv),
        "x",
    );
    // One key-switch output row: k digit lines against k key rows.
    let k = ctx.params().k();
    let narrow =
        |rng: &mut StdRng| -> Vec<u32> { (0..n * k).map(|_| rng.gen_range(0..q) as u32).collect() };
    let (digits, ksk0, ksk1) = (narrow(rng), narrow(rng), narrow(rng));
    let perm: Vec<u32> = (0..n as u32).collect();
    let (mut dst, mut acc0, mut acc1) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let t = interleaved(
        KERNEL_ROUNDS,
        &mut [
            &mut || timed(|| kernels().pointwise_mul(m, &a, &b, &mut dst)).1,
            &mut || {
                timed(|| {
                    kernels()
                        .sop_narrow_row(m, &perm, &digits, &ksk0, &ksk1, None, &mut acc0, &mut acc1)
                })
                .1
            },
        ],
    );
    out.put("math.pointwise_us", median(&t[0]) * 1e6, "us");
    out.put("math.sop_row_us", median(&t[1]) * 1e6, "us");
}

/// Times of the parts of one `Mult`, in the order `tensor_in` and
/// `relinearize_in` run them, with the same warm arena.
struct MulParts {
    lift4: f64,
    ntt_fwd4: f64,
    pointwise: f64,
    ntt_inv3: f64,
    scale3: f64,
    relin: f64,
}

impl MulParts {
    fn measure(
        ctx: &FvContext,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
        arena: &Arena,
    ) -> Self {
        let backend = Backend::default();
        let full = ctx.rns().base_full();
        let (lifted, lift4) = timed(|| {
            [a.c0(), a.c1(), b.c0(), b.c1()].map(|p| lift_q_to_full_in(ctx, p, backend, arena))
        });
        let [mut l00, mut l01, mut l10, mut l11] = lifted;
        let ((), ntt_fwd4) = timed(|| {
            for p in [&mut l00, &mut l01, &mut l10, &mut l11] {
                p.ntt_forward(ctx.ntt_full());
            }
        });
        let (mut t1, pointwise) = timed(|| {
            let mut t1 = arena.take_poly(l00.k(), l00.n(), Domain::Ntt);
            l00.pointwise_mul_into(&l11, full, &mut t1);
            t1.pointwise_mul_acc(&l01, &l10, full);
            l00.pointwise_mul_assign(&l10, full);
            l01.pointwise_mul_assign(&l11, full);
            t1
        });
        let (mut t0, mut t2) = (l00, l01);
        let ((), ntt_inv3) = timed(|| {
            for p in [&mut t0, &mut t1, &mut t2] {
                p.ntt_inverse(ctx.ntt_full());
            }
        });
        let (tr, scale3) = timed(|| eval::TensorResult {
            d0: scale_full_to_q_in(ctx, &t0, backend, arena),
            d1: scale_full_to_q_in(ctx, &t1, backend, arena),
            d2: scale_full_to_q_in(ctx, &t2, backend, arena),
        });
        let (ct, relin) = timed(|| relinearize_in(ctx, &tr, rlk, arena));
        for p in [l10, l11, t0, t1, t2, tr.d0, tr.d1, tr.d2] {
            arena.recycle(p);
        }
        arena.recycle_ciphertext(ct);
        MulParts {
            lift4,
            ntt_fwd4,
            pointwise,
            ntt_inv3,
            scale3,
            relin,
        }
    }

    fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("4 lifts", self.lift4),
            ("4 forward full-basis NTTs", self.ntt_fwd4),
            ("pointwise tensor", self.pointwise),
            ("3 inverse full-basis NTTs", self.ntt_inv3),
            ("3 scales", self.scale3),
            ("relinearize", self.relin),
        ]
    }
}

/// FV ops and their parts with warm arenas, the way the engine calls them,
/// all interleaved round by round.
fn core_ops(dep: &Deployment, probe: &Tenant, rng: &mut StdRng, out: &mut Report) {
    let ctx = &*dep.ctx;
    let backend = Backend::default();
    let arena = Arena::new();
    let (a, b) = (fresh(dep, probe, rng), fresh(dep, probe, rng));
    let rlk = &*probe.rlk;
    let gks = probe
        .galois
        .as_deref()
        .expect("probe tenant has Galois keys");
    let exps = rotation_exponents(probe, 8, rng);
    let keys: Vec<&GaloisKey> = exps
        .iter()
        .map(|&g| gks.key_for(g).expect("exponent taken from the set"))
        .collect();
    let pt = Plaintext::new(vec![3; ctx.params().n], ctx.params().t, ctx.params().n);

    let mut parts: Vec<MulParts> = Vec::new();
    let mut mul_warm = Vec::new();
    let t = interleaved(
        OP_ROUNDS,
        &mut [
            &mut || {
                parts.push(MulParts::measure(ctx, &a, &b, rlk, &arena));
                let (ct, s) = timed(|| mul_in(ctx, &a, &b, rlk, backend, &arena));
                arena.recycle_ciphertext(ct);
                mul_warm.push(s);
                s
            },
            &mut || {
                let (tr, s) = timed(|| tensor_in(ctx, &a, &b, backend, &arena));
                for p in [tr.d0, tr.d1, tr.d2] {
                    arena.recycle(p);
                }
                s
            },
            &mut || timed(|| tensor(ctx, &a, &b, backend)).1,
            &mut || timed(|| eval::mul(ctx, &a, &b, rlk, backend)).1,
            &mut || {
                let (ct, s) = timed(|| apply_galois_in(ctx, &a, keys[0], &arena));
                arena.recycle_ciphertext(ct);
                s
            },
            &mut || {
                let (h, s) = timed(|| HoistedCiphertext::new_in(ctx, &a, &arena));
                h.recycle(&arena);
                s
            },
            &mut || {
                let (cts, s) = timed(|| rotate_many_in(ctx, &a, &keys, &arena));
                for ct in cts {
                    arena.recycle_ciphertext(ct);
                }
                s
            },
            &mut || {
                let (ct, s) = timed(|| sum_slots_in(ctx, &a, gks, &arena));
                arena.recycle_ciphertext(ct);
                s
            },
            &mut || {
                let ((ct, op), s) = timed(|| {
                    let op = PlainOperand::new(ctx, &pt);
                    (mul_plain_operand_in(ctx, &a, &op, &arena), op)
                });
                arena.recycle_ciphertext(ct);
                arena.recycle(op.into_poly_ntt());
                s
            },
            &mut || timed(|| eval::add(ctx, &a, &b)).1,
        ],
    );
    let m: Vec<f64> = t.iter().map(|v| median(v)).collect();
    let part = |f: fn(&MulParts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    let (ms, us) = (1e3, 1e6);
    out.put("core.lift_us", part(|p| p.lift4) / 4.0 * us, "us");
    out.put("core.scale_us", part(|p| p.scale3) / 3.0 * us, "us");
    out.put("core.tensor_ms", m[1] * ms, "ms");
    out.put("core.tensor_cold_ms", m[2] * ms, "ms");
    out.put("core.relin_ms", part(|p| p.relin) * ms, "ms");
    out.put("core.mul_ms", m[0] * ms, "ms");
    out.put("core.mul_cold_ms", m[3] * ms, "ms");
    // Each round's parts against the Mult timed right after them.
    let closures: Vec<f64> = parts
        .iter()
        .zip(&mul_warm)
        .map(|(p, &whole)| closure(&p.named().map(|n| n.1), whole))
        .collect();
    let mul_closure = median(&closures);
    out.put("core.mul_closure.abs_ln", abs_ln(mul_closure), "ln");
    let named = parts[0].named().map(|(name, _)| name);
    let medians: Vec<(&str, f64)> = named
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            (
                name,
                median(&parts.iter().map(|p| p.named()[i].1).collect::<Vec<_>>()),
            )
        })
        .collect();
    print_closure("core.mul_closure", mul_closure, &medians, "mul", m[0]);
    println!(
        "finding: tensor warm {:.3} ms, cold {:.3} ms; mul warm {:.3} ms, cold {:.3} ms",
        m[1] * ms,
        m[2] * ms,
        m[0] * ms,
        m[3] * ms
    );
    out.put("core.rotate_ms", m[4] * ms, "ms");
    out.put("core.hoist_ms", m[5] * ms, "ms");
    out.put("core.rotate_many8_ms", m[6] * ms, "ms");
    out.put("core.hoist_speedup8", 8.0 * m[4] / m[6], "x");
    out.put("core.sum_slots_ms", m[7] * ms, "ms");
    out.put("core.mul_plain_us", m[8] * us, "us");
    out.put("core.add_us", m[9] * us, "us");
}

fn print_closure(name: &str, ratio: f64, parts: &[(&str, f64)], whole: &str, whole_s: f64) {
    let verdict = if closure_holds(ratio) {
        "within [0.9, 1.1]"
    } else {
        "OUTSIDE [0.9, 1.1]"
    };
    println!(
        "finding: {name} = {ratio:.3} ({verdict}); {whole} = {:.3} ms",
        whole_s * 1e3
    );
    for (part, s) in parts {
        println!(
            "  part {part}: {:.3} ms ({:.1} % of {whole})",
            s * 1e3,
            100.0 * s / whole_s
        );
    }
}

/// The HEVQ/HEVP codec on a Mult request (two ciphertexts) and its reply
/// (one ciphertext).
fn codec(dep: &Deployment, probe: &Tenant, rng: &mut StdRng, out: &mut Report) {
    let ctx = &*dep.ctx;
    let req = EvalRequest::binary(
        probe.id,
        EvalOp::Mul,
        fresh(dep, probe, rng),
        fresh(dep, probe, rng),
    );
    let frame = wire::encode_request(&req);
    let outcome = Ok(dep.router.call(req.clone()).expect("probe Mul is served"));
    let reply = wire::encode_response(&outcome);
    println!(
        "codec: Mult request frame {} B, reply frame {} B",
        frame.len(),
        reply.len()
    );
    let t = interleaved(
        KERNEL_ROUNDS,
        &mut [
            &mut || timed(|| wire::encode_request(&req)).1,
            &mut || timed(|| wire::decode_request(ctx, &frame).expect("valid frame")).1,
            &mut || timed(|| wire::encode_response(&outcome)).1,
            &mut || timed(|| wire::decode_response(ctx, &reply).expect("valid frame")).1,
        ],
    );
    let names = [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ];
    for (name, times) in names.iter().zip(&t) {
        out.put(&format!("router.{name}_us"), median(times) * 1e6, "us");
    }
}

/// Queue and execution times the engine reported for the window's jobs,
/// and the router's refusal counters.
fn engine_reports(dep: &Deployment, win: &Window, out: &mut Report) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let of = |f: fn(&JobReport) -> u64| {
        Percentiles::of(&win.reports.iter().map(|r| ms(f(r))).collect::<Vec<_>>())
    };
    let (queue, exec) = (of(|r| r.queue_ns), of(|r| r.exec_ns));
    out.put("engine.queue_ms_p50", queue.p50, "ms");
    out.put("engine.queue_ms_p99", queue.p99, "ms");
    out.put("engine.exec_ms_p50", exec.p50, "ms");
    // Refusals by reason, printed only for the reasons that occur; the
    // JSON `failed` field carries them too.
    let stats = dep.router.stats();
    let refused: Vec<String> = stats
        .total
        .shed_by_reason
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(reason, n)| format!("engine.refused.{reason}={n}"))
        .collect();
    println!(
        "engine refusals (router stats, whole run): {}",
        if refused.is_empty() {
            "none".to_string()
        } else {
            refused.join(" ")
        }
    );
}

/// Measured execution time over the engine's price, per op, from
/// single-op jobs of the probe tenant sent through `ShardRouter::call`.
/// The ideal ratio is 1, so the metric is its distance from 1 on a log
/// scale, `|ln ratio|`, and the ratio itself is printed beside it.
fn cost_probes(dep: &Deployment, probe: &Tenant, rng: &mut StdRng, out: &mut Report) {
    let g = rotation_exponents(probe, 1, rng)[0] as u32;
    let (t, n) = (dep.ctx.params().t, dep.ctx.params().n);
    // Each op with the number of input ciphertexts it reads.
    let ops = [
        (EvalOp::Add(ValRef::Input(0), ValRef::Input(1)), 2),
        (EvalOp::MulPlain(ValRef::Input(0), 0), 1),
        (EvalOp::Mul(ValRef::Input(0), ValRef::Input(1)), 2),
        (EvalOp::Rotate(ValRef::Input(0), g), 1),
        (EvalOp::SumSlots(ValRef::Input(0)), 1),
    ];
    for (op, inputs) in ops {
        let req = EvalRequest {
            tenant: probe.id,
            inputs: (0..inputs).map(|_| fresh(dep, probe, rng)).collect(),
            plaintexts: vec![Plaintext::new(vec![5; n], t, n)],
            ops: vec![op],
            deadline_us: None,
            trace_id: None,
        };
        let ratios: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let r = dep
                    .router
                    .call(req.clone())
                    .expect("probe job is served")
                    .report;
                r.exec_ns as f64 / 1e3 / r.est_cost_us
            })
            .collect();
        let ratio = median(&ratios);
        println!("engine.cost_ratio.{} = {ratio:.3}", op.name());
        out.put(
            &format!("engine.cost_ratio.{}.abs_ln", op.name()),
            abs_ln(ratio),
            "ln",
        );
    }
}

/// Runs `req`'s op program with the core library directly, the way the
/// engine's worker does (warm arena, hoisted rotation runs).
fn core_eval(
    dep: &Deployment,
    tenant: &Tenant,
    kind: Kind,
    req: &EvalRequest,
    arena: &Arena,
) -> Ciphertext {
    let ctx = &*dep.ctx;
    let x = &req.inputs[0];
    let plain = |arena: &Arena| {
        let op = PlainOperand::new(ctx, &req.plaintexts[0]);
        let out = mul_plain_operand_in(ctx, x, &op, arena);
        arena.recycle(op.into_poly_ntt());
        out
    };
    match kind {
        Kind::Add => eval::add(ctx, x, &req.inputs[1]),
        Kind::Mul => mul_in(
            ctx,
            x,
            &req.inputs[1],
            &tenant.rlk,
            Backend::default(),
            arena,
        ),
        Kind::MulPlain => plain(arena),
        Kind::SlotSum => {
            let prod = plain(arena);
            let gks = tenant
                .galois
                .as_deref()
                .expect("slot-sum tenant has Galois keys");
            let out = sum_slots_in(ctx, &prod, gks, arena);
            arena.recycle_ciphertext(prod);
            out
        }
        Kind::Rot4 => {
            let gks = tenant
                .galois
                .as_deref()
                .expect("rotating tenant has Galois keys");
            let hoisted = HoistedCiphertext::new_in(ctx, x, arena);
            let mut last = None;
            for op in &req.ops {
                let EvalOp::Rotate(_, g) = *op else {
                    unreachable!("rotation batches hold only rotations")
                };
                let key = gks
                    .key_for(g as usize)
                    .expect("exponent from the tenant's set");
                if let Some(prev) = last.replace(hoisted.rotate_in(ctx, key, arena)) {
                    arena.recycle_ciphertext(prev);
                }
            }
            hoisted.recycle(arena);
            last.expect("four rotations")
        }
    }
}

/// Sends a seeded sample of the workload's own requests through the four
/// rungs and reports each layer's self time and the engine's closure.
fn ladder(dep: &Deployment, pool: &Pool, rng: &mut StdRng, out: &mut Report) -> bool {
    let ctx = &*dep.ctx;
    let arena = Arena::new();
    let mut client = Client::connect(dep.server.local_addr()).expect("connect to the server");
    // Spread the sample over the kinds in turn.
    let sample: Vec<usize> = (0..LADDER_SAMPLES)
        .map(|i| {
            let idx = &pool.by_kind[i % pool.by_kind.len()];
            idx[rng.gen_range(0..idx.len())]
        })
        .collect();
    let mut rows: Vec<[f64; RUNGS]> = Vec::new();
    let mut queue_ms = Vec::new();
    let mut ok = true;
    // Round 0 warms the ladder's own arena and is not recorded.
    for round in 0..=LADDER_ROUNDS {
        for &i in &sample {
            let item = &pool.items[i];
            let tenant = &dep.tenants[item.tenant];
            let good = |ct: &Ciphertext| decrypt(ctx, &tenant.sk, ct).coeffs() == item.expected;
            let from_frame = |frame: &[u8]| match wire::decode_response(ctx, frame) {
                Ok(ResponseFrame::Ok(resp)) => Some(resp.result),
                _ => None,
            };
            let t0 = Instant::now();
            let core = core_eval(dep, tenant, item.kind, &item.req, &arena);
            let core_s = t0.elapsed().as_secs_f64();
            ok &= good(&core);
            arena.recycle_ciphertext(core);

            let req = item.req.clone();
            let t0 = Instant::now();
            let resp = dep.router.call(req);
            let call_s = t0.elapsed().as_secs_f64();
            let queue_s = match resp {
                Ok(resp) => {
                    ok &= good(&resp.result);
                    resp.report.queue_ns as f64 / 1e9
                }
                Err(_) => {
                    ok = false;
                    0.0
                }
            };

            let t0 = Instant::now();
            let reply = dep.router.dispatch_frame(&item.frame);
            let dispatch_s = t0.elapsed().as_secs_f64();
            match from_frame(&reply) {
                Some(ct) => ok &= good(&ct),
                None => ok = false,
            }

            let t0 = Instant::now();
            let reply = client.call(&item.frame);
            let client_s = t0.elapsed().as_secs_f64();
            match reply.ok().as_deref().and_then(from_frame) {
                Some(ct) => ok &= good(&ct),
                None => ok = false,
            }
            if round > 0 {
                rows.push([core_s, call_s, dispatch_s, client_s].map(|s| s * 1e3));
                queue_ms.push(queue_s * 1e3);
            }
        }
    }
    let [engine, router, net] = ladder_self_times(&rows);
    let rung = |r: usize| median(&rows.iter().map(|row| row[r]).collect::<Vec<_>>());
    out.put("ladder.core_ms", rung(0), "ms");
    out.put("ladder.router_call_ms", rung(1), "ms");
    out.put("ladder.dispatch_frame_ms", rung(2), "ms");
    out.put("ladder.client_call_ms", rung(3), "ms");
    out.put("engine.self_ms", engine, "ms");
    out.put("router.self_ms", router, "ms");
    out.put("net.self_ms", net, "ms");
    // Each request's core ops and queue wait against its own call.
    let closures: Vec<f64> = rows
        .iter()
        .zip(&queue_ms)
        .map(|(r, &q)| closure(&[r[0], q], r[1]))
        .collect();
    let engine_closure = median(&closures);
    out.put("engine.closure.abs_ln", abs_ln(engine_closure), "ln");
    print_closure(
        "engine.closure",
        engine_closure,
        &[
            ("core ops (median)", rung(0) / 1e3),
            ("queue (median)", median(&queue_ms) / 1e3),
        ],
        "ShardRouter::call (median)",
        rung(1) / 1e3,
    );
    ok
}
