//! Both transfer methods deliver the same data end to end.
//!
//! Generated operations mix `in`, `inout` and `out` distributed
//! arguments of 1-, 4- and 8-byte elements, laid out over uneven client
//! and server templates in which some threads own nothing. Each runs
//! once centralized and once multi-port between a c-thread client and
//! an n-thread server (c, n ∈ {1, 2, 3}), with data translation off and
//! on. A servant transforms every returning block as a function of each
//! element's value and global index. The test checks that both methods
//! hand every servant thread the same blocks, and return the same
//! blocks to every client thread, and that both equal a serial
//! reference computed from the whole arrays in one place.

use bytes::Bytes;
use pardis::prelude::*;
use pardis_core::DistArgSend;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const TYPE: &str = "IDL:parity:1.0";
const MODES: [TransferMode; 2] = [TransferMode::Centralized, TransferMode::MultiPort];
/// Operations generated per (c, n, translate).
const OPS: usize = 6;

/// Splitmix64: the generated operations' only source of choices.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` elements over `threads` threads, unevenly: each element goes
/// to a random thread of a random non-empty subset, so the other
/// threads own nothing.
fn uneven(x: &mut u64, len: usize, threads: usize) -> DistTempl {
    let mut owners: Vec<usize> = (0..threads)
        .filter(|_| !next(x).is_multiple_of(3))
        .collect();
    if owners.is_empty() {
        owners.push(next(x) as usize % threads);
    }
    let mut counts = vec![0; threads];
    for _ in 0..len {
        counts[owners[next(x) as usize % owners.len()]] += 1;
    }
    DistTempl::from_counts(counts)
}

/// One distributed argument of a generated operation.
#[derive(Debug, Clone)]
struct Arg {
    dir: ArgDir,
    elem_size: usize,
    client: DistTempl,
    server: DistTempl,
}

/// One to three arguments for a `c`-thread client and an `n`-thread
/// server.
fn gen_op(x: &mut u64, c: usize, n: usize) -> Vec<Arg> {
    let args = 1 + next(x) as usize % 3;
    (0..args)
        .map(|_| {
            let len = next(x) as usize % 40;
            Arg {
                dir: [ArgDir::In, ArgDir::InOut, ArgDir::Out][next(x) as usize % 3],
                elem_size: [1, 4, 8][next(x) as usize % 3],
                client: uneven(x, len, c),
                server: uneven(x, len, n),
            }
        })
        .collect()
}

/// Argument `a`'s whole array as the client sends it, native byte
/// order; zeros for an `out` argument, as the servant receives one.
fn input(a: usize, arg: &Arg) -> Vec<u8> {
    let len = arg.client.len();
    if !arg.dir.sends() {
        return vec![0; len * arg.elem_size];
    }
    (0..len)
        .flat_map(|i| match arg.elem_size {
            1 => vec![(i * 7 + a * 13 + 1) as u8],
            4 => (i as i32 * 1000 - a as i32 * 7 - 3).to_ne_bytes().to_vec(),
            _ => (i as f64 * 1.25 + a as f64 + 0.5).to_ne_bytes().to_vec(),
        })
        .collect()
}

/// The servant's transform of the elements in `block`, whose first
/// element has global index `first`.
fn transform(elem_size: usize, block: &[u8], first: usize) -> Vec<u8> {
    block
        .chunks_exact(elem_size)
        .enumerate()
        .flat_map(|(j, e)| {
            let g = first + j;
            match elem_size {
                1 => vec![e[0].wrapping_mul(3).wrapping_add(g as u8)],
                4 => {
                    let v = i32::from_ne_bytes(e.try_into().unwrap());
                    v.wrapping_mul(-2)
                        .wrapping_add(g as i32)
                        .to_ne_bytes()
                        .to_vec()
                }
                _ => {
                    let v = f64::from_ne_bytes(e.try_into().unwrap());
                    (v * 2.0 - g as f64).to_ne_bytes().to_vec()
                }
            }
        })
        .collect()
}

/// Thread `t`'s block of `whole`, laid out by `templ`.
fn block(whole: &[u8], templ: &DistTempl, t: usize, elem_size: usize) -> Vec<u8> {
    let r = templ.range(t);
    whole[r.start * elem_size..r.end * elem_size].to_vec()
}

/// What one servant thread received: per invocation, the operation and
/// its block of every argument.
type Seen = Vec<(String, Vec<Vec<u8>>)>;

/// Records each block it receives and returns every returning block
/// transformed.
struct Parity {
    seen: Arc<Mutex<Seen>>,
}

/// `bytes` as thread `rank`'s block of a sequence of `T` laid out by
/// `templ`.
fn seq<T: Elem>(bytes: Bytes, templ: &DistTempl, rank: usize) -> PardisResult<DSequence<T>> {
    DSequence::from_bytes(bytes, templ.clone(), rank)
}

impl Servant for Parity {
    fn type_id(&self) -> &str {
        TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let rank = req.ctx().rank();
        let mut blocks = Vec::new();
        for i in 0..req.dist_count() {
            let d = req.dist_raw(i)?.clone();
            blocks.push(d.local.to_vec());
            if !d.dir.returns() {
                continue;
            }
            let first = d.server_templ.offset(rank);
            let out = Bytes::from(transform(d.elem_size, &d.local, first));
            match d.elem_size {
                1 => req.return_dist_seq(i, &seq::<u8>(out, &d.server_templ, rank)?)?,
                4 => req.return_dist_seq(i, &seq::<i32>(out, &d.server_templ, rank)?)?,
                _ => req.return_dist_seq(i, &seq::<f64>(out, &d.server_templ, rank)?)?,
            }
        }
        self.seen
            .lock()
            .unwrap()
            .push((req.operation().to_string(), blocks));
        Ok(())
    }
}

/// Argument `arg` as client thread `rank` sends it, with its block
/// `local`.
fn send<T: Elem>(proxy: &Proxy, arg: &Arg, local: Bytes, rank: usize) -> DistArgSend {
    let seq = seq::<T>(local, &arg.client, rank).unwrap();
    let mut send = proxy.dist_arg("parity", 0, arg.dir, &seq).unwrap();
    send.server_templ = arg.server.clone();
    send
}

/// The operation name of generated operation `k` sent in `mode`.
fn op_name(k: usize, mode: TransferMode) -> String {
    format!("op{k}/{mode:?}")
}

/// Run the generated operations in both modes between a `c`-thread
/// client and an `n`-thread server, and check every block against the
/// serial reference.
fn check(c: usize, n: usize, translate: bool) {
    let mut x = (c * 10 + n) as u64 * 2 + u64::from(translate);
    let ops: Arc<Vec<Vec<Arg>>> = Arc::new((0..OPS).map(|_| gen_op(&mut x, c, n)).collect());
    let opts = OrbOptions {
        translate,
        ..Default::default()
    };
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine_with("server", n, opts.clone(), |ctx| {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let servant = Parity { seen: seen.clone() };
        ctx.register("parity", Box::new(servant), vec![]).unwrap();
        ctx.serve_forever().unwrap();
        let seen = seen.lock().unwrap().clone();
        seen
    });
    let client_ops = ops.clone();
    let client = world.spawn_machine_with("client", c, opts, move |ctx| {
        let mut proxy = ctx.spmd_bind("parity", None, Some(TYPE)).unwrap();
        proxy.set_deadline(Some(Duration::from_secs(20)));
        let rank = ctx.rank();
        for (k, op) in client_ops.iter().enumerate() {
            let inputs: Vec<Vec<u8>> = op
                .iter()
                .enumerate()
                .map(|(a, arg)| input(a, arg))
                .collect();
            for mode in MODES {
                let mut spec = RequestSpec::simple(&op_name(k, mode));
                for (arg, whole) in op.iter().zip(&inputs) {
                    let local = Bytes::from(block(whole, &arg.client, rank, arg.elem_size));
                    spec.dist_args.push(match arg.elem_size {
                        1 => send::<u8>(&proxy, arg, local, rank),
                        4 => send::<i32>(&proxy, arg, local, rank),
                        _ => send::<f64>(&proxy, arg, local, rank),
                    });
                }
                let reply = proxy
                    .invoke_with_mode(&ctx, spec, mode)
                    .unwrap_or_else(|e| {
                        panic!(
                            "c={c} n={n} translate={translate} {}: {e}",
                            op_name(k, mode)
                        )
                    });
                for (a, (arg, whole)) in op.iter().zip(&inputs).enumerate() {
                    let got = reply.dist_local(a as u32);
                    if !arg.dir.returns() {
                        assert_eq!(
                            got,
                            None,
                            "{}: `in` argument {a} returned",
                            op_name(k, mode)
                        );
                        continue;
                    }
                    let out = transform(arg.elem_size, whole, 0);
                    let want = block(&out, &arg.client, rank, arg.elem_size);
                    assert_eq!(
                        got,
                        Some(&want[..]),
                        "c={c} n={n} translate={translate} {} argument {a} ({arg:?}) on \
                         client thread {rank}",
                        op_name(k, mode)
                    );
                }
            }
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
    });
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        client.join();
        tx.send(server.join())
    });
    let servers = rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("c={c} n={n} translate={translate}: hung or panicked"));

    for (rank, seen) in servers.iter().enumerate() {
        assert_eq!(seen.len(), OPS * MODES.len(), "server thread {rank}");
        for (k, op) in ops.iter().enumerate() {
            let want: Vec<Vec<u8>> = op
                .iter()
                .enumerate()
                .map(|(a, arg)| block(&input(a, arg), &arg.server, rank, arg.elem_size))
                .collect();
            for mode in MODES {
                let name = op_name(k, mode);
                let got = seen.iter().find(|(op, _)| *op == name).map(|(_, b)| b);
                assert_eq!(
                    got,
                    Some(&want),
                    "c={c} n={n} translate={translate} {name}: server thread {rank}'s blocks"
                );
            }
        }
    }
}

#[test]
fn both_methods_deliver_the_serial_result() {
    for c in 1..=3 {
        for n in 1..=3 {
            for translate in [false, true] {
                check(c, n, translate);
            }
        }
    }
}
