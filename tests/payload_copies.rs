//! Copy budget of the distributed-argument payload path.
//!
//! With no data translation, matching client and server thread counts
//! and block templates, each direction of an invocation may allocate
//! payload-sized buffers three times: the sender's native byte image
//! (`Elem::to_native_bytes`), the frame the payload travels in, and the
//! receiver's typed unpack (`Elem::from_native_bytes`). Everything else
//! (headers, collectives, control messages) has to fit in a small
//! fixed allowance. A counting global allocator measures the bytes the
//! whole process allocates during one invocation, both machines
//! included, in both transfer modes.

use pardis::apps::diffusion::DiffusionServant;
use pardis::prelude::*;
use pardis::stubs::diffusion::{diff_objectProxy, diff_objectSkeleton};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every byte handed out by the allocator; a `realloc` counts
/// its full new size, since it may move (copy) the block.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 2^16 doubles: half a MiB per argument, large enough that the fixed
/// allowance cannot hide a payload copy.
const LEN: usize = 1 << 16;
const PAYLOAD: u64 = (LEN * 8) as u64;
/// Headers, control messages, collectives and bookkeeping.
const SLACK: u64 = 64 * 1024;
const THREADS: usize = 2;

/// Bytes the process allocates while the client machine runs `op`
/// once. Collective; the value is meaningful on rank 0. The barriers
/// around each reading keep every thread's work before and after `op`
/// out of the window.
fn allocated_during(ctx: &OrbCtx, op: impl FnOnce()) -> u64 {
    ctx.rts().barrier();
    let before = ALLOCATED.load(Ordering::SeqCst);
    ctx.rts().barrier();
    op();
    ctx.rts().barrier();
    let after = ALLOCATED.load(Ordering::SeqCst);
    ctx.rts().barrier();
    after - before
}

#[test]
fn payload_is_allocated_at_most_three_times_per_direction() {
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", THREADS, |ctx| {
        diff_objectSkeleton::register(&ctx, "copies", DiffusionServant::new(), vec![])
            .expect("register");
        ctx.serve_forever().expect("serve");
    });
    let client = world.spawn_machine("client", THREADS, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "copies", None).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        let off = arr.local_range().start;
        for (j, x) in arr.local_data_mut().iter_mut().enumerate() {
            *x = ((off + j) % 7) as f64;
        }
        let want_heat: f64 = (0..LEN).map(|i| (i % 7) as f64).sum();
        let mut measured = Vec::new();
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            diff._set_transfer_mode(mode).unwrap();
            for _ in 0..3 {
                diff.total_heat(&ctx, &arr).unwrap();
                diff.diffusion(&ctx, 0, &mut arr).unwrap();
            }
            let mut heat = 0.0;
            let in_bytes = allocated_during(&ctx, || {
                heat = diff.total_heat(&ctx, &arr).unwrap();
            });
            assert_eq!(heat, want_heat);
            let inout_bytes = allocated_during(&ctx, || {
                diff.diffusion(&ctx, 0, &mut arr).unwrap();
            });
            measured.push((mode, in_bytes, inout_bytes));
        }
        // diffusion(0) returns the array unchanged.
        for (j, x) in arr.local_data().iter().enumerate() {
            assert_eq!(*x, ((off + j) % 7) as f64);
        }
        if ctx.is_comm_thread() {
            ctx.send_shutdown(diff.proxy.objref()).unwrap();
        }
        measured
    });
    let measured = client.join().swap_remove(0);
    server.join();

    let per_direction = 3 * PAYLOAD + SLACK;
    let report: Vec<String> = measured
        .iter()
        .map(|(mode, i, io)| {
            format!(
                "{mode:?}: in {:.2}x, inout {:.2}x payload",
                *i as f64 / PAYLOAD as f64,
                *io as f64 / PAYLOAD as f64
            )
        })
        .collect();
    eprintln!("{report:?}");
    for (mode, in_bytes, inout_bytes) in &measured {
        assert!(
            *in_bytes <= per_direction,
            "{mode:?} `in` invocation allocated {in_bytes} B, budget {per_direction} B ({report:?})"
        );
        assert!(
            *inout_bytes <= 2 * per_direction,
            "{mode:?} `inout` invocation allocated {inout_bytes} B, budget {} B ({report:?})",
            2 * per_direction
        );
    }
}
