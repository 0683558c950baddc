//! Copy budget of the distributed-argument payload path.
//!
//! With no data translation, matching client and server thread counts
//! and block templates, no direction of an invocation copies the
//! payload: the sender lends its sequence's storage to the frame as a
//! segment, and the receiver's sequence views that segment in place.
//! With translation on, the sender's and the receiver's byte-swapped
//! copies are two.
//! Everything else (headers, collectives, control messages) has to fit
//! in a small fixed allowance. A counting global allocator measures the
//! bytes the whole process allocates during one invocation, both
//! machines included, in both transfer modes.
//!
//! The same allocator checks that nothing keeps a sequence's storage
//! shared past a blocking call: mutating the sequence afterwards must
//! not copy it.

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

/// What one transfer mode allocated, in bytes.
#[derive(Debug)]
struct Measured {
    mode: TransferMode,
    /// One `total_heat` (`in` argument).
    in_bytes: u64,
    /// One `diffusion(0)` (`inout` argument).
    inout_bytes: u64,
    /// `local_data_mut` right after a blocking `total_heat`.
    mut_after_in: u64,
    /// `local_data_mut` on the sequence `diffusion(0)` returned, a view
    /// of the reply frame.
    mut_after_inout: u64,
    /// `local_data_mut` after a further `total_heat` on that sequence.
    mut_again: u64,
}

/// Taken for the whole of [`measure`]: the allocator counts the whole
/// process, so two measurements must not overlap.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run the invocations against a 2-thread server with `translate` set
/// on both machines.
fn measure(translate: bool) -> Vec<Measured> {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = OrbOptions {
        translate,
        ..Default::default()
    };
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine_with("server", THREADS, opts.clone(), |ctx| {
        diff_objectSkeleton::register(&ctx, "copies", DiffusionServant::new(), vec![])
            .expect("register");
        ctx.serve_forever().expect("serve");
    });
    let client = world.spawn_machine_with("client", THREADS, opts, |ctx| {
        let mut diff = diff_objectProxy::_spmd_bind(&ctx, "copies", None).unwrap();
        let mut arr = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
        let off = arr.local_range().start;
        let fill = |arr: &mut DSequence<f64>| {
            for (j, x) in arr.local_data_mut().iter_mut().enumerate() {
                *x = ((off + j) % 7) as f64;
            }
        };
        fill(&mut arr);
        let want_heat: f64 = (0..LEN).map(|i| (i % 7) as f64).sum();
        let mut measured = Vec::new();
        for mode in [TransferMode::Centralized, TransferMode::MultiPort] {
            diff._set_transfer_mode(mode).unwrap();
            for _ in 0..3 {
                diff.total_heat(&ctx, &arr).unwrap();
                diff.diffusion(&ctx, 0, &mut arr).unwrap();
            }
            // Start from program-owned storage.
            fill(&mut arr);
            let mut heat = 0.0;
            let in_bytes = allocated_during(&ctx, || {
                heat = diff.total_heat(&ctx, &arr).unwrap();
            });
            assert_eq!(heat, want_heat);
            let mut_after_in = allocated_during(&ctx, || {
                arr.local_data_mut()[0] += 0.0;
            });
            let inout_bytes = allocated_during(&ctx, || {
                diff.diffusion(&ctx, 0, &mut arr).unwrap();
            });
            let mut_after_inout = allocated_during(&ctx, || {
                arr.local_data_mut()[0] += 0.0;
            });
            diff.total_heat(&ctx, &arr).unwrap();
            let mut_again = allocated_during(&ctx, || {
                arr.local_data_mut()[0] += 0.0;
            });
            measured.push(Measured {
                mode,
                in_bytes,
                inout_bytes,
                mut_after_in,
                mut_after_inout,
                mut_again,
            });
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
    measured
}

fn ratio(bytes: u64) -> String {
    format!("{:.2}x", bytes as f64 / PAYLOAD as f64)
}

#[test]
fn payload_is_allocated_once_per_direction() {
    // Sequential on purpose: the allocator counts the whole process.
    for (translate, copies) in [(false, 1), (true, 2)] {
        let measured = measure(translate);
        let report: Vec<String> = measured
            .iter()
            .map(|m| {
                format!(
                    "translate {translate} {:?}: in {}, inout {} payload; \
                     local_data_mut after in {} B, after inout {}, again {} B",
                    m.mode,
                    ratio(m.in_bytes),
                    ratio(m.inout_bytes),
                    m.mut_after_in,
                    ratio(m.mut_after_inout),
                    m.mut_again,
                )
            })
            .collect();
        eprintln!("{report:#?}");
        let per_direction = copies * PAYLOAD + SLACK;
        for m in &measured {
            let mode = m.mode;
            assert!(
                m.in_bytes <= per_direction,
                "{mode:?} `in` invocation allocated {} B, budget {per_direction} B ({report:?})",
                m.in_bytes
            );
            assert!(
                m.inout_bytes <= 2 * per_direction,
                "{mode:?} `inout` invocation allocated {} B, budget {} B ({report:?})",
                m.inout_bytes,
                2 * per_direction
            );
            // Nothing holds the storage a blocking call borrowed.
            assert!(
                m.mut_after_in < SLACK,
                "{mode:?} mutation after `in` copied ({report:?})"
            );
            // A view of the reply frame detaches with exactly one copy,
            // and the detached storage is again the sequence's alone.
            assert!(
                m.mut_after_inout <= PAYLOAD + SLACK,
                "{mode:?} detaching the returned sequence copied more than once ({report:?})"
            );
            assert!(
                m.mut_again < SLACK,
                "{mode:?} mutation after a further `in` copied ({report:?})"
            );
        }
    }
}

#[test]
fn native_payload_is_lent_not_copied() {
    let measured = measure(false);
    for m in &measured {
        assert!(
            m.in_bytes < SLACK,
            "{:?} `in` invocation allocated {} of payload",
            m.mode,
            ratio(m.in_bytes)
        );
        assert!(
            m.inout_bytes < 2 * SLACK,
            "{:?} `inout` invocation allocated {} of payload",
            m.mode,
            ratio(m.inout_bytes)
        );
    }
}
