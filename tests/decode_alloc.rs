//! Decoders size what they allocate by their input, not by the length
//! fields in it.
//!
//! A length field is checked against the bytes that remain, but an
//! element that takes one octet on the wire can take dozens in memory
//! (an `OpArgDist` is a `String`, a `u32` and a `Vec`). A counting
//! global allocator measures what decoding an object reference whose
//! length fields promise one element per remaining byte allocates; it
//! must stay within the input's length plus a small constant.

use pardis::pardis_cdr::{CdrReader, CdrWriter, Decode, Endian};
use pardis::pardis_net::ObjectRef;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every byte handed out by the allocator; a `realloc` counts
/// its full new size.
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

/// Bytes after the hostile length field.
const TAIL: usize = 4096;
/// The strings and small vectors a decode may build before it fails.
const SLACK: u64 = 256;

/// Which length field of the reference claims one element per
/// remaining byte.
#[derive(Debug, Clone, Copy)]
enum Hostile {
    DataPorts,
    Distributions,
    Proportions,
}

/// An encoded object reference whose `field` count equals the number of
/// bytes that follow it, all `0xFF`.
fn hostile_ref(field: Hostile) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Little);
    w.put_string("obj");
    w.put_string("IDL:obj:1.0");
    w.put_u32(1); // host
    w.put_u32(2); // request port
    let claim = |w: &mut CdrWriter| {
        w.put_u32(TAIL as u32);
        w.put_bytes(&[0xFF; TAIL]);
    };
    match field {
        Hostile::DataPorts => claim(&mut w),
        Hostile::Distributions => {
            w.put_u32(0); // data ports
            w.put_u32(2); // threads
            claim(&mut w);
        }
        Hostile::Proportions => {
            w.put_u32(0);
            w.put_u32(2);
            w.put_u32(1); // one distribution
            w.put_string("op");
            w.put_u32(0); // argument index
            w.put_u32(1); // proportional
            claim(&mut w);
        }
    }
    w.into_bytes()
}

#[test]
fn hostile_length_fields_allocate_no_more_than_the_input() {
    for field in [
        Hostile::DataPorts,
        Hostile::Distributions,
        Hostile::Proportions,
    ] {
        let input = hostile_ref(field);
        let before = ALLOCATED.load(Ordering::SeqCst);
        let decoded = ObjectRef::decode(&mut CdrReader::new(&input, Endian::Little));
        let allocated = ALLOCATED.load(Ordering::SeqCst) - before;
        assert!(decoded.is_err(), "{field:?}: {decoded:?}");
        assert!(
            allocated <= input.len() as u64 + SLACK,
            "{field:?}: decoding {} bytes allocated {allocated}",
            input.len()
        );
    }
}
