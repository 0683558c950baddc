//! Decoders size what they allocate by their input, not by the length
//! fields in it.
//!
//! A length field is checked against the bytes that remain, but an
//! element that takes one octet on the wire can take dozens in memory
//! (an `OpArgDist` is a `String`, a `u32` and a `Vec`; a distributed
//! argument of a request body about a hundred bytes). A counting global
//! allocator measures what decoding an object reference, a request
//! body or a request header whose length fields promise one element per
//! remaining byte allocates; it must stay within the input's length
//! plus a small constant.

use bytes::Bytes;
use pardis::pardis_cdr::{CdrReader, CdrWriter, Decode, Encode, Endian};
use pardis::pardis_core::request::{ReplyBody, RequestBody};
use pardis::pardis_net::giop::{GiopMessage, RequestHeader, TransferMode};
use pardis::pardis_net::{Frame, HostId, ObjectRef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every byte handed out by the allocator to the calling thread,
/// so tests running in parallel do not count each other's; a `realloc`
/// counts its full new size.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|a| a.set(a.get() + bytes as u64));
}

/// Bytes allocated on this thread so far.
fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
        let before = allocated();
        let decoded = ObjectRef::decode(&mut CdrReader::new(&input, Endian::Little));
        let allocated = allocated() - before;
        assert!(decoded.is_err(), "{field:?}: {decoded:?}");
        assert!(
            allocated <= input.len() as u64 + SLACK,
            "{field:?}: decoding {} bytes allocated {allocated}",
            input.len()
        );
    }
}

/// Bytes allocated while `decode` runs, and whether it failed.
fn allocated_by(decode: impl FnOnce() -> bool) -> (bool, u64) {
    let before = allocated();
    let failed = decode();
    (failed, allocated() - before)
}

/// A request body whose argument count equals the number of bytes that
/// follow it: an empty non-distributed section, then `TAIL` bytes of
/// `0xFF`.
fn hostile_body() -> Frame {
    let mut w = CdrWriter::new(Endian::Little);
    w.put_u32(TAIL as u32 + 4);
    w.put_u32(0); // non-distributed section
    w.put_bytes(&[0xFF; TAIL]);
    Frame::from(w.into_bytes())
}

/// A request header whose `client_data_ports` count (`ports`) or, with
/// no data ports, whose `service_context` count equals the number of
/// bytes that follow it, all `0xFF`.
fn hostile_header(ports: bool) -> Vec<u8> {
    let header = RequestHeader {
        request_id: 1,
        object_name: "obj".into(),
        operation: "op".into(),
        response_expected: true,
        reply_host: HostId(1),
        reply_port: 2,
        mode: TransferMode::MultiPort,
        client_threads: 2,
        client_data_ports: vec![],
        service_context: vec![],
    };
    let mut w = CdrWriter::new(Endian::Little);
    header.encode(&mut w).unwrap();
    let mut bytes = w.into_bytes();
    // The header ends with the two (empty) counts; claim from one.
    bytes.truncate(bytes.len() - if ports { 8 } else { 4 });
    bytes.extend_from_slice(&(TAIL as u32).to_le_bytes());
    bytes.extend_from_slice(&[0xFF; TAIL]);
    bytes
}

#[test]
fn hostile_request_frames_allocate_no_more_than_the_input() {
    let body = hostile_body();
    let (failed, allocated) = allocated_by(|| RequestBody::decode(&body, Endian::Little).is_err());
    assert!(failed, "the hostile body decoded");
    assert!(
        allocated <= body.len() as u64 + SLACK,
        "request body: decoding {} bytes allocated {allocated}",
        body.len()
    );
    for ports in [true, false] {
        let input = hostile_header(ports);
        let (failed, allocated) = allocated_by(|| {
            RequestHeader::decode(&mut CdrReader::new(&input, Endian::Little)).is_err()
        });
        assert!(failed, "ports {ports}: the hostile header decoded");
        assert!(
            allocated <= input.len() as u64 + SLACK,
            "request header (ports {ports}): decoding {} bytes allocated {allocated}",
            input.len()
        );
    }
}

/// The recorded frames of `tests/data/wire_golden.txt`.
fn golden_frames() -> Vec<Vec<u8>> {
    include_str!("data/wire_golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(_, hex)| {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        })
        .collect()
}

/// Decode `frame` as a receiver does, header and body; whether it
/// failed.
fn decode_frame(frame: &Frame) -> bool {
    let Ok(endian) = GiopMessage::body_endian(frame) else {
        return true;
    };
    match GiopMessage::decode(frame) {
        Ok(GiopMessage::Request(_, body)) => RequestBody::decode(&body, endian).is_err(),
        Ok(GiopMessage::Reply(_, body)) => ReplyBody::decode(&body, endian).is_err(),
        Ok(_) => false,
        Err(_) => true,
    }
}

/// What a decoded frame may hold beyond its input: headers' strings
/// and vectors, argument templates, and the segment lists of the views
/// into the frame.
const DECODED: u64 = 1024;

#[test]
fn segmented_frames_allocate_no_more_than_the_input() {
    let frames = golden_frames();
    assert!(frames.len() >= 48);
    let mut most = 0;
    for whole in &frames {
        // Every cut of the frame into two segments, and every byte of
        // it flipped, cut in the middle.
        let mut inputs: Vec<(Vec<u8>, usize)> =
            (0..=whole.len()).map(|at| (whole.clone(), at)).collect();
        for pos in 0..whole.len() {
            let mut d = whole.clone();
            d[pos] ^= 0xFF;
            inputs.push((d, whole.len() / 2));
        }
        for (bytes, at) in inputs {
            let frame: Frame = [&bytes[..at], &bytes[at..]]
                .into_iter()
                .map(Bytes::copy_from_slice)
                .collect();
            let (_, allocated) = allocated_by(|| decode_frame(&frame));
            let over = allocated.saturating_sub(bytes.len() as u64);
            most = most.max(over);
            assert!(
                over <= DECODED,
                "decoding {} bytes cut at {at} allocated {allocated}",
                bytes.len()
            );
        }
    }
    eprintln!("most allocated beyond the input: {most} B");
}
