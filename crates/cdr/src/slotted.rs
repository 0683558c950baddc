//! A frame buffer that several threads marshal into at once.
//!
//! In the centralized method "the computing threads of the client first
//! synchronize, marshal arguments and then the request is sent to the
//! server as one message" (§3.2). A [`SlottedBuf`] is that one message
//! while it is being marshaled. It is allocated once, at the frame's
//! final size, and cut into *slots* that tile it: the communicating
//! thread's slots hold the header and the argument metadata, and each
//! computing thread owns one slot per distributed argument, for its own
//! block. Every thread copies (or byte-swaps) its block straight into
//! its slot, so the payload is still copied once, but by the threads
//! that own it, in parallel.
//!
//! The contract that makes the parallel writes sound:
//!
//! - the slots tile `[0, len)`: building the buffer rejects overlaps
//!   and gaps, so two slots never share a byte;
//! - a slot is written at most once: a fill first wins the slot's
//!   atomic claim, and the source must be exactly the slot's length;
//! - the buffer becomes [`Bytes`] only when every slot is filled and
//!   the caller owns the buffer (through [`Arc::try_unwrap`] when it
//!   was shared), so no uninitialized byte reaches a frame and no
//!   writer is still running.
//!
//! The writes into shared memory and the final hand-over are the
//! documented `unsafe` blocks of this module; nothing else in the
//! workspace writes into a buffer other threads hold.

use bytes::Bytes;
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Slot states: unclaimed, being written by the thread that claimed
/// it, written.
const EMPTY: u8 = 0;
const FILLING: u8 = 1;
const FILLED: u8 = 2;

/// Why a slotted buffer refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotError {
    /// The slots do not tile the buffer: byte offset `at` is covered
    /// twice or not at all (an overlap, a gap, or a tiling that stops
    /// short of the buffer's end or runs past it).
    NotTiled { at: usize },
    /// No slot has this index.
    NoSuchSlot { slot: usize, slots: usize },
    /// A fill's source is not the slot's length.
    Length {
        slot: usize,
        expected: usize,
        got: usize,
    },
    /// A swapping fill's word size is zero or does not divide the
    /// slot's length.
    Word { slot: usize, word: usize },
    /// The slot was already claimed by an earlier fill.
    AlreadyFilled { slot: usize },
    /// The slot has not been filled, so the buffer is no frame yet.
    Unfilled { slot: usize },
    /// Another reference to the buffer is alive.
    Shared,
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::NotTiled { at } => {
                write!(f, "slots do not tile the buffer at byte {at}")
            }
            SlotError::NoSuchSlot { slot, slots } => {
                write!(f, "slot {slot} out of range for {slots} slots")
            }
            SlotError::Length {
                slot,
                expected,
                got,
            } => write!(f, "slot {slot} holds {expected} bytes, source has {got}"),
            SlotError::Word { slot, word } => {
                write!(f, "word size {word} does not divide slot {slot}")
            }
            SlotError::AlreadyFilled { slot } => write!(f, "slot {slot} is already filled"),
            SlotError::Unfilled { slot } => write!(f, "slot {slot} is not filled"),
            SlotError::Shared => write!(f, "buffer is still shared"),
        }
    }
}

impl std::error::Error for SlotError {}

#[derive(Debug)]
struct Slot {
    range: Range<usize>,
    state: AtomicU8,
}

/// A buffer of fixed length, tiled by slots that are each filled once,
/// possibly by different threads at the same time. See the module
/// documentation for the contract.
pub struct SlottedBuf {
    /// The frame's storage; bytes start uninitialized and each is
    /// written once, through the slot that covers it.
    buf: Vec<UnsafeCell<MaybeUninit<u8>>>,
    slots: Vec<Slot>,
}

// SAFETY: `slots` is `Sync` on its own (ranges read-only, states
// atomic). Of `buf`, sharing a `SlottedBuf` exposes only the fills,
// and a fill writes only the bytes of a slot it has won the atomic
// claim for; the slots are disjoint (checked by `build`), so no two
// threads ever write the same byte, and no thread reads a byte through
// `&self`. The bytes are read only by `into_bytes`, which owns the
// buffer.
unsafe impl Sync for SlottedBuf {}

impl fmt::Debug for SlottedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlottedBuf")
            .field("len", &self.buf.len())
            .field("slots", &self.slots)
            .finish()
    }
}

impl SlottedBuf {
    /// A buffer of `len` bytes cut into `slots`, which must tile
    /// `[0, len)` in order: the first starts at 0, each starts where
    /// the previous one ends, and the last ends at `len`. Empty slots
    /// are allowed.
    pub fn new(
        len: usize,
        slots: impl IntoIterator<Item = Range<usize>>,
    ) -> Result<SlottedBuf, SlotError> {
        SlottedBuf::build(Vec::new(), len, slots)
    }

    /// As [`SlottedBuf::new`], with slot 0 already filled by `head`,
    /// which must be exactly its length. The buffer takes `head`'s
    /// allocation over, growing it to `len` if its capacity falls
    /// short, so a head written with room for the whole frame is not
    /// copied.
    pub fn with_head(
        head: Vec<u8>,
        len: usize,
        slots: impl IntoIterator<Item = Range<usize>>,
    ) -> Result<SlottedBuf, SlotError> {
        let got = head.len();
        let buf = SlottedBuf::build(head, len, slots)?;
        match buf.slots.first() {
            Some(s) if s.range.len() == got => s.state.store(FILLED, Ordering::Release),
            first => {
                return Err(SlotError::Length {
                    slot: 0,
                    expected: first.map_or(0, |s| s.range.len()),
                    got,
                })
            }
        }
        Ok(buf)
    }

    /// Check the tiling and turn `storage`, whose bytes are the start
    /// of the buffer, into the buffer's storage of `len` bytes.
    fn build(
        mut storage: Vec<u8>,
        len: usize,
        slots: impl IntoIterator<Item = Range<usize>>,
    ) -> Result<SlottedBuf, SlotError> {
        let slots = slots.into_iter();
        let mut tiles = Vec::with_capacity(slots.size_hint().0);
        let mut at = 0;
        for range in slots {
            if range.start != at || range.end < range.start || range.end > len {
                return Err(SlotError::NotTiled { at });
            }
            at = range.end;
            tiles.push(Slot {
                range,
                state: AtomicU8::new(EMPTY),
            });
        }
        if at != len || storage.len() > len {
            return Err(SlotError::NotTiled { at });
        }
        storage.reserve_exact(len - storage.len());
        let mut storage = ManuallyDrop::new(storage);
        // SAFETY: `UnsafeCell<MaybeUninit<u8>>` has the layout of `u8`,
        // so `storage`'s allocation and capacity describe a valid
        // vector of it, which takes the allocation over from the
        // `ManuallyDrop`. The capacity is at least `len` (reserved
        // above); the bytes past the old length are uninitialized,
        // which `MaybeUninit` permits.
        let buf =
            unsafe { Vec::from_raw_parts(storage.as_mut_ptr().cast(), len, storage.capacity()) };
        Ok(SlottedBuf { buf, slots: tiles })
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Fill slot `slot` with a copy of `src`.
    pub fn fill(&self, slot: usize, src: &[u8]) -> Result<(), SlotError> {
        self.write(slot, src.len(), |dst| {
            // SAFETY: `src` and `dst` have the same length (checked
            // before the claim); `src` is initialized memory the
            // caller borrows, and `dst` is this thread's claimed slot,
            // which no one else can reach, so they do not overlap.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr(),
                    dst.as_mut_ptr().cast::<u8>(),
                    src.len(),
                )
            }
        })
    }

    /// Fill slot `slot` with `src`, every `word`-byte element
    /// byte-reversed in the same pass (data translation while
    /// marshaling, as [`crate::CdrWriter::put_swapped`] does).
    pub fn fill_swapped(&self, slot: usize, src: &[u8], word: usize) -> Result<(), SlotError> {
        if word == 0 || !src.len().is_multiple_of(word) {
            return Err(SlotError::Word { slot, word });
        }
        self.write(slot, src.len(), |dst| {
            for (d, s) in dst.chunks_exact_mut(word).zip(src.chunks_exact(word)) {
                for (d, s) in d.iter_mut().zip(s.iter().rev()) {
                    d.write(*s);
                }
            }
        })
    }

    /// Claim slot `slot`, which must hold `len` bytes, let `write`
    /// initialize every one of its bytes, and mark it filled.
    fn write(
        &self,
        slot: usize,
        len: usize,
        write: impl FnOnce(&mut [MaybeUninit<u8>]),
    ) -> Result<(), SlotError> {
        let s = self.slots.get(slot).ok_or(SlotError::NoSuchSlot {
            slot,
            slots: self.slots.len(),
        })?;
        if s.range.len() != len {
            return Err(SlotError::Length {
                slot,
                expected: s.range.len(),
                got: len,
            });
        }
        s.state
            .compare_exchange(EMPTY, FILLING, Ordering::Acquire, Ordering::Relaxed)
            .map_err(|_| SlotError::AlreadyFilled { slot })?;
        // SAFETY: `s.range` lies inside `buf` (`build` checked that the
        // slots tile it), so the offset pointer and the slice stay in
        // the allocation. The pointer comes from the whole buffer,
        // so it may cover the slot's bytes. `UnsafeCell` permits
        // writing through a shared borrow, and this thread just won
        // the slot's EMPTY -> FILLING claim, which no other fill can
        // win again; the slots are disjoint and nothing reads the
        // bytes before `into_bytes` owns the buffer. So this is the
        // only reference to these bytes while it lives.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(
                UnsafeCell::raw_get(self.buf.as_ptr().add(s.range.start)),
                len,
            )
        };
        write(dst);
        s.state.store(FILLED, Ordering::Release);
        Ok(())
    }

    /// The first slot that is not filled, if any. Empty slots cover no
    /// bytes and count as filled.
    pub fn unfilled(&self) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| !s.range.is_empty() && s.state.load(Ordering::Acquire) != FILLED)
    }

    /// The finished frame: every byte written, handed out without a
    /// copy. [`SlotError::Unfilled`] names the first slot still
    /// missing.
    pub fn into_bytes(self) -> Result<Bytes, SlotError> {
        if let Some(slot) = self.unfilled() {
            return Err(SlotError::Unfilled { slot });
        }
        let mut buf = ManuallyDrop::new(self.buf);
        // SAFETY: every non-empty slot is filled (checked above, with
        // `Acquire` loads that see the fills' writes) and the slots
        // tile the buffer, so every byte is initialized.
        // `UnsafeCell<MaybeUninit<u8>>` has the layout of `u8`, so the
        // allocation, length and capacity describe a valid `Vec<u8>`,
        // which takes the allocation over from the `ManuallyDrop`.
        let bytes = unsafe {
            Vec::from_raw_parts(buf.as_mut_ptr().cast::<u8>(), buf.len(), buf.capacity())
        };
        Ok(Bytes::from(bytes))
    }

    /// [`SlottedBuf::into_bytes`] for a buffer shared with the threads
    /// that filled it: [`SlotError::Shared`] while any other reference
    /// is alive.
    pub fn try_into_bytes(buf: Arc<SlottedBuf>) -> Result<Bytes, SlotError> {
        Arc::try_unwrap(buf)
            .map_err(|_| SlotError::Shared)?
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 12-byte buffer in slots of 4, 0, 6 and 2 bytes.
    fn four() -> SlottedBuf {
        SlottedBuf::new(12, [0..4, 4..4, 4..10, 10..12]).unwrap()
    }

    #[test]
    fn filled_slots_make_the_frame() {
        let b = four();
        b.fill(0, b"head").unwrap();
        b.fill(1, b"").unwrap();
        b.fill_swapped(2, &[1, 2, 3, 4, 5, 6], 2).unwrap();
        b.fill(3, b"!!").unwrap();
        assert_eq!(b.unfilled(), None);
        assert_eq!(
            &b.into_bytes().unwrap()[..],
            b"head\x02\x01\x04\x03\x06\x05!!"
        );
    }

    #[test]
    fn a_head_is_slot_zero_in_place() {
        let mut head = Vec::with_capacity(12);
        head.extend_from_slice(b"head");
        let at = head.as_ptr();
        let b = SlottedBuf::with_head(head, 12, [0..4, 4..12]).unwrap();
        assert_eq!(b.unfilled(), Some(1));
        assert_eq!(
            b.fill(0, b"next"),
            Err(SlotError::AlreadyFilled { slot: 0 })
        );
        b.fill(1, b"12345678").unwrap();
        let frame = b.into_bytes().unwrap();
        assert_eq!(&frame[..], b"head12345678");
        assert_eq!(frame.as_ptr(), at, "the head's allocation was copied");
        assert_eq!(
            SlottedBuf::with_head(b"abc".to_vec(), 12, [0..4, 4..12]).unwrap_err(),
            SlotError::Length {
                slot: 0,
                expected: 4,
                got: 3
            }
        );
        assert_eq!(
            SlottedBuf::with_head(vec![0; 13], 12, std::iter::once(0..12)).unwrap_err(),
            SlotError::NotTiled { at: 12 }
        );
    }

    #[test]
    fn overlaps_and_gaps_are_rejected() {
        let err = |slots: &[Range<usize>]| SlottedBuf::new(10, slots.to_vec()).unwrap_err();
        assert_eq!(err(&[0..6, 5..10]), SlotError::NotTiled { at: 6 });
        assert_eq!(err(&[0..4, 5..10]), SlotError::NotTiled { at: 4 });
        assert_eq!(err(&[1..5, 5..10]), SlotError::NotTiled { at: 0 });
        assert_eq!(err(&[0..2, 2..4]), SlotError::NotTiled { at: 4 });
        assert_eq!(err(&[0..4, 4..11]), SlotError::NotTiled { at: 4 });
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = err(&[0..4, 4..2, 2..10]);
        assert_eq!(backwards, SlotError::NotTiled { at: 4 });
        assert_eq!(err(&[]), SlotError::NotTiled { at: 0 });
        assert!(SlottedBuf::new(0, [])
            .unwrap()
            .into_bytes()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_slot_is_filled_once() {
        let b = four();
        b.fill(2, b"abcdef").unwrap();
        assert_eq!(
            b.fill(2, b"ghijkl"),
            Err(SlotError::AlreadyFilled { slot: 2 })
        );
        assert_eq!(
            b.fill_swapped(2, b"ghijkl", 2),
            Err(SlotError::AlreadyFilled { slot: 2 })
        );
        b.fill(1, b"").unwrap();
        assert_eq!(b.fill(1, b""), Err(SlotError::AlreadyFilled { slot: 1 }));
    }

    #[test]
    fn a_source_of_the_wrong_length_is_rejected() {
        let b = four();
        assert_eq!(
            b.fill(0, b"hea"),
            Err(SlotError::Length {
                slot: 0,
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            b.fill_swapped(2, b"abcdefgh", 4),
            Err(SlotError::Length {
                slot: 2,
                expected: 6,
                got: 8
            })
        );
        assert_eq!(
            b.fill_swapped(2, b"abcdef", 4),
            Err(SlotError::Word { slot: 2, word: 4 })
        );
        assert_eq!(
            b.fill(4, b""),
            Err(SlotError::NoSuchSlot { slot: 4, slots: 4 })
        );
        // A refused fill claims nothing.
        b.fill(0, b"head").unwrap();
    }

    #[test]
    fn an_unfilled_slot_keeps_the_frame_in() {
        let b = four();
        b.fill(0, b"head").unwrap();
        b.fill(3, b"!!").unwrap();
        // The empty slot 1 counts as filled; slot 2 does not.
        assert_eq!(b.unfilled(), Some(2));
        assert_eq!(b.into_bytes(), Err(SlotError::Unfilled { slot: 2 }));
    }

    #[test]
    fn a_shared_buffer_stays_in() {
        let b = Arc::new(SlottedBuf::new(4, std::iter::once(0..4)).unwrap());
        b.fill(0, b"data").unwrap();
        let other = b.clone();
        assert_eq!(SlottedBuf::try_into_bytes(b), Err(SlotError::Shared));
        assert_eq!(&SlottedBuf::try_into_bytes(other).unwrap()[..], b"data");
    }

    #[test]
    fn threads_fill_their_own_slots_at_once() {
        const THREADS: usize = 4;
        const BLOCK: usize = 1 << 16;
        let b = Arc::new(
            SlottedBuf::new(
                THREADS * BLOCK,
                (0..THREADS).map(|t| t * BLOCK..(t + 1) * BLOCK),
            )
            .unwrap(),
        );
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    let block: Vec<u8> = (0..BLOCK).map(|i| (i + t) as u8).collect();
                    if t % 2 == 0 {
                        b.fill(t, &block)
                    } else {
                        b.fill_swapped(t, &block, 8)
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        let frame = SlottedBuf::try_into_bytes(b).unwrap();
        for t in 0..THREADS {
            let block: Vec<u8> = (0..BLOCK).map(|i| (i + t) as u8).collect();
            let got = &frame[t * BLOCK..(t + 1) * BLOCK];
            if t % 2 == 0 {
                assert_eq!(got, &block[..]);
            } else {
                for (g, s) in got.chunks_exact(8).zip(block.chunks_exact(8)) {
                    assert!(g.iter().eq(s.iter().rev()));
                }
            }
        }
    }
}
