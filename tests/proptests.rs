//! Property-based tests over the core invariants: CDR round-trips,
//! distribution-template algebra, message framing, and
//! distributed-sequence redistribution.

use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrWriter, Decode, Encode, Endian};
use pardis_core::{DSequence, DistTempl, Proportions};
use pardis_net::giop::{GiopMessage, RequestHeader, TransferMode};
use pardis_net::HostId;
use pardis_rts::Domain;
use proptest::prelude::*;

fn endian_strategy() -> impl Strategy<Value = Endian> {
    prop_oneof![Just(Endian::Big), Just(Endian::Little)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cdr_primitives_roundtrip(
        b in any::<bool>(),
        x8 in any::<u8>(),
        x16 in any::<i16>(),
        x32 in any::<i32>(),
        x64 in any::<u64>(),
        f in any::<f64>(),
        s in "[ -~]{0,64}", // printable ASCII
        endian in endian_strategy(),
    ) {
        let mut w = CdrWriter::new(endian);
        b.encode(&mut w).unwrap();
        x8.encode(&mut w).unwrap();
        x16.encode(&mut w).unwrap();
        x32.encode(&mut w).unwrap();
        x64.encode(&mut w).unwrap();
        f.encode(&mut w).unwrap();
        s.encode(&mut w).unwrap();
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, endian);
        prop_assert_eq!(bool::decode(&mut r).unwrap(), b);
        prop_assert_eq!(u8::decode(&mut r).unwrap(), x8);
        prop_assert_eq!(i16::decode(&mut r).unwrap(), x16);
        prop_assert_eq!(i32::decode(&mut r).unwrap(), x32);
        prop_assert_eq!(u64::decode(&mut r).unwrap(), x64);
        let back = f64::decode(&mut r).unwrap();
        prop_assert!(back == f || (back.is_nan() && f.is_nan()));
        prop_assert_eq!(String::decode(&mut r).unwrap(), s);
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn cdr_f64_bulk_roundtrip(
        data in prop::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..512),
        endian in endian_strategy(),
    ) {
        let mut w = CdrWriter::new(endian);
        w.put_f64_slice(&data);
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, endian);
        let mut out = Vec::new();
        r.get_f64_slice(data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn cdr_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes may fail but must not panic.
        let mut r = CdrReader::new(&bytes, Endian::native());
        let _ = Vec::<String>::decode(&mut r);
        let mut r = CdrReader::new(&bytes, Endian::native());
        let _ = pardis_cdr::TypeCode::decode(&mut r);
        let _ = GiopMessage::decode(&pardis_net::Frame::from(bytes));
    }

    #[test]
    fn block_template_partitions(len in 0usize..10_000, n in 1usize..32) {
        let t = DistTempl::block(len, n);
        prop_assert_eq!(t.len(), len);
        prop_assert_eq!(t.counts().iter().sum::<usize>(), len);
        // Counts differ by at most one (uniform blockwise).
        let min = t.counts().iter().min().unwrap();
        let max = t.counts().iter().max().unwrap();
        prop_assert!(max - min <= 1);
        // Ownership is exhaustive and consistent.
        for idx in (0..len).step_by((len / 17).max(1)) {
            let (owner, local) = t.owner_of(idx).unwrap();
            prop_assert!(t.range(owner).contains(&idx));
            prop_assert_eq!(t.offset(owner) + local, idx);
        }
    }

    #[test]
    fn proportional_template_partitions(
        len in 0usize..5_000,
        weights in prop::collection::vec(0u32..10, 1..16)
            .prop_filter("some weight", |w| w.iter().any(|&x| x > 0)),
    ) {
        let t = DistTempl::proportional(len, &Proportions::new(weights.clone()));
        prop_assert_eq!(t.len(), len);
        // A zero-weight thread owns nothing... unless largest-remainder
        // assigns leftovers; with zero weight the remainder is zero, so
        // truly nothing.
        for (i, &w) in weights.iter().enumerate() {
            if w == 0 {
                prop_assert_eq!(t.count(i), 0);
            }
        }
    }

    #[test]
    fn transfers_partition_every_element(
        len in 1usize..4_000,
        src_n in 1usize..9,
        dst_n in 1usize..9,
    ) {
        let src = DistTempl::block(len, src_n);
        let dst = DistTempl::block(len, dst_n);
        let mut covered = vec![0u32; len];
        for s in 0..src_n {
            for (d, range) in src.transfers_to(s, &dst) {
                // Every fragment stays within both owners' ranges.
                prop_assert!(src.range(s).start <= range.start && range.end <= src.range(s).end);
                prop_assert!(dst.range(d).start <= range.start && range.end <= dst.range(d).end);
                for i in range {
                    covered[i] += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn transfers_partition_mixed_templates(
        len in 1usize..3_000,
        src_weights in prop::collection::vec(0u32..7, 1..8)
            .prop_filter("some weight", |w| w.iter().any(|&x| x > 0)),
        dst_weights in prop::collection::vec(0u32..7, 1..8)
            .prop_filter("some weight", |w| w.iter().any(|&x| x > 0)),
        src_block in any::<bool>(),
        dst_block in any::<bool>(),
    ) {
        // The multi-port overlap algebra must partition the sequence for
        // ANY pair of templates, not just uniform blockwise ones — mixed
        // block/proportional pairs model reconfiguration between machines
        // of different shapes (paper §3.3).
        let src = if src_block {
            DistTempl::block(len, src_weights.len())
        } else {
            DistTempl::proportional(len, &Proportions::new(src_weights.clone()))
        };
        let dst = if dst_block {
            DistTempl::block(len, dst_weights.len())
        } else {
            DistTempl::proportional(len, &Proportions::new(dst_weights.clone()))
        };
        let mut covered = vec![0u32; len];
        for s in 0..src.nthreads() {
            for (d, range) in src.transfers_to(s, &dst) {
                prop_assert!(!range.is_empty(), "empty fragment emitted");
                prop_assert!(src.range(s).start <= range.start && range.end <= src.range(s).end);
                prop_assert!(dst.range(d).start <= range.start && range.end <= dst.range(d).end);
                for i in range {
                    covered[i] += 1;
                }
            }
        }
        // Exactly-once delivery: every element is covered by one and
        // only one fragment.
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn incoming_counts_agree_with_transfers(
        len in 1usize..2_000,
        src_n in 1usize..8,
        dst_n in 1usize..8,
    ) {
        let src = DistTempl::block(len, src_n);
        let dst = DistTempl::block(len, dst_n);
        for d in 0..dst_n {
            let expected: usize = (0..src_n)
                .map(|s| src.transfers_to(s, &dst).iter().filter(|(t, _)| *t == d).count())
                .sum();
            prop_assert_eq!(dst.incoming_count(d, &src), expected);
        }
    }

    #[test]
    fn resize_preserves_prefix_ownership(
        counts in prop::collection::vec(0usize..50, 1..8),
        delta in -40i64..40,
    ) {
        let t = DistTempl::from_counts(counts);
        let new_len = (t.len() as i64 + delta).max(0) as usize;
        let r = t.resized(new_len);
        prop_assert_eq!(r.len(), new_len);
        prop_assert_eq!(r.nthreads(), t.nthreads());
        // Elements below min(old, new) keep their owners.
        let keep = t.len().min(new_len);
        for idx in (0..keep).step_by((keep / 13).max(1)) {
            prop_assert_eq!(t.owner_of(idx).unwrap(), r.owner_of(idx).unwrap());
        }
    }

    #[test]
    fn request_header_roundtrips(
        request_id in any::<u64>(),
        object in "[a-z]{1,12}",
        op in "[a-z_]{1,12}",
        response in any::<bool>(),
        host in any::<u32>(),
        port in any::<u32>(),
        threads in 1u32..64,
        ports in prop::collection::vec(any::<u32>(), 0..8),
        mp in any::<bool>(),
        sc in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u8>(), 0..24)),
            0..4,
        ),
        endian in endian_strategy(),
    ) {
        let h = RequestHeader {
            request_id,
            object_name: object,
            operation: op,
            response_expected: response,
            reply_host: HostId(host),
            reply_port: port,
            mode: if mp { TransferMode::MultiPort } else { TransferMode::Centralized },
            client_threads: threads,
            client_data_ports: ports,
            service_context: sc
                .into_iter()
                .map(|(id, blob)| (id, Bytes::from(blob)))
                .collect(),
        };
        let msg = GiopMessage::Request(h, Bytes::from(vec![1, 2, 3]));
        let wire = msg.encode(endian).unwrap();
        prop_assert_eq!(GiopMessage::decode(&wire).unwrap().to_contiguous(), msg);
    }

    #[test]
    fn sim_layout_agrees_with_core_templates(
        len in 0u64..5_000,
        n in 1usize..12,
    ) {
        // The simulator's standalone block math must match the ORB's.
        let sim = pardis_sim::block::Layout::block(len, n);
        let core = DistTempl::block(len as usize, n);
        for t in 0..n {
            prop_assert_eq!(sim.count(t) as usize, core.count(t));
        }
    }

    #[test]
    fn sim_proportional_agrees_with_core(
        len in 0u64..3_000,
        weights in prop::collection::vec(0u32..9, 1..10)
            .prop_filter("some weight", |w| w.iter().any(|&x| x > 0)),
    ) {
        let sim = pardis_sim::block::Layout::proportional(len, &weights);
        let core = DistTempl::proportional(len as usize, &Proportions::new(weights));
        for t in 0..core.nthreads() {
            prop_assert_eq!(sim.count(t) as usize, core.count(t));
        }
    }
}

// Collective properties run fewer cases: each case spins a thread
// domain.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn redistribute_is_content_preserving(
        len in 1usize..400,
        threads in 1usize..5,
        weights in prop::collection::vec(1u32..5, 1..5),
    ) {
        let wlen = weights.len();
        Domain::run(threads.max(wlen), move |ep| { let ep = &ep;
            let n = ep.size();
            let mut s = DSequence::<f64>::new(ep, len, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            let want: Vec<f64> = (0..len).map(|i| i as f64).collect();
            // Pad weights up to the domain size.
            let mut w = weights.clone();
            while w.len() < n {
                w.push(1);
            }
            let t = DistTempl::proportional(len, &Proportions::new(w));
            s.redistribute(ep, t).unwrap();
            assert_eq!(s.to_global(ep).unwrap(), want);
            s.redistribute(ep, DistTempl::block(len, n)).unwrap();
            assert_eq!(s.to_global(ep).unwrap(), want);
        });
    }

    #[test]
    fn redistribute_roundtrip_chain_preserves_content(
        len in 1usize..300,
        threads in 2usize..5,
        chain in prop::collection::vec(prop::collection::vec(1u32..6, 1..5), 1..4),
    ) {
        // A whole chain of redistributions through arbitrary proportional
        // templates, ending back at blockwise, must be the identity on
        // content.
        Domain::run(threads, move |ep| { let ep = &ep;
            let n = ep.size();
            let mut s = DSequence::<f64>::new(ep, len, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64 * 0.5;
            }
            let want: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
            for weights in &chain {
                let mut w = weights.clone();
                while w.len() < n {
                    w.push(1);
                }
                w.truncate(n);
                let t = DistTempl::proportional(len, &Proportions::new(w));
                s.redistribute(ep, t).unwrap();
                assert_eq!(s.to_global(ep).unwrap(), want);
            }
            s.redistribute(ep, DistTempl::block(len, n)).unwrap();
            assert_eq!(s.to_global(ep).unwrap(), want);
            // Back to blockwise: layout equals a freshly built template.
            assert_eq!(s.templ().counts(), DistTempl::block(len, n).counts());
        });
    }

    #[test]
    fn redistribute_onto_preserves_values(
        len in 1usize..300,
        threads in 2usize..5,
        survivor_bits in any::<u32>(),
    ) {
        // Evacuating onto any non-empty survivor subset preserves every
        // value and the total length; the excluded threads end up
        // owning nothing.
        Domain::run(threads, move |ep| { let ep = &ep;
            let n = ep.size();
            let mut survivors: Vec<usize> =
                (0..n).filter(|&r| (survivor_bits >> r) & 1 == 1).collect();
            if survivors.is_empty() {
                survivors.push(0);
            }
            let mut s = DSequence::<f64>::new(ep, len, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64 * 1.5;
            }
            let want: Vec<f64> = (0..len).map(|i| i as f64 * 1.5).collect();
            s.redistribute_onto(ep, &survivors).unwrap();
            assert_eq!(s.len(), len);
            assert_eq!(s.to_global(ep).unwrap(), want);
            for r in (0..n).filter(|r| !survivors.contains(r)) {
                assert_eq!(s.templ().count(r), 0, "excluded rank {r} still owns data");
            }
        });
    }

    #[test]
    fn redistribute_onto_then_shrink_discards_exactly_the_tail(
        len in 2usize..200,
        threads in 2usize..5,
        survivor_bits in any::<u32>(),
        keep_num in 1usize..200,
    ) {
        // Evacuation composes with the paper's length semantics: a
        // shrink after `redistribute_onto` discards exactly the tail,
        // and the prefix keeps the evacuated values.
        Domain::run(threads, move |ep| { let ep = &ep;
            let n = ep.size();
            let mut survivors: Vec<usize> =
                (0..n).filter(|&r| (survivor_bits >> r) & 1 == 1).collect();
            if survivors.is_empty() {
                survivors.push(n - 1);
            }
            let keep = keep_num.min(len - 1);
            let mut s = DSequence::<f64>::new(ep, len, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64 - 7.0;
            }
            s.redistribute_onto(ep, &survivors).unwrap();
            s.set_len(ep, keep).unwrap();
            let g = s.to_global(ep).unwrap();
            assert_eq!(g.len(), keep);
            for (i, &x) in g.iter().enumerate() {
                assert_eq!(x, i as f64 - 7.0);
            }
            // The shrunken layout still starves the evacuated ranks.
            for r in (0..n).filter(|r| !survivors.contains(r)) {
                assert_eq!(s.templ().count(r), 0);
            }
        });
    }

    #[test]
    fn set_len_then_global_is_consistent(
        len in 1usize..200,
        new_len in 0usize..300,
        threads in 1usize..5,
    ) {
        Domain::run(threads, move |ep| { let ep = &ep;
            let mut s = DSequence::<f64>::new(ep, len, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            s.set_len(ep, new_len).unwrap();
            let g = s.to_global(ep).unwrap();
            assert_eq!(g.len(), new_len);
            // Prefix preserved, growth default-initialized.
            for (i, &x) in g.iter().enumerate() {
                if i < len {
                    assert_eq!(x, i as f64);
                } else {
                    assert_eq!(x, 0.0);
                }
            }
        });
    }
}
