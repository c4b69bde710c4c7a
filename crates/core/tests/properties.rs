//! Property-based tests for the FedKNOW components.

use fedknow::{ExtractionStrategy, GradientIntegrator, GradientRestorer, KnowledgeExtractor};
use fedknow_fl::framing::{
    read_frame, read_frame_traced_into, write_frame, write_frame_traced, FrameDecoder, FrameError,
    TraceCtx, FRAME_FLAG_CTX, MAX_FRAME_BYTES,
};
use fedknow_math::rng::seeded;
use fedknow_math::{SparseVec, Tensor};
use fedknow_nn::ModelKind;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The integrated gradient never conflicts with any constraint, for
    /// random gradients of realistic dimensionality.
    #[test]
    fn integrator_never_conflicts(
        seed in 0u64..10_000, k in 1usize..6
    ) {
        let mut rng = seeded(seed);
        let dim = 64;
        let g = fedknow_math::rng::normal_vec(&mut rng, dim, 0.0, 1.0);
        let cons: Vec<Vec<f32>> = (0..k)
            .map(|_| fedknow_math::rng::normal_vec(&mut rng, dim, 0.0, 1.0))
            .collect();
        let out = GradientIntegrator::new(0.0).integrate(&g, &cons);
        for c in &cons {
            let d: f64 = c.iter().zip(&out).map(|(&a, &b)| a as f64 * b as f64).sum();
            prop_assert!(d >= -1e-3, "conflict {d}");
        }
    }

    /// Every extraction strategy keeps a fraction of weights in a sane
    /// band around ρ and never invents indices.
    #[test]
    fn extraction_fraction_band(
        rho in 0.05f64..0.4,
        strategy_pick in 0usize..3,
    ) {
        let strategy = [
            ExtractionStrategy::Magnitude,
            ExtractionStrategy::FilterL1,
            ExtractionStrategy::FilterL2,
        ][strategy_pick];
        let mut rng = seeded(7);
        let mut model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let params = model.flat_params();
        let layout = model.layout().to_vec();
        let ex = KnowledgeExtractor::with_strategy(rho, 0, strategy);
        let k = ex.extract_structured(&params, &layout);
        prop_assert_eq!(k.dense_len(), params.len());
        let frac = k.nnz() as f64 / params.len() as f64;
        prop_assert!(
            frac > rho * 0.4 && frac < rho * 2.5 + 0.02,
            "{:?} at rho {} kept {}", strategy, rho, frac
        );
        // Stored values must mirror the parameter vector.
        for (&i, &v) in k.indices().iter().zip(k.values()) {
            prop_assert_eq!(v, params[i as usize]);
        }
    }

    /// Gradient restoration is side-effect free for arbitrary knowledge.
    #[test]
    fn restore_is_pure(rho in 0.02f64..0.5, seed in 0u64..100) {
        let mut rng = seeded(seed);
        let mut model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let params = model.flat_params();
        let k = SparseVec::top_fraction_by_magnitude(&params, rho);
        let x = Tensor::from_vec(
            fedknow_math::rng::normal_vec(&mut rng, 2 * 3 * 8 * 8, 0.0, 1.0),
            &[2, 3, 8, 8],
        );
        let g = GradientRestorer.restore(&mut model, &k, &x);
        prop_assert_eq!(g.len(), params.len());
        prop_assert_eq!(model.flat_params(), params);
        prop_assert!(g.iter().all(|v| v.is_finite()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The transport frame layer round-trips arbitrary payloads exactly,
    /// both through a stream and through the incremental decoder.
    #[test]
    fn frames_roundtrip(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..300), 1..6
    )) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r = wire.as_slice();
        for p in &payloads {
            prop_assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(p));
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// Truncating a framed stream at *every* byte offset inside the
    /// last frame is a typed `Truncated` error — never a panic, never
    /// a silent partial message.
    #[test]
    fn frame_truncation_at_every_offset_errors(
        payload in prop::collection::vec(any::<u8>(), 1..200)
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            let err = read_frame(&mut r).unwrap_err();
            prop_assert!(err == FrameError::Truncated, "cut at {cut}: {err:?}");
        }
    }

    /// The incremental decoder reassembles frames from arbitrary
    /// fragmentation — interleaved partial reads of any chunk size
    /// yield exactly the frames that were sent.
    #[test]
    fn frame_decoder_survives_arbitrary_fragmentation(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..200), 1..5
        ),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut d = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in wire.chunks(chunk) {
            d.feed(piece);
            while let Some((_, f)) = d.next_frame_traced().unwrap() {
                out.push(f);
            }
        }
        prop_assert_eq!(out, payloads);
        prop_assert!(d.is_empty());
    }

    /// Any length header beyond the cap is rejected before allocation,
    /// on both the stream reader and the incremental decoder. Bit 31 is
    /// the v2 context flag, not part of the length: a hostile word with
    /// it set is judged (and reported) on the *masked* length.
    #[test]
    fn oversize_headers_always_rejected(
        extra in 1u64..(1u64 << 31) - MAX_FRAME_BYTES as u64,
        flagged in any::<bool>(),
    ) {
        let claimed = MAX_FRAME_BYTES as u64 + extra;
        let word = claimed as u32 | if flagged { FRAME_FLAG_CTX } else { 0 };
        let wire = word.to_le_bytes().to_vec();
        let mut r = wire.as_slice();
        prop_assert_eq!(
            read_frame(&mut r).unwrap_err(),
            FrameError::Oversize { len: claimed }
        );
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        prop_assert_eq!(
            d.next_frame_traced().unwrap_err(),
            FrameError::Oversize { len: claimed }
        );
    }

    /// v1 (bare) and v2 (context-carrying) frames interleave freely on
    /// one stream: the traced reader surfaces exactly the contexts that
    /// were attached, the legacy reader sees the same payloads while
    /// skipping the context blocks, and the incremental decoder agrees
    /// under arbitrary fragmentation.
    #[test]
    fn mixed_version_frames_interoperate(
        frames in prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 0..200),
                any::<bool>(),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ),
            1..6
        ),
        chunk in 1usize..48,
    ) {
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for (payload, traced, (trace, span, parent, round)) in &frames {
            // Every u64 bit pattern is a valid context field, so a
            // derived timestamp loses no coverage over a drawn one.
            let ctx = traced.then(|| TraceCtx {
                trace: *trace,
                span: *span,
                parent: *parent,
                round: *round,
                send_ts_ns: trace.rotate_left(17) ^ span,
            });
            write_frame_traced(&mut wire, payload, ctx.as_ref()).unwrap();
            want.push((ctx, payload.clone()));
        }
        let mut r = wire.as_slice();
        let mut payload = Vec::new();
        for (ctx, p) in &want {
            prop_assert_eq!(read_frame_traced_into(&mut r, &mut payload).unwrap(), Some(*ctx));
            prop_assert_eq!(&payload, p);
        }
        prop_assert_eq!(read_frame_traced_into(&mut r, &mut payload).unwrap(), None);
        let mut r = wire.as_slice();
        for (_, p) in &want {
            prop_assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(p));
        }
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            d.feed(piece);
            while let Some(f) = d.next_frame_traced().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, want);
        prop_assert!(d.is_empty());
    }

    /// Truncating a context-carrying frame at *every* byte offset —
    /// inside the header, the context block, or the payload — is a
    /// typed `Truncated` error, never a panic or a partial message.
    #[test]
    fn traced_frame_truncation_at_every_offset_errors(
        payload in prop::collection::vec(any::<u8>(), 1..100),
        ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (trace, span, parent, round) = ids;
        let ctx = TraceCtx { trace, span, parent, round, send_ts_ns: trace ^ round };
        let mut wire = Vec::new();
        write_frame_traced(&mut wire, &payload, Some(&ctx)).unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            let err = read_frame_traced_into(&mut r, &mut Vec::new()).unwrap_err();
            prop_assert!(err == FrameError::Truncated, "cut at {cut}: {err:?}");
        }
    }
}
