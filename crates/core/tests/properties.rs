//! Property-based tests for the FedKNOW components.

use fedknow::{ExtractionStrategy, GradientIntegrator, GradientRestorer, KnowledgeExtractor};
use fedknow_fl::framing::{read_frame, read_frame_into, write_frame, FrameError, MAX_FRAME_BYTES};
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

    /// The transport frame layer round-trips arbitrary payloads exactly
    /// through a stream.
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

    /// The one frame parser reassembles frames from arbitrary
    /// fragmentation: a stream that hands out 1..=`chunk` bytes per read
    /// and fails some reads with `Interrupted` yields exactly the
    /// payloads that were sent, then a clean close.
    #[test]
    fn frames_survive_arbitrary_fragmentation(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..7),
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        for payload in &frames {
            write_frame(&mut wire, payload).unwrap();
        }
        let mut r = Fragmenting { wire: &wire, chunk, state: seed, interrupted: false };
        let mut payload = Vec::new();
        for p in &frames {
            prop_assert!(read_frame_into(&mut r, &mut payload).unwrap());
            prop_assert_eq!(&payload, p);
        }
        prop_assert!(!read_frame_into(&mut r, &mut payload).unwrap());
    }

    /// Any length word beyond the cap — bit 31 included — is `Oversize`
    /// before a byte is reserved.
    #[test]
    fn oversize_headers_always_rejected(
        extra in 1u64..=u64::from(u32::MAX) - MAX_FRAME_BYTES as u64,
    ) {
        let claimed = MAX_FRAME_BYTES as u64 + extra;
        let wire = (claimed as u32).to_le_bytes();
        let mut payload = Vec::new();
        prop_assert_eq!(
            read_frame_into(&mut wire.as_slice(), &mut payload).unwrap_err(),
            FrameError::Oversize { len: claimed }
        );
        prop_assert_eq!(payload.capacity(), 0);
        prop_assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::Oversize { len: claimed }
        );
    }

    /// A frame torn at *every* byte offset — inside its length word or
    /// its payload — after whole frames read into one kept buffer: the
    /// whole frames arrive exactly, the torn one is a typed `Truncated`
    /// error, never a panic or a partial message.
    #[test]
    fn torn_frames_after_whole_ones_are_truncated_into_a_kept_buffer(
        whole in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..100), 0..3),
        torn in prop::collection::vec(any::<u8>(), 1..100),
    ) {
        let mut wire = Vec::new();
        for p in &whole {
            write_frame(&mut wire, p).unwrap();
        }
        let start = wire.len();
        write_frame(&mut wire, &torn).unwrap();
        let mut payload = Vec::new();
        for cut in start + 1..wire.len() {
            let mut r = &wire[..cut];
            for p in &whole {
                prop_assert!(read_frame_into(&mut r, &mut payload).unwrap());
                prop_assert_eq!(&payload, p);
            }
            let err = read_frame_into(&mut r, &mut payload).unwrap_err();
            prop_assert!(err == FrameError::Truncated, "cut at {cut}: {err:?}");
        }
    }
}

/// A stream that hands out a drawn 1..=`chunk` bytes per read and fails
/// some reads with `Interrupted` (never two in a row), as a socket does
/// under signals and short reads.
struct Fragmenting<'a> {
    wire: &'a [u8],
    chunk: usize,
    state: u64,
    interrupted: bool,
}

impl std::io::Read for Fragmenting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // xorshift64*: the draw for this call.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let draw = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
        if !self.interrupted && draw.is_multiple_of(4) {
            self.interrupted = true;
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.interrupted = false;
        let n = (1 + draw as usize % self.chunk)
            .min(buf.len())
            .min(self.wire.len());
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}
