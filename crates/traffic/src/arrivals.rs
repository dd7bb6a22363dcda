//! Bernoulli arrivals: the per-source, per-cycle injection decision of every
//! generator, as one integer compare on the draw `gen_bool` would make.
//!
//! The vendored `gen_bool(p)` draws one `u64` `x` and tests
//! `(x >> 11) as f64 · 2⁻⁵³ < p`. Both sides are exact: `x >> 11` has 53
//! bits, and scaling by a power of two loses nothing for `p ∈ [0, 1]`
//! (subnormal `p` included). So the test is `x >> 11 < p · 2⁵³` over the
//! reals, and, its left side being an integer, `x >> 11 < ⌈p · 2⁵³⌉`.
//! [`Bernoulli`] keeps that ceiling; [`Arrivals`] keeps one plan a source
//! and scans them with nothing but the plan slice and the generator's
//! `StdRng` in hand, returning to the generator only on a hit. Every draw
//! stays where `gen_bool` made it, so every stream is unchanged.

use rand::rngs::StdRng;
use rand::RngCore;
use rfnoc_topology::NodeId;

/// `2⁵³`, the resolution of the vendored `f64` sample.
const UNIT: f64 = (1u64 << 53) as f64;

/// Largest per-source rate a plan holds: its whole part must fit the
/// `u32` certain-message counter.
pub(crate) const RATE_LIMIT: f64 = u32::MAX as f64 + 1.0;

/// A Bernoulli trial that draws what `rng.gen_bool(p)` draws and answers
/// the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bernoulli {
    /// `⌈p · 2⁵³⌉`: the trial hits when the draw's top 53 bits fall below.
    threshold: u64,
}

impl Bernoulli {
    /// The trial of probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 1]`, as `gen_bool` does.
    pub(crate) fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Self { threshold: (p * UNIT).ceil() as u64 }
    }

    /// Draws one `u64` from `rng`; true with probability `p`.
    #[inline]
    pub(crate) fn sample(self, rng: &mut StdRng) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

/// What one source emits each cycle: `certain` messages without a draw,
/// then one Bernoulli trial if `draws` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arrival {
    trial: Bernoulli,
    certain: u32,
    draws: bool,
}

impl Arrival {
    /// Emits nothing and draws nothing.
    pub(crate) const SILENT: Arrival =
        Arrival { trial: Bernoulli { threshold: 0 }, certain: 0, draws: false };

    /// One draw at `p`, whatever `p` is (0 and 1 included).
    pub(crate) fn draw(p: f64) -> Self {
        Arrival { trial: Bernoulli::new(p), certain: 0, draws: true }
    }

    /// `rate` messages a cycle on average: the whole part certain, then one
    /// draw at the fractional part if it is above 0. A rate of 0, below 0
    /// or NaN emits nothing and draws nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not below [`RATE_LIMIT`]
    /// (`TrafficConfig::validate` rejects such a rate).
    pub(crate) fn rate(rate: f64) -> Self {
        if rate.is_nan() || rate <= 0.0 {
            return Self::SILENT;
        }
        assert!(rate < RATE_LIMIT, "per-source rate {rate} exceeds the certain-message counter");
        let whole = rate.floor();
        let fraction = rate - whole;
        let draws = fraction > 0.0;
        let trial = Bernoulli::new(if draws { fraction } else { 0.0 });
        Arrival { trial, certain: whole as u32, draws }
    }
}

/// Where a scan of one cycle stands: the source it is at, and how many of
/// that source's certain messages it has returned.
#[derive(Debug, Default)]
pub(crate) struct Scan {
    src: NodeId,
    emitted: u32,
}

/// The arrival plans of a generator's sources, indexed by router id.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arrivals {
    plan: Box<[Arrival]>,
}

impl FromIterator<Arrival> for Arrivals {
    fn from_iter<I: IntoIterator<Item = Arrival>>(iter: I) -> Self {
        Self { plan: iter.into_iter().collect() }
    }
}

impl Arrivals {
    /// The next message source of this cycle at or after `scan`, in router
    /// order: a source is returned once per certain message, then its
    /// trial is drawn and it is returned once more on a hit. `None` when
    /// every source is done.
    #[inline]
    pub(crate) fn next(&self, rng: &mut StdRng, scan: &mut Scan) -> Option<NodeId> {
        // The scan draws from a local copy, written back once: the state
        // stays in registers instead of being stored after every miss.
        let mut state = rng.clone();
        let hit = loop {
            let src = scan.src;
            let Some(arrival) = self.plan.get(src) else { break None };
            if scan.emitted < arrival.certain {
                scan.emitted += 1;
                break Some(src);
            }
            scan.src += 1;
            scan.emitted = 0;
            if arrival.draws && arrival.trial.sample(&mut state) {
                break Some(src);
            }
        };
        *rng = state;
        hit
    }

    /// The plan of router `src`.
    #[cfg(test)]
    pub(crate) fn plan(&self, src: NodeId) -> Arrival {
        self.plan[src]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// `gen_bool`'s test on the draw `x`.
    fn gen_bool_test(x: u64, p: f64) -> bool {
        (x >> 11) as f64 * (1.0 / UNIT) < p
    }

    /// A draw whose top 53 bits are `top`, with random low bits.
    fn draw_with_top(top: u64, low: u64) -> u64 {
        (top << 11) | (low & 0x7ff)
    }

    fn agrees_on_every_boundary(p: f64, low: u64) -> Result<(), TestCaseError> {
        let trial = Bernoulli::new(p);
        let scaled = p * UNIT;
        let (floor, ceil) = (scaled.floor() as u64, scaled.ceil() as u64);
        for top in [floor.wrapping_sub(1), floor, ceil] {
            // Only draws that exist: the top 53 bits lie below 2⁵³.
            if top < 1 << 53 {
                let x = draw_with_top(top, low);
                let hit = (x >> 11) < trial.threshold;
                prop_assert_eq!(hit, gen_bool_test(x, p), "p {} x {}", p, x);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The integer test answers as `gen_bool` does, on random draws and
        /// on the draws either side of `p · 2⁵³`, for random `p` and the
        /// edge values.
        #[test]
        fn integer_test_matches_gen_bool(
            p in 0.0f64..1.0,
            draws in proptest::collection::vec(any::<u64>(), 32),
        ) {
            let edges = [0.0, 2f64.powi(-54), 2f64.powi(-53), 0.5, 1.0 - 2f64.powi(-53), 1.0];
            for q in edges.into_iter().chain([p]) {
                let trial = Bernoulli::new(q);
                for &x in &draws {
                    let hit = (x >> 11) < trial.threshold;
                    prop_assert_eq!(hit, gen_bool_test(x, q), "p {} x {}", q, x);
                    agrees_on_every_boundary(q, x)?;
                }
            }
        }
    }

    /// A trial draws once and answers as `gen_bool` on the same stream.
    #[test]
    fn sample_tracks_gen_bool_on_one_stream() {
        let mut fast = StdRng::seed_from_u64(11);
        let mut slow = fast.clone();
        for p in [0.0, 1e-9, 0.008, 0.25, 0.5, 0.7, 0.999_999, 1.0] {
            let trial = Bernoulli::new(p);
            for _ in 0..2_000 {
                assert_eq!(trial.sample(&mut fast), slow.gen_bool(p), "p {p}");
            }
            assert_eq!(fast, slow);
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn trial_rejects_probability_above_one() {
        Bernoulli::new(1.5);
    }

    /// The whole part is certain, the fraction is drawn, and nothing at or
    /// below 0 draws.
    #[test]
    fn rate_splits_into_certain_and_drawn() {
        let plan = |rate| {
            let a = Arrival::rate(rate);
            (a.certain, a.draws, a.trial)
        };
        assert_eq!(plan(0.0), (0, false, Bernoulli::new(0.0)));
        assert_eq!(plan(-1.0), (0, false, Bernoulli::new(0.0)));
        assert_eq!(plan(f64::NAN), (0, false, Bernoulli::new(0.0)));
        assert_eq!(plan(0.25), (0, true, Bernoulli::new(0.25)));
        assert_eq!(plan(1.0), (1, false, Bernoulli::new(0.0)));
        assert_eq!(plan(1.7), (1, true, Bernoulli::new(1.7 - 1.0)));
        assert_eq!(plan(3.0), (3, false, Bernoulli::new(0.0)));
        assert_eq!(plan(RATE_LIMIT - 0.5).0, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "certain-message counter")]
    fn rate_rejects_a_whole_part_beyond_the_counter() {
        Arrival::rate(RATE_LIMIT);
    }

    /// The scan returns each certain message, then draws, source by
    /// source, and draws exactly where a `gen_bool` loop would.
    #[test]
    fn scan_matches_the_reference_loop() {
        let plan = [0.0, 0.3, 1.0, 2.5, 0.0, 0.9, 1.2];
        let arrivals: Arrivals = plan.iter().map(|&r| Arrival::rate(r)).collect();
        let mut fast = StdRng::seed_from_u64(5);
        let mut slow = fast.clone();
        for _ in 0..500 {
            let mut got = Vec::new();
            let mut scan = Scan::default();
            while let Some(src) = arrivals.next(&mut fast, &mut scan) {
                got.push(src);
            }
            let mut want = Vec::new();
            for (src, &rate) in plan.iter().enumerate() {
                let mut budget: f64 = rate;
                while budget > 0.0 {
                    let p = budget.min(1.0);
                    if p >= 1.0 || slow.gen_bool(p) {
                        want.push(src);
                    }
                    budget -= 1.0;
                }
            }
            assert_eq!(got, want);
            assert_eq!(fast, slow);
        }
    }
}
