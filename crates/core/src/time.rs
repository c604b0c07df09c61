//! Simulation time.
//!
//! µqSim keeps time as an integer number of nanoseconds since the start of
//! the simulation. Integer time makes the event queue ordering exact and the
//! simulation bit-for-bit reproducible for a given seed; one nanosecond of
//! resolution is three orders of magnitude finer than the shortest service
//! times the paper models (single-digit microseconds).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use uqsim_core::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(250);
/// assert_eq!(t.as_nanos(), 250_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use uqsim_core::time::SimDuration;
///
/// let d = SimDuration::from_secs_f64(0.001);
/// assert_eq!(d.as_micros_f64(), 1000.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from a floating-point number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).0)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds since simulation start, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of seconds, rounding
    /// to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        let ns = secs * 1e9;
        // One test for every way to fail: NaN compares false, and a
        // negative or infinite `secs` lands outside [0, 2^64].
        if !(ns >= 0.0 && ns <= u64::MAX as f64) {
            unrepresentable_duration(secs);
        }
        SimDuration(round_to_u64(ns))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// `x.round() as u64` for `0 <= x <= 2^64`, without the call into libm
/// that `f64::round` is on x86-64 (this runs once per scheduled event).
/// Truncating is exact, and so is the fraction left over: below 2^53 both
/// are multiples of `x`'s last bit, and from 2^52 up `x` is an integer and
/// nothing is left. Halves round away from zero, as `round` does.
#[cold]
#[inline(never)]
fn unrepresentable_duration(secs: f64) -> ! {
    if secs.is_finite() && secs >= 0.0 {
        panic!("duration overflows u64 nanoseconds: {secs}s")
    }
    panic!("duration must be finite and non-negative, got {secs}")
}

fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if the right-hand side is later than the left-hand side.
    fn sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime subtraction went negative"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `other` is longer than `self`.
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration subtraction went negative"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_500);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn from_secs_f64_rounds_to_nanos() {
        let d = SimDuration::from_secs_f64(1e-9 * 1.4);
        assert_eq!(d.as_nanos(), 1);
        let d = SimDuration::from_secs_f64(1e-9 * 1.6);
        assert_eq!(d.as_nanos(), 2);
    }

    /// The doubles next to `x`.
    fn neighbours(x: f64) -> [f64; 3] {
        [
            f64::from_bits(x.to_bits() - 1),
            x,
            f64::from_bits(x.to_bits() + 1),
        ]
    }

    #[test]
    fn round_to_u64_is_round_at_the_edges() {
        let two = |n: u32| (1u64 << n) as f64;
        let mut edges = vec![
            0.0,
            0.49999999999999994, // the largest double below 0.5
            two(52) - 1.0,
            two(52) - 0.5, // the last double with a fraction
            two(52) + 1.0,
            two(53) - 1.0,
            two(53),
            two(53) + 2.0,
            18446744073709549568.0, // the largest double below 2^64
            u64::MAX as f64,        // 2^64: the cast saturates
        ];
        // Every half, and the doubles either side of it.
        edges.extend((0..64).flat_map(|k| neighbours(k as f64 + 0.5)));
        // Where `x as u64` on x86-64 switches from one conversion to two.
        edges.extend(neighbours(two(63)));
        for x in edges {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x}");
        }
        assert_eq!(round_to_u64(0.49999999999999994), 0);
        assert_eq!(round_to_u64(2.5), 3);
        assert_eq!(round_to_u64(two(63)), 1 << 63);
        assert_eq!(round_to_u64(u64::MAX as f64), u64::MAX);
    }

    /// The definition `from_secs_f64` must keep: `round` itself.
    #[test]
    fn from_secs_f64_is_round_over_twelve_decades() {
        use rand::Rng;
        let mut rng = crate::rng::RngFactory::new(5).stream("time", 0);
        for i in 0..1_000_000u32 {
            // 1 ns .. 1000 s, uniform in the exponent.
            let secs = 10f64.powf(-9.0 + 12.0 * rng.gen::<f64>());
            // And every so often a whole number of nanoseconds and a half.
            let secs = if i % 16 == 0 {
                ((secs * 1e9).floor() + 0.5) / 1e9
            } else {
                secs
            };
            let want = (secs * 1e9).round() as u64;
            assert_eq!(SimDuration::from_secs_f64(secs).as_nanos(), want, "{secs}");
        }
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        // The largest duration there is: 2^64 ns saturates to `MAX`.
        let longest = u64::MAX as f64 / 1e9;
        assert_eq!(longest * 1e9, u64::MAX as f64);
        assert_eq!(SimDuration::from_secs_f64(longest), SimDuration::MAX);
    }

    proptest::proptest! {
        /// Any bit pattern in range, any whole number plus a half, and the
        /// magnitudes the simulator actually schedules.
        #[test]
        fn round_to_u64_is_round(
            bits in proptest::any::<u64>(),
            whole in 0u64..(1 << 52),
            secs in 0.0f64..100.0,
        ) {
            let anywhere = f64::from_bits(bits & (u64::MAX >> 1));
            let half = whole as f64 + 0.5;
            for x in [anywhere, half, secs * 1e9, secs * 1e3] {
                if x <= u64::MAX as f64 {
                    proptest::prop_assert_eq!(round_to_u64(x), x.round() as u64, "{}", x);
                }
            }
        }
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(b.saturating_since(a).as_nanos(), 10);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_duration_panics() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn oversized_duration_panics() {
        let _ = SimDuration::from_secs_f64(1e11);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn time_sub_underflow_panics() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        let _ = a - b;
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_micros(1) < SimDuration::from_millis(1));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_nanos(5)),
            Some(SimTime::from_nanos(5))
        );
    }

    #[test]
    fn serde_roundtrip() {
        let t = SimTime::from_nanos(42);
        let s = serde_json::to_string(&t).unwrap();
        assert_eq!(s, "42");
        let back: SimTime = serde_json::from_str(&s).unwrap();
        assert_eq!(back, t);
    }
}
