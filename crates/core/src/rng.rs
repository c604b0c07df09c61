//! Deterministic random-number streams.
//!
//! The whole simulator is driven by one master seed. Each component
//! (per-stage service-time sampling, per-client arrivals, path selection, …)
//! derives its own decoupled stream from the master seed and a stream label,
//! so that adding a component or reordering samples in one component does not
//! perturb the draws seen by any other — a standard variance-reduction and
//! reproducibility technique for discrete-event simulation.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finalizer; mixes a 64-bit value into a well-distributed one.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Factory for decoupled per-component random streams.
///
/// # Examples
///
/// ```
/// use uqsim_core::rng::RngFactory;
///
/// let factory = RngFactory::new(42);
/// let mut a = factory.stream("client", 0);
/// let mut b = factory.stream("client", 1);
/// // Streams with different labels are independent but each is reproducible:
/// let mut a2 = factory.stream("client", 0);
/// use rand::Rng;
/// assert_eq!(a.gen::<u64>(), a2.gen::<u64>());
/// let _ = b.gen::<u64>();
/// ```
#[derive(Debug, Clone)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derives a reproducible stream for `(label, index)`.
    ///
    /// The same `(seed, label, index)` triple always yields an identical
    /// stream; distinct triples yield streams that are decorrelated for
    /// simulation purposes.
    pub fn stream(&self, label: &str, index: u64) -> SmallRng {
        let mut h = splitmix64(self.master_seed);
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ index);
        SmallRng::seed_from_u64(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_triple_same_stream() {
        let f = RngFactory::new(7);
        let mut a = f.stream("svc", 3);
        let mut b = f.stream("svc", 3);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(7);
        let mut a = f.stream("svc", 0);
        let mut b = f.stream("client", 0);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_indices_differ() {
        let f = RngFactory::new(7);
        let mut a = f.stream("svc", 0);
        let mut b = f.stream("svc", 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngFactory::new(1).stream("x", 0);
        let mut b = RngFactory::new(2).stream("x", 0);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }
}
