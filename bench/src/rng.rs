//! The benchmark's own random numbers: every input derives from `--seed`
//! through this file, never from a crate the program also uses, so a change
//! to the program cannot change the inputs.

/// SplitMix64 (Steele, Lea & Flood): small, seedable, good enough to shuffle
/// a checklist and draw keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// part of the generator does not shift the values of another.
    pub fn fork(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A fixed, shuffled cycle of choices in exact proportions: `weights[k]`
/// slots hold choice `k`. Drawing a workload's mix from a cycle instead of
/// at random gives every stretch of the run the same mix, so a class of
/// operation that costs ten times the rest cannot bunch up by chance.
#[derive(Debug, Clone)]
pub struct Cycle {
    slots: Vec<u8>,
    at: usize,
}

impl Cycle {
    pub fn new(weights: &[usize], rng: &mut Rng) -> Cycle {
        let mut slots: Vec<u8> = weights
            .iter()
            .enumerate()
            .flat_map(|(choice, &n)| std::iter::repeat_n(choice as u8, n))
            .collect();
        rng.shuffle(&mut slots);
        Cycle { slots, at: 0 }
    }

    /// The next choice, as an index into the weights.
    pub fn next(&mut self) -> usize {
        let choice = self.slots[self.at];
        self.at = (self.at + 1) % self.slots.len();
        choice as usize
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `theta`, drawn by
/// inverting a precomputed cumulative table (n is at most a few tens of
/// thousands here, so the table is cheap and the draw is a binary search).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut x = Rng::fork(7, "names");
        let mut y = Rng::fork(7, "moves");
        assert_ne!(x.next_u64(), y.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = zipf.draw(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // The ten most popular of a thousand keys draw well over a third of
        // a Zipf(0.99) stream, against one hundredth of a uniform one.
        assert!(head > 3000, "head share {head}");
    }

    #[test]
    fn cycle_keeps_exact_proportions() {
        let mut cycle = Cycle::new(&[6, 3, 1], &mut Rng::new(9));
        let mut seen = [0usize; 3];
        for _ in 0..100 {
            seen[cycle.next()] += 1;
        }
        assert_eq!(seen, [60, 30, 10]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
