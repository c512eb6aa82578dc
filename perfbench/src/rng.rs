//! The benchmark's own seeded PRNG (splitmix64).
//!
//! Every input the benchmark feeds the program comes from this generator,
//! never from the repository's `rand` stand-in or its workload crates, so
//! a change to the program cannot silently change the benchmark's traffic.

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from neighbouring seeds by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.rotate_left(29));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (`lo ≤ hi`); the modulo bias is below 2⁻⁵⁰
    /// for the small ranges drawn here.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = u64::try_from(hi - lo).expect("lo <= hi") + 1;
        lo + i64::try_from(self.next_u64() % span).expect("span fits i64")
    }

    /// `true` with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}
