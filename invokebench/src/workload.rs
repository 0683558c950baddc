//! The three workloads and their seeded, self-checking inputs.
//!
//! Why these three (see also `README.md`): `small_in` carries almost no
//! data, so it measures the fixed cost of one collective invocation;
//! `large_in` is the paper's 2^19-double `in` argument, dominated by the
//! payload path; `inout_mid` sends a mid-sized array both ways, so it is
//! the only workload that runs the reply-side gather/pack/scatter path.

use pardis::prelude::TransferMode;

/// Which operation of the generated `diff_object` stub a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `double total_heat(in diff_array)`: the reply is one exact sum.
    TotalHeat,
    /// `void diffusion(in long timestep = 0, inout diff_array)`: the
    /// array must come back bit-for-bit.
    DiffusionZero,
}

/// One workload: a c×n configuration, an operation and a payload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub client_threads: usize,
    pub server_threads: usize,
    pub op: Op,
    /// Distributed-sequence length in doubles.
    pub len: usize,
    /// Invocation pairs (one per mode) run before measuring starts.
    pub warmup_pairs: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_in",
        client_threads: 1,
        server_threads: 2,
        op: Op::TotalHeat,
        len: 1 << 3,
        warmup_pairs: 500,
    },
    Workload {
        name: "large_in",
        client_threads: 2,
        server_threads: 2,
        op: Op::TotalHeat,
        len: 1 << 19,
        warmup_pairs: 10,
    },
    Workload {
        name: "inout_mid",
        client_threads: 2,
        server_threads: 2,
        op: Op::DiffusionZero,
        len: 1 << 16,
        warmup_pairs: 50,
    },
];

/// Both transfer modes, in the order every workload alternates them.
pub const MODES: [TransferMode; 2] = [TransferMode::Centralized, TransferMode::MultiPort];

/// Metric prefix of a transfer mode.
pub fn mode_tag(mode: TransferMode) -> &'static str {
    match mode {
        TransferMode::Centralized => "cen",
        TransferMode::MultiPort => "mp",
    }
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Useful dsequence bytes one invocation moves: the `in` bytes, plus
    /// the returned bytes of an `inout` argument.
    pub fn payload_bytes(&self) -> usize {
        let one_way = self.len * 8;
        match self.op {
            Op::TotalHeat => one_way,
            Op::DiffusionZero => 2 * one_way,
        }
    }

    /// Bytes of one client thread's part of the sequence (block
    /// distribution, so the per-thread part a gather or scatter moves).
    pub fn part_bytes(&self) -> usize {
        self.len * 8 / self.client_threads
    }

    /// Size of the centralized request body: the whole `in` sequence.
    pub fn message_bytes(&self) -> usize {
        self.len * 8
    }
}

/// Number of distinct input arrays a run cycles through.
pub const VARIANTS: usize = 2;

/// Seeded inputs of one run: a few arrays of small-integer-valued
/// doubles and, for each, the exact sum `total_heat` must return.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub arrays: Vec<Vec<f64>>,
    pub sums: Vec<f64>,
}

impl Inputs {
    /// Generate `VARIANTS` arrays of `len` values in [-1000, 1000]. Every
    /// partial sum is an integer below 2^53, so the sum is exact in any
    /// order of addition.
    pub fn generate(seed: u64, len: usize) -> Inputs {
        let mut state = seed;
        let arrays: Vec<Vec<f64>> = (0..VARIANTS)
            .map(|_| {
                (0..len)
                    .map(|_| (splitmix64(&mut state) % 2001) as f64 - 1000.0)
                    .collect()
            })
            .collect();
        let sums = arrays.iter().map(|a| a.iter().sum()).collect();
        Inputs { arrays, sums }
    }
}

/// SplitMix64: a small, well-mixed generator, so inputs depend only on
/// the seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(7, 100);
        let b = Inputs::generate(7, 100);
        let c = Inputs::generate(8, 100);
        assert_eq!(a.arrays, b.arrays);
        assert_ne!(a.arrays, c.arrays);
        assert_ne!(a.arrays[0], a.arrays[1]);
        for (arr, sum) in a.arrays.iter().zip(&a.sums) {
            assert!(arr.iter().all(|x| x.fract() == 0.0 && x.abs() <= 1000.0));
            assert_eq!(arr.iter().rev().sum::<f64>(), *sum);
        }
    }
}
