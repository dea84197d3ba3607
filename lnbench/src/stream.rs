//! Seeded inputs: the cell order of each matrix iteration and the serve
//! job stream. Everything is a pure function of the seed (and the job or
//! iteration index), so the same seed always yields the same inputs.

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so no value is favoured.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }
}

/// Domain separators so the permutation and job streams of one seed are
/// independent of each other.
const PERMUTATION_STREAM: u64 = 0x6c6e_6265_6e63_6801;
const JOB_STREAM: u64 = 0x6c6e_6265_6e63_6802;

/// The cell order of matrix iteration `iteration`: a Fisher-Yates shuffle
/// of `0..n`.
pub fn permutation(seed: u64, iteration: u64, n: usize) -> Vec<usize> {
    let mut rng =
        Rng::new(seed ^ PERMUTATION_STREAM ^ iteration.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// One serve job: which matrix cell it compiles and whether its source
/// carries a unique comment-only edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub cell: usize,
    pub edited: bool,
}

/// Share of serve jobs that carry an edit: one in `EDIT_ONE_IN`.
const EDIT_ONE_IN: u64 = 16;

/// Job `index` of the serve stream over `cells` cells. Every
/// [`EDIT_ONE_IN`]th job is edited, and the edits walk the cells in a
/// fresh seeded order every `cells` edits, so each run edits every cell
/// equally often and the cold-path mix does not depend on the seed. Other
/// jobs draw their cell uniformly. Computed from `(seed, index)` alone,
/// so concurrent clients can claim indices in any order and still replay
/// the same stream.
pub fn job(seed: u64, index: u64, cells: usize) -> Job {
    if index % EDIT_ONE_IN == EDIT_ONE_IN - 1 {
        let edit = index / EDIT_ONE_IN;
        let round = permutation(seed ^ JOB_STREAM, edit / cells as u64, cells);
        return Job {
            cell: round[(edit % cells as u64) as usize],
            edited: true,
        };
    }
    let mut rng = Rng::new(seed ^ JOB_STREAM ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db));
    Job {
        cell: rng.below(cells as u64) as usize,
        edited: false,
    }
}

/// The comment an edited job appends to its source: unique per seed and
/// job, and semantically inert.
pub fn edit_comment(seed: u64, index: u64) -> String {
    format!("\n// lnbench edit {seed:x}-{index}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs() {
        let a: Vec<Job> = (0..500).map(|i| job(7, i, 32)).collect();
        let b: Vec<Job> = (0..500).map(|i| job(7, i, 32)).collect();
        assert_eq!(a, b);
        let c: Vec<Job> = (0..500).map(|i| job(8, i, 32)).collect();
        assert_ne!(a, c, "another seed gives another stream");
    }

    #[test]
    fn jobs_cover_the_matrix_and_edit_every_cell_equally() {
        let jobs: Vec<Job> = (0..32_768).map(|i| job(1, i, 32)).collect();
        let mut seen = [0u32; 32];
        let mut edited = [0u32; 32];
        for j in &jobs {
            seen[j.cell] += 1;
            edited[j.cell] += u32::from(j.edited);
        }
        assert!(seen.iter().all(|&n| (800..1300).contains(&n)), "{seen:?}");
        // 2048 edits: each of the 32 cells exactly 64 times.
        assert!(edited.iter().all(|&n| n == 64), "{edited:?}");
        assert!(jobs
            .iter()
            .enumerate()
            .all(|(i, j)| j.edited == (i % 16 == 15)));
    }

    #[test]
    fn same_seed_same_permutations() {
        for it in 0..20 {
            let p = permutation(3, it, 32);
            assert_eq!(p, permutation(3, it, 32));
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        }
        assert_ne!(permutation(3, 0, 32), permutation(3, 1, 32));
        assert_ne!(permutation(3, 0, 32), permutation(4, 0, 32));
    }

    #[test]
    fn edits_are_unique_comments() {
        assert_ne!(edit_comment(1, 2), edit_comment(1, 3));
        assert_ne!(edit_comment(1, 2), edit_comment(2, 2));
        assert!(edit_comment(1, 2).trim_start().starts_with("//"));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(0);
        for n in 1..50 {
            for _ in 0..20 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
