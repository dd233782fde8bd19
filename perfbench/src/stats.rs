//! Small numeric helpers: quantiles, output digests, peak memory.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks, the definition NumPy uses by default. `NaN` for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A streaming 64-bit FNV-1a digest: stable across platforms and runs, so
/// two runs at one seed can be compared byte for byte.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.update(bytes);
        d
    }

    /// Lower-case hex form.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The benchmark's one clock read: every timing it reports starts here.
pub fn now() -> std::time::Instant {
    // kamino-lint: allow(bare_instant, wall_clock) -- the benchmark's stopwatch; its readings become timing metrics and never enter a seeded output or digest
    std::time::Instant::now()
}

/// The shape of the reference kernel a workload is divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense `f64` multiply-adds, hash-map inserts and probes, and a
    /// branchy comparison scan: the mix of a fit or a served request.
    Mixed,
    /// A prefix scan evaluating a three-predicate pair constraint over
    /// tagged cell values: the shape of DC scoring, which dominates draws.
    PairScan,
}

/// Times one pass of a reference kernel, in milliseconds: a fixed CPU
/// workload that shares no code with the library and takes about 10 ms on
/// a quiet 2 GHz core. A shared 2-vCPU Xeon virtual machine ran identical
/// work up to 1.8 times slower for stretches of seconds to minutes;
/// dividing an operation's time by a kernel of the same shape measured
/// beside it cancels much of that, so the end-to-end costs are expressed
/// in kernel passes (`ref`) and compare across runs.
pub fn reference_kernel_ms(kernel: Kernel) -> f64 {
    let t0 = now();
    match kernel {
        Kernel::Mixed => mixed_kernel(),
        Kernel::PairScan => pair_scan_kernel(),
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// A cell value, tagged like the library's categorical/numeric values.
#[derive(Clone, Copy)]
enum Cell {
    Cat(u32),
    Num(f64),
}

impl Cell {
    fn cmp(self, other: Cell) -> std::cmp::Ordering {
        match (self, other) {
            (Cell::Cat(a), Cell::Cat(b)) => a.cmp(&b),
            (Cell::Num(a), Cell::Num(b)) => a.total_cmp(&b),
            (Cell::Cat(_), Cell::Num(_)) => std::cmp::Ordering::Less,
            (Cell::Num(_), Cell::Cat(_)) => std::cmp::Ordering::Greater,
        }
    }
}

/// Counts, for 4,000 candidate rows, the stored rows of a 2,000-row
/// row-major table that violate `¬(t1.a = t2.a ∧ t1.b > t2.b ∧ t1.c < t2.c)`,
/// evaluating the predicates through a lookup closure the way a generic
/// scan does.
fn pair_scan_kernel() {
    use std::cmp::Ordering::{Equal, Greater, Less};
    use std::hint::black_box;
    const STRIDE: usize = 3;
    let table: Vec<Cell> = (0..2000u32)
        .flat_map(|i| {
            [
                Cell::Cat(i.wrapping_mul(7919) % 40),
                Cell::Num(f64::from(i.wrapping_mul(104_729) % 1000)),
                Cell::Num(f64::from(i.wrapping_mul(31) % 997)),
            ]
        })
        .collect();
    let predicates = [(0usize, Equal), (1, Greater), (2, Less)];
    let mut violations = 0u64;
    for c in 0..4000u32 {
        let cand = [
            Cell::Cat(c % 40),
            Cell::Num(f64::from(c.wrapping_mul(613) % 1000)),
            Cell::Num(f64::from(c.wrapping_mul(89) % 997)),
        ];
        for stored in black_box(&table).chunks_exact(STRIDE) {
            let get = |a: usize| stored[a];
            if predicates
                .iter()
                .all(|&(a, want)| cand[a].cmp(get(a)) == want)
            {
                violations += 1;
            }
        }
    }
    black_box(violations);
}

/// Dense `f64` multiply-adds, hash-map traffic and a comparison scan, each
/// on a working set under 64 KiB like the hot loops it stands in for
/// (small DP-SGD matrices, FD hash indexes, request buffers).
fn mixed_kernel() {
    use std::hint::black_box;
    let w: Vec<f64> = (0..4096).map(|i| (i % 97) as f64 * 1e-6).collect();
    let mut x = vec![1.0f64; 4096];
    for _ in 0..300 {
        for (xi, wi) in x.iter_mut().zip(&w) {
            *xi = xi.mul_add(0.999_999, *wi);
        }
        black_box(&mut x);
    }
    let mut m = std::collections::HashMap::with_capacity(2048);
    let mut hits = 0u64;
    for i in 0..150_000u64 {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1500;
        *m.entry(k).or_insert(0u64) += i;
        hits += u64::from(m.contains_key(&(k ^ 1)));
    }
    let keys: Vec<u32> = (0..8192u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 8)
        .collect();
    let mut below = 0usize;
    for probe in keys.iter().step_by(64) {
        below += keys.iter().filter(|&&k| k < *probe).count();
    }
    black_box((&x, hits, below));
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(Digest::of(b"").hex(), "cbf29ce484222325");
        assert_eq!(Digest::of(b"a").hex(), "af63dc4c8601ec8c");
    }
}
