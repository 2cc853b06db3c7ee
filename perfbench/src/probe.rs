//! Roofline probes measured on the host the benchmark runs on: a
//! STREAM-triad bandwidth probe and an FMA-peak probe for the micro-kernel
//! ISA, both at the session's thread count.

use nm_kernels::simd::Isa;
use std::time::Instant;

/// Last-level cache size from sysfs, or 32 MiB when the host does not say.
pub fn llc_bytes() -> usize {
    let mut best = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map_or(32 << 20, |(_, b)| b)
}

fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// Seconds each CPU of this VM has had stolen by the hypervisor since
/// boot, from `/proc/stat` (USER_HZ = 100); empty where the file is
/// missing.
pub fn steal_s() -> Vec<f64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|jiffies| jiffies / 100.0)
        .collect()
}

/// Best-of-`reps` STREAM triad `a = b + s·c` over three `f32` arrays of
/// `array_bytes` each, split across `threads`. Counts 3 × `array_bytes`
/// per pass (two reads and one write), as STREAM does.
pub fn triad_gbps(array_bytes: usize, threads: usize, reps: usize) -> f64 {
    let len = array_bytes / 4;
    let mut a = vec![0.0f32; len];
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let s = 0.5 + rep as f32;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    3.0 * array_bytes as f64 / best / 1e9
}

/// Peak `f32` FMA throughput of `isa` on `threads` threads, GFLOP/s.
pub fn fma_gflops(isa: Isa, threads: usize) -> f64 {
    const ITERS: u64 = 20_000_000;
    let t0 = Instant::now();
    let flops: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(move || fma_loop(isa, ITERS)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("FMA probe thread panicked"))
            .sum()
    });
    flops as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Run `iters` rounds of independent FMA chains; returns the flops done.
fn fma_loop(isa: Isa, iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if isa == Isa::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports AVX-512F, the only feature the loop needs.
            return unsafe { x86::fma_avx512(iters) };
        }
        if isa == Isa::Avx2
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU reports AVX2 and FMA, the features the loop needs.
            return unsafe { x86::fma_avx2(iters) };
        }
    }
    let _ = isa;
    fma_portable(iters)
}

/// Eight independent 8-wide multiply-add chains at the build's baseline
/// ISA (`mul_add` would become a library call where FMA is not baseline).
fn fma_portable(iters: u64) -> u64 {
    let mut acc = [[1.0f32; 8]; 8];
    let (x, y) = (
        std::hint::black_box(0.999_999f32),
        std::hint::black_box(1e-7f32),
    );
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = *v * x + y;
            }
        }
    }
    std::hint::black_box(acc);
    iters * 8 * 8 * 2
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Twelve independent 16-lane FMA chains.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) -> u64 {
        let x = _mm512_set1_ps(std::hint::black_box(0.999_999));
        let y = _mm512_set1_ps(std::hint::black_box(1e-7));
        let mut acc = [_mm512_set1_ps(1.0); 12];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_ps(*a, x, y);
            }
        }
        std::hint::black_box(acc);
        iters * 12 * 16 * 2
    }

    /// Twelve independent 8-lane FMA chains.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) -> u64 {
        let x = _mm256_set1_ps(std::hint::black_box(0.999_999));
        let y = _mm256_set1_ps(std::hint::black_box(1e-7));
        let mut acc = [_mm256_set1_ps(1.0); 12];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_ps(*a, x, y);
            }
        }
        std::hint::black_box(acc);
        iters * 12 * 8 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("x"), None);
        assert!(llc_bytes() > 0);
    }
}
