//! Binary serialization of the compressed N:M format.
//!
//! A deployment-oriented container: magic + version header, the `N:M (L)`
//! configuration, logical shape `k × n`, the bit-packed index matrix `D`
//! and the raw little-endian `f32` values `B′`, each section
//! length-prefixed. The wire keeps `B′` row-major; in memory it is
//! window-major ([`NmSparseMatrix::panels`]). Loading touches only the
//! compressed bytes: `D` is unpacked and checked first, then the panel
//! buffer is split into runs of whole windows, one run per rayon worker.
//! Each worker walks the wire in bands of 16 compressed rows and decodes
//! its windows' columns of each band straight into their panel rows, so
//! every float is read once from the wire and written once, by one worker
//! (the panels are bit-identical on any worker count). No dense `k × n`
//! matrix, no row-major copy of `B′` and no staging buffer is built.
//!
//! [`from_bytes`] checks, before it allocates anything:
//! - magic, version and the configuration (`1 ≤ N ≤ M`, `L ≥ 1`);
//! - the shape: `k` and `n` non-zero, and every size derived from them
//!   (`w`, the dense `k·n`, the index bit count `w·q·⌈log₂ M⌉`, the value
//!   count `w·n` and its byte length) in checked arithmetic, so an overflow
//!   is an error naming the field;
//! - each section's length field against the size the shape implies and
//!   against the bytes that remain.
//!
//! It then checks that `D` is canonical (every offset `< M`, strictly
//! increasing within each window), as [`NmSparseMatrix::compress`] does.
//!
//! Padded-tail rule: when `M ∤ k`, an offset in the last pruning window can
//! point past row `k − 1` (`base + D[u][j] ≥ k`). Such a vector is padding,
//! so its value span loads as `0.0`, as compressing the dense matrix leaves
//! it. Every other value loads bit for bit, `-0.0` and NaN payloads
//! included. Untrusted bytes can fail to load, but never panic the loader
//! or yield a structurally invalid matrix.

use crate::error::{NmError, Result};
use crate::index::IndexMatrix;
use crate::pattern::NmConfig;
use crate::sparse::NmSparseMatrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rayon::prelude::*;
use std::ops::Range;

/// File magic: `NMSP`.
pub const MAGIC: [u8; 4] = *b"NMSP";
/// Current container version.
pub const VERSION: u16 = 1;

/// Compressed rows decoded per band: each window then takes one contiguous
/// `BAND × width` run of its panel, while the band's wire rows stay in
/// cache.
const BAND: usize = 16;

/// Serialize a compressed matrix into a standalone binary blob.
pub fn to_bytes(sb: &NmSparseMatrix) -> Bytes {
    let cfg = sb.cfg();
    let packed_idx = sb.indices().bit_pack(cfg);
    let values = sb.panels();

    let mut buf = BytesMut::with_capacity(32 + packed_idx.len() + values.len() * 4);
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(0); // reserved flags
    buf.put_u32_le(cfg.n as u32);
    buf.put_u32_le(cfg.m as u32);
    buf.put_u32_le(cfg.l as u32);
    buf.put_u64_le(sb.k() as u64);
    buf.put_u64_le(sb.cols() as u64);
    buf.put_u64_le(packed_idx.len() as u64);
    buf.put_slice(&packed_idx);
    buf.put_u64_le(values.len() as u64);
    // The wire keeps `B′` row-major.
    for u in 0..sb.w() {
        for j in 0..sb.q() {
            for v in sb.panel_row(j, u) {
                buf.put_f32_le(*v);
            }
        }
    }
    buf.freeze()
}

/// Deserialize and fully validate a blob produced by [`to_bytes`].
pub fn from_bytes(mut data: &[u8]) -> Result<NmSparseMatrix> {
    let fail = |reason: &str| NmError::InvalidConfig {
        reason: format!("deserialize: {reason}"),
    };
    let need = |data: &[u8], n: usize, what: &str| {
        if data.remaining() < n {
            Err(fail(&format!("truncated before {what}")))
        } else {
            Ok(())
        }
    };
    let overflow = |field: &str| fail(&format!("{field} overflows usize"));

    need(data, 8, "header")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(fail(&format!("unsupported version {version}")));
    }
    let _flags = data.get_u16_le();

    need(data, 12 + 16, "config")?;
    let n_keep = data.get_u32_le() as usize;
    let m_win = data.get_u32_le() as usize;
    let l = data.get_u32_le() as usize;
    let cfg = NmConfig::new(n_keep, m_win, l)?;
    let k = usize::try_from(data.get_u64_le()).map_err(|_| overflow("k"))?;
    let n = usize::try_from(data.get_u64_le()).map_err(|_| overflow("n"))?;
    // With an empty axis the payload would no longer bound the other one.
    if k == 0 || n == 0 {
        return Err(fail(&format!("empty shape {k}x{n}")));
    }
    // `decompress` allocates the dense `k × n`.
    k.checked_mul(n).ok_or_else(|| overflow("dense size k·n"))?;
    let w = cfg
        .window_rows(k)
        .checked_mul(cfg.n)
        .ok_or_else(|| overflow("compressed rows w"))?;
    let q = cfg.window_cols(n);
    let expect_idx = w
        .checked_mul(q)
        .and_then(|e| e.checked_mul(cfg.index_bits() as usize))
        .ok_or_else(|| overflow("index bit count w·q·bits"))?
        .div_ceil(8);
    let expect_vals = w
        .checked_mul(n)
        .ok_or_else(|| overflow("value count w·n"))?;
    let val_bytes = expect_vals
        .checked_mul(4)
        .ok_or_else(|| overflow("values byte length"))?;

    need(data, 8, "index length")?;
    let idx_len = data.get_u64_le();
    if idx_len != expect_idx as u64 {
        return Err(fail(&format!(
            "index section is {idx_len} bytes, expected {expect_idx}"
        )));
    }
    need(data, expect_idx, "index payload")?;
    let (packed, rest) = data.split_at(expect_idx);
    data = rest;

    need(data, 8, "values length")?;
    let val_len = data.get_u64_le();
    if val_len != expect_vals as u64 {
        return Err(fail(&format!(
            "values section holds {val_len} floats, expected {expect_vals}"
        )));
    }
    need(data, val_bytes, "values payload")?;

    let values = &data[..val_bytes];
    let indices = IndexMatrix::bit_unpack(packed, w, q, cfg)?;
    NmSparseMatrix::from_parts(cfg, k, n, indices, |panels, _| {
        // Whole windows per run; `min(n)` keeps a lone run's column count
        // (and so its float count) inside the checked `w·n`.
        let run_cols = q
            .div_ceil(rayon::current_num_threads())
            .saturating_mul(cfg.l)
            .min(n);
        panels
            .par_chunks_mut(run_cols * w)
            .enumerate()
            .for_each(|(r, out)| {
                let lo = r * run_cols;
                decode_windows(values, n, w, cfg.l, lo..lo + out.len() / w, out);
            });
    })
}

/// Decode the wire's columns `cols` (whole windows of width `l`) of all `w`
/// compressed rows into `out`, those windows' panels, band by band.
fn decode_windows(wire: &[u8], n: usize, w: usize, l: usize, cols: Range<usize>, out: &mut [f32]) {
    for u0 in (0..w).step_by(BAND) {
        let rows = u0..(u0 + BAND).min(w);
        for lo in cols.clone().step_by(l) {
            let width = l.min(cols.end - lo);
            let panel = &mut out[(lo - cols.start) * w..][..w * width];
            for u in rows.clone() {
                let src = &wire[(u * n + lo) * 4..][..width * 4];
                let dst = &mut panel[u * width..][..width];
                for (v, x) in dst.iter_mut().zip(src.chunks_exact(4)) {
                    *v = f32::from_le_bytes(x.try_into().expect("chunks_exact yields 4 bytes"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;
    use crate::prune::PrunePolicy;

    fn sample(seed: u64) -> NmSparseMatrix {
        let cfg = NmConfig::new(2, 16, 8).unwrap();
        let b = MatrixF32::random(64, 48, seed);
        NmSparseMatrix::prune(&b, cfg, PrunePolicy::Random { seed }).unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let sb = sample(1);
        let blob = to_bytes(&sb);
        let back = from_bytes(&blob).unwrap();
        assert_eq!(back.cfg(), sb.cfg());
        assert_eq!(back.k(), sb.k());
        assert_eq!(back.cols(), sb.cols());
        assert_eq!(back.panels(), sb.panels());
        assert_eq!(back.indices(), sb.indices());
    }

    #[test]
    fn widest_window_keeps_its_last_offset() {
        // M = 256 is the widest window a u8 offset holds; a nonzero at
        // offset 255 must survive the blob.
        let cfg = NmConfig::new(1, 256, 1).unwrap();
        let mut b = MatrixF32::zeros(256, 1);
        b.set(255, 0, 3.5);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        assert_eq!(sb.indices().get(0, 0), 255);
        let back = from_bytes(&to_bytes(&sb)).unwrap();
        assert_eq!(back.decompress(), b);
    }

    #[test]
    fn round_trip_with_padding_shapes() {
        let cfg = NmConfig::new(2, 4, 4).unwrap();
        let b = MatrixF32::random(17, 13, 5); // both axes ragged
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let back = from_bytes(&to_bytes(&sb)).unwrap();
        assert_eq!(back.panels(), sb.panels());
        assert_eq!(back.decompress(), sb.decompress());
    }

    #[test]
    fn rejects_bad_magic() {
        let sb = sample(2);
        let mut blob = to_bytes(&sb).to_vec();
        blob[0] = b'X';
        let err = from_bytes(&blob).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn rejects_unsupported_version() {
        let sb = sample(3);
        let mut blob = to_bytes(&sb).to_vec();
        blob[4] = 99;
        assert!(from_bytes(&blob)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn rejects_corrupt_index_payload() {
        let sb = sample(5);
        let blob = to_bytes(&sb).to_vec();
        // Flip bits across the index section; the canonical-form validator
        // (strictly increasing offsets per window) must catch corruption.
        let idx_start = IDX_LEN_AT + 8;
        let mut rejected = 0;
        for i in 0..16 {
            let mut bad = blob.clone();
            let pos = idx_start + i;
            if pos < bad.len() {
                bad[pos] ^= 0xFF;
            }
            if from_bytes(&bad).is_err() {
                rejected += 1;
            }
        }
        assert!(
            rejected > 8,
            "most index corruptions must be detected (got {rejected}/16)"
        );
    }

    #[test]
    fn rejects_inconsistent_lengths() {
        let sb = sample(6);
        let mut blob = to_bytes(&sb).to_vec();
        // Lie about the index length field (offset 36 = 8+12+16).
        blob[36] ^= 0x01;
        assert!(from_bytes(&blob).is_err());
    }

    #[test]
    fn dense_config_round_trips() {
        let cfg = NmConfig::new(4, 4, 2).unwrap();
        let b = MatrixF32::random(16, 8, 7);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let back = from_bytes(&to_bytes(&sb)).unwrap();
        assert_eq!(back.decompress(), b);
    }

    /// Byte offset of the index section's length field: magic, version and
    /// flags (8), `N`/`M`/`L` (12), `k`/`n` (16).
    const IDX_LEN_AT: usize = 36;

    /// Byte offset of the values section's length field in `blob`.
    fn val_len_at(blob: &[u8]) -> usize {
        let idx_len = u64::from_le_bytes(blob[IDX_LEN_AT..IDX_LEN_AT + 8].try_into().unwrap());
        IDX_LEN_AT + 8 + idx_len as usize
    }

    /// A canonical `D` whose even window columns keep the top `N` offsets
    /// of every window and odd ones the bottom `N`, so the last window of a
    /// ragged `k` always has spans in the padded tail.
    fn top_and_bottom(cfg: NmConfig, k: usize, n: usize) -> IndexMatrix {
        let (w, q) = (cfg.compressed_rows(k), cfg.window_cols(n));
        let mut d = IndexMatrix::zeros(w, q);
        for u in 0..w {
            for j in 0..q {
                let i = u % cfg.n;
                let off = if j % 2 == 0 { cfg.m - cfg.n + i } else { i };
                d.set(u, j, off as u8);
            }
        }
        d
    }

    fn bits(sb: &NmSparseMatrix) -> Vec<u32> {
        sb.panels().iter().map(|v| v.to_bits()).collect()
    }

    /// Loading a blob must end in `Ok` with a valid matrix or in `Err`.
    fn loads_or_fails_cleanly(case: &str, blob: &[u8]) -> bool {
        match std::panic::catch_unwind(|| from_bytes(blob)) {
            Ok(Ok(sb)) => {
                sb.validate()
                    .unwrap_or_else(|e| panic!("{case}: loaded an invalid matrix: {e}"));
                assert_eq!(sb.panels().len(), sb.w() * sb.cols(), "{case}");
                assert_eq!(sb.indices().q(), sb.cfg().window_cols(sb.cols()), "{case}");
                true
            }
            Ok(Err(_)) => false,
            Err(_) => panic!("{case}: from_bytes panicked"),
        }
    }

    #[test]
    fn mutated_blobs_load_or_fail_without_panicking() {
        // k % M != 0 and n % L != 0, with 3-bit offsets.
        let cfg = NmConfig::new(3, 8, 4).unwrap();
        let (k, n) = (19, 13);
        let sb =
            NmSparseMatrix::compress(&MatrixF32::random(k, n, 9), cfg, top_and_bottom(cfg, k, n))
                .unwrap();
        let blob = to_bytes(&sb).to_vec();
        assert!(loads_or_fails_cleanly("intact", &blob));

        for cut in 0..blob.len() {
            let loaded = loads_or_fails_cleanly(&format!("cut at {cut}"), &blob[..cut]);
            assert!(!loaded, "a blob cut at {cut} must be rejected");
        }
        for at in 0..blob.len() {
            let mut bad = blob.clone();
            bad[at] ^= 0xFF;
            loads_or_fails_cleanly(&format!("byte {at} flipped"), &bad);
        }
        let fields = [
            ("k", 20),
            ("n", 28),
            ("index length", IDX_LEN_AT),
            ("values length", val_len_at(&blob)),
        ];
        let doctored = [0, 1, 1 << 32, 1 << 35, 1 << 62, u64::MAX - 1, u64::MAX];
        for (field, at) in fields {
            for v in doctored {
                let mut bad = blob.clone();
                bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
                let loaded = loads_or_fails_cleanly(&format!("{field} = {v}"), &bad);
                assert!(!loaded, "{field} = {v} must be rejected");
            }
        }
    }

    #[test]
    fn header_overflow_is_an_error_naming_the_field() {
        let (k_at, n_at) = (20, 28);
        let with = |sb: &NmSparseMatrix, k: u64, n: u64| {
            let mut bad = to_bytes(sb).to_vec();
            bad[k_at..k_at + 8].copy_from_slice(&k.to_le_bytes());
            bad[n_at..n_at + 8].copy_from_slice(&n.to_le_bytes());
            from_bytes(&bad).unwrap_err().to_string()
        };
        let dense = |l| {
            let cfg = NmConfig::new(4, 4, l).unwrap();
            NmSparseMatrix::prune_magnitude(&MatrixF32::random(8, 8, 11), cfg).unwrap()
        };
        let (l1, l4) = (dense(1), dense(4));
        let cases = [
            (&sample(10), u64::MAX - 1, 48, "dense size k·n"),
            (&l4, u64::MAX - 1, 1, "compressed rows w"),
            (&l1, (1 << 62) - 1, 2, "index bit count"),
            (&l4, (1 << 62) - 1, 4, "value count w·n"),
            (&l4, (1 << 61) - 1, 4, "values byte length"),
            (&l4, 8, 0, "empty shape"),
        ];
        for (sb, k, n, named) in cases {
            let err = with(sb, k, n);
            assert!(err.contains(named), "k = {k}, n = {n}: {err}");
        }
    }

    #[test]
    fn loads_exactly_what_the_dense_round_trip_loaded() {
        let cases = [
            ((2, 4, 4), (17, 13)),
            ((3, 8, 3), (17, 10)),
            ((1, 5, 2), (11, 7)),
            ((4, 4, 2), (9, 5)),
            ((2, 8, 32), (42, 70)),
            ((2, 16, 8), (60, 44)),
        ];
        for ((nk, m, l), (k, n)) in cases {
            let cfg = NmConfig::new(nk, m, l).unwrap();
            let d = top_and_bottom(cfg, k, n);
            let mut dense = MatrixF32::random(k, n, (k * n) as u64);
            // A kept -0.0 and a kept NaN payload in columns `l` and `l + 1`:
            // window column 1 keeps the bottom offsets 0..N, all real rows.
            let nan = f32::from_bits(0x7fc0_1234);
            dense.set(0, l, -0.0);
            dense.set(nk - 1, l + 1, nan);
            let sb = NmSparseMatrix::compress(&dense, cfg, d.clone()).unwrap();
            let mut blob = to_bytes(&sb).to_vec();

            // Garbage in every value span whose offset is padding.
            let vals_at = val_len_at(&blob) + 8;
            let (w, q) = (sb.w(), sb.q());
            let mut tail_spans = 0;
            for u in 0..w {
                for j in 0..q {
                    if u / nk * m + d.get(u, j) as usize >= k {
                        tail_spans += 1;
                        for col in j * l..((j + 1) * l).min(n) {
                            let at = vals_at + (u * n + col) * 4;
                            blob[at..at + 4].copy_from_slice(&(1.5 + col as f32).to_le_bytes());
                        }
                    }
                }
            }
            let case = format!("{cfg} {k}x{n}");
            assert!(tail_spans > 0, "{case}: no padded-tail span planted");

            let loaded = from_bytes(&blob).unwrap();
            let dense_trip = NmSparseMatrix::compress(&sb.decompress(), cfg, d).unwrap();
            assert_eq!(bits(&loaded), bits(&dense_trip), "{case}");
            assert_eq!(loaded.indices(), dense_trip.indices(), "{case}");
            assert_eq!((loaded.k(), loaded.cols()), (k, n), "{case}");
            let values = loaded.values_row_major();
            assert_eq!(values.get(0, l).to_bits(), (-0.0f32).to_bits());
            assert_eq!(values.get(nk - 1, l + 1).to_bits(), nan.to_bits());
        }
    }

    #[test]
    fn loads_the_same_bits_on_one_worker_and_on_all() {
        // Ragged k (padded-tail spans), ragged n, w off the 16-row band
        // (one, or more than one, band), and q = 1 (one run, so every other
        // worker gets no windows).
        let cases = [
            ((2, 8, 32), (75, 70)),
            ((3, 8, 4), (75, 13)),
            ((2, 4, 16), (37, 9)),
            ((1, 5, 2), (11, 7)),
            ((2, 8, 32), (2049, 100)),
        ];
        let one_worker = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for ((nk, m, l), (k, n)) in cases {
            let cfg = NmConfig::new(nk, m, l).unwrap();
            let d = top_and_bottom(cfg, k, n);
            let sb = NmSparseMatrix::compress(&MatrixF32::random(k, n, 4), cfg, d.clone()).unwrap();
            let mut blob = to_bytes(&sb).to_vec();
            // Row 0 lies in the first pruning window, so its spans are real:
            // plant a -0.0 and a NaN payload there, and garbage everywhere
            // else on the wire.
            let vals_at = val_len_at(&blob) + 8;
            let nan = f32::from_bits(0x7fc0_1234);
            for (i, x) in blob[vals_at..].chunks_exact_mut(4).enumerate() {
                let v = match i {
                    0 => -0.0,
                    i if i == n - 1 => nan,
                    i => i as f32 * 0.25 - 7.0,
                };
                x.copy_from_slice(&v.to_le_bytes());
            }

            let case = format!("{cfg} {k}x{n}");
            let serial = one_worker.install(|| from_bytes(&blob)).unwrap();
            let parallel = from_bytes(&blob).unwrap();
            assert_eq!(bits(&serial), bits(&parallel), "{case}");
            assert_eq!(serial.indices(), &d, "{case}");

            let mut tail_spans = 0;
            for u in 0..sb.w() {
                for j in 0..sb.q() {
                    let padding = u / nk * m + d.get(u, j) as usize >= k;
                    tail_spans += usize::from(padding);
                    for (c, v) in parallel.panel_row(j, u).iter().enumerate() {
                        let at = vals_at + (u * n + j * l + c) * 4;
                        let wire = u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
                        let want = if padding { 0 } else { wire };
                        assert_eq!(v.to_bits(), want, "{case} ({u}, {j}, {c})");
                    }
                }
            }
            assert!(tail_spans > 0, "{case}: no padded-tail span");
            let values = parallel.values_row_major();
            assert_eq!(values.get(0, 0).to_bits(), (-0.0f32).to_bits(), "{case}");
            assert_eq!(values.get(0, n - 1).to_bits(), nan.to_bits(), "{case}");
        }
    }

    #[test]
    fn blobs_round_trip_byte_for_byte() {
        for ((nk, m, l), (k, n)) in [
            ((2, 4, 4), (17, 13)),
            ((3, 8, 3), (17, 10)),
            ((2, 8, 32), (42, 70)),
            ((1, 5, 2), (11, 7)),
            ((2, 16, 8), (60, 44)),
        ] {
            let cfg = NmConfig::new(nk, m, l).unwrap();
            let sb = NmSparseMatrix::prune_magnitude(&MatrixF32::random(k, n, 3), cfg).unwrap();
            let blob = to_bytes(&sb);
            assert_eq!(to_bytes(&from_bytes(&blob).unwrap()), blob, "{cfg} {k}x{n}");
        }
    }

    #[test]
    fn wire_format_is_unchanged() {
        // 2:4 (L = 4), 6 x 5: both axes ragged. Row-major `B′` on the wire.
        #[rustfmt::skip]
        const BLOB: [u8; 134] = [
            78, 77, 83, 80, 1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0,
            6, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
            248, 80, 20, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 80, 192, 0, 0, 48, 192, 0, 0, 16, 192, 0, 0, 224, 191, 0, 0, 112, 64,
            0, 0, 136, 64, 0, 0, 152, 64, 0, 0, 168, 64, 0, 0, 184, 64, 0, 0, 200, 64,
            0, 0, 216, 64, 0, 0, 232, 64, 0, 0, 248, 64, 0, 0, 4, 65, 0, 0, 12, 65,
            0, 0, 20, 65, 0, 0, 28, 65, 0, 0, 36, 65, 0, 0, 44, 65, 0, 0, 52, 65,
        ];
        let cfg = NmConfig::new(2, 4, 4).unwrap();
        let b = MatrixF32::from_fn(6, 5, |i, j| (i * 5 + j) as f32 * 0.5 - 3.25);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        assert_eq!(to_bytes(&sb).as_ref(), &BLOB[..]);
        let back = from_bytes(&BLOB).unwrap();
        assert_eq!(back, sb);
        assert_eq!(back.decompress(), sb.decompress());
    }

    #[test]
    fn blob_is_compact() {
        let sb = sample(8);
        let blob = to_bytes(&sb);
        // values dominate: w*n floats + small header/indices.
        let floor = sb.panels().len() * 4;
        assert!(blob.len() >= floor);
        assert!(blob.len() < floor + floor / 4 + 64);
    }
}
