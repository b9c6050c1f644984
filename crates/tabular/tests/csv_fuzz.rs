//! Byte-fuzz suite for the CSV decoders, gated by `scripts/check.sh`.
//!
//! Starting from valid seed documents (quoted fields with embedded
//! commas, newlines and doubled quotes; `\n`, `\r\n` and bare `\r`
//! endings; multi-byte text; missing markers; numeric, categorical and
//! text columns), each case applies random byte flips, a truncation, or
//! inserted quotes, commas and line breaks. The mutated bytes are read
//! back through `from_utf8_lossy`. `read_frame` and `read_chunked`, at
//! chunk sizes {1, 7, whole} × bounded {false, true}, must then agree:
//! both `Ok` with equal fingerprints, or both the same `TabularError`.
//! Neither may panic.

use kgpip_tabular::csv::read_frame;
use kgpip_tabular::{read_chunked, ChunkedReadOptions};
use proptest::prelude::*;

const SEEDS: [&str; 4] = [
    "x,city,note,flag\n1.5,paris,\"alpha, beta\",NA\n2.5,lyon,short,?\n\
     NA,paris,\"he said \"\"hi\"\"\",\n4.5,nice,\"two\nlines\",null\n",
    "id,score,label\r\n1,0.25,yes\r\n2,,no\r\n3,1e3,\"\"\r\n4,-7,yes\r\n",
    "a,b\rcafé,1\r日本,2\r🙂 smile,N/A\r,\r",
    "n,t\n1,one two three four five\n2,six seven eight nine ten\n\
     x,eleven twelve\n3,\"q \"\"uoted\"\" words here now\"\n",
];

/// Bytes the insertion property splices in: structure and its escapes.
const INSERTS: [&[u8]; 6] = [b"\"", b"\"\"", b",", b"\n", b"\r", b"\r\n"];

/// Reads `bytes` (lossily decoded) with both readers at every chunk size
/// × memory mode and requires the same outcome.
fn readers_agree(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    let expected = read_frame(&text).map(|f| f.fingerprint());
    for chunk_rows in [1usize, 7, 1_000_000] {
        for bounded_memory in [false, true] {
            let opts = ChunkedReadOptions {
                chunk_rows,
                parallelism: 1,
                bounded_memory,
            };
            let got =
                read_chunked(&text, &opts).and_then(|f| f.to_frame().map(|f| f.fingerprint()));
            if got != expected {
                return Err(format!(
                    "{text:?}: chunk_rows={chunk_rows} bounded={bounded_memory}: \
                     read_frame {expected:?}, read_chunked {got:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Position `at` ∈ [0, 1) scaled onto `0..=len`.
fn scaled(at: f64, len: usize) -> usize {
    ((len as f64 * at) as usize).min(len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn byte_flips_read_identically(
        which in 0usize..SEEDS.len(),
        flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
    ) {
        let mut bytes = SEEDS[which].as_bytes().to_vec();
        for (at, mask) in flips {
            let i = scaled(at, bytes.len() - 1);
            bytes[i] ^= mask as u8;
        }
        readers_agree(&bytes)?;
    }

    #[test]
    fn truncations_read_identically(which in 0usize..SEEDS.len(), keep in 0.0f64..1.0) {
        let bytes = SEEDS[which].as_bytes();
        readers_agree(&bytes[..scaled(keep, bytes.len())])?;
    }

    #[test]
    fn inserted_structure_reads_identically(
        which in 0usize..SEEDS.len(),
        inserts in proptest::collection::vec((0.0f64..1.0, 0usize..INSERTS.len()), 1..5),
    ) {
        let mut bytes = SEEDS[which].as_bytes().to_vec();
        for (at, piece) in inserts {
            let i = scaled(at, bytes.len());
            bytes.splice(i..i, INSERTS[piece].iter().copied());
        }
        readers_agree(&bytes)?;
    }
}

/// The fuzz starts from valid inputs: every seed reads, with rows.
#[test]
fn unmutated_seeds_read() {
    for seed in SEEDS {
        let frame = read_frame(seed).unwrap();
        assert!(frame.num_rows() >= 4, "{seed:?}");
        readers_agree(seed.as_bytes()).unwrap();
    }
}
