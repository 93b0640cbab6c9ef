//! The seeded mutation driver `decoders_total.rs` runs every decoder
//! and parser under, shared with `parser_goldens.rs`, which freezes
//! what the SQL parser makes of the same mutants.

use fdc::rng::Rng;

#[derive(Debug, Clone, Copy)]
pub enum Mutation {
    /// Keep the first `n` bytes.
    Truncate(usize),
    /// Flip one bit.
    Flip { bit: usize },
    /// Overwrite `width` bytes at `at` with `value`, little-endian.
    Window { at: usize, width: usize, value: u64 },
    /// Replace the byte at `at`.
    Byte { at: usize, value: u8 },
    /// The first `head` bytes, then sample `other` from `tail` on.
    Splice {
        other: usize,
        head: usize,
        tail: usize,
    },
    /// Append `len` seeded random bytes.
    Append { seed: u64, len: usize },
}

/// Bytes that mean something to at least one text format.
const STRUCTURAL: &[u8] = b"\0\"'\\{}[](),:;=-+.eE09 \r\n\xff";

/// Offsets to mutate: every one of a small sample; the first 256 (where
/// headers, tags and counts live), the last 64 and a seeded scatter of
/// a large one.
fn offsets(len: usize, rng: &mut Rng) -> Vec<usize> {
    if len <= 640 {
        return (0..len).collect();
    }
    let mut at: Vec<usize> = (0..256).chain(len - 64..len).collect();
    at.extend((0..320).map(|_| 256 + rng.usize_below(len - 320)));
    at
}

pub fn mutations(samples: &[Vec<u8>], index: usize, rng: &mut Rng) -> Vec<Mutation> {
    let len = samples[index].len();
    let mut out: Vec<Mutation> = (0..len).map(Mutation::Truncate).collect();
    for at in offsets(len, rng) {
        // Every bit of a small sample, one seeded bit per offset of a
        // large one.
        let bits = if len <= 640 {
            0..8
        } else {
            let bit = rng.usize_below(8);
            bit..bit + 1
        };
        out.extend(bits.map(|bit| Mutation::Flip { bit: at * 8 + bit }));
        out.push(Mutation::Byte {
            at,
            value: STRUCTURAL[rng.usize_below(STRUCTURAL.len())],
        });
        for width in [4, 8] {
            let max = if width == 4 {
                u32::MAX.into()
            } else {
                u64::MAX
            };
            let power = 1u64 << rng.usize_below(width * 8);
            for value in [0, 1, power, max] {
                out.push(Mutation::Window { at, width, value });
            }
        }
    }
    for _ in 0..200 {
        let other = rng.usize_below(samples.len());
        out.push(Mutation::Splice {
            other,
            head: rng.usize_below(len + 1),
            tail: rng.usize_below(samples[other].len() + 1),
        });
    }
    for len in [1, 2, 7, 8, 64] {
        for _ in 0..10 {
            out.push(Mutation::Append {
                seed: rng.next_u64(),
                len,
            });
        }
    }
    out
}

pub fn apply(samples: &[Vec<u8>], index: usize, mutation: Mutation) -> Vec<u8> {
    let mut bytes = samples[index].clone();
    match mutation {
        Mutation::Truncate(n) => bytes.truncate(n),
        Mutation::Flip { bit } => bytes[bit / 8] ^= 1 << (bit % 8),
        Mutation::Window { at, width, value } => {
            for (slot, byte) in bytes[at..].iter_mut().zip(&value.to_le_bytes()[..width]) {
                *slot = *byte;
            }
        }
        Mutation::Byte { at, value } => bytes[at] = value,
        Mutation::Splice { other, head, tail } => {
            bytes.truncate(head);
            bytes.extend_from_slice(&samples[other][tail..]);
        }
        Mutation::Append { seed, len } => {
            let mut rng = Rng::seed_from_u64(seed);
            bytes.extend((0..len).map(|_| rng.next_u64() as u8));
        }
    }
    bytes
}
