//! Structural content fingerprints — the cache key of the incremental
//! query layer.
//!
//! A [`Fingerprint`] is a stable structural hash of a function's
//! *content*: its operations, the structure of every type it touches,
//! and — transitively, via the callgraph — the fingerprints of every
//! function it calls. Two functions with the same fingerprint are
//! structurally identical for every per-function analysis and
//! transformation in the workspace, so analysis results, pass outputs,
//! and lowered bodies can be keyed by fingerprint and reused across
//! pipeline iterations and even across compile jobs (see
//! [`CompileCache`](crate::CompileCache)).
//!
//! The contract (DESIGN.md §14):
//!
//! * **Deterministic** — independent of process, run, thread count, and
//!   hash-map iteration order. The hasher below is a fixed-seed mixer,
//!   never `std`'s randomly keyed `SipHash`.
//! * **Renumbering-insensitive** — value ids are canonicalized by
//!   definition order before hashing, so a print/parse round trip or a
//!   compaction that renumbers values does not change the fingerprint.
//! * **Content-sensitive** — any edit to an op, an immediate, a referenced
//!   type's structure, or any (transitive) callee's body changes the
//!   fingerprint. Callee sensitivity is what lets the analysis manager
//!   invalidate *dependents* of a changed function without a separate
//!   dependency graph.
//!
//! The IR crates implement the per-function walks
//! (`memoir_ir::fingerprint`, `lir::fingerprint`) on top of the
//! [`StableHasher`]; [`propagate`] here folds the callgraph into the
//! local hashes for both.

use std::fmt;
use std::hash::Hasher;

/// A stable structural content hash of one function (plus its type and
/// callee context). See the module docs for the contract.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fingerprint(pub u64);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Combines two fingerprints order-sensitively (`combine(a, b) !=
    /// combine(b, a)`).
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_u64(self.0);
        h.write_u64(other.0);
        Fingerprint(h.finish())
    }

    /// Combines a set of fingerprints commutatively (order-insensitive) —
    /// used for SCC summaries, where member order is id-dependent.
    pub fn combine_commutative(fps: impl IntoIterator<Item = Fingerprint>) -> Fingerprint {
        let (mut xor, mut sum, mut n) = (0u64, 0u64, 0u64);
        for fp in fps {
            xor ^= fp.0;
            sum = sum.wrapping_add(mix64(fp.0));
            n += 1;
        }
        let mut h = StableHasher::new();
        h.write_u64(xor);
        h.write_u64(sum);
        h.write_u64(n);
        Fingerprint(h.finish())
    }
}

/// 64-bit finalization mixer (the murmur3/splitmix avalanche step).
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A deterministic, fixed-seed word hasher.
///
/// Unlike `std::hash::DefaultHasher` (randomly keyed per process), this
/// produces the same digest for the same write sequence in every run on
/// every machine — the property fingerprints need to serve as cross-job
/// cache keys. Not cryptographic; collision resistance is "good 64-bit
/// mixing", which is plenty for cache keying.
///
/// It implements [`Hasher`], so any `#[derive(Hash)]` type can be fed
/// in structurally: every integer write becomes one word of the mixer,
/// and raw bytes go in length-prefixed, eight to a word.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher with the fixed seed.
    pub fn new() -> Self {
        StableHasher {
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Feeds one 64-bit word: the mixer every other write goes through.
    pub fn write_u64(&mut self, x: u64) {
        self.state = mix64(self.state.rotate_left(23) ^ x).wrapping_add(0x2545_f491_4f6c_dd1d);
    }

    /// Feeds a boolean.
    pub fn write_bool(&mut self, x: bool) {
        self.write_u64(x as u64);
    }

    /// Feeds a string, length-prefixed (so `"ab", "c"` and `"a", "bc"`
    /// digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }

    /// The digest as a [`Fingerprint`].
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(self.finish())
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        StableHasher::finish(self)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    // The signed writes default to these.
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        StableHasher::write_u64(self, x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A [`fmt::Write`] sink that digests the text written into it, so a
/// printer's output can be keyed as it is printed, with no `String` in
/// between.
///
/// Bytes are packed eight to a word, little-endian, and each full word
/// goes through the [`StableHasher`] mixer; the digest pads the last
/// partial word with zeros and then folds in the total length. The
/// digest is therefore a function of the bytes alone: a text written
/// whole, byte by byte, or split anywhere else digests the same.
#[derive(Clone, Debug, Default)]
pub struct TextDigest {
    hasher: StableHasher,
    /// The bytes of the current partial word (`len % 8` of them).
    word: u64,
    len: u64,
}

impl TextDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    fn write_bytes(&mut self, mut bytes: &[u8]) {
        let fill = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if fill != 0 {
            let take = bytes.len().min(8 - fill);
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.word |= u64::from(b) << (8 * (fill + i));
            }
            if fill + take < 8 {
                return;
            }
            self.hasher.write_u64(self.word);
            self.word = 0;
            bytes = &bytes[take..];
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.hasher
                .write_u64(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.word |= u64::from(b) << (8 * i);
        }
    }

    /// The digest of everything written so far.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = self.hasher.clone();
        if !self.len.is_multiple_of(8) {
            h.write_u64(self.word);
        }
        h.write_u64(self.len);
        h.fingerprint()
    }
}

impl fmt::Write for TextDigest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// The canonical block order both IRs' walks hash in: reverse
/// post-order from `entry` over the successor lists `succs`, then the
/// unreachable blocks in index order.
pub fn block_order(succs: &[Vec<usize>], entry: usize) -> Vec<usize> {
    let mut order = crate::graph::reverse_postorder(succs, entry);
    let mut seen = vec![false; succs.len()];
    for &b in &order {
        seen[b] = true;
    }
    order.extend((0..succs.len()).filter(|&b| !seen[b]));
    order
}

/// Marker folded in place of a callee in the caller's own SCC.
const RECURSIVE_CALLEE: u64 = 0x5245_4355_5253_4500; // "RECURSE"

/// Final fingerprints of a module's functions, from each function's
/// local structure hash and in-module callee list (call-site order;
/// indices into `funcs`), plus an optional hash of module-wide context
/// every function depends on.
///
/// The callgraph is condensed into SCCs and processed leaves-first.
/// Each function hashes the context, its local hash and its callees'
/// fingerprints in call-site order: a callee in another SCC is already
/// final; one in the same SCC (recursion) becomes a marker, resolved by
/// a commutative summary of the SCC's members, so the result does not
/// depend on the order members are enumerated in. Editing any
/// (transitively) called function therefore moves the fingerprints of
/// all its callers.
pub fn propagate(context: Option<u64>, funcs: &[(u64, Vec<usize>)]) -> Vec<Fingerprint> {
    let n = funcs.len();
    let comps = crate::graph::sccs(n, &|v| &funcs[v].1);
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in comps.iter().enumerate() {
        for &v in comp {
            comp_of[v] = ci;
        }
    }
    let mut out = vec![Fingerprint(0); n];
    for (ci, comp) in comps.iter().enumerate() {
        let members: Vec<Fingerprint> = comp
            .iter()
            .map(|&v| {
                let (local, callees) = &funcs[v];
                let mut h = StableHasher::new();
                if let Some(cx) = context {
                    h.write_u64(cx);
                }
                h.write_u64(*local);
                for &c in callees {
                    h.write_u64(match comp_of.get(c) {
                        Some(&cc) if cc == ci => RECURSIVE_CALLEE,
                        Some(_) => out[c].0,
                        None => u64::MAX, // dangling callee
                    });
                }
                h.fingerprint()
            })
            .collect();
        let summary = Fingerprint::combine_commutative(members.iter().copied());
        for (&v, member) in comp.iter().zip(members) {
            out[v] = member.combine(summary);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn str_hashing_is_length_prefixed() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn text_digest_depends_on_the_bytes_alone() {
        use std::fmt::Write;
        let text = "module m\n\nfn f(%0) -> 1 values {\nb0:\n  ret %0\n}\n";
        let digest = |parts: &[&str]| {
            let mut d = TextDigest::new();
            for p in parts {
                d.write_str(p).unwrap();
            }
            d.fingerprint()
        };
        let whole = digest(&[text]);
        let bytes: Vec<&str> = (0..text.len()).map(|i| &text[i..i + 1]).collect();
        assert_eq!(digest(&bytes), whole);
        for split in [1, 3, 7, 8, 9, 16, 17] {
            let (a, b) = text.split_at(split);
            let (b, c) = b.split_at(b.len() / 3);
            assert_eq!(digest(&[a, "", b, c]), whole, "split at {split}");
        }
        // Padding and length both count.
        assert_ne!(digest(&["a"]), digest(&["a\0"]));
        assert_ne!(digest(&[""]), digest(&["\0"]));
        assert_ne!(digest(&[text]), digest(&[&text[..text.len() - 1]]));
    }

    #[test]
    fn commutative_combine_ignores_order() {
        let fps = [Fingerprint(3), Fingerprint(9), Fingerprint(27)];
        let a = Fingerprint::combine_commutative(fps);
        let b = Fingerprint::combine_commutative([fps[2], fps[0], fps[1]]);
        assert_eq!(a, b);
        let c = Fingerprint::combine_commutative([fps[0], fps[1]]);
        assert_ne!(a, c);
    }
}
