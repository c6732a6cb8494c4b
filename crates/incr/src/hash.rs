//! The workspace's one content-hash construction.
//!
//! Every layer that content-addresses program text — the session cache
//! key, the verdict-journal record key, and the per-function keys of
//! the incremental derivation graph — derives its value from this
//! module, so the layers can never drift apart. The construction is 64-bit FNV-1a, written out by hand
//! (no std `Hasher`) so values are stable across Rust releases and
//! platforms: they are persisted in journals and committed BENCH
//! baselines.

/// 64-bit FNV-1a over a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// A streaming FNV-1a hasher for composite keys.
///
/// Multi-part keys interleave their parts with length prefixes (see
/// [`Fnv::write_frame`]) so `("ab", "c")` and `("a", "bc")` cannot
/// collide by concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a length-prefixed frame into the state, so adjacent
    /// variable-length parts keep distinct boundaries.
    pub fn write_frame(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The canonical content key of a parsed program: FNV-1a over the
/// *resolved* source (the AST pretty-printed back to canonical text), so
/// texts differing only in whitespace or comments share a key. This is
/// `blastlite::Session::key`, which keys the server's analysis cache and
/// the verdict journal.
pub fn ast_key(ast: &imp::ast::Program) -> u64 {
    fnv64(imp::pretty::program_to_string(ast).as_bytes())
}

/// The content key of one function definition: FNV-1a over its
/// pretty-printed text. The finest-grained node of the derivation
/// graph — everything else is memoized against (sets of) these.
pub fn fn_key(f: &imp::ast::Function) -> u64 {
    fnv64(imp::pretty::function_to_string(f).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_historic_construction() {
        // The exact value the session content key and the journal
        // checksum produced before unification — changing it would
        // orphan every persisted journal record and BENCH baseline.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in b"pathslice" {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(fnv64(b"pathslice"), h);
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn frames_keep_boundaries() {
        let mut a = Fnv::new();
        a.write_frame(b"ab");
        a.write_frame(b"c");
        let mut b = Fnv::new();
        b.write_frame(b"a");
        b.write_frame(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn ast_key_ignores_formatting() {
        let a = imp::parse("global x;\nfn main() { x = 1; }").unwrap();
        let b = imp::parse("global x;   \n\n fn main() {\n x = 1;\n }").unwrap();
        let c = imp::parse("global x;\nfn main() { x = 2; }").unwrap();
        assert_eq!(ast_key(&a), ast_key(&b));
        assert_ne!(ast_key(&a), ast_key(&c));
    }

    #[test]
    fn fn_key_is_per_function() {
        let p = imp::parse("global x; fn f() { x = 1; } fn main() { f(); }").unwrap();
        let q = imp::parse("global x; fn f() { x = 2; } fn main() { f(); }").unwrap();
        assert_ne!(fn_key(&p.functions[0]), fn_key(&q.functions[0]));
        assert_eq!(fn_key(&p.functions[1]), fn_key(&q.functions[1]));
    }
}
