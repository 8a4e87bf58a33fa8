//! Canonical design-point fingerprints.
//!
//! A [`DesignConfig`] hashes to a 128-bit FNV-1a digest over a
//! deterministic word encoding of its fields. Both maps inside the config
//! are `BTreeMap`s, so iteration order — and therefore the fingerprint —
//! is canonical for a given set of entries. Callers are expected to
//! normalize the configuration first so that equivalent raw points (e.g. a
//! clamped parallel factor) collapse onto one key; the fingerprint itself
//! is purely structural.
//!
//! The digest runs **word-at-a-time** (two parallel 64-bit xor-multiply
//! streams per word, via the `SubFnv` mixer) rather than
//! byte-at-a-time: a directive packs into two words and a buffer entry
//! into ~two, so a typical config fingerprints in a dozen independent
//! multiply pairs instead of a serial ~100-multiply chain.
//! Fields occupy disjoint bit ranges within each word (tag byte, loop id,
//! tile flag, pipeline mode, `tree_reduce`), so every field perturbs the
//! digest and a loop id can never be confused with a neighboring field.
//!
//! At 128 bits, birthday collisions are negligible for any realistic run
//! (a DSE evaluating 10⁹ distinct points has collision probability
//! ~10⁻²⁰), so the memo table stores estimates keyed by digest alone.

use s2fa_hlsir::PipelineMode;
use s2fa_merlin::DesignConfig;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;
// Second stream: xorshift* offset + the 64-bit golden-ratio multiplier.
// Any odd constant preserves the xor-multiply mixing; a different one
// decorrelates the two streams.
const ALT_OFFSET: u64 = 0x2545f4914f6cdd1d;
const ALT_PRIME: u64 = 0x9e3779b97f4a7c15;

/// Word-at-a-time 128-bit mixer.
///
/// Runs **two independent 64-bit xor-multiply streams** (FNV-1a-64 and a
/// golden-ratio variant) and concatenates them, rather than one 128-bit
/// FNV chain: a 128-bit multiply is three dependent 64×64 multiplies, so
/// the serial chain dominated the warm-path profile, while the two
/// 64-bit streams issue in parallel and cost one multiply of latency per
/// word. A joint collision needs both streams to collide at once, which
/// keeps the birthday bound in the same negligible regime as FNV-128.
struct SubFnv {
    a: u64,
    b: u64,
}

impl SubFnv {
    fn new() -> Self {
        SubFnv {
            a: FNV_OFFSET,
            b: ALT_OFFSET,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ w).wrapping_mul(ALT_PRIME);
    }

    fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// The 128-bit canonical fingerprint of a design configuration.
///
/// Structural equality ⇒ equal fingerprints; field order is fixed by the
/// `BTreeMap` keys, so the digest is independent of insertion history.
pub fn fingerprint(config: &DesignConfig) -> u128 {
    let mut h = SubFnv::new();
    for (id, d) in &config.loops {
        let (tile_flag, tile_val) = match d.tile {
            Some(t) => (1u64, t as u64),
            None => (0, 0),
        };
        let pipe = match d.pipeline {
            PipelineMode::Off => 0u64,
            PipelineMode::On => 1,
            PipelineMode::Flatten => 2,
        };
        // Tag 0x01 | loop id (32 bits) | tile flag | pipeline | tree_reduce.
        h.word(
            0x01 | ((id.0 as u64) << 8)
                | (tile_flag << 40)
                | (pipe << 41)
                | ((d.tree_reduce as u64) << 43),
        );
        h.word(tile_val | ((d.parallel as u64) << 32));
    }
    for (name, bits) in &config.buffer_bits {
        // Tag 0x02 | name length | configured width, then the name bytes
        // packed 8 per word (the length word disambiguates zero padding).
        h.word(0x02 | ((name.len() as u64) << 8) | ((*bits as u64) << 32));
        for chunk in name.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h.word(u64::from_le_bytes(w));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlsir::LoopId;
    use s2fa_merlin::LoopDirective;

    #[test]
    fn equal_configs_equal_fingerprints() {
        let mut a = DesignConfig::new();
        a.loop_directive_mut(LoopId(0)).parallel = 4;
        a.buffer_bits.insert("in".into(), 128);
        let mut b = DesignConfig::new();
        b.buffer_bits.insert("in".into(), 128); // different insertion order
        b.loop_directive_mut(LoopId(0)).parallel = 4;
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn each_field_perturbs_the_digest() {
        let mut base = DesignConfig::new();
        base.loops.insert(
            LoopId(1),
            LoopDirective {
                tile: Some(4),
                parallel: 2,
                pipeline: PipelineMode::On,
                tree_reduce: false,
            },
        );
        base.buffer_bits.insert("in".into(), 64);
        let f0 = fingerprint(&base);

        let mut m = base.clone();
        m.loop_directive_mut(LoopId(1)).tile = None;
        assert_ne!(fingerprint(&m), f0);

        let mut m = base.clone();
        m.loop_directive_mut(LoopId(1)).parallel = 3;
        assert_ne!(fingerprint(&m), f0);

        let mut m = base.clone();
        m.loop_directive_mut(LoopId(1)).pipeline = PipelineMode::Flatten;
        assert_ne!(fingerprint(&m), f0);

        let mut m = base.clone();
        m.loop_directive_mut(LoopId(1)).tree_reduce = true;
        assert_ne!(fingerprint(&m), f0);

        let mut m = base.clone();
        m.buffer_bits.insert("in".into(), 128);
        assert_ne!(fingerprint(&m), f0);

        let mut m = base.clone();
        m.buffer_bits.insert("in2".into(), 64);
        assert_ne!(fingerprint(&m), f0);
    }

    #[test]
    fn loop_id_vs_field_confusion_is_distinguished() {
        // L0 with tile 1 vs L1 with no tile — word streams must differ.
        let mut a = DesignConfig::new();
        a.loops.insert(
            LoopId(0),
            LoopDirective {
                tile: Some(1),
                ..LoopDirective::none()
            },
        );
        let mut b = DesignConfig::new();
        b.loops.insert(LoopId(1), LoopDirective::none());
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn buffer_names_with_shared_prefixes_are_distinguished() {
        // Same total byte content split differently across name/width
        // boundaries must not collide (the length word pins the split).
        let mut a = DesignConfig::new();
        a.buffer_bits.insert("buffer_a".into(), 64);
        let mut b = DesignConfig::new();
        b.buffer_bits.insert("buffer_ab".into(), 64);
        let mut c = DesignConfig::new();
        c.buffer_bits.insert("buffer_".into(), 64);
        let (fa, fb, fc) = (fingerprint(&a), fingerprint(&b), fingerprint(&c));
        assert_ne!(fa, fb);
        assert_ne!(fa, fc);
        assert_ne!(fb, fc);
    }
}
