//! Generic iterative dataflow solver over the [`Cfg`].
//!
//! Problems declare a direction, a bit universe, a boundary set, and a
//! per-block transfer function; the solver iterates block transfer to a
//! fixpoint with union as the meet (both shipped analyses — reaching
//! definitions and liveness — are may-analyses). Blocks are visited in
//! creation order for forward problems (the builder emits blocks in
//! program order, approximating reverse post-order) and in reverse order
//! for backward problems, so the common case converges in two sweeps plus
//! one sweep per loop-nesting level.

use super::cfg::{BlockId, Cfg};

/// A dense bitset sized to the problem's universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    bits: usize,
}

impl BitSet {
    /// An empty set over `bits` positions.
    pub fn new(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Overwrites `self` with `other` (same universe) without allocating.
    pub(crate) fn copy_from(&mut self, other: &BitSet) {
        self.words.copy_from_slice(&other.words);
    }

    /// `self |= other`; returns true when any bit changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Direction of a dataflow problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along control-flow edges (e.g. reaching definitions).
    Forward,
    /// Facts flow against control-flow edges (e.g. liveness).
    Backward,
}

/// A dataflow problem solvable by [`solve`]. The meet is always union
/// (may-analysis); a must-analysis can be encoded by complementing its
/// facts.
pub trait DataflowProblem {
    /// Flow direction.
    fn direction(&self) -> Direction;
    /// Size of the bit universe.
    fn bits(&self) -> usize;
    /// Seeds the boundary set: the entry block's input (forward) or the
    /// exit block's input (backward).
    fn boundary(&self, set: &mut BitSet);
    /// Applies the block's transfer function: `out` is overwritten with
    /// the effect of executing `block` on `input` (in execution order for
    /// forward problems, reverse order for backward ones).
    fn transfer(&self, cfg: &Cfg, block: BlockId, input: &BitSet, out: &mut BitSet);
}

/// Fixpoint solution: one input and one output set per block. For
/// forward problems `input` is the set at block entry; for backward
/// problems it is the set at block *exit* (facts at the point control
/// leaves the block), and `output` the set at block entry.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Per-block input sets (indexed by block id).
    pub input: Vec<BitSet>,
    /// Per-block output sets (indexed by block id).
    pub output: Vec<BitSet>,
}

/// Runs the iterative solver to a fixpoint.
pub fn solve(cfg: &Cfg, p: &impl DataflowProblem) -> Solution {
    let n = cfg.blocks.len();
    let bits = p.bits();
    let mut input: Vec<BitSet> = (0..n).map(|_| BitSet::new(bits)).collect();
    let mut output: Vec<BitSet> = (0..n).map(|_| BitSet::new(bits)).collect();
    let forward = p.direction() == Direction::Forward;
    let boundary_block = if forward { cfg.entry } else { cfg.exit };
    p.boundary(&mut input[boundary_block.0 as usize]);

    let order: Vec<usize> = if forward {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    let mut scratch = BitSet::new(bits);
    let mut changed = true;
    while changed {
        changed = false;
        for &bi in &order {
            // Meet over the relevant neighbors.
            let neighbors = if forward {
                &cfg.blocks[bi].preds
            } else {
                &cfg.blocks[bi].succs
            };
            for &nb in neighbors {
                input[bi].union_with(&output[nb.0 as usize]);
            }
            p.transfer(cfg, BlockId(bi as u32), &input[bi], &mut scratch);
            if output[bi].union_with(&scratch) {
                changed = true;
            }
        }
    }
    Solution { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        a.set(0);
        a.set(64);
        a.set(129);
        assert!(a.get(64) && !a.get(63));
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(a.count(), 3);
        let mut b = BitSet::new(130);
        b.set(5);
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a));
        assert_eq!(b.count(), 4);
        b.unset(64);
        assert!(!b.get(64));
        b.clear();
        assert!(b.is_empty());
    }
}
