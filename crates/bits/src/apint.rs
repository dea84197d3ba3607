//! The [`ApInt`] container type and basic bit accessors.

use std::fmt;

/// A fixed-width bit pattern of arbitrary width, stored as little-endian
/// 64-bit limbs.
///
/// Invariants:
/// * `width >= 1`
/// * `limbs.len() == ceil(width / 64)`
/// * all bits at positions `>= width` in the last limb are zero
///   (the *canonical* unsigned representation)
///
/// Signedness is an interpretation supplied per operation (e.g.
/// [`ApInt::slt`] vs [`ApInt::ult`]), not a property of the value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ApInt {
    pub(crate) width: u32,
    pub(crate) limbs: Vec<u64>,
}

pub(crate) const LIMB_BITS: u32 = 64;

pub(crate) fn limbs_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

impl ApInt {
    /// Creates the all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > MAX_WIDTH`.
    pub fn zero(width: u32) -> Self {
        assert!(width >= 1, "ApInt width must be at least 1");
        assert!(
            width <= crate::MAX_WIDTH,
            "ApInt width {width} exceeds MAX_WIDTH"
        );
        ApInt {
            width,
            limbs: vec![0; limbs_for(width)],
        }
    }

    /// Creates the all-ones value of the given width (i.e. `-1` when read as
    /// signed, `2^width - 1` when read as unsigned).
    pub fn ones(width: u32) -> Self {
        let mut v = Self::zero(width);
        for l in &mut v.limbs {
            *l = u64::MAX;
        }
        v.canonicalize();
        v
    }

    /// Creates the value `1` of the given width.
    pub fn one(width: u32) -> Self {
        Self::from_u64(1, width)
    }

    /// Creates an `ApInt` from the low `width` bits of `value`.
    pub fn from_u64(value: u64, width: u32) -> Self {
        let mut v = Self::zero(width);
        v.limbs[0] = value;
        v.canonicalize();
        v
    }

    /// Creates an `ApInt` of `width` bits from little-endian 64-bit limbs.
    /// Missing limbs read zero; limbs and bits past `width` are dropped.
    pub fn from_limbs(limbs: &[u64], width: u32) -> Self {
        let mut v = Self::zero(width);
        let n = v.limbs.len().min(limbs.len());
        v.limbs[..n].copy_from_slice(&limbs[..n]);
        v.canonicalize();
        v
    }

    /// Creates an `ApInt` from `value`, sign-extended or truncated to `width`.
    pub fn from_i64(value: i64, width: u32) -> Self {
        let mut v = Self::zero(width);
        let bits = value as u64;
        v.limbs[0] = bits;
        if value < 0 {
            for l in v.limbs.iter_mut().skip(1) {
                *l = u64::MAX;
            }
        }
        v.canonicalize();
        v
    }

    /// Creates an `ApInt` from a bool (width 1).
    pub fn from_bool(value: bool) -> Self {
        Self::from_u64(value as u64, 1)
    }

    /// The bitwidth of this value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Masks off bits beyond `width` in the last limb, restoring the
    /// canonical representation.
    pub(crate) fn canonicalize(&mut self) {
        let rem = self.width % LIMB_BITS;
        if rem != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << rem) - 1;
        }
    }

    /// Returns the bit at position `pos` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.width()`.
    pub fn bit(&self, pos: u32) -> bool {
        assert!(pos < self.width, "bit index {pos} out of range");
        (self.limbs[(pos / LIMB_BITS) as usize] >> (pos % LIMB_BITS)) & 1 == 1
    }

    /// Sets the bit at position `pos` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.width()`.
    pub fn set_bit(&mut self, pos: u32, value: bool) {
        assert!(pos < self.width, "bit index {pos} out of range");
        let limb = (pos / LIMB_BITS) as usize;
        let mask = 1u64 << (pos % LIMB_BITS);
        if value {
            self.limbs[limb] |= mask;
        } else {
            self.limbs[limb] &= !mask;
        }
    }

    /// The most significant bit — the sign bit under signed interpretation.
    pub fn sign_bit(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True if every bit is one.
    pub fn is_all_ones(&self) -> bool {
        *self == Self::ones(self.width)
    }

    /// Number of leading (most-significant) zero bits.
    pub fn leading_zeros(&self) -> u32 {
        for pos in (0..self.width).rev() {
            if self.bit(pos) {
                return self.width - 1 - pos;
            }
        }
        self.width
    }

    /// Minimal width needed to represent this value as unsigned (at least 1).
    pub fn min_unsigned_width(&self) -> u32 {
        (self.width - self.leading_zeros()).max(1)
    }

    /// Iterates over the raw little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }
}

impl fmt::Debug for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::Display for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dec_string())
    }
}

impl fmt::LowerHex for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if started {
                write!(f, "{limb:016x}")?;
            } else if *limb != 0 || i == 0 {
                write!(f, "{limb:x}")?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::Binary for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in (0..self.width).rev() {
            f.write_str(if self.bit(pos) { "1" } else { "0" })?;
        }
        Ok(())
    }
}
