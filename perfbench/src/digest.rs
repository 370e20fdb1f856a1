//! A 64-bit digest over the exact bits of an operation's outputs.

/// FNV-1a over 64-bit words (each `f64` contributes its `to_bits`), so two
/// outputs digest alike only if they agree bit for bit.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in integer words.
    pub fn u64s(&mut self, xs: &[u64]) {
        for &x in xs {
            self.0 = (self.0 ^ x)
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(29);
        }
    }

    /// Mix in the bit patterns of floats.
    pub fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.u64s(&[x.to_bits()]);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let mut a = Digest::default();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f64s(&[2.0, 1.0]);
        let mut c = Digest::default();
        c.f64s(&[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]);
        let mut d = Digest::default();
        d.f64s(&[0.0, 2.0]);
        let mut e = Digest::default();
        e.f64s(&[-0.0, 2.0]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
        assert_ne!(d.finish(), e.finish());
        let mut a2 = Digest::default();
        a2.f64s(&[1.0, 2.0]);
        assert_eq!(a.finish(), a2.finish());
    }
}
