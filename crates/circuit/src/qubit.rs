use std::fmt;

/// Index of a circuit wire.
///
/// A `Qubit` is a plain index into the wires of a [`Circuit`]. Whether a
/// wire represents a *logical* qubit (`q_i` in the paper) or a *physical*
/// qubit (`Q_i`) depends on context: circuits fresh from an algorithm or a
/// QASM file are logical; circuits produced by a router act on physical
/// wires. The paper's mapping `π` is represented by `sabre::Layout`, which
/// relates the two interpretations.
///
/// # Example
///
/// ```
/// use sabre_circuit::Qubit;
///
/// let q = Qubit(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(format!("{q}"), "q3");
/// ```
///
/// [`Circuit`]: crate::Circuit
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qubit(pub u32);

impl Qubit {
    /// Returns the wire index as a `usize`, convenient for slice indexing.
    ///
    /// ```
    /// # use sabre_circuit::Qubit;
    /// let distances = [0, 1, 2, 3];
    /// assert_eq!(distances[Qubit(2).index()], 2);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for Qubit {
    fn from(index: u32) -> Self {
        Qubit(index)
    }
}

impl From<Qubit> for u32 {
    fn from(q: Qubit) -> Self {
        q.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn index_round_trip() {
        for i in [0u32, 1, 7, 1000] {
            assert_eq!(Qubit(i).index(), i as usize);
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Qubit(0).to_string(), "q0");
        assert_eq!(Qubit(19).to_string(), "q19");
    }

    #[test]
    fn conversions_from_u32() {
        let q: Qubit = 4u32.into();
        assert_eq!(q, Qubit(4));
        let raw: u32 = q.into();
        assert_eq!(raw, 4);
    }

    #[test]
    fn usable_in_hash_sets() {
        let mut set = HashSet::new();
        set.insert(Qubit(1));
        set.insert(Qubit(1));
        set.insert(Qubit(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(Qubit(1) < Qubit(2));
        let mut v = vec![Qubit(3), Qubit(0), Qubit(2)];
        v.sort();
        assert_eq!(v, vec![Qubit(0), Qubit(2), Qubit(3)]);
    }
}
