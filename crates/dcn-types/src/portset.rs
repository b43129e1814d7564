//! Dense port bitsets.

use crate::HostId;
use std::fmt;

/// A set of ports (servers) backed by a dense bitmap.
///
/// Ports of the "one big switch" abstraction are small zero-based integers
/// ([`HostId::index`]), so a word-packed bitmap answers membership in `O(1)`
/// with no per-element allocation — the schedulers' greedy admission loop
/// tests both ports of every candidate VOQ against two of these. The set
/// grows on demand to the largest inserted index; all operations on indices
/// beyond the current capacity behave as if the bit were zero.
///
/// # Example
///
/// ```
/// use dcn_types::{HostId, PortSet};
///
/// let mut busy = PortSet::new();
/// assert!(busy.insert(HostId::new(3)));
/// assert!(!busy.insert(HostId::new(3))); // already present
/// assert!(busy.contains(HostId::new(3)));
/// assert!(!busy.contains(HostId::new(144)));
/// assert_eq!(busy.len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct PortSet {
    words: Vec<u64>,
    len: usize,
}

impl PortSet {
    /// Creates an empty set. No memory is allocated until the first insert.
    pub fn new() -> Self {
        PortSet::default()
    }

    /// Creates an empty set pre-sized for ports `0..num_ports`, so inserts
    /// within that range never reallocate.
    pub fn with_ports(num_ports: u32) -> Self {
        PortSet {
            words: vec![0; (num_ports as usize).div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn split(port: HostId) -> (usize, u64) {
        let i = port.as_usize();
        (i / 64, 1u64 << (i % 64))
    }

    /// Number of ports in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no ports.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `port` is in the set.
    #[inline]
    pub fn contains(&self, port: HostId) -> bool {
        let (word, bit) = Self::split(port);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Inserts `port`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, port: HostId) -> bool {
        let (word, bit) = Self::split(port);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let fresh = *w & bit == 0;
        *w |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `port`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, port: HostId) -> bool {
        let (word, bit) = Self::split(port);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Empties the set, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates over the ports in the set in ascending index order, one
    /// step per word and per member.
    pub fn iter(&self) -> impl Iterator<Item = HostId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let b = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(HostId::new((i * 64) as u32 + b))
            })
        })
    }
}

/// Sets are equal when they hold the same ports — capacity (trailing zero
/// words left behind by [`PortSet::remove`]/[`PortSet::clear`]) is ignored.
impl PartialEq for PortSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.len == other.len
            && short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for PortSet {}

impl fmt::Debug for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<HostId> for PortSet {
    fn from_iter<I: IntoIterator<Item = HostId>>(iter: I) -> Self {
        let mut set = PortSet::new();
        for port in iter {
            set.insert(port);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = PortSet::new();
        assert!(s.is_empty());
        assert!(s.insert(HostId::new(0)));
        assert!(s.insert(HostId::new(63)));
        assert!(s.insert(HostId::new(64)));
        assert!(!s.insert(HostId::new(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(HostId::new(63)));
        assert!(!s.contains(HostId::new(1)));
        assert!(!s.contains(HostId::new(1_000_000)));
        assert!(s.remove(HostId::new(63)));
        assert!(!s.remove(HostId::new(63)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn clear_keeps_capacity_and_equality_ignores_it() {
        let mut a = PortSet::new();
        a.insert(HostId::new(200));
        a.clear();
        let b = PortSet::new();
        assert_eq!(a, b);
        a.insert(HostId::new(3));
        let mut c = PortSet::new();
        c.insert(HostId::new(3));
        assert_eq!(a, c);
        c.insert(HostId::new(4));
        assert_ne!(a, c);
    }

    #[test]
    fn iterates_in_port_order() {
        let s: PortSet = [70u32, 3, 64, 3].into_iter().map(HostId::new).collect();
        let ports: Vec<u32> = s.iter().map(HostId::index).collect();
        assert_eq!(ports, vec![3, 64, 70]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn with_ports_presizes() {
        let mut s = PortSet::with_ports(144);
        assert!(s.is_empty());
        assert!(s.insert(HostId::new(143)));
        assert!(s.contains(HostId::new(143)));
    }
}
