//! Dynamic Patricia trie over prefix-free sets of binary strings
//! (Appendix B of the paper).
//!
//! Each node stores the label α of §2's Patricia definition: the longest
//! common prefix of the strings below it, *excluding* the branching bit,
//! which is implicit in the child position. Insertion of `s` splits an
//! existing node in O(|s|) as in Figure 3; deletion merges the sibling into
//! the parent in O(ℓ̂) where ℓ̂ bounds the label lengths involved.
//!
//! The Wavelet Trie keeps this exact structure with a bitvector payload per
//! internal node; [`PatriciaSet`] is the standalone string-set substrate.

use crate::bitstr::{BitStr, BitString};

/// Error returned when an operation would break prefix-freeness
/// (the paper requires `Sset` prefix-free; see §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixFreeViolation;

impl std::fmt::Display for PrefixFreeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation would make the string set non-prefix-free")
    }
}

impl std::error::Error for PrefixFreeViolation {}

#[derive(Clone, Debug)]
enum PNode {
    Internal {
        label: BitString,
        children: [Box<PNode>; 2],
    },
    Leaf {
        label: BitString,
    },
}

impl PNode {
    fn label(&self) -> &BitString {
        match self {
            PNode::Internal { label, .. } | PNode::Leaf { label } => label,
        }
    }

    fn label_mut(&mut self) -> &mut BitString {
        match self {
            PNode::Internal { label, .. } | PNode::Leaf { label } => label,
        }
    }
}

/// A dynamic Patricia trie storing a prefix-free set of binary strings.
#[derive(Clone, Debug, Default)]
pub struct PatriciaSet {
    root: Option<Box<PNode>>,
    len: usize,
}

impl PatriciaSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of strings stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `s` is in the set.
    pub fn contains(&self, s: BitStr<'_>) -> bool {
        let mut node = match &self.root {
            Some(n) => n.as_ref(),
            None => return false,
        };
        let mut delta = 0usize;
        loop {
            let label = node.label().as_bitstr();
            let rest = s.suffix(delta);
            let l = rest.lcp(&label);
            if l < label.len() {
                return false;
            }
            delta += l;
            match node {
                PNode::Leaf { .. } => return delta == s.len(),
                PNode::Internal { children, .. } => {
                    if delta == s.len() {
                        return false; // proper prefix of stored strings
                    }
                    let b = s.get(delta);
                    delta += 1;
                    node = children[b as usize].as_ref();
                }
            }
        }
    }

    /// Inserts `s`; returns `true` if it was not present.
    ///
    /// # Errors
    /// [`PrefixFreeViolation`] if `s` is a proper prefix of a stored string
    /// or a stored string is a proper prefix of `s`.
    pub fn insert(&mut self, s: BitStr<'_>) -> Result<bool, PrefixFreeViolation> {
        let root = match self.root.as_mut() {
            None => {
                self.root = Some(Box::new(PNode::Leaf {
                    label: s.to_owned_str(),
                }));
                self.len = 1;
                return Ok(true);
            }
            Some(r) => r,
        };
        let inserted = Self::insert_rec(root, s, 0)?;
        self.len += inserted as usize;
        Ok(inserted)
    }

    fn insert_rec(
        node: &mut Box<PNode>,
        s: BitStr<'_>,
        delta: usize,
    ) -> Result<bool, PrefixFreeViolation> {
        let label = node.label().as_bitstr();
        let rest = s.suffix(delta);
        let l = rest.lcp(&label);
        if l == label.len() {
            // Label fully consumed.
            match node.as_mut() {
                PNode::Leaf { .. } => {
                    if delta + l == s.len() {
                        Ok(false) // exact match
                    } else {
                        Err(PrefixFreeViolation) // stored string is a prefix of s
                    }
                }
                PNode::Internal { children, .. } => {
                    if delta + l == s.len() {
                        return Err(PrefixFreeViolation); // s is a prefix of stored strings
                    }
                    let b = s.get(delta + l);
                    Self::insert_rec(&mut children[b as usize], s, delta + l + 1)
                }
            }
        } else if delta + l == s.len() {
            // s ends strictly inside the label: s is a proper prefix.
            Err(PrefixFreeViolation)
        } else {
            // Mismatch strictly inside the label: split (Figure 3).
            let new_bit = s.get(delta + l);
            let old_bit = label.get(l);
            debug_assert_ne!(new_bit, old_bit);
            let common: BitString = label.prefix(l).to_owned_str();
            let old_rest: BitString = label.suffix(l + 1).to_owned_str();
            let new_leaf = Box::new(PNode::Leaf {
                label: s.suffix(delta + l + 1).to_owned_str(),
            });
            // Replace node in place: take it out, shorten its label, re-hang.
            let old = std::mem::replace(
                node,
                Box::new(PNode::Leaf {
                    label: BitString::new(),
                }),
            );
            let mut old = old;
            *old.label_mut() = old_rest;
            let children = if new_bit {
                [old, new_leaf]
            } else {
                [new_leaf, old]
            };
            **node = PNode::Internal {
                label: common,
                children,
            };
            Ok(true)
        }
    }

    /// Removes `s`; returns `true` if it was present.
    pub fn remove(&mut self, s: BitStr<'_>) -> bool {
        if !self.contains(s) {
            return false;
        }
        let root = self.root.as_mut().expect("contains => nonempty");
        if matches!(root.as_ref(), PNode::Leaf { .. }) {
            self.root = None;
            self.len = 0;
            return true;
        }
        Self::remove_rec(root, s, 0);
        self.len -= 1;
        true
    }

    /// Precondition: `s` is present and `node` is internal or the matching
    /// leaf itself (handled by caller for the root-leaf case).
    fn remove_rec(node: &mut Box<PNode>, s: BitStr<'_>, delta: usize) {
        let label_len = node.label().len();
        let delta = delta + label_len;
        let b = s.get(delta);
        let delta = delta + 1;
        let (is_child_leaf, sibling_bit) = match node.as_ref() {
            PNode::Internal { children, .. } => (
                matches!(children[b as usize].as_ref(), PNode::Leaf { .. }),
                !b,
            ),
            PNode::Leaf { .. } => unreachable!("descent stops above the leaf"),
        };
        if !is_child_leaf {
            match node.as_mut() {
                PNode::Internal { children, .. } => {
                    Self::remove_rec(&mut children[b as usize], s, delta)
                }
                _ => unreachable!(),
            }
            return;
        }
        // Merge: parent label + sibling branch bit + sibling label become the
        // label of the surviving node (Appendix B deletion).
        let old = std::mem::replace(
            node,
            Box::new(PNode::Leaf {
                label: BitString::new(),
            }),
        );
        let (label, children) = match *old {
            PNode::Internal { label, children } => (label, children),
            PNode::Leaf { .. } => unreachable!(),
        };
        let [c0, c1] = children;
        let mut sibling = if sibling_bit { c1 } else { c0 };
        let mut merged = label;
        merged.push(sibling_bit);
        merged.push_str(sibling.label().as_bitstr());
        *sibling.label_mut() = merged;
        *node = sibling;
    }

    /// All strings in lexicographic order.
    pub fn iter(&self) -> Vec<BitString> {
        let mut out = Vec::with_capacity(self.len);
        let mut prefix = BitString::new();
        if let Some(r) = &self.root {
            Self::collect(r, &mut prefix, &mut out);
        }
        out
    }

    /// All strings starting with `p`, in lexicographic order.
    pub fn iter_prefix(&self, p: BitStr<'_>) -> Vec<BitString> {
        let mut node = match &self.root {
            Some(n) => n.as_ref(),
            None => return Vec::new(),
        };
        let mut prefix = BitString::new();
        loop {
            let label = node.label().as_bitstr();
            let rest = p.suffix(prefix.len().min(p.len()));
            let consumed = prefix.len();
            if consumed >= p.len() {
                break;
            }
            let l = rest.lcp(&label);
            if consumed + l == p.len() {
                // p exhausted inside (or at the end of) this label: check match
                if l <= label.len() {
                    break;
                }
            }
            if l < label.len() {
                return Vec::new(); // mismatch
            }
            prefix.push_str(label);
            if prefix.len() == p.len() && matches!(node, PNode::Leaf { .. }) {
                break;
            }
            match node {
                PNode::Leaf { .. } => break,
                PNode::Internal { children, .. } => {
                    if prefix.len() >= p.len() {
                        break;
                    }
                    let b = p.get(prefix.len());
                    prefix.push(b);
                    node = children[b as usize].as_ref();
                }
            }
        }
        // Verify p is actually a prefix of prefix+label continuation.
        let mut out = Vec::new();
        let mut pref = prefix.clone();
        Self::collect(node, &mut pref, &mut out);
        out.retain(|s| s.as_bitstr().starts_with(&p));
        out
    }

    fn collect(node: &PNode, prefix: &mut BitString, out: &mut Vec<BitString>) {
        let save = prefix.len();
        prefix.push_str(node.label().as_bitstr());
        match node {
            PNode::Leaf { .. } => out.push(prefix.clone()),
            PNode::Internal { children, .. } => {
                for (b, c) in children.iter().enumerate() {
                    prefix.push(b == 1);
                    Self::collect(c, prefix, out);
                    // The recursive call restored everything it pushed;
                    // pop the branch bit.
                    prefix.truncate(prefix.len() - 1);
                }
            }
        }
        prefix.truncate(save);
    }

    /// Total bits across all labels (the `|L|` of Theorem 3.6, plus branch
    /// bits folded into labels on merge).
    pub fn label_bits(&self) -> usize {
        fn rec(n: &PNode) -> usize {
            match n {
                PNode::Leaf { label } => label.len(),
                PNode::Internal { label, children } => {
                    label.len() + rec(&children[0]) + rec(&children[1])
                }
            }
        }
        self.root.as_ref().map_or(0, |r| rec(r))
    }

    /// Approximate heap size in bits (pointers + labels), the `O(kw) + |L|`
    /// of Lemma 4.1.
    pub fn size_bits(&self) -> usize {
        fn rec(n: &PNode) -> usize {
            let node_overhead = std::mem::size_of::<PNode>() * 8;
            match n {
                PNode::Leaf { label } => node_overhead + label.size_bits(),
                PNode::Internal { label, children } => {
                    node_overhead + label.size_bits() + rec(&children[0]) + rec(&children[1])
                }
            }
        }
        self.root.as_ref().map_or(0, |r| rec(r)) + 2 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut t = PatriciaSet::new();
        // Figure 2's distinct strings (prefix-free).
        let strs = ["0001", "0011", "0100", "00100"];
        for s in strs {
            assert!(t.insert(bs(s).as_bitstr()).unwrap());
        }
        assert_eq!(t.len(), 4);
        for s in strs {
            assert!(t.contains(bs(s).as_bitstr()), "{s}");
        }
        assert!(!t.contains(bs("0000").as_bitstr()));
        assert!(!t.contains(bs("00").as_bitstr()));
        assert!(!t.contains(bs("01000").as_bitstr()));
        // duplicate insert
        assert!(!t.insert(bs("0011").as_bitstr()).unwrap());
        assert_eq!(t.len(), 4);
        // removal
        assert!(t.remove(bs("0011").as_bitstr()));
        assert!(!t.contains(bs("0011").as_bitstr()));
        assert!(t.contains(bs("0001").as_bitstr()));
        assert_eq!(t.len(), 3);
        assert!(!t.remove(bs("0011").as_bitstr()));
    }

    #[test]
    fn prefix_free_violations_detected() {
        let mut t = PatriciaSet::new();
        t.insert(bs("0100").as_bitstr()).unwrap();
        // proper prefix of stored
        assert_eq!(t.insert(bs("01").as_bitstr()), Err(PrefixFreeViolation));
        // stored is proper prefix of new
        assert_eq!(t.insert(bs("01001").as_bitstr()), Err(PrefixFreeViolation));
        // both fine
        assert!(t.insert(bs("0101").as_bitstr()).unwrap());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = PatriciaSet::new();
        let strs = ["0001", "0011", "0100", "00100", "1", "011"];
        for s in strs {
            t.insert(bs(s).as_bitstr()).unwrap();
        }
        let got: Vec<String> = t.iter().iter().map(|b| b.to_string()).collect();
        let mut want: Vec<&str> = strs.to_vec();
        want.sort_by(|a, b| {
            // bit-lexicographic with prefix-less (none are prefixes here)
            a.cmp(b)
        });
        assert_eq!(got, want);
    }

    #[test]
    fn iter_prefix_filters() {
        let mut t = PatriciaSet::new();
        for s in ["0001", "0011", "0100", "00100", "1"] {
            t.insert(bs(s).as_bitstr()).unwrap();
        }
        let got: Vec<String> = t
            .iter_prefix(bs("00").as_bitstr())
            .iter()
            .map(|b| b.to_string())
            .collect();
        assert_eq!(got, vec!["0001", "00100", "0011"]);
        let got: Vec<String> = t
            .iter_prefix(bs("01").as_bitstr())
            .iter()
            .map(|b| b.to_string())
            .collect();
        assert_eq!(got, vec!["0100"]);
        assert!(t.iter_prefix(bs("111").as_bitstr()).is_empty());
        // prefix equal to a full string
        let got = t.iter_prefix(bs("1").as_bitstr());
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn delete_merges_labels_back() {
        // After deleting, re-inserting must reproduce identical behaviour;
        // label_bits shrinks when strings leave.
        let mut t = PatriciaSet::new();
        for s in ["0001", "0011", "0100", "00100"] {
            t.insert(bs(s).as_bitstr()).unwrap();
        }
        let full = t.label_bits();
        // Removing a leaf whose label is longer than the branch bit absorbed
        // by the merge strictly shrinks |L|.
        t.remove(bs("0100").as_bitstr());
        assert!(t.label_bits() < full, "{} vs {full}", t.label_bits());
        t.insert(bs("0100").as_bitstr()).unwrap();
        t.remove(bs("00100").as_bitstr());
        assert!(t.label_bits() <= full);
        t.insert(bs("00100").as_bitstr()).unwrap();
        let strs: Vec<String> = t.iter().iter().map(|b| b.to_string()).collect();
        assert_eq!(strs, vec!["0001", "00100", "0011", "0100"]);
    }

    #[test]
    fn pseudorandom_model_test() {
        use std::collections::BTreeSet;
        let mut next = xorshift(0x1357_9BDF_2468_ACE0);
        // Fixed-length strings are always prefix-free.
        let mut t = PatriciaSet::new();
        let mut model: BTreeSet<String> = BTreeSet::new();
        for _ in 0..2000 {
            let v = next() % 256;
            let str8: String = (0..8)
                .map(|i| if (v >> i) & 1 == 1 { '1' } else { '0' })
                .collect();
            let b = bs(&str8);
            match next() % 3 {
                0 => {
                    let inserted = t.insert(b.as_bitstr()).unwrap();
                    assert_eq!(inserted, model.insert(str8));
                }
                1 => {
                    let removed = t.remove(b.as_bitstr());
                    assert_eq!(removed, model.remove(&str8));
                }
                _ => {
                    assert_eq!(t.contains(b.as_bitstr()), model.contains(&str8));
                }
            }
            assert_eq!(t.len(), model.len());
        }
        let got: Vec<String> = t.iter().iter().map(|b| b.to_string()).collect();
        let want: Vec<String> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_string_as_sole_element() {
        let mut t = PatriciaSet::new();
        assert!(t.insert(BitString::new().as_bitstr()).unwrap());
        assert!(t.contains(BitString::new().as_bitstr()));
        // ε is a prefix of everything: adding any other string must fail.
        assert_eq!(t.insert(bs("0").as_bitstr()), Err(PrefixFreeViolation));
        assert!(t.remove(BitString::new().as_bitstr()));
        assert!(t.is_empty());
    }
}
