//! Memo keys for the sweeps over an ELP's path tree.
//!
//! What a sweep computes at a hop depends on the *turn* the packet takes
//! at the switch before it — the node it came from, the switch, the node
//! it leaves for — and on the tag it carries in. An enumerated ELP makes
//! the same turn with the same tag hundreds of times (333 k hops over
//! 1,339 distinct turn-and-tag pairs on the benchmark's Clos), so each
//! pass keeps the answers it has worked out in a hash table keyed by the
//! four packed into one integer, in front of the `BTreeMap`s and the port
//! lookups that produce them. The simulator's rule index packs its
//! `(node, tag, in port, out port)` match keys into a `u64` and hashes
//! them with the same [`TurnHasher`].

use crate::Tag;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use tagger_topo::NodeId;

/// `before → here → next` carrying `tag` into `here`, as one key.
pub(crate) fn turn_key(before: NodeId, here: NodeId, next: NodeId, tag: Tag) -> u128 {
    (u128::from(before.0) << 80)
        | (u128::from(here.0) << 48)
        | (u128::from(next.0) << 16)
        | u128::from(tag.0)
}

/// A multiply-and-fold hash of one key packed into a `u64` or a `u128`,
/// such as a sweep's turn key. The keys are node ids, ports and tags of
/// this process's own topology: the default hasher's resistance to
/// chosen keys buys nothing here, and it costs more than everything else
/// a sweep does at a hop.
#[derive(Default)]
pub struct TurnHasher(u64);

impl Hasher for TurnHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a packed key is hashed as one integer");
    }

    fn write_u64(&mut self, key: u64) {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The table takes its bucket from the low bits, where a product
        // is weakest: fold the high half down.
        self.0 = mixed ^ (mixed >> 32);
    }

    fn write_u128(&mut self, key: u128) {
        self.write_u64((key as u64) ^ ((key >> 64) as u64).rotate_left(29));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type TurnMap<V> = HashMap<u128, V, BuildHasherDefault<TurnHasher>>;
pub(crate) type TurnSet = HashSet<u128, BuildHasherDefault<TurnHasher>>;
