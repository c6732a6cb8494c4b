//! Consistent-hash ring for the verification fabric.
//!
//! The fabric routes each request by the program's *content key* (the
//! same FNV-1a key the analysis cache and the journal use), so repeated
//! — or reformatted — submissions of one program land on the node that
//! already holds its warm session and journaled verdicts. A plain
//! `key % n` mapping would reshuffle almost every key whenever a member
//! joins or leaves; the classic consistent-hashing construction moves
//! only ~K/N of K keys instead: each member owns [`VNODES`] points on a
//! `u64` circle, and a key belongs to the first member point clockwise
//! from the key's own position.
//!
//! The ring lives in `rt` (not `crates/fabric`) so the router and the
//! drills that predict its placement share one canonical
//! implementation without a dependency cycle.
//!
//! Members carry an up/down mark maintained by health checks (or
//! passive failure detection). [`Ring::owner`] and [`Ring::successors`]
//! never return a member marked down — failover is "walk clockwise to
//! the next live point", the same walk a lookup does, so a dead node's
//! keys spread across its ring neighbours instead of piling onto one
//! designated backup.

/// Virtual points per member. More points smooth the key distribution
/// (and the fraction moved on join/leave) at the cost of a larger sorted
/// point list; 64 keeps the imbalance within a few percent for the
/// single-digit fleets the fabric targets.
pub const VNODES: usize = 64;

/// One fabric member: a routable name/address pair plus its health mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Stable member name (ring positions are derived from it, so the
    /// name — not the address — is the member's ring identity).
    pub name: String,
    /// Routable address (`host:port`).
    pub addr: String,
    /// Health mark; down members are skipped by every lookup.
    pub up: bool,
}

/// A consistent-hash ring over named members.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    members: Vec<Member>,
    /// `(point, member index)`, sorted by point — the circle.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// A ring of `(name, addr)` members, all initially up. Duplicate
    /// names collapse to the first occurrence.
    pub fn new<I, S, T>(members: I) -> Ring
    where
        I: IntoIterator<Item = (S, T)>,
        S: Into<String>,
        T: Into<String>,
    {
        let mut ring = Ring::default();
        for (name, addr) in members {
            ring.join(name.into(), addr.into());
        }
        ring
    }

    /// Adds a member (up) and inserts its [`VNODES`] points. A name
    /// already present is left untouched.
    pub fn join(&mut self, name: impl Into<String>, addr: impl Into<String>) {
        let name = name.into();
        if self.members.iter().any(|m| m.name == name) {
            return;
        }
        let index = self.members.len();
        for v in 0..VNODES {
            self.points.push((point(&name, v), index));
        }
        self.members.push(Member {
            name,
            addr: addr.into(),
            up: true,
        });
        self.points.sort_unstable();
    }

    /// Removes a member and its points. Returns whether it was present.
    pub fn leave(&mut self, name: &str) -> bool {
        let Some(gone) = self.members.iter().position(|m| m.name == name) else {
            return false;
        };
        self.members.remove(gone);
        self.points.retain(|&(_, i)| i != gone);
        for p in &mut self.points {
            if p.1 > gone {
                p.1 -= 1;
            }
        }
        true
    }

    /// Marks a member up or down. Returns whether it was present.
    pub fn set_up(&mut self, name: &str, up: bool) -> bool {
        match self.members.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.up = up;
                true
            }
            None => false,
        }
    }

    /// All members, in join order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Members currently marked up.
    pub fn up_count(&self) -> usize {
        self.members.iter().filter(|m| m.up).count()
    }

    /// The member owning `key`: the first *up* member clockwise from the
    /// key's ring position. `None` when every member is down (or the
    /// ring is empty).
    pub fn owner(&self, key: u64) -> Option<&Member> {
        self.successors(key).into_iter().next()
    }

    /// Every up member, deduplicated, in the clockwise order a lookup
    /// for `key` would visit them — the failover order: index 0 is the
    /// owner, index 1 the first fallback, and so on.
    pub fn successors(&self, key: u64) -> Vec<&Member> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let h = mix(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; self.members.len()];
        let mut order = Vec::new();
        for step in 0..self.points.len() {
            let (_, i) = self.points[(start + step) % self.points.len()];
            if !seen[i] {
                seen[i] = true;
                if self.members[i].up {
                    order.push(&self.members[i]);
                }
            }
        }
        order
    }
}

/// The ring position of member `name`'s `v`-th virtual point.
fn point(name: &str, v: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h = (h ^ b'#' as u64).wrapping_mul(0x100_0000_01b3);
    h = (h ^ v as u64).wrapping_mul(0x100_0000_01b3);
    mix(h)
}

/// Finalizing mixer (splitmix64's): content keys are FNV over similar
/// texts and member points are FNV over similar names, so both get the
/// avalanche pass that spreads them uniformly over the circle.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Ring {
        Ring::new([("n1", "a1"), ("n2", "a2"), ("n3", "a3")])
    }

    #[test]
    fn owner_is_deterministic_and_covers_all_members() {
        let ring = ring3();
        let mut owned = [0usize; 3];
        for key in 0..600u64 {
            let a = ring.owner(key).expect("3 up members").name.clone();
            let b = ring.owner(key).expect("3 up members").name.clone();
            assert_eq!(a, b, "lookup is pure");
            owned[a.strip_prefix('n').unwrap().parse::<usize>().unwrap() - 1] += 1;
        }
        for (i, n) in owned.iter().enumerate() {
            assert!(*n > 0, "member n{} owns no keys: {owned:?}", i + 1);
        }
    }

    #[test]
    fn down_members_are_skipped_and_restored() {
        let mut ring = ring3();
        let key = 42;
        let owner = ring.owner(key).unwrap().name.clone();
        assert!(ring.set_up(&owner, false));
        let fallback = ring.owner(key).unwrap().name.clone();
        assert_ne!(owner, fallback, "down owner must be skipped");
        assert!(ring.set_up(&owner, true));
        assert_eq!(ring.owner(key).unwrap().name, owner, "owner restored");
    }

    #[test]
    fn successors_lead_with_the_owner_and_deduplicate() {
        let ring = ring3();
        for key in [0u64, 7, 99, u64::MAX] {
            let succ = ring.successors(key);
            assert_eq!(succ.len(), 3, "all up members appear once");
            assert_eq!(succ[0].name, ring.owner(key).unwrap().name);
            let mut names: Vec<_> = succ.iter().map(|m| m.name.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), 3);
        }
    }

    #[test]
    fn empty_and_all_down_rings_answer_none() {
        let mut ring = Ring::default();
        assert!(ring.owner(1).is_none());
        ring.join("solo", "a");
        ring.set_up("solo", false);
        assert!(ring.owner(1).is_none());
        assert_eq!(ring.up_count(), 0);
    }

    #[test]
    fn leave_rewires_indices_correctly() {
        let mut ring = ring3();
        assert!(ring.leave("n2"));
        assert!(!ring.leave("n2"));
        for key in 0..200u64 {
            let owner = ring.owner(key).unwrap();
            assert_ne!(owner.name, "n2");
            // Index remap must keep name↔addr pairing intact.
            assert_eq!(owner.addr, format!("a{}", &owner.name[1..]));
        }
    }
}
