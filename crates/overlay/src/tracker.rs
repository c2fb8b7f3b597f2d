//! The tracking server (paper §3.1).
//!
//! Per channel the tracker keeps the member set and a *volunteer*
//! list: peers that told it they can accept new upload connections
//! because their aggregate sending throughput sits below their upload
//! capacity. Bootstrap hands a new peer up to 50 partners, drawn
//! preferentially from the volunteers and padded with random members.
//!
//! The paper closes by saying its findings "will be instrumental
//! towards further improvements of P2P streaming protocol design";
//! the obvious one its data suggests is ISP-aware bootstrapping. The
//! tracker therefore also maintains per-ISP member indices and, when
//! the simulator enables `locality_aware_tracker`, serves a
//! configurable fraction of each bootstrap from the joiner's own ISP
//! — the `locality_tracker` example and ablation quantify the effect.

use crate::peer::PeerId;
use magellan_netsim::Isp;
use magellan_workload::ChannelId;
use rand::RngExt as _;
use std::collections::{BTreeMap, BTreeSet};

/// Per-channel tracking state.
#[derive(Debug, Default, Clone)]
struct ChannelState {
    members: Vec<PeerId>,
    member_set: BTreeSet<PeerId>,
    volunteers: Vec<PeerId>,
    volunteer_set: BTreeSet<PeerId>,
    /// Members indexed by ISP, for the locality-aware extension.
    members_by_isp: BTreeMap<Isp, Vec<PeerId>>,
}

/// How the tracker assembles a bootstrap partner list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapPolicy {
    /// Draw from the volunteer list before the general membership
    /// (the paper's §3.1 behaviour; the `disable_volunteer` ablation
    /// turns it off).
    pub use_volunteers: bool,
    /// Fraction of the bootstrap drawn from the joiner's own ISP
    /// before falling back to the global pool (0.0 = the paper's
    /// ISP-oblivious tracker; the locality extension uses e.g. 0.7).
    pub locality_fraction: f64,
}

impl Default for BootstrapPolicy {
    fn default() -> Self {
        BootstrapPolicy {
            use_volunteers: true,
            locality_fraction: 0.0,
        }
    }
}

/// The tracking server.
#[derive(Debug, Default, Clone)]
pub struct Tracker {
    channels: BTreeMap<ChannelId, ChannelState>,
    isps: BTreeMap<PeerId, Isp>,
}

impl Tracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a peer in a channel.
    pub fn register(&mut self, channel: ChannelId, id: PeerId, isp: Isp) {
        let st = self.channels.entry(channel).or_default();
        if st.member_set.insert(id) {
            st.members.push(id);
            st.members_by_isp.entry(isp).or_default().push(id);
            self.isps.insert(id, isp);
        }
    }

    /// Removes a peer from a channel (on departure).
    pub fn deregister(&mut self, channel: ChannelId, id: PeerId) {
        if let Some(st) = self.channels.get_mut(&channel) {
            if st.member_set.remove(&id) {
                st.members.retain(|&m| m != id);
                if let Some(isp) = self.isps.remove(&id) {
                    if let Some(v) = st.members_by_isp.get_mut(&isp) {
                        v.retain(|&m| m != id);
                    }
                }
            }
            if st.volunteer_set.remove(&id) {
                st.volunteers.retain(|&m| m != id);
            }
        }
    }

    /// Marks a peer as able to receive new connections.
    pub fn volunteer(&mut self, channel: ChannelId, id: PeerId) {
        let st = self.channels.entry(channel).or_default();
        if st.member_set.contains(&id) && st.volunteer_set.insert(id) {
            st.volunteers.push(id);
        }
    }

    /// Removes a peer from the volunteer list (its capacity filled
    /// up).
    pub fn unvolunteer(&mut self, channel: ChannelId, id: PeerId) {
        if let Some(st) = self.channels.get_mut(&channel) {
            if st.volunteer_set.remove(&id) {
                st.volunteers.retain(|&m| m != id);
            }
        }
    }

    /// Number of members in a channel.
    pub fn member_count(&self, channel: ChannelId) -> usize {
        self.channels.get(&channel).map_or(0, |s| s.members.len())
    }

    /// Number of volunteers in a channel.
    pub fn volunteer_count(&self, channel: ChannelId) -> usize {
        self.channels
            .get(&channel)
            .map_or(0, |s| s.volunteers.len())
    }

    /// Number of members of `isp` in a channel.
    pub fn member_count_in_isp(&self, channel: ChannelId, isp: Isp) -> usize {
        self.channels
            .get(&channel)
            .and_then(|s| s.members_by_isp.get(&isp))
            .map_or(0, |v| v.len())
    }

    /// Draws up to `want` bootstrap partners for `joiner` under
    /// `policy` into `scratch`, returning them in draw order. Never
    /// returns `joiner` itself or duplicates.
    #[allow(clippy::too_many_arguments)]
    pub fn bootstrap<'s, R: rand::Rng + ?Sized>(
        &self,
        channel: ChannelId,
        joiner: PeerId,
        joiner_isp: Isp,
        want: usize,
        policy: BootstrapPolicy,
        rng: &mut R,
        scratch: &'s mut BootstrapScratch,
    ) -> &'s [PeerId] {
        scratch.picked.clear();
        let Some(st) = self.channels.get(&channel) else {
            return &scratch.picked;
        };
        if policy.locality_fraction > 0.0 {
            let local_want = ((want as f64) * policy.locality_fraction).round() as usize;
            if let Some(local) = st.members_by_isp.get(&joiner_isp) {
                sample_into(local, local_want, joiner, scratch, rng);
            }
        }
        if policy.use_volunteers {
            sample_into(&st.volunteers, want, joiner, scratch, rng);
        }
        if scratch.picked.len() < want {
            sample_into(&st.members, want, joiner, scratch, rng);
        }
        &scratch.picked
    }
}

/// Reusable buffers of [`Tracker::bootstrap`], owned by the caller so
/// that a warm bootstrap allocates nothing.
#[derive(Debug, Default)]
pub struct BootstrapScratch {
    /// The partners drawn by the latest call, in draw order. Doubles
    /// as the "already handed out" set: a list of at most `want`
    /// (≈ 50) ids is cheaper to scan than any set is to maintain.
    picked: Vec<PeerId>,
    /// Index permutation of the small-pool shuffle.
    order: Vec<usize>,
}

/// Ordered snapshot of one channel's tracking state.
///
/// The list orders are semantically significant: bootstrap samples
/// members and volunteers *by index*, so a resumed run only replays
/// the same draws if the lists come back in the exact live order —
/// which is why the snapshot keeps `Vec`s rather than sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// The channel.
    pub channel: ChannelId,
    /// Member list, in registration order.
    pub members: Vec<PeerId>,
    /// Volunteer list, in volunteering order.
    pub volunteers: Vec<PeerId>,
}

/// Ordered snapshot of the whole tracker — checkpoint capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackerSnapshot {
    /// Per-channel state, one entry per known channel.
    pub channels: Vec<ChannelSnapshot>,
    /// ISP of every registered peer (sorted by peer id).
    pub isps: Vec<(PeerId, Isp)>,
}

impl Tracker {
    /// Captures an ordered snapshot of the tracker (see
    /// [`TrackerSnapshot`]).
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            channels: self
                .lists()
                .map(|(channel, members, volunteers)| ChannelSnapshot {
                    channel,
                    members: members.to_vec(),
                    volunteers: volunteers.to_vec(),
                })
                .collect(),
            isps: self.isp_entries().collect(),
        }
    }

    /// Per channel, in id order: its member and volunteer lists in
    /// their live order — what a snapshot copies and a checkpoint
    /// encodes.
    pub(crate) fn lists(
        &self,
    ) -> impl ExactSizeIterator<Item = (ChannelId, &[PeerId], &[PeerId])> + '_ {
        self.channels
            .iter()
            .map(|(&channel, st)| (channel, &st.members[..], &st.volunteers[..]))
    }

    /// The ISP of every registered peer, by peer id.
    pub(crate) fn isp_entries(&self) -> impl ExactSizeIterator<Item = (PeerId, Isp)> + '_ {
        self.isps.iter().map(|(&id, &isp)| (id, isp))
    }

    /// Rebuilds a tracker from a snapshot, reproducing every list in
    /// its captured order (including the per-ISP member indices,
    /// which are re-derived by replaying registrations in member
    /// order — exactly how the live tracker built them).
    pub fn restore(snap: &TrackerSnapshot) -> Self {
        let isps: BTreeMap<PeerId, Isp> = snap.isps.iter().copied().collect();
        let mut channels: BTreeMap<ChannelId, ChannelState> = BTreeMap::new();
        for ch in &snap.channels {
            let mut st = ChannelState::default();
            for &id in &ch.members {
                if st.member_set.insert(id) {
                    st.members.push(id);
                    if let Some(&isp) = isps.get(&id) {
                        st.members_by_isp.entry(isp).or_default().push(id);
                    }
                }
            }
            for &id in &ch.volunteers {
                if st.member_set.contains(&id) && st.volunteer_set.insert(id) {
                    st.volunteers.push(id);
                }
            }
            channels.insert(ch.channel, st);
        }
        Tracker { channels, isps }
    }
}

/// Reservoir-free partial sample: randomly probes `pool` (bounded
/// tries) and fills `scratch.picked` up to `want` with entries that
/// are neither `joiner` nor already picked, falling back to a shuffled
/// scan when the pool is small relative to the deficit.
fn sample_into<R: rand::Rng + ?Sized>(
    pool: &[PeerId],
    want: usize,
    joiner: PeerId,
    scratch: &mut BootstrapScratch,
    rng: &mut R,
) {
    let BootstrapScratch { picked, order } = scratch;
    if pool.is_empty() || picked.len() >= want {
        return;
    }
    // Saturating arithmetic throughout: a drained channel or a
    // pathological `want` (e.g. a caller passing `usize::MAX` to mean
    // "everyone") must degrade to a short list, never overflow the
    // deficit/try budget math or spin.
    let small_pool = pool.len() <= (want - picked.len()).saturating_mul(2);
    // Accepts `cand` unless already handed out; reports "list full".
    let mut offer = |cand: PeerId| {
        if cand != joiner && !picked.contains(&cand) {
            picked.push(cand);
        }
        picked.len() >= want
    };
    if small_pool {
        order.clear();
        order.extend(0..pool.len());
        // lint:allow(H3): full shuffle over the small pool admitted by the branch above
        for i in 0..order.len() {
            let j = rng.random_range(i..order.len());
            order.swap(i, j);
        }
        for &i in order.iter() {
            if offer(pool[i]) {
                break;
            }
        }
        return;
    }
    for _ in 0..want.saturating_mul(8) {
        if offer(pool[rng.random_range(0..pool.len())]) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::RngFactory;

    const CH: ChannelId = ChannelId::CCTV1;

    fn plain() -> BootstrapPolicy {
        BootstrapPolicy::default()
    }

    /// One bootstrap on channel `CH` through a cold scratch.
    fn boot(
        t: &Tracker,
        joiner: PeerId,
        isp: Isp,
        want: usize,
        policy: BootstrapPolicy,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<PeerId> {
        t.bootstrap(
            CH,
            joiner,
            isp,
            want,
            policy,
            rng,
            &mut BootstrapScratch::default(),
        )
        .to_vec()
    }

    #[test]
    fn register_is_idempotent() {
        let mut t = Tracker::new();
        t.register(CH, PeerId(1), Isp::Telecom);
        t.register(CH, PeerId(1), Isp::Telecom);
        assert_eq!(t.member_count(CH), 1);
        assert_eq!(t.member_count_in_isp(CH, Isp::Telecom), 1);
    }

    #[test]
    fn deregister_clears_all_indices() {
        let mut t = Tracker::new();
        t.register(CH, PeerId(1), Isp::Netcom);
        t.volunteer(CH, PeerId(1));
        t.deregister(CH, PeerId(1));
        assert_eq!(t.member_count(CH), 0);
        assert_eq!(t.volunteer_count(CH), 0);
        assert_eq!(t.member_count_in_isp(CH, Isp::Netcom), 0);
    }

    #[test]
    fn volunteer_requires_membership() {
        let mut t = Tracker::new();
        t.volunteer(CH, PeerId(7));
        assert_eq!(t.volunteer_count(CH), 0);
    }

    #[test]
    fn unvolunteer_keeps_membership() {
        let mut t = Tracker::new();
        t.register(CH, PeerId(1), Isp::Telecom);
        t.volunteer(CH, PeerId(1));
        t.unvolunteer(CH, PeerId(1));
        assert_eq!(t.member_count(CH), 1);
        assert_eq!(t.volunteer_count(CH), 0);
    }

    #[test]
    fn bootstrap_excludes_joiner_and_dedupes() {
        let mut t = Tracker::new();
        for i in 0..10 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        let mut rng = RngFactory::new(1).fork("boot");
        let got = boot(&t, PeerId(3), Isp::Telecom, 50, plain(), &mut rng);
        assert!(got.len() <= 9);
        assert!(!got.contains(&PeerId(3)));
        let set: BTreeSet<_> = got.iter().collect();
        assert_eq!(set.len(), got.len());
    }

    #[test]
    fn bootstrap_prefers_volunteers() {
        let mut t = Tracker::new();
        for i in 0..100 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        for i in 0..5 {
            t.volunteer(CH, PeerId(i));
        }
        let mut rng = RngFactory::new(2).fork("boot");
        let got = boot(&t, PeerId(99), Isp::Telecom, 5, plain(), &mut rng);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|p| p.0 < 5), "got {got:?}");
    }

    #[test]
    fn bootstrap_pads_with_members_beyond_volunteers() {
        let mut t = Tracker::new();
        for i in 0..30 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        t.volunteer(CH, PeerId(0));
        let mut rng = RngFactory::new(3).fork("boot");
        let got = boot(&t, PeerId(29), Isp::Telecom, 10, plain(), &mut rng);
        assert_eq!(got.len(), 10);
        assert!(got.contains(&PeerId(0)));
    }

    #[test]
    fn volunteer_ablation_draws_uniformly() {
        let mut t = Tracker::new();
        for i in 0..200 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        t.volunteer(CH, PeerId(0));
        let mut rng = RngFactory::new(4).fork("boot");
        let policy = BootstrapPolicy {
            use_volunteers: false,
            ..plain()
        };
        let got = boot(&t, PeerId(199), Isp::Telecom, 3, policy, &mut rng);
        assert_eq!(got.len(), 3);
        assert!(!got.contains(&PeerId(199)));
    }

    #[test]
    fn bootstrap_on_empty_channel_is_empty() {
        let t = Tracker::new();
        let mut rng = RngFactory::new(5).fork("boot");
        assert!(boot(&t, PeerId(0), Isp::Telecom, 50, plain(), &mut rng).is_empty());
    }

    #[test]
    fn bootstrap_on_drained_channel_is_empty() {
        // Regression: every member crashed / deregistered mid-outage.
        // The channel state still exists but all pools are empty; the
        // request must return cleanly, not panic or spin.
        let mut t = Tracker::new();
        for i in 0..20 {
            t.register(CH, PeerId(i), Isp::Telecom);
            t.volunteer(CH, PeerId(i));
        }
        for i in 0..20 {
            t.deregister(CH, PeerId(i));
        }
        let mut rng = RngFactory::new(9).fork("boot");
        assert!(boot(&t, PeerId(99), Isp::Telecom, 50, plain(), &mut rng).is_empty());
    }

    #[test]
    fn bootstrap_when_only_the_joiner_remains_is_empty() {
        let mut t = Tracker::new();
        t.register(CH, PeerId(5), Isp::Netcom);
        let mut rng = RngFactory::new(10).fork("boot");
        let got = boot(&t, PeerId(5), Isp::Netcom, 50, plain(), &mut rng);
        assert!(got.is_empty(), "joiner handed itself: {got:?}");
    }

    #[test]
    fn pathological_want_saturates_instead_of_overflowing() {
        // Regression: `want * 8` / `(want - out.len()) * 2` overflowed
        // in debug builds for huge requests; the request must degrade
        // to "everyone available" without panicking or allocating
        // `usize::MAX` capacity.
        let mut t = Tracker::new();
        for i in 0..7 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        let mut rng = RngFactory::new(11).fork("boot");
        let got = boot(&t, PeerId(0), Isp::Telecom, usize::MAX, plain(), &mut rng);
        assert_eq!(got.len(), 6);
        let locality = BootstrapPolicy {
            use_volunteers: false,
            locality_fraction: 0.9,
        };
        let got = boot(&t, PeerId(0), Isp::Telecom, usize::MAX, locality, &mut rng);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn bootstrap_is_deterministic_in_seed() {
        let mut t = Tracker::new();
        for i in 0..500 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        let draw = || {
            let mut rng = RngFactory::new(6).fork("b");
            boot(&t, PeerId(0), Isp::Telecom, 50, plain(), &mut rng)
        };
        let (a, b) = (draw(), draw());
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn locality_policy_biases_toward_joiner_isp() {
        let mut t = Tracker::new();
        // 100 Telecom members, 100 Netcom members.
        for i in 0..100 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        for i in 100..200 {
            t.register(CH, PeerId(i), Isp::Netcom);
        }
        let mut rng = RngFactory::new(7).fork("boot");
        let policy = BootstrapPolicy {
            use_volunteers: false,
            locality_fraction: 0.7,
        };
        let got = boot(&t, PeerId(0), Isp::Telecom, 40, policy, &mut rng);
        assert_eq!(got.len(), 40);
        let telecom = got.iter().filter(|p| p.0 < 100).count();
        assert!(
            telecom >= 28,
            "locality bootstrap gave only {telecom}/40 same-ISP partners"
        );
    }

    #[test]
    fn locality_falls_back_when_isp_is_thin() {
        let mut t = Tracker::new();
        // Joiner's ISP has only 2 members; the rest are elsewhere.
        t.register(CH, PeerId(0), Isp::Edu);
        t.register(CH, PeerId(1), Isp::Edu);
        for i in 2..50 {
            t.register(CH, PeerId(i), Isp::Telecom);
        }
        let mut rng = RngFactory::new(8).fork("boot");
        let policy = BootstrapPolicy {
            use_volunteers: false,
            locality_fraction: 0.9,
        };
        let got = boot(&t, PeerId(0), Isp::Edu, 20, policy, &mut rng);
        assert_eq!(got.len(), 20, "fallback did not fill the request");
        assert!(got.contains(&PeerId(1)));
    }
}
