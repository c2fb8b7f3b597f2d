//! Deterministic transport-chaos schedules for the ingest drills.
//!
//! The `tracetool nemesis` proxy sits between `magellan-traced drive`
//! and `serve` on each TCP connection and injects transport hostility
//! — latency, partial and coalesced writes, byte flips, connection
//! resets, half-open stalls, mid-stream kills. *What* it injects and
//! *when* is decided here, in pure seeded arithmetic: a
//! [`FlowSchedule`] is a function of `(seed, flow index)` alone, so
//! the same seed reproduces the same hostility byte for byte — a
//! failing chaos drill is a replayable artifact, not an anecdote.
//!
//! The module is sans-I/O by construction (no sockets, no clocks, no
//! threads): the proxy shell asks [`FlowSchedule::next_action`] what
//! to do with each chunk it reads and performs the corresponding
//! socket mischief itself.

use crate::rng::RngFactory;
use rand::rngs::StdRng;
use rand::RngExt;

/// Per-event injection probabilities (parts per mille of transport
/// events — one chunk read from the client's stream) plus the
/// magnitudes the injected faults use. Probabilities are evaluated in
/// a fixed severity order (see [`FlowSchedule::next_action`]); they
/// should sum to at most 1000, the remainder being clean delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosProfile {
    /// Probability of delaying a chunk, per mille.
    pub delay_pm: u16,
    /// Maximum injected delay in milliseconds (uniform in
    /// `1..=delay_max_ms`).
    pub delay_max_ms: u16,
    /// Probability of splitting a chunk into two partial writes.
    pub split_pm: u16,
    /// Probability of withholding a chunk to coalesce with the next.
    pub coalesce_pm: u16,
    /// Probability of flipping one bit of the chunk (corruption).
    pub flip_pm: u16,
    /// Probability of resetting the connection, discarding the chunk.
    pub reset_pm: u16,
    /// Probability of a half-open stall before delivery (slowloris).
    pub stall_pm: u16,
    /// Stall duration in milliseconds.
    pub stall_ms: u16,
    /// Probability of killing the connection *after* delivering the
    /// chunk — the peer sees a clean-looking EOF mid-conversation.
    pub kill_pm: u16,
}

impl ChaosProfile {
    /// No injected hostility: every event delivers cleanly.
    pub fn off() -> Self {
        ChaosProfile {
            delay_pm: 0,
            delay_max_ms: 0,
            split_pm: 0,
            coalesce_pm: 0,
            flip_pm: 0,
            reset_pm: 0,
            stall_pm: 0,
            stall_ms: 0,
            kill_pm: 0,
        }
    }

    /// The TCP chaos drill: pacing hostility (latency, fragmentation,
    /// coalescing, stalls) plus connection death (resets, kills), but
    /// no corruption — a framed byte stream that survives this must
    /// deliver exactly the clean run's reports, so the drill can
    /// assert replay equality, with resets costing only reconnects.
    pub fn tcp_drill() -> Self {
        ChaosProfile {
            delay_pm: 40,
            delay_max_ms: 2,
            split_pm: 150,
            coalesce_pm: 100,
            stall_pm: 4,
            stall_ms: 25,
            reset_pm: 2,
            kill_pm: 1,
            ..ChaosProfile::off()
        }
    }
}

/// One scheduled fault decision for one transport event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Deliver the chunk unmodified.
    Deliver,
    /// Sleep `ms`, then deliver.
    Delay {
        /// Injected latency in milliseconds.
        ms: u16,
    },
    /// Write the chunk as two partial writes, split at `at_pm`
    /// per-mille of its length (clamped to a non-empty prefix).
    SplitAt {
        /// Split point, per mille of the chunk length.
        at_pm: u16,
    },
    /// Withhold the chunk and prepend it to the next delivery.
    Coalesce,
    /// Flip bit `bit` of the byte at `offset` modulo the chunk
    /// length, then deliver the corrupted chunk.
    FlipBit {
        /// Byte offset before reduction modulo chunk length.
        offset: u32,
        /// Bit index, `0..8`.
        bit: u8,
    },
    /// Abort the connection now; the chunk dies with it.
    Reset,
    /// Half-open stall: hold the chunk for `ms` with the connection
    /// open and silent, then deliver (slowloris pressure).
    Stall {
        /// Stall duration in milliseconds.
        ms: u16,
    },
    /// Deliver the chunk, then kill the connection.
    Kill,
}

/// The seeded fault schedule of one proxied flow.
///
/// Deterministic: the action sequence is a pure function of
/// `(seed, flow, profile)`. Flows fork independent RNG streams
/// ([`RngFactory::fork_indexed`]), so adding a flow never perturbs
/// the schedule of another.
#[derive(Debug)]
pub struct FlowSchedule {
    profile: ChaosProfile,
    rng: StdRng,
}

impl FlowSchedule {
    /// The schedule of flow number `flow` under `seed`.
    pub fn new(seed: u64, flow: u64, profile: ChaosProfile) -> Self {
        FlowSchedule {
            profile,
            rng: RngFactory::new(seed).fork_indexed("chaos-flow", flow),
        }
    }

    /// Decides the fate of the next transport event. Faults are
    /// tested in fixed severity order — kill, reset, stall, flip,
    /// coalesce, split, delay — and the remaining probability mass
    /// delivers cleanly.
    pub fn next_action(&mut self) -> ChaosAction {
        let p = self.profile;
        let roll: u16 = self.rng.random_range(0..1000);
        let mut edge = 0u16;
        let mut hit = |pm: u16| {
            edge = edge.saturating_add(pm);
            roll < edge
        };
        if hit(p.kill_pm) {
            return ChaosAction::Kill;
        }
        if hit(p.reset_pm) {
            return ChaosAction::Reset;
        }
        if hit(p.stall_pm) {
            return ChaosAction::Stall { ms: p.stall_ms };
        }
        if hit(p.flip_pm) {
            let offset = self.rng.random_range(0..=u32::from(u16::MAX));
            let bit = self.rng.random_range(0..8u8);
            return ChaosAction::FlipBit { offset, bit };
        }
        if hit(p.coalesce_pm) {
            return ChaosAction::Coalesce;
        }
        if hit(p.split_pm) {
            let at_pm = self.rng.random_range(1..1000u16);
            return ChaosAction::SplitAt { at_pm };
        }
        if hit(p.delay_pm) {
            let ms = self.rng.random_range(1..=p.delay_max_ms.max(1));
            return ChaosAction::Delay { ms };
        }
        ChaosAction::Deliver
    }
}

/// Renders the first `events` decisions of `flows` flows as a stable
/// text table — the `tracetool nemesis --print-schedule` output and
/// the byte-for-byte reproducibility witness of the chaos drill.
pub fn render_schedule(seed: u64, profile: ChaosProfile, flows: u64, events: u32) -> String {
    let mut out = String::new();
    out.push_str(&format!("chaos schedule seed {seed}\n"));
    for flow in 0..flows {
        let mut sched = FlowSchedule::new(seed, flow, profile);
        out.push_str(&format!("flow {flow}:"));
        for _ in 0..events {
            out.push_str(&format!(" {:?}", sched.next_action()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_different_seed_different() {
        let mut a = FlowSchedule::new(9, 0, ChaosProfile::tcp_drill());
        let mut b = FlowSchedule::new(9, 0, ChaosProfile::tcp_drill());
        let sa: Vec<ChaosAction> = (0..512).map(|_| a.next_action()).collect();
        let sb: Vec<ChaosAction> = (0..512).map(|_| b.next_action()).collect();
        assert_eq!(sa, sb, "same (seed, flow) must schedule identically");

        let mut c = FlowSchedule::new(10, 0, ChaosProfile::tcp_drill());
        let sc: Vec<ChaosAction> = (0..512).map(|_| c.next_action()).collect();
        assert_ne!(sa, sc, "different seeds should diverge");

        let mut d = FlowSchedule::new(9, 1, ChaosProfile::tcp_drill());
        let sd: Vec<ChaosAction> = (0..512).map(|_| d.next_action()).collect();
        assert_ne!(sa, sd, "different flows should diverge");
    }

    /// The `flow N:` lines of `render_schedule` (seed 9, 4 flows × 64
    /// events — what `tracetool nemesis --print-schedule 64 --flows 4
    /// --seed 9` prints) are pinned by FNV-1a for the TCP drill and
    /// for `off`: a failing chaos drill names a seed, and the seed
    /// must keep reproducing the same hostility.
    #[test]
    fn stream_schedules_are_pinned() {
        let flow_lines = |profile| {
            let text = render_schedule(9, profile, 4, 64);
            let (_header, flows) = text.split_once('\n').unwrap_or_default();
            assert_eq!(flows.lines().count(), 4);
            crate::rng::fnv1a(flows)
        };
        assert_eq!(flow_lines(ChaosProfile::tcp_drill()), 0x6750_76b2_4d46_0af8);
        assert_eq!(flow_lines(ChaosProfile::off()), 0x1448_2c84_f58f_7a39);
    }

    #[test]
    fn off_profile_always_delivers_and_drills_inject() {
        let mut off = FlowSchedule::new(7, 0, ChaosProfile::off());
        for _ in 0..1024 {
            assert_eq!(off.next_action(), ChaosAction::Deliver);
        }
        let mut tcp = FlowSchedule::new(7, 0, ChaosProfile::tcp_drill());
        let actions: Vec<ChaosAction> = (0..4096).map(|_| tcp.next_action()).collect();
        assert!(actions
            .iter()
            .any(|a| matches!(a, ChaosAction::SplitAt { .. })));
        assert!(actions.contains(&ChaosAction::Coalesce));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ChaosAction::FlipBit { .. })),
            "the TCP drill must not corrupt (replay equality depends on it)"
        );
    }

    #[test]
    fn rendered_schedule_is_reproducible_and_structured() {
        let a = render_schedule(42, ChaosProfile::tcp_drill(), 4, 64);
        let b = render_schedule(42, ChaosProfile::tcp_drill(), 4, 64);
        assert_eq!(a, b, "schedule rendering must be byte-for-byte stable");
        assert!(a.starts_with("chaos schedule seed 42"));
        assert_eq!(a.lines().count(), 5, "header plus one line per flow");
        let c = render_schedule(43, ChaosProfile::tcp_drill(), 4, 64);
        assert_ne!(a, c);
    }

    #[test]
    fn split_points_and_delays_stay_in_range() {
        let mut sched = FlowSchedule::new(11, 2, ChaosProfile::tcp_drill());
        for _ in 0..4096 {
            match sched.next_action() {
                ChaosAction::SplitAt { at_pm } => assert!((1..1000).contains(&at_pm)),
                ChaosAction::Delay { ms } => assert!((1..=2).contains(&ms)),
                ChaosAction::FlipBit { bit, .. } => assert!(bit < 8),
                _ => {}
            }
        }
    }
}
