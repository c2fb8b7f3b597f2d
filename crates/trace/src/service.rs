//! The sans-I/O brain of the networked ingest service.
//!
//! `magellan-traced` is a thin socket shell; everything with protocol
//! meaning lives here so it can be driven deterministically in tests:
//!
//! * [`ClientRegistry`] — who is participating, how far each client's
//!   window marks have advanced, who has finished and how many report
//!   datagrams they put on the wire;
//! * [`ServiceCore`] — routes reports to [`Shard`]s, sequences the
//!   window-boundary merges (a window seals only after *every*
//!   client's mark passes it, so per-connection FIFO plus shard-queue
//!   FIFO guarantee no report of that window is still in flight), and
//!   reconciles the final [`IngestStats`];
//! * [`IngestStats`] — the balanced service accounting, persisted
//!   next to the archive as the `INGEST` sidecar so `magellan replay`
//!   and `tracetool stats` can fold it into the [`StudyReport`]
//!   without re-running the drill.
//!
//! The merge discipline is what keeps the networked run equal to the
//! in-process study: each sealed window is sorted by `(time, addr)`
//! and windows seal in increasing order, so the archive is globally
//! `(time, addr)`-sorted — the canonical order the analysis
//! accumulator is provably insensitive to (DESIGN.md §13).
//!
//! [`StudyReport`]: ../../magellan_analysis/figures/struct.StudyReport.html

use crate::archive::{ArchiveConfig, ArchiveSummary, ArchiveWriter, Commit};
use crate::atomicio::atomic_write;
use crate::codec::{peek_report_addr, ClientMsg, ReplyMsg};
use crate::report::PeerReport;
use crate::shard::{shard_of, Shard, ShardStats};
use crate::wire::StatusCode;
use magellan_netsim::SimTime;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the ingest-accounting sidecar, written next to the
/// archive directory's segments.
pub const INGEST_SIDECAR: &str = "INGEST";

/// File name of the crash-resume sidecar `serve` checkpoints after
/// every sealed merge; `serve --resume` rebuilds its books from it.
pub const INGEST_RESUME: &str = "INGEST.resume";

/// Service-wide ingest accounting: the sum of every shard's
/// [`ShardStats`] plus the client-reported send counts that close the
/// books. The balance identity is
/// `sent + surplus == admitted + deduped + shed() + lost`: on a clean
/// drill `surplus == 0` and this reduces to the classic
/// `sent == admitted + … + lost`; under a hostile transport the
/// service can classify *more* datagrams than the clients ever
/// reported sending — chaos-injected duplicates, clients that died
/// before their `Finish`, or a crash-resume that re-received reports
/// already counted by the previous incarnation — and that excess is
/// `surplus = received() - sent`, attributed instead of dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Clients that participated in the drill.
    pub clients: u32,
    /// Report datagrams clients put on the wire (sum of `Finish`
    /// counts, retransmissions included).
    pub sent: u64,
    /// Fresh reports admitted and archived.
    pub admitted: u64,
    /// Duplicate retransmissions absorbed idempotently.
    pub deduped: u64,
    /// Reports shed with `Busy` under overload.
    pub shed_busy: u64,
    /// Reports rejected by validation.
    pub rejected: u64,
    /// Datagrams that failed wire decoding.
    pub malformed: u64,
    /// Fresh reports shed behind the sealed merge frontier.
    pub late: u64,
    /// Reports bounced by scheduled downtime (zero in service mode).
    pub unavailable: u64,
    /// Reports throttled by the per-client token bucket
    /// ([`TokenBucket`]) — transient, the client retries.
    pub rate_limited: u64,
    /// Datagrams that left a client but never produced a server-side
    /// classification — dropped in flight (UDP) or lost with a dying
    /// connection. Derived: `sent - received()`.
    pub lost: u64,
    /// Datagrams classified beyond what clients reported sending —
    /// chaos duplicates, evicted clients' traffic, or re-received
    /// reports after a crash-resume. Derived: `received() - sent`.
    pub surplus: u64,
    /// Expected clients evicted at the barrier deadline (stalled or
    /// vanished) — windows sealed partial without their marks.
    pub evicted: u64,
    /// Window merges the coordinator sealed.
    pub merges: u64,
    /// Control messages that violated the protocol (unknown client
    /// id, inconsistent client count) — drill debugging.
    pub protocol_errors: u64,
}

impl IngestStats {
    /// Everything the service classified (the receive-side total).
    pub fn received(&self) -> u64 {
        self.admitted
            + self.deduped
            + self.shed_busy
            + self.rejected
            + self.malformed
            + self.late
            + self.unavailable
            + self.rate_limited
    }

    /// Total shed/rejected datagrams — the `shed` term of the balance
    /// identity.
    pub fn shed(&self) -> u64 {
        self.shed_busy
            + self.rejected
            + self.malformed
            + self.late
            + self.unavailable
            + self.rate_limited
    }

    /// Whether the books balance: every datagram a client sent is
    /// admitted, deduped, shed, or lost — and every datagram the
    /// service classified beyond the clients' send counts is carried
    /// as `surplus`, never silently absorbed.
    pub fn balanced(&self) -> bool {
        self.sent + self.surplus == self.admitted + self.deduped + self.shed() + self.lost
    }

    /// Closes the books against the clients' own send counts:
    /// datagrams that never classified are `lost`; classifications
    /// beyond what this incarnation's clients sent (chaos duplicates,
    /// evicted clients' traffic, crash-resume re-receives) are
    /// `surplus`.
    pub fn reconcile(&mut self, sent: u64) {
        self.sent = sent;
        self.lost = sent.saturating_sub(self.received());
        self.surplus = self.received().saturating_sub(sent);
    }

    /// Renders the stable key-value sidecar format (v2; the v1 reader
    /// keys remain untouched, the hostile-transport columns are
    /// appended).
    pub fn render(&self) -> String {
        format!(
            "ingest v2\nclients {}\nsent {}\nadmitted {}\ndeduped {}\nshed_busy {}\n\
             rejected {}\nmalformed {}\nlate {}\nunavailable {}\nlost {}\nmerges {}\n\
             protocol_errors {}\nrate_limited {}\nsurplus {}\nevicted {}\n",
            self.clients,
            self.sent,
            self.admitted,
            self.deduped,
            self.shed_busy,
            self.rejected,
            self.malformed,
            self.late,
            self.unavailable,
            self.lost,
            self.merges,
            self.protocol_errors,
            self.rate_limited,
            self.surplus,
            self.evicted,
        )
    }

    /// Parses [`IngestStats::render`] output — v2, or a v1 sidecar
    /// written before the hostile-transport columns existed (the new
    /// columns read as 0). `None` on any structural mismatch.
    pub fn parse(text: &str) -> Option<IngestStats> {
        let mut lines = text.lines();
        if !matches!(lines.next()?, "ingest v1" | "ingest v2") {
            return None;
        }
        let mut fields: BTreeMap<&str, u64> = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ')?;
            fields.insert(key, value.parse().ok()?);
        }
        let mut get = |k: &str| fields.remove(k);
        Some(IngestStats {
            clients: u32::try_from(get("clients")?).ok()?,
            sent: get("sent")?,
            admitted: get("admitted")?,
            deduped: get("deduped")?,
            shed_busy: get("shed_busy")?,
            rejected: get("rejected")?,
            malformed: get("malformed")?,
            late: get("late")?,
            unavailable: get("unavailable")?,
            lost: get("lost")?,
            merges: get("merges")?,
            protocol_errors: get("protocol_errors")?,
            rate_limited: get("rate_limited").unwrap_or(0),
            surplus: get("surplus").unwrap_or(0),
            evicted: get("evicted").unwrap_or(0),
        })
    }
}

/// A deterministic integer token bucket: `rate` tokens per second
/// refill, at most `burst` banked, one token per admitted datagram.
/// Pure arithmetic over a caller-supplied millisecond clock — the
/// shell feeds wall time, tests feed a counter.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst_milli: u64,
    tokens_milli: u64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` (0 disables limiting)
    /// with at most `burst` tokens banked (clamped to at least 1),
    /// starting full.
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        let burst_milli = burst.max(1).saturating_mul(1000);
        TokenBucket {
            rate_per_sec,
            burst_milli,
            tokens_milli: burst_milli,
            last_ms: 0,
        }
    }

    /// Spends one token at `now_ms` if the bucket allows it; `false`
    /// means the caller should answer [`StatusCode::RateLimited`].
    /// `now_ms` must be monotone per bucket (a rewound clock just
    /// refills nothing).
    pub fn try_admit(&mut self, now_ms: u64) -> bool {
        if self.rate_per_sec == 0 {
            return true;
        }
        let elapsed = now_ms.saturating_sub(self.last_ms);
        self.last_ms = self.last_ms.max(now_ms);
        self.tokens_milli = self
            .tokens_milli
            .saturating_add(elapsed.saturating_mul(self.rate_per_sec))
            .min(self.burst_milli);
        if self.tokens_milli >= 1000 {
            self.tokens_milli -= 1000;
            true
        } else {
            false
        }
    }
}

/// Writes the ingest sidecar atomically into `archive_dir`.
///
/// # Errors
///
/// Filesystem I/O failure.
pub fn write_ingest_stats(archive_dir: &Path, stats: &IngestStats) -> io::Result<()> {
    atomic_write(&archive_dir.join(INGEST_SIDECAR), stats.render().as_bytes())
}

/// Reads the ingest sidecar from `archive_dir`; `Ok(None)` when the
/// archive was not produced by the networked service (no sidecar) or
/// the sidecar is unreadable as stats.
///
/// # Errors
///
/// Filesystem I/O failure other than the file not existing.
pub fn read_ingest_stats(archive_dir: &Path) -> io::Result<Option<IngestStats>> {
    match std::fs::read_to_string(archive_dir.join(INGEST_SIDECAR)) {
        Ok(text) => Ok(IngestStats::parse(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Participation bookkeeping: hellos, window marks, finish counts —
/// and liveness. Every control message `touch`es its client; a client
/// quiet past the barrier deadline is *evicted* so the merge barrier
/// degrades to the survivors instead of wedging [`ready_below`]
/// forever on a peer that died mid-drill. Eviction is reversible: a
/// touched client rejoins the barrier (its mark never regressed).
///
/// [`ready_below`]: ClientRegistry::ready_below
#[derive(Debug)]
pub struct ClientRegistry {
    expected: u32,
    marks: BTreeMap<u32, SimTime>,
    finished: BTreeMap<u32, u64>,
    evicted: std::collections::BTreeSet<u32>,
    last_seen_ms: BTreeMap<u32, u64>,
    protocol_errors: u64,
}

impl ClientRegistry {
    /// A registry expecting `expected` clients (at least 1).
    pub fn new(expected: u32) -> Self {
        ClientRegistry {
            expected: expected.max(1),
            marks: BTreeMap::new(),
            finished: BTreeMap::new(),
            evicted: std::collections::BTreeSet::new(),
            last_seen_ms: BTreeMap::new(),
            protocol_errors: 0,
        }
    }

    fn valid_id(&mut self, client_id: u32) -> bool {
        if client_id < self.expected {
            true
        } else {
            self.protocol_errors += 1;
            false
        }
    }

    /// Registers a hello; the client starts with a mark at the
    /// origin. A `clients` count disagreeing with the server's
    /// configuration is a protocol error (the drill would deadlock on
    /// a barrier the extra client never marks).
    pub fn hello(&mut self, client_id: u32, clients: u32) {
        if clients != self.expected || !self.valid_id(client_id) {
            self.protocol_errors += 1;
            return;
        }
        self.marks.entry(client_id).or_insert(SimTime::ORIGIN);
        self.evicted.remove(&client_id);
    }

    /// Advances a client's sent-everything-below frontier (marks
    /// never regress). A marked client is alive: eviction is undone.
    pub fn mark(&mut self, client_id: u32, up_to: SimTime) {
        if !self.valid_id(client_id) {
            return;
        }
        let m = self.marks.entry(client_id).or_insert(SimTime::ORIGIN);
        if up_to > *m {
            *m = up_to;
        }
        self.evicted.remove(&client_id);
    }

    /// Records a client's final datagram count. A finished client is
    /// no longer evicted — it completed, however slowly.
    pub fn finish(&mut self, client_id: u32, sent: u64) {
        if !self.valid_id(client_id) {
            return;
        }
        self.finished.insert(client_id, sent);
        self.evicted.remove(&client_id);
    }

    /// Stamps a client's liveness clock (milliseconds on whatever
    /// monotone clock the shell uses). Touching revives an evicted
    /// client.
    pub fn touch(&mut self, client_id: u32, now_ms: u64) {
        if client_id < self.expected {
            self.last_seen_ms.insert(client_id, now_ms);
        }
    }

    /// Evicts every unfinished client whose last touch (or the
    /// drill's start, for clients that never arrived) is at least
    /// `deadline_ms` behind `now_ms`. Returns how many were newly
    /// evicted — the barrier then degrades to the survivors.
    pub fn evict_idle(&mut self, now_ms: u64, deadline_ms: u64) -> u32 {
        let mut newly = 0;
        for id in 0..self.expected {
            if self.finished.contains_key(&id) || self.evicted.contains(&id) {
                continue;
            }
            let last = self.last_seen_ms.get(&id).copied().unwrap_or(0);
            if now_ms.saturating_sub(last) >= deadline_ms {
                self.evicted.insert(id);
                newly += 1;
            }
        }
        newly
    }

    /// The barrier: the frontier below which every *live* expected
    /// client has sent everything. `None` until all live clients said
    /// hello (and `None` when eviction has emptied the barrier — the
    /// caller's `all_finished` check takes over).
    pub fn ready_below(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        for id in 0..self.expected {
            if self.evicted.contains(&id) {
                continue;
            }
            let m = self.marks.get(&id)?;
            min = Some(min.map_or(*m, |cur| cur.min(*m)));
        }
        min
    }

    /// Whether every expected client finished or was evicted.
    pub fn all_finished(&self) -> bool {
        (0..self.expected).all(|id| self.finished.contains_key(&id) || self.evicted.contains(&id))
    }

    /// Sum of the clients' reported datagram counts.
    pub fn total_sent(&self) -> u64 {
        self.finished.values().sum()
    }

    /// Clients currently evicted (stalled/vanished and not revived).
    pub fn evicted_count(&self) -> u64 {
        self.evicted.len() as u64
    }

    /// Protocol violations seen so far.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }
}

/// The crash-resume sidecar `serve` checkpoints after each sealed
/// merge: how many records the archive durably holds, the sealed
/// merge frontier, and the receive-side accounting accumulated by
/// this and every previous incarnation. On `--resume` the archive is
/// truncated to exactly `archived` records
/// ([`crate::archive::ArchiveWriter::resume`]), shards restart with
/// their frontier at `merged_below`, and the books continue from
/// `stats` — re-received datagrams land in `surplus`, never in the
/// archive twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceResume {
    /// Records durably in the archive at checkpoint time.
    pub archived: u64,
    /// The sealed merge frontier (milliseconds of sim time).
    pub merged_below_ms: u64,
    /// Receive-side accounting at checkpoint time (`sent`, `lost` and
    /// `surplus` stay 0 until final reconciliation).
    pub stats: IngestStats,
}

impl ServiceResume {
    /// Renders the stable sidecar format.
    pub fn render(&self) -> String {
        format!(
            "traced-resume v1\narchived {}\nmerged_below_ms {}\n{}",
            self.archived,
            self.merged_below_ms,
            self.stats.render()
        )
    }

    /// Makes `commit` durable and only then publishes this checkpoint
    /// into `archive_dir` — the one place the "cursor never ahead of
    /// durable records" order is written down. Called in seal order
    /// (the shell's durability lane is a FIFO), so a published cursor
    /// also vouches for every earlier commit.
    ///
    /// # Errors
    ///
    /// The sync or sidecar write failure; the sidecar is untouched
    /// when the commit did not complete.
    pub fn publish_after(&self, commit: Commit, archive_dir: &Path) -> io::Result<()> {
        debug_assert!(self.archived <= commit.records());
        commit.make_durable()?;
        write_service_resume(archive_dir, self)
    }

    /// Parses [`ServiceResume::render`] output. `None` on mismatch.
    pub fn parse(text: &str) -> Option<ServiceResume> {
        let mut lines = text.lines();
        if lines.next()? != "traced-resume v1" {
            return None;
        }
        let archived = lines.next()?.strip_prefix("archived ")?.parse().ok()?;
        let merged_below_ms = lines
            .next()?
            .strip_prefix("merged_below_ms ")?
            .parse()
            .ok()?;
        let rest: String = lines.map(|l| format!("{l}\n")).collect();
        Some(ServiceResume {
            archived,
            merged_below_ms,
            stats: IngestStats::parse(&rest)?,
        })
    }
}

/// Writes the resume sidecar atomically into `archive_dir`.
///
/// # Errors
///
/// Filesystem I/O failure.
pub fn write_service_resume(archive_dir: &Path, resume: &ServiceResume) -> io::Result<()> {
    atomic_write(&archive_dir.join(INGEST_RESUME), resume.render().as_bytes())
}

/// Reads the resume sidecar; `Ok(None)` when no checkpoint exists (a
/// crash before the first merge resumes from an empty archive).
///
/// # Errors
///
/// Filesystem I/O failure other than the file not existing.
pub fn read_service_resume(archive_dir: &Path) -> io::Result<Option<ServiceResume>> {
    match std::fs::read_to_string(archive_dir.join(INGEST_RESUME)) {
        Ok(text) => Ok(ServiceResume::parse(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Connection-plane shed counts the shell keeps outside the shards
/// (its readers answer these themselves), folded into the books at
/// every seal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShellSheds {
    /// Reports shed `Busy` because a shard FIFO was full.
    pub queue_shed: u64,
    /// Reports answered `RateLimited` by a token bucket.
    pub rate_limited: u64,
}

/// The coordinator's durable state: archive writer, merge frontier,
/// and the baseline books restored by `--resume` (all zero on a
/// fresh serve). The shell owns sockets, threads and queues; what a
/// seal *means* — merge, append, commit, checkpoint, final
/// reconciliation — is here.
#[derive(Debug)]
pub struct Books {
    archive_dir: PathBuf,
    writer: ArchiveWriter,
    merged_below: SimTime,
    /// Receive-side totals of the previous incarnation, with this
    /// incarnation's client count and the merges of both.
    base: IngestStats,
}

impl Books {
    /// Fresh books over a new archive in `archive_dir`.
    ///
    /// # Errors
    ///
    /// As [`ArchiveWriter::create`].
    pub fn create(archive_dir: &Path, cfg: ArchiveConfig, clients: u32) -> io::Result<Self> {
        Ok(Books {
            archive_dir: archive_dir.to_path_buf(),
            writer: ArchiveWriter::create(archive_dir, cfg)?,
            merged_below: SimTime::ORIGIN,
            base: IngestStats {
                clients,
                ..IngestStats::default()
            },
        })
    }

    /// Crash-resume: reopens the archive at the `INGEST.resume`
    /// cursor (truncating anything past it) and restores the merge
    /// frontier and the previous incarnation's books. No sidecar
    /// means the crash came before the first checkpoint: resume from
    /// an empty archive.
    ///
    /// # Errors
    ///
    /// Sidecar read failures and [`ArchiveWriter::resume`]'s.
    pub fn resume(archive_dir: &Path, cfg: ArchiveConfig, clients: u32) -> io::Result<Self> {
        let resume = read_service_resume(archive_dir)?.unwrap_or(ServiceResume {
            archived: 0,
            merged_below_ms: 0,
            stats: IngestStats::default(),
        });
        Ok(Books {
            archive_dir: archive_dir.to_path_buf(),
            writer: ArchiveWriter::resume(archive_dir, cfg, resume.archived)?,
            merged_below: SimTime::from_millis(resume.merged_below_ms),
            base: IngestStats {
                clients,
                ..resume.stats
            },
        })
    }

    /// Records landed in the archive, across incarnations.
    pub fn archived(&self) -> u64 {
        self.writer.records_written()
    }

    /// The sealed merge frontier.
    pub fn merged_below(&self) -> SimTime {
        self.merged_below
    }

    /// The barrier a seal is due at, if the registry's has advanced
    /// past the sealed frontier.
    pub fn seal_due(&self, registry: &ClientRegistry) -> Option<SimTime> {
        registry
            .ready_below()
            .filter(|ready| *ready > self.merged_below)
    }

    /// Seals one window: merges the shards' drains below `below` into
    /// the archive and takes the commit covering them, paired with
    /// the checkpoint that may be published once — and only once —
    /// that commit is durable ([`ServiceResume::publish_after`]).
    /// `shards` are the summed cumulative shard books as of the
    /// drain.
    ///
    /// # Errors
    ///
    /// Archive append/commit failures.
    pub fn seal_window(
        &mut self,
        below: SimTime,
        batches: Vec<Vec<PeerReport>>,
        registry: &ClientRegistry,
        shards: &ShardStats,
        sheds: ShellSheds,
    ) -> io::Result<(Commit, ServiceResume)> {
        self.merged_below = below;
        self.base.merges += 1;
        for r in &merge_sorted(batches) {
            self.writer.append(r)?;
        }
        let commit = self.writer.commit()?;
        let resume = ServiceResume {
            archived: commit.records(),
            merged_below_ms: below.as_millis(),
            stats: compose_books(&self.base, registry, shards, sheds),
        };
        Ok((commit, resume))
    }

    /// Closes the books: lands the final drain, finishes the archive
    /// (its last commit, made durable inline), reconciles against the
    /// clients' send counts and writes the `INGEST` sidecar. Every
    /// commit from [`Books::seal_window`] must have been published
    /// (or have failed) before this is called.
    ///
    /// # Errors
    ///
    /// Archive and sidecar I/O failures.
    pub fn close(
        mut self,
        batches: Vec<Vec<PeerReport>>,
        registry: &ClientRegistry,
        shards: &ShardStats,
        sheds: ShellSheds,
    ) -> io::Result<(ArchiveSummary, IngestStats)> {
        let (final_batch, stats) = close_books(batches, &self.base, registry, shards, sheds);
        for r in &final_batch {
            self.writer.append(r)?;
        }
        let summary = self.writer.finish()?;
        write_ingest_stats(&self.archive_dir, &stats)?;
        Ok((summary, stats))
    }
}

/// Receive-side totals right now: `base` (a previous incarnation's
/// totals, whose `clients` and `merges` are taken as they stand) + the
/// live shards + the reader-side shed counters. `sent`/`lost`/
/// `surplus` stay zero until the roster closes — they need the
/// registry's final word.
fn compose_books(
    base: &IngestStats,
    registry: &ClientRegistry,
    shards: &ShardStats,
    sheds: ShellSheds,
) -> IngestStats {
    IngestStats {
        clients: base.clients,
        sent: 0,
        admitted: base.admitted + shards.admitted,
        deduped: base.deduped + shards.deduped,
        shed_busy: base.shed_busy + shards.shed_busy + sheds.queue_shed,
        rejected: base.rejected + shards.rejected,
        malformed: base.malformed + shards.malformed,
        late: base.late + shards.late,
        unavailable: base.unavailable + shards.unavailable,
        rate_limited: base.rate_limited + sheds.rate_limited,
        lost: 0,
        surplus: 0,
        evicted: base.evicted + registry.evicted_count(),
        merges: base.merges,
        protocol_errors: base.protocol_errors + registry.protocol_errors(),
    }
}

/// Closes the receive-side books once every client is done: merges
/// the final drain — an empty final batch is not a merge — and
/// reconciles the composed books against the clients' send counts.
fn close_books(
    batches: Vec<Vec<PeerReport>>,
    base: &IngestStats,
    registry: &ClientRegistry,
    shards: &ShardStats,
    sheds: ShellSheds,
) -> (Vec<PeerReport>, IngestStats) {
    let final_batch = merge_sorted(batches);
    let base = IngestStats {
        merges: base.merges + u64::from(!final_batch.is_empty()),
        ..*base
    };
    let mut stats = compose_books(&base, registry, shards, sheds);
    stats.reconcile(registry.total_sent());
    (final_batch, stats)
}

/// Merges per-shard `(time, addr)`-sorted batches into one sorted
/// window batch.
pub fn merge_sorted(batches: Vec<Vec<PeerReport>>) -> Vec<PeerReport> {
    let mut merged: Vec<PeerReport> = batches.into_iter().flatten().collect();
    // Identities are unique post-dedup, so the sort is a total order
    // and unstable sorting is deterministic.
    merged.sort_unstable_by_key(|r| (r.time, r.addr.as_u32()));
    merged
}

/// The single-threaded reference composition of the service: shards,
/// registry, and merge sequencing behind one `handle` entry point.
///
/// The `magellan-traced` shell distributes the same pieces across
/// threads (one shard per worker, FIFO queues, a coordinator); this
/// in-process core is the deterministic reference the integration
/// tests compare that shell against, and the unit-test surface for
/// the protocol itself.
#[derive(Debug)]
pub struct ServiceCore {
    shards: Vec<Shard>,
    registry: ClientRegistry,
    window_end: SimTime,
    merged_below: SimTime,
    merges: u64,
}

impl ServiceCore {
    /// A service over `shards` shards admitting reports with
    /// `time < window_end`, each shard buffering at most
    /// `pending_cap` admitted reports, expecting `clients` clients.
    pub fn new(window_end: SimTime, shards: usize, pending_cap: usize, clients: u32) -> Self {
        let shards = shards.max(1);
        let shards = (0..shards)
            .map(|_| Shard::new(window_end, pending_cap))
            .collect(); // lint:allow(H2): construction — once per process, not per datagram
        ServiceCore {
            shards,
            registry: ClientRegistry::new(clients),
            window_end,
            merged_below: SimTime::ORIGIN,
            merges: 0,
        }
    }

    /// Handles one client message: the reply to send back (reports
    /// only) and the window batch this message sealed, if any, in
    /// archive order.
    pub fn handle(&mut self, msg: &ClientMsg) -> (Option<ReplyMsg>, Option<Vec<PeerReport>>) {
        match msg {
            ClientMsg::Hello { client_id, clients } => {
                self.registry.hello(*client_id, *clients);
                (None, None)
            }
            ClientMsg::Report { seq, payload } => {
                let status = self.ingest_payload(payload);
                (Some(ReplyMsg { seq: *seq, status }), None)
            }
            ClientMsg::WindowMark { client_id, up_to } => {
                self.registry.mark(*client_id, *up_to);
                (None, self.try_merge())
            }
            ClientMsg::Finish { client_id, sent } => {
                self.registry.finish(*client_id, *sent);
                (None, None)
            }
        }
    }

    /// Routes one report payload to its shard and ingests it.
    pub fn ingest_payload(&mut self, payload: &[u8]) -> StatusCode {
        // A payload too short to carry an address is malformed
        // wherever it lands; charge it to shard 0.
        let shard = peek_report_addr(payload)
            .map(|addr| shard_of(addr, self.shards.len()))
            .unwrap_or(0);
        self.shards[shard].ingest_wire(payload)
    }

    fn try_merge(&mut self) -> Option<Vec<PeerReport>> {
        let ready = self.registry.ready_below()?;
        if ready <= self.merged_below {
            return None;
        }
        let batches = self
            .shards
            .iter_mut()
            .map(|s| s.drain_below(ready))
            .collect();
        self.merged_below = ready;
        self.merges += 1;
        Some(merge_sorted(batches))
    }

    /// Whether every expected client finished.
    pub fn all_finished(&self) -> bool {
        self.registry.all_finished()
    }

    /// Seals everything still pending (the final merge after all
    /// clients finish) and returns the batch plus the reconciled
    /// accounting. The service is done after this.
    pub fn finalize(&mut self) -> (Vec<PeerReport>, IngestStats) {
        let end = self.window_end;
        let batches = self.shards.iter_mut().map(|s| s.drain_below(end)).collect();
        self.merged_below = end;
        let mut totals = ShardStats::default();
        for s in &self.shards {
            totals.absorb(&s.stats());
        }
        let base = IngestStats {
            clients: self.registry.expected,
            merges: self.merges,
            ..IngestStats::default()
        };
        let (final_batch, stats) = close_books(
            batches,
            &base,
            &self.registry,
            &totals,
            ShellSheds::default(),
        );
        self.merges = stats.merges;
        (final_batch, stats)
    }

    /// Merge windows sealed so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total reports buffered across all shards — overload
    /// observability for the shell.
    pub fn pending_len(&self) -> usize {
        self.shards.iter().map(Shard::pending_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
    use crate::wire;
    use magellan_netsim::{PeerAddr, SimDuration};
    use magellan_workload::ChannelId;

    fn report(ip: u32, minute: u64) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN + SimDuration::from_mins(minute),
            addr: PeerAddr::from_u32(ip),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 2000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 50.0,
            partners: vec![],
        }
    }

    fn at_min(m: u64) -> SimTime {
        SimTime::ORIGIN + SimDuration::from_mins(m)
    }

    fn send(core: &mut ServiceCore, seq: u64, r: &PeerReport) -> StatusCode {
        let msg = ClientMsg::Report {
            seq,
            payload: wire::encode(r),
        };
        let (reply, batch) = core.handle(&msg);
        assert!(batch.is_none(), "a report sealed a window");
        let reply = reply.expect("reports are always answered");
        assert_eq!(reply.seq, seq);
        reply.status
    }

    fn mark(core: &mut ServiceCore, client: u32, minute: u64) -> Option<Vec<PeerReport>> {
        let (reply, batch) = core.handle(&ClientMsg::WindowMark {
            client_id: client,
            up_to: at_min(minute),
        });
        assert!(reply.is_none());
        batch
    }

    #[test]
    fn windows_seal_only_behind_every_clients_mark() {
        let mut core = ServiceCore::new(SimTime::at(1, 0, 0), 4, 1024, 2);
        core.handle(&ClientMsg::Hello {
            client_id: 0,
            clients: 2,
        });
        core.handle(&ClientMsg::Hello {
            client_id: 1,
            clients: 2,
        });
        assert_eq!(send(&mut core, 1, &report(1, 5)), StatusCode::Ack);
        assert_eq!(send(&mut core, 2, &report(2, 8)), StatusCode::Ack);
        // Client 0 marks 10 — client 1 hasn't, nothing seals.
        assert!(mark(&mut core, 0, 10).is_none());
        // Client 1 marks 20 — barrier is min(10, 20) = 10.
        let batch = mark(&mut core, 1, 20).expect("window sealed");
        let addrs: Vec<u32> = batch.iter().map(|r| r.addr.as_u32()).collect();
        assert_eq!(addrs, vec![1, 2]);
        assert_eq!(core.merges(), 1);
        // Client 0 catches up to 20: the next window seals.
        assert_eq!(send(&mut core, 3, &report(3, 15)), StatusCode::Ack);
        let batch = mark(&mut core, 0, 20).expect("second window sealed");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn merged_batches_are_globally_sorted_across_shards() {
        let mut core = ServiceCore::new(SimTime::at(1, 0, 0), 8, 1024, 1);
        core.handle(&ClientMsg::Hello {
            client_id: 0,
            clients: 1,
        });
        // Interleave timestamps so shards hold out-of-order slices.
        for (seq, ip) in (0u32..64).enumerate() {
            let minute = u64::from(63 - ip) % 17;
            assert_eq!(
                send(&mut core, seq as u64, &report(ip + 1, minute)),
                StatusCode::Ack
            );
        }
        let batch = mark(&mut core, 0, 30).expect("window sealed");
        assert_eq!(batch.len(), 64);
        let keys: Vec<(u64, u32)> = batch
            .iter()
            .map(|r| (r.time.as_millis(), r.addr.as_u32()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "merge not (time, addr)-sorted");
    }

    #[test]
    fn finalize_reconciles_lost_and_balances() {
        let mut core = ServiceCore::new(SimTime::at(1, 0, 0), 2, 1024, 1);
        core.handle(&ClientMsg::Hello {
            client_id: 0,
            clients: 1,
        });
        assert_eq!(send(&mut core, 0, &report(1, 5)), StatusCode::Ack);
        assert_eq!(send(&mut core, 1, &report(1, 5)), StatusCode::AckDuplicate);
        let (_, none) = core.handle(&ClientMsg::Report {
            seq: 2,
            payload: bytes::Bytes::from_static(&[9, 9]),
        });
        assert!(none.is_none());
        // The client claims 5 datagrams sent; the service saw 3 —
        // two were lost in flight.
        core.handle(&ClientMsg::Finish {
            client_id: 0,
            sent: 5,
        });
        assert!(core.all_finished());
        let (batch, stats) = core.finalize();
        assert_eq!(batch.len(), 1);
        assert_eq!(
            (stats.admitted, stats.deduped, stats.malformed, stats.lost),
            (1, 1, 1, 2)
        );
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.received(), 3);
    }

    #[test]
    fn protocol_errors_are_counted_not_fatal() {
        let mut core = ServiceCore::new(SimTime::at(1, 0, 0), 1, 16, 2);
        core.handle(&ClientMsg::Hello {
            client_id: 0,
            clients: 3,
        }); // wrong count
        core.handle(&ClientMsg::Hello {
            client_id: 7,
            clients: 2,
        }); // bad id
        core.handle(&ClientMsg::WindowMark {
            client_id: 9,
            up_to: at_min(10),
        });
        core.handle(&ClientMsg::Finish {
            client_id: 0,
            sent: 0,
        });
        core.handle(&ClientMsg::Finish {
            client_id: 1,
            sent: 0,
        });
        let (_, stats) = core.finalize();
        assert!(stats.protocol_errors >= 3, "{stats:?}");
        assert!(stats.balanced());
    }

    #[test]
    fn sidecar_round_trips_and_survives_atomic_write() {
        let stats = IngestStats {
            clients: 3,
            sent: 1000,
            admitted: 890,
            deduped: 40,
            shed_busy: 30,
            rejected: 5,
            malformed: 4,
            late: 1,
            unavailable: 0,
            rate_limited: 10,
            lost: 20,
            surplus: 0,
            evicted: 1,
            merges: 12,
            protocol_errors: 0,
        };
        assert!(stats.balanced());
        assert_eq!(IngestStats::parse(&stats.render()), Some(stats));
        assert_eq!(IngestStats::parse("garbage"), None);
        assert_eq!(IngestStats::parse("ingest v1\nclients x\n"), None);

        let dir =
            std::env::temp_dir().join(format!("magellan-ingest-sidecar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_ingest_stats(&dir, &stats).unwrap();
        assert_eq!(read_ingest_stats(&dir).unwrap(), Some(stats));
        std::fs::remove_dir_all(&dir).unwrap();
        let missing = std::env::temp_dir().join("magellan-ingest-sidecar-none");
        assert_eq!(read_ingest_stats(&missing).unwrap(), None);
    }

    /// A v1 sidecar (written before the hostile-transport columns
    /// existed) still parses, with the new columns reading 0.
    #[test]
    fn v1_sidecar_still_parses_with_zeroed_new_columns() {
        let v1 = "ingest v1\nclients 2\nsent 100\nadmitted 90\ndeduped 5\nshed_busy 3\n\
                  rejected 0\nmalformed 0\nlate 0\nunavailable 0\nlost 2\nmerges 4\n\
                  protocol_errors 0\n";
        let stats = IngestStats::parse(v1).expect("v1 sidecar must parse");
        assert_eq!(
            (stats.rate_limited, stats.surplus, stats.evicted),
            (0, 0, 0)
        );
        assert!(stats.balanced());
    }

    #[test]
    fn token_bucket_throttles_and_refills_deterministically() {
        let mut tb = TokenBucket::new(2, 3); // 2/s, burst 3, starts full
        assert!(tb.try_admit(0));
        assert!(tb.try_admit(0));
        assert!(tb.try_admit(0));
        assert!(!tb.try_admit(0), "burst exhausted");
        assert!(!tb.try_admit(400), "0.8 tokens refilled, still short");
        assert!(tb.try_admit(500), "1 full token at +500ms");
        assert!(!tb.try_admit(500));
        // A long quiet period banks at most `burst` tokens.
        assert!(tb.try_admit(1_000_000));
        assert!(tb.try_admit(1_000_000));
        assert!(tb.try_admit(1_000_000));
        assert!(!tb.try_admit(1_000_000));
        // Rewound clocks refill nothing and never panic.
        assert!(!tb.try_admit(10));
        // rate 0 disables limiting entirely.
        let mut open = TokenBucket::new(0, 1);
        for _ in 0..10_000 {
            assert!(open.try_admit(0));
        }
    }

    /// The barrier survives a vanished client: eviction at the
    /// deadline degrades `ready_below` to the survivors, a touched
    /// client is revived, and `all_finished` counts evictees.
    #[test]
    fn eviction_unwedges_the_barrier_and_touch_revives() {
        let mut reg = ClientRegistry::new(3);
        reg.hello(0, 3);
        reg.hello(1, 3);
        reg.touch(0, 1000);
        reg.touch(1, 1000);
        reg.mark(0, at_min(30));
        reg.mark(1, at_min(20));
        // Client 2 never arrived: the barrier is wedged.
        assert_eq!(reg.ready_below(), None);
        // Deadline passes for client 2 only (clients 0/1 touched at
        // 1000, client 2 implicitly at 0).
        assert_eq!(reg.evict_idle(1500, 600), 1);
        assert_eq!(reg.evicted_count(), 1);
        assert_eq!(reg.ready_below(), Some(at_min(20)), "barrier degraded");
        // Client 1 goes quiet too.
        assert_eq!(reg.evict_idle(5000, 600), 2);
        assert_eq!(reg.ready_below(), None, "all live clients gone");
        assert!(reg.all_finished(), "evictees complete the roster");
        // A late mark revives client 1: barrier re-forms around it.
        reg.mark(1, at_min(25));
        assert_eq!(reg.evicted_count(), 2);
        assert_eq!(reg.ready_below(), Some(at_min(25)));
        assert!(!reg.all_finished());
        reg.finish(1, 10);
        assert!(reg.all_finished());
        assert_eq!(reg.evicted_count(), 2, "clients 0 and 2 stay evicted");
        assert_eq!(reg.total_sent(), 10);
    }

    #[test]
    fn resume_sidecar_round_trips() {
        let resume = ServiceResume {
            archived: 12345,
            merged_below_ms: 86_400_000,
            stats: IngestStats {
                clients: 2,
                admitted: 12345,
                deduped: 7,
                shed_busy: 3,
                merges: 9,
                ..IngestStats::default()
            },
        };
        assert_eq!(ServiceResume::parse(&resume.render()), Some(resume));
        assert_eq!(ServiceResume::parse("garbage"), None);
        assert_eq!(ServiceResume::parse("traced-resume v1\narchived x\n"), None);

        let dir =
            std::env::temp_dir().join(format!("magellan-ingest-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_service_resume(&dir, &resume).unwrap();
        assert_eq!(read_service_resume(&dir).unwrap(), Some(resume));
        std::fs::remove_dir_all(&dir).unwrap();
        let missing = std::env::temp_dir().join("magellan-ingest-resume-none");
        assert_eq!(read_service_resume(&missing).unwrap(), None);
    }

    /// The seal sequence the shell's durability lane runs, without
    /// the lane: windows are sealed ahead of the disk and published
    /// strictly in order, and at every step the `INGEST.resume` on
    /// disk vouches for no more records than a completed
    /// `make_durable` covers — which a resume then actually finds.
    #[test]
    fn published_cursor_never_runs_ahead_of_a_completed_commit() {
        let dir = std::env::temp_dir().join(format!("magellan-books-seal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ArchiveConfig { segment_bytes: 512 };
        let mut books = Books::create(&dir, cfg, 1).unwrap();
        let mut registry = ClientRegistry::new(1);
        registry.hello(0, 1);
        let mut shards = ShardStats::default();
        let sheds = ShellSheds::default();
        assert_eq!(books.seal_due(&registry), None, "nothing marked yet");

        let on_disk = |dir: &Path| read_service_resume(dir).unwrap().map_or(0, |r| r.archived);
        let mut queued = std::collections::VecDeque::new();
        let mut durable = 0u64;
        let mut next_ip = 1u32;
        for window in 1..=6u64 {
            registry.mark(0, at_min(window * 10));
            let below = books.seal_due(&registry).expect("the barrier advanced");
            // Two shards' drains, a window's worth each.
            let batches: Vec<Vec<PeerReport>> = (0..2)
                .map(|_| {
                    (0..5)
                        .map(|_| {
                            next_ip += 1;
                            report(next_ip, window * 10 - 5)
                        })
                        .collect()
                })
                .collect();
            shards.admitted += 10;
            queued.push_back(
                books
                    .seal_window(below, batches, &registry, &shards, sheds)
                    .unwrap(),
            );
            assert_eq!(books.seal_due(&registry), None, "sealed up to the barrier");
            assert!(on_disk(&dir) <= durable, "sealing alone published a cursor");
            // The lane is at most two windows behind.
            while queued.len() > 2 {
                let (commit, resume): (Commit, ServiceResume) = queued.pop_front().unwrap();
                assert_eq!(resume.archived, commit.records());
                assert_eq!(resume.stats.admitted, resume.archived);
                resume.publish_after(commit, &dir).unwrap();
                durable = resume.archived;
                assert_eq!(read_service_resume(&dir).unwrap(), Some(resume));
            }
        }
        // A crash here (queued commits lost) resumes at the published
        // cursor and finds every record it vouches for.
        assert_eq!((durable, books.archived()), (40, 60));
        drop(queued);
        drop(books);
        let resumed = Books::resume(&dir, cfg, 1).unwrap();
        assert_eq!(resumed.archived(), 40);
        assert_eq!(resumed.merged_below(), at_min(40));

        // Closing lands the final drain and reconciles.
        registry.finish(0, 45);
        shards.admitted = 5;
        let last = vec![(0..5).map(|i| report(900 + i, 55)).collect()];
        let (summary, stats) = resumed.close(last, &registry, &shards, sheds).unwrap();
        assert_eq!(summary.records, 45);
        assert_eq!((stats.admitted, stats.merges, stats.sent), (45, 5, 45));
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(read_ingest_stats(&dir).unwrap(), Some(stats));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn marks_never_regress_and_barrier_is_min() {
        let mut reg = ClientRegistry::new(2);
        assert_eq!(reg.ready_below(), None);
        reg.hello(0, 2);
        reg.hello(1, 2);
        assert_eq!(reg.ready_below(), Some(SimTime::ORIGIN));
        reg.mark(0, at_min(30));
        reg.mark(1, at_min(10));
        assert_eq!(reg.ready_below(), Some(at_min(10)));
        reg.mark(1, at_min(5)); // regression ignored
        assert_eq!(reg.ready_below(), Some(at_min(10)));
        assert!(!reg.all_finished());
        reg.finish(0, 100);
        reg.finish(1, 200);
        assert!(reg.all_finished());
        assert_eq!(reg.total_sent(), 300);
    }
}
