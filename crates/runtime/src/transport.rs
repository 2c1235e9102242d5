//! Transport abstraction for the cluster wire: the same shard workers
//! and coordinators run over in-process channels or OS sockets.
//!
//! Two traits split the runtime from its plumbing:
//!
//! * [`Transport`] is the shard's view — send a data-plane message to a
//!   peer, receive the next one, report to the coordinator, block on
//!   the next control command.
//! * `CoordinatorLink` (crate-internal) is the coordinator's view —
//!   command a shard, receive the next report.
//!
//! Both backends account every message at its [`crate::codec`] frame
//! size, so the `bytes_sent`/`bytes_received` counters are comparable
//! across backends — and, per seed, *identical*: the realized message
//! sequence is deterministic (per-origin serving streams, report-
//! barrier lockstep), the codec is a pure function of the message, and
//! the channel backend never actually serializes (it moves the enums
//! and adds the would-be frame length), which is what keeps the default
//! path byte-identical to the pre-transport runtime. Every frame is
//! sized exactly once, at its sender: the channel backend carries the
//! length through the channel next to the message, and the socket
//! backend takes it from the encoded buffer. A [`Transport::broadcast`]
//! sizes its palette once for all of its copies. Handshake frames
//! (`Hello`/`Init`/`Ready`/`PeerHello`, socket backend only) are *not*
//! counted: they have no channel counterpart and are not part of the
//! per-round cost model.
//!
//! # Backends
//!
//! [`ChannelTransport`] is the default in-process path: `std::sync::mpsc`
//! channels exactly as before, one thread per shard under one
//! coordinator thread.
//!
//! The socket backend runs each shard as its **own OS process**
//! ([`spawn_shard_process`], [`shard_process_main`]) speaking length-
//! framed codec bytes over Unix domain sockets (or TCP, when the
//! configured address says so). Bring-up is a three-beat handshake —
//! every worker connects to the coordinator and says `Hello` with its
//! own listener address; the coordinator answers with the full `Init`
//! spec (partition, modes, seeds, fault plan, serialized rule, seed
//! body, the fleet's addresses); workers build the full peer mesh and
//! say `Ready` — after which rounds run through the exact same worker
//! and coordinator loops as the channel backend. Every socket has a
//! dedicated reader thread draining frames into an in-process queue,
//! so socket receive buffers never back up and the blocking exchange
//! loops cannot write-deadlock.
//!
//! # Disconnects
//!
//! A vanished peer process surfaces as
//! [`crate::StopReason::TransportLost`], never as a hang: the dead
//! process's sockets close, every live worker holds a reader thread on
//! one of them, so the EOF reaches everyone — workers abort their
//! round, exit, and cascade the EOF to the coordinator's report
//! readers, which fail the blocking `recv_report` and abort the run
//! like `TooManyFaults` (live shards get a best-effort Stop). Injected
//! [`FaultPlan`] faults are unrelated: they are *decisions* shared by
//! sender and receiver (never physical losses), so both backends
//! degrade identically under the same plan.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use symbreak_core::rules::{
    HMajority, LazyVoter, ThreeMajority, ThreeMajorityAlt, TwoChoices, TwoMedian,
    UndecidedDynamics, Voter,
};
use symbreak_core::{Opinion, RoundStateMode, UpdateRule};

use crate::cluster::{ConsumeMode, ReportMode, ShardRepr, WireMode};
use crate::codec::{
    control_len, decode_control, decode_hello, decode_peer_hello, decode_report,
    decode_shard_message, decode_worker_init, encode_control, encode_hello, encode_peer_hello,
    encode_ready, encode_report, encode_shard_message, encode_worker_init, palette_len, read_frame,
    report_len, shard_message_len, write_frame, FrameKind, Hello, WorkerInit,
};
use crate::fault::FaultPlan;
use crate::message::{
    Control, OpinionPalette, PaletteBuffers, ReportBody, ShardMessage, ShardReport,
};
use crate::shard::{run_shard, Partition, ShardInit, ShardSpec};

/// The peer or coordinator on the other end of a transport is gone
/// (its process died, its socket closed). Never returned by injected
/// [`FaultPlan`] faults — those are shared decisions, not losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportLost;

impl std::fmt::Display for TransportLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport endpoint lost")
    }
}

impl std::error::Error for TransportLost {}

/// A shard's connection to its fleet: peers on the data plane, the
/// coordinator on the control plane.
///
/// Sends are infallible by signature: a backend that detects a broken
/// peer flags the loss internally and surfaces it from the next
/// receive, so the blocking exchange loops have exactly one error exit.
/// Byte counters are cumulative over the connection's lifetime and
/// count every message at its [`crate::codec`] frame size (whether or
/// not the backend physically serializes).
pub trait Transport {
    /// Queues one data-plane message to peer shard `dest` (self-sends
    /// allowed; they loop back without touching any socket but are
    /// counted like every other message).
    fn send(&mut self, dest: usize, msg: ShardMessage);
    /// Sends one palette to every shard of the fleet, self included,
    /// in destination order — sized once for all copies. The channel
    /// backend builds its extra copies from `pool`'s buffers; the
    /// socket backend encodes the palette once, writes the same bytes
    /// to every remote peer, materializes only the self copy, and
    /// releases the pooled buffers the remote copies would have used.
    fn broadcast(&mut self, palette: OpinionPalette, pool: &mut Vec<PaletteBuffers>);
    /// Blocks for the next data-plane message.
    fn recv(&mut self) -> Result<ShardMessage, TransportLost>;
    /// Sends this shard's per-round report to the coordinator. A
    /// backend that serializes the report (and is therefore done with
    /// its body) returns the drained sparse-body buffer for the caller
    /// to pool; backends that hand the report over intact return
    /// `None`.
    fn send_report(&mut self, report: ShardReport) -> Option<Vec<(u32, u64)>>;
    /// Blocks for the next coordinator command.
    fn recv_control(&mut self) -> Result<Control, TransportLost>;
    /// Accounts a message the fault plan transmitted-and-lost: the
    /// frame bytes count as sent, nothing is delivered. Keeps the byte
    /// counters honest under injected drops, mirroring the entry
    /// accounting (see [`crate::message`]).
    fn count_lost(&mut self, msg: &ShardMessage);
    /// Accounts a report the fault plan transmitted-and-lost.
    fn count_lost_report(&mut self, report: &ShardReport);
    /// Cumulative frame bytes sent (data plane + reports).
    fn bytes_sent(&self) -> u64;
    /// Cumulative frame bytes received (data plane + control).
    fn bytes_received(&self) -> u64;
}

/// The coordinator's side of the fleet connection.
pub(crate) trait CoordinatorLink {
    /// Sends one control command to `shard`.
    fn send_control(&mut self, shard: usize, ctrl: Control) -> Result<(), TransportLost>;
    /// Blocks for the next shard report, from any shard.
    fn recv_report(&mut self) -> Result<ShardReport, TransportLost>;
    /// Cumulative control-frame bytes sent.
    fn bytes_sent(&self) -> u64;
    /// Cumulative report-frame bytes received.
    fn bytes_received(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Channel backend.
// ---------------------------------------------------------------------------

/// A message or report in flight on a channel, with the frame length
/// its sender computed — receivers account the carried length instead
/// of re-walking the body.
pub(crate) type Framed<M> = (M, u64);

/// The default in-process backend: one `mpsc` inbox per shard, everyone
/// holding senders to everyone — the exact pre-transport topology, with
/// frame-length accounting bolted on. Messages are moved as enums
/// (never serialized), so this path is byte-identical per seed to the
/// pre-transport runtime.
pub struct ChannelTransport {
    inbox: mpsc::Receiver<Framed<ShardMessage>>,
    peers: Vec<mpsc::Sender<Framed<ShardMessage>>>,
    control: mpsc::Receiver<Control>,
    report: mpsc::Sender<Framed<ShardReport>>,
    sent: u64,
    received: u64,
}

impl ChannelTransport {
    pub(crate) fn new(
        inbox: mpsc::Receiver<Framed<ShardMessage>>,
        peers: Vec<mpsc::Sender<Framed<ShardMessage>>>,
        control: mpsc::Receiver<Control>,
        report: mpsc::Sender<Framed<ShardReport>>,
    ) -> Self {
        Self { inbox, peers, control, report, sent: 0, received: 0 }
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, dest: usize, msg: ShardMessage) {
        let len = shard_message_len(&msg);
        self.sent += len;
        self.peers[dest].send((msg, len)).expect("peer shard alive");
    }

    fn broadcast(&mut self, palette: OpinionPalette, pool: &mut Vec<PaletteBuffers>) {
        let len = palette_len(&palette);
        let last = self.peers.len() - 1;
        self.sent += len * self.peers.len() as u64;
        for peer in &self.peers[..last] {
            let (mut p, mut r) = pool.pop().unwrap_or_default();
            p.clear();
            r.clear();
            p.extend_from_slice(&palette.palette);
            r.extend_from_slice(&palette.runs);
            let copy = OpinionPalette { palette: p, runs: r, ..palette };
            peer.send((ShardMessage::Palette(copy), len)).expect("peer shard alive");
        }
        // The last copy hands off the original buffers.
        self.peers[last].send((ShardMessage::Palette(palette), len)).expect("peer shard alive");
    }

    fn recv(&mut self) -> Result<ShardMessage, TransportLost> {
        let (msg, len) = self.inbox.recv().map_err(|_| TransportLost)?;
        self.received += len;
        Ok(msg)
    }

    fn send_report(&mut self, report: ShardReport) -> Option<Vec<(u32, u64)>> {
        let len = report_len(&report);
        self.sent += len;
        // The coordinator consumes the report in place — the body
        // crosses the channel intact, so there is nothing to pool.
        self.report.send((report, len)).expect("coordinator alive");
        None
    }

    fn recv_control(&mut self) -> Result<Control, TransportLost> {
        let ctrl = self.control.recv().map_err(|_| TransportLost)?;
        self.received += control_len(&ctrl);
        Ok(ctrl)
    }

    fn count_lost(&mut self, msg: &ShardMessage) {
        self.sent += shard_message_len(msg);
    }

    fn count_lost_report(&mut self, report: &ShardReport) {
        self.sent += report_len(report);
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

/// The coordinator's channel-backend link.
pub(crate) struct ChannelLink {
    control_txs: Vec<mpsc::Sender<Control>>,
    report_rx: mpsc::Receiver<Framed<ShardReport>>,
    sent: u64,
    received: u64,
}

impl ChannelLink {
    pub(crate) fn new(
        control_txs: Vec<mpsc::Sender<Control>>,
        report_rx: mpsc::Receiver<Framed<ShardReport>>,
    ) -> Self {
        Self { control_txs, report_rx, sent: 0, received: 0 }
    }
}

impl CoordinatorLink for ChannelLink {
    fn send_control(&mut self, shard: usize, ctrl: Control) -> Result<(), TransportLost> {
        self.sent += control_len(&ctrl);
        self.control_txs[shard].send(ctrl).map_err(|_| TransportLost)
    }

    fn recv_report(&mut self) -> Result<ShardReport, TransportLost> {
        let (rep, len) = self.report_rx.recv().map_err(|_| TransportLost)?;
        self.received += len;
        Ok(rep)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

// ---------------------------------------------------------------------------
// Addresses, streams, listeners.
// ---------------------------------------------------------------------------

/// Where a socket fleet's coordinator listens: a Unix domain socket
/// path (the local default) or a TCP address.
///
/// The string forms are `unix:<path>` and `tcp:<host>:<port>` — what
/// [`TransportAddr::parse`] accepts and what travels in the handshake
/// frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportAddr {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address (`port` 0 binds ephemerally).
    Tcp(String),
}

impl TransportAddr {
    /// Parses the `unix:<path>` / `tcp:<host>:<port>` string form.
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(path) = s.strip_prefix("unix:") {
            Some(TransportAddr::Unix(PathBuf::from(path)))
        } else {
            s.strip_prefix("tcp:").map(|addr| TransportAddr::Tcp(addr.to_string()))
        }
    }
}

impl std::fmt::Display for TransportAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            TransportAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn connect(addr: &TransportAddr) -> io::Result<Self> {
        Ok(match addr {
            TransportAddr::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
            TransportAddr::Tcp(a) => Conn::Tcp(TcpStream::connect(a.as_str())?),
        })
    }

    fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds and returns the *resolved* address (TCP port 0 becomes the
    /// real ephemeral port; a stale Unix path is removed first).
    fn bind(addr: &TransportAddr) -> io::Result<(Self, TransportAddr)> {
        Ok(match addr {
            TransportAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                (Listener::Unix(UnixListener::bind(path)?), TransportAddr::Unix(path.clone()))
            }
            TransportAddr::Tcp(a) => {
                let listener = TcpListener::bind(a.as_str())?;
                let resolved = TransportAddr::Tcp(listener.local_addr()?.to_string());
                (Listener::Tcp(listener), resolved)
            }
        })
    }

    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Listener::Unix(l) => Conn::Unix(l.accept()?.0),
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
        })
    }
}

// ---------------------------------------------------------------------------
// Serialized rules.
// ---------------------------------------------------------------------------

/// A wire-serializable description of an update rule, carried in the
/// socket handshake's `Init` frame so a worker process can
/// reconstitute the exact rule the coordinator is running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleSpec {
    /// [`Voter`].
    Voter,
    /// [`ThreeMajority`].
    ThreeMajority,
    /// [`ThreeMajorityAlt`].
    ThreeMajorityAlt,
    /// [`TwoChoices`].
    TwoChoices,
    /// [`TwoMedian`].
    TwoMedian,
    /// [`UndecidedDynamics`].
    UndecidedDynamics,
    /// [`LazyVoter`] with its activity probability.
    LazyVoter(f64),
    /// [`HMajority`] with its window size.
    HMajority(u32),
}

/// An [`UpdateRule`] the socket backend can ship to worker processes.
///
/// The channel backend moves rule values in-process and needs no spec;
/// only the socket entry points ([`crate::Cluster::run_horizon_socket`])
/// require this bound.
pub trait WireRule: UpdateRule {
    /// The serializable description of this rule instance.
    fn spec(&self) -> RuleSpec;
}

impl WireRule for Voter {
    fn spec(&self) -> RuleSpec {
        RuleSpec::Voter
    }
}

impl WireRule for ThreeMajority {
    fn spec(&self) -> RuleSpec {
        RuleSpec::ThreeMajority
    }
}

impl WireRule for ThreeMajorityAlt {
    fn spec(&self) -> RuleSpec {
        RuleSpec::ThreeMajorityAlt
    }
}

impl WireRule for TwoChoices {
    fn spec(&self) -> RuleSpec {
        RuleSpec::TwoChoices
    }
}

impl WireRule for TwoMedian {
    fn spec(&self) -> RuleSpec {
        RuleSpec::TwoMedian
    }
}

impl WireRule for UndecidedDynamics {
    fn spec(&self) -> RuleSpec {
        RuleSpec::UndecidedDynamics
    }
}

impl WireRule for LazyVoter {
    fn spec(&self) -> RuleSpec {
        RuleSpec::LazyVoter(self.activity())
    }
}

impl WireRule for HMajority {
    fn spec(&self) -> RuleSpec {
        RuleSpec::HMajority(self.h() as u32)
    }
}

// ---------------------------------------------------------------------------
// Socket backend: worker side.
// ---------------------------------------------------------------------------

enum PeerEvent {
    /// A decoded data-plane frame and its wire length.
    Data(ShardMessage, u64),
    /// The peer's socket closed or produced garbage.
    Lost,
}

/// The socket backend's shard-side transport: framed codec bytes to a
/// full peer mesh, with one reader thread per peer draining frames into
/// an in-process queue (see the module docs for why that drains-always
/// design is what makes the blocking exchange loops deadlock-free).
struct SocketTransport {
    shard_id: usize,
    coord_r: BufReader<Conn>,
    coord_w: Conn,
    /// Write halves of the peer mesh (`None` at `shard_id`: self-sends
    /// loop back through `self_queue` without touching a socket).
    peer_w: Vec<Option<Conn>>,
    events: mpsc::Receiver<PeerEvent>,
    self_queue: VecDeque<Framed<ShardMessage>>,
    lost: bool,
    sent: u64,
    received: u64,
    /// Deterministic kill switch: `abort()` upon receiving this round's
    /// command — the disconnect-test harness.
    die_at_round: Option<u64>,
    scratch: Vec<u8>,
}

impl SocketTransport {
    /// Writes the frame in `scratch` to peer `dest`. A failed write
    /// surfaces from the next recv; the round cannot complete anyway
    /// (the peer will never answer).
    fn write_scratch(&mut self, dest: usize) {
        let conn = self.peer_w[dest].as_mut().expect("mesh covers every non-self peer");
        if write_frame(conn, &self.scratch).is_err() {
            self.lost = true;
        }
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, dest: usize, msg: ShardMessage) {
        if dest == self.shard_id {
            let len = shard_message_len(&msg);
            self.sent += len;
            self.self_queue.push_back((msg, len));
            return;
        }
        self.scratch.clear();
        encode_shard_message(&msg, &mut self.scratch);
        let len = self.scratch.len() as u64;
        debug_assert_eq!(len, shard_message_len(&msg), "encoded_len must match the encoder");
        self.sent += len;
        self.write_scratch(dest);
    }

    fn broadcast(&mut self, palette: OpinionPalette, pool: &mut Vec<PaletteBuffers>) {
        let msg = ShardMessage::Palette(palette);
        self.scratch.clear();
        encode_shard_message(&msg, &mut self.scratch);
        let len = self.scratch.len() as u64;
        debug_assert_eq!(len, shard_message_len(&msg), "encoded_len must match the encoder");
        let shards = self.peer_w.len();
        self.sent += len * shards as u64;
        for dest in 0..shards {
            if dest != self.shard_id {
                self.write_scratch(dest);
            }
        }
        self.self_queue.push_back((msg, len));
        // The peers' palettes of this round arrive freshly decoded and
        // are recycled into `pool`, but no pooled buffer was spent on a
        // remote copy: release as many as the copies would have taken,
        // or the pool grows by `shards - 1` buffers every round.
        pool.truncate(pool.len().saturating_sub(shards - 1));
    }

    fn recv(&mut self) -> Result<ShardMessage, TransportLost> {
        if self.lost {
            return Err(TransportLost);
        }
        if let Some((msg, len)) = self.self_queue.pop_front() {
            self.received += len;
            return Ok(msg);
        }
        match self.events.recv() {
            Ok(PeerEvent::Data(msg, len)) => {
                self.received += len;
                Ok(msg)
            }
            Ok(PeerEvent::Lost) | Err(_) => {
                self.lost = true;
                Err(TransportLost)
            }
        }
    }

    fn send_report(&mut self, report: ShardReport) -> Option<Vec<(u32, u64)>> {
        self.scratch.clear();
        encode_report(&report, &mut self.scratch);
        let len = self.scratch.len() as u64;
        debug_assert_eq!(len, report_len(&report), "report_len must match the encoder");
        self.sent += len;
        if write_frame(&mut self.coord_w, &self.scratch).is_err() {
            self.lost = true;
        }
        // Serialized — the body is spent; hand a sparse buffer back
        // for the worker's report pool.
        match report.body {
            ReportBody::Sparse(mut pairs) => {
                pairs.clear();
                Some(pairs)
            }
            _ => None,
        }
    }

    fn recv_control(&mut self) -> Result<Control, TransportLost> {
        if self.lost {
            return Err(TransportLost);
        }
        match read_frame(&mut self.coord_r) {
            Ok(Some(frame)) => {
                self.received += frame.wire_len();
                let Ok(ctrl) = decode_control(&frame) else {
                    self.lost = true;
                    return Err(TransportLost);
                };
                if let Control::Round { round, .. } = ctrl {
                    if self.die_at_round == Some(round) {
                        // The kill-test knob: vanish without unwinding,
                        // exactly like a crashed process.
                        std::process::abort();
                    }
                }
                Ok(ctrl)
            }
            Ok(None) | Err(_) => {
                self.lost = true;
                Err(TransportLost)
            }
        }
    }

    fn count_lost(&mut self, msg: &ShardMessage) {
        self.sent += shard_message_len(msg);
    }

    fn count_lost_report(&mut self, report: &ShardReport) {
        self.sent += report_len(report);
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

fn spawn_peer_reader(conn: BufReader<Conn>, tx: mpsc::Sender<PeerEvent>) {
    std::thread::spawn(move || {
        let mut conn = conn;
        loop {
            match read_frame(&mut conn) {
                Ok(Some(frame)) => {
                    let len = frame.wire_len();
                    match decode_shard_message(&frame) {
                        Ok(msg) => {
                            if tx.send(PeerEvent::Data(msg, len)).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            let _ = tx.send(PeerEvent::Lost);
                            return;
                        }
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send(PeerEvent::Lost);
                    return;
                }
            }
        }
    });
}

/// Spawns one shard-worker OS process that will connect back to the
/// coordinator listening at `coordinator` (a `unix:`/`tcp:` address
/// string) and run shard `shard` of its fleet.
///
/// `worker` is the `symbreak_shard_worker` binary (built alongside the
/// workspace); the child inherits stdout/stderr for diagnostics.
pub fn spawn_shard_process(worker: &Path, coordinator: &str, shard: usize) -> io::Result<Child> {
    Command::new(worker).arg(coordinator).arg(shard.to_string()).stdin(Stdio::null()).spawn()
}

/// The entry point a shard-worker binary calls from `main()`: connects
/// to the coordinator named by `argv[1]`, runs the socket handshake for
/// shard `argv[2]`, and executes rounds until Stop or disconnect.
///
/// # Panics
/// Panics on malformed arguments or a failed handshake (the
/// coordinator observes the process exit as a transport loss).
pub fn shard_process_main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: symbreak_shard_worker <unix:path | tcp:host:port> <shard>";
    let addr = args.next().expect(usage);
    let shard: usize = args.next().and_then(|s| s.parse().ok()).expect(usage);
    let addr = TransportAddr::parse(&addr).expect("unparseable coordinator address");

    let coord = Conn::connect(&addr).expect("connect to coordinator");
    let mut coord_w = coord.try_clone().expect("clone coordinator stream");
    let mut coord_r = BufReader::new(coord);

    // Own listener first, then Hello: once the coordinator has every
    // Hello, every peer listener exists, so the mesh below needs no
    // connect retries.
    let my_spec = match &addr {
        TransportAddr::Unix(p) => {
            TransportAddr::Unix(PathBuf::from(format!("{}.s{shard}", p.display())))
        }
        TransportAddr::Tcp(_) => TransportAddr::Tcp("127.0.0.1:0".to_string()),
    };
    let (listener, my_addr) = Listener::bind(&my_spec).expect("bind peer listener");

    let mut scratch = Vec::new();
    encode_hello(&Hello { shard, peer_addr: my_addr.to_string() }, &mut scratch);
    write_frame(&mut coord_w, &scratch).expect("send hello");

    let frame = read_frame(&mut coord_r).expect("read init").expect("coordinator sent init");
    let init = decode_worker_init(&frame).expect("decode init");
    let shards = init.shards;
    assert!(shard < shards, "shard index out of range");

    // Full mesh: connect to lower-indexed peers (identifying ourselves
    // with a PeerHello), accept from higher-indexed ones.
    let mut peer_w: Vec<Option<Conn>> = (0..shards).map(|_| None).collect();
    let mut peer_r: Vec<Option<BufReader<Conn>>> = (0..shards).map(|_| None).collect();
    for (j, peer_addr) in init.peer_addrs.iter().enumerate().take(shard) {
        let paddr = TransportAddr::parse(peer_addr).expect("unparseable peer address");
        let c = Conn::connect(&paddr).expect("connect to peer");
        let mut w = c.try_clone().expect("clone peer stream");
        scratch.clear();
        encode_peer_hello(shard, &mut scratch);
        write_frame(&mut w, &scratch).expect("send peer hello");
        peer_w[j] = Some(w);
        peer_r[j] = Some(BufReader::new(c));
    }
    for _ in shard + 1..shards {
        let c = listener.accept().expect("accept peer");
        let w = c.try_clone().expect("clone peer stream");
        let mut r = BufReader::new(c);
        let frame = read_frame(&mut r).expect("read peer hello").expect("peer sent hello");
        let j = decode_peer_hello(&frame).expect("decode peer hello");
        assert!(j > shard && j < shards && peer_w[j].is_none(), "mesh hello from shard {j}");
        peer_w[j] = Some(w);
        peer_r[j] = Some(r);
    }

    scratch.clear();
    encode_ready(&mut scratch);
    write_frame(&mut coord_w, &scratch).expect("send ready");

    let (tx, events) = mpsc::channel();
    for r in peer_r.into_iter().flatten() {
        spawn_peer_reader(r, tx.clone());
    }
    drop(tx);

    let transport = SocketTransport {
        shard_id: shard,
        coord_r,
        coord_w,
        peer_w,
        events,
        self_queue: VecDeque::new(),
        lost: false,
        sent: 0,
        received: 0,
        die_at_round: init.die_at_round,
        scratch,
    };

    let spec = ShardSpec {
        partition: Partition::new(init.n, shards),
        k_slots: init.k_slots,
        report_mode: init.report_mode,
        wire_mode: init.wire_mode,
        consume_mode: init.consume_mode,
        repr: init.repr,
        master_seed: init.master_seed,
        plan: init.plan,
        round_state: init.round_state,
    };
    let shard_init = if init.condensed {
        ShardInit::Histogram(init.body)
    } else {
        // Expand the sparse seed body into the agent vector exactly as
        // the channel coordinator does: colors ascending and contiguous.
        let mut opinions = Vec::new();
        for &(slot, count) in &init.body {
            opinions.extend(std::iter::repeat_n(Opinion::new(slot), count as usize));
        }
        ShardInit::Agents(opinions)
    };
    match init.rule {
        RuleSpec::Voter => run_shard(shard, spec, Voter, shard_init, transport),
        RuleSpec::ThreeMajority => run_shard(shard, spec, ThreeMajority, shard_init, transport),
        RuleSpec::ThreeMajorityAlt => {
            run_shard(shard, spec, ThreeMajorityAlt, shard_init, transport)
        }
        RuleSpec::TwoChoices => run_shard(shard, spec, TwoChoices, shard_init, transport),
        RuleSpec::TwoMedian => run_shard(shard, spec, TwoMedian, shard_init, transport),
        RuleSpec::UndecidedDynamics => {
            run_shard(shard, spec, UndecidedDynamics, shard_init, transport)
        }
        RuleSpec::LazyVoter(p) => run_shard(shard, spec, LazyVoter::new(p), shard_init, transport),
        RuleSpec::HMajority(h) => {
            run_shard(shard, spec, HMajority::new(h as usize), shard_init, transport)
        }
    }
    if let TransportAddr::Unix(p) = my_addr {
        let _ = std::fs::remove_file(p);
    }
}

// ---------------------------------------------------------------------------
// Socket backend: coordinator side.
// ---------------------------------------------------------------------------

/// How a cluster's socket run is deployed — see
/// [`crate::Cluster::run_horizon_socket`].
#[derive(Debug, Clone, Default)]
pub struct SocketConfig {
    /// Where the coordinator listens. `None` picks a fresh Unix socket
    /// path under the system temp directory.
    pub addr: Option<TransportAddr>,
    /// The `symbreak_shard_worker` binary. `None` looks next to the
    /// current executable (and up its target directory), honoring a
    /// `SYMBREAK_SHARD_WORKER` environment override first.
    pub worker: Option<PathBuf>,
    /// Deterministic kill switch for disconnect tests: worker `(shard)`
    /// calls `abort()` upon receiving round `(round)`'s command.
    pub kill: Option<(usize, u64)>,
}

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

fn default_unix_addr() -> TransportAddr {
    let id = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    TransportAddr::Unix(
        std::env::temp_dir().join(format!("symbreak-{}-{id}.sock", std::process::id())),
    )
}

fn default_worker_path() -> PathBuf {
    if let Ok(p) = std::env::var("SYMBREAK_SHARD_WORKER") {
        return PathBuf::from(p);
    }
    let name = format!("symbreak_shard_worker{}", std::env::consts::EXE_SUFFIX);
    if let Ok(exe) = std::env::current_exe() {
        // Next to the executable (bench/bin siblings), or up the
        // target tree (integration tests live in target/<p>/deps/).
        let mut dir = exe.parent();
        for _ in 0..3 {
            let Some(d) = dir else { break };
            let cand = d.join(&name);
            if cand.is_file() {
                return cand;
            }
            dir = d.parent();
        }
    }
    panic!(
        "symbreak_shard_worker binary not found; build the workspace first \
         (cargo build --release) or set SYMBREAK_SHARD_WORKER"
    )
}

/// Everything the coordinator ships to the fleet at launch.
pub(crate) struct FleetSpec {
    pub n: u32,
    pub shards: usize,
    pub k_slots: usize,
    pub report_mode: ReportMode,
    pub wire_mode: WireMode,
    pub consume_mode: ConsumeMode,
    pub repr: ShardRepr,
    pub master_seed: u64,
    pub plan: FaultPlan,
    pub round_state: RoundStateMode,
    pub rule: RuleSpec,
    pub condensed: bool,
    pub bodies: Vec<Vec<(u32, u64)>>,
}

/// The coordinator's socket-backend link: one framed stream per worker
/// process, reports drained by per-worker reader threads into a shared
/// queue.
pub(crate) struct SocketLink {
    conns: Vec<Conn>,
    reports: mpsc::Receiver<Option<Framed<ShardReport>>>,
    sent: u64,
    received: u64,
    scratch: Vec<u8>,
}

impl CoordinatorLink for SocketLink {
    fn send_control(&mut self, shard: usize, ctrl: Control) -> Result<(), TransportLost> {
        self.sent += control_len(&ctrl);
        self.scratch.clear();
        encode_control(&ctrl, &mut self.scratch);
        write_frame(&mut self.conns[shard], &self.scratch).map_err(|_| TransportLost)
    }

    fn recv_report(&mut self) -> Result<ShardReport, TransportLost> {
        match self.reports.recv() {
            Ok(Some((rep, len))) => {
                self.received += len;
                Ok(rep)
            }
            Ok(None) | Err(_) => Err(TransportLost),
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

/// A launched socket fleet: the coordinator link plus the worker
/// processes and the socket files to clean up.
pub(crate) struct SocketFleet {
    link: SocketLink,
    children: Vec<Child>,
    cleanup: Vec<PathBuf>,
}

impl SocketFleet {
    /// Binds, spawns, and handshakes a whole fleet (see the module
    /// docs for the Hello/Init/Ready beat structure). Returns once
    /// every worker is Ready — rounds can start immediately.
    pub(crate) fn launch(spec: &FleetSpec, cfg: &SocketConfig) -> io::Result<Self> {
        let shards = spec.shards;
        let addr = cfg.addr.clone().unwrap_or_else(default_unix_addr);
        let (listener, resolved) = Listener::bind(&addr)?;
        let worker = cfg.worker.clone().unwrap_or_else(default_worker_path);
        let coord_str = resolved.to_string();

        let mut cleanup = Vec::new();
        if let TransportAddr::Unix(p) = &resolved {
            cleanup.push(p.clone());
            for s in 0..shards {
                cleanup.push(PathBuf::from(format!("{}.s{s}", p.display())));
            }
        }

        let mut children = Vec::with_capacity(shards);
        for s in 0..shards {
            children.push(spawn_shard_process(&worker, &coord_str, s)?);
        }

        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "worker hung up mid-handshake");

        let mut read_halves: Vec<Option<BufReader<Conn>>> = (0..shards).map(|_| None).collect();
        let mut write_halves: Vec<Option<Conn>> = (0..shards).map(|_| None).collect();
        let mut peer_addrs = vec![String::new(); shards];
        for _ in 0..shards {
            let conn = listener.accept()?;
            let w = conn.try_clone()?;
            let mut r = BufReader::new(conn);
            let frame = read_frame(&mut r)?.ok_or_else(eof)?;
            let hello = decode_hello(&frame).map_err(|_| invalid("bad hello frame"))?;
            if hello.shard >= shards || read_halves[hello.shard].is_some() {
                return Err(invalid("hello names a bad shard"));
            }
            peer_addrs[hello.shard] = hello.peer_addr;
            read_halves[hello.shard] = Some(r);
            write_halves[hello.shard] = Some(w);
        }

        let mut scratch = Vec::new();
        let mut conns = Vec::with_capacity(shards);
        for (s, w) in write_halves.iter_mut().enumerate() {
            let init = WorkerInit {
                n: spec.n,
                shards,
                k_slots: spec.k_slots,
                report_mode: spec.report_mode,
                wire_mode: spec.wire_mode,
                consume_mode: spec.consume_mode,
                repr: spec.repr,
                master_seed: spec.master_seed,
                plan: spec.plan.clone(),
                round_state: spec.round_state,
                rule: spec.rule,
                condensed: spec.condensed,
                body: spec.bodies[s].clone(),
                peer_addrs: peer_addrs.clone(),
                die_at_round: cfg.kill.and_then(|(ks, r)| (ks == s).then_some(r)),
            };
            scratch.clear();
            encode_worker_init(&init, &mut scratch);
            write_frame(w.as_mut().expect("hello filled every slot"), &scratch)?;
        }
        for r in read_halves.iter_mut() {
            let r = r.as_mut().expect("hello filled every slot");
            let frame = read_frame(r)?.ok_or_else(eof)?;
            if frame.kind != FrameKind::Ready {
                return Err(invalid("expected ready frame"));
            }
        }

        let (tx, reports) = mpsc::channel();
        for r in read_halves.into_iter().flatten() {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut r = r;
                loop {
                    match read_frame(&mut r) {
                        Ok(Some(frame)) => {
                            let len = frame.wire_len();
                            match decode_report(&frame) {
                                Ok(rep) => {
                                    if tx.send(Some((rep, len))).is_err() {
                                        return;
                                    }
                                }
                                Err(_) => {
                                    let _ = tx.send(None);
                                    return;
                                }
                            }
                        }
                        Ok(None) | Err(_) => {
                            let _ = tx.send(None);
                            return;
                        }
                    }
                }
            });
        }
        for w in write_halves {
            conns.push(w.expect("hello filled every slot"));
        }

        Ok(Self {
            link: SocketLink { conns, reports, sent: 0, received: 0, scratch },
            children,
            cleanup,
        })
    }

    pub(crate) fn link_mut(&mut self) -> &mut SocketLink {
        &mut self.link
    }

    /// Best-effort Stop to every worker, then reaps the processes
    /// (killed workers reap with their signal status) and removes the
    /// fleet's socket files.
    pub(crate) fn shutdown(mut self) {
        for s in 0..self.link.conns.len() {
            let _ = self.link.send_control(s, Control::Stop);
        }
        drop(self.link);
        for child in &mut self.children {
            let _ = child.wait();
        }
        for path in &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_addr_round_trips_its_string_form() {
        for s in ["unix:/tmp/x.sock", "tcp:127.0.0.1:8080"] {
            let addr = TransportAddr::parse(s).expect("parses");
            assert_eq!(addr.to_string(), s);
        }
        assert_eq!(TransportAddr::parse("udp:nope"), None);
        assert_eq!(TransportAddr::parse("bare"), None);
    }

    #[test]
    fn rule_specs_round_trip_parameters() {
        assert_eq!(LazyVoter::new(0.25).spec(), RuleSpec::LazyVoter(0.25));
        assert_eq!(HMajority::new(5).spec(), RuleSpec::HMajority(5));
        assert_eq!(Voter.spec(), RuleSpec::Voter);
    }
}
