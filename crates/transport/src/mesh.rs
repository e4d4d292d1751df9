//! Real-concurrency backends: one OS thread per node, over in-process
//! channels or loopback TCP.
//!
//! Both share [`MeshTransport`], which implements the paper's
//! message-absence detection (assumption (b)) with a **round-barrier
//! protocol** over [`Frame`]s:
//!
//! 1. the first `poll` opens round 0 with a `Timeout { 0 }` event;
//! 2. after the driver has dispatched the machine's sends for round `r`,
//!    the next `poll` broadcasts `Mark(r)` — FIFO links guarantee every
//!    round-`r` envelope precedes it;
//! 3. a node closes round `r` (emits `Timeout { r + 1 }`) once it holds
//!    `Mark(r)` from all `n − 1` peers **or** its wall-clock deadline
//!    expires. The deadline path is real, possibly-false absence detection:
//!    a live-but-slow peer is declared silent, exactly the failure mode
//!    §6 tolerates beyond `m` faults.
//!
//! Marks bypass the chaos layer: they are absence-detection
//! *infrastructure* (the stand-in for the paper's synchronized clocks),
//! not protocol messages, so a fault plan perturbs what BYZ says, never
//! the round structure itself.
//!
//! Chaos is evaluated twice, by the same pure function
//! ([`LinkChaos::disposition`]): the sender drops doomed envelopes and
//! emits duplicates; the receiver recomputes the verdict to learn the
//! reorder delay and *gates* the envelope until its effective round —
//! an envelope of round `s` delayed `d` rounds is handed to the machine
//! during round `s + d`, folding at the close of round `s + d + 1` as a
//! late direct observation, exactly as on the simulator backend. The
//! gate also holds back genuinely early traffic from peers that are a
//! round ahead, which the state machine would otherwise discard as
//! coming from the future.
//!
//! The receiver knows the sender (assumption (c)): every TCP connection
//! opens with the dialer's node id, and the reader thread for that
//! connection drops — and counts in [`TransportStats::forged`] — every
//! frame whose `src` names anyone else, so a Byzantine peer cannot speak
//! as an honest node.

use crate::chaos::LinkChaos;
use crate::frame::{self, Frame, MAX_FRAME_LEN};
use crate::{Disposition, DropCause, PollOutcome, Transport, TransportStats};
use degradable::{ByzMsg, NodeEvent};
use obs::TraceCtx;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for a mesh run.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Wall-clock budget per round before absent peers are timed out.
    /// Generous by default so healthy runs are mark-driven (deterministic);
    /// shorten it to exercise real (possibly false) absence detection.
    pub round_timeout: Duration,
    /// How long `tcp` setup keeps retrying dials to peers that have not
    /// bound their listener yet.
    pub dial_timeout: Duration,
    /// How many times a broken TCP link is re-dialed before the peer is
    /// declared permanently gone. Zero disables reconnection.
    pub reconnect_attempts: u32,
    /// Base delay of the deterministic exponential backoff between
    /// reconnect attempts: attempt `k` (0-based) waits
    /// [`reconnect_delay`]`(base, k)` = `min(base << k, `
    /// [`RECONNECT_DELAY_CAP`]`)`.
    pub reconnect_backoff: Duration,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            round_timeout: Duration::from_secs(5),
            dial_timeout: Duration::from_secs(10),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(10),
        }
    }
}

/// Hard ceiling on one reconnect wait. The doubling schedule used to
/// saturate only at `base * u32::MAX` — roughly 49 days at the default
/// 10ms base — so a link that flapped long enough would sleep for an
/// absurd span instead of retrying. No single backoff sleep may exceed
/// this cap.
pub const RECONNECT_DELAY_CAP: Duration = Duration::from_secs(30);

/// The deterministic backoff schedule: attempt `k` (0-based) waits
/// `base * 2^k`, clamped to [`RECONNECT_DELAY_CAP`]. Pure, so operators
/// and tests can predict the exact schedule from the config — no jitter
/// by design (the mesh is a reproducibility instrument, not an internet
/// service).
pub fn reconnect_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .min(RECONNECT_DELAY_CAP)
}

/// What every TCP reader thread of one endpoint shares: the endpoint's
/// inbox, its stop flag, and the count of forged frames dropped.
#[derive(Clone)]
struct Readers {
    tx: Sender<Frame>,
    /// Tells this endpoint's TCP reader threads to exit.
    stop: Arc<AtomicBool>,
    /// Frames whose `src` was not their connection's handshake peer.
    forged: Arc<AtomicU64>,
}

impl Readers {
    fn new(tx: Sender<Frame>) -> Self {
        Readers {
            tx,
            stop: Arc::new(AtomicBool::new(false)),
            forged: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Starts the reader thread of a connection whose id handshake
    /// named `peer`.
    fn spawn(&self, stream: TcpStream, peer: NodeId) {
        let readers = self.clone();
        thread::spawn(move || reader_loop(stream, peer, readers));
    }
}

/// Redial material for links this endpoint originally dialed.
struct Redial {
    addr: SocketAddr,
    me: NodeId,
}

/// Replacement write-streams published by the acceptor thread when a peer
/// re-dials us mid-run, keyed by peer id.
type Replacements = Arc<Mutex<Vec<(NodeId, TcpStream)>>>;

/// An outgoing link to one peer.
enum PeerLink {
    /// In-process: frames pass through an `mpsc` channel un-encoded.
    Channel(Sender<Frame>),
    /// Loopback TCP: frames cross the codec in [`frame`]. Links this
    /// endpoint dialed carry [`Redial`] material for mid-run reconnects;
    /// accepted links are repaired by the peer re-dialing us instead.
    Tcp(TcpStream, Option<Redial>),
}

/// What one link-level send attempt concluded.
enum SendStatus {
    /// Delivered to the link (possibly into an OS buffer).
    Sent,
    /// Delivered after re-establishing the connection.
    Reconnected,
    /// The link is dead and the reconnect budget is exhausted.
    Gone,
}

impl PeerLink {
    /// Sends `frame` to `peer`, attempting a bounded reconnect on broken
    /// TCP links. Channel links have no reconnect path: a closed channel
    /// means the peer thread is gone for good.
    fn send(
        &mut self,
        peer: NodeId,
        frame: &Frame,
        config: &MeshConfig,
        readers: &Readers,
    ) -> SendStatus {
        match self {
            PeerLink::Channel(tx) => match tx.send(frame.clone()) {
                Ok(()) => SendStatus::Sent,
                Err(_) => SendStatus::Gone,
            },
            PeerLink::Tcp(stream, redial) => {
                if frame::write_frame(stream, frame).is_ok() {
                    return SendStatus::Sent;
                }
                let Some(redial) = redial else {
                    // An accepted link: the dialing side owns reconnection.
                    // Keep the link around — the acceptor thread swaps in a
                    // replacement stream if the peer comes back.
                    return SendStatus::Gone;
                };
                for attempt in 0..config.reconnect_attempts {
                    thread::sleep(reconnect_delay(config.reconnect_backoff, attempt));
                    let Ok(mut s) = TcpStream::connect(redial.addr) else {
                        continue;
                    };
                    if io::Write::write_all(&mut s, &(redial.me.index() as u32).to_le_bytes())
                        .is_err()
                    {
                        continue;
                    }
                    let Ok(reader) = s.try_clone() else { continue };
                    if frame::write_frame(&mut s, frame).is_err() {
                        continue;
                    }
                    readers.spawn(reader, peer);
                    *stream = s;
                    return SendStatus::Reconnected;
                }
                SendStatus::Gone
            }
        }
    }
}

/// An envelope awaiting delivery to the local machine: source, message,
/// and the sender's causal trace context if one crossed the wire.
type QueuedDelivery = (NodeId, ByzMsg<u64>, Option<TraceCtx>);

/// One node's endpoint of a channel or TCP mesh.
pub struct MeshTransport {
    me: NodeId,
    n: usize,
    depth: usize,
    chaos: LinkChaos,
    links: BTreeMap<NodeId, PeerLink>,
    inbox: Receiver<Frame>,
    /// Shared with reader threads: the sender half of `inbox` (handed to
    /// readers spawned for reconnected links), the stop flag, and the
    /// forged-frame count.
    readers: Readers,
    /// Replacement write-streams from peers that re-dialed us.
    replacements: Replacements,
    config: MeshConfig,
    round: usize,
    started: bool,
    need_flush: bool,
    deadline: Instant,
    /// Ready envelopes, in arrival order.
    deliver_queue: VecDeque<QueuedDelivery>,
    /// Envelopes gated until `self.round` reaches their effective round.
    future: BTreeMap<usize, VecDeque<QueuedDelivery>>,
    /// Trace context of the most recently surfaced delivery.
    last_trace: Option<TraceCtx>,
    /// Peers heard finishing each round.
    marks: BTreeMap<usize, BTreeSet<NodeId>>,
    /// Peers declared permanently gone (link dead, reconnect budget
    /// exhausted). The round barrier stops waiting for them.
    gone: BTreeSet<NodeId>,
    /// Successful mid-run link re-establishments.
    reconnects: u64,
    /// Set when every peer is permanently gone: the clean-error surface.
    failure: Option<String>,
    stats: TransportStats,
}

impl MeshTransport {
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: NodeId,
        n: usize,
        depth: usize,
        chaos: LinkChaos,
        links: BTreeMap<NodeId, PeerLink>,
        inbox: Receiver<Frame>,
        readers: Readers,
        replacements: Replacements,
        config: MeshConfig,
    ) -> Self {
        MeshTransport {
            me,
            n,
            depth,
            chaos,
            links,
            inbox,
            readers,
            replacements,
            config,
            round: 0,
            started: false,
            need_flush: false,
            deadline: Instant::now() + config.round_timeout,
            deliver_queue: VecDeque::new(),
            future: BTreeMap::new(),
            last_trace: None,
            marks: BTreeMap::new(),
            gone: BTreeSet::new(),
            reconnects: 0,
            failure: None,
            stats: TransportStats::default(),
        }
    }

    /// Peers declared permanently gone after an exhausted reconnect
    /// budget. The round barrier no longer waits for them.
    pub fn gone_peers(&self) -> &BTreeSet<NodeId> {
        &self.gone
    }

    /// Successful mid-run link re-establishments (dialer side).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The clean-error surface: `Some` once *every* peer is permanently
    /// gone, at which point the endpoint fast-forwards its remaining
    /// rounds (all-absent) instead of hanging on wall-clock deadlines.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    /// Adopts replacement write-streams from peers that re-dialed us: the
    /// acceptor thread publishes them, we swap them into the link table
    /// and un-declare the peer gone.
    fn adopt_replacements(&mut self) {
        let fresh: Vec<(NodeId, TcpStream)> = {
            let mut guard = self.replacements.lock().expect("replacements poisoned");
            guard.drain(..).collect()
        };
        for (peer, stream) in fresh {
            self.links.insert(peer, PeerLink::Tcp(stream, None));
            if self.gone.remove(&peer) {
                self.failure = None;
            }
        }
    }

    /// Sends one frame on one link, tracking reconnects and gone peers.
    fn link_send(&mut self, to: NodeId, frame: &Frame) {
        if self.gone.contains(&to) {
            return;
        }
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        match link.send(to, frame, &self.config, &self.readers) {
            SendStatus::Sent => {}
            SendStatus::Reconnected => self.reconnects += 1,
            SendStatus::Gone => {
                self.gone.insert(to);
                if self.gone.len() == self.n - 1 {
                    self.failure = Some(format!(
                        "node {}: all {} peers permanently gone (reconnect budget {} exhausted) \
                         in round {}",
                        self.me,
                        self.n - 1,
                        self.config.reconnect_attempts,
                        self.round
                    ));
                }
            }
        }
    }

    fn broadcast_mark(&mut self, round: usize) {
        let mark = Frame::Mark {
            src: self.me,
            round,
        };
        let peers: Vec<NodeId> = self.links.keys().copied().collect();
        for peer in peers {
            self.link_send(peer, &mark);
        }
    }

    /// Moves everything that arrived on the wire into the local queues.
    fn drain_inbox(&mut self) {
        while let Ok(f) = self.inbox.try_recv() {
            match f {
                Frame::Mark { src, round } => {
                    self.marks.entry(round).or_default().insert(src);
                }
                Frame::Envelope { src, msg, trace } => {
                    // The sending round is encoded in the path: a level-k
                    // envelope is sent while round k-1 closes. Recompute
                    // the keyed chaos verdict to learn its reorder delay —
                    // sender and receiver evaluate the same pure function,
                    // so they always agree.
                    let sent_round = msg.path.len().saturating_sub(1);
                    let delay = match self.chaos.disposition(sent_round, src, self.me, &msg.path) {
                        // The sender never puts a dropped envelope on the
                        // wire; tolerate one anyway (a dropped frame is an
                        // absent message, the protocol's bread and butter).
                        Disposition::Dropped(_) => continue,
                        Disposition::Deliver { delay_rounds, .. } => delay_rounds,
                    };
                    let effective = sent_round + delay;
                    if effective + 1 > self.depth {
                        // Would fold at a round past the end of the run.
                        self.stats.lost += 1;
                        continue;
                    }
                    if effective <= self.round {
                        self.deliver_queue.push_back((src, msg, trace));
                    } else {
                        self.future
                            .entry(effective)
                            .or_default()
                            .push_back((src, msg, trace));
                    }
                }
            }
        }
    }

    /// Closes the current round and opens the next.
    fn advance(&mut self) -> PollOutcome {
        self.round += 1;
        self.need_flush = true;
        self.deadline = Instant::now() + self.config.round_timeout;
        let due: Vec<usize> = self
            .future
            .keys()
            .copied()
            .take_while(|&k| k <= self.round)
            .collect();
        for k in due {
            if let Some(q) = self.future.remove(&k) {
                self.deliver_queue.extend(q);
            }
        }
        PollOutcome::Event(NodeEvent::Timeout { round: self.round })
    }
}

impl Transport for MeshTransport {
    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: NodeId, msg: ByzMsg<u64>) {
        self.send_traced(to, msg, None);
    }

    fn send_traced(&mut self, to: NodeId, msg: ByzMsg<u64>, trace: Option<TraceCtx>) {
        self.stats.sent += 1;
        let copies = match self.chaos.disposition(self.round, self.me, to, &msg.path) {
            Disposition::Dropped(cause) => {
                match cause {
                    DropCause::Cut => self.stats.dropped_cut += 1,
                    DropCause::Loss => self.stats.dropped_loss += 1,
                    DropCause::Corrupt => self.stats.dropped_corrupt += 1,
                }
                return;
            }
            Disposition::Deliver {
                copies,
                delay_rounds,
            } => {
                if delay_rounds > 0 {
                    self.stats.delayed += 1;
                }
                if copies > 1 {
                    self.stats.duplicated += (copies - 1) as u64;
                }
                copies
            }
        };
        let frame = Frame::Envelope {
            src: self.me,
            msg,
            trace,
        };
        for _ in 0..copies {
            self.link_send(to, &frame);
        }
    }

    fn last_trace(&self) -> Option<TraceCtx> {
        self.last_trace.clone()
    }

    fn poll(&mut self) -> PollOutcome {
        if !self.started {
            self.started = true;
            self.need_flush = true;
            self.deadline = Instant::now() + self.config.round_timeout;
            return PollOutcome::Event(NodeEvent::Timeout { round: 0 });
        }
        self.adopt_replacements();
        if self.need_flush {
            // This poll is the first since a Timeout event: the driver has
            // dispatched every send of that round, so the mark goes out
            // now — after the envelopes, per-link FIFO.
            self.need_flush = false;
            if self.round < self.depth {
                self.broadcast_mark(self.round);
            }
        }
        if self.round == self.depth {
            // The final timeout has been emitted; the machine is done.
            return PollOutcome::Closed;
        }
        self.drain_inbox();
        if let Some((src, msg, trace)) = self.deliver_queue.pop_front() {
            self.stats.delivered += 1;
            self.last_trace = trace;
            return PollOutcome::Event(NodeEvent::Deliver { src, msg });
        }
        let heard = self.marks.get(&self.round).map_or(0, BTreeSet::len);
        // Gone peers never produce marks: the barrier stops waiting for
        // them (their envelopes read as absent, the protocol's normal
        // fault mode) instead of burning a wall-clock deadline per round.
        let gone = self
            .gone
            .iter()
            .filter(|p| !self.marks.get(&self.round).is_some_and(|m| m.contains(p)))
            .count();
        if heard + gone >= self.n - 1 {
            return self.advance();
        }
        if Instant::now() >= self.deadline {
            // Deadline-expiry absence detection: unheard peers are
            // declared silent for this round whether they are dead or
            // merely slow — the latter is a false timeout. Permanently
            // gone peers are real absences, not false timeouts.
            self.stats.false_timeouts += (self.n - 1 - heard - gone) as u64;
            return self.advance();
        }
        PollOutcome::Pending
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            forged: self.readers.forged.load(Ordering::Relaxed),
            ..self.stats
        }
    }
}

impl Drop for MeshTransport {
    fn drop(&mut self) {
        self.readers.stop.store(true, Ordering::Relaxed);
    }
}

/// Builds an `n`-node in-process mesh over `std::sync::mpsc` channels.
/// Element `i` of the result is node `i`'s endpoint; move each to its own
/// thread and drive them concurrently.
pub fn channel_mesh(
    n: usize,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> Vec<MeshTransport> {
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| {
            let me = NodeId::new(i);
            let links = NodeId::all(n)
                .filter(|&p| p != me)
                .map(|p| (p, PeerLink::Channel(txs[p.index()].clone())))
                .collect();
            MeshTransport::new(
                me,
                n,
                depth,
                chaos.clone(),
                links,
                rx,
                Readers::new(txs[i].clone()),
                Arc::new(Mutex::new(Vec::new())),
                config,
            )
        })
        .collect()
}

/// Builds an `n`-node mesh over loopback TCP with ephemeral ports: binds
/// `n` listeners, performs the full dial/accept handshake on worker
/// threads, and returns node `i`'s endpoint at element `i`.
pub fn tcp_mesh(
    n: usize,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> io::Result<Vec<MeshTransport>> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let addrs = addrs.clone();
            let chaos = chaos.clone();
            thread::spawn(move || {
                join_with_listener(NodeId::new(i), listener, &addrs, depth, chaos, config)
            })
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for h in handles {
        out.push(h.join().expect("tcp mesh setup thread panicked")?);
    }
    Ok(out)
}

/// Joins a TCP mesh as node `me` of `addrs.len()` nodes at explicit
/// addresses — the `dagree serve` entry point, where each node is its own
/// process. Binds `addrs[me]`, dials every lower-indexed peer (retrying
/// until [`MeshConfig::dial_timeout`], since peers may not be up yet) and
/// accepts connections from every higher-indexed one.
pub fn tcp_join(
    me: NodeId,
    addrs: &[SocketAddr],
    depth: usize,
    chaos: LinkChaos,
    config: MeshConfig,
) -> io::Result<MeshTransport> {
    let listener = TcpListener::bind(addrs[me.index()])?;
    join_with_listener(me, listener, addrs, depth, chaos, config)
}

/// The shared dial-lower/accept-higher handshake. Every connection opens
/// with a 4-byte little-endian node index from the dialer, so the acceptor
/// knows who it is talking to (transport-level authentication, the paper's
/// oral-message assumption (c) — good enough on loopback).
fn join_with_listener(
    me: NodeId,
    listener: TcpListener,
    addrs: &[SocketAddr],
    depth: usize,
    chaos: LinkChaos,
    config: MeshConfig,
) -> io::Result<MeshTransport> {
    let n = addrs.len();
    let mut streams: BTreeMap<NodeId, Option<Redial>> = BTreeMap::new();
    let mut raw: BTreeMap<NodeId, TcpStream> = BTreeMap::new();
    for (peer, &addr) in addrs.iter().enumerate().take(me.index()) {
        let mut s = dial_with_retry(addr, config.dial_timeout)?;
        io::Write::write_all(&mut s, &(me.index() as u32).to_le_bytes())?;
        raw.insert(NodeId::new(peer), s);
        streams.insert(NodeId::new(peer), Some(Redial { addr, me }));
    }
    for _ in me.index() + 1..n {
        let (mut s, _) = listener.accept()?;
        let mut id = [0u8; 4];
        s.read_exact(&mut id)?;
        let peer = u32::from_le_bytes(id) as usize;
        if peer >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "handshake announced an out-of-range node id",
            ));
        }
        raw.insert(NodeId::new(peer), s);
        streams.insert(NodeId::new(peer), None);
    }
    let (tx, rx) = channel();
    let readers = Readers::new(tx);
    let replacements: Replacements = Arc::new(Mutex::new(Vec::new()));
    let mut links = BTreeMap::new();
    for (peer, stream) in raw {
        readers.spawn(stream.try_clone()?, peer);
        let redial = streams.remove(&peer).flatten();
        links.insert(peer, PeerLink::Tcp(stream, redial));
    }
    // The listener stays alive for the whole run: peers whose outgoing
    // link to us breaks re-dial with the same id handshake, and the
    // acceptor publishes the fresh stream as a replacement link.
    {
        let readers = readers.clone();
        let replacements = Arc::clone(&replacements);
        thread::spawn(move || acceptor_loop(listener, n, readers, replacements));
    }
    Ok(MeshTransport::new(
        me,
        n,
        depth,
        chaos,
        links,
        rx,
        readers,
        replacements,
        config,
    ))
}

/// Post-setup acceptor: keeps the listener open so disconnected peers can
/// re-dial mid-run. Each accepted connection re-runs the 4-byte id
/// handshake; its read half feeds the endpoint's inbox through a fresh
/// reader thread and its write half is published as a replacement link.
fn acceptor_loop(listener: TcpListener, n: usize, readers: Readers, replacements: Replacements) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if readers.stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                if s.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                let mut id = [0u8; 4];
                if s.read_exact(&mut id).is_err() {
                    continue;
                }
                let peer = u32::from_le_bytes(id) as usize;
                if peer >= n {
                    continue;
                }
                let Ok(reader) = s.try_clone() else { continue };
                readers.spawn(reader, NodeId::new(peer));
                replacements
                    .lock()
                    .expect("replacements poisoned")
                    .push((NodeId::new(peer), s));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

fn dial_with_retry(addr: SocketAddr, budget: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Per-connection reader: accumulates bytes and forwards complete frames
/// sent by `peer`, the node the connection's id handshake named. A frame
/// whose `src` names any other node is forged: it is dropped and counted,
/// never forwarded. Reading with a timeout (rather than blocking forever) lets the thread
/// notice the endpoint's stop flag, so finished runs do not strand reader
/// threads on half-open sockets. Partial frames survive across timeouts —
/// the accumulator only ever consumes whole frames.
fn reader_loop(mut stream: TcpStream, peer: NodeId, readers: Readers) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(k) => {
                acc.extend_from_slice(&buf[..k]);
                loop {
                    if acc.len() < 4 {
                        break;
                    }
                    let len =
                        u32::from_le_bytes(acc[..4].try_into().expect("4-byte slice")) as usize;
                    if len > MAX_FRAME_LEN as usize {
                        return; // corrupt stream: stop feeding it onward
                    }
                    if acc.len() < 4 + len {
                        break;
                    }
                    match frame::decode(&acc[4..4 + len]) {
                        Ok(f) if f.src() != peer => {
                            readers.forged.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(f) => {
                            if readers.tx.send(f).is_err() {
                                return;
                            }
                        }
                        Err(_) => return,
                    }
                    acc.drain(..4 + len);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if readers.stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::{AgreementValue, Path};

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn envelope(src: usize, path: Path, v: u64) -> Frame {
        Frame::Envelope {
            src: nid(src),
            msg: ByzMsg {
                path,
                value: AgreementValue::Value(v),
            },
            trace: None,
        }
    }

    /// Drives a 2-node channel mesh by hand: node 1 should see Timeout 0,
    /// the delivery, then timeouts driven by node 0's marks.
    #[test]
    fn channel_mesh_round_trip_with_marks() {
        let mut mesh = channel_mesh(2, 2, &LinkChaos::healthy(), MeshConfig::default());
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();

        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(9u64),
            },
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        // Node 1's next poll flushes its Mark(0) and must surface the
        // envelope before any round advance.
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                assert_eq!(src, nid(0));
                assert_eq!(msg.path, Path::root(nid(0)));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // Node 0 flushes Mark(0), hears node 1's, advances; then node 1
        // hears node 0's mark and follows.
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        // Round 1 closes the same way; round 2 is the final timeout.
        assert_eq!(n1.poll(), PollOutcome::Pending, "peer mark not in yet");
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(n1.poll(), PollOutcome::Closed);
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert_eq!(n1.stats().delivered, 1);
        assert_eq!(n0.stats().sent, 1);
        assert_eq!(n0.stats().false_timeouts, 0);
    }

    #[test]
    fn dead_peer_times_out_but_round_structure_survives() {
        let mut mesh = channel_mesh(
            2,
            1,
            &LinkChaos::healthy(),
            MeshConfig {
                round_timeout: Duration::from_millis(30),
                ..MeshConfig::default()
            },
        );
        let mut n0 = mesh.remove(0);
        // Node 1's endpoint stays alive but is never polled: a *hung* peer.
        // Its inbox channel stays open, so sends succeed and the dead-link
        // detector never fires — only the wall-clock deadline can close the
        // round, and that expiry is a (possibly false) timeout. A *gone*
        // peer (channel closed) is the separate, instantly-detected case —
        // see `gone_channel_peer_is_detected_and_rounds_advance_without_deadline`.
        let _hung_peer = mesh;
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        let start = Instant::now();
        loop {
            match n0.poll() {
                PollOutcome::Pending => thread::sleep(Duration::from_millis(2)),
                PollOutcome::Event(NodeEvent::Timeout { round: 1 }) => break,
                other => panic!("expected round-1 timeout, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "no deadline fired"
            );
        }
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert_eq!(n0.stats().false_timeouts, 1);
    }

    #[test]
    fn early_envelopes_are_gated_until_their_round() {
        // Hand-feed node 0's inbox: a level-2 envelope (round-1 traffic
        // from a peer that has raced ahead) must not surface during round
        // 0 — the machine would discard it as from the future.
        let (tx, rx) = channel();
        let mut t = MeshTransport::new(
            nid(0),
            3,
            2,
            LinkChaos::healthy(),
            BTreeMap::new(),
            rx,
            Readers::new(tx.clone()),
            Arc::new(Mutex::new(Vec::new())),
            MeshConfig::default(),
        );
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        tx.send(envelope(2, Path::root(nid(1)).child(nid(2)), 7))
            .unwrap();
        assert_eq!(t.poll(), PollOutcome::Pending, "future envelope gated");
        // Marks for round 0 from both peers release the next round.
        tx.send(Frame::Mark {
            src: nid(1),
            round: 0,
        })
        .unwrap();
        tx.send(Frame::Mark {
            src: nid(2),
            round: 0,
        })
        .unwrap();
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        match t.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, .. }) => assert_eq!(src, nid(2)),
            other => panic!("gated envelope should release in round 1, got {other:?}"),
        }
    }

    /// A peer that speaks as another node is caught at the reader: the
    /// id handshake fixed who is on the other end of the connection, so
    /// an `Envelope` or `Mark` whose `src` names anyone else is dropped
    /// and counted, never delivered.
    #[test]
    fn forged_frames_are_dropped_and_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = MeshConfig {
            round_timeout: Duration::from_secs(30),
            ..MeshConfig::default()
        };
        // Node 0 of 3 dials nobody and accepts nodes 1 and 2, so the
        // peer addresses are never used.
        let join = thread::spawn(move || {
            join_with_listener(
                nid(0),
                listener,
                &[addr; 3],
                2,
                LinkChaos::healthy(),
                config,
            )
        });
        let mut raw: Vec<TcpStream> = (1u32..=2)
            .map(|id| {
                let mut s = TcpStream::connect(addr).unwrap();
                io::Write::write_all(&mut s, &id.to_le_bytes()).unwrap();
                s
            })
            .collect();
        let mut t = join.join().unwrap().unwrap();
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );

        // Node 1's connection speaks as node 2 twice, then as itself.
        let forger = &mut raw[0];
        frame::write_frame(forger, &envelope(2, Path::root(nid(2)), 9)).unwrap();
        frame::write_frame(
            forger,
            &Frame::Mark {
                src: nid(2),
                round: 0,
            },
        )
        .unwrap();
        frame::write_frame(forger, &envelope(1, Path::root(nid(1)), 7)).unwrap();
        frame::write_frame(
            forger,
            &Frame::Mark {
                src: nid(1),
                round: 0,
            },
        )
        .unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = Vec::new();
        while !t.marks.get(&0).is_some_and(|m| m.contains(&nid(1))) {
            match t.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, .. }) => delivered.push(src),
                PollOutcome::Pending => thread::sleep(Duration::from_millis(2)),
                other => panic!("unexpected {other:?}"),
            }
            assert!(Instant::now() < deadline, "genuine frames never arrived");
        }
        assert_eq!(delivered, [nid(1)], "the forged envelope was delivered");
        assert_eq!(t.marks[&0], BTreeSet::from([nid(1)]));
        // Had the forged mark counted, both peers' marks would be in and
        // round 0 would close here.
        assert_eq!(t.poll(), PollOutcome::Pending);
        assert_eq!(t.stats().forged, 2);
        assert_eq!(t.stats().delivered, 1);
    }

    #[test]
    fn reconnect_backoff_schedule_is_deterministic() {
        let base = Duration::from_millis(10);
        assert_eq!(reconnect_delay(base, 0), Duration::from_millis(10));
        assert_eq!(reconnect_delay(base, 1), Duration::from_millis(20));
        assert_eq!(reconnect_delay(base, 2), Duration::from_millis(40));
        assert_eq!(reconnect_delay(base, 3), Duration::from_millis(80));
        // The schedule is clamped: attempt 11 would be 10ms << 11 =
        // 20.48s, attempt 12 crosses the 30s cap, and absurd attempt
        // counts (including the shift-overflow range >= 32) all pin at
        // exactly the cap instead of sleeping for days.
        assert_eq!(reconnect_delay(base, 11), Duration::from_millis(20_480));
        assert_eq!(reconnect_delay(base, 12), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, 31), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, 32), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, 63), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, u32::MAX), RECONNECT_DELAY_CAP);
        // A base already above the cap is clamped from attempt 0.
        assert_eq!(
            reconnect_delay(Duration::from_secs(60), 0),
            RECONNECT_DELAY_CAP
        );
    }

    #[test]
    fn gone_channel_peer_is_detected_and_rounds_advance_without_deadline() {
        // Node 1's endpoint (and thus its inbox receiver) is dropped: node
        // 0's first send fails cleanly, the peer is marked gone, and every
        // remaining round advances immediately instead of burning the
        // round deadline — with a generous timeout this test would hang
        // for seconds if the gone-peer path regressed.
        let mut mesh = channel_mesh(
            2,
            2,
            &LinkChaos::healthy(),
            MeshConfig {
                round_timeout: Duration::from_secs(30),
                ..MeshConfig::default()
            },
        );
        let mut n0 = mesh.remove(0);
        drop(mesh);
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(9u64),
            },
        );
        assert_eq!(
            n0.gone_peers().iter().copied().collect::<Vec<_>>(),
            [nid(1)]
        );
        assert!(n0.failure().is_some(), "all peers gone is a clean error");
        let start = Instant::now();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "gone peers must not cost a deadline per round"
        );
        // Real absences, not false timeouts.
        assert_eq!(n0.stats().false_timeouts, 0);
    }

    #[test]
    fn tcp_link_reconnects_after_peer_drops_the_connection() {
        // Node 1 dialed node 0 (dial-lower), so node 1 owns the redial
        // path. Node 0 severs the accepted connection mid-run; node 1's
        // next send must re-dial (bounded, backed off), re-handshake, and
        // deliver — and node 0's persistent acceptor must splice the
        // replacement in so traffic keeps flowing.
        let mut mesh = tcp_mesh(2, 3, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        // Node 0 severs the link it accepted from node 1 — both halves.
        match n0.links.get_mut(&nid(1)) {
            Some(PeerLink::Tcp(s, _)) => {
                s.shutdown(std::net::Shutdown::Both).unwrap();
            }
            _ => panic!("expected a TCP link"),
        }
        thread::sleep(Duration::from_millis(100)); // let the shutdown land
                                                   // Node 1's sends hit the broken socket. TCP write buffering may
                                                   // swallow the first failure, so push frames until the reconnect
                                                   // path fires (bounded by the test timeout, not by hope).
        let start = Instant::now();
        while n1.reconnects() == 0 {
            n1.send(
                nid(0),
                ByzMsg {
                    path: Path::root(nid(1)),
                    value: AgreementValue::Value(77u64),
                },
            );
            assert!(n1.gone_peers().is_empty(), "reconnect must succeed");
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "reconnect never triggered"
            );
            thread::sleep(Duration::from_millis(10));
        }
        assert!(n1.reconnects() >= 1);
        // The re-dialed connection reaches node 0 through its acceptor:
        // polling adopts the replacement and the envelope arrives.
        let start = Instant::now();
        loop {
            match n0.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                    assert_eq!(src, nid(1));
                    assert_eq!(msg.value, AgreementValue::Value(77));
                    break;
                }
                PollOutcome::Event(NodeEvent::Timeout { .. }) => {}
                PollOutcome::Pending => thread::sleep(Duration::from_millis(5)),
                PollOutcome::Closed => panic!("closed before the reconnected frame arrived"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "replacement link never delivered"
            );
        }
    }

    #[test]
    fn traced_send_surfaces_last_trace_at_the_receiver() {
        let mut mesh = channel_mesh(2, 2, &LinkChaos::healthy(), MeshConfig::default());
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        let ctx = TraceCtx::new(4, vec![0]);
        n0.send_traced(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(11u64),
            },
            Some(ctx.clone()),
        );
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, .. }) => assert_eq!(src, nid(0)),
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(n1.last_trace(), Some(ctx.clone()));
        // Untraced traffic resets the slot: the context never outlives
        // the delivery it was stamped on.
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(12u64),
            },
        );
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { .. }) => {}
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(n1.last_trace(), None);
    }

    #[test]
    fn tcp_mesh_handshake_carries_frames_both_ways() {
        let mut mesh = tcp_mesh(2, 1, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(1234u64),
            },
        );
        // Spin until the reader thread forwards the frame.
        let start = Instant::now();
        loop {
            match n1.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                    assert_eq!(src, nid(0));
                    assert_eq!(msg.value, AgreementValue::Value(1234));
                    break;
                }
                PollOutcome::Event(NodeEvent::Timeout { .. }) => {
                    panic!("round advanced before the envelope was drained")
                }
                PollOutcome::Pending => thread::sleep(Duration::from_millis(1)),
                PollOutcome::Closed => panic!("closed early"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "frame never arrived"
            );
        }
    }
}
