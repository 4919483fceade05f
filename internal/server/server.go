// Package server is a concurrent KV service over the repo's storage engine
// and trees: a length-prefixed binary protocol on TCP, a PDAM-aware read
// scheduler that admits reads in device-parallelism-sized batches
// (scheduler.go), a single writer that group-commits mutations across
// connections through the PR-2 WAL (writer.go), admission control that
// sheds load with typed busy replies, and a metrics layer (metrics.go).
//
// Virtual vs real time: the engine's devices are timing models, so the
// server runs them on an engine.SharedClock — handler goroutines are real,
// but every IO is stamped in virtual time, and throughput in device time
// steps is measured exactly as in the paper's Lemma 13 experiment. Latency
// histograms, by contrast, are wall-clock: they describe the service as a
// network process.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/obs"
	"iomodels/internal/storage"
)

// Config tunes the server. Zero values select defaults.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe ("127.0.0.1:0"
	// picks a free port).
	Addr string
	// BatchIOs is the read scheduler's batch size per lane. 0 asks the
	// device for its ParallelismHint (the PDAM's P) — or, on a multi-queue
	// device, its per-queue service rate (QueueHint); devices without
	// either get 16. 1 gives the DAM-style one-at-a-time scheduler (the
	// E20 baseline).
	BatchIOs int
	// ReadLanes is the number of independent read-batch lanes, each with
	// its own BatchIOs-sized batches; requests are assigned lanes by key
	// hash. 0 asks the device for its queue topology (QueueHint) and falls
	// back to 1 — the classic global scheduler — on devices without queue
	// structure. On a multi-queue device, per-queue lanes keep each batch
	// sized to what one queue can serve instead of one global batch
	// overcommitting the device.
	ReadLanes int
	// BatchGrace is how long (real time) a partial read batch waits for
	// stragglers before launching. Default 200µs.
	BatchGrace time.Duration
	// ReadQueue bounds queued+running read requests; beyond it reads are
	// refused with StatusBusy. Default 4×BatchIOs.
	ReadQueue int
	// WriteQueue bounds queued write requests (default 1024); WriteBatch
	// bounds mutations per group commit (default 64).
	WriteQueue int
	WriteBatch int
	// MaxFrameBytes bounds request/reply frames (default DefaultMaxFrame).
	MaxFrameBytes int
	// MaxScanLimit bounds one scan's entry count (default 10000).
	MaxScanLimit int
	// Tracer, if set, is attached to the engine: reads and commits open
	// spans, the pager/WAL/checkpoint layers annotate them, and /stats and
	// /metrics expose the per-layer breakdown and live model residuals.
	Tracer *obs.Tracer

	// ShardID/Shards place this node in a cluster (defaults 0 of 1). The
	// Hello op reports them; the router refuses a node whose identity does
	// not match its topology.
	ShardID int
	Shards  int
	// Role is the node's initial cluster role (RoleSolo outside a cluster).
	// A replica refuses client writes with StatusNotPrimary until promoted.
	Role Role
	// OnPromote, if set, runs inside a replica's Promote handling before the
	// role flips: stop the shipper, seal the log tail, return the LSN the
	// node will serve from. Errors refuse the promotion.
	OnPromote func() (uint64, error)
	// SyncShip makes a primary acknowledge a write only after a replica's
	// ShipPull has acknowledged an LSN at or past it (semi-synchronous
	// replication: an acked write survives failover). Writes that wait
	// longer than SyncShipTimeout (default 2s) are answered with StatusErr —
	// durable locally, unacknowledged remotely.
	SyncShip        bool
	SyncShipTimeout time.Duration

	// SlowOpThreshold, when > 0, makes every request whose wall-clock
	// service time reaches it emit one structured (JSON) log line on
	// SlowOpLog: the op, its latency, its trace identity, and — when a
	// tracer is attached — the request span's per-layer breakdown (device
	// IOs, bytes, and virtual IO time per stack layer, pager hits/misses,
	// group-commit wait). SlowOpLog defaults to os.Stderr.
	SlowOpThreshold time.Duration
	SlowOpLog       io.Writer
}

func (c Config) withDefaults(dev storage.Device) Config {
	if c.ReadLanes == 0 {
		if h, ok := dev.(interface{ QueueHint() (int, int) }); ok {
			queues, perQueue := h.QueueHint()
			c.ReadLanes = queues
			if c.BatchIOs == 0 {
				c.BatchIOs = perQueue
			}
		} else {
			c.ReadLanes = 1
		}
	}
	if c.ReadLanes < 1 {
		c.ReadLanes = 1
	}
	if c.BatchIOs == 0 {
		if h, ok := dev.(interface{ ParallelismHint() int }); ok {
			c.BatchIOs = h.ParallelismHint()
		} else {
			c.BatchIOs = 16
		}
	}
	if c.BatchIOs < 1 {
		c.BatchIOs = 1
	}
	if c.BatchGrace == 0 {
		c.BatchGrace = 200 * time.Microsecond
	}
	if c.ReadQueue == 0 {
		c.ReadQueue = 4 * c.BatchIOs * c.ReadLanes
	}
	if c.WriteQueue == 0 {
		c.WriteQueue = 1024
	}
	if c.WriteBatch == 0 {
		c.WriteBatch = 64
	}
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = DefaultMaxFrame
	}
	if c.MaxScanLimit == 0 {
		c.MaxScanLimit = 10000
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.SyncShipTimeout == 0 {
		c.SyncShipTimeout = 2 * time.Second
	}
	if c.SlowOpThreshold > 0 && c.SlowOpLog == nil {
		c.SlowOpLog = os.Stderr
	}
	return c
}

// Backend is what the server serves: an engine already adopted onto Clock,
// a session factory for the read path, and the write target. For a durable
// backend, Writer is the *engine.Durable wrapper and writes group-commit;
// otherwise they apply directly.
type Backend struct {
	Eng   *engine.Engine
	Clock *engine.SharedClock
	// NewSession returns a per-connection read session (tree.Session(c)).
	NewSession func(*engine.Client) engine.Dictionary
	// Writer is the mutation target (the Durable wrapper when durability
	// is on, else the tree itself).
	Writer engine.Dictionary
}

// Server is one serving instance.
type Server struct {
	cfg     Config
	backend Backend

	readSched *readScheduler
	metrics   *metrics

	writeCh      chan writeReq
	writerDone   chan struct{}
	writeScratch []writeReq // writer-goroutine-local batch buffer

	// stateMu orders tree reads against tree mutations: sessions take the
	// read side per operation, the writer takes the write side per batch.
	// (The pager is internally synchronized; this lock is for the trees'
	// single-writer rule.)
	stateMu sync.RWMutex //lint:lockrank 10

	// Cluster state (cluster.go): the node's role, the sync-ship ack gate,
	// and the replica's applied high-water mark.
	role           atomic.Int32
	promoteMu      sync.Mutex    //lint:lockrank 20
	shipMu         sync.Mutex    //lint:lockrank 30
	shipAcked      uint64        // highest LSN a subscriber has acknowledged
	shipWake       chan struct{} // closed+replaced when shipAcked advances
	shipAppliedLSN atomic.Uint64 // replica: highest shipped primary LSN applied

	// lag is the replication-lag estimator the cluster shipper feeds via
	// NoteShipLag (one sample per ship pull, on a replica).
	lag *obs.LagEstimator

	listenAddr atomic.Value // string: bound listen address, set by Serve

	mu       sync.Mutex //lint:lockrank 50
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// New creates a server over backend. It validates the backend, applies
// config defaults (asking the device for its parallelism), and starts the
// writer goroutine; call ListenAndServe (or Serve) next.
func New(cfg Config, backend Backend) (*Server, error) {
	if backend.Eng == nil || backend.Clock == nil || backend.NewSession == nil || backend.Writer == nil {
		return nil, errors.New("server: incomplete backend")
	}
	cfg = cfg.withDefaults(backend.Eng.Device())
	if cfg.Tracer != nil {
		backend.Eng.SetTracer(cfg.Tracer)
	}
	s := &Server{
		cfg:        cfg,
		backend:    backend,
		readSched:  newLaneScheduler(backend.Clock, cfg.ReadLanes, cfg.BatchIOs, cfg.ReadQueue, cfg.BatchGrace),
		metrics:    newMetrics(),
		writeCh:    make(chan writeReq, cfg.WriteQueue),
		writerDone: make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		shipWake:   make(chan struct{}),
		lag:        obs.NewLagEstimator(0),
	}
	s.setRole(cfg.Role)
	go s.writerLoop()
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// ListenAndServe binds cfg.Addr and serves until Close. It returns once the
// listener is bound, serving in the background; the returned address has any
// ":0" port resolved.
func (s *Server) ListenAndServe() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections from ln in the background until Close.
func (s *Server) Serve(ln net.Listener) {
	s.listenAddr.Store(ln.Addr().String())
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.connWG.Add(1)
			go s.handleConn(conn)
		}
	}()
}

// track registers a live connection; false once the server is closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.metrics.conns.Add(1)
	s.metrics.connsTotal.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.metrics.conns.Add(-1)
}

// ListenAddr returns the bound listen address ("" before Serve). It is the
// node's identity on /stats and /metrics — the address kvtop keys its rows
// by.
func (s *Server) ListenAddr() string {
	if v := s.listenAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// NoteShipLag records one replication-lag observation: how far this node's
// applied position trails the primary's durable position, in seconds (from
// the commit wall-time stamped on shipped records) and LSNs. The cluster
// shipper calls it once per pull; /stats and /metrics expose the estimator.
func (s *Server) NoteShipLag(lagSeconds float64, lagLSNs int64) {
	s.lag.Observe(lagSeconds, lagLSNs)
}

// Close shuts the server down: stop accepting, sever connections, wait for
// handlers, then drain and stop the writer. Safe to call once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.acceptWG.Wait()
	s.connWG.Wait()
	close(s.writeCh)
	<-s.writerDone
	return nil
}

// maxSnapsPerConn bounds the snapshots one connection may hold open: live
// snapshots pin version-chain memory engine-wide, so a leaky client must
// not grow it without bound.
const maxSnapsPerConn = 64

// connState is one connection's serving state: its engine client, its read
// session, and the snapshots it holds open (ids are connection-local).
type connState struct {
	client   *engine.Client
	session  engine.Dictionary
	snaps    map[uint64]*engine.Snap
	nextSnap uint64
	// lastSpan is the span the most recent read/write on this connection
	// finished with (nil when sampled out or untraced); the slow-op log
	// reads its per-layer events after the fact.
	lastSpan *obs.Span
}

// releaseAll retires every snapshot the connection still holds (the
// disconnect path; the iolint snapshotrelease check enforces the same
// discipline on library callers).
func (cs *connState) releaseAll() {
	for id, sn := range cs.snaps {
		sn.Release()
		delete(cs.snaps, id)
	}
}

// handleConn serves one connection: its own engine client and read session
// (per-connection virtual timeline), one request at a time.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer s.untrack(conn)
	defer conn.Close()

	client := s.backend.Eng.SharedClient(s.backend.Clock)
	s.stateMu.RLock()
	session := s.backend.NewSession(client)
	s.stateMu.RUnlock()
	cs := &connState{client: client, session: session, snaps: make(map[uint64]*engine.Snap)}
	defer cs.releaseAll()

	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		buf, err := readFrame(r, s.cfg.MaxFrameBytes)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				s.metrics.protoErrs.Add(1)
			}
			return // disconnect (EOF, reset, oversized frame)
		}
		req, err := decodeRequest(buf, s.cfg.MaxScanLimit)
		var reply []byte
		if err != nil {
			s.metrics.protoErrs.Add(1)
			reply = encodeStatus(StatusErr, err.Error())
		} else {
			reply = s.serveRequest(cs, req)
		}
		if err := writeFrame(w, reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// serveRequest executes one decoded request and returns the reply payload.
func (s *Server) serveRequest(cs *connState, req request) []byte {
	s.metrics.inFlight.Add(1)
	start := time.Now()
	var reply []byte
	switch req.op {
	case OpPing:
		reply = encodeStatus(StatusOK, "")
	case OpStats:
		reply = s.serveStats()
	case OpGet, OpScan:
		reply = s.serveRead(cs, req)
	case OpPut, OpDelete, OpUpsert:
		reply = s.serveWrite(cs, req)
	case OpSnapOpen:
		reply = s.serveSnapOpen(cs, req)
	case OpSnapGet, OpSnapScan:
		reply = s.serveSnapRead(cs, req)
	case OpSnapRelease:
		reply = s.serveSnapRelease(cs, req)
	case OpHello:
		reply = s.serveHello()
	case OpShipPull:
		reply = s.serveShipPull(req)
	case OpPromote:
		reply = s.servePromote()
	default:
		reply = encodeStatus(StatusErr, fmt.Sprintf("unhandled op %v", req.op))
	}
	wall := time.Since(start)
	s.metrics.observe(req.op, wall)
	s.metrics.inFlight.Add(-1)
	if thr := s.cfg.SlowOpThreshold; thr > 0 && wall >= thr {
		s.logSlowOp(cs, req, wall)
	}
	cs.lastSpan = nil
	return reply
}

// obsTC converts a wire trace context into the tracer's mirror form.
func obsTC(tc kv.TraceContext) obs.TraceContext {
	return obs.TraceContext{TraceID: tc.TraceID, SpanID: tc.SpanID, Sampled: tc.Sampled()}
}

// slowOpLayer is one stack layer's share in a slow-op log line.
type slowOpLayer struct {
	Layer string  `json:"layer"`
	IOs   int64   `json:"ios"`
	Bytes int64   `json:"bytes"`
	IOUs  float64 `json:"io_us"` // virtual device time, µs
}

// slowOpLine is the slow-op structured log record: one JSON object per line
// on Config.SlowOpLog for every request at or past SlowOpThreshold.
type slowOpLine struct {
	Event       string        `json:"event"` // always "slow_op"
	Op          string        `json:"op"`
	WallUs      float64       `json:"wall_us"`
	ThresholdUs float64       `json:"threshold_us"`
	Role        string        `json:"role"`
	Shard       int           `json:"shard"`
	TraceID     string        `json:"trace_id,omitempty"` // hex
	SpanWire    string        `json:"span,omitempty"`     // hex wire id
	VirtualUs   float64       `json:"virtual_us,omitempty"`
	Layers      []slowOpLayer `json:"layers,omitempty"`
	PagerHits   int64         `json:"pager_hits,omitempty"`
	PagerMisses int64         `json:"pager_misses,omitempty"`
	WALCommitUs float64       `json:"wal_commit_us,omitempty"`
}

// logSlowOp emits one structured line for a slow request. The span (when
// the op was traced) supplies the per-layer breakdown; an untraced slow op
// still logs its identity and latency. The line is built first and written
// with a single Write so concurrent handlers' lines do not interleave.
func (s *Server) logSlowOp(cs *connState, req request, wall time.Duration) {
	line := slowOpLine{
		Event:       "slow_op",
		Op:          req.op.String(),
		WallUs:      float64(wall) / float64(time.Microsecond),
		ThresholdUs: float64(s.cfg.SlowOpThreshold) / float64(time.Microsecond),
		Role:        s.Role().String(),
		Shard:       s.cfg.ShardID,
	}
	if req.tc.Valid() {
		line.TraceID = fmt.Sprintf("%016x", req.tc.TraceID)
	}
	if sp := cs.lastSpan; sp != nil {
		if sp.TraceID != 0 {
			line.TraceID = fmt.Sprintf("%016x", sp.TraceID)
		}
		line.SpanWire = fmt.Sprintf("%016x", sp.Wire)
		line.VirtualUs = float64(sp.End-sp.Start) / 1e3
		var layers [4]slowOpLayer
		for _, ev := range sp.Events {
			switch ev.Kind {
			case obs.EvIO:
				l := &layers[int(ev.Layer)%len(layers)]
				l.IOs++
				l.Bytes += ev.Size
				l.IOUs += float64(ev.Latency) / 1e3
			case obs.EvCacheHit:
				line.PagerHits++
			case obs.EvCacheMiss:
				line.PagerMisses++
			case obs.EvWALCommit:
				line.WALCommitUs += float64(ev.Latency) / 1e3
			}
		}
		for i, l := range layers {
			if l.IOs == 0 {
				continue
			}
			l.Layer = obs.Layer(i).String()
			line.Layers = append(line.Layers, l)
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	_, _ = s.cfg.SlowOpLog.Write(buf)
}

// serveSnapOpen pins a snapshot at the current applied LSN (or a named one
// — time travel) and hands the connection an id for it.
func (s *Server) serveSnapOpen(cs *connState, req request) []byte {
	if len(cs.snaps) >= maxSnapsPerConn {
		s.metrics.busy.Add(1)
		return encodeStatus(StatusBusy, "too many open snapshots on this connection")
	}
	var sn *engine.Snap
	var err error
	if req.atLSN {
		sn, err = s.backend.Eng.SnapshotAt(req.lsn)
	} else {
		sn, err = s.backend.Eng.Snapshot()
	}
	if err != nil {
		if errors.Is(err, engine.ErrSnapshotOutOfRange) {
			s.metrics.snapExpired.Add(1)
			return encodeStatus(StatusSnapExpired, err.Error())
		}
		return encodeStatus(StatusErr, err.Error())
	}
	cs.nextSnap++
	cs.snaps[cs.nextSnap] = sn
	var e kv.Enc
	e.U8(uint8(StatusOK))
	e.U64(cs.nextSnap)
	e.U64(sn.LSN())
	return e.Buf
}

// serveSnapRead runs a snapshot Get/Scan. The fast path never consults the
// write queue, the state lock, or the batch scheduler: a point read whose
// key has a recorded version resolves from the in-memory chain alone. Only
// chain misses — keys untouched since the snapshot opened, whose current
// tree value IS the snapshot value — take the ordinary scheduled read path,
// since they may do device IO.
func (s *Server) serveSnapRead(cs *connState, req request) []byte {
	sn, ok := cs.snaps[req.snapID]
	if !ok {
		s.metrics.snapExpired.Add(1)
		return encodeStatus(StatusSnapExpired, fmt.Sprintf("unknown snapshot id %d", req.snapID))
	}
	if req.op == OpSnapGet {
		value, present, hit, err := sn.TryGet(req.key)
		if err != nil {
			s.metrics.snapExpired.Add(1)
			return encodeStatus(StatusSnapExpired, err.Error())
		}
		if hit {
			s.metrics.snapChainHits.Add(1)
			sp := cs.client.StartSpanLinked(req.op.String(), obsTC(req.tc))
			sp.MVCCResolve(true, cs.client.Now())
			cs.client.FinishSpan(sp)
			if !present {
				s.metrics.notFound.Add(1)
				return encodeStatus(StatusNotFound, "")
			}
			var e kv.Enc
			e.U8(uint8(StatusOK))
			e.Bytes(value)
			return e.Buf
		}
	}
	// Chain miss (or a scan, whose tree merge reads the structure): the read
	// may touch the device, so it joins a batch like any other read — but
	// never the write queue; the snapshot's visibility does not depend on
	// in-flight commits.
	affinity := req.key
	if req.op == OpSnapScan {
		affinity = req.lo
	}
	b, ok := s.readSched.admit(s.readSched.laneOf(affinity))
	if !ok {
		s.metrics.busy.Add(1)
		return encodeStatus(StatusBusy, "read queue full")
	}
	<-b.launched
	cs.client.AlignTo(b.start)
	sp := cs.client.StartSpanLinked(req.op.String(), obsTC(req.tc))
	sp.MVCCResolve(false, cs.client.Now())

	s.stateMu.RLock()
	var reply []byte
	switch req.op {
	case OpSnapGet:
		v, found, err := sn.Get(cs.session, req.key)
		switch {
		case err != nil:
			s.metrics.snapExpired.Add(1)
			reply = encodeStatus(StatusSnapExpired, err.Error())
		case found:
			var e kv.Enc
			e.U8(uint8(StatusOK))
			e.Bytes(v)
			reply = e.Buf
		default:
			s.metrics.notFound.Add(1)
			reply = encodeStatus(StatusNotFound, "")
		}
	case OpSnapScan:
		// Empty bounds decode as non-nil empty slices; the trees read a
		// non-nil hi as a real bound, so normalize like the plain scan path.
		var lo, hi []byte
		if len(req.lo) > 0 {
			lo = req.lo
		}
		if len(req.hi) > 0 {
			hi = req.hi
		}
		var entries []kv.Entry
		err := sn.Scan(cs.session, lo, hi, func(k, v []byte) bool {
			entries = append(entries, kv.Entry{
				Key:   append([]byte(nil), k...),
				Value: append([]byte(nil), v...),
			})
			return len(entries) < req.limit
		})
		if err != nil {
			s.metrics.snapExpired.Add(1)
			reply = encodeStatus(StatusSnapExpired, err.Error())
		} else {
			var e kv.Enc
			e.U8(uint8(StatusOK))
			e.U32(uint32(len(entries)))
			for _, ent := range entries {
				e.Entry(ent)
			}
			reply = e.Buf
		}
	}
	s.stateMu.RUnlock()
	cs.client.FinishSpan(sp)
	cs.lastSpan = sp
	s.readSched.done(b, cs.client.Now())
	return reply
}

// serveSnapRelease retires one snapshot (idempotent per id).
func (s *Server) serveSnapRelease(cs *connState, req request) []byte {
	sn, ok := cs.snaps[req.snapID]
	if !ok {
		s.metrics.snapExpired.Add(1)
		return encodeStatus(StatusSnapExpired, fmt.Sprintf("unknown snapshot id %d", req.snapID))
	}
	sn.Release()
	delete(cs.snaps, req.snapID)
	return encodeStatus(StatusOK, "")
}

// serveRead runs a Get/Scan through the batch scheduler: join a batch on
// the key's lane (or be shed), start at the batch's common virtual instant,
// read under the state read-lock, report completion.
func (s *Server) serveRead(cs *connState, req request) []byte {
	client, session := cs.client, cs.session
	affinity := req.key
	if req.op == OpScan {
		affinity = req.lo
	}
	b, ok := s.readSched.admit(s.readSched.laneOf(affinity))
	if !ok {
		s.metrics.busy.Add(1)
		return encodeStatus(StatusBusy, "read queue full")
	}
	<-b.launched
	client.AlignTo(b.start)
	// The span opens at the batch's common virtual instant, so its duration
	// is the request's virtual service time (queue wait is wall-clock and
	// deliberately excluded — virtual time is the models' currency). A
	// carried trace context links the span under the client's trace and
	// bypasses sampling; a zero context is the ordinary sampled StartSpan.
	sp := client.StartSpanLinked(req.op.String(), obsTC(req.tc))

	s.stateMu.RLock()
	var reply []byte
	switch req.op {
	case OpGet:
		v, found := session.Get(req.key)
		if found {
			var e kv.Enc
			e.U8(uint8(StatusOK))
			e.Bytes(v)
			reply = e.Buf
		} else {
			s.metrics.notFound.Add(1)
			reply = encodeStatus(StatusNotFound, "")
		}
	case OpScan:
		var lo, hi []byte
		if len(req.lo) > 0 {
			lo = req.lo
		}
		if len(req.hi) > 0 {
			hi = req.hi
		}
		var entries []kv.Entry
		session.Scan(lo, hi, func(k, v []byte) bool {
			entries = append(entries, kv.Entry{
				Key:   append([]byte(nil), k...),
				Value: append([]byte(nil), v...),
			})
			return len(entries) < req.limit
		})
		var e kv.Enc
		e.U8(uint8(StatusOK))
		e.U32(uint32(len(entries)))
		for _, ent := range entries {
			e.Entry(ent)
		}
		reply = e.Buf
	}
	s.stateMu.RUnlock()
	client.FinishSpan(sp)
	cs.lastSpan = sp
	s.readSched.done(b, client.Now())
	return reply
}

// serveWrite enqueues the mutation for the writer's next group commit and
// waits for the batch's WAL flush before acknowledging.
func (s *Server) serveWrite(cs *connState, req request) []byte {
	if s.Role() == RoleReplica {
		s.metrics.notPrimary.Add(1)
		return encodeStatus(StatusNotPrimary, "replica: writes go to the shard primary")
	}
	// The server-side span for this write: linked under the client's carried
	// trace when one arrived. Its own context rides the writeReq so the
	// group-commit span — and, through the stamped ship stream, a replica's
	// apply — links back to this request.
	sp := cs.client.StartSpanLinked(req.op.String(), obsTC(req.tc))
	tc := obsTC(req.tc)
	if sp != nil {
		tc = sp.Context()
	}
	wr := writeReq{op: req.op, key: req.key, value: req.value, delta: req.delta,
		tc: tc, done: make(chan writeResult, 1)}
	select {
	case s.writeCh <- wr:
	default:
		cs.client.FinishSpan(sp)
		cs.lastSpan = sp
		s.metrics.busy.Add(1)
		return encodeStatus(StatusBusy, "write queue full")
	}
	res := <-wr.done
	cs.client.FinishSpan(sp)
	cs.lastSpan = sp
	if res.err != nil {
		// Durability degraded (sticky WAL error): the mutation applied but
		// is not durable — surface that instead of a silent OK.
		return encodeStatus(StatusErr, fmt.Sprintf("durability: %v", res.err))
	}
	if req.op == OpDelete {
		var e kv.Enc
		e.U8(uint8(StatusOK))
		if res.accepted {
			e.U8(1)
		} else {
			e.U8(0)
		}
		return e.Buf
	}
	return encodeStatus(StatusOK, "")
}

// serveStats renders the JSON snapshot into an OK reply.
func (s *Server) serveStats() []byte {
	js, err := statsJSON(s)
	if err != nil {
		return encodeStatus(StatusErr, err.Error())
	}
	var e kv.Enc
	e.U8(uint8(StatusOK))
	e.Bytes(js)
	return e.Buf
}
