package main

import (
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"iomodels/internal/btree"
	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
)

// probes are the traced run's instruments: wrappers around the tree's
// public functions that forward every call unchanged and count it, and the
// storage layer's own IO trace (kvserve's -trace) over the timed phase.
//
// The device layer is observed through the trace rather than a wrapper
// around storage.Device: the enginebypass analyzer reserves Device.Access
// for the engine layer, and the trace records each IO the store issues.
type probes struct {
	get   callTimer // Get on the per-connection tree sessions
	apply callTimer // Put and Delete on the tree behind the writer
	io    *storage.Trace
}

// callTimer counts calls and their summed wall time.
type callTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *callTimer) done(start time.Time) {
	t.calls.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

// timedSession times Get on a read session; everything else is the
// embedded session's own method.
type timedSession struct {
	*btree.Session
	t *callTimer
}

func (s *timedSession) Get(key []byte) ([]byte, bool) {
	start := time.Now()
	v, ok := s.Session.Get(key)
	s.t.done(start)
	return v, ok
}

// timedTree times the tree's mutations as the writer applies them.
// Checkpoint, Flush and the read methods are the embedded tree's own, so a
// durable engine checkpoints the real tree through the wrapper.
type timedTree struct {
	*btree.Tree
	t *callTimer
}

func (w *timedTree) Put(key, value []byte) {
	start := time.Now()
	w.Tree.Put(key, value)
	w.t.done(start)
}

func (w *timedTree) Delete(key []byte) bool {
	start := time.Now()
	ok := w.Tree.Delete(key)
	w.t.done(start)
	return ok
}

// sample is one reading of every counter the benchmark uses, taken before
// and after the timed phase.
type sample struct {
	wall   time.Time
	vclock sim.Time // the primary's shared virtual clock
	cpu    time.Duration
	rt     runtimeCounters
	dur    engine.DurabilityStats
	ship   engine.ShipStats
	io     storage.Counters

	// Traced runs only.
	srv    server.StatsSnapshot
	pager  engine.PagerStats
	router cluster.RouterStats
	get    calls
	apply  calls
}

type calls struct{ n, ns int64 }

func (t *callTimer) read() calls { return calls{t.calls.Load(), t.ns.Load()} }

// sumTrace sums the IO trace's records as storage.Counters.
func sumTrace(tr *storage.Trace) storage.Counters {
	var c storage.Counters
	for _, r := range tr.Snapshot() {
		if r.Op == storage.Read {
			c.Reads++
			c.BytesRead += r.Size
			c.ReadTime += r.Latency
		} else {
			c.Writes++
			c.BytesWritten += r.Size
			c.WriteTime += r.Latency
		}
	}
	return c
}

// takeSample reads the counters of the topology's primary and, when
// routers is non-nil, of the driver's routers.
func takeSample(tp *topology, routers []*cluster.Router) sample {
	n := tp.primary
	s := sample{
		wall:   time.Now(),
		vclock: n.clock.Now(),
		cpu:    processCPU(),
		rt:     readRuntime(),
		dur:    n.eng.DurabilityStats(),
		ship:   n.eng.ShipStats(),
		io:     n.eng.Counters(),
	}
	if n.probes == nil {
		return s
	}
	s.srv = n.srv.Snapshot()
	s.pager = n.eng.Pager().Stats()
	for _, r := range routers {
		st := r.Stats()
		s.router.Failovers += st.Failovers
		s.router.Probes += st.Probes
		s.router.Promotes += st.Promotes
	}
	s.get = n.probes.get.read()
	s.apply = n.probes.apply.read()
	return s
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		ss[i].Name = name
	}
	metrics.Read(ss)
	return runtimeCounters{
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		totalCPU:   ss[3].Value.Float64(),
	}
}
