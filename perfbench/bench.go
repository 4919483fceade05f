package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/server"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// catchUp bounds how long a replica may take to apply what its primary
// committed.
const catchUp = 30 * time.Second

// bench is one set-up workload: its nodes and the driver's connections.
type bench struct {
	tp      *topology
	conns   []kvConn
	routers []*cluster.Router // cluster workloads only
	streams []*workload.Stream
	warm    tally
}

func (b *bench) close() {
	for _, c := range b.conns {
		c.close()
	}
	b.tp.close()
}

// streamSeed gives each connection its own stream of the run's seed.
func streamSeed(seed uint64, conn int) uint64 { return seed*conns + uint64(conn) }

// setUp builds the nodes, preloads them, lets the replica catch up, opens
// the connections and runs the untimed warm-up.
func setUp(w workloadDef, seed uint64, traced bool) (*bench, error) {
	tp, err := newTopology(w, traced)
	if err != nil {
		return nil, err
	}
	b := &bench{tp: tp}
	if err := tp.waitCaughtUp(catchUp); err != nil {
		b.close()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		if w.cluster {
			r, err := cluster.NewRouter(cluster.RouterConfig{Shards: []cluster.ShardSpec{
				{Primary: tp.primary.addr, Replicas: []string{tp.replica.addr}},
			}})
			if err != nil {
				b.close()
				return nil, err
			}
			b.routers = append(b.routers, r)
			b.conns = append(b.conns, routerConn{r})
		} else {
			c, err := dialDirect(tp.primary.addr)
			if err != nil {
				b.close()
				return nil, err
			}
			b.conns = append(b.conns, c)
		}
		b.streams = append(b.streams, workload.NewStream(spec, streamSeed(seed, i), w.items, w.mix, w.theta))
	}
	b.warm = drive(b.conns, b.streams, forOps(w.warmup))
	if err := tp.waitCaughtUp(catchUp); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// phase is one measured run of a workload: set-up, timed phase, and the
// correctness checks after it.
type phase struct {
	setupS        []float64
	cfg           server.Config // the primary's effective configuration, OnPromote cleared
	before, after sample
	warm, timed   tally
	lagMaxS       float64          // replica lag, the largest seen in the timed phase
	io            storage.Counters // the timed phase's IO trace, summed (traced runs)
	problems      []string
}

func (ph *phase) fail(format string, args ...interface{}) {
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

// measure sets the workload up setups times, keeping the last set-up for
// the timed phase, then times it for d and checks the outputs.
func measure(w workloadDef, seed uint64, d time.Duration, traced bool, setups int) (*phase, error) {
	ph := &phase{}
	var b *bench
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if b, err = setUp(w, seed, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setupS = append(ph.setupS, time.Since(start).Seconds())
	}
	defer b.close()
	ph.cfg = b.tp.primary.srv.Config()
	ph.cfg.OnPromote = nil // the closure holds the node, which must not outlive b
	ph.warm = b.warm
	if err := w.steady(w, b.tp); err != nil {
		ph.fail("steady state before timing: %v", err)
		return ph, nil
	}

	// Every timed phase starts from a fresh GC cycle with the freed memory
	// already returned to the OS, so neither a collection of the set-up
	// garbage nor the scavenger's release of it lands inside the phase.
	debug.FreeOSMemory()
	var stopLag func() float64
	if traced && b.tp.replica != nil {
		stopLag = sampleLag(b.tp.replica.srv)
	}
	pr := b.tp.primary.probes
	if pr != nil {
		// Nothing runs on the primary between the warm-up and the first
		// timed request, so the trace sees exactly the timed phase's IO.
		pr.io = storage.NewTrace()
		b.tp.primary.eng.SetTrace(pr.io)
	}
	ph.before = takeSample(b.tp, b.routers)
	ph.timed = drive(b.conns, b.streams, until(time.Now().Add(d)))
	ph.after = takeSample(b.tp, b.routers)
	if pr != nil {
		b.tp.primary.eng.SetTrace(nil)
		ph.io = sumTrace(pr.io)
	}
	if stopLag != nil {
		ph.lagMaxS = stopLag()
	}
	ph.check(w, b)
	return ph, nil
}

// sampleLag polls the replica's replication-lag estimator until the
// returned stop function is called; stop returns the largest windowed lag
// seen, in seconds.
func sampleLag(srv *server.Server) func() float64 {
	stop := make(chan struct{})
	result := make(chan float64)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var worst float64
		for {
			worst = max(worst, srv.Snapshot().ShipLag.MaxSeconds)
			select {
			case <-stop:
				result <- worst
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-result
	}
}

// check is the correctness gate: values read, acknowledged writes, and on
// a traced run the probes' reconciliation with the program's own counters.
func (ph *phase) check(w workloadDef, b *bench) {
	for _, t := range []struct {
		name string
		t    tally
	}{{"warm-up", ph.warm}, {"timed", ph.timed}} {
		if t.t.wrong > 0 {
			ph.fail("%s phase: %d wrong get results, first: %s", t.name, t.t.wrong, t.t.firstBad)
		}
	}
	if ph.timed.ops() == 0 {
		ph.fail("timed phase completed no operations (last error: %v)", ph.timed.lastErr)
	}
	if w.durable {
		// One WAL record per applied put: every acknowledged put is logged,
		// and nothing but the driver's puts is.
		recs := ph.after.dur.LogRecords - ph.before.dur.LogRecords
		acked := int64(len(ph.timed.putUs))
		if recs < acked || recs > ph.timed.putsTried {
			ph.fail("WAL logged %d records for %d acknowledged of %d attempted puts",
				recs, acked, ph.timed.putsTried)
		}
	}
	if b.tp.replica != nil {
		if err := b.tp.waitCaughtUp(catchUp); err != nil {
			ph.fail("replica catch-up after the timed phase: %v", err)
		} else if lost, err := readBack(b.tp.replica.addr,
			append(append([]uint64(nil), ph.warm.acked...), ph.timed.acked...)); err != nil {
			ph.fail("replica read-back: %d acknowledged puts missing (%v)", lost, err)
		}
		for _, r := range b.routers {
			if st := r.Stats(); st.Failovers != 0 || st.Probes != 0 {
				ph.fail("router failed over during the run: %+v", st)
			}
		}
	}
	if b.tp.primary.probes != nil {
		ph.reconcile()
	}
}

// reconcile checks that the traced run's wrappers counted exactly what the
// program's own counters did, so the wrappers neither lost nor invented
// calls.
func (ph *phase) reconcile() {
	a, z := ph.before, ph.after
	if r, w := z.io.Reads-a.io.Reads, z.io.Writes-a.io.Writes; ph.io.Reads != r || ph.io.Writes != w {
		ph.fail("IO trace recorded %d reads and %d writes, engine counters %d and %d",
			ph.io.Reads, ph.io.Writes, r, w)
	}
	gets := z.srv.Ops["get"].Count - a.srv.Ops["get"].Count
	puts := z.srv.Ops["put"].Count - a.srv.Ops["put"].Count
	if n := z.get.n - a.get.n; n != gets {
		ph.fail("btree session probe counted %d gets, server %d", n, gets)
	}
	if n := z.apply.n - a.apply.n; n != puts {
		ph.fail("btree apply probe counted %d puts, server %d", n, puts)
	}
	if ph.timed.attempted != gets+puts {
		ph.fail("client attempted %d operations, server served %d", ph.timed.attempted, gets+puts)
	}
}

// opsPerSec is the timed phase's completed operations per wall second.
func (ph *phase) opsPerSec() float64 {
	return ratio(float64(ph.timed.ops()), ph.after.wall.Sub(ph.before.wall).Seconds())
}

// vdevUsPerOp is the primary's virtual device time per completed operation
// of the timed phase: the paper's clock.
func (ph *phase) vdevUsPerOp() float64 {
	return ratio(float64(ph.after.vclock-ph.before.vclock)/1e3, float64(ph.timed.ops()))
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd computes the user-visible metrics of an untraced phase: those
// that hold steady from run to run on a 2-vCPU VM whose CPU time is partly
// stolen by other guests. Put latency and process CPU time per op moved by
// 15-25% between identical runs there, with the steal, and read-cold's
// peak RSS by as much with the timing of garbage collection during set-up,
// so they are per-layer metrics instead.
func endToEnd(ph *phase) []metric {
	a, z := ph.before, ph.after
	ops := float64(ph.timed.ops())
	return []metric{
		{"throughput_ops_s", "ops/s", ph.opsPerSec()},
		{"get_p50_us", "us", quantile(ph.timed.getUs, 0.50)},
		{"vdev_us_per_op", "us", ph.vdevUsPerOp()},
		{"alloc_kb_per_op", "KiB", ratio(float64(z.rt.allocBytes-a.rt.allocBytes)/1024, ops)},
		{"setup_s", "s", median(ph.setupS)},
	}
}

// perLayer computes the traced phase's per-layer metrics. untracedOpsS is
// the throughput of an untraced phase of the same workload and seed.
func perLayer(ph *phase, untracedOpsS float64) []metric {
	a, z := ph.before, ph.after
	t := ph.timed
	ops := float64(t.ops())
	puts := float64(len(t.putUs))

	// Server service time per op class, from the lifetime histograms'
	// count and mean before and after the timed phase.
	srvMeanUs := func(op string) float64 {
		x, y := a.srv.Ops[op], z.srv.Ops[op]
		return ratio(y.MeanUs*float64(y.Count)-x.MeanUs*float64(x.Count), float64(y.Count-x.Count))
	}
	srvGetUs, srvPutUs := srvMeanUs("get"), srvMeanUs("put")
	callUs := func(x, y calls) float64 { return ratio(float64(y.ns-x.ns)/1e3, float64(y.n-x.n)) }
	btreeGetUs, btreeApplyUs := callUs(a.get, z.get), callUs(a.apply, z.apply)
	dgets := float64(z.srv.Ops["get"].Count - a.srv.Ops["get"].Count)
	fill := ratio(dgets, float64(z.srv.ReadBatches-a.srv.ReadBatches))
	gw := func(s sample) float64 { return s.srv.GateWait.MeanUs * float64(s.srv.GateWait.Count) }
	hits, misses := z.pager.Hits-a.pager.Hits, z.pager.Misses-a.pager.Misses
	pulls := float64(z.ship.Pulls - a.ship.Pulls)

	return []metric{
		{"client.get_p99_us", "us", quantile(t.getUs, 0.99)},
		{"client.put_p50_us", "us", quantile(t.putUs, 0.50)},
		{"client.put_p99_us", "us", quantile(t.putUs, 0.99)},
		{"client.wire_us_get", "us", mean(t.getUs) - srvGetUs},
		{"client.wire_us_put", "us", mean(t.putUs) - srvPutUs},
		{"client.failed_frac", "ratio", ratio(float64(t.failed), float64(t.attempted))},
		{"server.get_us_mean", "us", srvGetUs},
		{"server.put_us_mean", "us", srvPutUs},
		{"server.sched_wait_us", "us", srvGetUs - btreeGetUs},
		{"server.read_batch_fill", "gets/batch", fill},
		{"server.read_batch_fill_frac", "ratio", ratio(fill, float64(ph.cfg.BatchIOs))},
		{"server.group_commit_size", "puts/batch",
			ratio(float64(z.srv.WriteOps-a.srv.WriteOps), float64(z.srv.WriteBatches-a.srv.WriteBatches))},
		{"server.writer_us", "us", srvPutUs - btreeApplyUs},
		{"server.busy_per_kop", "1/kop", ratio(1000*float64(z.srv.Busy-a.srv.Busy), ops)},
		{"btree.get_us", "us", btreeGetUs},
		{"btree.get_calls", "count", float64(z.get.n - a.get.n)},
		{"btree.apply_us", "us", btreeApplyUs},
		{"pager.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses))},
		{"pager.evictions_per_op", "1/op", ratio(float64(z.pager.Evictions-a.pager.Evictions), ops)},
		{"pager.writebacks_per_op", "1/op", ratio(float64(z.pager.Writebacks-a.pager.Writebacks), ops)},
		{"pager.dirty_mb", "MiB", z.srv.PagerDirtyMB},
		{"wal.commits_per_put", "1/put", ratio(float64(z.dur.LogCommits-a.dur.LogCommits), puts)},
		{"wal.bytes_per_put", "B/put", ratio(float64(z.dur.LogBytes-a.dur.LogBytes), puts)},
		{"wal.checkpoints", "count", float64(z.dur.Checkpoints - a.dur.Checkpoints)},
		{"ship.pulls_per_put", "1/put", ratio(pulls, puts)},
		{"ship.records_per_pull", "records/pull", ratio(float64(z.ship.Shipped-a.ship.Shipped), pulls)},
		{"ship.gate_wait_us_mean", "us",
			ratio(gw(z)-gw(a), float64(z.srv.GateWait.Count-a.srv.GateWait.Count))},
		{"ship.lag_ms_max", "ms", ph.lagMaxS * 1e3},
		{"router.failovers", "count", float64(z.router.Failovers - a.router.Failovers)},
		{"router.probes", "count", float64(z.router.Probes - a.router.Probes)},
		{"device.reads_per_op", "1/op", ratio(float64(ph.io.Reads), ops)},
		{"device.writes_per_op", "1/op", ratio(float64(ph.io.Writes), ops)},
		{"device.read_kb_per_op", "KiB/op", ratio(float64(ph.io.BytesRead)/1024, ops)},
		{"device.write_kb_per_op", "KiB/op", ratio(float64(ph.io.BytesWritten)/1024, ops)},
		{"device.overlap", "ratio", ratio(float64(ph.io.IOTime()), float64(z.vclock-a.vclock))},
		{"process.cpu_us_per_op", "us", ratio(float64(z.cpu-a.cpu)/1e3, ops)},
		{"process.rss_peak_mb", "MiB", float64(peakRSSBytes()) / (1 << 20)},
		{"gc.cycles_per_kop", "1/kop", ratio(1000*float64(z.rt.gcCycles-a.rt.gcCycles), ops)},
		{"gc.cpu_frac", "ratio", ratio(z.rt.gcCPU-a.rt.gcCPU, z.rt.totalCPU-a.rt.totalCPU)},
		{"trace.overhead_frac", "ratio", 1 - ratio(ph.opsPerSec(), untracedOpsS)},
	}
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
