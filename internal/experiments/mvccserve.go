// E22 (MVCC serving): snapshot point-read latency under write pressure.
// Before the MVCC refactor the server had one world view — a read admitted
// while the writer batch held the tree observed whatever the writer was in
// the middle of publishing, and every read shared the writer's locks and
// device queue. With LSN-pinned snapshots a chain-hit read is answered from
// the version layer, touching neither the batch read scheduler nor the
// state lock the writer holds during apply.
//
// The experiment measures three rounds on a fresh durable server each:
//
//	snap-idle    k readers pin snapshots, the hot set is overwritten once
//	             (so reads are chain hits), and NO writers run. This is the
//	             idle-writer baseline.
//	snap-loaded  identical, except background writer connections saturate
//	             the write path for the whole measurement window.
//	plain-loaded the same hot-key reads as ordinary Gets under the same
//	             write load: the pre-MVCC path, sharing the scheduler and
//	             the writer's state lock.
//
// The headline check is the ISSUE acceptance bound: snap-loaded p99 must
// stay within 1.5x of snap-idle p99 — write pressure must not leak into
// pinned reads — while plain-loaded shows what the shared-world-view path
// costs under the same load.

package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/workload"
)

// MVCCServeConfig parameterizes E22.
type MVCCServeConfig struct {
	Items      int64
	P          int
	BlockBytes int64
	StepTime   sim.Time
	NodeBlocks int
	CacheBytes int64

	Readers      int // concurrent snapshot-reader connections
	OpsPerReader int // point reads each performs in the window
	Writers      int // background writer connections in loaded rounds
	HotKeys      int // pinned read working set, ids [0, HotKeys)

	BatchGrace time.Duration
	Spec       workload.KeySpec
	Seed       uint64
}

// DefaultMVCCServeConfig is laptop-scale but keeps the write path saturated
// for the whole read window.
func DefaultMVCCServeConfig() MVCCServeConfig {
	return MVCCServeConfig{
		Items:        20_000,
		P:            16,
		BlockBytes:   4 << 10,
		StepTime:     sim.Millisecond,
		NodeBlocks:   1,
		CacheBytes:   256 << 10,
		Readers:      4,
		OpsPerReader: 150,
		Writers:      8,
		HotKeys:      256,
		BatchGrace:   time.Millisecond,
		Spec:         workload.DefaultSpec(),
		Seed:         22,
	}
}

// MVCCServeRow is one round's measurement. ChainHitPct is the fraction of
// engine snapshot reads answered by a version chain during the window; the
// plain round reports zero because ordinary Gets never consult chains.
type MVCCServeRow struct {
	Mode        string
	Readers     int
	Writers     int
	Reads       int64
	P50Us       float64
	P99Us       float64
	ChainHitPct float64
}

// servingConfigFor adapts an E22 config to E20's server bootstrap.
func servingConfigFor(cfg MVCCServeConfig) ServingConfig {
	return ServingConfig{
		Items:      cfg.Items,
		P:          cfg.P,
		BlockBytes: cfg.BlockBytes,
		StepTime:   cfg.StepTime,
		NodeBlocks: cfg.NodeBlocks,
		CacheBytes: cfg.CacheBytes,
		Clients:    []int{cfg.Readers},
		Writers:    cfg.Writers,
		BatchGrace: cfg.BatchGrace,
		Spec:       cfg.Spec,
		Seed:       cfg.Seed,
	}
}

// MVCCServe runs E22: snap-idle, snap-loaded, plain-loaded.
func MVCCServe(cfg MVCCServeConfig) ([]MVCCServeRow, error) {
	var rows []MVCCServeRow
	for _, mode := range []string{"snap-idle", "snap-loaded", "plain-loaded"} {
		row, err := mvccServeRound(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("E22 %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// rewriteVal is the value the hot-set overwrite installs; pinned snapshots
// must keep reading the original load-time value underneath it.
func rewriteVal(spec workload.KeySpec, cfg MVCCServeConfig, id uint64) []byte {
	return spec.Value(uint64(cfg.Items) + id)
}

// mvccServeRound boots a fresh durable server, pins reader snapshots (snap
// modes), overwrites the hot set once, optionally saturates the write path,
// and measures the readers' point-read latency.
func mvccServeRound(cfg MVCCServeConfig, mode string) (MVCCServeRow, error) {
	snapMode := mode != "plain-loaded"
	loaded := mode != "snap-idle"

	sb, err := startServing(servingConfigFor(cfg), cfg.P, true)
	if err != nil {
		return MVCCServeRow{}, err
	}
	defer sb.Close()

	// Dial the readers and, in snap modes, pin every snapshot BEFORE the
	// hot set is rewritten: the pinned view must predate the overwrite.
	readers := make([]*server.Client, cfg.Readers)
	snaps := make([]uint64, cfg.Readers)
	for i := range readers {
		cl, err := server.Dial(sb.Addr())
		if err != nil {
			return MVCCServeRow{}, err
		}
		defer cl.Close()
		readers[i] = cl
		if snapMode {
			id, _, err := cl.SnapOpen()
			if err != nil {
				return MVCCServeRow{}, fmt.Errorf("snap open: %w", err)
			}
			snaps[i] = id
		}
	}

	// One overwrite pass over the hot set. With snapshots live this records
	// a version chain per hot key, so every pinned read below is a chain
	// hit; without (plain round) it just warms the same pages the readers
	// will touch, keeping cache state comparable across rounds.
	setup, err := server.Dial(sb.Addr())
	if err != nil {
		return MVCCServeRow{}, err
	}
	defer setup.Close()
	for id := uint64(0); id < uint64(cfg.HotKeys); id++ {
		if err := setup.Put(cfg.Spec.Key(id), rewriteVal(cfg.Spec, cfg, id)); err != nil {
			return MVCCServeRow{}, fmt.Errorf("hot-set rewrite: %w", err)
		}
	}

	// Background write pressure: closed-loop writers hammering the non-hot
	// tail of the key space. (Not the hot set: unbounded rewrites there
	// would blow past MaxVersionsPerKey and expire the pinned snapshots —
	// that failure mode has its own test; E22 measures latency.)
	done := make(chan struct{})
	var writerWG sync.WaitGroup
	writerErrs := make([]error, cfg.Writers)
	if loaded {
		for w := 0; w < cfg.Writers; w++ {
			writerWG.Add(1)
			rng := stats.NewRNG(cfg.Seed ^ 0xE22).Split(uint64(w))
			go func(w int) {
				defer writerWG.Done()
				cl, err := server.Dial(sb.Addr())
				if err != nil {
					writerErrs[w] = err
					return
				}
				defer cl.Close()
				tail := cfg.Items - int64(cfg.HotKeys)
				for {
					select {
					case <-done:
						return
					default:
					}
					id := uint64(cfg.HotKeys) + uint64(rng.Int63n(tail))
					if err := cl.Put(cfg.Spec.Key(id), cfg.Spec.Value(id^1)); err != nil {
						writerErrs[w] = err
						return
					}
				}
			}(w)
		}
	}

	before := sb.Engine().MVCCStats()
	hist := stats.NewLatencyHist()
	var reads atomic.Int64
	root := stats.NewRNG(cfg.Seed)
	readErrs := make(chan error, cfg.Readers)
	var readWG sync.WaitGroup
	for i := range readers {
		readWG.Add(1)
		rng := root.Split(uint64(i))
		go func(i int) {
			defer readWG.Done()
			cl := readers[i]
			local := stats.NewLatencyHist()
			for q := 0; q < cfg.OpsPerReader; q++ {
				id := uint64(rng.Int63n(int64(cfg.HotKeys)))
				key := cfg.Spec.Key(id)
				t0 := time.Now()
				var (
					val []byte
					ok  bool
					err error
				)
				if snapMode {
					val, ok, err = cl.SnapGet(snaps[i], key)
				} else {
					val, ok, err = cl.Get(key)
				}
				if err != nil {
					readErrs <- fmt.Errorf("read id %d: %w", id, err)
					return
				}
				if !ok {
					readErrs <- fmt.Errorf("read id %d: lost key", id)
					return
				}
				local.Observe(int64(time.Since(t0)))
				// The pinned view predates the rewrite; the live view is
				// the rewrite. Either answer being wrong voids the round.
				want := rewriteVal(cfg.Spec, cfg, id)
				if snapMode {
					want = cfg.Spec.Value(id)
				}
				if !bytes.Equal(val, want) {
					readErrs <- fmt.Errorf("read id %d: stale/live mix-up: got %q want %q", id, val, want)
					return
				}
			}
			reads.Add(int64(cfg.OpsPerReader))
			hist.Merge(local)
			readErrs <- nil
		}(i)
	}
	readWG.Wait()
	close(readErrs)
	after := sb.Engine().MVCCStats()

	if loaded {
		close(done)
		writerWG.Wait()
	}
	for err := range readErrs {
		if err != nil {
			return MVCCServeRow{}, err
		}
	}
	for _, err := range writerErrs {
		if err != nil {
			return MVCCServeRow{}, fmt.Errorf("background writer: %w", err)
		}
	}
	if snapMode {
		for i, cl := range readers {
			if err := cl.SnapRelease(snaps[i]); err != nil {
				return MVCCServeRow{}, fmt.Errorf("snap release: %w", err)
			}
		}
	}

	row := MVCCServeRow{
		Mode:    mode,
		Readers: cfg.Readers,
		Reads:   reads.Load(),
	}
	if loaded {
		row.Writers = cfg.Writers
	}
	snap := hist.Snapshot()
	row.P50Us = float64(snap.P50) / 1e3
	row.P99Us = float64(snap.P99) / 1e3
	dHits := after.ChainHits - before.ChainHits
	dMiss := after.ChainMisses - before.ChainMisses
	if dHits+dMiss > 0 {
		row.ChainHitPct = 100 * float64(dHits) / float64(dHits+dMiss)
	}
	return row, nil
}

// RenderMVCCServe formats E22, one row per round.
func RenderMVCCServe(rows []MVCCServeRow) string {
	headers := []string{"round", "readers", "writers", "reads", "p50 µs", "p99 µs", "chain hit%"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mode, intStr(r.Readers), intStr(r.Writers), intStr(int(r.Reads)),
			fmt0(r.P50Us), fmt0(r.P99Us), f2(r.ChainHitPct),
		})
	}
	return RenderTable("E22 (MVCC serving): snapshot point-read latency under write pressure vs the shared-world-view path",
		headers, cells)
}
