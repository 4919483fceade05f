// E20 (serving / §8 applied): the Lemma 13 effect measured through the full
// network stack. A kvserve instance fronts a B-tree on the abstract PDAM
// device; k closed-loop TCP clients run random gets. The server's read
// scheduler admits reads in device-parallelism-sized batches, so aggregate
// throughput in device time steps should grow ~linearly in k up to ~P and
// then plateau — while the same server configured with batch size 1 (the
// DAM-style scheduler, which assumes one IO per step is all a device can do)
// stays flat at ~1/h queries per step no matter how many clients arrive.
//
// A second phase measures group commit: concurrent writer connections must
// share WAL flushes (flushes < records), where a single closed-loop writer
// pays exactly one flush per write.

package experiments

import (
	"fmt"
	"sync"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/pdamdev"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/stats"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// ServingConfig parameterizes E20.
type ServingConfig struct {
	Items      int64
	P          int      // device parallelism (IO slots per step)
	BlockBytes int64    // B, the PDAM IO size
	StepTime   sim.Time // wall-clock length of one step
	NodeBlocks int      // B-tree node size in blocks
	CacheBytes int64    // engine budget (keep << data so gets hit disk)

	OpsPerClient int
	Clients      []int         // k values for the read phase
	BatchGrace   time.Duration // real-time wait for partial batches

	Writers         int // concurrent writer connections (group-commit phase)
	WritesPerWriter int

	Spec workload.KeySpec
	Seed uint64
}

// DefaultServingConfig is laptop-scale but IO-bound.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{
		Items:           60_000,
		P:               16,
		BlockBytes:      4 << 10,
		StepTime:        sim.Millisecond,
		NodeBlocks:      1,
		CacheBytes:      512 << 10,
		OpsPerClient:    60,
		Clients:         []int{1, 2, 4, 8, 16},
		BatchGrace:      time.Millisecond,
		Writers:         32,
		WritesPerWriter: 20,
		Spec:            workload.DefaultSpec(),
		Seed:            20,
	}
}

// ServingRow is one (scheduler mode, clients) measurement of the read phase.
// Steps and Throughput are virtual device time; the latency percentiles are
// wall-clock as seen by the TCP clients.
type ServingRow struct {
	Mode       string // "dam" (batch=1) or "pdam" (batch=P)
	Clients    int
	Steps      float64
	Throughput float64 // gets per device step, all clients combined
	HitRatio   float64
	P50Us      float64
	P99Us      float64
}

// ServingCommitRow is one write-phase measurement: WAL flushes consumed by a
// fixed number of acknowledged writes.
type ServingCommitRow struct {
	Writers  int
	Records  int64
	Commits  int64
	PerFlush float64 // records / commits; 1.0 means no commit sharing
}

// startServing boots a B-tree node on a fresh PDAM device with the given
// read-batch size. The read queue is sized for the largest client count so
// admission control never sheds experiment load.
func startServing(cfg ServingConfig, batch int, durable bool) (*cluster.Node, error) {
	var durability *engine.DurabilityConfig
	if durable {
		durability = &engine.DurabilityConfig{
			LogBytes:     16 << 20,
			GroupBytes:   1 << 20, // flush sharing must come from group commit, not size
			JournalBytes: 8 << 20,
		}
	}
	n, err := cluster.NewNode(cluster.NodeConfig{
		Store:      storage.NewStore(pdamdev.New(cfg.P, cfg.BlockBytes, cfg.StepTime).Storage(1 << 31)),
		CacheBytes: cfg.CacheBytes,
		Durability: durability,
		NodeBytes:  cfg.NodeBlocks * int(cfg.BlockBytes),
		Spec:       cfg.Spec,
		Items:      cfg.Items,
	})
	if err != nil {
		return nil, err
	}
	maxK := cfg.Writers
	for _, k := range cfg.Clients {
		if k > maxK {
			maxK = k
		}
	}
	if err := n.Serve(server.Config{
		Addr:       "127.0.0.1:0",
		BatchIOs:   batch,
		BatchGrace: cfg.BatchGrace,
		ReadQueue:  4 * maxK,
	}); err != nil {
		return nil, err
	}
	return n, nil
}

// Serving runs E20 and returns read-phase rows (dam mode first, then pdam)
// and write-phase rows (serial writer first, then concurrent).
func Serving(cfg ServingConfig) ([]ServingRow, []ServingCommitRow, error) {
	var rows []ServingRow
	for _, mode := range []struct {
		name  string
		batch int
	}{{"dam", 1}, {"pdam", cfg.P}} {
		sb, err := startServing(cfg, mode.batch, false)
		if err != nil {
			return nil, nil, err
		}
		for _, k := range cfg.Clients {
			row, err := servingReadRound(sb, cfg, mode.name, k)
			if err != nil {
				sb.Close()
				return nil, nil, err
			}
			rows = append(rows, row)
		}
		sb.Close()
	}

	var commits []ServingCommitRow
	total := cfg.Writers * cfg.WritesPerWriter
	for _, writers := range []int{1, cfg.Writers} {
		row, err := servingWriteRound(cfg, writers, total)
		if err != nil {
			return nil, nil, err
		}
		commits = append(commits, row)
	}
	return rows, commits, nil
}

// servingReadRound cold-starts the cache and measures k closed-loop TCP
// clients doing random gets, in device steps and wall-clock latency.
func servingReadRound(sb *cluster.Node, cfg ServingConfig, mode string, k int) (ServingRow, error) {
	eng := sb.Engine()
	eng.Pager().EvictAll(eng.Owner())
	eng.Pager().ResetStats()
	root := stats.NewRNG(cfg.Seed + uint64(k))
	start := sb.Clock().Now()
	hist := stats.NewLatencyHist()
	errs := make(chan error, k)
	var wg sync.WaitGroup
	for c := 0; c < k; c++ {
		wg.Add(1)
		rng := root.Split(uint64(c))
		go func() {
			defer wg.Done()
			cl, err := server.Dial(sb.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			local := stats.NewLatencyHist()
			for q := 0; q < cfg.OpsPerClient; q++ {
				key := cfg.Spec.Key(uint64(rng.Int63n(cfg.Items)))
				t0 := time.Now()
				_, ok, err := cl.Get(key)
				if err != nil {
					errs <- fmt.Errorf("serving get: %w", err)
					return
				}
				if !ok {
					errs <- fmt.Errorf("serving: lost key %q", key)
					return
				}
				local.Observe(int64(time.Since(t0)))
			}
			hist.Merge(local)
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return ServingRow{}, err
		}
	}
	steps := float64(sb.Clock().Now()-start) / float64(cfg.StepTime)
	snap := hist.Snapshot()
	return ServingRow{
		Mode:       mode,
		Clients:    k,
		Steps:      steps,
		Throughput: float64(k*cfg.OpsPerClient) / steps,
		HitRatio:   eng.Pager().Stats().HitRatio(),
		P50Us:      float64(snap.P50) / 1e3,
		P99Us:      float64(snap.P99) / 1e3,
	}, nil
}

// servingWriteRound boots a durable server and pushes `total` puts through
// `writers` closed-loop connections, returning the WAL flush accounting.
func servingWriteRound(cfg ServingConfig, writers, total int) (ServingCommitRow, error) {
	sb, err := startServing(cfg, cfg.P, true)
	if err != nil {
		return ServingCommitRow{}, err
	}
	defer sb.Close()
	before := sb.Engine().DurabilityStats()
	per := total / writers
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := server.Dial(sb.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < per; i++ {
				id := uint64(cfg.Items) + uint64(w*per+i)
				if err := cl.Put(cfg.Spec.Key(id), cfg.Spec.Value(id)); err != nil {
					errs <- fmt.Errorf("serving put: %w", err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return ServingCommitRow{}, err
		}
	}
	after := sb.Engine().DurabilityStats()
	row := ServingCommitRow{
		Writers: writers,
		Records: after.LogRecords - before.LogRecords,
		Commits: after.LogCommits - before.LogCommits,
	}
	if row.Commits > 0 {
		row.PerFlush = float64(row.Records) / float64(row.Commits)
	}
	return row, nil
}

// RenderServing formats the read phase, one row per (mode, clients).
func RenderServing(rows []ServingRow) string {
	headers := []string{"scheduler", "clients k", "steps", "gets/step", "hit%", "p50 µs", "p99 µs"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mode, intStr(r.Clients), fmt0(r.Steps), f3(r.Throughput),
			f2(r.HitRatio * 100), fmt0(r.P50Us), fmt0(r.P99Us),
		})
	}
	return RenderTable("E20 (serving): closed-loop TCP gets per device step — batch-of-P scheduler vs DAM-style batch-of-1",
		headers, cells)
}

// RenderServingCommit formats the write phase.
func RenderServingCommit(rows []ServingCommitRow) string {
	headers := []string{"writers", "records", "WAL flushes", "writes/flush"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			intStr(r.Writers), intStr(int(r.Records)), intStr(int(r.Commits)), f2(r.PerFlush),
		})
	}
	return RenderTable("E20 (group commit): WAL flushes per acknowledged write",
		headers, cells)
}
