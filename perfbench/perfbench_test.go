package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/server"
)

// shortRun is the timed phase of the tests' scaled-down runs.
const shortRun = time.Second

// short scales a workload down for the benchmark's own tests: a tenth of
// the keys, cache and warm-up, with the ship ring shrunk so that a
// ring-wrapping workload still wraps it.
func (w workloadDef) short() workloadDef {
	w.items /= 10
	w.cache /= 10
	w.warmup /= 10
	if w.items > engine.DefaultShipCap/10 {
		w.shipCap = int(w.items) - 64
	}
	return w
}

// benchSpec reads BENCHMARK.json: each end-to-end metric's bound, and the
// per-layer metric names.
func benchSpec(t *testing.T) (bounds map[string]float64, layers map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	bounds, layers = map[string]float64{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = true
	}
	return bounds, layers
}

// checkNames fails unless the run's metrics are exactly the named ones.
func checkNames(t *testing.T, got []metric, want map[string]bool) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if !want[m.name] {
			t.Errorf("run reported %s, which BENCHMARK.json does not list", m.name)
		}
		seen[m.name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("run did not report %s", name)
		}
	}
}

// TestTracedRunReconciles runs every workload traced, scaled down. The
// run's own gate must pass: correct results, the steady-state precondition,
// and the probes' counts equal to the program's counters. The run must
// report exactly the per-layer metrics of BENCHMARK.json, the traced node's
// effective server configuration must equal the untraced one's, and its
// virtual device time per op must match within the metric's bound: the
// wrappers are transparent.
func TestTracedRunReconciles(t *testing.T) {
	bounds, layers := benchSpec(t)
	bound := bounds["vdev_us_per_op"]
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w.short(), 1, shortRun, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			checkNames(t, res.metrics, layers)
			base, traced := res.phases[0], res.phases[1]
			if !reflect.DeepEqual(base.cfg, traced.cfg) {
				t.Errorf("traced server config %+v, untraced %+v", traced.cfg, base.cfg)
			}
			u, v := base.vdevUsPerOp(), traced.vdevUsPerOp()
			if math.Abs(v-u) > bound*u {
				t.Errorf("vdev_us_per_op traced %.1f, untraced %.1f: beyond the %.2f bound", v, u, bound)
			}
		})
	}
}

// TestEndToEndMetricsAreSet checks that an untraced run reports exactly the
// end-to-end metrics of BENCHMARK.json, each positive.
func TestEndToEndMetricsAreSet(t *testing.T) {
	w, err := findWorkload("write-durable")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(w.short(), 2, shortRun, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Error(p)
	}
	bounds, _ := benchSpec(t)
	want := map[string]bool{}
	for name := range bounds {
		want[name] = true
	}
	checkNames(t, res.metrics, want)
	for _, m := range res.metrics {
		if m.value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", m.name, m.value)
		}
	}
}

// kvserveFlags are the cmd/kvserve flags that build the node cfg describes,
// without a preload.
func kvserveFlags(cfg nodeConfig) []string {
	args := []string{"-addr", "127.0.0.1:0", "-cache", strconv.FormatInt(cfg.cache, 10)}
	if cfg.durable {
		args = append(args, "-durable")
	}
	if cfg.shipCap > 0 {
		args = append(args, "-ship-buffer", strconv.Itoa(cfg.shipCap))
	}
	if cfg.syncShip {
		args = append(args, "-sync-ship")
	}
	if cfg.primary != "" {
		args = append(args, "-replica-of", cfg.primary)
	}
	return args
}

// startKvserve boots the kvserve binary and returns its listen address; the
// process is interrupted and waited for when the test ends.
func startKvserve(t *testing.T, bin string, args []string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGINT)
		_ = cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "kvserve: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		return a
	case <-time.After(30 * time.Second):
		t.Fatalf("kvserve %v did not report its address", args)
		return ""
	}
}

// statsOf fetches a node's stats document over the wire.
func statsOf(t *testing.T, addr string) server.StatsSnapshot {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var s server.StatsSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKvserveParity boots cmd/kvserve with each workload's settings and
// compares the node it reports with the benchmark's in-process node, so a
// drift in kvserve's wiring or defaults fails here instead of going
// unmeasured.
func TestKvserveParity(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "kvserve")
	if out, err := exec.Command("go", "build", "-o", bin, "iomodels/cmd/kvserve").CombinedOutput(); err != nil {
		t.Fatalf("build kvserve: %v\n%s", err, out)
	}
	identity := func(s server.StatsSnapshot) string {
		return fmt.Sprintf("device=%s batch_ios=%d read_lanes=%d durable=%v ship_enabled=%v role=%s",
			s.Device, s.BatchIOs, s.ReadLanes, s.DurableEnabled, s.ShipEnabled, s.Role)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := w.short()
			w.items = 0
			tp, err := newTopology(w, false)
			if err != nil {
				t.Fatal(err)
			}
			defer tp.close()
			nodes := []*node{tp.primary}
			cfgs := []nodeConfig{tp.primary.cfg}
			if tp.replica != nil {
				nodes = append(nodes, tp.replica)
				cfgs = append(cfgs, tp.replica.cfg)
			}
			primary := ""
			for i, n := range nodes {
				cfg := cfgs[i]
				if cfg.primary != "" {
					cfg.primary = primary
				}
				addr := startKvserve(t, bin, kvserveFlags(cfg))
				if i == 0 {
					primary = addr
				}
				if got, want := identity(statsOf(t, addr)), identity(n.srv.Snapshot()); got != want {
					t.Errorf("kvserve %v: %s\nin-process node: %s", kvserveFlags(cfg), got, want)
				}
			}
		})
	}
}
