package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/server"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// TestNodeServesEveryTree builds a node of each tree kind, volatile and
// durable, at the default node size, preloads it, and checks put, get and
// scan over the wire plus the identity the node reports in its stats.
func TestNodeServesEveryTree(t *testing.T) {
	const items = 500
	spec := workload.DefaultSpec()
	wantNodeBytes := map[string]int{"btree": 4 << 10, "betree": 64 << 10, "lsm": 4 << 10}
	for _, tree := range []string{"btree", "betree", "lsm"} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", tree, durable), func(t *testing.T) {
				cfg := cluster.NodeConfig{
					Store:      storage.NewStore(flatDev{256 << 20}),
					CacheBytes: 4 << 20,
					Tree:       tree,
					Items:      items,
				}
				if durable {
					cfg.Durability = &engine.DurabilityConfig{}
				}
				n := serveNode(t, cfg, server.Config{Addr: "127.0.0.1:0"})
				if got := n.Config().NodeBytes; got != wantNodeBytes[tree] {
					t.Errorf("default node bytes %d, want %d", got, wantNodeBytes[tree])
				}
				c, err := server.DialOpts(n.Addr(), clientOpts())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				if err := c.Put(spec.Key(items), spec.Value(items)); err != nil {
					t.Fatalf("put: %v", err)
				}
				for _, id := range []uint64{0, items / 2, items} {
					v, ok, err := c.Get(spec.Key(id))
					if err != nil || !ok || !bytes.Equal(v, spec.Value(id)) {
						t.Fatalf("get %d = %q, %v, %v", id, v, ok, err)
					}
				}
				ids := map[string]uint64{}
				for id := uint64(0); id <= items; id++ {
					ids[string(spec.Key(id))] = id
				}
				entries, err := c.Scan(nil, nil, items+10)
				if err != nil {
					t.Fatalf("scan: %v", err)
				}
				if len(entries) != items+1 {
					t.Fatalf("scan returned %d entries, want %d", len(entries), items+1)
				}
				for i, e := range entries {
					id, ok := ids[string(e.Key)]
					if !ok || !bytes.Equal(e.Value, spec.Value(id)) {
						t.Fatalf("scan entry %d: %q = %q", i, e.Key, e.Value)
					}
					if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
						t.Fatalf("scan entry %d out of order", i)
					}
				}

				raw, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				var s server.StatsSnapshot
				if err := json.Unmarshal(raw, &s); err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("device=%s durable=%v ship_enabled=%v role=%s",
					s.Device, s.DurableEnabled, s.ShipEnabled, s.Role)
				want := fmt.Sprintf("device=flat durable=%v ship_enabled=%v role=solo", durable, durable)
				if got != want {
					t.Errorf("stats identity %s, want %s", got, want)
				}
			})
		}
	}
}
