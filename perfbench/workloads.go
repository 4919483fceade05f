package main

import (
	"fmt"

	"iomodels/internal/engine"
	"iomodels/internal/workload"
)

// workloadDef is one workload: the nodes it runs on, what they hold before
// timing starts, the closed-loop mix, and the steady state it asserts.
type workloadDef struct {
	name    string
	items   int64 // keys preloaded, ids [0, items); the mixes draw from them
	cache   int64 // engine cache bytes
	shipCap int   // ship ring records (0: engine default, as kvserve)
	durable bool
	cluster bool // a sync-ship primary with a warm replica, driven through cluster.Router
	mix     workload.Mix
	theta   float64 // Zipf skew of the key draw; 0 draws uniformly
	warmup  int     // untimed operations per connection before timing
	// steady checks the state the workload is meant to measure, before
	// timing starts.
	steady func(w workloadDef, tp *topology) error
}

var (
	ycsbA = workload.Mix{Gets: 1, Puts: 1}
	ycsbC = workload.Mix{Gets: 1}
)

var workloads = []workloadDef{
	{
		// All work on the read path: scheduler batching, tree descent,
		// pager misses and evictions, and the device model. Writer, WAL
		// and ship stay idle, so a write-path change must not move it.
		name: "read-cold", items: 60000, cache: 2 << 20,
		mix: ycsbC, warmup: 1000,
		steady: func(w workloadDef, tp *topology) error {
			if tb := tp.primary.treeBytes(); tb < 4*w.cache {
				return fmt.Errorf("tree holds %d bytes, under 4x the %d-byte cache", tb, w.cache)
			}
			return nil
		},
	},
	{
		// The write path beside gets: group commit, WAL commit, ship
		// append and checkpoint. The preload runs 64 records past the ship
		// ring's capacity, so the ring has wrapped as on any long-running
		// durable node.
		name: "write-durable", items: engine.DefaultShipCap + 64, cache: 64 << 20, durable: true,
		mix: ycsbA, theta: 0.99, warmup: 250,
		steady: func(w workloadDef, tp *topology) error {
			if st := tp.primary.eng.ShipStats(); st.FloorLSN == 0 {
				return fmt.Errorf("ship ring has not wrapped (%d records buffered)", st.Buffered)
			}
			return nil
		},
	},
	{
		// The router, ship pulls, the sync-ship ack gate and replica
		// apply. The preload stays under the ring capacity so the empty
		// replica can catch up from the ring.
		name: "cluster-sync", items: 20000, cache: 64 << 20, durable: true, cluster: true,
		mix: ycsbA, theta: 0.99, warmup: 250,
		steady: func(w workloadDef, tp *topology) error {
			if !tp.caughtUp() {
				return fmt.Errorf("replica applied LSN %d, primary committed %d",
					tp.replica.srv.ShipAppliedLSN(), tp.primary.eng.ShipStats().CommittedLSN)
			}
			return nil
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
