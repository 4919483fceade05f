package main

import (
	"errors"
	"fmt"
	"time"

	"iomodels/internal/btree"
	"iomodels/internal/cluster"
	"iomodels/internal/engine"
	"iomodels/internal/pdamdev"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/workload"
)

// The device and tree settings are cmd/kvserve's defaults: a PDAM device
// with P=16 slots of 4 KiB per 1 ms step and 4 GiB of capacity, and a
// B-tree with 4 KiB nodes sized for workload.DefaultSpec pairs.
const (
	devP        = 16
	devBlock    = 4 << 10
	devStep     = time.Millisecond
	devCapacity = 4 << 30
	nodeBytes   = 4 << 10
	treeName    = "btree" // kvserve registers the durable tree under -tree
)

var spec = workload.DefaultSpec()

// nodeConfig is one node's build settings, each named after the cmd/kvserve
// flag it stands for.
type nodeConfig struct {
	cache    int64       // -cache
	durable  bool        // -durable
	shipCap  int         // -ship-buffer (0: engine default)
	role     server.Role // solo, or -sync-ship primary, or -replica-of replica
	syncShip bool        // -sync-ship
	primary  string      // -replica-of
	items    int64       // -items
	traced   bool        // wrap the tree in counting probes
}

// node is one in-process kvserve: engine, tree, server, and for a replica
// the shipper tailing its primary.
type node struct {
	cfg     nodeConfig
	eng     *engine.Engine
	tree    *btree.Tree
	srv     *server.Server
	clock   *engine.SharedClock
	addr    string
	shipper *cluster.Shipper
	probes  *probes // nil on an untraced node
}

// newNode builds and starts a node in the order cmd/kvserve does: device,
// engine, durability and shipping, tree, durable wrapper, preload, shared
// clock, server, listener, shipper.
func newNode(cfg nodeConfig) (*node, error) {
	dev := pdamdev.New(devP, devBlock, sim.Time(devStep)).Storage(devCapacity)
	n := &node{cfg: cfg}
	if cfg.traced {
		n.probes = &probes{}
	}
	n.eng = engine.New(engine.Config{CacheBytes: cfg.cache}, dev, sim.New())
	if cfg.durable {
		if err := n.eng.EnableDurability(engine.DurabilityConfig{}); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
		if err := n.eng.EnableShipping(cfg.shipCap); err != nil {
			return nil, fmt.Errorf("shipping: %w", err)
		}
	}
	tree, err := btree.New(btree.Config{
		NodeBytes: nodeBytes, MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes,
	}, n.eng)
	if err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	n.tree = tree
	var writer engine.Dictionary = tree
	if n.probes != nil {
		writer = &timedTree{Tree: tree, t: &n.probes.apply}
	}
	if cfg.durable {
		d, err := n.eng.Durable(treeName, writer)
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		writer = d
	}
	if cfg.items > 0 {
		workload.Load(writer, spec, cfg.items)
		tree.Flush()
		if cfg.durable {
			if err := n.eng.Sync(); err != nil {
				return nil, fmt.Errorf("preload sync: %w", err)
			}
		}
	}

	n.clock = engine.NewSharedClock()
	n.eng.AdoptSharedClock(n.clock)
	session := func(c *engine.Client) engine.Dictionary { return tree.Session(c) }
	if n.probes != nil {
		session = func(c *engine.Client) engine.Dictionary {
			return &timedSession{Session: tree.Session(c), t: &n.probes.get}
		}
	}
	n.srv, err = server.New(server.Config{
		Addr:     "127.0.0.1:0",
		Role:     cfg.role,
		SyncShip: cfg.syncShip,
		OnPromote: func() (uint64, error) {
			if n.shipper == nil {
				return 0, errors.New("no shipper to seal (node is not a replica)")
			}
			return n.shipper.Promote(n.eng)
		},
	}, server.Backend{Eng: n.eng, Clock: n.clock, NewSession: session, Writer: writer})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	bound, err := n.srv.ListenAndServe()
	if err != nil {
		n.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.addr = bound.String()
	if cfg.role == server.RoleReplica {
		n.shipper = cluster.NewShipper(n.srv, cluster.ShipperConfig{Primary: cfg.primary})
		n.shipper.Start()
	}
	return n, nil
}

// close stops the shipper, then the server, as kvserve's shutdown does.
func (n *node) close() {
	if n.shipper != nil {
		n.shipper.Stop()
	}
	n.srv.Close()
}

// treeBytes is the tree's on-device footprint: nodes times node size.
func (n *node) treeBytes() int64 { return int64(n.tree.Nodes()) * nodeBytes }

// topology is the nodes one workload runs on: a solo node, or a sync-ship
// primary with a warm replica.
type topology struct {
	primary *node
	replica *node // nil when solo
}

func (tp *topology) close() {
	if tp.replica != nil {
		tp.replica.close()
	}
	tp.primary.close()
}

// caughtUp reports whether the replica has applied everything the primary
// has committed (always true without a replica).
func (tp *topology) caughtUp() bool {
	if tp.replica == nil {
		return true
	}
	return tp.replica.srv.ShipAppliedLSN() == tp.primary.eng.ShipStats().CommittedLSN
}

// waitCaughtUp polls caughtUp until it holds or the timeout passes.
func (tp *topology) waitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !tp.caughtUp() {
		if err := tp.replica.shipper.Err(); err != nil {
			return fmt.Errorf("replica shipper: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica applied LSN %d, primary committed %d after %v",
				tp.replica.srv.ShipAppliedLSN(), tp.primary.eng.ShipStats().CommittedLSN, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// newTopology builds the workload's nodes. Only the primary carries probes:
// it is the node the driver's requests reach.
func newTopology(w workloadDef, traced bool) (*topology, error) {
	pcfg := nodeConfig{
		cache: w.cache, durable: w.durable, shipCap: w.shipCap, items: w.items, traced: traced,
	}
	if w.cluster {
		pcfg.role, pcfg.syncShip = server.RolePrimary, true
	}
	p, err := newNode(pcfg)
	if err != nil {
		return nil, err
	}
	tp := &topology{primary: p}
	if !w.cluster {
		return tp, nil
	}
	tp.replica, err = newNode(nodeConfig{
		cache: w.cache, durable: true, shipCap: w.shipCap, role: server.RoleReplica, primary: p.addr,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	return tp, nil
}
