// Node is one kvserve node, built in one place and in one order: engine
// over its store, durability and WAL shipping, tree, durable wrapper,
// preload, shared clock, server, and on a replica the shipper tailing its
// primary. cmd/kvserve, the serving experiments and the cluster tests all
// build their nodes here.
package cluster

import (
	"errors"
	"fmt"

	"iomodels/internal/betree"
	"iomodels/internal/btree"
	"iomodels/internal/engine"
	"iomodels/internal/lsm"
	"iomodels/internal/server"
	"iomodels/internal/sim"
	"iomodels/internal/storage"
	"iomodels/internal/workload"
)

// NodeConfig is one node's build settings. Zero values select kvserve's
// defaults.
type NodeConfig struct {
	// Store is the device image the engine runs on.
	Store storage.ByteStore
	// CacheBytes is the engine's buffer-pool budget.
	CacheBytes int64
	// Durability, if set, enables the WAL (group commit, crash recovery)
	// and WAL shipping: every durable node publishes its commit stream, so
	// a solo node can gain a replica later and a promoted replica serves
	// pulls at once. nil builds a volatile node.
	Durability *engine.DurabilityConfig
	// ShipCap is the ship ring's capacity in records (0: engine default).
	ShipCap int
	// Tree is the dictionary: "btree" (the default), "betree" or "lsm".
	Tree string
	// NodeBytes is the B-tree or Bε-tree node size. 0 selects 4 KiB for a
	// B-tree and 64 KiB for a Bε-tree, which wants large nodes (the bottom
	// of E6's node-size sweep). The LSM ignores it.
	NodeBytes int
	// Spec sizes the tree's keys and values, and the preload's pairs
	// (default workload.DefaultSpec).
	Spec workload.KeySpec
	// Items is the number of pairs preloaded before serving.
	Items int64
	// Shipper configures the shipper of a node served as a replica.
	Shipper ShipperConfig
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Tree == "" {
		c.Tree = "btree"
	}
	if c.NodeBytes == 0 {
		c.NodeBytes = 4 << 10
		if c.Tree == "betree" {
			c.NodeBytes = 64 << 10
		}
	}
	if c.Spec == (workload.KeySpec{}) {
		c.Spec = workload.DefaultSpec()
	}
	return c
}

// Node owns one node's engine, tree, shared clock, server and shipper.
type Node struct {
	cfg     NodeConfig
	eng     *engine.Engine
	session func(*engine.Client) engine.Dictionary
	writer  engine.Dictionary // the Durable wrapper on a durable node
	clock   *engine.SharedClock
	srv     *server.Server
	addr    string
	shipper *Shipper // nil unless served as a replica
}

// NewNode builds the node's engine and tree and runs the preload. The
// engine is still on its private clock, so its device time so far is the
// preload's; call Serve next.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	n := &Node{cfg: cfg, eng: engine.FromStore(engine.Config{CacheBytes: cfg.CacheBytes}, cfg.Store, sim.New())}
	if cfg.Durability != nil {
		if err := n.eng.EnableDurability(*cfg.Durability); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
		if err := n.eng.EnableShipping(cfg.ShipCap); err != nil {
			return nil, fmt.Errorf("shipping: %w", err)
		}
	}
	settle, err := n.buildTree()
	if err != nil {
		return nil, err
	}
	if cfg.Durability != nil {
		d, err := n.eng.Durable(cfg.Tree, n.writer)
		if err != nil {
			return nil, fmt.Errorf("durable %s: %w", cfg.Tree, err)
		}
		n.writer = d
	}
	if cfg.Items > 0 {
		workload.Load(n.writer, cfg.Spec, cfg.Items)
		settle()
		if cfg.Durability != nil {
			if err := n.eng.Sync(); err != nil {
				return nil, fmt.Errorf("preload sync: %w", err)
			}
		}
	}
	return n, nil
}

// buildTree builds the configured tree as the node's read-session factory
// and write target, returning the call that settles a preload into it.
// The trees' own errors already name the tree.
func (n *Node) buildTree() (settle func(), err error) {
	cfg := n.cfg
	switch cfg.Tree {
	case "btree":
		t, err := btree.New(btree.Config{
			NodeBytes: cfg.NodeBytes, MaxKeyBytes: cfg.Spec.KeyBytes, MaxValueBytes: cfg.Spec.ValueBytes,
		}, n.eng)
		if err != nil {
			return nil, err
		}
		n.session = func(c *engine.Client) engine.Dictionary { return t.Session(c) }
		n.writer = t
		return t.Flush, nil
	case "betree":
		t, err := betree.New(betree.Config{
			NodeBytes: cfg.NodeBytes, MaxFanout: betree.DefaultFanout,
			MaxKeyBytes: cfg.Spec.KeyBytes, MaxValueBytes: cfg.Spec.ValueBytes,
		}.Optimized(), n.eng)
		if err != nil {
			return nil, err
		}
		n.session = func(c *engine.Client) engine.Dictionary { return t.Session(c) }
		n.writer = t
		return t.Flush, nil
	case "lsm":
		t, err := lsm.New(lsm.DefaultConfig(), n.eng)
		if err != nil {
			return nil, err
		}
		n.session = func(c *engine.Client) engine.Dictionary { return t.Session(c) }
		n.writer = t
		return t.Flush, nil
	}
	return nil, fmt.Errorf("unknown tree %q (want btree, betree, or lsm)", cfg.Tree)
}

// Serve moves the engine onto a shared clock, starts a server with cfg and
// listens on cfg.Addr. The node answers the server's OnPromote itself, so
// any OnPromote in cfg is replaced. A replica (cfg.Role RoleReplica) then
// starts its shipper.
func (n *Node) Serve(cfg server.Config) error {
	n.clock = engine.NewSharedClock()
	n.eng.AdoptSharedClock(n.clock)
	cfg.OnPromote = n.promote
	srv, err := server.New(cfg, server.Backend{Eng: n.eng, Clock: n.clock, NewSession: n.session, Writer: n.writer})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	// The shipper exists before the first connection, so a Promote never
	// finds it missing on a replica.
	if cfg.Role == server.RoleReplica {
		n.shipper = NewShipper(srv, n.cfg.Shipper)
	}
	bound, err := srv.ListenAndServe()
	if err != nil {
		n.shipper = nil // never started, so there is nothing to stop
		srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	n.srv, n.addr = srv, bound.String()
	if n.shipper != nil {
		n.shipper.Start()
	}
	return nil
}

// promote is the server's OnPromote: seal the replica's log behind its
// stopped shipper.
func (n *Node) promote() (uint64, error) {
	if n.shipper == nil {
		return 0, errors.New("no shipper to seal (node is not a replica)")
	}
	return n.shipper.Promote(n.eng)
}

// Close stops the shipper, so no shipped apply races the server teardown,
// then the server.
func (n *Node) Close() error {
	if n.shipper != nil {
		n.shipper.Stop()
	}
	if n.srv == nil {
		return nil
	}
	return n.srv.Close()
}

// Config returns the effective (defaulted) build configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// Engine returns the node's engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// Clock returns the shared clock the server runs on (nil before Serve).
func (n *Node) Clock() *engine.SharedClock { return n.clock }

// Server returns the node's server (nil before Serve).
func (n *Node) Server() *server.Server { return n.srv }

// Addr returns the bound listen address (empty before Serve).
func (n *Node) Addr() string { return n.addr }

// Shipper returns a replica's shipper (nil on any other node).
func (n *Node) Shipper() *Shipper { return n.shipper }
