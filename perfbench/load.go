package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"iomodels/internal/cluster"
	"iomodels/internal/server"
	"iomodels/internal/workload"
)

// conns is the number of closed-loop connections the driver keeps open: one
// per host core of the 2-core machine the benchmark was sized on.
const conns = 2

// kvConn is one closed-loop connection's view of the store.
type kvConn interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
	close()
}

// directConn is a server.Client to one node that redials after a transport
// error poisons the connection.
type directConn struct {
	addr string
	c    *server.Client
}

func dialDirect(addr string) (*directConn, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &directConn{addr: addr, c: c}, nil
}

func (d *directConn) client() (*server.Client, error) {
	if d.c.Err() == nil {
		return d.c, nil
	}
	d.c.Close()
	c, err := server.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	d.c = c
	return c, nil
}

func (d *directConn) Get(key []byte) ([]byte, bool, error) {
	c, err := d.client()
	if err != nil {
		return nil, false, err
	}
	return c.Get(key)
}

func (d *directConn) Put(key, value []byte) error {
	c, err := d.client()
	if err != nil {
		return err
	}
	return c.Put(key, value)
}

func (d *directConn) close() { d.c.Close() }

// routerConn is a cluster.Router of its own, as the router asks of each
// closed-loop worker.
type routerConn struct{ *cluster.Router }

func (r routerConn) close() { r.Router.Close() }

// tally is what one connection saw in one phase.
type tally struct {
	attempted int64
	failed    int64 // errors and busy refusals
	putsTried int64 // put attempts, failed ones included
	wrong     int64 // gets that returned anything but the key's value
	firstBad  string
	lastErr   error
	getUs     []float64 // client latency of each completed get
	putUs     []float64 // client latency of each acknowledged put
	acked     []uint64  // key ids of acknowledged puts
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.putsTried += o.putsTried
	t.wrong += o.wrong
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
	if o.lastErr != nil {
		t.lastErr = o.lastErr
	}
	t.getUs = append(t.getUs, o.getUs...)
	t.putUs = append(t.putUs, o.putUs...)
	t.acked = append(t.acked, o.acked...)
}

func (t *tally) ops() int64 { return int64(len(t.getUs) + len(t.putUs)) }

// After a busy refusal the connection backs off, doubling up to busyMax,
// so a shedding server is not answered with a hot spin.
const (
	busyMin = 100 * time.Microsecond
	busyMax = 5 * time.Millisecond
)

// runOps drives one connection from its stream while more(n) holds for the
// n operations issued so far. Every put writes spec.Value(id) under key id,
// so every get of a preloaded key must return exactly that value.
func runOps(c kvConn, st *workload.Stream, more func(n int) bool) tally {
	var t tally
	busy := time.Duration(0)
	for n := 0; more(n); n++ {
		op := st.Next()
		key := spec.Key(op.ID)
		var err error
		start := time.Now()
		switch op.Kind {
		case workload.OpGet:
			var v []byte
			var ok bool
			v, ok, err = c.Get(key)
			if err == nil && (!ok || !bytes.Equal(v, spec.Value(op.ID))) {
				t.wrong++
				if t.firstBad == "" {
					t.firstBad = fmt.Sprintf("get of key id %d returned found=%v, %d bytes", op.ID, ok, len(v))
				}
			}
		case workload.OpPut:
			t.putsTried++
			err = c.Put(key, spec.Value(op.ID))
		default:
			panic(fmt.Sprintf("perfbench: mix generated unsupported op %v", op.Kind))
		}
		us := float64(time.Since(start)) / float64(time.Microsecond)
		t.attempted++
		if err != nil {
			t.failed++
			if errors.Is(err, server.ErrBusy) {
				busy = min(max(2*busy, busyMin), busyMax)
				time.Sleep(busy)
			} else {
				t.lastErr = err
			}
			continue
		}
		busy = 0
		if op.Kind == workload.OpGet {
			t.getUs = append(t.getUs, us)
		} else {
			t.putUs = append(t.putUs, us)
			t.acked = append(t.acked, op.ID)
		}
	}
	return t
}

// drive runs every connection concurrently, each from its own stream, and
// returns their merged tally.
func drive(cs []kvConn, streams []*workload.Stream, more func(n int) bool) tally {
	out := make([]tally, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = runOps(cs[i], streams[i], more)
		}(i)
	}
	wg.Wait()
	var all tally
	for _, t := range out {
		all.add(t)
	}
	return all
}

// forOps is a more-predicate for a fixed operation count per connection.
func forOps(count int) func(int) bool { return func(n int) bool { return n < count } }

// until is a more-predicate for a wall-clock deadline.
func until(deadline time.Time) func(int) bool {
	return func(int) bool { return time.Now().Before(deadline) }
}

// readBack checks that every acknowledged put reads back from addr with
// the value it wrote, over conns parallel connections.
func readBack(addr string, ids []uint64) (int64, error) {
	seen := make(map[uint64]bool, len(ids))
	var uniq []uint64
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		lost  int64
		first error
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dialDirect(addr)
			if err != nil {
				mu.Lock()
				first = err
				mu.Unlock()
				return
			}
			defer c.close()
			for i := w; i < len(uniq); i += conns {
				id := uniq[i]
				v, ok, err := c.Get(spec.Key(id))
				if err == nil && ok && bytes.Equal(v, spec.Value(id)) {
					continue
				}
				mu.Lock()
				lost++
				if first == nil {
					first = fmt.Errorf("acknowledged put of key id %d: read back found=%v err=%v", id, ok, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return lost, first
}
