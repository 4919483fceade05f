// Log shipping: the primary half of WAL-shipping replication.
//
// A shipping-enabled engine keeps a bounded in-memory ring of its durable
// WAL records — fed by the log's commit hook, so a record enters the ring at
// the exact moment it becomes crash-safe (group commit, or a checkpoint that
// covers it via the journal). A replica tails the ring through ShipSince,
// applies the records through its own durable engine in order, and is then a
// byte-equivalent warm standby: promote = seal its log tail and serve.
//
// The ring is a fixed-capacity circular buffer of ShipCap records: its
// backing slice grows to the cap once, and from then on each append
// overwrites the oldest slot and advances the head, so an append is O(1),
// allocates nothing, and memory stays bounded by cap records. A replica
// that falls behind the floor (the newest evicted seq) cannot catch up
// incrementally and gets ErrShipGap — the signal to re-bootstrap from a
// fresh image. Committed-prefix semantics carry over cluster-wide: only
// durable records are ever shipped, so a replica's state is always a prefix
// of the primary's durable history.
package engine

import (
	"errors"
	"sync"
	"time"

	"iomodels/internal/wal"
)

// ErrShippingOff is returned by shipping entry points when EnableShipping
// has not run on this engine.
var ErrShippingOff = errors.New("engine: log shipping not enabled")

// ErrShipGap is returned by ShipSince when the requested position has been
// trimmed from the ship ring: the subscriber is too far behind to catch up
// incrementally and must re-bootstrap.
var ErrShipGap = errors.New("engine: ship position trimmed from the ring (replica too far behind; re-bootstrap)")

// DefaultShipCap bounds the ship ring when EnableShipping is given 0.
const DefaultShipCap = 1 << 16

// ShipRecord is one durable record as the ship ring holds it: the WAL
// record plus the wall-clock instant it became durable on this node.
// Replicas subtract CommitWallNs from their own clock to measure
// replication lag in seconds (the positional lag is the LSN delta). The
// stamp is wall time, not virtual time: lag spans two processes with
// independent virtual clocks, and the wall clock is the only timeline they
// share.
type ShipRecord struct {
	wal.Record
	CommitWallNs int64
}

// shipBuffer is the ring of durable records awaiting shipment. Logical
// position i (0 = oldest) lives at recs[(head+i)%cap].
type shipBuffer struct {
	mu        sync.Mutex
	cap       int
	recs      []ShipRecord // durable, seq-ascending from head; len <= cap
	head      int          // physical index of the oldest record
	floor     uint64       // records with Seq > floor are available
	committed uint64       // highest durable (shippable) LSN seen
	shipped   int64        // records handed out by ShipSince
	pulls     int64        // ShipSince calls
}

// EnableShipping attaches the ship ring to a durable engine. capRecords
// bounds the ring (0 selects DefaultShipCap). Call it before the first
// mutation (right after EnableDurability, or after Recover): records already
// retired into a checkpoint journal are not shippable, so a later enable
// starts the stream at the current checkpoint LSN and a from-zero subscriber
// would see ErrShipGap.
func (e *Engine) EnableShipping(capRecords int) error {
	if e.dur == nil {
		return errNotEnabled
	}
	if capRecords <= 0 {
		capRecords = DefaultShipCap
	}
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.ship != nil {
		return errors.New("engine: shipping already enabled")
	}
	s := &shipBuffer{cap: capRecords, floor: d.lastLSN, committed: d.lastLSN}
	// Backfill what the log still holds on disk (committed records since the
	// last checkpoint), then let the live commit hook take over. Backfilled
	// records are stamped with the enable instant — their true commit time
	// is unknowable (possibly a prior process lifetime), and "now" errs
	// toward under-reporting lag rather than inventing stale clock readings.
	now := time.Now().UnixNano()
	//lint:allowblock one-time enable path: the backfill must complete under d.mu so no commit can slip between the tail scan and the OnCommit hook installation (a record missed there is a permanent ship gap)
	d.log.TailFrom(d.lastLSN, func(r wal.Record) bool {
		s.append(r, now)
		return true
	})
	d.log.SetOnCommit(func(recs []wal.Record) {
		now := time.Now().UnixNano()
		s.mu.Lock()
		for _, r := range recs {
			s.append(r, now)
		}
		s.mu.Unlock()
	})
	e.ship = s
	return nil
}

// append adds one durable record stamped with its commit wall time. Until
// the ring is full the backing slice grows (never past cap); after that the
// record overwrites the oldest slot and the floor moves to the evicted seq.
// Callers hold s.mu except during EnableShipping's backfill, which runs
// before the buffer is published.
func (s *shipBuffer) append(r wal.Record, wallNs int64) {
	rec := ShipRecord{Record: r, CommitWallNs: wallNs}
	if r.Seq > s.committed {
		s.committed = r.Seq
	}
	if len(s.recs) < s.cap {
		if len(s.recs) == cap(s.recs) {
			s.recs = append(make([]ShipRecord, 0, min(max(2*len(s.recs), 64), s.cap)), s.recs...)
		}
		s.recs = append(s.recs, rec)
		return
	}
	s.floor = s.recs[s.head].Seq
	s.recs[s.head] = rec
	s.head = (s.head + 1) % s.cap
}

// ShipSince returns up to max durable records with Seq > after, in append
// order, plus the stream's current status. A subscriber polls with its
// applied position: an empty batch means it is caught up to CommittedLSN.
// ErrShipGap means the position has been trimmed — the subscriber must
// re-bootstrap from a fresh image.
func (e *Engine) ShipSince(after uint64, max int) ([]ShipRecord, ShipStatus, error) {
	s := e.ship
	if s == nil {
		return nil, ShipStatus{}, ErrShippingOff
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShipStatus{CommittedLSN: s.committed, FloorLSN: s.floor}
	if after < s.floor {
		return nil, st, ErrShipGap
	}
	s.pulls++
	// Binary search over logical positions for the first record past
	// `after` (seqs ascend from the head).
	lo, hi := 0, len(s.recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.recs[(s.head+mid)%s.cap].Seq <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := len(s.recs) - lo
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil, st, nil
	}
	// Copy out in at most two segments: up to the physical end of the
	// backing slice, then from its start.
	out := make([]ShipRecord, n)
	start := (s.head + lo) % s.cap
	k := copy(out, s.recs[start:min(start+n, len(s.recs))])
	copy(out[k:], s.recs[:n-k])
	s.shipped += int64(n)
	return out, st, nil
}

// ShipStatus is the stream position a ShipSince reply carries.
type ShipStatus struct {
	// CommittedLSN is the highest durable (shippable) LSN.
	CommittedLSN uint64
	// FloorLSN is the trim floor: records with Seq > FloorLSN are available.
	FloorLSN uint64
}

// ShipStats is the shipping subsystem's counter snapshot.
type ShipStats struct {
	Enabled      bool
	CommittedLSN uint64
	FloorLSN     uint64
	Buffered     int   // records currently in the ring
	Shipped      int64 // records handed to subscribers
	Pulls        int64 // ShipSince calls served
}

// ShipStats returns a snapshot (zero value when shipping is off).
func (e *Engine) ShipStats() ShipStats {
	s := e.ship
	if s == nil {
		return ShipStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipStats{
		Enabled:      true,
		CommittedLSN: s.committed,
		FloorLSN:     s.floor,
		Buffered:     len(s.recs),
		Shipped:      s.shipped,
		Pulls:        s.pulls,
	}
}
