// Client is the Go client for the wire protocol: one TCP connection, one
// outstanding request at a time (the closed-loop shape the Lemma 13
// experiment assumes — concurrency comes from many clients, not pipelining).
//
// Every round trip runs under per-request read/write deadlines (Options.
// RequestTimeout), so a hung or partitioned server surfaces as ErrTimeout
// instead of blocking the caller forever — the property the cluster router's
// failover depends on. A transport or framing failure leaves the connection
// mid-frame with the stream position unknown; the client marks itself
// poisoned and every later call fails fast with ErrPoisoned until the caller
// reconnects, instead of desynchronizing the protocol.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
	"iomodels/internal/wal"
)

// ErrBusy is returned when the server sheds the request under admission
// control. The request was not executed; the caller may retry.
var ErrBusy = errors.New("server busy")

// ErrSnapExpired is returned for snapshot operations against an id the
// server no longer holds (never opened, already released, or the version
// horizon moved past its pin). Open a fresh snapshot and retry.
var ErrSnapExpired = errors.New("snapshot expired")

// ErrTimeout is returned when a round trip exceeds the request timeout: the
// server is hung, partitioned, or dead. The connection is poisoned (the
// reply may still arrive mid-frame later); reconnect to retry. The cluster
// router treats it as the failover trigger.
var ErrTimeout = errors.New("client: request timed out")

// ErrPoisoned is returned by every call after a transport or framing error
// left the connection's stream position unknown. Reconnect; retrying on the
// same connection would desynchronize the protocol.
var ErrPoisoned = errors.New("client: connection poisoned by an earlier framing error (reconnect)")

// ErrNotPrimary is returned when a mutation is sent to a replica. The
// router re-points at the shard's current primary and retries.
var ErrNotPrimary = errors.New("server: not the primary for this shard")

// ErrShipGap is returned by ShipPull when the requested position has been
// trimmed from the primary's ship ring: this subscriber must re-bootstrap.
var ErrShipGap = errors.New("server: ship position trimmed (re-bootstrap the replica)")

// Options tunes a connection. Zero values select defaults.
type Options struct {
	// ConnectTimeout bounds Dial's TCP connect (default 10s).
	ConnectTimeout time.Duration
	// RequestTimeout bounds each round trip: the write deadline covers the
	// request frame, the read deadline the reply frame. Default 5s;
	// negative disables deadlines entirely (tests that deliberately block).
	RequestTimeout time.Duration
	// MaxFrame bounds reply frames (default DefaultMaxFrame).
	MaxFrame int
}

// DefaultConnectTimeout and DefaultRequestTimeout are the Dial defaults.
const (
	DefaultConnectTimeout = 10 * time.Second
	DefaultRequestTimeout = 5 * time.Second
)

func (o Options) withDefaults() Options {
	if o.ConnectTimeout == 0 {
		o.ConnectTimeout = DefaultConnectTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	return o
}

// Client is a synchronous protocol client. Not safe for concurrent use; open
// one per goroutine.
type Client struct {
	conn     net.Conn
	r        *bufio.Reader
	w        *bufio.Writer
	maxFrame int
	timeout  time.Duration // per-request deadline (0 = none)
	poisoned error         // sticky transport/framing failure
	// Busy counts ErrBusy replies seen, a convenience for load generators.
	Busy int64
	// Traced counts requests sent with a trace context attached (TraceNext).
	Traced int64

	nextTC    kv.TraceContext // armed by TraceNext, consumed by roundTrip
	traceSeed uint64          // splitmix state for trace/span id generation
}

// Dial connects to a kvserve address with default Options.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, Options{})
}

// DialOpts connects with explicit timeouts.
func DialOpts(addr string, o Options) (*Client, error) {
	o = o.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, o.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn:     conn,
		r:        bufio.NewReaderSize(conn, 64<<10),
		w:        bufio.NewWriterSize(conn, 64<<10),
		maxFrame: o.MaxFrame,
		timeout:  o.RequestTimeout,
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Err returns the sticky poison error (nil while the connection is usable).
func (c *Client) Err() error { return c.poisoned }

// fail poisons the client and maps err for the caller: deadline expiries
// become ErrTimeout, everything else is a transport error as-is.
func (c *Client) fail(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		err = fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	c.poisoned = fmt.Errorf("%w: %v", ErrPoisoned, err)
	return err
}

// TraceNext arms the next request with a fresh sampled trace context and
// returns it: the request's frame carries the context, the server opens a
// linked span for it (bypassing sampling), and a traced write's identity
// rides the ship stream onto the replica. The returned SpanID names the
// caller's own client-side span — a load generator that records wall
// timestamps around the traced call can export a span under that id and
// the merged Chrome trace will draw the client→server arrow. Ids come from
// a per-client splitmix sequence seeded from the wall clock at first use,
// so concurrent clients and processes do not collide in practice.
func (c *Client) TraceNext() kv.TraceContext {
	if c.traceSeed == 0 {
		c.traceSeed = uint64(time.Now().UnixNano()) | 1
	}
	next := func() uint64 {
		c.traceSeed += 0x9e3779b97f4a7c15
		x := c.traceSeed
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	c.nextTC = kv.TraceContext{TraceID: next(), SpanID: next(), Flags: kv.TraceFlagSampled}
	return c.nextTC
}

// roundTrip sends req and returns the reply payload positioned after the
// status byte, having mapped Busy/Err statuses to errors.
func (c *Client) roundTrip(req request) (Status, *kv.Dec, error) {
	if c.poisoned != nil {
		return 0, nil, c.poisoned
	}
	if c.nextTC.Valid() {
		req.tc = c.nextTC
		c.nextTC = kv.TraceContext{}
		c.Traced++
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, nil, c.fail(err)
		}
	}
	if err := writeFrame(c.w, encodeRequest(req)); err != nil {
		return 0, nil, c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return 0, nil, c.fail(err)
	}
	buf, err := readFrame(c.r, c.maxFrame)
	if err != nil {
		return 0, nil, c.fail(err)
	}
	d := &kv.Dec{Buf: buf}
	status := Status(d.U8())
	switch status {
	case StatusOK, StatusNotFound:
		return status, d, nil
	case StatusBusy:
		c.Busy++
		msg := d.Bytes()
		if d.Err != nil {
			return status, nil, fmt.Errorf("server: malformed busy reply: %w", d.Err)
		}
		return status, nil, fmt.Errorf("%w: %s", ErrBusy, msg)
	case StatusErr:
		msg := d.Bytes()
		if d.Err != nil {
			return status, nil, fmt.Errorf("server: malformed error reply: %w", d.Err)
		}
		return status, nil, fmt.Errorf("server: %s", msg)
	case StatusSnapExpired:
		msg := d.Bytes()
		if d.Err != nil {
			return status, nil, fmt.Errorf("server: malformed snap-expired reply: %w", d.Err)
		}
		return status, nil, fmt.Errorf("%w: %s", ErrSnapExpired, msg)
	case StatusNotPrimary:
		msg := d.Bytes()
		if d.Err != nil {
			return status, nil, fmt.Errorf("server: malformed not-primary reply: %w", d.Err)
		}
		return status, nil, fmt.Errorf("%w: %s", ErrNotPrimary, msg)
	case StatusShipGap:
		msg := d.Bytes()
		if d.Err != nil {
			return status, nil, fmt.Errorf("server: malformed ship-gap reply: %w", d.Err)
		}
		return status, nil, fmt.Errorf("%w: %s", ErrShipGap, msg)
	default:
		return status, nil, fmt.Errorf("server: unknown reply status %d", uint8(status))
	}
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, _, err := c.roundTrip(request{op: OpPing})
	return err
}

// Get fetches key; ok is false if absent.
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	status, d, err := c.roundTrip(request{op: OpGet, key: key})
	if err != nil {
		return nil, false, err
	}
	if status == StatusNotFound {
		return nil, false, nil
	}
	v := d.Bytes()
	if d.Err != nil {
		return nil, false, fmt.Errorf("server: malformed get reply: %w", d.Err)
	}
	return v, true, nil
}

// Put inserts or replaces key.
func (c *Client) Put(key, value []byte) error {
	_, _, err := c.roundTrip(request{op: OpPut, key: key, value: value})
	return err
}

// Delete removes key, reporting whether the server accepted the delete.
func (c *Client) Delete(key []byte) (accepted bool, err error) {
	_, d, err := c.roundTrip(request{op: OpDelete, key: key})
	if err != nil {
		return false, err
	}
	a := d.U8()
	if d.Err != nil {
		return false, fmt.Errorf("server: malformed delete reply: %w", d.Err)
	}
	return a != 0, nil
}

// Upsert applies a blind delta to a counter key.
func (c *Client) Upsert(key []byte, delta int64) error {
	_, _, err := c.roundTrip(request{op: OpUpsert, key: key, delta: delta})
	return err
}

// Scan returns up to limit entries in [lo, hi); empty bounds are unbounded.
func (c *Client) Scan(lo, hi []byte, limit int) ([]kv.Entry, error) {
	_, d, err := c.roundTrip(request{op: OpScan, lo: lo, hi: hi, limit: limit})
	if err != nil {
		return nil, err
	}
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > limit {
		return nil, fmt.Errorf("server: malformed scan reply (n=%d)", n)
	}
	out := make([]kv.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Entry())
	}
	if d.Err != nil {
		return nil, fmt.Errorf("server: malformed scan reply: %w", d.Err)
	}
	return out, nil
}

// SnapOpen pins a server-side snapshot at the current applied LSN and
// returns its connection-local id and the pinned LSN. Snapshots are scoped
// to this connection and bounded per connection; release them with
// SnapRelease when done (closing the connection releases all).
func (c *Client) SnapOpen() (id, lsn uint64, err error) {
	return c.snapOpen(request{op: OpSnapOpen})
}

// SnapOpenAt pins a snapshot at a specific LSN (time travel). The LSN must
// be within the engine's retained window; otherwise ErrSnapExpired.
func (c *Client) SnapOpenAt(lsn uint64) (id, pinned uint64, err error) {
	return c.snapOpen(request{op: OpSnapOpen, atLSN: true, lsn: lsn})
}

func (c *Client) snapOpen(req request) (id, lsn uint64, err error) {
	_, d, err := c.roundTrip(req)
	if err != nil {
		return 0, 0, err
	}
	id, lsn = d.U64(), d.U64()
	if d.Err != nil {
		return 0, 0, fmt.Errorf("server: malformed snap-open reply: %w", d.Err)
	}
	return id, lsn, nil
}

// SnapGet reads key as of the snapshot id's pinned LSN.
func (c *Client) SnapGet(id uint64, key []byte) (value []byte, ok bool, err error) {
	status, d, err := c.roundTrip(request{op: OpSnapGet, snapID: id, key: key})
	if err != nil {
		return nil, false, err
	}
	if status == StatusNotFound {
		return nil, false, nil
	}
	v := d.Bytes()
	if d.Err != nil {
		return nil, false, fmt.Errorf("server: malformed snap-get reply: %w", d.Err)
	}
	return v, true, nil
}

// SnapScan returns up to limit entries in [lo, hi) as of the snapshot id's
// pinned LSN; empty bounds are unbounded.
func (c *Client) SnapScan(id uint64, lo, hi []byte, limit int) ([]kv.Entry, error) {
	_, d, err := c.roundTrip(request{op: OpSnapScan, snapID: id, lo: lo, hi: hi, limit: limit})
	if err != nil {
		return nil, err
	}
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > limit {
		return nil, fmt.Errorf("server: malformed snap-scan reply (n=%d)", n)
	}
	out := make([]kv.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Entry())
	}
	if d.Err != nil {
		return nil, fmt.Errorf("server: malformed snap-scan reply: %w", d.Err)
	}
	return out, nil
}

// SnapRelease releases a snapshot id, letting the engine reclaim versions
// once no snapshot pins them. Releasing an unknown id is an error
// (ErrSnapExpired) so leaks are visible.
func (c *Client) SnapRelease(id uint64) error {
	_, _, err := c.roundTrip(request{op: OpSnapRelease, snapID: id})
	return err
}

// Stats fetches the server's JSON stats snapshot (the same document the
// HTTP /stats endpoint serves).
func (c *Client) Stats() ([]byte, error) {
	_, d, err := c.roundTrip(request{op: OpStats})
	if err != nil {
		return nil, err
	}
	js := d.Bytes()
	if d.Err != nil {
		return nil, fmt.Errorf("server: malformed stats reply: %w", d.Err)
	}
	return js, nil
}

// NodeInfo is the shard-hello document: who this node is in the cluster and
// where its replication stream stands.
type NodeInfo struct {
	ShardID int
	Shards  int
	Role    Role
	// CommittedLSN is the node's highest durable LSN (the ship stream's
	// committed position on a primary).
	CommittedLSN uint64
	// AppliedLSN is the highest shipped primary LSN this node has applied
	// (0 unless the node is or was a replica).
	AppliedLSN uint64
}

// Hello asks the node who it is: shard identity, role, and replication
// positions. The router validates topology with it at connect time, and the
// health probe uses it as a liveness+role check.
func (c *Client) Hello() (NodeInfo, error) {
	_, d, err := c.roundTrip(request{op: OpHello})
	if err != nil {
		return NodeInfo{}, err
	}
	var info NodeInfo
	info.ShardID = int(d.U32())
	info.Shards = int(d.U32())
	info.Role = Role(d.U8())
	info.CommittedLSN = d.U64()
	info.AppliedLSN = d.U64()
	if d.Err != nil {
		return NodeInfo{}, fmt.Errorf("server: malformed hello reply: %w", d.Err)
	}
	return info, nil
}

// ShipPull tails the node's WAL ship stream: up to max durable records with
// Seq > after, plus the stream's committed and floor LSNs. Pulling with
// after = my applied LSN both fetches the next batch and acknowledges
// everything applied so far (the primary's sync-ship gate releases on it).
func (c *Client) ShipPull(after uint64, max int) (recs []wal.Record, committed, floor uint64, err error) {
	_, d, err := c.roundTrip(request{op: OpShipPull, lsn: after, limit: max})
	if err != nil {
		return nil, 0, 0, err
	}
	committed = d.U64()
	floor = d.U64()
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > max {
		return nil, 0, 0, fmt.Errorf("server: malformed ship reply (n=%d)", n)
	}
	recs = make([]wal.Record, 0, n)
	for i := 0; i < n; i++ {
		var r wal.Record
		r.Kind = kv.Kind(d.U8())
		r.Seq = d.U64()
		r.Key = d.Bytes()
		r.Value = d.Bytes()
		recs = append(recs, r)
	}
	if d.Err != nil {
		return nil, 0, 0, fmt.Errorf("server: malformed ship reply: %w", d.Err)
	}
	return recs, committed, floor, nil
}

// ShipPullStamped is ShipPull with the stamped-ship extension: each record
// additionally carries the wall-clock instant it became durable on the
// primary and its trace identity, so the replica can measure replication
// lag in seconds and continue carried traces on its apply path. Requires a
// server that understands the extension block — an old server answers the
// extended frame with a protocol error; same-version deployments (the
// cluster shipper) use this, mixed ones fall back to plain ShipPull.
func (c *Client) ShipPullStamped(after uint64, max int) (recs []engine.ShipRecord, committed, floor uint64, err error) {
	_, d, err := c.roundTrip(request{op: OpShipPull, lsn: after, limit: max, stamps: true})
	if err != nil {
		return nil, 0, 0, err
	}
	committed = d.U64()
	floor = d.U64()
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > max {
		return nil, 0, 0, fmt.Errorf("server: malformed ship reply (n=%d)", n)
	}
	recs = make([]engine.ShipRecord, 0, n)
	for i := 0; i < n; i++ {
		var r engine.ShipRecord
		r.Kind = kv.Kind(d.U8())
		r.Seq = d.U64()
		r.Key = d.Bytes()
		r.Value = d.Bytes()
		r.CommitWallNs = int64(d.U64())
		r.TraceID = d.U64()
		r.SpanID = d.U64()
		recs = append(recs, r)
	}
	if d.Err != nil {
		return nil, 0, 0, fmt.Errorf("server: malformed ship reply: %w", d.Err)
	}
	return recs, committed, floor, nil
}

// Promote asks a replica to become the shard's primary: it stops applying
// the ship stream, seals its log tail, and starts accepting writes. Returns
// the LSN the promoted node serves from. Idempotent on an already-promoted
// node.
func (c *Client) Promote() (lsn uint64, err error) {
	_, d, err := c.roundTrip(request{op: OpPromote})
	if err != nil {
		return 0, err
	}
	lsn = d.U64()
	if d.Err != nil {
		return 0, fmt.Errorf("server: malformed promote reply: %w", d.Err)
	}
	return lsn, nil
}
