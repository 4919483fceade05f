// Ship ring tests against a reference model: the ring must behave exactly
// like "the newest cap records of the durable stream" from every position,
// across the physical wrap point, and while a writer wraps it under a
// concurrent puller.

package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iomodels/internal/engine"
	"iomodels/internal/kv"
)

// checkShipRing compares every ShipSince answer of e against the model of a
// ring of shipCap records over a stream of n puts, record i carrying seq
// i+1, key(i) and val(i). Every position from the floor to CommittedLSN is
// paged with several limits, so whatever slot the head sits in, some page
// straddles the physical wrap point.
func checkShipRing(t *testing.T, e *engine.Engine, n, shipCap int) {
	t.Helper()
	floor := max(n-shipCap, 0)
	if ss := e.ShipStats(); ss.FloorLSN != uint64(floor) || ss.CommittedLSN != uint64(n) || ss.Buffered != n-floor {
		t.Fatalf("after %d puts: stats floor %d committed %d buffered %d, want %d %d %d",
			n, ss.FloorLSN, ss.CommittedLSN, ss.Buffered, floor, n, n-floor)
	}
	if floor > 0 {
		for _, after := range []int{0, floor - 1} {
			_, st, err := e.ShipSince(uint64(after), 0)
			if !errors.Is(err, engine.ErrShipGap) || st.FloorLSN != uint64(floor) {
				t.Fatalf("ShipSince(%d) below floor %d = %v (floor %d), want ErrShipGap", after, floor, err, st.FloorLSN)
			}
		}
	}
	for after := floor; after <= n; after++ {
		for _, limit := range []int{0, 1, 2, shipCap - 1, shipCap, shipCap + 1} {
			got, st, err := e.ShipSince(uint64(after), limit)
			if err != nil {
				t.Fatalf("ShipSince(%d, %d) with floor %d: %v", after, limit, floor, err)
			}
			if st.FloorLSN != uint64(floor) || st.CommittedLSN != uint64(n) {
				t.Fatalf("ShipSince(%d, %d) status %+v, want floor %d committed %d", after, limit, st, floor, n)
			}
			want := n - after
			if limit > 0 {
				want = min(want, limit)
			}
			if len(got) != want {
				t.Fatalf("ShipSince(%d, %d) returned %d records, want %d", after, limit, len(got), want)
			}
			for j, r := range got {
				i := after + j
				if r.Seq != uint64(i+1) || r.Kind != kv.Put || !bytes.Equal(r.Key, key(i)) || !bytes.Equal(r.Value, val(i)) {
					t.Fatalf("ShipSince(%d, %d)[%d] = seq %d %q=%q, want seq %d %q=%q",
						after, limit, j, r.Seq, r.Key, r.Value, i+1, key(i), val(i))
				}
			}
		}
	}
}

// TestShipRingMatchesReferenceModel drives random put counts through
// durable engines with small rings and checks the ring against the model
// after each burst, then checks that a batch ShipSince already returned is
// unchanged once the ring has overwritten every slot it was copied from.
func TestShipRingMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shipCap := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("cap%d", shipCap), func(t *testing.T) {
			e, d := newShippingPrimary(t, shipCap)
			n := 0
			put := func(k int) {
				for ; k > 0; k-- {
					d.Put(key(n), val(n))
					n++
				}
				if err := e.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			checkShipRing(t, e, 0, shipCap)
			for burst := 0; burst < 10; burst++ {
				put(rng.Intn(2*shipCap) + 1)
				checkShipRing(t, e, n, shipCap)
			}

			floor := n - min(n, shipCap)
			batch, _, err := e.ShipSince(uint64(floor), 0)
			if err != nil {
				t.Fatal(err)
			}
			put(shipCap + 1)
			checkShipRing(t, e, n, shipCap)
			for j, r := range batch {
				i := floor + j
				if r.Seq != uint64(i+1) || !bytes.Equal(r.Key, key(i)) || !bytes.Equal(r.Value, val(i)) {
					t.Fatalf("returned batch[%d] changed after the ring wrapped: seq %d %q=%q, want seq %d %q=%q",
						j, r.Seq, r.Key, r.Value, i+1, key(i), val(i))
				}
			}
		})
	}
}

// TestShipPullRacesWrappingWriter pulls with ShipSince in a loop while a
// writer commits through many full wraps of a 64-record ring. Every batch
// must continue the puller's position seq by seq, and every gap must be a
// genuine ErrShipGap: a position below the floor the reply reports. Every
// 25th batch the puller idles until the writer has lapped it, so the gap
// path runs on every run, not only when the scheduler happens to starve
// the puller.
func TestShipPullRacesWrappingWriter(t *testing.T) {
	const shipCap, total = 64, 64 * 16
	e, d := newShippingPrimary(t, shipCap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			d.Put(key(i), val(i))
			if i%5 == 4 {
				if err := e.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if err := e.Sync(); err != nil {
			t.Error(err)
		}
	}()
	writerDone := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	fail := func(format string, args ...any) {
		<-done
		t.Fatalf(format, args...)
	}
	var after uint64
	batches, gaps := 0, 0
	for {
		finished := writerDone()
		recs, st, err := e.ShipSince(after, 4)
		if errors.Is(err, engine.ErrShipGap) {
			if after >= st.FloorLSN {
				fail("ErrShipGap at position %d, not below the floor %d", after, st.FloorLSN)
			}
			gaps++
			after = st.FloorLSN
			continue
		}
		if err != nil {
			fail("ShipSince(%d): %v", after, err)
		}
		for j, r := range recs {
			i := int(after) + j
			if r.Seq != uint64(i+1) || !bytes.Equal(r.Key, key(i)) {
				fail("ShipSince(%d)[%d] = seq %d %q, want seq %d %q", after, j, r.Seq, r.Key, i+1, key(i))
			}
		}
		if len(recs) > 0 {
			after = recs[len(recs)-1].Seq
			batches++
			for batches%25 == 0 && e.ShipStats().CommittedLSN < after+2*shipCap && !writerDone() {
				runtime.Gosched()
			}
			continue
		}
		if finished {
			break
		}
		runtime.Gosched()
	}
	if after != total || gaps == 0 {
		t.Fatalf("puller ended at %d after %d gaps, want %d after at least one", after, gaps, total)
	}
	t.Logf("%d batches, %d gaps re-bootstrapped", batches, gaps)
}
