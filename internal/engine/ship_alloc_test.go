package engine

import (
	"fmt"
	"testing"

	"iomodels/internal/kv"
	"iomodels/internal/wal"
)

// fullShipRing returns a ship ring of capRecords records holding seqs
// 1..capRecords: full, so the next append evicts.
func fullShipRing(capRecords int) *shipBuffer {
	s := &shipBuffer{cap: capRecords}
	for seq := 1; seq <= capRecords; seq++ {
		s.append(wal.Record{Seq: uint64(seq)}, 0)
	}
	return s
}

// TestShipAppendAllocFreeWhenFull pins the ring's O(1) append: on a full
// ring, an append overwrites the oldest slot in place and moves the floor,
// with no allocation. The DefaultShipCap case keeps a per-append copy of
// the ring from hiding behind a small cap.
func TestShipAppendAllocFreeWhenFull(t *testing.T) {
	for _, c := range []int{64, DefaultShipCap} {
		t.Run(fmt.Sprintf("cap%d", c), func(t *testing.T) {
			s := fullShipRing(c)
			seq := uint64(c)
			allocs := testing.AllocsPerRun(1000, func() {
				seq++
				s.append(wal.Record{Seq: seq}, 0)
			})
			if allocs != 0 {
				t.Fatalf("append on a full ring allocated %.1f times, want 0", allocs)
			}
			if len(s.recs) != c || s.floor != seq-uint64(c) || s.committed != seq {
				t.Fatalf("ring holds %d records, floor %d, committed %d; want %d, %d, %d",
					len(s.recs), s.floor, s.committed, c, seq-uint64(c), seq)
			}
		})
	}
}

// BenchmarkShipAppend measures one append on a full DefaultShipCap ring,
// the steady state of every durable put on a node that has run a while.
func BenchmarkShipAppend(b *testing.B) {
	s := fullShipRing(DefaultShipCap)
	r := wal.Record{Seq: uint64(DefaultShipCap), Kind: kv.Put, Key: []byte("key-0000"), Value: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq++
		s.append(r, 0)
	}
}
