package profile

import (
	"bytes"
	"errors"
	"testing"

	"profileme/internal/core"
	"profileme/internal/frame"
)

// shardDB builds a shard-like database: per-PC samples with events and
// latencies plus a loss rollup, varied by seed so shards differ.
func shardDB(t *testing.T, seed uint64) *DB {
	t.Helper()
	db := NewDB(100, 0, 4)
	n := 3 + int(seed%5)
	for i := 0; i < n; i++ {
		pc := 0x40 + 8*uint64((seed+uint64(i))%7)
		r := rec(pc, true, 0, 2, 3, 5, 9, 12)
		if (seed+uint64(i))%2 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		db.Add(core.Sample{First: r})
	}
	db.RecordLoss(seed % 4)
	return db
}

// cloneDB deep-copies a database through the persistence envelope, so
// merge tests can reuse source shards without aliasing.
func cloneDB(t *testing.T, db *DB) *DB {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// equalCounts compares everything a fleet aggregate depends on: totals,
// loss rollups, and per-PC accumulators.
func equalCounts(t *testing.T, a, b *DB) {
	t.Helper()
	if a.Samples() != b.Samples() || a.Lost() != b.Lost() || a.CorruptRejected() != b.CorruptRejected() {
		t.Fatalf("totals differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.Samples(), a.Lost(), a.CorruptRejected(),
			b.Samples(), b.Lost(), b.CorruptRejected())
	}
	apcs, bpcs := a.PCs(), b.PCs()
	if len(apcs) != len(bpcs) {
		t.Fatalf("PC sets differ: %d vs %d", len(apcs), len(bpcs))
	}
	for i, pc := range apcs {
		if bpcs[i] != pc {
			t.Fatalf("PC %d differs: %#x vs %#x", i, pc, bpcs[i])
		}
		aa, ba := a.Get(pc), b.Get(pc)
		if aa.Samples != ba.Samples || aa.Events != ba.Events ||
			aa.LatSum != ba.LatSum || aa.LatCount != ba.LatCount {
			t.Fatalf("accumulator at %#x differs:\n%+v\n%+v", pc, *aa, *ba)
		}
	}
}

// TestMergeAssociativeCommutative checks that folding many shard
// databases into an aggregate gives the same counts and loss rollups in
// any association and order — the property the fleet supervisor relies
// on when workers finish nondeterministically.
func TestMergeAssociativeCommutative(t *testing.T) {
	shards := []*DB{shardDB(t, 1), shardDB(t, 2), shardDB(t, 3), shardDB(t, 9)}

	// ((a+b)+c)+d
	left := cloneDB(t, shards[0])
	for _, s := range shards[1:] {
		if err := left.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	// a+((b+c)+d), built right-to-left
	right := cloneDB(t, shards[3])
	if err := right.Merge(shards[2]); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(shards[0]); err != nil {
		t.Fatal(err)
	}
	// pairwise: (a+c) + (d+b)
	p1 := cloneDB(t, shards[0])
	if err := p1.Merge(shards[2]); err != nil {
		t.Fatal(err)
	}
	p2 := cloneDB(t, shards[3])
	if err := p2.Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	if err := p1.Merge(p2); err != nil {
		t.Fatal(err)
	}

	equalCounts(t, left, right)
	equalCounts(t, left, p1)
}

// TestMergeSelfErrors: handing the aggregate to itself must fail cleanly
// instead of double-counting or corrupting the PC map mid-iteration.
func TestMergeSelfErrors(t *testing.T) {
	db := shardDB(t, 5)
	before := db.Samples()
	if err := db.Merge(db); err == nil {
		t.Fatal("self-merge accepted")
	}
	if db.Samples() != before {
		t.Fatalf("self-merge mutated the database: %d -> %d samples", before, db.Samples())
	}
}

// TestMergeConfigMismatchErrors: shards from a differently configured
// campaign must be rejected, leaving the aggregate untouched.
func TestMergeConfigMismatchErrors(t *testing.T) {
	db := shardDB(t, 1)
	other := NewDB(200, 0, 4) // different interval
	if err := db.Merge(other); err == nil {
		t.Fatal("config-mismatched merge accepted")
	}
}

// TestMergeCorruptShardRejectedBeforeMerge: the fleet path is
// load-then-merge; a corrupt shard image fails the CRC at load with a
// typed error, so there is never a half-merged aggregate.
func TestMergeCorruptShardRejectedBeforeMerge(t *testing.T) {
	var buf bytes.Buffer
	if err := shardDB(t, 2).Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[len(img)/2] ^= 0x08
	if _, err := LoadDB(bytes.NewReader(img)); !errors.Is(err, frame.ErrCorrupt) {
		t.Fatalf("corrupt shard not typed ErrCorrupt: %v", err)
	}
}
