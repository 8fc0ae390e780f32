package profile

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"

	"profileme/internal/core"
)

// wideDB builds a database spread over n PCs with every serialized
// feature populated: paired samples (so U_I, RetiredNear and a custom
// pair metric accumulate), retained effective addresses, and recorded
// loss. Each PC is sampled a few times, like a generated-program shard.
func wideDB(n int, seed uint64) *DB {
	db := NewDB(512, 80, 4)
	db.RetainAddrs = 4
	db.RegisterPairMetric("near", RetiredWithin(10))
	for i := 0; i < 4*n; i++ {
		k := (seed + uint64(i)*7) % uint64(n)
		pc := 0x10000 + 4*k
		a := rec(pc, true, 0, 2, 3, 5, 9, 12+int64(i%7))
		a.Addr, a.AddrValid = 0x8000+64*uint64(i), i%2 == 0
		if i%5 == 0 {
			a.Events |= core.EvDCacheMiss
		}
		b := rec(0x10000+4*((k+1)%uint64(n)), i%3 != 0, 4, 6, 7, 9, 14, 20)
		db.Add(core.Sample{First: a, Second: b, Paired: true, FetchDistance: 4, FetchLatency: 4})
	}
	db.RecordLoss(seed % 7)
	return db
}

func saveBytes(t testing.TB, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveByteIdentity pins the copy/encode split: a loaded image
// re-saves to the same bytes, and the SafeDB path (copy under the lock,
// encode outside it) writes exactly what the plain DB writes.
func TestSaveByteIdentity(t *testing.T) {
	_, small := saveImage(t)
	for name, db := range map[string]*DB{
		"empty":   NewDB(16, 0, 4),
		"small":   small,
		"600-pc":  wideDB(600, 1),
		"9600-pc": wideDB(9600, 2),
	} {
		t.Run(name, func(t *testing.T) {
			want := saveBytes(t, db.Save)
			loaded, err := LoadDB(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, loaded.Save); !bytes.Equal(got, want) {
				t.Fatalf("Save(LoadDB(Save(db))) differs: %d vs %d bytes", len(got), len(want))
			}
			safe := NewSafeDB(loaded)
			if got := saveBytes(t, safe.Save); !bytes.Equal(got, want) {
				t.Fatal("SafeDB.Save differs from DB.Save")
			}
		})
	}
}

// TestImageDetachedFromMerges runs checkpoint-style encodes (copy under
// the lock, encode after releasing it) while merges of shards carrying
// pair metrics and retained addresses mutate the aggregate. Merges run
// in a fixed order, so every image must encode to exactly the bytes of
// the aggregate after some prefix of them: a torn or aliased copy
// would match none. Run under -race it also proves the encode reads no
// live accumulator memory.
func TestImageDetachedFromMerges(t *testing.T) {
	const shards = 40
	newAgg := func() *DB {
		db := NewDB(512, 80, 4)
		db.RetainAddrs = 16
		db.RegisterPairMetric("near", RetiredWithin(10))
		return db
	}
	parts := make([]*DB, shards)
	for i := range parts {
		parts[i] = wideDB(150+i, uint64(i)+1)
	}
	// want maps an aggregate's sample count (strictly increasing with
	// each merge) to the bytes of the aggregate at that prefix.
	want := make(map[uint64][]byte, shards+1)
	ref := newAgg()
	want[0] = saveBytes(t, ref.Save)
	for _, p := range parts {
		if err := ref.Merge(p); err != nil {
			t.Fatal(err)
		}
		want[ref.Samples()] = saveBytes(t, ref.Save)
	}

	agg := NewSafeDB(newAgg())
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, p := range parts {
			if err := agg.Merge(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	images := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		im := agg.Image()
		got := saveBytes(t, im.Encode)
		loaded, err := LoadDB(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		exp, ok := want[loaded.Samples()]
		if !ok {
			t.Fatalf("image with %d samples matches no merge prefix", loaded.Samples())
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("image at %d samples differs from the aggregate at that prefix", loaded.Samples())
		}
		images++
	}
	wg.Wait()
	t.Logf("%d images checked against %d merges", images, shards)
}

// allocBytesPerOp returns the mean bytes allocated by one call of f.
func allocBytesPerOp(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSaveAllocCeiling bounds what one Save allocates relative to the
// bytes it writes, the caller's pre-grown buffer included. The gob
// encoder cost about 14× the image. The v2 encoder's row references
// and sort scratch measure 2.1× at 600 PCs and 1.8× at 9,600; the
// ceiling also leaves room for a GC emptying the envelope-buffer pool
// once in the five runs.
func TestSaveAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{600, 9600} {
		db := wideDB(n, 3)
		size := len(saveBytes(t, db.Save))
		per := allocBytesPerOp(5, func() {
			var buf bytes.Buffer
			buf.Grow(size)
			_ = db.Save(&buf)
		})
		t.Logf("%d PCs: image %d B, Save allocates %d B/op (%.1f×)", n, size, per, float64(per)/float64(size))
		if max := 2.75; float64(per) > max*float64(size) {
			t.Errorf("%d PCs: Save allocates %d B/op, over %.2f× the %d-byte image", n, per, max, size)
		}
	}
}

// TestLoadDBAllocCeiling bounds the allocations of decoding a 600-PC
// shard, the per-submit decode cost. The decoder allocates O(1): the
// payload, the database and its map, one accumulator array, one value
// array, the metric names. It measures 14; gob took about 4,800.
func TestLoadDBAllocCeiling(t *testing.T) {
	img := saveBytes(t, wideDB(600, 4).Save)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := LoadDB(bytes.NewReader(img)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadDB of a 600-PC shard: %.0f allocs", allocs)
	if max := 18.0; allocs > max {
		t.Errorf("LoadDB of a 600-PC shard: %.0f allocs, over the %.0f ceiling", allocs, max)
	}
}

// BenchmarkLoadDB600 decodes a 600-PC shard image, the per-submit
// decode cost.
func BenchmarkLoadDB600(b *testing.B) {
	img := saveBytes(b, wideDB(600, 4).Save)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadDB(bytes.NewReader(img)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSave10k encodes a 10,000-PC aggregate, the checkpoint's
// profile encode.
func BenchmarkSave10k(b *testing.B) {
	db := wideDB(10000, 2)
	var buf bytes.Buffer
	buf.Grow(len(saveBytes(b, db.Save)))
	b.SetBytes(int64(buf.Cap()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := db.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
