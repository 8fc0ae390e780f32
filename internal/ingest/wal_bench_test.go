package ingest

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/profile"
)

// The acceptance bar for the WAL: at the default fsync window, group
// commit must keep p50 submit latency within 2× of the non-WAL
// baseline. The shard databases are built OUTSIDE the timed region so
// the benchmark measures Submit itself (admission + WAL append + group
// commit), not profile construction; each reported op carries a
// "p50-ns" metric computed from per-call wall times.

func benchmarkSubmit(b *testing.B, cfg Config, shard *profile.DB) {
	b.Helper()
	cfg.QueueDepth = 1 << 16
	cfg.Interval = 16
	s, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.CloseWAL()
	s.Start()
	var shardSeq atomic.Uint64
	var mu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		sub := wireSub("bench", shard)
		for pb.Next() {
			sub.Shard = fmt.Sprintf("bench/%d", shardSeq.Add(1))
			start := time.Now()
			err := s.Submit(sub)
			if errors.Is(err, ErrQueueFull) {
				// The in-memory path can outrun the aggregator's drain
				// rate; refusal is correct backpressure, not a benchmark
				// failure. Let it drain and keep measuring accepted ops.
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if err != nil {
				b.Errorf("submit: %v", err)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	}
}

// BenchmarkSubmitNoWAL is the in-memory path: admission ledger + queue
// only. This is what the pre-WAL 202 cost — and it promised nothing: a
// crash lost every submission since the last checkpoint.
func BenchmarkSubmitNoWAL(b *testing.B) {
	benchmarkSubmit(b, Config{}, testShard(3, 8))
}

// BenchmarkSubmitNoWALDurable is the durability baseline the 2× bound
// is measured against: the only way the pre-WAL service could make a
// 202 durable was a synchronous whole-aggregate checkpoint
// (WriteAtomic: temp file, fsync, rename, directory fsync) before
// acknowledging. The WAL replaces that with one group-committed
// record append.
func BenchmarkSubmitNoWALDurable(b *testing.B) {
	dir := b.TempDir()
	cfg := Config{
		QueueDepth:     1 << 16,
		Interval:       16,
		CheckpointPath: dir + "/ckpt.db",
	}
	s, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var shardSeq atomic.Uint64
	var mu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		sub := wireSub("bench", testShard(3, 8))
		for pb.Next() {
			sub.Shard = fmt.Sprintf("bench/%d", shardSeq.Add(1))
			start := time.Now()
			if err := s.Submit(sub); err != nil {
				b.Errorf("submit: %v", err)
				return
			}
			if err := s.FinalCheckpoint(); err != nil {
				b.Errorf("checkpoint: %v", err)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	}
}

// BenchmarkSubmitWALDefault measures the default fsync window (0 =
// natural batching: a submit joins whatever fsync is already in
// flight). This is the configuration the 2× acceptance bound holds on.
func BenchmarkSubmitWALDefault(b *testing.B) {
	benchmarkSubmit(b, Config{WALDir: b.TempDir()}, testShard(3, 8))
}

// BenchmarkSubmitWALWindow2ms adds a 2ms coalescing window: higher p50
// by construction (every commit waits out the window), fewer fsyncs —
// the trade the -fsync-window flag exposes.
func BenchmarkSubmitWALWindow2ms(b *testing.B) {
	benchmarkSubmit(b, Config{WALDir: b.TempDir(), FsyncWindow: 2 * time.Millisecond}, testShard(3, 8))
}

// BenchmarkSubmitWALDefault600PC is BenchmarkSubmitWALDefault with a
// realistic generated-program shard (600 PCs, 2,400 samples, ~25 KB of
// profile bytes) instead of an 8-sample toy, so the WAL record's size
// and framing cost show.
func BenchmarkSubmitWALDefault600PC(b *testing.B) {
	benchmarkSubmit(b, Config{WALDir: b.TempDir()}, wideShard(600, 3))
}

// wideShard builds a shard spread over pcs PCs, four samples each, with
// every latency kind populated — the shape of a generated-program shard.
func wideShard(pcs int, seed uint64) *profile.DB {
	db := profile.NewDB(16, 0, 4)
	for i := 0; i < 4*pcs; i++ {
		r := core.Record{PC: 0x10000 + 4*((seed+uint64(i)*7)%uint64(pcs)), LoadComplete: -1}
		for st := range r.StageCycle {
			r.StageCycle[st] = int64(i + 3*st)
		}
		r.Events = core.EvRetired
		if i%4 == 0 {
			r.Events |= core.EvDCacheMiss
		}
		db.Add(core.Sample{First: r})
	}
	return db
}

// BenchmarkCheckpoint is one checkpoint snapshot of a 10,000-PC aggregate
// with a 1,000-shard applied ledger, PMCK encode included and the file
// write left out (its fsync is disk-bound and outside every lock). B/op
// is the snapshot's allocation; mu-held-us/op is the part of it that
// holds Service.mu, which every Submit, AcceptHandoff and Stats call
// waits behind.
func BenchmarkCheckpoint(b *testing.B) {
	s, err := NewService(Config{Interval: 16})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Aggregate().Merge(wideShard(10000, 1)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.applied[fmt.Sprintf("bench/%04d", i)] = true
	}
	var held time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// snapshotCheckpoint's steps, with the locked one timed.
		s.mu.Lock()
		start := time.Now()
		img, ck := s.copyCheckpointLocked()
		held += time.Since(start)
		s.mu.Unlock()
		if err := encodeCheckpoint(img, ck); err != nil {
			b.Fatal(err)
		}
		if err := WriteCheckpoint(io.Discard, ck); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(held.Microseconds())/float64(b.N), "mu-held-us/op")
}
