package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"profileme/internal/core"
	"profileme/internal/ingest"
	"profileme/internal/workload"
)

func TestTailIndex(t *testing.T) {
	cases := []struct {
		n       int
		idx     int
		q       float64
		ok      bool
		comment string
	}{
		{n: 10, ok: false, comment: "no value has ten beyond it"},
		{n: 11, idx: 0, q: 1.0 / 11, ok: true, comment: "only the minimum has ten beyond it"},
		{n: 500, idx: 489, q: 0.98, ok: true, comment: "p99 would rest on 5 values; fall back to p98"},
		{n: 1000, idx: 989, q: 0.99, ok: true, comment: "exactly ten beyond p99"},
		{n: 5000, idx: 4949, q: 0.99, ok: true, comment: "p99 with fifty beyond"},
	}
	for _, c := range cases {
		idx, q, ok := tailIndex(c.n)
		if ok != c.ok || (ok && (idx != c.idx || math.Abs(q-c.q) > 1e-12)) {
			t.Errorf("n=%d (%s): got idx %d q %g ok %v, want idx %d q %g ok %v", c.n, c.comment, idx, q, ok, c.idx, c.q, c.ok)
		}
		if ok && c.n-1-idx < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, c.n-1-idx)
		}
	}
}

func TestWindowRates(t *testing.T) {
	// 2 s in 4 windows of 0.5 s; events outside [from, to) are ignored.
	ts := []int64{-1, 0, 1e8, 4e8, 5e8, 1.2e9, 1.9e9, 1.99e9, 2e9}
	got := windowRates(ts, 0, 2e9, 4)
	if want := []float64{6, 2, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
}

func TestUnstolenRates(t *testing.T) {
	// Host ticks every 0.5 s: nothing stolen in the first second, half of
	// the ticks in the second.
	host := []hostSample{
		{t: 0, steal: 0, total: 0},
		{t: 5e8, steal: 0, total: 100},
		{t: 1e9, steal: 0, total: 200},
		{t: 1.5e9, steal: 50, total: 300},
		{t: 2e9, steal: 100, total: 400},
	}
	if got := stolenShare(host, 0, 2e9); got != 0.25 {
		t.Fatalf("stolenShare over the run = %g, want 0.25", got)
	}
	if got := stolenShare(host, 1.2e9, 1.7e9); got != 0.5 {
		t.Fatalf("stolenShare between samples = %g, want 0.5 (widened to 1-2 s)", got)
	}
	ts := []int64{1e8, 2e8, 1.1e9}
	got := unstolenRates(ts, 0, 2e9, 2, host)
	if want := []float64{2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unstolenRates = %v, want %v", got, want)
	}
}

func TestHottestPCs(t *testing.T) {
	var ss []core.Sample
	for pc, n := range map[uint64]int{10: 3, 20: 1, 30: 2, 40: 1} {
		for i := 0; i < n; i++ {
			ss = append(ss, core.Sample{First: core.Record{PC: pc}})
		}
	}
	// PCs 20 and 40 tie for third place; the lower PC wins.
	kept, ok := hottestPCs(ss, 3)
	if !ok || len(kept) != 6 {
		t.Fatalf("hottestPCs(3): %d samples, ok %v; want 6, true", len(kept), ok)
	}
	for _, s := range kept {
		if s.First.PC == 40 {
			t.Fatalf("hottestPCs(3) kept PC 40 over PC 20")
		}
	}
	if _, ok := hottestPCs(ss, 5); ok {
		t.Fatalf("hottestPCs(5) of 4 PCs reported ok")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	// 200 samples: p99 would leave 2 beyond, so the tail is the value
	// with exactly ten above it (190, quantile 0.95).
	if d.N != 200 || d.P50 != 100 || d.Tail != 190 || d.TailQ != 0.95 {
		t.Fatalf("summarize = %+v", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.P50 != 2 || !math.IsNaN(d.Tail) {
		t.Fatalf("small sample: %+v", d)
	}
}

func TestSummarizeWindows(t *testing.T) {
	// 5 windows of 20 samples: the tail of each is its 11th-largest value
	// (ten beyond it). One window holds a stall; the median ignores it.
	var xs []float64
	for w := 0; w < tailWindows; w++ {
		for i := 1; i <= 20; i++ {
			v := float64(i + w)
			if w == 2 && i > 5 {
				v = 1000
			}
			xs = append(xs, v)
		}
	}
	d := summarizeWindows(xs)
	// Window tails: 10+w for w != 2, and 1000: median is 13.
	if d.N != 100 || d.Tail != 13 || d.TailQ != 0.5 {
		t.Fatalf("summarizeWindows = %+v", d)
	}
	// Too few per window: the whole run's tail (ten beyond it) instead.
	few := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if d := summarizeWindows(few); d.Tail != 10 {
		t.Fatalf("fallback tail = %+v", d)
	}
}

// TestVisibleTimes walks the watermark on a hand-built sequence: two
// instances, merges completing out of acknowledgement order, a shard
// already covered when its request started, and one never covered.
func TestVisibleTimes(t *testing.T) {
	acks := []ack{
		{inst: 0, start: 10, acked: 20, captured: 5}, // c0 target 5
		{inst: 1, start: 12, acked: 22, captured: 7}, // c1 target 7
		{inst: 0, start: 15, acked: 25, captured: 3}, // c0 target 8
		{inst: 0, start: 60, acked: 70, captured: 0}, // c0 target 8, already covered at start
		{inst: 1, start: 30, acked: 40, captured: 1}, // c1 target 8, never reached
	}
	polls := []poll{
		{t: 0, c: [instances]uint64{0, 0}},
		{t: 21, c: [instances]uint64{3, 0}}, // c0 merged the 3-sample shard first
		{t: 27, c: [instances]uint64{8, 0}}, // both c0 shards now covered
		{t: 35, c: [instances]uint64{8, 7}},
		{t: 80, c: [instances]uint64{8, 7}},
	}
	got := visibleTimes(acks, polls)
	want := []int64{27, 35, 27, 80, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visibleTimes = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: union 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // runs past the parent: 90..100 counts
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},   // grandchild: only a's self shrinks
		{ID: 6, Parent: 9, Name: "orphan", Start: 0, End: 5}, // parent never recorded
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := minusChildren(spans, "root", "a", false)
	slow := minusChildren(append(spans, span{ID: 7, Parent: 1, Name: "a", Start: 50, End: 95}), "root", "a", true)
	if !reflect.DeepEqual(sum, []float64{0.07}) || !reflect.DeepEqual(slow, []float64{0.055}) {
		t.Fatalf("minusChildren = %v / %v", sum, slow)
	}
}

func TestLiveScheduleDeterministic(t *testing.T) {
	hot := []uint64{0x10, 0x20, 0x30, 0x40}
	dur := 5 * time.Second
	a := liveSchedule(7, dur, 200, 40, hot)
	b := liveSchedule(7, dur, 200, 40, hot)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, liveSchedule(8, dur, 200, 40, hot)) {
		t.Fatal("different seeds gave the same schedule")
	}
	due := map[int]time.Duration{}
	var submits, dups, queries int
	for i, e := range a {
		if i > 0 && e.due < a[i-1].due {
			t.Fatalf("event %d out of order", i)
		}
		if e.due < 0 || e.due >= dur {
			t.Fatalf("event %d due %v outside the run", i, e.due)
		}
		switch e.kind {
		case opSubmit:
			submits++
			if _, seen := due[e.seq]; seen {
				t.Fatalf("fresh shard %d scheduled twice", e.seq)
			}
			due[e.seq] = e.due
		case opDup:
			dups++
			orig, ok := due[e.seq]
			if !ok || e.due-orig < dupMinAge {
				t.Fatalf("resubmission of %d at %v: original at %v (ok %v)", e.seq, e.due, orig, ok)
			}
		default:
			queries++
			if e.due < queryStart {
				t.Fatalf("query due %v before the query stream starts", e.due)
			}
			if e.kind == opEstimate && e.pc == 0 {
				t.Fatal("estimate without a target PC")
			}
		}
	}
	n := submits + dups
	if n < 900 || n > 1100 || dups < n/10 || dups > n/4 || queries != 180 {
		t.Fatalf("schedule shape: %d submits, %d resubmissions, %d queries", submits, dups, queries)
	}
}

func TestBulkChoicesDeterministicAndSkewed(t *testing.T) {
	a, b := bulkChoices(3, 32, 20000), bulkChoices(3, 32, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different choices")
	}
	count := make([]int, 32)
	for _, c := range a {
		count[c]++
	}
	lo, hi := count[0], count[0]
	for _, c := range count {
		lo, hi = min(lo, c), max(hi, c)
	}
	if lo == 0 || hi < 10*lo {
		t.Fatalf("choices not skewed as Zipf(1) over 32: min %d max %d", lo, hi)
	}
}

// TestBodyForMatchesEncode: re-addressing a pre-encoded body must give
// exactly the bytes EncodeSubmit produces for the new id.
func TestBodyForMatchesEncode(t *testing.T) {
	b, _ := workload.ByName("compress")
	samples, lost, err := collectSamples(b.Build(20_000), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := buildShard(samples, lost, 1<<20, 'l')
	if err != nil {
		t.Fatal(err)
	}
	id := shardID('l', 4711)
	want, err := ingest.EncodeSubmit(id, ps.db)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.bodyFor(nil, id); !bytes.Equal(got, want) {
		t.Fatal("patched body differs from EncodeSubmit output")
	}
	sub, err := ingest.DecodeSubmit(ps.bodyFor(nil, id))
	if err != nil || sub.Shard != id || sub.Captured() != ps.captured {
		t.Fatalf("decode: %v, shard %q, captured %d want %d", err, sub.Shard, sub.Captured(), ps.captured)
	}
	if ps.hotPC < 1<<20 {
		t.Fatalf("hot PC %#x not relocated", ps.hotPC)
	}
}
