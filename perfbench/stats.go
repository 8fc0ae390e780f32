package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 300 samples rests on three values, so the tail
// reported is the highest percentile (up to tailWant) that still has at
// least this many samples above it.
const minBeyond = 10

// tailWant is the tail percentile reported when the sample is large
// enough (every tail metric is named p99).
const tailWant = 0.99

// dist summarizes one timing distribution.
type dist struct {
	N     int     // sample count
	P50   float64 // median (nearest rank)
	Tail  float64 // value at TailQ
	TailQ float64 // highest quantile <= tailWant with >= minBeyond samples beyond it
}

// rankIndex is the nearest-rank index of quantile q in n sorted values.
// The epsilon keeps q*n from rounding up past an exact rank (0.99*5000).
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailIndex returns the index of the reported tail value in n sorted
// samples and the quantile it stands for; ok is false when fewer than
// minBeyond+1 samples exist, so no tail can be reported.
func tailIndex(n int) (idx int, q float64, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	idx = rankIndex(n, tailWant)
	if n-1-idx < minBeyond {
		idx = n - 1 - minBeyond
	}
	return idx, float64(idx+1) / float64(n), true
}

// summarize sorts xs in place and returns its median and tail. With too
// few samples for a tail, Tail is NaN.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: math.NaN(), Tail: math.NaN()}
	if len(xs) == 0 {
		return d
	}
	d.P50 = xs[rankIndex(len(xs), 0.5)]
	if idx, q, ok := tailIndex(len(xs)); ok {
		d.Tail, d.TailQ = xs[idx], q
	}
	return d
}

// tailWindows is how many consecutive windows a run's samples are split
// into for the tail: the reported tail is the median of the windows'
// tails, so a single host stall in one window does not decide a run's
// p99.
const tailWindows = 5

// summarizeWindows summarizes xs, given in time order, with the tail
// taken as the median of the tailWindows windows' tails; TailQ is then
// the lowest quantile any window used. With too few samples for a tail
// in every window it falls back to the whole run's tail.
func summarizeWindows(xs []float64) dist {
	d := summarize(append([]float64(nil), xs...))
	n := len(xs)
	tails := make([]float64, 0, tailWindows)
	q := 1.0
	for w := 0; w < tailWindows; w++ {
		wd := summarize(append([]float64(nil), xs[w*n/tailWindows:(w+1)*n/tailWindows]...))
		if math.IsNaN(wd.Tail) {
			return d
		}
		tails = append(tails, wd.Tail)
		q = math.Min(q, wd.TailQ)
	}
	d.Tail, d.TailQ = median(tails), q
	return d
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[rankIndex(len(c), 0.5)]
}

// quantile returns the nearest-rank q-quantile of xs without reordering it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[rankIndex(len(c), q)]
}

// ack is one acknowledged, non-duplicate submission as the generator saw
// it, in the order the acknowledgements arrived.
type ack struct {
	inst     int    // index of the instance that acknowledged it
	start    int64  // ns: due time (open loop) or send time (closed loop)
	acked    int64  // ns: when the 202 reached the generator
	captured uint64 // the shard's Samples+Lost
}

// poll is one observation of every instance's aggregate Samples+Lost.
// Polls are recorded in time order and the counters never decrease.
type poll struct {
	t int64
	c [instances]uint64
}

// windowRates splits [from, to) (ns) into n equal windows and returns
// the events per second of each, counting the events at times ts.
func windowRates(ts []int64, from, to int64, n int) []float64 {
	counts := make([]float64, n)
	span := to - from
	for _, t := range ts {
		if t >= from && t < to {
			counts[int((t-from)*int64(n)/span)]++
		}
	}
	for i := range counts {
		counts[i] /= float64(span) / float64(n) / 1e9
	}
	return counts
}

// hostSample is the host's cumulative stolen and total CPU ticks at t
// (ns from the start of the run).
type hostSample struct {
	t            int64
	steal, total uint64
}

// stolenShare returns the share of host CPU ticks stolen over [from, to),
// between the last sample at or before from and the first at or after
// to (the first and last samples where none is). samples are in time
// order.
func stolenShare(samples []hostSample, from, to int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	a := sort.Search(len(samples), func(i int) bool { return samples[i].t > from }) - 1
	a = max(a, 0)
	z := sort.Search(len(samples), func(i int) bool { return samples[i].t >= to })
	z = min(z, len(samples)-1)
	total := samples[z].total - samples[a].total
	if total == 0 {
		return 0
	}
	return float64(samples[z].steal-samples[a].steal) / float64(total)
}

// unstolenRates is windowRates per second the hypervisor did not steal:
// each window's rate divided by its unstolen share of host CPU time.
func unstolenRates(ts []int64, from, to int64, n int, samples []hostSample) []float64 {
	rates := windowRates(ts, from, to, n)
	for i := range rates {
		a, z := from+(to-from)*int64(i)/int64(n), from+(to-from)*int64(i+1)/int64(n)
		rates[i] /= 1 - stolenShare(samples, a, z)
	}
	return rates
}

// visibleTimes returns, for each ack, the first poll time at or after
// its start at which the owning instance's aggregate covers everything
// that instance acknowledged up to and including this shard — a
// watermark, since merges and acknowledgements need not interleave in
// the same order. -1 marks a shard never seen covered.
func visibleTimes(acks []ack, polls []poll) []int64 {
	out := make([]int64, len(acks))
	var cum [instances]uint64
	for k, a := range acks {
		cum[a.inst] += a.captured
		target := cum[a.inst]
		i := sort.Search(len(polls), func(i int) bool { return polls[i].c[a.inst] >= target })
		j := sort.Search(len(polls), func(i int) bool { return polls[i].t >= a.start })
		if j > i {
			i = j
		}
		if i == len(polls) {
			out[k] = -1
			continue
		}
		out[k] = polls[i].t
	}
	return out
}
