// Command perfbench is the repository's benchmark: the ProfileMe
// simulator's collection side and the durable collector tier, measured
// end to end and, in a separate traced run, layer by layer.
//
// Each run builds its inputs from -seed, sets up three times (shard
// materialization with the real simulator, body encoding, tier start)
// and reports the median set-up time, then measures for -seconds:
//
//   - a simulator phase (30%): the 11 suite kernels plus one generated
//     program, each through cpu.Pipeline with a ProfileMe unit (interval
//     512, paired sampling, W=80) into a profile.DB, pass after pass;
//   - a tier phase (70%) against 2 WAL-backed instances behind 1 router,
//     built from the daemons' constructors with their default flags and
//     served on loopback HTTP. ingest-bulk is a closed loop of large
//     generated-program shards followed by a read-only query burst;
//     ingest-live is a seeded open loop of small suite-kernel shards
//     with duplicate resubmissions beside a fixed-rate query stream.
//
// It checks the outputs (recorded simulator cycles, fleet conservation,
// duplicate answers, hot-PC agreement with an offline exact merge) and
// prints a table — each timing with its sample count, median, p90 and
// tail (the highest percentile up to p99 with ten samples beyond it,
// median over five windows) — followed, as the last line, by one JSON
// object with the metrics BENCHMARK.json lists: end-to-end with -trace
// 0, per-layer with -trace 1. The traced run also prints a span self-time table and writes
// its spans under .bench_build/spans.
//
//	bash perfbench/run.sh --workload ingest-bulk --seed 1 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"profileme/internal/ingest"
	"profileme/internal/profile"
)

// record is the part of record.json the benchmark checks against.
type record struct {
	Kernels map[string]struct {
		Cycles  int64  `json:"cycles"`
		Retired uint64 `json:"retired"`
	} `json:"kernels"`
	RetireErrMaxPct float64 `json:"retire_err_max_pct"`
	GenLateMaxMs    float64 `json:"gen_late_max_ms"`
}

//go:embed record.json
var recordJSON []byte

// benchSpec is the part of BENCHMARK.json this command reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Phase shares of -seconds.
const (
	simShare     = 0.30
	bulkSubmit   = 0.55 // ingest-bulk: closed-loop submits, then queries for the rest
	bulkWindows  = 10   // ingest-bulk: shards_per_s is the median over this many windows
	setupReps    = 3
	liveRate     = 200 // ingest-live submits per second
	liveQRate    = 50  // ingest-live queries per second
	failedMs     = 1e6 // latency charged to a failed operation
	coverTimeout = 15 * time.Second
)

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "ingest-bulk | ingest-live")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if (*wl != "ingest-bulk" && *wl != "ingest-live") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ingest-bulk|ingest-live, --seconds > 0, --trace 0|1")
		return 2
	}
	var rec record
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record.json:", err)
		return 1
	}
	specData, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	tmpRoot := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{wl: *wl, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, rec: rec, tmpRoot: tmpRoot, vals: map[string]float64{}}
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := spec.EndToEnd
	if b.traced {
		metrics = spec.PerLayer
	}
	out := map[string]any{}
	for _, m := range metrics {
		v, ok := b.vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			return 1
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
		fmt.Printf("%-28s %14.4f %s\n", m.Name, v, m.Unit)
	}
	for _, f := range b.fails {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(b.fails) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(b.fails) > 0 {
		return 1
	}
	return 0
}

// bench is one run.
type bench struct {
	wl      string
	seed    uint64
	dur     time.Duration
	traced  bool
	rec     record
	tmpRoot string

	base  time.Time
	tr    *tracer
	progs []simProgram
	pool  []*poolShard
	tier  *tier

	bulkWin ackWindow // ingest-bulk: the closed loop's fresh acknowledgements

	vals      map[string]float64
	fails     []string
	attempted int
	failed    int
}

// ackWindow is a stretch of the run (ns from its start) and the times of
// the fresh acknowledgements that completed in it.
type ackWindow struct {
	from, to int64
	done     []int64
}

func (b *bench) fail(format string, args ...any) {
	b.fails = append(b.fails, fmt.Sprintf(format, args...))
}

func (b *bench) run() (err error) {
	b.base = time.Now()
	if b.traced {
		b.tr = newTracer(b.base)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b.tier != nil {
			if err := b.tier.close(); err != nil {
				return err
			}
			b.tier = nil
		}
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := b.tier.close(); cerr != nil && err == nil {
			err = fmt.Errorf("tier shutdown: %w", cerr)
		}
	}()
	// Measurement starts from a collected heap, not from whatever the
	// discarded set-ups left behind.
	runtime.GC()
	b.vals["setup_s"] = median(setups)
	fmt.Printf("%s seed %d: set-up %.3fs (median of %v)\n", b.wl, b.seed, median(setups), setups)
	var pcs, size []float64
	for _, p := range b.pool {
		pcs = append(pcs, float64(len(p.db.PCs())))
		size = append(size, float64(len(p.body)))
	}
	fmt.Printf("pool: %d shards, median %.0f PCs and %.0f body bytes\n", len(b.pool), median(pcs), median(size))

	host := startSampler(b.base)
	simBudget := time.Duration(float64(b.dur) * simShare)
	if b.traced {
		if err := b.simLayers(simBudget); err != nil {
			return err
		}
	} else {
		sr, err := runSimPhase(b.progs, simBudget, b.rec)
		if err != nil {
			return err
		}
		b.fails = append(b.fails, sr.checkFails...)
		b.attempted += sr.runs
		b.vals["sim_minst_per_s"] = median(sr.minstPerS)
		b.vals["retire_est_err_pct"] = sr.errPct
		fmt.Printf("sim phase: %d passes, Minst per CPU second %.3f, retire estimate error %.3f%%\n", len(sr.minstPerS), sr.minstPerS, sr.errPct)
	}
	if err := b.tierPhase(b.dur - simBudget); err != nil {
		return err
	}
	if err := host.close(); err != nil {
		return err
	}
	fmt.Printf("host CPU stolen by the hypervisor during the run: %.1f%%\n", 100*stolenShare(host.ticks, 0, math.MaxInt64))
	if b.wl == "ingest-bulk" && !b.traced {
		// Median over windows of the closed loop, each window's fresh
		// 202s per second the hypervisor left the machine: the closed
		// loop keeps both CPUs busy, so stolen time slows it at least in
		// step, and a burst of host noise moves one or two windows, not
		// the median.
		w := b.bulkWin
		raw := windowRates(w.done, w.from, w.to, bulkWindows)
		rates := unstolenRates(w.done, w.from, w.to, bulkWindows, host.ticks)
		fmt.Printf("fresh 202s per second in %d windows: %.1f; per unstolen second: %.1f\n", bulkWindows, raw, rates)
		b.vals["shards_per_s"] = median(rates)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.vals["rss_mb"] = median(host.mb)
	fmt.Printf("resident memory while measuring: median %.1f MB, highest sample %.1f MB; process peak %.1f MB\n", median(host.mb), quantile(host.mb, 1), peak)
	return nil
}

// setup materializes the inputs and starts a fresh tier.
func (b *bench) setup() error {
	b.progs = simPrograms(b.seed)
	pool, err := materialize(b.wl, b.seed)
	if err != nil {
		return err
	}
	b.pool = pool
	b.tier, err = startTier(b.tmpRoot, b.tr)
	return err
}

// simLayers is the traced run's simulator phase: the layer
// configurations timed directly, plus the simulated guards.
func (b *bench) simLayers(budget time.Duration) error {
	var passes []layerTimes
	deadline := time.Now().Add(budget)
	for len(passes) == 0 || time.Now().Before(deadline) {
		lt, err := runLayerPass(b.progs)
		if err != nil {
			return err
		}
		passes = append(passes, lt)
	}
	pick := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	b.vals["sim.ns_per_inst"] = pick(func(l layerTimes) float64 { return l.funcNs })
	b.vals["cpu.ns_per_inst"] = pick(func(l layerTimes) float64 { return l.bareNs - l.funcNs })
	b.vals["cpu.alloc_bytes_per_inst"] = pick(func(l layerTimes) float64 { return l.allocBytes })
	b.vals["cpu.allocs_per_kinst"] = pick(func(l layerTimes) float64 { return 1000 * l.allocs })
	b.vals["core.ns_per_inst"] = pick(func(l layerTimes) float64 { return l.discardNs - l.bareNs })
	b.vals["profile.add_ns_per_sample"] = pick(func(l layerTimes) float64 { return l.addNsPerSample })

	var cycles int64
	var retired, samples, lost, dAcc, dMiss, bLook, bMiss uint64
	for _, r := range passes[0].full {
		cycles += r.res.Cycles
		retired += r.res.Retired
		samples += r.samples
		lost += r.lost
		dAcc += r.dAcc
		dMiss += r.dMiss
		bLook += r.bLook
		bMiss += r.bMiss
	}
	b.vals["cpu.cycles"] = float64(cycles)
	b.vals["cpu.ipc"] = float64(retired) / float64(cycles)
	b.vals["mem.dcache_miss_rate"] = float64(dMiss) / float64(dAcc)
	b.vals["bpred.mispredict_rate"] = float64(bMiss) / float64(bLook)
	b.vals["core.samples"] = float64(samples)
	b.vals["core.samples_lost"] = float64(lost)
	b.attempted += len(passes) * len(b.progs)
	fmt.Printf("sim layers: %d passes\n", len(passes))
	return nil
}

// tierPhase drives the workload's traffic, then checks and measures.
func (b *bench) tierPhase(budget time.Duration) error {
	g := newGen(b.tier.routerURL, b.base, b.tr, b.pool)
	before := b.walStats()
	obs := startObserver(b.tier, g, b.traced)
	t0, cpu0 := time.Now(), processCPU()
	var ops []opResult
	var submitDur, submitCPU time.Duration
	switch b.wl {
	case "ingest-bulk":
		submitDur = time.Duration(float64(budget) * bulkSubmit / (1 - simShare))
		choices := bulkChoices(b.seed, len(b.pool), 1<<20)
		ops = g.runClosedLoop(t0.Add(submitDur), choices)
		submitDur = time.Since(t0)
		// The queries read the end-size aggregate alone: wait until the
		// instances have merged everything they acknowledged.
		if !waitCovered(b.tier, b.owed(ops), coverTimeout) {
			b.fail("instances did not cover their acknowledged samples within %v", coverTimeout)
		}
		submitCPU = processCPU() - cpu0
		var sent []int
		for _, r := range ops {
			sent = append(sent, r.pool)
		}
		ops = append(ops, g.runQueryLoop(time.Now().Add(budget-submitDur), sent)...)
	case "ingest-live":
		submitDur = budget
		hot := make([]uint64, len(b.pool))
		for i, p := range b.pool {
			hot[i] = p.hotPC
		}
		ops = g.runOpenLoop(t0, liveSchedule(b.seed, budget, liveRate, liveQRate, hot))
	}
	phase := time.Since(t0)
	after := b.walStats()

	// Acknowledgements in arrival order, and what each instance must
	// eventually hold.
	var acks []ack
	var ackOps []*opResult
	acked := map[int]bool{}
	for i := range ops {
		r := &ops[i]
		if r.kind == opSubmit && r.ok && !r.dupResp {
			acked[r.seq] = true
		}
	}
	sortByDone(ops)
	for i := range ops {
		r := &ops[i]
		if r.kind != opSubmit || !r.ok || r.dupResp {
			continue
		}
		c := b.pool[r.pool].captured
		acks = append(acks, ack{inst: r.inst, start: r.start, acked: r.done, captured: c})
		ackOps = append(ackOps, r)
	}
	if !waitCovered(b.tier, b.owed(ops), coverTimeout) {
		b.fail("instances did not cover their acknowledged samples within %v", coverTimeout)
	}
	if b.wl == "ingest-live" {
		submitCPU = processCPU() - cpu0 // submits and the queries beside them
	}
	obs.close()

	// Latencies; a failed operation misses every limit.
	var submitMs, queryMs, visMs, lagUs, lateMs, onMs, offMs []float64
	for _, r := range ops {
		b.attempted++
		lat := float64(r.done-r.start) / 1e6
		if !r.ok {
			b.failed++
			lat = failedMs
		}
		if r.kind.isSubmit() {
			submitMs = append(submitMs, lat)
			if r.ok && b.traced {
				if r.traced {
					onMs = append(onMs, lat)
				} else {
					offMs = append(offMs, lat)
				}
			}
		} else {
			queryMs = append(queryMs, lat)
		}
		if b.wl == "ingest-live" {
			lateMs = append(lateMs, float64(r.sent-r.start)/1e6)
		}
		// Duplicate discipline: a resubmission of an acknowledged shard
		// must be answered duplicate, a fresh shard must not.
		if r.ok && r.kind == opDup && acked[r.seq] && !r.dupResp {
			b.fail("resubmission of shard %s was not answered duplicate", shardID('l', r.seq))
		}
		if r.ok && r.kind == opSubmit && r.dupResp {
			b.fail("fresh shard %d was answered duplicate", r.seq)
		}
	}
	for k, v := range visibleTimes(acks, obs.polls) {
		if v < 0 {
			b.failed++
			visMs = append(visMs, failedMs)
			continue
		}
		visMs = append(visMs, float64(v-acks[k].start)/1e6)
		lagUs = append(lagUs, math.Max(0, float64(v-acks[k].acked)/1e3))
	}
	sub, qry, vis := summarizeWindows(submitMs), summarizeWindows(queryMs), summarizeWindows(visMs)
	fmt.Printf("tier phase %.2fs: %d submits (%d acked fresh), %d queries, %d failed; process CPU %.3f ms per fresh shard\n",
		phase.Seconds(), len(submitMs), len(acks), len(queryMs), b.failed, float64(submitCPU.Microseconds())/1e3/float64(len(acks)))
	printDist("submit_ms", sub, submitMs)
	printDist("visible_ms", vis, visMs)
	printDist("query_ms", qry, queryMs)
	if len(acks) > 0 {
		fmt.Printf("failed_ratio %.6f\n", float64(b.failed)/float64(b.attempted))
	}

	// Conservation and hot-PC agreement.
	b.checkConservation(ackOps)
	exact, err := b.exactMerge(ackOps)
	if err != nil {
		return err
	}
	recall := b.checkHotPCs(g, exact)

	var genLate float64
	if b.wl == "ingest-live" {
		genLate = summarizeWindows(lateMs).Tail
		fmt.Printf("generator lateness p99 %.3f ms (limit %.1f)\n", genLate, b.rec.GenLateMaxMs)
		if genLate > b.rec.GenLateMaxMs {
			b.fail("run invalid: generator ran %.3f ms late at p99 (limit %.1f ms)", genLate, b.rec.GenLateMaxMs)
		}
	}
	if !b.traced {
		if b.wl == "ingest-bulk" {
			// run turns these into shards_per_s once the host samples are in.
			from := int64(t0.Sub(b.base))
			b.bulkWin = ackWindow{from: from, to: from + int64(submitDur)}
			for _, r := range ackOps {
				b.bulkWin.done = append(b.bulkWin.done, r.done)
			}
		} else {
			b.vals["shards_per_s"] = float64(len(acks)) / submitDur.Seconds()
		}
		b.vals["cpu_ms_per_shard"] = float64(submitCPU.Microseconds()) / 1e3 / float64(len(acks))
		return nil
	}
	b.vals["bench.gen_late_p99_ms"] = genLate
	b.vals["router.hotpcs_recall"] = float64(recall)
	b.vals["ingest.visible_lag_us"] = median(lagUs)
	b.vals["ingest.queue_depth_p99"] = quantile(obs.depth, 0.99)
	b.vals["ingest.checkpoints"] = float64(after.checkpoints - before.checkpoints)
	syncs := float64(after.syncs - before.syncs)
	appends := float64(after.appends - before.appends)
	b.vals["wal.records_per_sync"] = appends / syncs
	b.vals["wal.bytes_per_shard"] = float64(after.bytes-before.bytes) / appends
	b.vals["wal.syncs_per_s"] = syncs / phase.Seconds()
	b.vals["bench.trace_overhead_pct"] = 100 * (median(onMs) - median(offMs)) / median(offMs)
	return b.layerProbes(exact, median(onMs), median(offMs))
}

// owed returns the samples each instance has acknowledged in fresh
// submissions: what its aggregate must eventually hold.
func (b *bench) owed(ops []opResult) [instances]uint64 {
	var want [instances]uint64
	for _, r := range ops {
		if r.kind == opSubmit && r.ok && !r.dupResp {
			want[r.inst] += b.pool[r.pool].captured
		}
	}
	return want
}

// sortByDone orders results by completion time (acknowledgement order).
func sortByDone(ops []opResult) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].done < ops[j].done })
}

func printDist(name string, d dist, xs []float64) {
	fmt.Printf("%-12s n=%-6d p50 %10.3f   p90 %10.3f   p%.2f %10.3f (median of %d windows)\n", name, d.N, d.P50, quantile(xs, 0.9), 100*d.TailQ, d.Tail, tailWindows)
}

// walCounters sums the WAL and checkpoint counters over the instances.
type walCounters struct {
	appends, syncs, checkpoints uint64
	bytes                       int64
}

func (b *bench) walStats() walCounters {
	var w walCounters
	for _, s := range b.tier.svcs {
		st := s.Stats()
		w.checkpoints += st.Checkpoints
		if st.WAL != nil {
			w.appends += st.WAL.Appends
			w.syncs += st.WAL.Syncs
			w.bytes += st.WAL.AppendedBytes
		}
	}
	return w
}

// checkConservation: Σ captured over distinct acknowledged shards must
// equal Σ instance Samples+Lost.
func (b *bench) checkConservation(acks []*opResult) {
	var want uint64
	for _, r := range acks {
		want += b.pool[r.pool].captured
	}
	var got uint64
	for _, c := range b.tier.captured() {
		got += c
	}
	if got != want {
		b.fail("fleet conservation: acknowledged shards captured %d samples, instances hold %d", want, got)
	}
}

// exactMerge folds every acknowledged shard into one database offline.
func (b *bench) exactMerge(acks []*opResult) (*profile.DB, error) {
	db := profile.NewDB(tierInterval, tierWindow, tierWidth)
	for _, r := range acks {
		if err := db.Merge(b.pool[r.pool].db); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// checkHotPCs compares the router's top 10 with the offline exact merge
// and returns how many of the 10 it got right (its recall). A listed PC
// is right when its exact count reaches the exact 10th count: PCs tied
// there are interchangeable, and the router and the exact path break
// ties differently.
//
// On ingest-live every instance holds fewer distinct PCs than its
// sketch, and the router must agree on at least 9 of 10. On ingest-bulk
// the recall is measured, not required: every hot PC's count is split
// across both instances' sketches and the router gathers only 4n rows
// from each, so its answer (marked approximate) can miss true top-10
// PCs — seed 502 gets 5 of 10.
func (b *bench) checkHotPCs(g *gen, exact *profile.DB) int {
	status, body, err := g.do("GET", "/v1/hotpcs?n=10", nil, "final", false)
	if err != nil || status != 200 {
		b.fail("final /v1/hotpcs: status %d, %v", status, err)
		return 0
	}
	var rep struct {
		PCs []struct {
			PC string `json:"pc"`
		} `json:"pcs"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		b.fail("final /v1/hotpcs: %v", err)
		return 0
	}
	top := exact.HotPCs(10)
	if len(top) < 10 {
		b.fail("offline exact merge holds only %d PCs", len(top))
		return 0
	}
	floor := top[9].Samples
	recall := 0
	for _, r := range rep.PCs {
		pc, err := strconv.ParseUint(r.PC, 0, 64)
		if a := exact.Get(pc); err == nil && a != nil && a.Samples >= floor {
			recall++
		}
	}
	fmt.Printf("router top-10 agrees with the offline exact merge on %d of 10\n", recall)
	if b.wl == "ingest-live" && recall < 9 {
		b.fail("router top-10 hot PCs agree with the exact merge on only %d of 10", recall)
	}
	return recall
}

// layerProbes times the per-layer calls made directly after the
// traffic, at the workload's end size, and fills the span metrics.
func (b *bench) layerProbes(exact *profile.DB, onMs, offMs float64) error {
	var enc, dec, size []float64
	for _, p := range b.pool {
		t0 := time.Now()
		body, err := ingest.EncodeSubmit(placeholderID('x'), p.db)
		if err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
		size = append(size, float64(len(body)))
		t0 = time.Now()
		if _, err := ingest.DecodeSubmit(body); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	b.vals["codec.encode_us"] = median(enc)
	b.vals["codec.body_bytes"] = median(size)
	b.vals["codec.decode_us"] = median(dec)
	b.vals["codec.decode_allocs"] = decodeAllocs(b.pool[0].body)

	agg := profile.NewSafeDBWith(exact, profile.SketchConfig{TopK: 512})
	var merge, hot, ckpt []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if err := agg.Merge(b.pool[i%len(b.pool)].db); err != nil {
			return err
		}
		merge = append(merge, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		agg.HotPCs(40)
		hot = append(hot, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	path := filepath.Join(b.tmpRoot, fmt.Sprintf("probe-%d.db", os.Getpid()))
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := profile.WriteAtomic(path, agg.Save); err != nil {
			return err
		}
		ckpt = append(ckpt, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	fsync, err := fsyncProbe(path, b.pool[0].body)
	if err != nil {
		return err
	}
	b.vals["wal.fsync_us"] = fsync
	b.vals["profile.merge_us"] = median(merge)
	b.vals["profile.hotpcs_us"] = median(hot)
	b.vals["profile.checkpoint_ms"] = median(ckpt)

	spans := b.tr.snapshot()
	b.vals["router.parse_us"] = median(spanDurs(spans, "router.parse"))
	b.vals["router.self_us"] = median(minusChildren(spans, "router.submit", "router.leg.submit", false))
	b.vals["router.leg_us"] = median(spanDurs(spans, "router.leg.submit"))
	b.vals["server.decode_us"] = median(spanDurs(spans, "server.decode"))
	b.vals["server.admit_us"] = median(spanDurs(spans, "server.admit"))
	b.vals["server.hotpcs_us"] = median(spanDurs(spans, "server.hotpcs"))
	b.vals["router.query_self_ms"] = median(append(
		minusChildren(spans, "router.hotpcs", "router.leg.hotpcs", true),
		minusChildren(spans, "router.estimate", "router.leg.estimate", true)...)) / 1e3

	rows := selfTable(spans)
	fmt.Println()
	printSelfTable(os.Stdout, rows)
	// Where the time of a median submission goes, layer by layer.
	band, mean, n := bandBreakdown(spans, "client.submit")
	names := make([]string, 0, len(band))
	var sum float64
	for name, v := range band {
		names = append(names, name)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool { return band[names[i]] > band[names[j]] })
	fmt.Printf("\nmedian-band submissions (%d, 45th-55th percentile, mean %.3f ms): self time by layer\n", n, mean/1e3)
	for _, name := range names {
		fmt.Printf("  %-20s %9.3f ms %5.1f%%\n", name, band[name]/1e3, 100*band[name]/mean)
	}
	fmt.Printf("  %-20s %9.3f ms; untraced submit p50 %.3f ms, traced %.3f ms: tracing overhead %.1f%%\n",
		"sum", sum/1e3, offMs, onMs, b.vals["bench.trace_overhead_pct"])

	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.wl, b.seed))
	if err := writeSpans(file, spans); err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), file)
	return nil
}

// decodeAllocs counts the heap allocations of one DecodeSubmit of body.
func decodeAllocs(body []byte) float64 {
	return testing.AllocsPerRun(10, func() {
		if _, err := ingest.DecodeSubmit(body); err != nil {
			panic(err) // the body decoded once already
		}
	})
}

// fsyncProbe times appending one submission body to a file on the WAL's
// file system and fsyncing it, alone: the disk's share of a durable
// submit without group commit or a concurrent instance. Median of 20, us.
func fsyncProbe(path string, body []byte) (float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := f.Write(body); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return median(ts), os.Remove(path)
}

// hostTicks returns the host-wide stolen and total CPU ticks from
// /proc/stat: time the hypervisor gave to other machines.
func hostTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// sampleEvery is how often resident memory and host CPU ticks are
// sampled while measuring.
const sampleEvery = 50 * time.Millisecond

// sampler samples the process's resident memory and the host's CPU
// ticks until closed. The run reports the median memory sample: the
// process peak (VmHWM) depends on when garbage collection happens to
// run against the checkpoints' transient copies, and moved by a third
// between same-length ingest-bulk runs. The tick samples give the
// stolen share of any stretch of the run.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	mb    []float64
	ticks []hostSample
	err   error
}

func startSampler(base time.Time) *sampler {
	r := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				r.err = err
				return
			}
			steal, total, err := hostTicks()
			if err != nil {
				r.err = err
				return
			}
			r.mb = append(r.mb, mb)
			r.ticks = append(r.ticks, hostSample{t: int64(time.Since(base)), steal: steal, total: total})
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// close stops the sampler; its samples may be read after it returns.
func (r *sampler) close() error {
	close(r.stop)
	<-r.done
	return r.err
}

// residentMB reads the process's resident set size.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
