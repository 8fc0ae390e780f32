package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/ingest"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// Tier sampling configuration: the daemon defaults (pmsimd -interval
// 512 -window 0 -width 4). Shards must match or the tier refuses them.
const (
	tierInterval = 512
	tierWindow   = 0
	tierWidth    = 4
)

// idWidth is the fixed width of every generated shard id, so a body
// encoded once under a placeholder id can be re-addressed by
// overwriting the id bytes in place.
const idWidth = 9

// poolShard is one materialized shard: its database and its submission
// body encoded under a placeholder id.
type poolShard struct {
	db       *profile.DB
	body     []byte // ingest.EncodeSubmit output for placeholderID(kind)
	idAt     int    // offset of the id inside body
	captured uint64 // Samples+Lost, the shard's weight in conservation
	hotPC    uint64 // the shard's most-sampled PC
}

func placeholderID(kind byte) string {
	return fmt.Sprintf("%c%0*d", kind, idWidth-1, 0)
}

func shardID(kind byte, seq int) string {
	return fmt.Sprintf("%c%0*d", kind, idWidth-1, seq)
}

// bodyFor writes the submission body for shard id into buf (reused
// across requests) and returns it.
func (p *poolShard) bodyFor(buf []byte, id string) []byte {
	buf = append(buf[:0], p.body...)
	copy(buf[p.idAt:], id)
	return buf
}

// collectSamples runs prog (at most limit instructions, 0 = to the end)
// through the pipeline with a unit at the tier's sampling configuration
// and returns a copy of every delivered sample and the unit's loss
// count. This is the shard-building wiring of the traffic layer (cpu +
// core.Unit + profile.DB).
func collectSamples(prog *isa.Program, limit, unitSeed uint64) ([]core.Sample, uint64, error) {
	unit, err := core.NewUnit(core.Config{
		MeanInterval: tierInterval,
		BufferDepth:  8,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         unitSeed,
	})
	if err != nil {
		return nil, 0, err
	}
	pipe, err := cpu.New(prog, sim.NewMachineSource(sim.New(prog), limit), cpu.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	var samples []core.Sample
	pipe.AttachProfileMe(unit, func(ss []core.Sample) { samples = append(samples, ss...) })
	if _, err := pipe.Run(0); err != nil {
		return nil, 0, err
	}
	return samples, unit.Stats().Lost(), nil
}

// buildShard folds samples into a fresh database at the tier's config,
// relocating every PC by base — the same program image loaded at another
// address, so distinct pool shards cover distinct PCs.
func buildShard(samples []core.Sample, lost, base uint64, kind byte) (*poolShard, error) {
	db := profile.NewDB(tierInterval, tierWindow, tierWidth)
	for _, s := range samples {
		s.First.PC += base
		if s.Paired {
			s.Second.PC += base
		}
		db.Add(s)
	}
	db.RecordLoss(lost)
	body, err := ingest.EncodeSubmit(placeholderID(kind), db)
	if err != nil {
		return nil, err
	}
	at := bytes.Index(body, []byte(placeholderID(kind)))
	if at < 0 {
		return nil, fmt.Errorf("placeholder id not found in encoded body")
	}
	var hot uint64
	if h := db.HotPCs(1); len(h) == 1 {
		hot = h[0].PC
	}
	return &poolShard{db: db, body: body, idAt: at, captured: db.Samples() + db.Lost(), hotPC: hot}, nil
}

// bulkPrograms, bulkLimit, bulkPCs and bulkImages shape the ingest-bulk
// pool: each generated program runs for bulkLimit instructions (the same
// set-up work for every seed) and yields one sample set, cut to the
// samples of its bulkPCs most-sampled PCs (4,300-5,100 samples, a 33 KB
// body) and loaded at bulkImages distinct bases. Every seed thus sends
// shards of one size into an aggregate of one size (32 x 600 PCs): how
// many distinct PCs a generated program samples depends on its seed
// (from under 300 to over 1,200), and a pool of uncut shards made the
// tier's cost per shard a property of the seed. A program that samples
// fewer than bulkPCs PCs is replaced by the next one drawn from the
// seed, at most bulkTries times.
const (
	bulkPrograms = 2
	bulkLimit    = 2_800_000
	bulkPCs      = 600
	bulkProcs    = 40
	bulkImages   = 16
	bulkTries    = 8
)

// The 11 suite kernels, each built with liveSeeds data seeds at
// liveScale, make the ingest-live pool of small shards (about 2 KB).
const (
	liveScale = 100_000
	liveSeeds = 2
)

// materialize builds the pool for a workload, running the simulator on
// two goroutines (nproc) — set-up, not measurement.
func materialize(wl string, seed uint64) ([]*poolShard, error) {
	type job struct {
		prog     func(try uint64) *isa.Program
		limit    uint64
		unitSeed uint64
		keep     int // keep the samples of this many hottest PCs; 0 = all
		bases    []uint64
		kind     byte
	}
	var jobs []job
	switch wl {
	case "ingest-bulk":
		for p := 0; p < bulkPrograms; p++ {
			gen := func(try uint64) *isa.Program {
				gc := workload.DefaultGenConfig()
				gc.Procs, gc.BodyBlocks, gc.MainIters = bulkProcs, 8, 1<<20 // runs until bulkLimit
				gc.Seed = mix(seed, uint64(p)+try*bulkPrograms, 1)
				return workload.Generate(gc)
			}
			bases := make([]uint64, bulkImages)
			for i := range bases {
				bases[i] = uint64(p*bulkImages+i+1) << 20
			}
			jobs = append(jobs, job{gen, bulkLimit, mix(seed, uint64(p), 2), bulkPCs, bases, 'b'})
		}
	case "ingest-live":
		for _, b := range workload.Suite() {
			for s := 0; s < liveSeeds; s++ {
				prog := b.BuildSeeded(liveScale, mix(seed, uint64(len(jobs)), 3))
				gen := func(uint64) *isa.Program { return prog }
				jobs = append(jobs, job{gen, 0, mix(seed, uint64(len(jobs)), 4), 0, []uint64{0}, 'l'})
			}
		}
	default:
		return nil, fmt.Errorf("no pool for workload %q", wl)
	}
	results := make([][]*poolShard, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(jobs); j += 2 {
				samples, lost, err := jobSamples(jobs[j].prog, jobs[j].limit, jobs[j].unitSeed, jobs[j].keep)
				if err != nil {
					errs[j] = err
					continue
				}
				for _, base := range jobs[j].bases {
					ps, err := buildShard(samples, lost, base, jobs[j].kind)
					if err != nil {
						errs[j] = err
						break
					}
					results[j] = append(results[j], ps)
				}
			}
		}(w)
	}
	wg.Wait()
	var pool []*poolShard
	for j := range jobs {
		if errs[j] != nil {
			return nil, errs[j]
		}
		pool = append(pool, results[j]...)
	}
	return pool, nil
}

// jobSamples collects the samples of prog(0) or, when keep > 0, the
// samples of the keep most-sampled PCs of the first of prog(0),
// prog(1), ... that samples at least keep PCs.
func jobSamples(prog func(try uint64) *isa.Program, limit, unitSeed uint64, keep int) ([]core.Sample, uint64, error) {
	for try := uint64(0); try < bulkTries; try++ {
		samples, lost, err := collectSamples(prog(try), limit, unitSeed)
		if err != nil || keep == 0 {
			return samples, lost, err
		}
		if kept, ok := hottestPCs(samples, keep); ok {
			return kept, lost, nil
		}
	}
	return nil, 0, fmt.Errorf("no program in %d sampled %d PCs", bulkTries, keep)
}

// hottestPCs keeps the samples whose PCs are among the n most-sampled
// (ties to the lower PC); it reports false when fewer than n PCs were
// sampled.
func hottestPCs(samples []core.Sample, n int) ([]core.Sample, bool) {
	count := map[uint64]int{}
	for _, s := range samples {
		for _, r := range s.Records() {
			count[r.PC]++
		}
	}
	if len(count) < n {
		return nil, false
	}
	pcs := make([]uint64, 0, len(count))
	for pc := range count {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		if count[pcs[i]] != count[pcs[j]] {
			return count[pcs[i]] > count[pcs[j]]
		}
		return pcs[i] < pcs[j]
	})
	keep := make(map[uint64]bool, n)
	for _, pc := range pcs[:n] {
		keep[pc] = true
	}
	var out []core.Sample
	for _, s := range samples {
		all := true
		for _, r := range s.Records() {
			all = all && keep[r.PC]
		}
		if all {
			out = append(out, s)
		}
	}
	return out, true
}

// mix derives an independent stream seed from the run seed and two
// indices (splitmix64 finalization).
func mix(master, a, b uint64) uint64 {
	z := master ^ (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
