package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"profileme/internal/core"
	"profileme/internal/cpu"
	"profileme/internal/isa"
	"profileme/internal/profile"
	"profileme/internal/sim"
	"profileme/internal/workload"
)

// simScale is the suite kernels' dynamic instruction target in the
// simulator phase: one pass over the 12 programs takes about half a
// second, so a phase holds several passes and reports their median.
const simScale = 50_000

// simProgram is one program of the simulator phase.
type simProgram struct {
	name  string
	prog  *isa.Program
	limit uint64 // instructions to run, 0 = to the end
}

// simPrograms returns the 11 suite kernels (canonical data, so their
// simulated cycles are fixed) plus one generated program from the seed,
// cut at a fixed instruction count so every seed does the same work.
func simPrograms(seed uint64) []simProgram {
	var out []simProgram
	for _, b := range workload.Suite() {
		out = append(out, simProgram{b.Name, b.Build(simScale), 0})
	}
	gc := workload.DefaultGenConfig()
	gc.Seed = mix(seed, 0, 5)
	gc.MainIters = 1 << 20
	return append(out, simProgram{"generated", workload.Generate(gc), 2 * simScale})
}

// source feeds p's instruction stream to a pipeline.
func (p simProgram) source() *sim.MachineSource {
	return sim.NewMachineSource(sim.New(p.prog), p.limit)
}

// unitConfig is pmsim's default unit: interval 512, paired sampling,
// W=80, 8-deep buffer, seed 1.
func unitConfig() core.Config {
	return core.Config{
		Paired:       true,
		MeanInterval: 512,
		Window:       80,
		BufferDepth:  8,
		CountMode:    core.CountInstructions,
		IntervalMode: core.IntervalGeometric,
		Seed:         1,
	}
}

// simRun is the outcome of one full-configuration run (pipeline + unit +
// profile.DB) of one program.
type simRun struct {
	elapsed       time.Duration
	cpu           time.Duration // process CPU time over the same span
	res           cpu.Result
	samples, lost uint64
	dAcc, dMiss   uint64
	bLook, bMiss  uint64
	errs          []float64 // relative retire-count errors of the 10 hottest PCs
}

// runFull profiles p the way pmsim does and measures it. addT, when
// non-nil, accumulates the time spent in the database's handler.
func runFull(p simProgram, addT *time.Duration) (simRun, error) {
	start, cpu0 := time.Now(), processCPU()
	unit, err := core.NewUnit(unitConfig())
	if err != nil {
		return simRun{}, err
	}
	ccfg := cpu.DefaultConfig()
	db := profile.NewDB(512, 80, ccfg.SustainedIssueWidth)
	pipe, err := cpu.New(p.prog, p.source(), ccfg)
	if err != nil {
		return simRun{}, err
	}
	handler := db.Handler()
	if addT != nil {
		inner := handler
		handler = func(ss []core.Sample) {
			t0 := time.Now()
			inner(ss)
			*addT += time.Since(t0)
		}
	}
	pipe.AttachProfileMe(unit, handler)
	res, err := pipe.Run(0)
	if err != nil {
		return simRun{}, err
	}
	db.RecordLoss(unit.Stats().Lost())
	r := simRun{elapsed: time.Since(start), cpu: processCPU() - cpu0, res: res, samples: db.Samples(), lost: unit.Stats().Lost()}
	r.dAcc, r.dMiss = pipe.Hierarchy().DCache().Stats()
	r.bLook, r.bMiss = pipe.Predictor().Accuracy()
	r.errs = retireErrors(pipe.PerPC(), db)
	return r, nil
}

// retireErrors compares ProfileMe's retire-count estimate with the
// pipeline's exact count on the 10 PCs that retired most.
func retireErrors(exact []cpu.PCStats, db *profile.DB) []float64 {
	hot := append([]cpu.PCStats(nil), exact...)
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Retired != hot[j].Retired {
			return hot[i].Retired > hot[j].Retired
		}
		return hot[i].PC < hot[j].PC
	})
	var out []float64
	for _, s := range hot {
		if len(out) == 10 || s.Retired == 0 {
			break
		}
		est := db.EstimatedEventCount(s.PC, core.EvRetired)
		out = append(out, math.Abs(est-float64(s.Retired))/float64(s.Retired))
	}
	return out
}

// processCPU returns the CPU time the whole process has used. The
// simulator phase divides by it rather than by wall time: on a virtual
// machine the hypervisor can take the CPU away (steal) for seconds at a
// time, and that time is charged to no process, so CPU time measures
// the simulator's own speed, garbage collection included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simResult is what the simulator phase reports.
type simResult struct {
	minstPerS  []float64 // per pass, per process CPU second
	errPct     float64   // mean retire-count error, first pass
	runs       int
	checkFails []string
}

// runSimPhase repeats passes over progs until budget is spent (at least
// one pass) and checks every run against the recorded expectations.
func runSimPhase(progs []simProgram, budget time.Duration, rec record) (simResult, error) {
	var out simResult
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var retired uint64
		var cpu time.Duration
		var errs []float64
		for _, p := range progs {
			r, err := runFull(p, nil)
			if err != nil {
				return out, fmt.Errorf("%s: %w", p.name, err)
			}
			out.runs++
			retired += r.res.Retired
			cpu += r.cpu
			errs = append(errs, r.errs...)
			if pass == 0 {
				out.checkFails = append(out.checkFails, checkSimRun(p, r, rec)...)
			}
		}
		out.minstPerS = append(out.minstPerS, float64(retired)/cpu.Seconds()/1e6)
		if pass == 0 {
			var sum float64
			for _, e := range errs {
				sum += e
			}
			out.errPct = 100 * sum / float64(len(errs))
			if out.errPct > rec.RetireErrMaxPct {
				out.checkFails = append(out.checkFails, fmt.Sprintf("retire_est_err_pct %.2f above recorded bound %.2f", out.errPct, rec.RetireErrMaxPct))
			}
		}
	}
	return out, nil
}

// checkSimRun holds suite kernels to their recorded cycles and retired
// counts, and the generated program to the functional simulator's
// instruction count.
func checkSimRun(p simProgram, r simRun, rec record) []string {
	if p.name == "generated" {
		n, err := sim.New(p.prog).Run(p.limit, nil)
		if err != nil {
			return []string{fmt.Sprintf("generated: functional run: %v", err)}
		}
		if n != r.res.Retired {
			return []string{fmt.Sprintf("generated: pipeline retired %d, functional simulator executed %d", r.res.Retired, n)}
		}
		return nil
	}
	want, ok := rec.Kernels[p.name]
	if !ok {
		return []string{fmt.Sprintf("%s: %d cycles / %d retired, none recorded", p.name, r.res.Cycles, r.res.Retired)}
	}
	if r.res.Cycles != want.Cycles || r.res.Retired != want.Retired {
		return []string{fmt.Sprintf("%s: %d cycles / %d retired, recorded %d / %d", p.name, r.res.Cycles, r.res.Retired, want.Cycles, want.Retired)}
	}
	return nil
}

// layerTimes is one pass of the traced simulator phase: each layer's
// configuration timed directly over the same programs.
type layerTimes struct {
	funcNs, bareNs, discardNs float64 // per instruction
	allocBytes, allocs        float64 // bare pipeline, per instruction
	addNsPerSample            float64 // profile.DB handler time per sample
	full                      []simRun
}

// runLayerPass times the configurations that split a profiled run into
// sim, cpu and core, and the profile.DB handler inside the full one.
func runLayerPass(progs []simProgram) (layerTimes, error) {
	var lt layerTimes
	var funcT, bareT, discT, addT time.Duration
	var inst, samples uint64
	var ms0, ms1 runtime.MemStats
	for _, p := range progs {
		t0 := time.Now()
		n, err := sim.New(p.prog).Run(p.limit, nil)
		if err != nil {
			return lt, err
		}
		funcT += time.Since(t0)

		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		pipe, err := cpu.New(p.prog, p.source(), cpu.DefaultConfig())
		if err != nil {
			return lt, err
		}
		if _, err := pipe.Run(0); err != nil {
			return lt, err
		}
		bareT += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		lt.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		lt.allocs += float64(ms1.Mallocs - ms0.Mallocs)

		t0 = time.Now()
		unit, err := core.NewUnit(unitConfig())
		if err != nil {
			return lt, err
		}
		pipe, err = cpu.New(p.prog, p.source(), cpu.DefaultConfig())
		if err != nil {
			return lt, err
		}
		pipe.AttachProfileMe(unit, func([]core.Sample) {})
		if _, err := pipe.Run(0); err != nil {
			return lt, err
		}
		discT += time.Since(t0)

		r, err := runFull(p, &addT)
		if err != nil {
			return lt, err
		}
		lt.full = append(lt.full, r)
		inst += n
		samples += r.samples
	}
	fi := float64(inst)
	lt.funcNs = float64(funcT.Nanoseconds()) / fi
	lt.bareNs = float64(bareT.Nanoseconds()) / fi
	lt.discardNs = float64(discT.Nanoseconds()) / fi
	lt.allocBytes /= fi
	lt.allocs /= fi
	lt.addNsPerSample = float64(addT.Nanoseconds()) / float64(samples)
	return lt, nil
}
