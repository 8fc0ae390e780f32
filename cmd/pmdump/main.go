// Command pmdump loads a profile database saved by pmsim -save and prints
// its reports — the offline half of the DCPI-style collect-then-analyze
// workflow. Since the database stores only counts and sums, dumps are
// cheap to ship and merge.
//
//	pmsim -bench vortex -save v.prof
//	pmdump v.prof
//	pmdump -merge a.prof b.prof c.prof
package main

import (
	"flag"
	"fmt"
	"os"

	"profileme/internal/core"
	"profileme/internal/profile"
)

func main() {
	var (
		top   = flag.Int("top", 20, "hot instructions to print")
		merge = flag.Bool("merge", false, "merge all argument databases before reporting")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pmdump [-top n] [-merge] profile.db [more.db ...]")
		os.Exit(2)
	}

	db, err := profile.LoadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, path := range flag.Args()[1:] {
		if !*merge {
			fmt.Fprintln(os.Stderr, "pmdump: multiple databases need -merge")
			os.Exit(2)
		}
		other, err := profile.LoadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := db.Merge(other); err != nil {
			fmt.Fprintf(os.Stderr, "pmdump: %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	fmt.Printf("profile: %d samples (%d paired), interval %.1f, window %d\n",
		db.Samples(), db.Pairs(), db.S, db.W)
	if names := db.PairMetricNames(); len(names) > 0 {
		fmt.Printf("custom pair metrics: %v\n", names)
	}
	fmt.Println()
	fmt.Print(db.Report(nil, *top))

	// Event totals across all PCs.
	var retired, dmiss, mispred uint64
	for _, pc := range db.PCs() {
		a := db.Get(pc)
		retired += a.Retired()
		dmiss += a.EventCount(core.EvDCacheMiss)
		mispred += a.EventCount(core.EvMispredict)
	}
	fmt.Printf("\ntotals: %d retired samples, %d D-cache-miss samples, %d mispredict samples\n",
		retired, dmiss, mispred)
	fmt.Printf("estimated instructions: %.0f (95%% CI half-width %.0f)\n",
		profile.EstimateCount(retired, db.S),
		func() float64 {
			lo, hi := profile.ConfidenceInterval(retired, db.S, 1.96)
			return (hi - lo) / 2
		}())
}
