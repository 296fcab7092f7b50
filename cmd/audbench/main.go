// Command audbench regenerates the tables and figures of the paper's
// evaluation (Section 12). Each experiment prints the same rows/series the
// paper reports, on in-memory stand-ins for the paper's Postgres setup
// and datasets (README, "Substitutions"); the shapes, not the absolute
// numbers, are the reproduction target.
//
// Usage:
//
//	audbench -exp fig10a            # one experiment, quick sizes
//	audbench -exp all -full         # the whole suite at full sizes
//	audbench -list                  # list available experiments
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/audb/audb/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "paper experiment id (fig10a, fig10b, fig11, fig12, fig13a-d, fig14, fig15, fig16, fig17) or 'all'")
		full    = flag.Bool("full", false, "run full-size experiments (slow)")
		tiny    = flag.Bool("tiny", false, "run smoke-test sizes (seconds for the whole suite)")
		seed    = flag.Int64("seed", 1, "workload generator seed")
		workers = flag.Int("workers", 0, "AU-DB executor workers (0 = one per CPU, 1 = serial)")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Paper)
		}
		return
	}

	cfg := bench.Config{Quick: !*full, Tiny: *tiny && !*full, Seed: *seed, Workers: *workers}
	var toRun []bench.Experiment
	if *exp == "all" {
		toRun = bench.Registry()
	} else {
		e, ok := bench.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "audbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		toRun = []bench.Experiment{e}
	}

	mode := "quick"
	if *full {
		mode = "full"
	}
	if cfg.Tiny {
		mode = "tiny"
	}
	// Ctrl-C cancels the running experiment's queries instead of killing
	// the process mid-computation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first Ctrl-C cancels ctx, restore default SIGINT handling
	// so a second Ctrl-C can kill the process even while a baseline that
	// only checks the context at segment boundaries is running.
	context.AfterFunc(ctx, stop)

	fmt.Printf("audbench: running %d experiment(s) in %s mode (seed %d, workers %d)\n\n",
		len(toRun), mode, *seed, *workers)
	for _, e := range toRun {
		start := time.Now()
		tbl, err := e.Run(ctx, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "audbench: %s interrupted\n", e.ID)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "audbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("%s(reproduces %s; took %s)\n\n", tbl.Render(), e.Paper, time.Since(start).Round(time.Millisecond))
	}
}
