// Command istbench regenerates the paper's tables and figures.
//
// Usage:
//
//	istbench -exp fig9                 # one experiment at default scale
//	istbench -exp all -n 100000       # the full suite at paper scale
//	istbench -exp fig8 -trials 10 -heavy
//
// Output is an aligned text table per figure with the same series the paper
// plots; see EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ist/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.Names(), ", ")+") or 'all'")
		n        = flag.Int("n", 10000, "synthetic dataset size")
		d        = flag.Int("d", 4, "synthetic dimensionality")
		ks       = flag.String("k", "1,20,40,60,80,100", "comma-separated k values")
		trials   = flag.Int("trials", 10, "random users averaged per configuration")
		seed     = flag.Int64("seed", 1, "master random seed")
		heavy    = flag.Bool("heavy", false, "include the slow baselines (Preference-Learning, Active-Ranking, -Adapt)")
		plot     = flag.Bool("plot", false, "additionally render each metric as an ASCII chart")
		parallel = flag.Int("parallel", 1, "worker count for independent cells (distorts time measurements)")
		jsonOut  = flag.String("json", "", "also append results as JSON to this file")
	)
	flag.Parse()
	kv := parseInts(*ks)
	if err := checkFlags(*n, *d, *trials, kv); err != nil {
		fmt.Fprintln(os.Stderr, "istbench:", err)
		os.Exit(2)
	}

	cfg := experiments.Config{
		N: *n, D: *d, Trials: *trials, Seed: *seed, Heavy: *heavy,
		Ks: kv, Parallel: *parallel,
	}

	names := experiments.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	for _, name := range names {
		start := time.Now()
		tab, err := experiments.Run(strings.TrimSpace(name), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "istbench:", err)
			os.Exit(1)
		}
		tab.Render(os.Stdout)
		if *jsonOut != "" {
			f, ferr := os.OpenFile(*jsonOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "istbench:", ferr)
				os.Exit(1)
			}
			if err := tab.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "istbench:", err)
			}
			f.Close()
		}
		if *plot {
			fmt.Println()
			tab.Plot(os.Stdout)
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", name, time.Since(start).Seconds())
	}
}

// checkFlags rejects sizes no experiment can run, so a bad command line
// fails before any dataset is built: a zero would otherwise fall back to the
// default and a negative one would panic mid-run.
func checkFlags(n, d, trials int, ks []int) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n must be at least 1, got %d", n)
	case d < 1:
		return fmt.Errorf("-d must be at least 1, got %d", d)
	case trials < 1:
		return fmt.Errorf("-trials must be at least 1, got %d", trials)
	}
	for _, k := range ks {
		if k < 1 {
			return fmt.Errorf("-k values must be at least 1, got %d", k)
		}
	}
	return nil
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			fmt.Fprintf(os.Stderr, "istbench: bad k value %q\n", part)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}
