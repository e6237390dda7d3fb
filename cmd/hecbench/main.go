// Command hecbench regenerates the paper's evaluation artifacts — Table I
// (model comparison), Table II (scheme comparison) and the Fig. 3b result
// series — on the synthetic datasets, printing rows in the paper's format.
//
// Usage:
//
//	hecbench -data univariate -table 1        # Table I, univariate suite
//	hecbench -data multivariate -table 2      # Table II, multivariate suite
//	hecbench -data univariate -table all      # everything incl. Fig. 3b
//	hecbench -fast                            # reduced scale (CI-friendly)
//	hecbench -fast -reps 8                    # Monte-Carlo: 8 seeds in
//	                                          # parallel, Table II mean±std
//	hecbench -bench-json BENCH.json           # machine-readable perf snapshot
//	                                          # of the batched tensor engine
//	hecbench -roofline BENCH.json             # kernel roofline: measured
//	                                          # compute/bandwidth ceilings and
//	                                          # each dispatch level against them
//	hecbench -sched BENCH.json                # scheduler queue disciplines on
//	                                          # the deadline-overload burst
//	                                          # (EDF vs FIFO vs pathological)
//	hecbench -dist BENCH.json                 # model distribution: tensor
//	                                          # payload vs its size bound,
//	                                          # one-tensor deltas vs full
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/hec"
)

func main() {
	var (
		data    = flag.String("data", "univariate", "dataset: univariate | multivariate | both")
		table   = flag.String("table", "all", "artifact: 1 | 2 | fig3b | all")
		fast    = flag.Bool("fast", false, "reduced scale for quick runs")
		seed    = flag.Int64("seed", 0, "override the build seed (0 keeps defaults)")
		reps    = flag.Int("reps", 1, "Monte-Carlo repetitions over seeds seed+1..seed+reps (aggregated Table II)")
		workers = flag.Int("workers", 0, "concurrent Monte-Carlo builds (<1 = a small CPU-based default; each build is itself internally parallel)")
		bench   = flag.String("bench-json", "", "write a seq-vs-batched perf snapshot (BENCH_N.json style) to this path ('-' = stdout) and exit")
		roof    = flag.String("roofline", "", "write a kernel roofline snapshot (BENCH_N.json style) to this path ('-' = stdout) and exit")
		schedJ  = flag.String("sched", "", "write a scheduler queue-discipline comparison (deadline-overload burst, BENCH_N.json style) to this path ('-' = stdout) and exit")
		distJ   = flag.String("dist", "", "write a model-distribution snapshot (payload size bound, delta vs full, BENCH_N.json style) to this path ('-' = stdout) and exit")
	)
	flag.Parse()

	if *bench != "" {
		if err := runBenchJSON(*bench, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}
	if *roof != "" {
		if err := runRoofline(*roof, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}
	if *schedJ != "" {
		if err := runSchedBench(*schedJ); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}
	if *distJ != "" {
		if err := runDistBench(*distJ, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}

	kinds, err := parseKinds(*data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hecbench:", err)
		os.Exit(2)
	}
	if *reps > 1 && *table != "2" && *table != "all" {
		fmt.Fprintf(os.Stderr, "hecbench: -table %s is not supported with -reps > 1 (Monte-Carlo aggregates Table II only)\n", *table)
		os.Exit(2)
	}
	if *reps > 1 && *seed < 0 {
		// Rep seeds are seed+1..seed+reps; a negative base could hit seed 0,
		// which buildSystem treats as "keep defaults" and would silently
		// duplicate a repetition.
		fmt.Fprintln(os.Stderr, "hecbench: -seed must be >= 0 with -reps > 1")
		os.Exit(2)
	}
	for _, kind := range kinds {
		var err error
		if *reps > 1 {
			err = runMonteCarlo(kind, *fast, *seed, *reps, *workers)
		} else {
			err = run(kind, *table, *fast, *seed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
	}
}

func parseKinds(s string) ([]repro.Kind, error) {
	switch strings.ToLower(s) {
	case "univariate", "uni":
		return []repro.Kind{repro.Univariate}, nil
	case "multivariate", "multi":
		return []repro.Kind{repro.Multivariate}, nil
	case "both", "all":
		return []repro.Kind{repro.Univariate, repro.Multivariate}, nil
	default:
		return nil, fmt.Errorf("unknown -data %q", s)
	}
}

// buildSystem builds one system of the given kind through the unified
// builder; seed 0 keeps the profile defaults.
func buildSystem(kind repro.Kind, fast bool, seed int64) (*repro.System, error) {
	var opts []repro.Option
	if fast {
		opts = append(opts, repro.WithFast())
	}
	if seed != 0 {
		opts = append(opts, repro.WithSeed(seed))
	}
	return repro.Build(kind, opts...)
}

func run(kind repro.Kind, table string, fast bool, seed int64) error {
	start := time.Now()
	fmt.Printf("== building %v system (fast=%v) ==\n", kind, fast)
	sys, err := buildSystem(kind, fast, seed)
	if err != nil {
		return fmt.Errorf("building %v system: %w", kind, err)
	}
	fmt.Printf("   built in %v (%d test samples)\n\n", time.Since(start).Round(time.Millisecond), len(sys.TestSamples))

	switch strings.ToLower(table) {
	case "1":
		return printTableI(sys)
	case "2":
		return printTableII(sys)
	case "fig3b":
		return printFig3b(sys)
	case "all":
		if err := printTableI(sys); err != nil {
			return err
		}
		if err := printTableII(sys); err != nil {
			return err
		}
		return printFig3b(sys)
	default:
		return fmt.Errorf("unknown -table %q", table)
	}
}

func printTableI(sys *repro.System) error {
	rows, err := sys.ModelRows()
	if err != nil {
		return err
	}
	fmt.Printf("TABLE I (%v): comparison among AD models\n", sys.Kind)
	fmt.Printf("%-22s %6s %12s %12s %10s %14s\n", "Model", "Layer", "#Parameters", "Accuracy(%)", "F1-score", "Exec time (ms)")
	for _, r := range rows {
		fmt.Printf("%-22s %6s %12d %12.2f %10.3f %14.1f\n",
			r.Name, r.Layer, r.NumParams, r.Accuracy*100, r.F1, r.ExecMs)
	}
	fmt.Println()
	return nil
}

func printTableII(sys *repro.System) error {
	rows, err := sys.SchemeRows()
	if err != nil {
		return err
	}
	fmt.Printf("TABLE II (%v): comparison among AD model detection schemes (alpha=%g)\n", sys.Kind, sys.Alpha)
	fmt.Printf("%-12s %8s %12s %10s %10s %24s\n", "Scheme", "F1", "Accuracy(%)", "Delay(ms)", "Reward", "Layer shares IoT/Edge/Cloud")
	for _, r := range rows {
		fmt.Printf("%-12s %8.3f %12.2f %10.2f %10.2f %11.2f/%.2f/%.2f\n",
			r.Scheme, r.F1, r.Accuracy*100, r.MeanDelayMs, r.RewardSum,
			r.LayerShares[hec.LayerIoT], r.LayerShares[hec.LayerEdge], r.LayerShares[hec.LayerCloud])
	}
	// The headline claims of the paper's abstract.
	var cloud, ours *repro.SchemeRow
	for i := range rows {
		switch rows[i].Scheme {
		case "Cloud":
			cloud = &rows[i]
		case "Our Method":
			ours = &rows[i]
		}
	}
	if cloud != nil && ours != nil && cloud.MeanDelayMs > 0 {
		saving := (1 - ours.MeanDelayMs/cloud.MeanDelayMs) * 100
		fmt.Printf("-- delay reduction vs Cloud: %.1f%% (paper: 71.4%% univariate, 7.84%% multivariate)\n", saving)
		fmt.Printf("-- accuracy gap vs Cloud: %.2f pp (paper: 0.29 pp univariate, 0.40 pp multivariate)\n",
			(cloud.Accuracy-ours.Accuracy)*100)
	}
	fmt.Println()
	return nil
}

// printFig3b renders the streaming result panel for the adaptive scheme:
// per-sample prediction vs truth, delay and chosen layer, plus the running
// accuracy/F1 curves sampled at ten checkpoints.
func printFig3b(sys *repro.System) error {
	res, err := sys.ResultPanel(hec.Adaptive{Policy: sys.Policy})
	if err != nil {
		return err
	}
	fmt.Printf("FIG 3b (%v): adaptive-scheme result panel, %d samples\n", sys.Kind, len(res.Predictions))
	n := len(res.Predictions)
	show := 12
	if n < show {
		show = n
	}
	fmt.Printf("%-8s %-6s %-6s %-10s %-6s\n", "sample", "pred", "truth", "delay(ms)", "layer")
	for i := 0; i < show; i++ {
		fmt.Printf("%-8d %-6v %-6v %-10.1f %-6v\n",
			i, b2i(res.Predictions[i]), b2i(res.Truths[i]), res.DelaysMs[i], res.Layers[i])
	}
	if n > show {
		fmt.Printf("... (%d more)\n", n-show)
	}
	fmt.Println("cumulative accuracy / F1 at 10 checkpoints:")
	for c := 1; c <= 10; c++ {
		i := c*n/10 - 1
		fmt.Printf("  after %4d: acc=%.4f f1=%.4f\n", i+1, res.AccSeries[i], res.F1Series[i])
	}
	fmt.Println()
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
