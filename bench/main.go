// Command bench is kdb's benchmark: six seeded workloads, each checked
// against references that do not come from kdb, measured end to end in
// an untraced pass and layer by layer in a traced one. See README.md.
//
// The acceptance driver runs
//
//	sh bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. Without --workload every
// workload runs, untraced then traced, and every metric is printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []*workload{
	{name: "closure", warmup: 3, setups: 5, clients: 1, traceOps: 12, setup: setupClosure},
	{name: "reach_bound", warmup: 8, setups: 5, clients: 1, traceOps: 16, setup: setupReachBound},
	{name: "registrar", warmup: 2, setups: 3, clients: 1, traceOps: 8, setup: setupRegistrar},
	{name: "describe", warmup: 20, setups: 9, clients: 1, traceOps: 200, setup: setupDescribe},
	{name: "durable", warmup: 10, setups: 5, clients: 1, traceOps: 50, setup: setupDurable},
	{name: "serve", warmup: 20, setups: 5, clients: serveClients, traceOps: 100, setup: setupServe},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the harness works from the root (run.sh) and from
// bench/ (go run).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// driverLine is the result object the acceptance driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printRun(r *runResult) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s (%s, seed %d): %d ops, %d statements, %d failed\n", r.Workload, kind, r.Seed, r.Ops, r.Attempted, r.Failed)
	if !r.Valid {
		fmt.Printf("   INVALID: the window held %d ops, fewer than the %d a p90 needs\n", r.Ops, minWindowOps)
	}
	for _, d := range defsFor(r.Traced) {
		fmt.Printf("   %-32s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	if u := r.Ungated; u != nil {
		fmt.Printf("   ungated: op_p90_ms %.5g, op_p%g_ms %.5g (n=%d)\n", u["op_p90_ms"], u["tail_pct"], u["op_tail_ms"], r.Ops)
		fmt.Printf("   as the clock read them: setup_s %.4g, ops_per_s %.4g, op_p50_ms %.4g, op_p90_ms %.4g; reference kernel at %.2fx its nominal time (p10 %.2f, p90 %.2f)\n",
			u["raw_setup_s"], u["raw_ops_per_s"], u["raw_op_p50_ms"], u["raw_op_p90_ms"], u["slowdown"], u["slowdown_p10"], u["slowdown_p90"])
	}
}

func printDriverLine(r *runResult) error {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defsFor(r.Traced) {
		line.Metrics[d.name] = driverValue{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// resultError makes a run with any failed statement fail the command.
func resultError(r *runResult) error {
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d statements failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []*runResult      `json:"runs"`
}

func environment(root string, seed int64, scale float64, seconds int) map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"go": runtime.Version(), "nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"gogc": gogc, "commit": commit, "seed": fmt.Sprint(seed), "scale": fmt.Sprint(scale), "window_s": fmt.Sprint(seconds),
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run (default: all, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed of the input generators, the only source of randomness")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	scale := flag.Float64("scale", 1, "multiplies every workload size")
	runs := flag.Int("runs", 1, "with no --workload: untraced runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "with no --workload: write every run to this result file")
	compare := flag.Bool("compare", false, "compare two result files: --compare OLD.json NEW.json")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: --compare OLD.json NEW.json")
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	// More Ps than CPUs would time the scheduler, not kdb.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs present", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	window := time.Duration(*seconds) * time.Second
	outDir := filepath.Join(root, "bench", "out")

	one := func(w *workload, seed int64, traced bool) (*runResult, error) {
		if traced {
			return runTraced(w, seed, *scale, outDir)
		}
		return runUntraced(w, seed, *scale, window)
	}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		r, err := one(w, *seed, *trace == 1)
		if err != nil {
			return err
		}
		printRun(r)
		if err := printDriverLine(r); err != nil {
			return err
		}
		return resultError(r)
	}

	file := resultFile{Env: environment(root, *seed, *scale, *seconds)}
	keys := make([]string, 0, len(file.Env))
	for k := range file.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%s ", k, file.Env[k])
	}
	fmt.Println()
	var failed error
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			// The last round is the traced pass, on the first seed.
			traced := i == *runs
			s := *seed + int64(i)
			if traced {
				s = *seed
			}
			r, err := one(w, s, traced)
			if err != nil {
				return err
			}
			printRun(r)
			failed = errors.Join(failed, resultError(r))
			file.Runs = append(file.Runs, r)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return failed
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
