package main

// --compare OLD.json NEW.json: the regression rule of BENCHMARK.json
// applied to two result files.

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict applies the rule to one metric of one workload: how far the new
// median moved in the bad direction, as a share of the old median,
// against the bound; noise is the wider of the two sides' quartile
// spreads.
func verdict(old, new []float64, better string, bound float64) (ratio, noise float64, v string) {
	mo, mn := median(old), median(new)
	ratio = mn / mo
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	noise = max(spread(old), spread(new))
	switch {
	case noise > bound:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return ratio, noise, v
}

// untracedValues collects one metric's values over a file's untraced
// runs of one workload.
func untracedValues(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}

func compareFiles(specPath, oldPath, newPath string) error {
	var spec benchmarkSpec
	var oldF, newF resultFile
	for path, v := range map[string]any{specPath: &spec, oldPath: &oldF, newPath: &newF} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	regressed := 0
	fmt.Printf("%-12s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := untracedValues(&oldF, w.Name, m.Name), untracedValues(&newF, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				return fmt.Errorf("%s/%s: missing from one of the files", w.Name, m.Name)
			}
			ratio, noise, v := verdict(o, n, m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %9.4f %7.2f%% %6.0f%%  %s\n", w.Name, m.Name, median(o), median(n), ratio, noise*100, m.Bound*100, v)
		}
	}
	for _, f := range []*resultFile{&oldF, &newF} {
		for _, r := range f.Runs {
			if r.Failed > 0 {
				return fmt.Errorf("%s (seed %d): %d statements failed", r.Workload, r.Seed, r.Failed)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
