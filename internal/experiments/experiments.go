// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6). Each Fig* function returns a Table containing the
// same series the paper plots (question counts, execution times, accuracy,
// boredom...), rendered as aligned text by Table.Render. cmd/istbench is
// the command-line driver and bench_test.go wraps each runner in a
// testing.B benchmark.
//
// Scale note: the paper runs n up to 1,000,000 on a C++ testbed; the
// default Config here uses n=10,000 so that the full suite completes in
// minutes. Every runner honours Config.N/Trials, so paper-scale runs are a
// flag away (see EXPERIMENTS.md).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ist/internal/baseline"
	"ist/internal/core"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/skyband"
	"ist/internal/viz"
)

// Config controls an experiment run.
type Config struct {
	// N is the synthetic dataset size (default 10000).
	N int
	// D is the dimensionality for synthetic data (default 4).
	D int
	// Ks are the k values swept (default {1, 20, 40, 60, 80, 100}).
	Ks []int
	// Trials is the number of random users averaged per point (default 10,
	// as in the paper).
	Trials int
	// Seed makes everything reproducible (default 1).
	Seed int64
	// Heavy includes the slow baselines (Preference-Learning,
	// Active-Ranking, the -Adapt variants) where the figure calls for them.
	Heavy bool
	// Parallel dispatches independent measurement cells to this many
	// workers (default 1). Time measurements inflate under contention; use
	// parallel runs for question-count exploration.
	Parallel int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 10000
	}
	if c.D == 0 {
		c.D = 4
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 20, 40, 60, 80, 100}
	}
	if c.Trials == 0 {
		c.Trials = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Series is one line of a figure: a metric as a function of the x values.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Table is a rendered experiment: the x axis plus any number of series,
// grouped into named metrics (e.g. "questions" and "time(s)").
type Table struct {
	Title   string
	XLabel  string
	X       []float64
	Metrics map[string][]Series
}

// newTable builds an empty table.
func newTable(title, xlabel string, x []float64) *Table {
	return &Table{Title: title, XLabel: xlabel, X: x, Metrics: map[string][]Series{}}
}

// add appends a series under a metric.
func (t *Table) add(metric, name string, values []float64) {
	t.Metrics[metric] = append(t.Metrics[metric], Series{Name: name, Values: values})
}

// Render writes the table as aligned text, one block per metric.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	metrics := make([]string, 0, len(t.Metrics))
	for m := range t.Metrics {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		fmt.Fprintf(w, "-- %s --\n", m)
		fmt.Fprintf(w, "%-24s", t.XLabel)
		for _, x := range t.X {
			fmt.Fprintf(w, "%12.4g", x)
		}
		fmt.Fprintln(w)
		for _, s := range t.Metrics[m] {
			fmt.Fprintf(w, "%-24s", s.Name)
			for _, v := range s.Values {
				fmt.Fprintf(w, "%12.4g", v)
			}
			fmt.Fprintln(w)
		}
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// AlgSpec is an algorithm factory: baselines need a fresh instance per run
// because the adapted regret threshold ε depends on the hidden utility.
type AlgSpec struct {
	Name  string
	TwoD  bool // only applicable in 2 dimensions
	Heavy bool // slow baseline, included only with Config.Heavy
	Make  func(seed int64, eps float64) core.Algorithm
}

// Specs returns the algorithm roster for a comparison figure.
func Specs(d int, heavy bool) []AlgSpec {
	specs := []AlgSpec{
		{Name: "HD-PI-sampling", Make: func(seed int64, eps float64) core.Algorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
		}},
		{Name: "RH", Make: func(seed int64, eps float64) core.Algorithm {
			return core.NewRHDefault(seed)
		}},
		{Name: "UH-Random", Make: func(seed int64, eps float64) core.Algorithm {
			return &baseline.UH{Eps: eps, Rng: rand.New(rand.NewSource(seed))}
		}},
		{Name: "UH-Simplex", Make: func(seed int64, eps float64) core.Algorithm {
			return &baseline.UH{Simplex: true, Eps: eps, Rng: rand.New(rand.NewSource(seed))}
		}},
		{Name: "UtilityApprox", Make: func(seed int64, eps float64) core.Algorithm {
			return &baseline.UtilityApprox{Eps: eps}
		}},
	}
	if d == 2 {
		specs = append(specs,
			AlgSpec{Name: "2D-PI", TwoD: true, Make: func(int64, float64) core.Algorithm { return core.TwoDPI{} }},
			AlgSpec{Name: "Median", TwoD: true, Make: func(int64, float64) core.Algorithm { return baseline.Median{} }},
			AlgSpec{Name: "Hull", TwoD: true, Make: func(int64, float64) core.Algorithm { return baseline.Hull{} }},
		)
	}
	if heavy {
		specs = append(specs,
			AlgSpec{Name: "UH-Random-Adapt", Heavy: true, Make: func(seed int64, eps float64) core.Algorithm {
				return &baseline.UH{Adapt: true, Rng: rand.New(rand.NewSource(seed))}
			}},
			AlgSpec{Name: "UH-Simplex-Adapt", Heavy: true, Make: func(seed int64, eps float64) core.Algorithm {
				return &baseline.UH{Simplex: true, Adapt: true, Rng: rand.New(rand.NewSource(seed))}
			}},
			AlgSpec{Name: "Preference-Learning", Heavy: true, Make: func(seed int64, eps float64) core.Algorithm {
				return &baseline.PreferenceLearning{Rng: rand.New(rand.NewSource(seed))}
			}},
			AlgSpec{Name: "Active-Ranking", Heavy: true, Make: func(seed int64, eps float64) core.Algorithm {
				return &baseline.ActiveRanking{Rng: rand.New(rand.NewSource(seed))}
			}},
		)
		if d == 2 {
			specs = append(specs,
				AlgSpec{Name: "Median-Adapt", TwoD: true, Heavy: true, Make: func(int64, float64) core.Algorithm { return baseline.MedianAdapt{} }},
				AlgSpec{Name: "Hull-Adapt", TwoD: true, Heavy: true, Make: func(int64, float64) core.Algorithm { return baseline.HullAdapt{} }},
			)
		}
	}
	return specs
}

// measurement is the averaged outcome of Trials runs.
type measurement struct {
	Questions float64
	Seconds   float64
	Accuracy  float64
}

// measure runs one algorithm spec on a preprocessed point set for Trials
// random users and averages the paper's measurements.
func measure(points []geom.Vector, k int, spec AlgSpec, cfg Config) measurement {
	d := len(points[0])
	var m measurement
	for trial := 0; trial < cfg.Trials; trial++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
		u := oracle.RandomUtility(rng, d)
		eps := oracle.EpsilonForTopK(points, u, k)
		alg := spec.Make(cfg.Seed+int64(trial), eps)
		user := oracle.NewUser(u)
		start := time.Now()
		idx := alg.Run(points, k, user)
		m.Seconds += time.Since(start).Seconds()
		m.Questions += float64(user.Questions())
		m.Accuracy += oracle.Accuracy(points, u, k, points[idx])
	}
	f := float64(cfg.Trials)
	m.Questions /= f
	m.Seconds /= f
	m.Accuracy /= f
	return m
}

// buildDataset creates a named dataset under the config's seed.
func buildDataset(name string, cfg Config) *dataset.Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds, err := dataset.ByName(name, rng, cfg.N, cfg.D)
	if err != nil {
		panic(err)
	}
	return ds
}

// preprocess reduces to the k-skyband as in all of the paper's experiments.
func preprocess(points []geom.Vector, k int) []geom.Vector {
	return skyband.Filter(points, skyband.KSkyband(points, k))
}

// floats converts ints for table x axes.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Plot renders each metric of the table as an ASCII chart (shapes are the
// object of this reproduction; the charts make them visible without leaving
// the terminal). Time metrics are drawn on a log scale.
func (t *Table) Plot(w io.Writer) {
	metrics := make([]string, 0, len(t.Metrics))
	for m := range t.Metrics {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		series := make([]viz.Series, 0, len(t.Metrics[m]))
		for _, s := range t.Metrics[m] {
			series = append(series, viz.Series{Name: s.Name, Values: s.Values})
		}
		c := &viz.Chart{
			Title:  fmt.Sprintf("%s — %s", t.Title, m),
			XLabel: t.XLabel,
			X:      t.X,
			Series: series,
			LogY:   strings.Contains(m, "time"),
		}
		c.Render(w)
		fmt.Fprintln(w)
	}
}

// JSONResult is the serializable form of a Table for archival and
// downstream plotting.
type JSONResult struct {
	Title   string              `json:"title"`
	XLabel  string              `json:"xLabel"`
	X       []float64           `json:"x"`
	Metrics map[string][]Series `json:"metrics"`
}

// WriteJSON serializes the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(JSONResult{Title: t.Title, XLabel: t.XLabel, X: t.X, Metrics: t.Metrics})
}
