package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"imagebench/internal/fsatomic"
)

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// distribution summarises one metric over the runs of a set.
type distribution struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   int       `json:"runs"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func distributionOf(xs []float64) distribution {
	q1, q2, q3 := quartiles(xs)
	return distribution{Median: q2, Q1: q1, Q3: q3, Runs: len(xs), Spread: spread(xs), Values: xs}
}

// baselineMetric is one end-to-end metric on one workload: each set's
// distribution, and whether the sets agree within the metric's bound.
type baselineMetric struct {
	Unit   string         `json:"unit"`
	Better string         `json:"better"`
	Bound  float64        `json:"bound"`
	Sets   []distribution `json:"sets"`
	// SetDelta is how much worse the worst set median is than the best,
	// as a share of the best; SpreadOK is whether every set's spread is
	// within the bound (setup_s is exempt, as in the driver).
	SetDelta float64 `json:"setDelta"`
	DeltaOK  bool    `json:"deltaWithinBound"`
	SpreadOK bool    `json:"spreadWithinBound"`
}

type baselineWorkload struct {
	Seeds        [][]int64                 `json:"seeds"`
	OpsAttempted [][]int                   `json:"opsAttempted"`
	OpsFailed    [][]int                   `json:"opsFailed"`
	EndToEnd     map[string]baselineMetric `json:"endToEnd"`
	PerLayer     map[string]metricValue    `json:"perLayer"`
}

type baselineDoc struct {
	Schema     int    `json:"schema"`
	Recorded   string `json:"recorded"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	OSArch     string `json:"osArch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	RunSeconds int    `json:"runSeconds"`
	Sets       int    `json:"sets"`
	RunsPerSet int    `json:"runsPerSet"`
	SeedBase   int64  `json:"seedBase"`

	Workloads map[string]*baselineWorkload `json:"workloads"`
	// Claim is always null: the change that defines the benchmark claims
	// no gain.
	Claim *string `json:"claim"`
}

// recordBaseline runs every workload o.sets x o.runs times untraced and
// once traced, each run a fresh process of this program (so process-wide
// state starts cold, as a CLI user pays), and writes the summary to o.out.
func recordBaseline(ctx context.Context, o options, stdout, stderr io.Writer) error {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Errorf("refusing to record a baseline at GOMAXPROCS=%d: nothing parallel would be measured doing its job (need at least 2)", p)
	}
	if o.sets < 2 || o.runs < 3 {
		return fmt.Errorf("a baseline needs at least 2 sets of at least 3 runs (got %d x %d)", o.sets, o.runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	doc := &baselineDoc{
		Schema: 1, Recorded: time.Now().UTC().Format(time.RFC3339), Commit: commit(ctx, root),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		RunSeconds: o.seconds, Sets: o.sets, RunsPerSet: o.runs, SeedBase: o.seed,
		Workloads: map[string]*baselineWorkload{},
	}
	child := func(workload string, seed int64, trace int) (*resultLine, error) {
		args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace), "-workdir", o.workDir}
		if trace == 1 {
			args = append(args, "-trace-out", filepath.Join(filepath.Dir(o.out), "trace-"+workload+".json"))
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", workload, seed, trace, err)
		}
		return &res, nil
	}

	for _, w := range workloads {
		bw := &baselineWorkload{EndToEnd: map[string]baselineMetric{}, PerLayer: map[string]metricValue{}}
		doc.Workloads[w.Name] = bw
		values := map[string][][]float64{} // metric → set → runs
		for s := 0; s < o.sets; s++ {
			var seeds []int64
			var att, fail []int
			for i := 0; i < o.runs; i++ {
				seed := o.seed + int64(s*o.runs+i)
				res, err := child(w.Name, seed, 0)
				if err != nil {
					return err
				}
				seeds, att, fail = append(seeds, seed), append(att, res.Attempted), append(fail, res.Failed)
				for _, m := range endToEnd {
					if len(values[m.Name]) <= s {
						values[m.Name] = append(values[m.Name], nil)
					}
					values[m.Name][s] = append(values[m.Name][s], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(stdout, "%s set %d run %d seed %d: ops_per_s=%v failed=%d\n", w.Name, s, i, seed, res.Metrics["ops_per_s"].Value, res.Failed)
			}
			bw.Seeds, bw.OpsAttempted, bw.OpsFailed = append(bw.Seeds, seeds), append(bw.OpsAttempted, att), append(bw.OpsFailed, fail)
		}
		for _, m := range endToEnd {
			bm := baselineMetric{Unit: m.Unit, Better: m.Better, Bound: m.Bound, SpreadOK: true}
			var medians []float64
			for _, xs := range values[m.Name] {
				d := distributionOf(xs)
				bm.Sets = append(bm.Sets, d)
				medians = append(medians, d.Median)
				if m.Name != "setup_s" && d.Spread > m.Bound {
					bm.SpreadOK = false
				}
			}
			bm.SetDelta = worstOverBest(medians, m.Better)
			bm.DeltaOK = bm.SetDelta <= m.Bound
			bw.EndToEnd[m.Name] = bm
			fmt.Fprintf(stdout, "%s %s: set medians %v, delta %.1f%% of bound %.0f%%, spread ok=%v\n",
				w.Name, m.Name, medians, bm.SetDelta*100, m.Bound*100, bm.SpreadOK)
		}
		res, err := child(w.Name, o.seed, 1)
		if err != nil {
			return err
		}
		bw.PerLayer = res.Metrics
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	if err := fsatomic.WriteFile(o.out, append(b, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "baseline written to %s (GOMAXPROCS=%d, claim: null)\n", o.out, doc.GOMAXPROCS)
	return nil
}

// worstOverBest is how much worse the worst of xs is than the best, as a
// share of the best.
func worstOverBest(xs []float64, better string) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	if lo <= 0 {
		return 0
	}
	if better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}
